"""Exact arithmetic in the cyclotomic field carrying all scalars of the
theory with parameters (N, K), and in its subfield Q(q).

zeta denotes the primitive m-th root of unity exp(2*pi*i/m) with
m = 2*N*(N+K).  The deformation parameter q = exp(2*pi*i/(N+K)) and the
fractional powers the skein relations need are monomials in zeta:

    q = zeta^(2N),    q^(1/2) = zeta^N,    q^(1/2N) = zeta.

Q(q) = Q(zeta_{N+K}), with phi(N+K) coefficients, carries what involves
q alone (Hecke relations, traces of the T_w).  It is Q(zeta_{m'}) with
m' = N+K or 2(N+K), whichever is even: phi(m') <= m'/2 keeps products
inside the reduction table.  ``Params.lift`` embeds it, zeta_{m'} ->
zeta^(m/m').  Embedding and the Galois automorphisms zeta -> zeta^k
(k prime to m; complex conjugation is k = -1) are one substitution of
monomials, ``_Field.monomial_map``.  Inversion uses them too: x^-1 is
the product of the other Galois conjugates of x over the rational norm
N(x), so the field needs no polynomial division beyond building Phi_m.

A scalar is a polynomial in zeta with rational coefficients, reduced
modulo the m-th cyclotomic polynomial Phi_m.  It is stored as an integer
coefficient vector of length phi(m) over a single positive denominator,
normalised so the representation is canonical; equality (in particular
deciding whether a quantum integer vanishes) is a coefficient
comparison.  Floating point enters only through ``embed``: for reporting,
and for the sign of a real pivot certified against its rounding error
(``linalg.positive_definite``).
"""
from __future__ import annotations

import cmath
from collections import namedtuple
from functools import lru_cache
from math import gcd
from numbers import Rational

__all__ = [
    "Params",
    "Scalar",
    "qint",
    "qfact",
]


def _polydiv_exact(num: list[int], den: list[int]) -> list[int]:
    """Divide polynomials with integer coefficients, ascending order.

    The divisor must be monic and the division must be exact; both hold
    for products of cyclotomic polynomials.
    """
    num = list(num)
    dden = len(den) - 1
    if den[-1] != 1:
        raise ValueError("divisor must be monic")
    quot = [0] * (len(num) - dden)
    for k in range(len(quot) - 1, -1, -1):
        c = num[k + dden]
        quot[k] = c
        if c:
            for j, dj in enumerate(den):
                num[k + j] -= c * dj
    if any(num):
        raise ValueError("polynomial division not exact")
    return quot


@lru_cache(maxsize=None)
def _cyclotomic(m: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_m, ascending, computed by dividing
    x^m - 1 by the cyclotomic polynomials of the proper divisors."""
    poly = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            poly = _polydiv_exact(poly, list(_cyclotomic(d)))
    return tuple(poly)


class _Field:
    """Shared reduction data for Q(zeta_m); one instance per m."""

    __slots__ = ("m", "phi", "phim", "red", "zpow")

    def __init__(self, m: int):
        self.m = m
        phim = _cyclotomic(m)
        self.phim = phim
        self.phi = len(phim) - 1
        phi = self.phi
        # red[j] = coefficient vector of zeta^j reduced mod Phi_m, 0 <= j < m.
        rows: list[tuple[int, ...]] = []
        for j in range(phi):
            row = [0] * phi
            row[j] = 1
            rows.append(tuple(row))
        top = [-c for c in phim[:phi]]  # zeta^phi
        cur = top[:]
        rows.append(tuple(cur))
        for _ in range(phi + 1, m):
            shifted = [0] + cur[:-1]
            lead = cur[-1]
            if lead:
                for t in range(phi):
                    shifted[t] += lead * top[t]
            cur = shifted
            rows.append(tuple(cur))
        self.red = tuple(rows)
        self.zpow = tuple(cmath.exp(2j * cmath.pi * j / m) for j in range(m))

    def mul_vec(self, a: tuple[int, ...], b: tuple[int, ...]) -> list[int]:
        phi = self.phi
        prod = [0] * (2 * phi - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        prod[i + j] += ai * bj
        out = prod[:phi]
        red = self.red
        for k in range(phi, 2 * phi - 1):
            ck = prod[k]
            if ck:
                row = red[k]
                for t in range(phi):
                    rt = row[t]
                    if rt:
                        out[t] += ck * rt
        return out

    def monomial_map(self, a, step: int, k: int = 0) -> list[int]:
        """Coefficients of sum_j a_j zeta^(j*step + k) reduced mod Phi_m:
        a step prime to m is the Galois automorphism zeta -> zeta^step
        (step = -1 conjugates), and step = m/m' embeds Q(zeta_m')."""
        out = [0] * self.phi
        m, red = self.m, self.red
        for j, aj in enumerate(a):
            if aj:
                for t, rt in enumerate(red[(j * step + k) % m]):
                    if rt:
                        out[t] += aj * rt
        return out


@lru_cache(maxsize=None)
def _field(m: int) -> _Field:
    return _Field(m)


def _content(nums: list[int], den: int) -> int:
    g = den
    for v in nums:
        if v:
            g = gcd(g, v)
            if g == 1:
                return 1
    return g


class Scalar:
    """Element of Q(zeta_m) in canonical coefficient form.

    ``num`` holds integer coefficients of 1, zeta, ..., zeta^(phi-1) and
    ``den`` a positive common denominator with no factor shared by the
    whole vector.
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, field: _Field, num: tuple[int, ...], den: int):
        self.field = field
        self.num = num
        self.den = den

    @staticmethod
    def _make(field: _Field, nums: list[int], den: int) -> "Scalar":
        if den < 0:
            den = -den
            nums = [-v for v in nums]
        if not any(nums):
            return Scalar(field, (0,) * field.phi, 1)
        g = _content(nums, den)
        if g > 1:
            nums = [v // g for v in nums]
            den //= g
        return Scalar(field, tuple(nums), den)

    # -- constructors ------------------------------------------------

    @staticmethod
    def from_rational(field: _Field, x: Rational | float) -> "Scalar":
        """x exactly; a float converts as Fraction(x) does."""
        if not isinstance(x, int):
            # fractions imports decimal, so only a call that needs it loads it
            from fractions import Fraction

            x = Fraction(x)
        nums = [0] * field.phi
        nums[0] = x.numerator
        return Scalar._make(field, nums, x.denominator)

    @staticmethod
    def zeta_power(field: _Field, k: int) -> "Scalar":
        return Scalar(field, field.red[k % field.m], 1)

    # -- predicates --------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_rational(self) -> Fraction:
        from fractions import Fraction

        if not self.is_rational():
            raise ValueError("scalar is not rational")
        return Fraction(self.num[0], self.den)

    # -- ring operations ---------------------------------------------

    def _coerce(self, other) -> "Scalar | None":
        if isinstance(other, Scalar):
            if other.field is not self.field:
                raise ValueError("scalars from different fields")
            return other
        if isinstance(other, (int, Rational)):
            return Scalar.from_rational(self.field, other)
        return None

    def __add__(self, other) -> "Scalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self, o
        if a.den == b.den:
            nums = [x + y for x, y in zip(a.num, b.num)]
            return Scalar._make(a.field, nums, a.den)
        nums = [x * b.den + y * a.den for x, y in zip(a.num, b.num)]
        return Scalar._make(a.field, nums, a.den * b.den)

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        return Scalar(self.field, tuple(-v for v in self.num), self.den)

    def __sub__(self, other) -> "Scalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.__add__(-o)

    def __rsub__(self, other) -> "Scalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__add__(-self)

    def __mul__(self, other) -> "Scalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        nums = self.field.mul_vec(self.num, o.num)
        return Scalar._make(self.field, nums, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Scalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other) -> "Scalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k: int) -> "Scalar":
        if k < 0:
            return self.inverse() ** (-k)
        if not k:
            return Scalar.from_rational(self.field, 1)
        base = self
        while not k & 1:
            base = base * base
            k >>= 1
        out = base  # the lowest set bit; square only while bits remain
        while k := k >> 1:
            base = base * base
            if k & 1:
                out = out * base
        return out

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self) -> int:
        return hash((self.field.m, self.num, self.den))

    def __repr__(self) -> str:
        return f"Scalar(m={self.field.m}, num={list(self.num)}, den={self.den})"

    # -- field operations --------------------------------------------

    def conjugate(self) -> "Scalar":
        return Scalar._make(self.field, self.field.monomial_map(self.num, -1), self.den)

    def inverse(self) -> "Scalar":
        """Multiplicative inverse as a Galois norm quotient.

        The automorphisms sigma_k: zeta -> zeta^k, k prime to m, fix
        exactly Q, so N(x) = x * prod_{k != 1} sigma_k(x) is rational and
        x^-1 = prod_{k != 1} sigma_k(x) / N(x).  The product runs over
        the integer numerator a (x = a/d): x^-1 = d * prod sigma_k(a) / N(a),
        with N(a) an integer.  A norm that is not rational means Phi_m
        is wrong and raises ArithmeticError."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero scalar")
        field = self.field
        m = field.m
        prod = [1] + [0] * (field.phi - 1)
        for k in range(2, m):
            if gcd(k, m) == 1:
                prod = field.mul_vec(prod, field.monomial_map(self.num, k))
        norm = field.mul_vec(self.num, prod)
        if any(norm[1:]) or not norm[0]:
            raise ArithmeticError("norm is not a nonzero rational")
        return Scalar._make(field, [v * self.den for v in prod], norm[0])

    def embed(self) -> complex:
        """The value at zeta = exp(2 pi i/m); ValueError when it does not
        fit a float, such as [5]^1000 at (5,5)."""
        z = 0j
        zpow = self.field.zpow
        try:
            for j, c in enumerate(self.num):
                if c:
                    z += c * zpow[j]
            z = z / self.den
        except OverflowError:
            z = cmath.inf
        if not cmath.isfinite(z):
            raise ValueError("the value is too large to embed as a float")
        return z

    # -- serialization -----------------------------------------------

    def to_json(self, embed: bool = False) -> dict:
        """Exact coordinates; with ``embed``, also the float embedding
        as [re, im] for human inspection."""
        data = {"den": self.den, "num": list(self.num)}
        if embed:
            e = self.embed()
            data["embed"] = [e.real, e.imag]
        return data

    @staticmethod
    def from_json(field: _Field, data: dict) -> "Scalar":
        num = [int(v) for v in data["num"]]
        if len(num) != field.phi:
            raise ValueError("coefficient vector has wrong length")
        return Scalar._make(field, num, int(data["den"]))


class Params(namedtuple("Params", "N K")):
    """Parameters of the theory: rank N >= 2 and level K >= 1.

    Fixes q = exp(2*pi*i/(N+K)), the ambient cyclotomic field
    Q(zeta_m) with m = 2N(N+K) and its subfield Q(q)."""

    __slots__ = ()

    def __new__(cls, N: int, K: int):
        if N < 2:
            raise ValueError("N must be at least 2")
        if K < 1:
            raise ValueError("K must be at least 1")
        return super().__new__(cls, N, K)

    @property
    def m(self) -> int:
        return 2 * self.N * (self.N + self.K)

    @property
    def phi(self) -> int:
        return self.field.phi

    @property
    def field(self) -> _Field:
        return _field(self.m)

    @property
    def subfield(self) -> _Field:
        """Q(q), with the even modulus N+K or 2(N+K)."""
        M = self.N + self.K
        return _field(M if M % 2 == 0 else 2 * M)

    def lift(self, x: Scalar, k: int = 0) -> Scalar:
        """zeta^k times the embedding of a scalar of Q(q) in the ambient
        field (q -> zeta^(2N))."""
        if self.m % x.field.m:
            raise ValueError("scalar is not in a subfield of the ambient field")
        field = self.field
        return Scalar._make(field, field.monomial_map(x.num, self.m // x.field.m, k), x.den)

    # -- scalar constructors -----------------------------------------

    def scalar(self, x: Rational | float) -> Scalar:
        return Scalar.from_rational(self.field, x)

    @property
    def zero(self) -> Scalar:
        return self.scalar(0)

    @property
    def one(self) -> Scalar:
        return self.scalar(1)

    def zeta_pow(self, k: int) -> Scalar:
        """zeta^k = q^(k/2N)."""
        return Scalar.zeta_power(self.field, k)

    def q_pow(self, k: int) -> Scalar:
        return self.q_pow_in(self.field, k)

    def q_pow_in(self, field: _Field, k: int) -> Scalar:
        """q^k in the ambient field or in the subfield Q(q)."""
        return Scalar.zeta_power(field, k * (field.m // (self.N + self.K)))

    def q_half_pow(self, k: int) -> Scalar:
        """q^(k/2)."""
        return self.zeta_pow(self.N * k)

    @property
    def q(self) -> Scalar:
        return self.q_pow(1)

    def scalar_from_json(self, data: dict) -> Scalar:
        return Scalar.from_json(self.field, data)


def qint(p: Params, j: int) -> Scalar:
    """Quantum integer [j] = q^((j-1)/2) + q^((j-3)/2) + ... + q^(-(j-1)/2).

    [j] vanishes exactly when N+K divides j; in particular [N+K] = 0 and
    [j] is invertible for 1 <= j < N+K.  Since q^(1/2) has order 2(N+K),
    [j + 2(N+K)] = [j], so j is reduced first and the sum has fewer
    than 2(N+K) terms.  With q^(1/2) = zeta^N the terms are
    zeta^(N(j-1-2t)), t < j: one monomial map."""
    if j < 0:
        raise ValueError("quantum integer of negative argument")
    j %= 2 * (p.N + p.K)
    return Scalar._make(p.field, p.field.monomial_map([1] * j, -2 * p.N, p.N * (j - 1)), 1)


def qfact(p: Params, n: int) -> Scalar:
    """Quantum factorial [n]! = [1][2]...[n]."""
    acc = p.one
    for j in range(1, n + 1):
        acc = acc * qint(p, j)
    return acc
