"""The Hecke algebra tower at q = exp(2*pi*i/(N+K)) with its braid
group action and symmetrizer calculus.

H_n is presented on the basis {T_w : w in S_n} with the rewriting rule

    T_{s_i} T_w = T_{s_i w}                    if l(s_i w) > l(w),
    T_{s_i} T_w = (q-1) T_w + q T_{s_i w}      otherwise,

so each generator satisfies T^2 = (q-1)T + q with eigenvalues q and -1.
Braid generators are normalised generators,

    sigma_i  =  -q^(-(N-1)/2N) T_{s_i},

which places the eigenvalues of sigma_i at q^((1-N)/2N) on the
symmetric part and -q^((1+N)/2N) on the antisymmetric part.  Under this
convention, exactly:

* e_i = (q - T_{s_i})/(q+1) = (q + q^((N-1)/2N) sigma_i)/(q+1) is an
  idempotent;
* the symmetrizer f_n absorbs each sigma_i with q^((1-N)/2N), the
  antisymmetrizer g_n with -q^((1+N)/2N);
* the skein relation holds in the form
  q^(-1/2N) sigma_i - q^(1/2N) sigma_i^(-1) = (q^(-1/2) - q^(1/2)).

The mirror convention (sigma_i replaced by its inverse) satisfies the
same relation with the right-hand side negated; it is not used here.

``star`` is the conjugate-linear anti-automorphism fixing every e_i: it
conjugates coefficients and sends each T_w to its algebra inverse.

The rewriting rule, and its inverse form T^-1 = q^-1 T + (q^-1 - 1), is
written once, in ``_gen_step``: it multiplies by T_{s_i}^(+/-1) on the
side whose neighbour table it is given, in whatever field holds the
coefficients.  Products, inverses and braid words all go through it.
Braid words are expanded in bare generators T_{s_i}^(+/-1) over the
subfield Q(q); ``from_braid`` embeds each term in the ambient field
together with the braid normalisation, and ``sigma_element`` is the
one-letter braid word.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from random import Random

from .closure import BraidWord, braid_phase
from .diagrams import YoungDiagram
from .perms import PermTable, perm_table
from .scalar import Params, Scalar, qfact, qint

__all__ = [
    "HeckeElement",
    "YoungIdempotent",
    "from_braid",
    "star",
    "e_idempotent",
    "jones_wenzl",
    "young_idempotent",
    "tensor_embed",
    "random_element",
]


class HeckeElement:
    """Element of H_n stored as a sparse map from permutation indices
    (into the shared PermTable) to scalars."""

    __slots__ = ("p", "n", "terms")

    def __init__(self, p: Params, n: int, terms: dict[int, Scalar]):
        self.p = p
        self.n = n
        self.terms = {w: c for w, c in terms.items() if not c.is_zero()}

    # -- constructors ------------------------------------------------

    @staticmethod
    def identity(p: Params, n: int) -> "HeckeElement":
        return HeckeElement(p, n, {0: p.one})

    @staticmethod
    def basis(p: Params, n: int, w: int) -> "HeckeElement":
        return HeckeElement(p, n, {w: p.one})

    # -- structure ---------------------------------------------------

    @property
    def table(self) -> PermTable:
        return perm_table(self.n)

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, w: int) -> Scalar:
        return self.terms.get(w, self.p.zero)

    def _check(self, other: "HeckeElement"):
        if other.p != self.p or other.n != self.n:
            raise ValueError("elements live in different algebras")

    # -- linear operations -------------------------------------------

    def __add__(self, other: "HeckeElement") -> "HeckeElement":
        self._check(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            _acc(out, w, c)
        return HeckeElement(self.p, self.n, out)

    def __sub__(self, other: "HeckeElement") -> "HeckeElement":
        return self + -other

    def __neg__(self) -> "HeckeElement":
        return HeckeElement(self.p, self.n, {w: -c for w, c in self.terms.items()})

    def scale(self, c: Scalar | int) -> "HeckeElement":
        if isinstance(c, int):
            c = self.p.scalar(c)
        return HeckeElement(self.p, self.n, {w: c * v for w, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, HeckeElement):
            self._check(other)
            return _mul_elements(self, other)
        if isinstance(other, (Scalar, int)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (Scalar, int)):
            return self.scale(other)
        return NotImplemented

    def __eq__(self, other) -> bool:
        if not isinstance(other, HeckeElement):
            return NotImplemented
        return self.p == other.p and self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.p, self.n, tuple(sorted((w, c) for w, c in self.terms.items()))))

    def __repr__(self) -> str:
        tbl = self.table
        parts = [f"{c!r}*T{tbl.perms[w]}" for w, c in sorted(self.terms.items())]
        return f"HeckeElement(n={self.n}, " + " + ".join(parts[:4]) + (" ..." if len(parts) > 4 else "") + ")"

    def proportionality(self, other: "HeckeElement") -> Scalar | None:
        """The scalar c with self = c * other, or None if there is none."""
        self._check(other)
        if other.is_zero():
            return self.p.zero if self.is_zero() else None
        w0, c0 = next(iter(other.terms.items()))
        c = self.coeff(w0) / c0
        return c if self == other.scale(c) else None

    # -- star structure ----------------------------------------------

    def star(self) -> "HeckeElement":
        out: dict[int, Scalar] = {}
        for w, cw in self.terms.items():
            c = cw.conjugate()
            for v, cv in _basis_inverse(self.p, self.n, w):
                _acc(out, v, c * cv)
        return HeckeElement(self.p, self.n, out)

    # -- serialization -----------------------------------------------

    def to_json(self) -> dict:
        tbl = self.table
        terms = [
            {"perm": [x + 1 for x in tbl.perms[w]], "coeff": c.to_json()}
            for w, c in sorted(self.terms.items())
        ]
        return {"n": self.n, "terms": terms}

    @staticmethod
    def from_json(p: Params, data: dict) -> "HeckeElement":
        n = int(data["n"])
        tbl = perm_table(n)
        terms: dict[int, Scalar] = {}
        for t in data["terms"]:
            w = tbl.index[tuple(x - 1 for x in t["perm"])]
            terms[w] = p.scalar_from_json(t["coeff"])
        return HeckeElement(p, n, terms)


def _acc(d: dict[int, Scalar], w: int, c: Scalar):
    prev = d.get(w)
    d[w] = c if prev is None else prev + c


def _gen_step(p: Params, ln: tuple[int, ...], nbr, terms: dict[int, Scalar], i: int,
              sign: int = 1) -> dict[int, Scalar]:
    """Multiply a term dict by T_{s_i}^sign, sign = +/-1, on the side
    whose neighbour table ``nbr`` is given: PermTable.lmul multiplies on
    the left, PermTable.rmul on the right.  q is taken in the field of
    the coefficients.  With Q = q^sign, T^sign moves T_w to its neighbour
    T_v when l(v) - l(w) has the sign of the power, and otherwise gives
    (Q-1) T_w + Q T_v: the quadratic relation T^2 = (q-1)T + q for
    sign = 1, and T^-1 = q^-1 T + (q^-1 - 1) for sign = -1."""
    if not terms:
        return {}
    qs = p.q_pow_in(next(iter(terms.values())).field, sign)
    qs1 = qs - 1
    out: dict[int, Scalar] = {}
    for w, c in terms.items():
        v = nbr[w][i]
        if (ln[v] - ln[w]) * sign > 0:
            _acc(out, v, c)
        else:
            _acc(out, w, c * qs1)
            _acc(out, v, c * qs)
    return {w: c for w, c in out.items() if not c.is_zero()}


def _mul_elements(x: HeckeElement, y: HeckeElement) -> HeckeElement:
    tbl = x.table
    out: dict[int, Scalar] = {}
    for w, c in x.terms.items():
        z = y.terms
        for i in reversed(tbl.word[w]):
            z = _gen_step(x.p, tbl.length, tbl.lmul, z, i)
        for v, cv in z.items():
            _acc(out, v, c * cv)
    return HeckeElement(x.p, x.n, out)


def star(x: HeckeElement) -> HeckeElement:
    return x.star()


@lru_cache(maxsize=None)
def _basis_inverse(p: Params, n: int, w: int) -> tuple[tuple[int, Scalar], ...]:
    """(T_w)^(-1) as a term list; T_w^(-1) = T_{s_ik}^(-1)...T_{s_i1}^(-1)
    for any reduced word s_i1...s_ik of w."""
    tbl = perm_table(n)
    terms = {0: p.one}
    for i in tbl.word[w]:
        terms = _gen_step(p, tbl.length, tbl.lmul, terms, i, -1)
    return tuple(sorted(terms.items()))


def sigma_element(p: Params, n: int, i: int, sign: int = 1) -> HeckeElement:
    """Image of the braid generator sigma_i^(sign), i 1-based."""
    return from_braid(p, BraidWord(n, (i if sign >= 0 else -i,)))


def from_braid(p: Params, b: BraidWord) -> HeckeElement:
    """Image of a braid word under sigma_i -> -q^(-(N-1)/2N) T_{s_i}.

    The word is expanded in bare generators T_{s_i}^(+/-1) over Q(q);
    each term is embedded times the normalisation zeta^braid_phase."""
    n = b.strands
    tbl = perm_table(n)
    terms = {0: Scalar.from_rational(p.subfield, 1)}
    for e in reversed(b.word):
        terms = _gen_step(p, tbl.length, tbl.lmul, terms, abs(e) - 1, 1 if e > 0 else -1)
    k = braid_phase(p, b)
    return HeckeElement(p, n, {w: p.lift(v, k) for w, v in terms.items()})


def e_idempotent(p: Params, n: int, i: int) -> HeckeElement:
    """The idempotent e_i = (q - T_{s_i})/(q + 1), i 1-based."""
    if not 1 <= i <= n - 1:
        raise ValueError("generator index out of range")
    tbl = perm_table(n)
    si = tbl.lmul[0][i - 1]
    d = (p.q + 1).inverse()
    return HeckeElement(p, n, {0: p.q * d, si: -d})


def jones_wenzl(p: Params, n: int, kind: str) -> HeckeElement:
    """The rank-one symmetrizer f_n (kind "sym") or antisymmetrizer g_n
    (kind "antisym") of H_n:

        f_n = (q^(n(n-1)/4)/[n]!)  sum_w (-1/q)^l(w) T_w,
        g_n = (q^(-n(n-1)/4)/[n]!) sum_w            T_w.

    Requires [n]! invertible, i.e. n < N+K."""
    if kind not in ("sym", "antisym"):
        raise ValueError("kind must be 'sym' or 'antisym'")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n >= p.N + p.K:
        raise ValueError(f"[{n}]! vanishes at this root of unity")
    if n == 0:
        return HeckeElement.identity(p, 0)
    tbl = perm_table(n)
    fact_inv = qfact(p, n).inverse()
    half = p.N * n * (n - 1) // 2  # q^(n(n-1)/4) = zeta^half
    maxlen = n * (n - 1) // 2
    if kind == "sym":
        pref = p.zeta_pow(half) * fact_inv
        base = -p.q_pow(-1)
    else:
        pref = p.zeta_pow(-half) * fact_inv
        base = p.one
    pows = [p.one]
    for _ in range(maxlen):
        pows.append(pows[-1] * base)
    terms = {w: pref * pows[tbl.length[w]] for w in range(tbl.size)}
    return HeckeElement(p, n, terms)


def tensor_embed(x: HeckeElement, y: HeckeElement) -> HeckeElement:
    """Juxtaposition H_a (x) H_b -> H_{a+b}, x on the first a strands."""
    if x.p != y.p:
        raise ValueError("parameter mismatch")
    a, b = x.n, y.n
    ta, tb = x.table, y.table
    tc = perm_table(a + b)
    out: dict[int, Scalar] = {}
    for u, cu in x.terms.items():
        pu = ta.perms[u]
        for v, cv in y.terms.items():
            pv = tb.perms[v]
            w = tc.index[pu + tuple(t + a for t in pv)]
            out[w] = cu * cv
    return HeckeElement(x.p, a + b, out)


@dataclass(frozen=True)
class YoungIdempotent:
    """Young symmetrizer data for a diagram: the quasi-idempotent
    y~ with y~^2 = hook * y~, the quantum hook product, and the honest
    idempotent y = y~/hook when the hook product is invertible."""

    quasi: HeckeElement
    hook: Scalar
    idem: HeckeElement | None


def _rearrangement_perm(d: YoungDiagram) -> tuple[int, ...]:
    """One-line permutation mapping column-major cell slots to the
    row-major strand positions of the same cells."""
    cells_rm = d.cells()
    pos_rm = {c: k for k, c in enumerate(cells_rm)}
    cells_cm = sorted(cells_rm, key=lambda c: (c[1], c[0]))
    return tuple(pos_rm[c] for c in cells_cm)


@lru_cache(maxsize=None)
def young_idempotent(p: Params, d: YoungDiagram) -> YoungIdempotent:
    """Young symmetrizer of a diagram on |d| strands.

    Rows are symmetrized in place (row-major consecutive strands); the
    column antisymmetrizers act on consecutive slots and are conjugated
    back by the positive permutation braid that rearranges row-major
    order into column-major order.  The product

        y~ = (prod_rows [r]! f_r) * w (prod_cols [c]! g_c) w^(-1)

    satisfies y~^2 = (prod_cells [hook]) y~; when the hook product is
    invertible, y = y~/hook is an idempotent."""
    n = d.size
    if n == 0:
        one = HeckeElement.identity(p, 0)
        return YoungIdempotent(one, p.one, one)
    limit = p.N + p.K
    if d.row(0) >= limit or d.transpose().row(0) >= limit:
        raise ValueError("a row or column factorial vanishes for this diagram")
    f_part: HeckeElement | None = None
    scale = p.one
    for r in d.rows:
        f_part = jones_wenzl(p, r, "sym") if f_part is None else tensor_embed(f_part, jones_wenzl(p, r, "sym"))
        scale = scale * qfact(p, r)
    g_part: HeckeElement | None = None
    for c in d.transpose().rows:
        g_part = jones_wenzl(p, c, "antisym") if g_part is None else tensor_embed(g_part, jones_wenzl(p, c, "antisym"))
        scale = scale * qfact(p, c)
    assert f_part is not None and g_part is not None
    tbl = perm_table(n)
    pi = tbl.index[_rearrangement_perm(d)]
    w_elem = HeckeElement.basis(p, n, pi)
    w_inv = HeckeElement(p, n, dict(_basis_inverse(p, n, pi)))
    quasi = (f_part * (w_elem * g_part * w_inv)).scale(scale)
    hook = p.one
    for h in d.hook_lengths():
        hook = hook * qint(p, h)
    idem = quasi.scale(hook.inverse()) if not hook.is_zero() else None
    return YoungIdempotent(quasi, hook, idem)


def random_element(p: Params, n: int, rng: Random, nterms: int = 4) -> HeckeElement:
    """Sparse random element with small exact coefficients."""
    tbl = perm_table(n)
    terms: dict[int, Scalar] = {}
    for _ in range(nterms):
        w = rng.randrange(tbl.size)
        c = p.zeta_pow(rng.randrange(p.m)) * rng.randint(-3, 3)
        _acc(terms, w, c)
    return HeckeElement(p, n, terms)
