"""Exact cyclotomic arithmetic: field structure, quantum integers,
conjugation, embedding and serialization."""

from fractions import Fraction
from math import gcd
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsk import Params, Scalar, qfact, qint

PARAMS = [Params(2, 1), Params(2, 2), Params(3, 1), Params(3, 2), Params(4, 1)]


def _scalar_from_coeffs(p, coeffs):
    out = p.zero
    for k, c in enumerate(coeffs):
        out = out + p.scalar(Fraction(c)) * p.zeta_pow(k)
    return out


small_coeffs = st.lists(st.integers(-6, 6), min_size=1, max_size=6)
param_idx = st.integers(0, len(PARAMS) - 1)


class TestParams:
    def test_field_sizes(self):
        assert Params(2, 2).m == 16
        assert Params(2, 1).m == 12
        assert Params(3, 1).m == 24
        assert Params(3, 2).m == 30
        assert Params(4, 1).m == 40

    def test_rank_and_level_bounds(self):
        with pytest.raises(ValueError, match="N must be at least 2"):
            Params(1, 3)
        with pytest.raises(ValueError, match="K must be at least 1"):
            Params(2, 0)

    def test_value_type(self):
        p = Params(2, 3)
        assert repr(p) == "Params(N=2, K=3)"
        assert p == Params(N=2, K=3) and hash(p) == hash(Params(2, 3))
        assert {p: 1}[Params(2, 3)] == 1
        with pytest.raises(AttributeError):
            p.N = 3

    def test_q_is_the_right_root(self):
        for p in PARAMS:
            got = p.q.embed()
            expect = complex(
                __import__("cmath").exp(2j * __import__("math").pi / (p.N + p.K))
            )
            assert abs(got - expect) < 1e-12

    def test_zeta_powers_compose(self):
        p = Params(3, 2)
        assert p.zeta_pow(7) * p.zeta_pow(11) == p.zeta_pow(18)
        assert p.zeta_pow(p.m) == p.one
        assert p.q_half_pow(2) == p.q
        assert p.q_pow(1) == p.zeta_pow(2 * p.N)


class TestArithmetic:
    def test_rational_operands(self):
        p = Params(2, 2)
        half = Fraction(1, 2)
        assert p.scalar(0.5) == p.scalar(half) == half
        assert p.scalar(Fraction(6, 4)).to_json() == {"den": 2, "num": [3, 0, 0, 0, 0, 0, 0, 0]}
        assert (p.q + half) - half == p.q and half - p.q == -(p.q - half)
        assert (half * p.one).as_rational() == half and (p.one / half).as_rational() == 2
        assert (half / p.scalar(3)).as_rational() == Fraction(1, 6)
        # a float converts exactly, as Fraction(x) does
        assert p.scalar(0.1).as_rational() == Fraction(0.1) != Fraction(1, 10)
        got = p.scalar(3).as_rational()
        assert type(got) is Fraction and got == 3
        with pytest.raises(ValueError, match="scalar is not rational"):
            p.q.as_rational()
        with pytest.raises(TypeError):
            p.one + 0.5

    def test_rational_embedding(self):
        p = Params(2, 2)
        x = p.scalar(Fraction(3, 4))
        assert x.as_rational() == Fraction(3, 4)
        assert x.embed() == pytest.approx(0.75)

    def test_root_of_unity_relations(self):
        for p in PARAMS:
            # zeta is a primitive m-th root: zeta^m = 1, zeta^(m/2) = -1
            assert p.zeta_pow(p.m) == p.one
            assert p.zeta_pow(p.m // 2) == -p.one
            assert (p.q_pow(p.N + p.K)) == p.one

    def test_division(self):
        p = Params(3, 2)
        x = _scalar_from_coeffs(p, [1, 2, 0, -1])
        assert (x * x.inverse()) == p.one
        with pytest.raises(ZeroDivisionError):
            p.zero.inverse()

    def test_powers_make_no_product_by_one(self, monkeypatch):
        """x^k starts from the lowest set bit of k and squares no further
        than its highest: x^0 is one, x^1 costs nothing, x^8 three
        squarings; every power equals the product of k factors."""
        p = Params(3, 2)
        x = _scalar_from_coeffs(p, [1, 2, 0, -1])
        chain = [p.one]
        for _ in range(20):
            chain.append(chain[-1] * x)
        products = []
        real = Scalar.__mul__
        monkeypatch.setattr(Scalar, "__mul__", lambda a, b: products.append((a, b)) or real(a, b))
        counts = {}
        for k in range(21):
            products.clear()
            assert x ** k == chain[k], k
            assert all(p.one not in pair for pair in products), k
            counts[k] = len(products)
        assert (counts[0], counts[1], counts[2], counts[3], counts[8]) == (0, 0, 1, 2, 3)
        assert counts[20] == 5  # 4 squarings and one product for the bit 4
        assert x ** 0 == 1 and (x ** -3) * chain[3] == p.one

    @given(param_idx, small_coeffs, small_coeffs, small_coeffs)
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, i, a, b, c):
        p = PARAMS[i]
        x, y, z = (_scalar_from_coeffs(p, v) for v in (a, b, c))
        assert (x + y) * z == x * z + y * z
        assert x * (y * z) == (x * y) * z
        assert x * y == y * x

    @given(param_idx, small_coeffs)
    @settings(max_examples=40, deadline=None)
    def test_inverse_roundtrip(self, i, a):
        p = PARAMS[i]
        x = _scalar_from_coeffs(p, a)
        if x.is_zero():
            return
        assert x * x.inverse() == p.one

    @given(param_idx, small_coeffs, small_coeffs)
    @settings(max_examples=40, deadline=None)
    def test_embed_is_a_homomorphism(self, i, a, b):
        p = PARAMS[i]
        x, y = _scalar_from_coeffs(p, a), _scalar_from_coeffs(p, b)
        assert abs((x * y).embed() - x.embed() * y.embed()) < 1e-9
        assert abs((x + y).embed() - (x.embed() + y.embed())) < 1e-9


class TestConjugation:
    @given(param_idx, small_coeffs, small_coeffs)
    @settings(max_examples=40, deadline=None)
    def test_ring_homomorphism_and_involution(self, i, a, b):
        p = PARAMS[i]
        x, y = _scalar_from_coeffs(p, a), _scalar_from_coeffs(p, b)
        assert x.conjugate().conjugate() == x
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()
        assert (x + y).conjugate() == x.conjugate() + y.conjugate()

    def test_matches_complex_conjugation(self):
        p = Params(3, 2)
        x = _scalar_from_coeffs(p, [2, -1, 0, 3, 1])
        assert abs(x.conjugate().embed() - x.embed().conjugate()) < 1e-12

    def test_norm_is_nonnegative(self):
        p = Params(2, 2)
        x = _scalar_from_coeffs(p, [1, 1, -2])
        norm = (x * x.conjugate()).embed()
        assert abs(norm.imag) < 1e-12 and norm.real >= 0


class TestQuantumIntegers:
    def test_vanishing_exactly_at_n_plus_k(self):
        for p in PARAMS:
            for j in range(1, p.N + p.K):
                assert not qint(p, j).is_zero()
            assert qint(p, p.N + p.K).is_zero()

    def test_small_values(self):
        p = Params(2, 2)  # q = i
        assert qint(p, 1) == p.one
        assert qint(p, 2).embed() == pytest.approx(2 ** 0.5)
        # [2]^2 = 2 exactly
        assert (qint(p, 2) * qint(p, 2)).as_rational() == Fraction(2)
        # symmetric form: [3] = q^-1 + 1 + q = 1 at q = i
        assert qint(p, 3) == p.one

    def test_symmetrized_form(self):
        # [j] = (q^(j/2) - q^(-j/2)) / (q^(1/2) - q^(-1/2))
        for p in PARAMS:
            for j in range(1, p.N + p.K + 1):
                num = p.q_half_pow(j) - p.q_half_pow(-j)
                den = p.q_half_pow(1) - p.q_half_pow(-1)
                assert qint(p, j) * den == num

    def test_periodic_reduction_matches_plain_sum(self):
        # q^(1/2) has order 2(N+K), so qint reduces j before summing; the
        # plain sum is the oracle of its one monomial map
        for p in [*PARAMS, Params(2, 3), Params(5, 5)]:
            for j in range(4 * (p.N + p.K)):
                plain = p.zero
                for t in range(j):
                    plain = plain + p.q_half_pow(j - 1 - 2 * t)
                assert qint(p, j) == plain

    def test_factorials(self):
        p = Params(3, 2)
        assert qfact(p, 0) == p.one
        assert qfact(p, 3) == qint(p, 1) * qint(p, 2) * qint(p, 3)
        assert qfact(p, p.N + p.K).is_zero()

    def test_quantum_integers_are_real(self):
        for p in PARAMS:
            for j in range(1, p.N + p.K):
                x = qint(p, j)
                assert x.conjugate() == x


class TestSerialization:
    def test_roundtrip(self):
        p = Params(3, 2)
        x = _scalar_from_coeffs(p, [1, 0, -2, 5]) * p.scalar(Fraction(1, 3))
        data = x.to_json()
        assert set(data) == {"num", "den"}
        assert p.scalar_from_json(data) == x

    @given(param_idx, small_coeffs)
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_random(self, i, a):
        p = PARAMS[i]
        x = _scalar_from_coeffs(p, a)
        assert p.scalar_from_json(x.to_json()) == x

    def test_json_is_plain_data(self):
        import json

        p = Params(2, 1)
        text = json.dumps(qint(p, 2).to_json())
        assert isinstance(json.loads(text)["num"], list)


# N+K even (4, 6) and odd (3, 5, 7), including the primes 5 and 7
SUB_PARAMS = [Params(2, 1), Params(2, 2), Params(3, 2), Params(2, 3), Params(2, 4),
              Params(4, 1), Params(2, 5), Params(3, 4)]
sub_idx = st.integers(0, len(SUB_PARAMS) - 1)


def _sub_scalar(p, coeffs):
    field = p.subfield
    out = Scalar.from_rational(field, 0)
    for k, c in enumerate(coeffs):
        out = out + Scalar.from_rational(field, Fraction(c)) * Scalar.zeta_power(field, k)
    return out


class TestSubfield:
    def test_sizes(self):
        # phi(N+K) coefficients; the modulus is N+K or 2(N+K), whichever is even
        sizes = {(2, 1): (6, 2), (2, 2): (4, 2), (3, 2): (10, 4), (4, 1): (10, 4),
                 (2, 5): (14, 6), (2, 4): (6, 2)}
        for (N, K), (m, phi) in sizes.items():
            f = Params(N, K).subfield
            assert (f.m, f.phi) == (m, phi)
            assert f.m % 2 == 0

    @given(sub_idx, small_coeffs, small_coeffs, st.fractions(max_denominator=20))
    @settings(max_examples=60, deadline=None)
    def test_lift_is_a_ring_homomorphism(self, i, a, b, r):
        p = SUB_PARAMS[i]
        x, y = _sub_scalar(p, a), _sub_scalar(p, b)
        assert p.lift(x * y) == p.lift(x) * p.lift(y)
        assert p.lift(x + y) == p.lift(x) + p.lift(y)
        assert p.lift(Scalar.from_rational(p.subfield, r)) == p.scalar(r)
        assert abs(p.lift(x).embed() - x.embed()) < 1e-9
        if not x.is_zero():
            assert p.lift(x.inverse()) == p.lift(x).inverse()

    def test_lift_sends_q_to_q(self):
        for p in SUB_PARAMS:
            for k in (-1, 1, 2, p.N):
                assert p.lift(p.q_pow_in(p.subfield, k)) == p.q_pow(k)
            assert p.q_pow_in(p.field, 1) == p.q

    def test_lift_rejects_other_fields(self):
        with pytest.raises(ValueError):
            Params(2, 2).lift(Params(3, 2).q)

    def test_lift_is_injective_on_the_basis(self):
        for p in SUB_PARAMS:
            f = p.subfield
            images = {p.lift(Scalar.zeta_power(f, k)) for k in range(f.phi)}
            assert len(images) == f.phi


# ---------------------------------------------------------------------------
# the extended Euclidean algorithm over Fraction polynomials: the inverse
# route that the Galois norm form replaced, kept as its oracle


def _trim(p):
    k = len(p)
    while k > 1 and p[k - 1] == 0:
        k -= 1
    return p[:k]


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _poly_sub(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, ai in enumerate(a):
        out[i] += ai
    for i, bi in enumerate(b):
        out[i] -= bi
    return out


def _frac_divmod(a, b):
    a = list(a)
    db = len(b) - 1
    if len(a) - 1 < db:
        return [Fraction(0)], a
    quot = [Fraction(0)] * (len(a) - db)
    for k in range(len(quot) - 1, -1, -1):
        c = a[k + db] / b[-1]
        quot[k] = c
        if c:
            for j, bj in enumerate(b):
                a[k + j] -= c * bj
    return quot, a


def _euclid_inverse(x):
    """s with s*a = 1 mod Phi_m from the remainder sequence of (Phi_m, a),
    reduced mod Phi_m and put over one denominator."""
    phim = [Fraction(c) for c in x.field.phim]
    r0, r1 = phim, _trim([Fraction(c, x.den) for c in x.num])
    s0, s1 = [Fraction(0)], [Fraction(1)]
    while len(r1) > 1 or r1[0] != 0:
        q, r = _frac_divmod(r0, r1)
        r0, r1 = r1, _trim(r)
        s0, s1 = s1, _trim(_poly_sub(s0, _poly_mul(q, s1)))
    assert len(r0) == 1
    inv = _frac_divmod([c / r0[0] for c in s0], phim)[1][:x.field.phi]
    inv += [Fraction(0)] * (x.field.phi - len(inv))
    den = 1
    for c in inv:
        den = den * c.denominator // gcd(den, c.denominator)
    return Scalar._make(x.field, [int(c * den) for c in inv], den)


class TestNormInverse:
    """Scalar.inverse, the Galois norm quotient, equals the Euclid oracle
    in every ambient field and subfield Q(q) of the grid and (2,3)."""

    THEORIES = [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (2, 3)]

    @staticmethod
    def _fields():
        for N, K in TestNormInverse.THEORIES:
            p = Params(N, K)
            yield p.field
            yield p.subfield

    @staticmethod
    def _draw(field, rng, bits):
        """A dense or a sparse scalar with numerators of about `bits` bits."""
        nums = [rng.randint(-2 ** bits, 2 ** bits) for _ in range(field.phi)]
        if rng.random() < 0.5:
            nums = [c if rng.random() < 0.3 else 0 for c in nums]
        return Scalar._make(field, nums, rng.randint(1, 2 ** bits))

    def test_matches_euclid_small_coefficients(self):
        rng = Random(61)
        for field in self._fields():
            one = Scalar.from_rational(field, 1)
            for _ in range(25):
                x = self._draw(field, rng, 3)
                if x.is_zero():
                    continue
                inv = x.inverse()
                assert inv == _euclid_inverse(x), (field.m, x)
                assert x * inv == one

    def test_matches_euclid_200_bit_coefficients(self):
        rng = Random(62)
        for field in self._fields():
            for _ in range(3):
                x = self._draw(field, rng, 200)
                if not x.is_zero():
                    assert x.inverse() == _euclid_inverse(x), (field.m, x)

    def test_quantum_integers_and_roots_of_unity(self):
        for N, K in self.THEORIES:
            p = Params(N, K)
            for j in range(1, p.N + p.K):
                assert qint(p, j).inverse() == _euclid_inverse(qint(p, j))
            for k in range(p.m):
                assert p.zeta_pow(k).inverse() == p.zeta_pow(-k)

    def test_non_rational_norm_raises(self, monkeypatch):
        # with every sigma_k replaced by the identity the "norm" is x^phi,
        # which is not rational for x = 1 + zeta
        field = Params(2, 1).field
        monkeypatch.setattr(type(field), "monomial_map", lambda self, a, step, k=0: list(a))
        with pytest.raises(ArithmeticError):
            Scalar._make(field, [1, 1] + [0] * (field.phi - 2), 1).inverse()
