"""Hecke algebra H_n: generators, braid lifts, projectors and Young
idempotents in the fixed eigenvalue convention."""

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsk import (
    BraidWord,
    HeckeElement,
    Params,
    YoungDiagram,
    e_idempotent,
    from_braid,
    jones_wenzl,
    qint,
    sigma_element,
    star,
    tensor_embed,
    young_idempotent,
)
from hsk.hecke import _gen_step, random_element
from hsk.perms import perm_table
from hsk.scalar import Scalar

PARAMS = [Params(2, 1), Params(2, 2), Params(3, 1), Params(3, 2), Params(4, 1)]
param_idx = st.integers(0, len(PARAMS) - 1)


def t_gen(p, n, i):
    """Internal generator T_{s_i}, 1-based i."""
    tbl = perm_table(n)
    ol = list(range(n))
    ol[i - 1], ol[i] = ol[i], ol[i - 1]
    return HeckeElement.basis(p, n, tbl.index[tuple(ol)])


class TestQuadraticRelation:
    def test_t_squared(self):
        for p in PARAMS:
            one = HeckeElement.identity(p, 3)
            for i in (1, 2):
                t = t_gen(p, 3, i)
                assert t * t == t.scale(p.q - p.one) + one.scale(p.q)

    def test_t_inverse(self):
        # T^-1 = q^-1 T + (q^-1 - 1)
        p = Params(3, 2)
        t = t_gen(p, 2, 1)
        qi = p.q_pow(-1)
        tinv = t.scale(qi) + HeckeElement.identity(p, 2).scale(qi - p.one)
        assert t * tinv == HeckeElement.identity(p, 2)


def _inversions(w):
    return sum(1 for a in range(len(w)) for b in range(a + 1, len(w)) if w[a] > w[b])


def _gen_product(p, n, terms, i, sign, left):
    """T_{s_i}^sign x (left) or x T_{s_i}^sign from one-line permutations
    alone: s_i w swaps the values i, i+1 of w and w s_i its positions;
    T_s T_w = T_{sw} when the length goes up and (q-1) T_w + q T_{sw}
    otherwise (likewise on the right), and T_s^-1 = q^-1 T_s + (q^-1 - 1)."""
    tbl = perm_table(n)
    field = next(iter(terms.values())).field
    q = p.q_pow_in(field, 1)
    zero = Scalar.from_rational(field, 0)
    a, b = (zero + 1, zero) if sign > 0 else (q.inverse(), q.inverse() - 1)
    out = {}
    for w, c in terms.items():
        perm = tbl.perms[w]
        if left:
            sp = tuple(i + 1 if x == i else i if x == i + 1 else x for x in perm)
        else:
            sp = perm[:i] + (perm[i + 1], perm[i]) + perm[i + 2:]
        v = tbl.index[sp]
        if _inversions(sp) > _inversions(perm):
            parts = [(v, c * a), (w, c * b)]
        else:
            parts = [(w, c * a * (q - 1) + c * b), (v, c * a * q)]
        for u, x in parts:
            out[u] = out.get(u, zero) + x
    return {u: x for u, x in out.items() if not x.is_zero()}


class TestGeneratorStep:
    @pytest.mark.parametrize("N,K", [(2, 2), (3, 2), (4, 1)])
    def test_matches_products_on_both_sides(self, N, K):
        p = Params(N, K)
        rng = Random(f"gen-step:{N},{K}")
        for n in range(2, 6):
            tbl = perm_table(n)
            for field in (p.field, p.subfield):
                for _ in range(3):
                    terms = {}
                    for _ in range(6):
                        c = Scalar.zeta_power(field, rng.randrange(field.m)) * rng.randint(1, 3)
                        terms[rng.randrange(tbl.size)] = c
                    for i in range(n - 1):
                        for sign in (1, -1):
                            for nbr, left in ((tbl.lmul, True), (tbl.rmul, False)):
                                got = _gen_step(p, tbl.length, nbr, terms, i, sign)
                                assert got == _gen_product(p, n, terms, i, sign, left)
                                assert all(c.field is field for c in got.values())


class TestBraidLift:
    def test_sigma_proportional_to_t(self):
        # sigma_i = -q^((N-1)/2N) * T_i^... : check sigma against its
        # defining rescaling of T
        for p in PARAMS:
            sig = sigma_element(p, 2, 1)
            t = t_gen(p, 2, 1)
            assert sig == t.scale(-p.zeta_pow(1 - p.N))

    def test_braid_relation(self):
        for p in PARAMS[:3]:
            lhs = from_braid(p, BraidWord(3, (1, 2, 1)))
            rhs = from_braid(p, BraidWord(3, (2, 1, 2)))
            assert lhs == rhs

    def test_far_commutation(self):
        p = Params(2, 2)
        assert from_braid(p, BraidWord(4, (1, 3))) == from_braid(p, BraidWord(4, (3, 1)))

    def test_inverse_letters(self):
        for p in PARAMS:
            assert from_braid(p, BraidWord(3, (2, -2))) == HeckeElement.identity(p, 3)
            assert from_braid(p, BraidWord(3, (-1, 1))) == HeckeElement.identity(p, 3)

    def test_skein_relation(self):
        # q^(-1/2N) sigma - q^(1/2N) sigma^-1 = (q^(-1/2) - q^(1/2)) Id
        for p in PARAMS:
            sig = sigma_element(p, 2, 1)
            sig_inv = sigma_element(p, 2, 1, -1)
            lhs = sig.scale(p.zeta_pow(-1)) - sig_inv.scale(p.zeta_pow(1))
            rhs = HeckeElement.identity(p, 2).scale(p.q_half_pow(-1) - p.q_half_pow(1))
            assert lhs == rhs

    def test_from_braid_is_product_of_sigmas(self):
        rng = Random(11)
        for p in (Params(2, 2), Params(3, 2)):
            for n in range(3, 7):
                for _ in range(3):
                    word = tuple(rng.choice((1, -1)) * rng.randint(1, n - 1)
                                 for _ in range(rng.randint(0, 6)))
                    prod = HeckeElement.identity(p, n)
                    for e in word:
                        prod = prod * sigma_element(p, n, abs(e), 1 if e > 0 else -1)
                    assert from_braid(p, BraidWord(n, word)) == prod, (n, word)

    def test_word_letter_bounds(self):
        with pytest.raises(ValueError):
            BraidWord(2, (2,))
        with pytest.raises(ValueError):
            BraidWord(2, (0,))


class TestEIdempotents:
    def test_formula(self):
        # e_i = (q - T_i) / (q + 1)
        p = Params(2, 2)
        e = e_idempotent(p, 2, 1)
        expect = (HeckeElement.identity(p, 2).scale(p.q) - t_gen(p, 2, 1)).scale(
            (p.q + p.one).inverse()
        )
        assert e == expect

    def test_idempotent_and_star_fixed(self):
        for p in PARAMS:
            for n in (2, 3, 4):
                for i in range(1, n):
                    e = e_idempotent(p, n, i)
                    assert e * e == e
                    assert star(e) == e

    def test_neighbor_relation(self):
        # e_i e_{i+1} e_i - eta e_i is the relation satisfied in the
        # Temperley-Lieb quotient at N = 2; in H_3 the cubic identity
        # e_1 e_2 e_1 differs from e_1 by a central correction, so here
        # only the generic non-commutation is pinned
        p = Params(2, 2)
        e1, e2 = e_idempotent(p, 3, 1), e_idempotent(p, 3, 2)
        assert e1 * e2 != e2 * e1


class TestJonesWenzl:
    def test_two_strand_forms(self):
        # f_2 = (q - T)/(q+1) = e_1 and g_2 = (1 + T)/(1+q)
        for p in PARAMS:
            f = jones_wenzl(p, 2, "sym")
            g = jones_wenzl(p, 2, "antisym")
            one = HeckeElement.identity(p, 2)
            t = t_gen(p, 2, 1)
            assert f == e_idempotent(p, 2, 1)
            assert g == (one + t).scale((p.one + p.q).inverse())
            assert f + g == one

    def test_eigenvalues(self):
        for p in PARAMS:
            cap = min(4, p.N + p.K - 1)
            for n in range(2, cap + 1):
                f = jones_wenzl(p, n, "sym")
                g = jones_wenzl(p, n, "antisym")
                for i in range(1, n):
                    sig = sigma_element(p, n, i)
                    assert sig * f == f.scale(p.zeta_pow(1 - p.N))
                    assert sig * g == g.scale(-p.zeta_pow(1 + p.N))

    def test_idempotency(self):
        p = Params(3, 2)
        for n in (2, 3, 4):
            for kind in ("sym", "antisym"):
                x = jones_wenzl(p, n, kind)
                assert x * x == x

    def test_absorption(self):
        p = Params(2, 2)
        f3 = jones_wenzl(p, 3, "sym")
        g3 = jones_wenzl(p, 3, "antisym")
        for i in (1, 2):
            e = e_idempotent(p, 3, i)
            assert e * f3 == f3
            assert f3 * e == f3
            assert (e * g3).is_zero()
            assert (g3 * e).is_zero()

    def test_undefined_beyond_the_level(self):
        p = Params(2, 1)  # [3] = 0
        with pytest.raises(ValueError):
            jones_wenzl(p, 3, "sym")

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            jones_wenzl(Params(2, 2), 2, "mixed")


class TestTensorEmbed:
    def test_one_tensor_one(self):
        p = Params(2, 2)
        one1 = HeckeElement.identity(p, 1)
        assert tensor_embed(one1, one1) == HeckeElement.identity(p, 2)

    def test_sigma_tensor_sigma(self):
        # one crossing on each pair of strands: sigma (x) sigma is the
        # index-shifted product sigma_1 sigma_3 in H_4
        p = Params(2, 2)
        s = sigma_element(p, 2, 1)
        assert tensor_embed(s, s) == sigma_element(p, 4, 1) * sigma_element(p, 4, 3)

    def test_homomorphism(self):
        p = Params(3, 1)
        rng = Random(11)
        for _ in range(3):
            a, b = random_element(p, 2, rng), random_element(p, 2, rng)
            c, d = random_element(p, 2, rng), random_element(p, 2, rng)
            assert tensor_embed(a * b, c * d) == tensor_embed(a, c) * tensor_embed(b, d)


class TestStar:
    @given(param_idx, st.integers(2, 4), st.integers(0, 2 ** 30))
    @settings(max_examples=30, deadline=None)
    def test_anti_automorphism(self, i, n, seed):
        p = PARAMS[i]
        rng = Random(seed)
        x, y = random_element(p, n, rng), random_element(p, n, rng)
        assert star(x * y) == star(y) * star(x)
        assert star(star(x)) == x

    def test_unitary_on_generators(self):
        # the star makes the braid generators unitary: sigma* = sigma^-1,
        # equivalently T* = T^-1 = q^-1 T + (q^-1 - 1)
        p = Params(3, 2)
        t = t_gen(p, 3, 2)
        qi = p.q_pow(-1)
        assert star(t) == t.scale(qi) + HeckeElement.identity(p, 3).scale(qi - p.one)
        assert star(sigma_element(p, 3, 1)) == sigma_element(p, 3, 1, -1)


class TestYoungIdempotents:
    def test_hook_products(self):
        p = Params(2, 2)
        y = young_idempotent(p, YoungDiagram.of(2, 1))
        assert y.hook == qint(p, 3) * qint(p, 1) * qint(p, 1)

    def test_quasi_idempotent_law(self):
        for p in PARAMS:
            limit = p.N + p.K
            for d in [
                YoungDiagram.of(1),
                YoungDiagram.of(2),
                YoungDiagram.of(1, 1),
                YoungDiagram.of(2, 1),
                YoungDiagram.of(2, 2),
            ]:
                if d.row(0) >= limit or d.transpose().row(0) >= limit:
                    continue
                y = young_idempotent(p, d)
                assert y.quasi * y.quasi == y.quasi.scale(y.hook)

    def test_idempotent_when_hook_invertible(self):
        p = Params(3, 2)
        y = young_idempotent(p, YoungDiagram.of(2, 1))
        assert y.idem is not None
        assert y.idem * y.idem == y.idem

    def test_vanishing_hook_has_no_idempotent(self):
        p = Params(2, 1)  # [3] = 0 kills the (2,1) hook product
        y = young_idempotent(p, YoungDiagram.of(2, 1))
        assert y.hook.is_zero()
        assert y.idem is None

    def test_single_row_and_column_are_projectors(self):
        p = Params(2, 2)
        assert young_idempotent(p, YoungDiagram.of(2)).idem == jones_wenzl(p, 2, "sym")
        assert young_idempotent(p, YoungDiagram.of(1, 1)).idem == jones_wenzl(p, 2, "antisym")

    def test_orthogonality(self):
        p = Params(2, 2)
        rng = Random(5)
        ya = young_idempotent(p, YoungDiagram.of(2)).idem
        yb = young_idempotent(p, YoungDiagram.of(1, 1)).idem
        for _ in range(5):
            x = random_element(p, 2, rng)
            assert (ya * x * yb).is_zero()
            prod = ya * x * ya
            assert prod.proportionality(ya) is not None

    def test_rejects_oversized_rows(self):
        with pytest.raises(ValueError):
            young_idempotent(Params(2, 1), YoungDiagram.of(3))


class TestSerialization:
    def test_roundtrip(self):
        p = Params(2, 2)
        x = from_braid(p, BraidWord(3, (1, -2, 1)))
        data = x.to_json()
        assert data["n"] == 3
        assert HeckeElement.from_json(p, data) == x

    def test_identity_roundtrip(self):
        p = Params(3, 1)
        one = HeckeElement.identity(p, 2)
        assert HeckeElement.from_json(p, one.to_json()) == one
