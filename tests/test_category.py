"""Purification, blocks, fusion, quantum dimensions and modular data.

Small-rank frozen oracles: the (N,K) = (2,1) theory is the semion
(two labels, qdim 1, twist i), and (2,2) realizes the Ising fusion
ring with S~ = [[1, [2], 1], [[2], 0, -[2]], [1, -[2], 1]] where
[2] = sqrt(2).  Level-1 theories are the abelian Z_N anyons."""

import cmath
import math
import sys
import time
from fractions import Fraction
from functools import lru_cache
from itertools import product

import pytest

from hsk import (
    GRAM_LIMIT,
    HeckeElement,
    Params,
    YoungDiagram,
    branching_multiplicity,
    central_idempotents,
    curl_scalar,
    dagger,
    fusion,
    fusion_matrix,
    fusion_table,
    gamma_n,
    labels,
    loop_power,
    mf_dim,
    minimal_idempotent,
    path_count,
    purified_algebra,
    purified_dim,
    qdim,
    qint,
    s_matrix,
    tensor_embed,
    twist,
    young_idempotent,
)
from hsk import category, hecke, linalg, modular, trace
from hsk.closure import CURL_MATCH_SIGN, BraidWord, block_transposition_word, full_twist_word
from hsk.hecke import _gen_step, from_braid
from hsk.linalg import rref
from hsk.perms import perm_table
from hsk.seminormal import block_trace, path_model
from hsk.trace import markov_trace

PARAMS = [Params(2, 1), Params(2, 2), Params(3, 1), Params(3, 2), Params(4, 1)]
EMPTY = YoungDiagram.of()
BOX = YoungDiagram.of(1)


def in_radical(p: Params, n: int, x: HeckeElement) -> bool:
    """x lies in the radical of the trace form iff x^T G = 0 for the
    bilinear Gram matrix G, which shares nothing with the path model."""
    gram = trace.gram_bilinear(p, n)
    return all(sum((c * gram[u][v] for u, c in x.terms.items()), p.zero).is_zero()
               for v in range(len(gram)))


class TestPurifiedDim:
    def test_rank_sequences(self):
        expected = {
            (2, 2): [1, 2, 4, 8, 16],
            (3, 2): [1, 2, 5, 13],
            (2, 1): [1, 1, 1, 1],
            (3, 1): [1, 1, 1, 1],
            (4, 1): [1, 1, 1, 1],
        }
        for (N, K), seq in expected.items():
            p = Params(N, K)
            for n, want in enumerate(seq, start=1):
                d = purified_dim(p, n)
                assert d.dim == want
                assert d.radical_dim == math.factorial(n) - want

    def test_dim_is_sum_of_squared_path_counts(self):
        # purified_dim reads the path counts, so the rank it must equal
        # comes from the Gram elimination
        for p in PARAMS:
            for n in (2, 3, 4):
                rank = len(trace.gram_rref(p, n)[1])
                assert rank == purified_dim(p, n).dim == sum(
                    path_count(p, n, d) ** 2 for d in gamma_n(p, n)
                )


class TestBlocks:
    def test_block_labels_and_dims(self):
        for p in PARAMS:
            for n in (2, 3, 4):
                bd = central_idempotents(p, n)
                assert set(bd.blocks) == set(gamma_n(p, n))
                for d, entry in bd.blocks.items():
                    assert entry.dim == path_count(p, n, d)

    def test_resolution_of_identity_mod_radical(self):
        for p in PARAMS[:3]:
            for n in (2, 3, 4):
                bd = central_idempotents(p, n)
                total = HeckeElement.identity(p, n).scale(-p.one)
                for entry in bd.blocks.values():
                    total = total + entry.z
                assert in_radical(p, n, total)

    def test_orthogonal_idempotents_mod_radical(self):
        p = Params(2, 2)
        n = 3
        bd = central_idempotents(p, n)
        items = list(bd.blocks.values())
        for i, a in enumerate(items):
            assert in_radical(p, n, a.z * a.z + a.z.scale(-p.one))
            for b in items[i + 1:]:
                assert in_radical(p, n, a.z * b.z)

    def test_central_mod_radical(self):
        from hsk.hecke import random_element
        from random import Random

        rng = Random(21)
        p = Params(3, 2)
        n = 3
        bd = central_idempotents(p, n)
        x = random_element(p, n, rng)
        for entry in bd.blocks.values():
            assert in_radical(p, n, entry.z * x + (x * entry.z).scale(-p.one))

    def test_minimal_idempotent_traces_are_nonzero(self):
        p = Params(2, 2)
        for n in (2, 3, 4):
            from hsk import markov_trace

            for d in gamma_n(p, n):
                e = minimal_idempotent(p, n, d)
                assert e * e == e
                assert not markov_trace(p, e).is_zero()

    def test_minimal_idempotent_rejects_non_label(self):
        with pytest.raises(ValueError):
            minimal_idempotent(Params(2, 2), 3, YoungDiagram.of(3))

    def test_lost_block_is_caught(self, monkeypatch):
        """Block matrices that lose a block leave its identity outside
        the span of the T_w: a pivot lands in E."""
        real = category.block_matrix

        def lossy(model, b, word, cols):
            rows = real(model, b, word, cols)
            return [[x * 0 for x in row] for row in rows] if b == 0 else rows

        monkeypatch.setattr(category, "block_matrix", lossy)
        category.purified_algebra.cache_clear()
        category.central_idempotents.cache_clear()
        try:
            with pytest.raises(RuntimeError, match="a pivot lies in E"):
                central_idempotents(Params(2, 2), 4)
        finally:
            category.purified_algebra.cache_clear()

    def test_json_shape(self):
        bd = central_idempotents(Params(2, 2), 3)
        data = bd.to_json()
        assert data["n"] == 3
        assert data["labels"] == [[1]]
        assert data["dims"] == {"[1]": 2}


class TestBranching:
    def test_multiplicities_match_path_recursion(self):
        # sum over sub-blocks of multiplicity * dim reproduces the dim
        for p in PARAMS:
            for n in (2, 3, 4):
                for lam in gamma_n(p, n):
                    mults = {
                        sub: branching_multiplicity(p, n, lam, sub)
                        for sub in gamma_n(p, n - 1)
                    }
                    assert all(m in (0, 1) for m in mults.values())
                    assert path_count(p, n, lam) == sum(
                        m * path_count(p, n - 1, sub) for sub, m in mults.items()
                    )

    def test_known_values(self):
        p = Params(3, 2)
        # the 5-strand (1,1) block restricts to (1) and (2,2)
        assert branching_multiplicity(p, 5, YoungDiagram.of(1, 1), YoungDiagram.of(1)) == 1
        assert branching_multiplicity(
            p, 5, YoungDiagram.of(1, 1), YoungDiagram.of(2, 2)
        ) == 1
        # the (2) block of A_5 restricts to (1) only
        assert branching_multiplicity(p, 5, YoungDiagram.of(2), YoungDiagram.of(2, 2)) == 0

    def test_rejects_non_labels(self):
        p = Params(2, 2)
        with pytest.raises(ValueError):
            branching_multiplicity(p, 3, YoungDiagram.of(3), YoungDiagram.of(2))
        with pytest.raises(ValueError):
            branching_multiplicity(p, 3, YoungDiagram.of(1), YoungDiagram.of(1))


SU2_LEVEL2 = {
    # Ising ring on labels {1, sigma, psi} = {[], [1], [2]}
    ((), (), ()): 1,
    ((1,), (1,), ()): 1,
    ((1,), (1,), (2,)): 1,
    ((1,), (1,), (1,)): 0,
    ((2,), (2,), ()): 1,
    ((2,), (2,), (2,)): 0,
    ((1,), (2,), (1,)): 1,
    ((1,), (2,), ()): 0,
}


class TestFusion:
    def test_su2_level2_ring(self):
        p = Params(2, 2)
        for (a, b, c), want in SU2_LEVEL2.items():
            assert fusion(p, YoungDiagram(a), YoungDiagram(b), YoungDiagram(c)) == want

    def test_unit(self):
        for p in PARAMS[:3]:
            for lam in labels(p):
                for nu in labels(p):
                    assert fusion(p, lam, EMPTY, nu) == (1 if nu == lam else 0)

    def test_symmetry(self):
        p = Params(3, 1)
        labs = labels(p)
        for lam in labs:
            for mu in labs:
                for nu in labs:
                    if lam.size + mu.size > GRAM_LIMIT:
                        continue
                    assert fusion(p, lam, mu, nu) == fusion(p, mu, lam, nu)

    def test_level_one_is_cyclic_group(self):
        # at K = 1 the labels are the N one-column diagrams and fusion
        # adds column heights mod N
        for N in (2, 3, 4):
            p = Params(N, 1)
            cols = [YoungDiagram.of(*([1] * h)) for h in range(N)]
            for a in range(N):
                for b in range(N):
                    for c in range(N):
                        want = 1 if (a + b) % N == c else 0
                        assert fusion(p, cols[a], cols[b], cols[c]) == want

    def test_su3_level2_square(self):
        # (2) x (2) contains only (2,2) among the labels
        p = Params(3, 2)
        two = YoungDiagram.of(2)
        for nu in labels(p):
            want = 1 if nu == YoungDiagram.of(2, 2) else 0
            assert fusion(p, two, two, nu) == want

    def test_box_fusion_is_reversed_branching(self):
        for p in PARAMS[:3]:
            for lam in labels(p):
                if lam.size + 1 > GRAM_LIMIT:
                    continue
                for nu in gamma_n(p, lam.size + 1):
                    if nu not in labels(p):
                        continue
                    assert fusion(p, lam, BOX, nu) == branching_multiplicity(
                        p, lam.size + 1, nu, lam
                    )

    def test_rejects_non_label_inputs(self):
        p = Params(2, 2)
        with pytest.raises(ValueError):
            fusion(p, YoungDiagram.of(3), BOX, BOX)
        with pytest.raises(ValueError):
            fusion(p, BOX, YoungDiagram.of(1, 1), BOX)

    def test_non_label_output_is_zero(self):
        p = Params(2, 2)
        assert fusion(p, BOX, BOX, YoungDiagram.of(1, 1)) == 0

    def test_table_consistency(self):
        p = Params(2, 2)
        tab = fusion_table(p, 4)
        for (a, b, c), m in tab.entries.items():
            assert m == fusion(p, a, b, c)
        assert tab.coefficient(BOX, BOX, EMPTY) == 1
        assert tab.coefficient(BOX, EMPTY, YoungDiagram.of(2)) == 0

    def test_fusion_matrix_rows(self):
        p = Params(2, 2)
        labs = labels(p)
        mat = fusion_matrix(p, BOX)
        for i, mu in enumerate(labs):
            for j, nu in enumerate(labs):
                want = fusion(p, BOX, mu, nu) if nu in gamma_n(p, 1 + mu.size) else 0
                assert mat[i][j] == want


def _mat_vec(p, mat, vec):
    out = []
    for row in mat:
        acc = p.zero
        for c, v in zip(row, vec):
            if not c.is_zero() and not v.is_zero():
                acc = acc + c * v
        out.append(acc)
    return out


def _basis_row_table(a, v):
    """Coordinates of T_w . v for every w, via the left weak order:
    T_{s_i w} v = T_{s_i} (T_w v) when the length goes up."""
    tbl = perm_table(a.n)
    rho = [None] * tbl.size
    rho[0] = a.reduce(v)
    for w in range(1, tbl.size):
        i = next(i for i in range(a.n - 1)
                 if tbl.length[tbl.lmul[w][i]] < tbl.length[w])
        prev = a.lift(rho[tbl.lmul[w][i]]).terms
        rho[w] = a.reduce(HeckeElement(a.p, a.n, _gen_step(a.p, tbl.length, tbl.lmul, prev, i)))
    return rho


def _compressed_rank(p, a, u, v):
    """Exact rank of the trace form on the span of {u T_j v : j pivot}."""
    rho = _basis_row_table(a, v)
    tbl = perm_table(a.n)
    cols = []
    for j in a.pivots:
        uterms = dict(u.terms)
        for i in tbl.word[j]:
            uterms = _gen_step(p, tbl.length, tbl.rmul, uterms, i)
        col = [p.zero] * a.dim
        for w, c in uterms.items():
            for r, x in enumerate(rho[w]):
                if not x.is_zero():
                    col[r] = col[r] + c * x
        cols.append(col)
    paired = [_mat_vec(p, gram_pivots(p, a), ck) for ck in cols]
    form = [_mat_vec(p, paired, cj) for cj in cols]
    return len(rref(p, form)[1])


def pair_idempotent(p, lam, mu):
    """y_lam (x) y_mu, the projection onto V_lam (x) V_mu."""
    return tensor_embed(young_idempotent(p, lam).idem, young_idempotent(p, mu).idem)


def gram_pivots(p, a):
    """G_J, the bilinear Gram matrix on the pivots of the purified algebra."""
    gram = trace.gram_bilinear(p, a.n)
    return [[gram[i][j] for j in a.pivots] for i in a.pivots]


def fusion_by_trace_ratio(p, lam, mu, nu):
    """The Gram route: N_{lam mu}^nu = Tr(z_nu pi) / Tr(e_nu), the rank
    of pi = y_lam (x) y_mu in the block nu of the purified algebra A_n,
    paired against its pivot Gram matrix, with
    Tr(e_nu) = d_nu / [N]^n."""
    n = lam.size + mu.size
    if n == 0:
        return 1
    a = purified_algebra(p, n)
    zvec = central_idempotents(p, n).blocks[nu].zvec
    paired = _mat_vec(p, gram_pivots(p, a), a.reduce(pair_idempotent(p, lam, mu)))
    m = _mat_vec(p, [zvec], paired)[0] * loop_power(p, n) * qdim(p, nu).inverse()
    assert m.is_rational() and m.den == 1 and m.num[0] >= 0, "fusion coefficient"
    return m.num[0]


def gram_centre(p, n):
    """The coordinates of each z_lambda on the Gram pivots J as the Gram
    dual of the path model's weighted block character: G_J z_lambda =
    b_lambda, b_lambda[j] = Tr(z_lambda T_j) = (d_lambda/[N]^n)
    tr rho_lambda(T_j), for every block in one elimination of [G_J | B]."""
    piv = trace.gram_rref(p, n)[1]
    gram = trace.gram_bilinear(p, n)
    model = path_model(p, n)
    words = perm_table(n).word
    norm = loop_power(p, n).inverse()
    weights = [block.weight * norm for block in model.blocks]
    aug = [[gram[i][j] for j in piv]
           + [w * p.lift(block_trace(model, k, tuple(x + 1 for x in words[i])))
              for k, w in enumerate(weights)]
           for i in piv]
    solved, cols = rref(p, aug)
    assert cols == list(range(len(piv))), "singular pivot Gram matrix"
    return tuple(tuple(row[len(piv) + k] for row in solved) for k in range(len(weights)))


def qdim_by_young_idempotent(p, d):
    """[N]^{|d|} Tr(y_d): the closed loop colored by d, from the Young
    idempotent in H_{|d|}."""
    return loop_power(p, d.size) * markov_trace(p, young_idempotent(p, d).idem)


def twist_by_full_twist(p, d):
    """theta_d from the T-basis expansion: y_d (Delta^2)^eps = c y_d for
    the framing sign eps, times one curl scalar per strand."""
    n = d.size
    if n == 0:
        return p.one
    word = full_twist_word(n).word
    if CURL_MATCH_SIGN < 0:
        word = tuple(-i for i in reversed(word))
    y = young_idempotent(p, d).idem
    out = (y * from_braid(p, BraidWord(n, word))).proportionality(y)
    assert out is not None, "full twist is not proportional on the block"
    for _ in range(n):
        out = out * curl_scalar(p, CURL_MATCH_SIGN)
    return out


def hopf_value(p, lam, mu):
    """Closure of the two-block Hopf cabling, expanded over the T_w,
    crossings taken with the library's framing sign."""
    a, b = lam.size, mu.size
    if a + b == 0:
        return p.one
    pi = pair_idempotent(p, lam, mu)
    if a == 0 or b == 0:
        return loop_power(p, a + b) * markov_trace(p, pi)
    word = block_transposition_word(a, b).word + block_transposition_word(b, a).word
    beta2 = from_braid(p, BraidWord(a + b, tuple(CURL_MATCH_SIGN * i for i in word)))
    return loop_power(p, a + b) * markov_trace(p, pi * beta2)


def fusion_by_compressed_rank(p, lam, mu, nu):
    """N_{lam mu}^nu as the integer square root of the rank of the trace
    form on z_nu pi A_n pi z_nu, pi = y_lam (x) y_mu: the block nu of
    A_n is a matrix algebra in which z_nu pi has rank N, so this corner
    has dimension N^2.  An oracle independent of the block weights."""
    n = lam.size + mu.size
    a = purified_algebra(p, n)
    pi = pair_idempotent(p, lam, mu)
    z = central_idempotents(p, n).blocks[nu].z
    r = _compressed_rank(p, a, z * pi, pi * z)
    s = math.isqrt(r)
    assert s * s == r, f"compressed rank {r} is not a perfect square"
    return s


class TestFusionOracle:
    @pytest.mark.parametrize("N,K,cap", [(2, 2, 4), (3, 1, 4), (2, 3, 4), (4, 1, 4), (3, 2, 3)])
    def test_trace_ratio_matches_compressed_rank(self, N, K, cap):
        p = Params(N, K)
        labs = labels(p)
        checked = 0
        for lam in labs:
            for mu in labs:
                n = lam.size + mu.size
                if not 1 <= n <= cap:
                    continue
                for nu in gamma_n(p, n):
                    if nu in labs:
                        assert fusion(p, lam, mu, nu) == fusion_by_compressed_rank(p, lam, mu, nu), \
                            (lam.rows, mu.rows, nu.rows)
                        checked += 1
        assert checked


FIVE = [Params(2, 1), Params(2, 2), Params(3, 1), Params(4, 1), Params(2, 3)]


def forbid(monkeypatch, *funcs):
    """Rebind every hsk module's name for each of funcs to a spy that
    fails the test when called."""
    forbidden = {id(f): f.__name__ for f in funcs}

    def spy(name):
        def call(*args, **kwargs):
            raise AssertionError(f"{name} called")
        return call

    for name, mod in list(sys.modules.items()):
        if name == "hsk" or name.startswith("hsk."):
            for key, value in list(vars(mod).items()):
                if id(value) in forbidden:
                    monkeypatch.setattr(mod, key, spy(forbidden[id(value)]))


# (N, K, n) on which the path model's echelon form meets the Gram elimination
ECHELON_GRID = [(2, 1, 4), (2, 2, 0), (2, 2, 1), (2, 2, 4), (2, 2, 5), (3, 2, 0), (3, 2, 1),
                (3, 2, 4), (3, 2, 5), (3, 1, 5), (4, 1, 4), (4, 1, 5), (2, 3, 5), (2, 4, 5)]


class TestOldRoutes:
    """The Gram, Hopf-cabling, T-basis full-twist and Young-idempotent
    routes that the path model replaced, kept as oracles."""

    @pytest.mark.parametrize("N,K,n", ECHELON_GRID)
    def test_echelon_form_is_the_gram_elimination(self, N, K, n):
        """rref [M | E] gives gram_rref, rows and pivots, and the z_lambda
        of the [G_J | B] solve: G = M^T W M with W invertible."""
        p = Params(N, K)
        a = purified_algebra(p, n)
        assert (a.rmap, a.pivots) == trace.gram_rref(p, n)
        assert a.centre == gram_centre(p, n)

    def test_t_basis_outputs_skip_the_gram_matrix(self, monkeypatch):
        """The centre, the branching multiplicities and the radical of
        either form build no Gram matrix and eliminate none."""
        forbid(monkeypatch, trace.gram_rref, trace.gram_bilinear, trace.gram_hermitian)
        category.purified_algebra.cache_clear()
        category.central_idempotents.cache_clear()
        for p in (Params(2, 2), Params(3, 2), Params(2, 3)):
            for n in range(1, 5):
                assert set(central_idempotents(p, n).blocks) == set(gamma_n(p, n))
                for form in ("bilinear", "hermitian"):
                    assert trace.gram(p, n, form).rank == purified_dim(p, n).dim
                for lam in gamma_n(p, n):
                    for sub in gamma_n(p, n - 1):
                        assert branching_multiplicity(p, n, lam, sub) in (0, 1)

    @pytest.mark.parametrize("N,K,cap", [(2, 2, 4), (3, 1, 4), (3, 2, 4), (4, 1, 5), (2, 3, 5)])
    def test_fusion_matches_the_gram_route(self, N, K, cap):
        p = Params(N, K)
        labs = labels(p)
        checked = 0
        for lam in labs:
            for mu in labs:
                n = lam.size + mu.size
                if n > cap:
                    continue
                for nu in gamma_n(p, n):
                    assert fusion(p, lam, mu, nu) == fusion_by_trace_ratio(p, lam, mu, nu), \
                        (lam.rows, mu.rows, nu.rows)
                    checked += 1
        assert checked

    @pytest.mark.parametrize("p", FIVE[:4], ids=str)
    def test_s_matrix_matches_the_hopf_closures(self, p):
        s = s_matrix(p)
        for i, lam in enumerate(s.labels):
            for j, mu in enumerate(s.labels):
                assert s.entries[i][j] == hopf_value(p, lam, mu), (lam.rows, mu.rows)

    @pytest.mark.parametrize("p", FIVE + [Params(3, 2)], ids=str)
    def test_twist_matches_the_full_twist_eigenvalue(self, p):
        for d in labels(p):
            assert twist(p, d) == twist_by_full_twist(p, d), d.rows

    @pytest.mark.parametrize("p", FIVE + [Params(3, 2)], ids=str)
    def test_qdim_matches_the_young_idempotent(self, p):
        for d in labels(p):
            assert qdim(p, d) == qdim_by_young_idempotent(p, d), d.rows

    def test_modular_data_skips_the_gram_route(self, monkeypatch):
        """qdim, fusion, twist, s_matrix and mf_dim build no purified
        algebra, no central idempotent, no echelon form, no T-basis braid,
        no Young idempotent and no Markov trace."""
        forbid(monkeypatch, category.purified_algebra, category.central_idempotents,
               linalg.rref, hecke.from_braid, hecke.young_idempotent, trace.markov_trace)
        modular._row.cache_clear()
        modular.s_matrix.cache_clear()
        for p in (Params(2, 2), Params(4, 1), Params(2, 3)):
            labs = labels(p)
            for d in labs:
                qdim(p, d)
                twist(p, d)
            s_matrix(p)
            assert mf_dim(p, 1, ()) == len(labs)
            assert mf_dim(p, 0, (labs[-1], dagger(p, labs[-1]))) == 1
            assert fusion(p, labs[1], labs[-1], labs[0]) in (0, 1)
        assert mf_dim(Params(3, 2), 0, (YoungDiagram.of(2, 1),) * 2) == 1

    def test_central_idempotents_skip_the_idempotent_route(self, monkeypatch):
        """The centre is the Gram dual of the path model's characters: no
        minimal or Young idempotent and no Markov trace is built."""
        forbid(monkeypatch, category.minimal_idempotent, hecke.young_idempotent,
               trace.markov_trace)
        category.central_idempotents.cache_clear()
        for p in FIVE:
            for n in range(5):
                assert set(central_idempotents(p, n).blocks) == set(gamma_n(p, n)), (p, n)

    def test_path_models_of_a_theory_stay_cached(self):
        """A theory's modular data up to 6 strands fits the path-model
        cache: recomputing them builds no model again."""
        for p in (Params(2, 3), Params(4, 1), Params(3, 2)):
            cap = 6 if p != Params(3, 2) else 4

            def modular_data():
                modular._row.cache_clear()
                labs = labels(p)
                for d in labs:
                    twist(p, d)
                for lam in labs:
                    for mu in labs:
                        if lam.size + mu.size <= cap:
                            fusion(p, lam, mu, labs[0])

            modular_data()
            misses = path_model.cache_info().misses
            modular_data()
            assert path_model.cache_info().misses == misses, p


class TestQdim:
    def test_empty_is_one(self):
        for p in PARAMS:
            assert qdim(p, EMPTY) == p.one

    def test_box_is_loop_value(self):
        for p in PARAMS:
            assert qdim(p, BOX) == qint(p, p.N)

    def test_semion_has_unit_dimension(self):
        assert qdim(Params(2, 1), BOX).as_rational() == Fraction(1)

    def test_ising_psi(self):
        assert qdim(Params(2, 2), YoungDiagram.of(2)).as_rational() == Fraction(1)

    def test_su3_level2_values(self):
        p = Params(3, 2)
        two = qint(p, 2)
        assert qdim(p, YoungDiagram.of(1, 1)) == qint(p, 3)
        assert qdim(p, YoungDiagram.of(2)) == qint(p, 3) * qint(p, 4) * two.inverse()

    def test_dagger_invariance(self):
        for p in PARAMS:
            for d in labels(p):
                if d.size <= 4:
                    assert qdim(p, d) == qdim(p, dagger(p, d))

    def test_positive_embedding(self):
        for p in PARAMS:
            for d in labels(p):
                if d.size <= 4:
                    v = qdim(p, d).embed()
                    assert abs(v.imag) < 1e-10
                    assert v.real > 0.1


class TestTwist:
    def test_vacuum(self):
        for p in PARAMS:
            assert twist(p, EMPTY) == p.one

    def test_box_is_curl_scalar(self):
        for p in PARAMS:
            assert twist(p, BOX) == curl_scalar(p, CURL_MATCH_SIGN)
            assert twist(p, BOX) == p.zeta_pow(p.N * p.N - 1)

    def test_semion(self):
        p = Params(2, 1)
        assert abs(twist(p, BOX).embed() - 1j) < 1e-12

    def test_ising_anyons(self):
        p = Params(2, 2)
        sigma_twist = twist(p, BOX).embed()
        assert abs(sigma_twist - cmath.exp(3j * math.pi / 8)) < 1e-12
        psi = twist(p, YoungDiagram.of(2))
        assert psi == -p.one

    def test_z3_anyon(self):
        p = Params(3, 1)
        assert abs(twist(p, BOX).embed() - cmath.exp(2j * math.pi / 3)) < 1e-12

    def test_unimodular(self):
        for p in PARAMS:
            for d in labels(p):
                if d.size <= 3:
                    assert abs(abs(twist(p, d).embed()) - 1.0) < 1e-10


class TestSMatrix:
    def test_semion(self):
        p = Params(2, 1)
        s = s_matrix(p)
        assert s.labels == (EMPTY, BOX)
        assert s.entries[0][0] == p.one
        assert s.entries[0][1] == p.one
        assert s.entries[1][1] == -p.one

    def test_ising(self):
        p = Params(2, 2)
        s = s_matrix(p)
        root2 = qint(p, 2)
        idx = {d: i for i, d in enumerate(s.labels)}
        i1, i2 = idx[BOX], idx[YoungDiagram.of(2)]
        assert s.entries[i1][i1].is_zero()
        assert s.entries[i2][i2] == p.one
        assert s.entries[i1][i2] == -root2
        assert s.entries[0][i1] == root2

    def test_symmetric_first_row_qdim(self):
        for p in (Params(2, 1), Params(2, 2), Params(3, 1)):
            s = s_matrix(p)
            k = len(s.labels)
            for i in range(k):
                for j in range(k):
                    assert s.entries[i][j] == s.entries[j][i]
            for j, mu in enumerate(s.labels):
                assert s.entries[0][j] == qdim(p, mu)

    def test_nondegenerate(self):
        for p in (Params(2, 1), Params(2, 2), Params(3, 1)):
            assert not s_matrix(p).determinant().is_zero()

    def test_charge_conjugation(self):
        p = Params(3, 1)
        s = s_matrix(p)
        for i in range(len(s.labels)):
            for j, mu in enumerate(s.labels):
                jj = s.labels.index(dagger(p, mu))
                assert s.entries[i][jj] == s.entries[i][j].conjugate()

    def test_oversized_labels_rejected(self):
        # the (2,2) x (2,2) pair needs the 12-strand model, sum f^2 = 1,398,102
        with pytest.raises(ValueError, match="path model on 12 strands"):
            s_matrix(Params(3, 3))


@lru_cache(maxsize=None)
def _pair_matrix(p: Params, lam: YoungDiagram) -> tuple[tuple[int, ...], ...]:
    """The fusion matrix of lam from pair-route rows, one trace on the
    (|lam|+|mu|)-strand path model per row mu: the oracle of the
    determinant rows that mf_dim folds."""
    return tuple(modular._fusion_row(p, lam, mu) for mu in labels(p))


class TestModularFunctor:
    def test_sphere(self):
        for p in PARAMS[:3]:
            assert mf_dim(p, 0, ()) == 1
            assert mf_dim(p, 0, (BOX,)) == 0

    def test_two_point_is_duality_pairing(self):
        for p in (Params(2, 1), Params(2, 2), Params(3, 1)):
            for lam in labels(p):
                for mu in labels(p):
                    want = 1 if mu == dagger(p, lam) else 0
                    assert mf_dim(p, 0, (lam, mu)) == want

    def test_two_point_large_rank(self):
        p = Params(4, 1)
        onecol = YoungDiagram.of(1, 1)
        assert mf_dim(p, 0, (onecol, onecol)) == 1
        assert mf_dim(p, 0, (onecol, BOX)) == 0

    def test_three_point_is_fusion(self):
        p = Params(2, 2)
        for lam in labels(p):
            for mu in labels(p):
                for nu in labels(p):
                    want = fusion(p, lam, mu, dagger(p, nu))
                    assert mf_dim(p, 0, (lam, mu, nu)) == want

    def test_four_sigmas(self):
        assert mf_dim(Params(2, 2), 0, (BOX, BOX, BOX, BOX)) == 2

    def test_torus_counts_labels(self):
        assert mf_dim(Params(2, 1), 1, ()) == 2
        assert mf_dim(Params(2, 2), 1, ()) == 3
        assert mf_dim(Params(3, 1), 1, ()) == 3

    def test_torus_with_six_strand_handle_is_bounded(self):
        # the handle operator needs every fusion matrix, (3) x (3) included
        modular._row.cache_clear()
        start = time.perf_counter()
        assert mf_dim(Params(2, 3), 1, ()) == 4
        assert time.perf_counter() - start < 10.0

    def test_genus_two(self):
        assert mf_dim(Params(2, 1), 2, ()) == 4

    @pytest.mark.parametrize("N,K", [(2, 1), (3, 1)])
    def test_repeated_squaring_matches_handle_by_handle(self, N, K):
        # the handle and the fold from pair-route rows, which share no
        # determinant with mf_dim
        p = Params(N, K)
        labs = labels(p)
        size = len(labs)
        handle = [[0] * size for _ in range(size)]
        for mu in labs:
            m1, m2 = _pair_matrix(p, mu), _pair_matrix(p, dagger(p, mu))
            for i in range(size):
                for j in range(size):
                    handle[i][j] += sum(m1[i][k] * m2[k][j] for k in range(size))
        for marked in ((), (labs[1], dagger(p, labs[1]))):
            vec = [0] * size
            vec[0] = 1
            for d in marked:
                mat = _pair_matrix(p, d)
                vec = [sum(mat[i][j] * vec[i] for i in range(size)) for j in range(size)]
            for genus in range(9):
                assert mf_dim(p, genus, marked) == vec[0], (genus, marked)
                vec = [sum(handle[i][j] * vec[i] for i in range(size)) for j in range(size)]

    @pytest.mark.parametrize("N,K", [(2, 1), (2, 2), (3, 1), (4, 1)])
    def test_reached_rows_match_full_matrix_fold(self, N, K):
        # the fold through whole matrices of pair-route rows as the
        # oracle; marked labels are kept within 5 strands of any partner,
        # the budget rule of the verify battery
        p = Params(N, K)
        labs = labels(p)
        max_lab = max(d.size for d in labs)
        ok = [d for d in labs if d.size + max_lab <= 5]
        for k in range(4):
            for marked in product(ok, repeat=k):
                vec = [1] + [0] * (len(labs) - 1)
                for d in marked:
                    mat = _pair_matrix(p, d)
                    vec = [sum(mat[i][j] * vec[i] for i in range(len(labs)))
                           for j in range(len(labs))]
                assert mf_dim(p, 0, marked) == vec[0], marked

    def test_large_genus_is_fast(self):
        # the Verlinde count for the semion theory: 2^g on a closed surface
        assert mf_dim(Params(2, 1), 200000, ()) == 2 ** 200000

    def test_rejects_bad_inputs(self):
        p = Params(2, 2)
        with pytest.raises(ValueError):
            mf_dim(p, -1, ())
        with pytest.raises(ValueError):
            mf_dim(p, 0, (YoungDiagram.of(3),))
