"""Markov trace, Gram forms and skein closures.

The trace weight eta = Tr(e_i) = [N+1]/([2][N]) vanishes exactly at
level 1 and equals 1/2 at (N,K) = (2,2); the derived trace parameter
is zeta_T = Tr(T_i) = (q-1)/(1-q^N).  The positive-crossing curl and
its mirror are mutually inverse, with the negative-crossing closure
carrying the framing factor q^((N^2-1)/2N)."""

import cmath
import math
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsk import (
    GRAM_LIMIT,
    TRACE_LIMIT,
    BraidWord,
    HeckeElement,
    Params,
    YoungDiagram,
    closure_invariant,
    curl_scalar,
    e_idempotent,
    eta,
    from_braid,
    gamma_n,
    gram,
    loop_power,
    markov_trace,
    pairing,
    path_count,
    qint,
    star,
    tensor_embed,
    trace_parameter,
)
from hsk.hecke import _gen_step, random_element
from hsk.perms import perm_table
from hsk.linalg import positive_definite, rref
from hsk import Scalar, closure, trace
from hsk.closure import (CURL_MATCH_SIGN, _commute_cancel, _one_occurrence, _path_closure, _reduce,
                         braid_phase, full_twist_word)
from hsk.scalar import _field
from hsk.seminormal import block_trace, path_model
from hsk.trace import _closure_unreduced, _trace_vector, gram_bilinear, gram_hermitian, gram_rref

PARAMS = [Params(2, 1), Params(2, 2), Params(3, 1), Params(3, 2), Params(4, 1)]
param_idx = st.integers(0, len(PARAMS) - 1)


class TestTraceWeights:
    def test_eta_closed_form(self):
        for p in PARAMS:
            expect = qint(p, p.N + 1) * (qint(p, 2) * qint(p, p.N)).inverse()
            assert eta(p) == expect

    def test_eta_vanishes_at_level_one(self):
        assert eta(Params(2, 1)).is_zero()
        assert eta(Params(3, 1)).is_zero()
        assert eta(Params(4, 1)).is_zero()

    def test_eta_su2_level2(self):
        assert eta(Params(2, 2)).as_rational() == Fraction(1, 2)

    def test_trace_parameter_identity(self):
        # zeta_T = q - (q+1) eta = (q-1)/(1-q^N)
        for p in PARAMS:
            zt = trace_parameter(p)
            assert zt == p.q - (p.q + p.one) * eta(p)
            assert zt * (p.one - p.q_pow(p.N)) == p.q - p.one

    def test_trace_of_generators(self):
        for p in PARAMS:
            t = from_braid(p, BraidWord(2, (1,))).scale(-p.zeta_pow(p.N - 1))
            assert markov_trace(p, t) == trace_parameter(p)


class TestMarkovAxioms:
    def test_normalization(self):
        for p in PARAMS:
            for n in range(1, 6):
                assert markov_trace(p, HeckeElement.identity(p, n)) == p.one

    def test_conditional_expectation_weight(self):
        for p in PARAMS:
            for n in (2, 3, 4):
                for i in range(1, n):
                    assert markov_trace(p, e_idempotent(p, n, i)) == eta(p)

    def test_trace_property(self):
        rng = Random(3)
        for p in PARAMS:
            for n in (2, 3, 4):
                x, y = random_element(p, n, rng), random_element(p, n, rng)
                assert markov_trace(p, x * y) == markov_trace(p, y * x)

    def test_two_sided_markov(self):
        rng = Random(4)
        for p in PARAMS:
            for n in (2, 3, 4):
                x = random_element(p, n - 1, rng)
                y = random_element(p, n - 1, rng)
                one = HeckeElement.identity(p, 1)
                xe, ye = tensor_embed(x, one), tensor_embed(y, one)
                e_top = e_idempotent(p, n, n - 1)
                assert markov_trace(p, xe * e_top * ye) == eta(p) * markov_trace(p, x * y)
                assert markov_trace(p, xe * e_top) == eta(p) * markov_trace(p, x)

    def test_embedding_preserves_trace(self):
        rng = Random(5)
        for p in PARAMS:
            x = random_element(p, 2, rng)
            xe = tensor_embed(x, HeckeElement.identity(p, 1))
            assert markov_trace(p, xe) == markov_trace(p, x)

    def test_tensor_multiplicativity(self):
        rng = Random(6)
        p = Params(3, 2)
        x, y = random_element(p, 2, rng), random_element(p, 2, rng)
        assert markov_trace(p, tensor_embed(x, y)) == markov_trace(p, x) * markov_trace(p, y)

    def test_star_invariance(self):
        rng = Random(7)
        for p in PARAMS:
            x = random_element(p, 3, rng)
            assert markov_trace(p, star(x)) == markov_trace(p, x).conjugate()

    def test_strand_limit(self):
        p = Params(2, 1)
        with pytest.raises(ValueError):
            markov_trace(p, HeckeElement.identity(p, TRACE_LIMIT + 1))


def _trace_vector_oracle(p, n, memo=None):
    """Tr(T_w) over S_n by the normal-form recursion: w = v.(s_{n-2} ...
    s_j) with v in S_{n-1}; peel the top generator by the Markov
    property and expand the remaining descending chain in H_{n-1}."""
    memo = {} if memo is None else memo
    if n <= 1:
        return (p.one,)
    if n in memo:
        return memo[n]
    tbl, sub = perm_table(n), perm_table(n - 1)
    prev = _trace_vector_oracle(p, n - 1, memo)
    zt = trace_parameter(p)
    out = []
    for pw in tbl.perms:
        j = pw.index(n - 1)
        if j == n - 1:
            out.append(prev[sub.index[pw[:-1]]])
            continue
        terms = {sub.index[pw[:j] + pw[j + 1:]]: p.one}
        for i in range(n - 3, j - 1, -1):
            terms = _gen_step(p, sub.length, sub.rmul, terms, i)
        acc = p.zero
        for u, c in terms.items():
            acc = acc + c * prev[u]
        out.append(zt * acc)
    memo[n] = tuple(out)
    return memo[n]


class TestTraceVector:
    @pytest.mark.parametrize(
        "N,K,nmax",
        [(2, 2, 7), (3, 2, 7), (2, 1, 6), (3, 1, 6), (2, 3, 6), (4, 1, 6)],
    )
    def test_class_recursion_matches_normal_form(self, N, K, nmax):
        # the recursion runs in Q(q); its embedding must equal the
        # ambient-field oracle
        p = Params(N, K)
        memo = {}
        for n in range(1, nmax + 1):
            vec = _trace_vector(p, n)
            assert all(v.field is p.subfield for v in vec)
            oracle = _trace_vector_oracle(p, n, memo)
            assert tuple(p.lift(v) for v in vec) == oracle, n
            if n <= 5:
                assert tuple(markov_trace(p, HeckeElement(p, n, {w: p.one}))
                             for w in range(len(vec))) == oracle, n

    def test_inverse_invariance_at_strand_limit(self):
        # Tr(T_w) = Tr(T_{w^-1}): an independent check at n = 8, where
        # the oracle is too slow
        p = Params(2, 2)
        n = TRACE_LIMIT
        tbl = perm_table(n)
        vec = _trace_vector(p, n)
        for w, pw in enumerate(tbl.perms):
            inv = [0] * n
            for i, x in enumerate(pw):
                inv[x] = i
            assert vec[w] == vec[tbl.index[tuple(inv)]]


class TestPairing:
    def test_bilinear_vs_hermitian(self):
        rng = Random(8)
        p = Params(2, 2)
        x, y = random_element(p, 3, rng), random_element(p, 3, rng)
        assert pairing(p, x, y, "bilinear") == markov_trace(p, x * y)
        assert pairing(p, x, y, "hermitian") == markov_trace(p, star(y) * x)

    def test_hermitian_is_sesquilinear(self):
        # linear in the first slot, conjugate-linear in the second
        rng = Random(9)
        p = Params(3, 1)
        x, y = random_element(p, 2, rng), random_element(p, 2, rng)
        c = p.zeta_pow(3)
        assert pairing(p, x.scale(c), y, "hermitian") == c * pairing(p, x, y, "hermitian")
        assert pairing(p, x, y.scale(c), "hermitian") == c.conjugate() * pairing(
            p, x, y, "hermitian"
        )


GRAM_RANKS = {
    (2, 1): [1, 1, 1, 1, 1],
    (2, 2): [1, 2, 4, 8, 16],
    (3, 1): [1, 1, 1, 1, 1],
    (3, 2): [1, 2, 5, 13, 34],
    (4, 1): [1, 1, 1, 1],
}


class TestGram:
    def test_ranks_match_path_counts(self):
        for p in PARAMS:
            expected = GRAM_RANKS[(p.N, p.K)]
            for n, want in enumerate(expected[:4], start=1):
                g = gram(p, n, "bilinear")
                assert g.rank == want
                assert g.rank == sum(
                    path_count(p, n, d) ** 2 for d in gamma_n(p, n)
                )

    def test_hermitian_rank_agrees(self):
        for p in PARAMS[:3]:
            for n in (2, 3):
                assert gram(p, n, "hermitian").rank == gram(p, n, "bilinear").rank

    def test_hermitian_elimination_is_the_bilinear_one(self):
        # the left kernel of K is the bilinear radical, so K^T and G share
        # their row space and hence their reduced echelon form
        for p in PARAMS:
            for n in range(1, 5):
                red, piv = rref(p, [list(col) for col in zip(*gram_hermitian(p, n))])
                assert (tuple(map(tuple, red)), tuple(piv)) == gram_rref(p, n), (p, n)

    def test_psd(self):
        # the pivot block of K is positive definite; the whole of K is
        # singular wherever the radical is nonzero
        for p in PARAMS:
            for n in (2, 3):
                g = gram(p, n, "hermitian")
                piv = gram_rref(p, n)[1]
                assert positive_definite(p, [[g.matrix[i][j] for j in piv] for i in piv])
                assert positive_definite(p, [list(r) for r in g.matrix]) == (not g.kernel_basis)

    def test_kernel_is_null(self):
        p = Params(2, 1)
        g = gram(p, 3, "hermitian")
        assert g.rank + len(g.kernel_basis) == 6
        for x in g.kernel_basis:
            assert pairing(p, x, x, "hermitian").is_zero()

    def test_gram_limit(self):
        with pytest.raises(ValueError):
            gram(Params(2, 1), GRAM_LIMIT + 1)

    @pytest.mark.parametrize("N,K", [(2, 2), (3, 2), (4, 1)])
    def test_entries_are_traces(self, N, K):
        # entry by entry, so a swapped side or sign in the row
        # recursion cannot hide behind an unchanged rank
        p = Params(N, K)
        for n in range(1, 5):
            bil, herm = gram_bilinear(p, n), gram_hermitian(p, n)
            basis = [HeckeElement.basis(p, n, w) for w in range(perm_table(n).size)]
            for u, tu in enumerate(basis):
                for v, tv in enumerate(basis):
                    assert bil[u][v] == markov_trace(p, tu * tv), (n, u, v)
                    assert herm[u][v] == markov_trace(p, star(tv) * tu), (n, u, v)

    def test_json_shape(self):
        g = gram(Params(2, 2), 2, "bilinear")
        data = g.to_json()
        assert data == {
            "n": 2,
            "form": "bilinear",
            "dim": 2,
            "rank": 2,
            "kernel_dim": 0,
        }
        full = g.to_json(full=True)
        assert len(full["matrix"]) == 2
        assert set(full["matrix"][0][0]) == {"num", "den", "embed"}


class TestClosures:
    def test_unlinks(self):
        for p in PARAMS:
            for n in (1, 2, 3):
                assert closure_invariant(p, BraidWord(n, ())) == loop_power(p, n)

    def test_loop_power_value(self):
        p = Params(2, 2)
        assert loop_power(p, 2) == qint(p, 2) * qint(p, 2)

    def test_curls_mutually_inverse(self):
        for p in PARAMS:
            assert curl_scalar(p, 1) * curl_scalar(p, -1) == p.one

    def test_matching_curl_is_the_framing_factor(self):
        # q^((N^2-1)/2N) = zeta^(N^2-1) on the matching crossing sign
        for p in PARAMS:
            assert curl_scalar(p, CURL_MATCH_SIGN) == p.zeta_pow(p.N * p.N - 1)

    def test_single_crossing_closures(self):
        for p in PARAMS:
            for sign in (1, -1):
                val = closure_invariant(p, BraidWord(2, (sign,)))
                assert val == curl_scalar(p, sign) * qint(p, p.N)

    def test_su2_level2_kink_value(self):
        # the hand value sqrt(2) * exp(6 pi i / 16)
        p = Params(2, 2)
        val = closure_invariant(p, BraidWord(2, (CURL_MATCH_SIGN,)))
        assert val == qint(p, 2) * p.zeta_pow(3)
        expect = math.sqrt(2) * cmath.exp(6j * math.pi / 16)
        assert abs(val.embed() - expect) < 1e-12

    def test_conjugation_invariance(self):
        # closure is a class function: beta and g beta g^-1 agree
        p = Params(2, 2)
        beta = BraidWord(3, (1, 1, -2))
        conj = BraidWord(3, (2,) + beta.word + (-2,))
        assert closure_invariant(p, beta) == closure_invariant(p, conj)

    def test_stabilization_with_curl(self):
        rng = Random(12)
        for p in PARAMS[:3]:
            for _ in range(4):
                n = rng.randint(1, 3)
                word = tuple(
                    rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(rng.randint(0, 4))
                ) if n > 1 else ()
                base = closure_invariant(p, BraidWord(n, word))
                for sign in (1, -1):
                    stab = BraidWord(n + 1, word + (sign * n,))
                    assert closure_invariant(p, stab) == curl_scalar(p, sign) * base

    @pytest.mark.parametrize("N,K", [(2, 2), (3, 2), (2, 3), (4, 1)])
    def test_closure_is_loop_power_times_trace_of_from_braid(self, N, K):
        # the closure traces in Q(q) and embeds once; the ambient route
        # embeds every term of the expansion and traces in the ambient field
        p = Params(N, K)
        rng = Random(f"closure-vs-ambient:{N},{K}")
        braids = []
        for n in range(2, TRACE_LIMIT + 1):
            for _ in range(2):
                word = tuple(rng.choice((1, -1)) * rng.randint(1, n - 1)
                             for _ in range(rng.randint(1, 10)))
                braids.append(BraidWord(n, word))
        if (N, K) in ((2, 2), (3, 2)):
            twist = full_twist_word(7)
            braids += [twist, BraidWord(7, tuple(-e for e in reversed(twist.word)))]
        for b in braids:
            want = loop_power(p, b.strands) * markov_trace(p, from_braid(p, b))
            assert closure_invariant(p, b) == want, b

    def test_writhe_correction_gives_link_invariant(self):
        # dividing by curl^writhe removes the framing dependence: the
        # closure of the one-crossing 2-braid is an unknot
        p = Params(3, 2)
        kink = closure_invariant(p, BraidWord(2, (1,)))
        assert kink * curl_scalar(p, 1).inverse() == loop_power(p, 1)


def _random_word(rng, n, length):
    return tuple(rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(length)) if n > 1 else ()


def _inverse(word):
    return tuple(-e for e in reversed(word))


def _shift(word, k):
    return tuple(e + k if e > 0 else e - k for e in word)


def _far_letters(rng, n, i, length):
    """A random word in the generators that commute with sigma_i."""
    far = [j for j in range(1, n) if abs(j - i) != 1]
    return tuple(rng.choice((1, -1)) * rng.choice(far) for _ in range(length))


def _move_words(rng, n):
    """Words on n strands built so that each move fires: a conjugate, a
    stabilisation and a sigma_1-only destabilisation of each sign, a
    word with a gap and, from 3 strands, words whose top letters the
    braid relation merges: a pair across x sigma_(n-2) y, its flip to
    the bottom, and three letters."""
    w = _random_word(rng, n - 1, rng.randint(1, 8))
    g = _random_word(rng, n, 2)
    out = [g + w + _inverse(g)]
    for s in (1, -1):
        out.append(w + (s * (n - 1),))
        upper = _shift(w, 1) + (n - 1, n - 1)
        j = rng.randint(0, len(upper))
        out.append(upper[:j] + (s,) + upper[j:])
    i = rng.randint(1, n - 1)
    gapped = list(_random_word(rng, i, 4) + _shift(_random_word(rng, n - i, 4), i))
    rng.shuffle(gapped)
    out.append(tuple(gapped))
    if n > 2:
        # every generator below the top twice and each with one sign, so
        # that no cancellation, split or single-letter destabilisation
        # comes first
        t = n - 1
        sign = [rng.choice((1, -1)) for _ in range(n)]
        rest = [sign[i] * i for i in range(1, t) for _ in range(2)]
        rng.shuffle(rest)
        x, y = ([sign[i] * i for i in rng.choices(range(1, t - 1), k=rng.randint(0, 3))] if t > 2 else []
                for _ in range(2))
        a, c = rng.choice((1, -1)), sign[t - 1]
        b = rng.choice((a, -a)) if a == c else -a
        pair = (a * t, *x, c * (t - 1), *y, b * t, *rest)
        out += [pair, tuple(n - e if e > 0 else -n - e for e in pair),
                tuple(a * e for e in (t, t - 1, t, t)) + tuple(rest)]
    return [BraidWord(n, word) for word in out]


class TestReduction:
    """closure_invariant cancels, splits and destabilises before it
    traces a word in the path model; _closure_unreduced expands the word
    as given over the T_w and is its oracle."""

    def test_each_move(self):
        # free cancellation leaves the unlink
        assert _reduce(BraidWord(3, (1, 2, -2, -1))) == ([], 3, 0)
        # cyclic cancellation, then a split off the third strand
        assert _reduce(BraidWord(3, (2, 1, 1, -2))) == ([BraidWord(2, (1, 1))], 1, 0)
        # split at the absent sigma_2, the upper letters shifted down by 2
        assert _reduce(BraidWord(5, (1, 1, 3, -4, 3, -4))) == (
            [BraidWord(3, (1, -2, 1, -2)), BraidWord(2, (1, 1))], 0, 0)
        # sigma_2^-1 once on 3 strands: rotated to the end and dropped
        assert _reduce(BraidWord(3, (1, 1, -2, 1))) == ([BraidWord(2, (1, 1, 1))], 0, -1)
        # sigma_1 once: the flip makes it sigma_2, then as above
        assert _reduce(BraidWord(3, (2, 2, 1, 2))) == ([BraidWord(2, (1, 1, 1))], 0, 1)
        # sigma_3 sigma_2 sigma_3 becomes sigma_2 sigma_3 sigma_2: sigma_3
        # then occurs once and is dropped with the fourth strand
        assert _reduce(BraidWord(4, (1, 1, 2, 3, 2, 3))) == ([BraidWord(3, (2, 1, 1, 2, 2))], 0, 1)
        # no move applies
        b = BraidWord(4, (1, 1, 2, 2, 3, 3))
        assert _reduce(b) == ([b], 0, 0)

    @pytest.mark.parametrize("N,K", [(2, 2), (3, 2), (2, 3), (4, 1)])
    def test_reduced_equals_unreduced(self, N, K):
        p = Params(N, K)
        rng = Random(f"reduction:{N},{K}")
        for n in range(2, TRACE_LIMIT + 1):
            braids = [BraidWord(n, _random_word(rng, n, rng.randint(0, 10))) for _ in range(3)]
            for b in braids + _move_words(rng, n):
                assert closure_invariant(p, b) == _closure_unreduced(p, b), b

    @pytest.mark.parametrize("N,K", [(2, 2), (3, 2)])
    def test_braid_relation_brings_a_generator_to_one_letter(self, N, K):
        p = Params(N, K)
        cases = [
            # a = b = c: sigma_4 x sigma_3 y sigma_4 = x sigma_3 sigma_4 sigma_3 y
            (BraidWord(5, (4, 1, 3, -2, 4, 2, 1, 3)),
             ([BraidWord(2, (1, 1, 1)), BraidWord(2, (1, 1))], 0, 1)),
            # a = -b: sigma_3 sigma_2 sigma_3^-1 = sigma_2^-1 sigma_3 sigma_2,
            # and the middle letter takes c's sign
            (BraidWord(4, (3, 2, -3, 1, 1, 2)), ([BraidWord(2, (1, 1))], 0, 2)),
            (BraidWord(4, (3, -2, -3, 1, 1, 2)), ([BraidWord(2, (1, 1))], 0, 0)),
            # no top pair qualifies; the sigma_1 pair merges across one
            # sigma_2, and the flip makes it the top generator
            (BraidWord(4, (3, 3, 2, 1, 2, 1)), ([BraidWord(3, (2, 1, 1, 2, 2))], 0, 1)),
            # three letters of sigma_4 merge in two steps
            (BraidWord(5, (4, 3, 4, 4, 1, 1, 2, 2, 3)), ([BraidWord(4, (3, 1, 1, 2, 2, 3, 3, 3))], 0, 1)),
            (BraidWord(5, (4, 3, -4, -4, 1, 1, 2, 2, -3)),
             ([BraidWord(4, (1, 1, 2, 2, -3, -3))], 0, 1)),
        ]
        # a = b != c is left alone, and so is a word whose merges stop
        # short of one letter: the first merge of its sigma_1 letters
        # leaves an a = b != c pair, and the word stays whole
        for word in ((4, (3, -2, 3, 1, 1, 2, 2)), (3, (-1, -2, 1, -2, -1))):
            b = BraidWord(*word)
            cases.append((b, ([b], 0, 0)))
        assert _one_occurrence((4, 3, 4, 4, 1), 4, 3) == (3, 3, 4, 3, 1)
        assert _one_occurrence((-1, -2, 1, -2, -1), 2, 1) is None
        for b, reduced in cases:
            assert _reduce(b) == reduced, b
            assert closure_invariant(p, b) == _closure_unreduced(p, b), b

    def test_far_commuting_pairs(self):
        # the sigma_1 pair stands apart only by sigma_3: it cancels
        assert _commute_cancel(4, (2, 1, 3, -1, 2)) == (2, 3, 2)
        # (the 3-strand word it leaves, (1, -2, 1, 1, 2), then merges its
        # sigma_2 pair across one sigma_1 and loses a strand)
        assert _reduce(BraidWord(5, (2, 2, 1, 3, -1, 4, 2, -3))) == (
            [BraidWord(2, (1, 1))], 1, 2)
        # sigma_2 stands between the sigma_1 pair: it survives, and only
        # the braid relation on the sigma_2 pair reduces the word
        blocked = BraidWord(3, (1, 2, -1, 2))
        assert _commute_cancel(3, blocked.word) == blocked.word
        assert _reduce(blocked) == ([], 1, 2)
        # sigma_1 commutes to the front past sigma_3 and its inverse to the
        # back past sigma_4: the word is conjugate to the rest
        cyclic = BraidWord(6, (3, 1, 2, 2, -1, 4, 5, 4, 5))
        assert _commute_cancel(6, cyclic.word) == (3, 2, 2, 4, 5, 4, 5)
        assert _reduce(cyclic) == ([BraidWord(3, (2, 1, 1, 2, 2))], 1, 2)

    @pytest.mark.parametrize("N,K", [(2, 2), (3, 2)])
    def test_destabilised_word_is_cancelled_up_to_commutation(self, N, K):
        # the flip gives (-1, -1, 3, -2, -3, -4); sigma_4^-1 is dropped, and
        # in (-1, -1, 3, -2, -3) the sigma_3 pair cancels cyclically past
        # the sigma_1 letters, so the fourth strand splits off as a loop
        b = BraidWord(5, (-4, -4, 2, -3, -2, -1))
        assert _reduce(b) == ([BraidWord(2, (-1, -1))], 1, -2)
        p = Params(N, K)
        assert closure_invariant(p, b) == _closure_unreduced(p, b)

    def test_cancelled_top_pair_shrinks_the_model(self, monkeypatch):
        # sigma_4 and its inverse meet across sigma_2; without them the
        # fifth strand splits off and the rest, (1, 1, 2, 2, 3, 3), closes
        # on four, while no other move applies to the word as given
        p = Params(3, 2)
        b = BraidWord(5, (1, 1, 2, 4, 2, -4, 3, 3))
        asked = []
        real = closure.path_model
        monkeypatch.setattr(closure, "path_model", lambda p, n: asked.append(n) or real(p, n))
        got = closure_invariant(p, b)
        monkeypatch.undo()
        assert asked == [4]
        assert got == _closure_unreduced(p, b)

    @pytest.mark.parametrize("N,K", [(2, 2), (3, 2), (2, 3), (4, 1)])
    def test_inserted_commuting_conjugates(self, N, K):
        """g x g^-1 with x commuting with g, inserted into a random word,
        and g, g^-1 around a random word, each reached across letters
        that commute with g: both pairs cancel, and the closure is the T
        expansion's."""
        p = Params(N, K)
        rng = Random(f"far pairs:{N},{K}")
        for n in range(3, TRACE_LIMIT + 1):
            for _ in range(2):
                w = _random_word(rng, n, rng.randint(2, 8))
                i = rng.randint(1, n - 1)
                g = rng.choice((1, -1)) * i
                j = rng.randint(0, len(w))
                free = w[:j] + (g,) + _far_letters(rng, n, i, rng.randint(1, 3)) + (-g,) + w[j:]
                cyclic = (_far_letters(rng, n, i, rng.randint(1, 2)) + (g,) + w + (-g,)
                          + _far_letters(rng, n, i, rng.randint(1, 2)))
                for word in (free, cyclic):
                    assert len(_commute_cancel(n, word)) <= len(word) - 2, word
                    b = BraidWord(n, word)
                    assert closure_invariant(p, b) == _closure_unreduced(p, b), b

    def test_eight_strands_build_no_table_or_trace_vector(self, monkeypatch):
        # an 8-strand word that no move changes: the path model traces
        # it whole, and only the oracle expands it over the T_w
        p = Params(3, 2)
        short = BraidWord(8, (1, 1, -2, 3, -4, 5, -6, 7, 7))
        assert _reduce(short) == ([short], 0, 0)

        def refuse(*args):
            raise AssertionError("T route taken")

        monkeypatch.setattr(trace, "from_braid", refuse)
        monkeypatch.setattr(trace, "_trace_vector", refuse)
        assert closure_invariant(p, BraidWord(8, (3, -3))) == loop_power(p, 8)
        got = closure_invariant(p, short)
        monkeypatch.undo()
        assert got == _closure_unreduced(p, short)


def _markov_curl(p, sign):
    """-[N] q^(s(1-N)/2N) Tr(T_{s_i}^s), the curl from the Markov property,
    with Tr(T^-1) = q^-1 (zeta_T + 1) - 1."""
    zt = trace_parameter(p)
    tr = zt if sign > 0 else p.q_pow(-1) * (zt + 1) - 1
    return -qint(p, p.N) * p.zeta_pow(sign * (1 - p.N)) * tr


def _block_sum(p, b):
    """zeta^k sum_lambda d_lambda lift(tr rho_lambda(b)), one Scalar per
    block, k the braid phase of b."""
    model = path_model(p, b.strands)
    k = braid_phase(p, b)
    return sum((block.weight * p.lift(block_trace(model, j, b.word), k)
                for j, block in enumerate(model.blocks)), p.zero)


def _closure_by_blocks(p, b):
    """The closure as the product of the factors' block sums, [N] per
    loop and the Markov curl per destabilised crossing, multiplied in
    one by one."""
    factors, loops, curls = _reduce(b)
    acc = p.one
    for _ in range(loops):
        acc = acc * qint(p, p.N)
    for f in factors:
        acc = acc * _block_sum(p, f)
    for _ in range(abs(curls)):
        acc = acc * _markov_curl(p, 1 if curls > 0 else -1)
    return acc


def _stabilised_words(rng, n):
    """Words on n >= 3 strands with a gap at some sigma_i below a top
    letter that occurs once, or twice on two levels, of either sign; each
    side of the gap holds (sigma_1 ... sigma_(j-1))^3, which no move
    removes."""
    out = []
    for sign in (1, -1):
        i = rng.randint(1, n - 2)
        low, high = (tuple(range(1, j)) * 3 + _random_word(rng, j, rng.randint(0, 3))
                     for j in (i, n - 1 - i))
        high = _shift(high, i)
        out.append(BraidWord(n, low + high + (sign * (n - 1),)))
        out.append(BraidWord(n, _random_word(rng, n - 2, rng.randint(1, 6))
                             + (sign * (n - 2), sign * (n - 1))))
    return out


class TestPhaseFold:
    """closure_invariant sums integer weight matrices times the block
    diagonals and applies every curl and braid phase as one power of
    zeta; the per-block Scalar sum and the Markov curl are its oracle."""

    @pytest.mark.parametrize("N", [2, 3, 4, 5])
    def test_curl_is_the_markov_formula(self, N):
        for K in (1, 2, 3, 4):
            p = Params(N, K)
            for sign in (1, -1):
                assert curl_scalar(p, sign) == _markov_curl(p, sign), (N, K, sign)

    @pytest.mark.parametrize("N,K", [(2, 1), (2, 2), (3, 2), (4, 1), (2, 3), (4, 3), (5, 5)])
    def test_integer_combination_matches_block_sum(self, N, K):
        p = Params(N, K)
        rng = Random(f"phase-fold:{N},{K}")
        seen = set()
        for n in range(2, TRACE_LIMIT + 1):
            braids = [BraidWord(n, _random_word(rng, n, rng.randint(0, 10))) for _ in range(2)]
            if n > 2:
                braids += _stabilised_words(rng, n)
            for b in braids:
                assert _path_closure(p, b) == _block_sum(p, b), b
                assert closure_invariant(p, b) == _closure_by_blocks(p, b), b
                factors, loops, curls = _reduce(b)
                seen |= {("factors", min(len(factors), 2)), ("loops", loops > 0),
                         ("curls", (curls > 0) - (curls < 0))}
        # multi-factor words, loops and curls of both signs all occurred
        assert {("factors", 2), ("loops", True), ("curls", 1), ("curls", -1)} <= seen

    def test_no_inverse_once_the_model_is_built(self, monkeypatch):
        p = Params(3, 2)
        rng = Random("no inverse")
        braids = [b for n in range(3, TRACE_LIMIT + 1) for b in _stabilised_words(rng, n)]
        for n in range(1, TRACE_LIMIT + 1):
            path_model(p, n)
        calls = []
        real = Scalar.inverse
        monkeypatch.setattr(Scalar, "inverse", lambda x: calls.append(x) or real(x))
        for b in braids:
            closure_invariant(p, b)
        assert calls == []

    def test_no_product_by_one(self, monkeypatch):
        """A closure multiplies no factor into a one: a single factor with
        no loops makes no product at all once its model is built, and a
        loop times a factor makes one."""
        p = Params(3, 2)
        one_factor = BraidWord(4, (1, -2, 3, 1, -2, 3))
        with_loops = BraidWord(4, (1, -2, 1, -2))  # strand 4 is a loop
        factors, loops, _ = _reduce(one_factor)
        assert (len(factors), loops) == (1, 0)
        factors, loops, _ = _reduce(with_loops)
        assert (len(factors), loops) == (1, 1)
        values = [closure_invariant(p, b) for b in (one_factor, with_loops)]
        products = []
        real = Scalar.__mul__
        monkeypatch.setattr(Scalar, "__mul__", lambda a, b: products.append((a, b)) or real(a, b))
        assert closure_invariant(p, one_factor) == values[0]
        assert products == []
        assert closure_invariant(p, with_loops) == values[1]
        assert len(products) == 1 and p.one not in products[0]

    def test_replaced_block_weight_is_refused(self, monkeypatch):
        """A block weight swapped after the build no longer matches the
        stored weight matrix, and the closure says so."""
        real = closure.path_model

        def skewed(p, n):
            model = real(p, n)
            first = model.blocks[0]._replace(weight=model.blocks[0].weight * 2)
            return model._replace(blocks=(first,) + model.blocks[1:])

        monkeypatch.setattr(closure, "path_model", skewed)
        with pytest.raises(RuntimeError, match="weight matrix"):
            closure_invariant(Params(2, 2), BraidWord(3, (1, 2, 1, 2)))


@pytest.mark.parametrize("N,K", [(2, 3), (2, 4), (3, 3)])
def test_level_rank_duality(N, K):
    """V_{K,N}(b) = conj(V_{N,K}(b)) (-1)^w exp(2 pi i w/(2NK)), w the
    writhe: SU(N)_K <-> SU(K)_N level-rank duality on the fundamental
    colour (Naculich and Schnitzer, Nucl. Phys. B 347 (1990)).  The two
    sides share no path model, field or braid phase; both are compared
    exactly in Q(zeta_L), L = lcm(2N(N+K), 2K(N+K), 2NK), where
    (-1)^w = zeta_L^(wL/2) and exp(2 pi i w/(2NK)) = zeta_L^(wL/(2NK))."""
    L = math.lcm(2 * N * (N + K), 2 * K * (N + K), 2 * N * K)
    F = _field(L)

    def embed(x, step, k=0):
        # zeta_m -> zeta_L^step, times zeta_L^k
        return Scalar._make(F, F.monomial_map(x.num, step, k), x.den)

    rng = Random(f"level-rank:{N},{K}")
    braids = [BraidWord(n, _random_word(rng, n, rng.randint(1, 14)))
              for n in range(2, 10) for _ in range(4)]
    for n in (5, 9):
        ft = full_twist_word(n)
        braids += [ft, BraidWord(n, _inverse(ft.word))]
    for b in braids:
        w = sum(1 if e > 0 else -1 for e in b.word)
        got = closure_invariant(Params(K, N), b)
        want = closure_invariant(Params(N, K), b)
        assert embed(got, L // got.field.m) == embed(want, -(L // want.field.m),
                                                      w * (L // 2 + L // (2 * N * K))), b


@given(param_idx, st.integers(0, 2 ** 30))
@settings(max_examples=20, deadline=None)
def test_trace_linearity(i, seed):
    p = PARAMS[i]
    rng = Random(seed)
    x, y = random_element(p, 3, rng), random_element(p, 3, rng)
    c = p.zeta_pow(rng.randrange(p.m))
    assert markov_trace(p, x + y) == markov_trace(p, x) + markov_trace(p, y)
    assert markov_trace(p, x.scale(c)) == c * markov_trace(p, x)
