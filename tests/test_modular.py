"""Exact modular relations of S~, the twists and the quantum dimensions.

Every check is an identity in Q(zeta_m), compared coefficient by
coefficient, with D^2 = sum d_lam^2, C the dagger permutation, T the
diagonal of twists and p_+- = sum theta_lam^(+-1) d_lam^2:

    S~^2 = D^2 C,    p_+ p_- = D^2,    (S~ T^-1)^3 = p_- S~^2,

and the Verlinde formula recovers every fusion coefficient exactly
from S~.  Relative to these twists S~ is the complex conjugate of the
s~ of Bakalov-Kirillov, so (S~ T)^3 = p_+ S~^2 holds only where C = 1.
S~ is compared exactly with the Kac-Peterson sum over S_N, which
verify builds from zeta powers alone.  Dimensions and twists are also
compared with the closed forms of the benchmark's oracles, which import
no hsk, and modular-functor dimensions with the Verlinde formula.  None of the
checks uses the balancing identity from which S~ is computed."""

import cmath
import math
import pathlib
import sys

import pytest

from hsk import Params, dagger, fusion, gamma_n, labels, mf_dim, path_count, qdim, qint, s_matrix, twist
from hsk import modular
from hsk.closure import block_transposition_word
from hsk.modular import _fusion_row
from hsk.scalar import Scalar
from hsk.seminormal import block_matrix, path_model
from hsk.verify import _kac_peterson

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))
from hskbench import oracles  # noqa: E402

THEORIES = [Params(2, 1), Params(2, 2), Params(3, 1), Params(4, 1), Params(2, 3),
            Params(3, 2), Params(2, 4), Params(5, 1)]
ids = [f"{p.N},{p.K}" for p in THEORIES]


def _mul(p, a, b):
    out = []
    for row in a:
        new = []
        for j in range(len(b[0])):
            acc = p.zero
            for k, x in enumerate(row):
                if not x.is_zero() and not b[k][j].is_zero():
                    acc = acc + x * b[k][j]
            new.append(acc)
        out.append(new)
    return out


def _data(p):
    s = s_matrix(p)
    labs = list(s.labels)
    d = [qdim(p, lam) for lam in labs]
    theta = [twist(p, lam) for lam in labs]
    dim2 = sum((x * x for x in d), p.zero)
    return s, labs, d, theta, dim2


@pytest.mark.parametrize("p", THEORIES, ids=ids)
def test_s_squared_is_charge_conjugation(p):
    s, labs, _, _, dim2 = _data(p)
    sq = _mul(p, s.entries, s.entries)
    for i, lam in enumerate(labs):
        for j, mu in enumerate(labs):
            assert sq[i][j] == (dim2 if mu == dagger(p, lam) else p.zero), (lam.rows, mu.rows)


@pytest.mark.parametrize("p", THEORIES, ids=ids)
def test_gauss_sums_multiply_to_the_global_dimension(p):
    _, _, d, theta, dim2 = _data(p)
    plus = sum((t * x * x for t, x in zip(theta, d)), p.zero)
    minus = sum((t.inverse() * x * x for t, x in zip(theta, d)), p.zero)
    assert plus * minus == dim2
    # arg p_+ = 2 pi c / 8 with the central charge c = K (N^2 - 1) / (N + K)
    c = p.K * (p.N ** 2 - 1) / (p.N + p.K)
    z = plus.embed()
    assert z / abs(z) == pytest.approx(cmath.exp(2j * math.pi * c / 8), abs=1e-9)


@pytest.mark.parametrize("p", THEORIES, ids=ids)
def test_modular_relation(p):
    s, labs, d, theta, _ = _data(p)
    minus = sum((t.inverse() * x * x for t, x in zip(theta, d)), p.zero)
    st = [[x * theta[j].inverse() for j, x in enumerate(row)] for row in s.entries]
    cube = _mul(p, _mul(p, st, st), st)
    sq = _mul(p, s.entries, s.entries)
    for i in range(len(labs)):
        for j in range(len(labs)):
            assert cube[i][j] == minus * sq[i][j], (labs[i].rows, labs[j].rows)


@pytest.mark.parametrize("p", THEORIES, ids=ids)
def test_verlinde_recovers_fusion(p):
    """N_{lam mu}^nu = D^-2 sum_k S~_{lam k} S~_{mu k} conj(S~_{nu k}) / S~_{0 k}."""
    s, labs, _, _, dim2 = _data(p)
    S = s.entries
    k = len(labs)
    # one factor per column k: 1 / (D^2 S~_{0 k})
    col = [(dim2 * S[0][c]).inverse() for c in range(k)]
    for a, lam in enumerate(labs):
        for b, mu in enumerate(labs):
            for c, nu in enumerate(labs):
                got = sum((S[a][x] * S[b][x] * S[c][x].conjugate() * col[x] for x in range(k)),
                          p.zero)
                assert got == p.scalar(fusion(p, lam, mu, nu)), (lam.rows, mu.rows, nu.rows)


@pytest.mark.parametrize("p", THEORIES, ids=ids)
def test_s_matches_kac_peterson(p):
    """S~ equals the Kac-Peterson matrix exactly, entry by entry, over
    the oracles' label order (a sum over S_N, so N stays small)."""
    s, labs, _, _, _ = _data(p)
    assert [lam.rows for lam in labs] == list(oracles.labels(p.N, p.K))
    assert [list(row) for row in s.entries] == _kac_peterson(p, labs)


@pytest.mark.parametrize("genus", [1, 2])
def test_handles_match_verlinde(genus):
    """Genus 1 and 2 at (3,2), where every handle reads every fusion
    matrix, label pairs up to 8 strands, from fundamental rows on at
    most 4 strands."""
    p = Params(3, 2)
    assert mf_dim(p, genus, ()) == oracles.verlinde_mf_dim(p.N, p.K, genus, ())


@pytest.mark.parametrize("p", THEORIES, ids=ids)
def test_closed_forms(p):
    """qdim is the q-Weyl product prod_{i<j} [l_i - l_j + j - i]/[j - i],
    exactly and against the float oracle; theta is zeta^x with the
    oracle's twist exponent x."""
    for lam in labels(p):
        rows = [lam.row(i) for i in range(p.N)]
        want = p.one
        for i in range(p.N):
            for j in range(i + 1, p.N):
                want = want * qint(p, rows[i] - rows[j] + j - i) * qint(p, j - i).inverse()
        assert qdim(p, lam) == want, lam.rows
        assert qdim(p, lam).embed() == pytest.approx(oracles.qdim(p.N, p.K, lam.rows), abs=1e-9)
        assert twist(p, lam) == p.zeta_pow(oracles.twist_exponent(p.N, lam.rows)), lam.rows


@pytest.mark.parametrize("p", THEORIES, ids=ids)
def test_box_folds_count_paths(p):
    """mf_dim(0, [box] * n + [nu dagger]) = path_count(n, nu): folding
    boxes into the vacuum walks the Bratteli diagram."""
    box = labels(p)[1]
    for n in range(7):
        for nu in gamma_n(p, n):
            assert mf_dim(p, 0, (box,) * n + (dagger(p, nu),)) == path_count(p, n, nu), (n, nu.rows)


def _fusion_row_from_full_matrices(p, lam, mu):
    """N_{lam mu}^nu over the label list from the full matrices of
    rho(beta) and rho(beta)^-1, every entry unpacked."""
    a, b = lam.size, mu.size
    model = path_model(p, a + b)
    t, s = (tuple(i for i, r in enumerate(d.rows) for _ in range(r)) for d in (lam, mu))
    word = block_transposition_word(b, a).word if a and b else ()
    inverse = tuple(-e for e in reversed(word))
    found = {}
    for j, block in enumerate(model.blocks):
        rows_t = [i for i, path in enumerate(block.paths) if path[:a] == t]
        rows_s = [k for k, path in enumerate(block.paths) if path[:b] == s]
        f = range(len(block.paths))
        fwd, back = block_matrix(model, j, word, f), block_matrix(model, j, inverse, f)
        tr = sum((back[i][k] * fwd[k][i] for i in rows_t for k in rows_s),
                 Scalar.from_rational(p.subfield, 0))
        found[block.label] = int(tr.as_rational())
    return tuple(found.get(nu, 0) for nu in labels(p))


def test_fusion_rows_read_only_their_columns():
    """_fusion_row, which computes rho(beta) on the columns of P_t and
    rho(beta)^-1 on those of P_s, equals the trace of the full matrices
    on every label pair at (3,2) with |lam| + |mu| <= 6."""
    p = Params(3, 2)
    pairs = [(lam, mu) for lam in labels(p) for mu in labels(p) if lam.size + mu.size <= 6]
    assert len(pairs) == 33  # all but (2,1)(2,2), (2,2)(2,1), (2,2)(2,2)
    for lam, mu in pairs:
        assert _fusion_row(p, lam, mu) == _fusion_row_from_full_matrices(p, lam, mu), \
            (lam.rows, mu.rows)


def test_fusion_trace_that_is_not_a_nonnegative_integer_is_refused(monkeypatch):
    """The integer trace is checked, not rounded: with the block trace
    negated, the multiplicity of (1)(1) in (2) reads -1."""
    from hsk import modular

    p = Params(2, 2)
    real = modular.fusion_trace

    def negated(model, b, word, rows_t, rows_s):
        return -real(model, b, word, rows_t, rows_s)

    monkeypatch.setattr(modular, "fusion_trace", negated)
    box = labels(p)[1]
    with pytest.raises(RuntimeError, match="nonnegative integer"):
        _fusion_row(p, box, box)


# the pair route's reach: every theory whose label pairs it can trace
# within 7 strands, in under a second together
REACH = THEORIES + [Params(2, 5), Params(4, 2), Params(3, 3)]


@pytest.mark.parametrize("p", REACH, ids=lambda p: f"{p.N},{p.K}")
def test_determinant_rows_equal_pair_rows(p):
    """Row mu of det[E_{lam^t_i - i + j}] from the fundamental rows, each
    traced on its shorter side, equals the pair route's trace of
    lam (x) mu on every label pair with |lam| + |mu| <= 7."""
    modular._row.cache_clear()
    pairs = [(lam, mu) for lam in labels(p) for mu in labels(p) if lam.size + mu.size <= 7]
    for lam, mu in pairs:
        assert modular._row(p, lam, mu) == _fusion_row(p, lam, mu), (lam.rows, mu.rows)
    modular._row.cache_clear()


@pytest.mark.parametrize("p", [Params(3, 2), Params(4, 2), Params(3, 3), Params(2, 5)],
                         ids=lambda p: f"{p.N},{p.K}")
def test_fusion_builds_no_model_beyond_its_pair(p, monkeypatch):
    """Each Leibniz term's indices sum to |lam|, so fusion(lam, mu, nu),
    from cold rows, builds no path model on more than |lam| + |mu|
    strands."""
    built, traced = [], 0
    real = modular.path_model
    monkeypatch.setattr(modular, "path_model", lambda p, n: built.append(n) or real(p, n))
    for lam in labels(p):
        for mu in labels(p):
            if lam.size + mu.size > 8:
                continue
            nu = gamma_n(p, lam.size + mu.size)[-1]
            modular._row.cache_clear()
            built.clear()
            fusion(p, lam, mu, nu)
            assert max(built, default=0) <= lam.size + mu.size, (lam.rows, mu.rows, built)
            traced += len(built)
    assert traced  # the spy saw the fundamental rows traced
    modular._row.cache_clear()


def test_negative_determinant_entry_is_refused(monkeypatch):
    """Every determinant entry is checked: with E_1 read as zero at (2,2),
    N_(2) = E_1^2 - E_2 E_0 = -1 on the diagonal."""
    p = Params(2, 2)
    modular._row.cache_clear()
    monkeypatch.setattr(modular, "_fundamental_row", lambda p, k, mu: (0,) * len(labels(p)))
    two, empty = labels(p)[2], labels(p)[0]
    assert two.rows == (2,)
    with pytest.raises(RuntimeError, match="nonnegative integer"):
        fusion(p, two, empty, two)
    modular._row.cache_clear()
