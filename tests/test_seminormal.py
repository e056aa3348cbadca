"""The path (seminormal) model of H_n's level-K quotient, and the
closure route that traces braid words in it.

Each block must be a representation of the Hecke algebra (quadratic,
braid and far-commutation relations), have one basis vector per
Bratteli path, and carry the q-Weyl dimension as its weight; together
the weighted block traces must reproduce the Markov trace of the
T-basis expansion."""

import ast
import os
import pathlib
import subprocess
import sys
from random import Random

import pytest

from hsk import (BraidWord, Params, dagger, from_braid, fusion, gamma_n, labels, loop_power,
                 markov_trace, mf_dim, path_count, qint, s_matrix, twist)
from hsk import closure, modular, trace
from hsk.closure import braid_phase, full_twist_word
from hsk.modular import qdim
from hsk.scalar import Scalar
from hsk import seminormal
from hsk.seminormal import (TRACE_LIMIT, block_matrix, block_trace, check_size, dimension,
                            path_model, q_weyl_dimension)

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
from hskbench import oracles  # noqa: E402
from test_category import qdim_by_young_idempotent  # noqa: E402

THEORIES = [Params(2, 1), Params(2, 2), Params(3, 2), Params(4, 1), Params(2, 3)]
ids = [f"{p.N},{p.K}" for p in THEORIES]


def _dense(model, j: int, i: int) -> list[list[Scalar]]:
    """T_i on block j as a matrix over Q(q), from the theory's entries
    and the block's stored (content difference, partner) steps."""
    rows = seminormal._theory(model.p).rows
    steps = model.ops[j].steps[i]
    zero = Scalar.from_rational(model.p.subfield, 0)
    mat = [[zero] * len(steps) for _ in steps]
    for t, (d, u) in enumerate(steps):
        mat[t][t], off = rows[d, 1]
        if u >= 0:
            mat[t][u] = off
    return mat


def _mul(a, b):
    """a b, reading only the nonzero entries of b (a generator has at
    most two in a column), so long words stay cheap."""
    zero = Scalar.from_rational(b[0][0].field, 0)
    cols = [[(k, row[j]) for k, row in enumerate(b) if not row[j].is_zero()]
            for j in range(len(b[0]))]
    return [[sum((row[k] * x for k, x in col), zero) for col in cols] for row in a]


def _t_route(p, b):
    return loop_power(p, b.strands) * markov_trace(p, from_braid(p, b))


@pytest.mark.parametrize("p", THEORIES, ids=ids)
def test_blocks_satisfy_the_hecke_relations(p):
    F = p.subfield
    q = p.q_pow_in(F, 1)
    for n in range(2, 7):
        model = path_model(p, n)
        for j, block in enumerate(model.blocks):
            gens = [_dense(model, j, i) for i in range(n - 1)]
            f = len(block.paths)
            for i, T in enumerate(gens):
                # (T - q)(T + 1) = T^2 - (q-1) T - q = 0
                sq = _mul(T, T)
                assert all(sq[r][c] - (q - 1) * T[r][c] - (q if r == c else 0) == 0
                           for r in range(f) for c in range(f)), (n, block.label, i)
                for j in range(i + 1, n - 1):
                    U = gens[j]
                    if j == i + 1:
                        assert _mul(_mul(T, U), T) == _mul(_mul(U, T), U), (n, block.label, i)
                    else:
                        assert _mul(T, U) == _mul(U, T), (n, block.label, i, j)


# Theories whose long words reach wide slots: at (2,2) the scale is 2,
# so entries grow about one bit per letter.
LONG_WORDS = {Params(2, 1), Params(2, 2), Params(3, 2)}


@pytest.mark.parametrize("p", THEORIES, ids=ids)
def test_block_matrix_is_the_product_of_the_generators(p):
    """block_matrix against dense products of T_i and T_i^-1 = q^-1 T_i +
    (q^-1 - 1), and its diagonal against block_trace: three words of
    length <= 8 per block on up to 5 strands and, where the slot width
    and the packed integers grow large, one word of 40-60 letters per
    block on 6 and 7 strands."""
    F = p.subfield
    qinv = p.q_pow_in(F, -1)

    def check(model, j, word):
        block = model.blocks[j]
        f = len(block.paths)
        one = [[Scalar.from_rational(F, int(r == c)) for c in range(f)] for r in range(f)]
        want = one
        for e in word:
            T = _dense(model, j, abs(e) - 1)
            if e < 0:
                T = [[qinv * x + (qinv - 1) * one[r][c] for c, x in enumerate(row)]
                     for r, row in enumerate(T)]
            want = _mul(want, T)
        got = block_matrix(model, j, word, range(f))
        assert got == want, (model.n, block.label, word)
        assert sum(got[t][t] for t in range(1, f)) + got[0][0] == \
            block_trace(model, j, word), (model.n, block.label, word)

    rng = Random(f"block-matrix:{p.N},{p.K}")
    for n in range(1, 6):
        model = path_model(p, n)
        for j in range(len(model.blocks)):
            for _ in range(3):
                length = 0 if n == 1 else rng.randint(0, 8)
                check(model, j, tuple(rng.choice((1, -1)) * rng.randint(1, n - 1)
                                      for _ in range(length)))
    if p in LONG_WORDS:
        for n in (6, 7):
            model = path_model(p, n)
            for j in range(len(model.blocks)):
                check(model, j, tuple(rng.choice((1, -1)) * rng.randint(1, n - 1)
                                      for _ in range(rng.randint(40, 60))))


def _bound(programs, word):
    """The product of the letters' growths on a scope: its slots' bound."""
    bound = 1
    for e in word:
        bound *= programs[abs(e) - 1, 1 if e > 0 else -1][2]
    return bound


@pytest.mark.parametrize("p", [Params(2, 2), Params(3, 2), Params(2, 3)],
                         ids=lambda p: f"{p.N},{p.K}")
def test_one_product_over_the_model_is_the_block_products(p):
    """The closure's one product over the whole model against one product
    per block, on seeded words of 40-60 letters on 3-8 strands: each
    block's integer diagonal, and the closure as the weighted sum of
    block traces.  At (2,2) the scale is 2 and slots are wide, and the
    blocks share every growth.  Elsewhere some words bound one block
    below another; at (2,3) on 3 strands slots sized by the one-path
    block are too narrow for the other."""
    rng = Random(f"whole-model:{p.N},{p.K}")
    uneven = 0
    for n in (3, 4, 5, 6, 7, 8):
        model = path_model(p, n)
        for _ in range(2):
            word = tuple(rng.choice((1, -1)) * rng.randint(1, n - 1)
                         for _ in range(rng.randint(40, 60)))
            sizes = [len(block.paths) for block in model.blocks]
            assert seminormal._diagonals(model.whole, word, sizes) == \
                [seminormal._diagonals(programs, word, [f])[0]
                 for programs, f in zip(model.ops, sizes)], (n, word)
            b = BraidWord(n, word)
            phase = braid_phase(p, b)
            assert closure._path_closure(p, b) == sum(
                (block.weight * p.lift(block_trace(model, j, word), phase)
                 for j, block in enumerate(model.blocks)), p.zero), (n, word)
            uneven += len({_bound(programs, word) for programs in model.ops}) > 1
    assert uneven or p == Params(2, 2)


@pytest.mark.parametrize("p", THEORIES, ids=ids)
def test_programs_pad_rows_by_scope(p):
    """A whole-model letter holds each row's template padded to the
    row's own width T (phi T coefficients), one group per width, and
    reorders only when there are two groups or more; its growth, which
    sizes the one slot width, is the largest of the blocks'.  A block's
    letter is one group padded to its widest row."""
    theory, phi = seminormal._theory(p), p.subfield.phi
    for n in range(2, 8):
        model = path_model(p, n)
        for i in range(n - 1):
            for sign in (1, -1):
                def widths(programs):
                    return [seminormal._terms(theory, d, sign, u >= 0, model.scale)[1]
                            for d, u in programs.steps[i]]

                groups, order, growth = model.whole[i, sign]
                assert sum(len(coeffs) for _, coeffs, _ in groups) == phi * sum(widths(model.whole))
                assert [T for *_, T in groups] == sorted(set(widths(model.whole)))
                assert (order is None) == (len(groups) == 1)
                assert growth == max(programs[i, sign][2] for programs in model.ops)
                for programs in model.ops:
                    (_, coeffs, T), = programs[i, sign][0]
                    assert T == max(widths(programs))
                    assert len(coeffs) == phi * T * len(programs.steps[i])


@pytest.mark.parametrize("p", THEORIES, ids=ids)
def test_restricted_columns_are_columns_of_the_full_matrix(p):
    """block_matrix on a column list (empty, one, some in any order, all)
    is those columns of the whole matrix, on the empty word too."""
    rng = Random(f"columns:{p.N},{p.K}")
    for n in range(1, 7):
        model = path_model(p, n)
        for j, block in enumerate(model.blocks):
            f = len(block.paths)
            for length in (0, rng.randint(1, 4), rng.randint(5, 10)):
                word = tuple(rng.choice((1, -1)) * rng.randint(1, n - 1)
                             for _ in range(length if n > 1 else 0))
                full = block_matrix(model, j, word, range(f))
                for cols in ([], [rng.randrange(f)], rng.sample(range(f), rng.randint(1, f)),
                             list(range(f))):
                    assert block_matrix(model, j, word, cols) == \
                        [[row[c] for c in cols] for row in full], (n, block.label, word, cols)


def _programs(programs, n):
    """Every letter program of a scope, compiled, with each gather and
    the reorder read as index tuples (itemgetters compare by identity)."""
    def index(get):
        return get and get.__reduce__()[1]

    return {(i, sign): (tuple((index(get), coeffs, T) for get, coeffs, T in groups),
                        index(order), growth)
            for i in range(n - 1) for sign in (1, -1)
            for groups, order, growth in [programs[i, sign]]}


def _fields(model):
    """The fields of a model with every letter program of every block
    and of the whole model compiled, and its weight matrices built."""
    ops = tuple(_programs(programs, model.n) for programs in model.ops)
    return (model.blocks, model.scale, ops, _programs(model.whole, model.n),
            seminormal._weight_matrices(model))


@pytest.mark.parametrize("p", THEORIES, ids=ids)
def test_models_on_a_warm_table_equal_cold_builds(p):
    """A model built on the theory table another build filled is field
    for field the model built from nothing, in either build order, with
    every letter program compiled (programs are compiled on first use,
    from templates shared by models of other scales)."""
    top = 6
    cold = {}
    for n in range(top + 1):
        seminormal._theory.cache_clear()
        path_model.cache_clear()
        cold[n] = _fields(path_model(p, n))
    path_model.cache_clear()
    for order in (range(top + 1), range(top, -1, -1)):
        for n in order:
            assert _fields(path_model(p, n)) == cold[n], n
        path_model.cache_clear()  # the table stays warm


def test_rebuilt_models_make_no_inversion(monkeypatch):
    """Rebuilding every model on 0-8 strands on a warm table inverts
    nothing (the cold builds are checked on n <= 6 below)."""
    p = Params(3, 2)
    for d in labels(p):
        q_weyl_dimension(p, d)
    for n in range(TRACE_LIMIT + 1):
        path_model(p, n)
    path_model.cache_clear()
    calls = []
    real = Scalar.inverse
    monkeypatch.setattr(Scalar, "inverse", lambda x: calls.append(x) or real(x))
    for n in range(TRACE_LIMIT + 1):
        path_model(p, n)
    assert calls == []


def _spy_inverse(monkeypatch) -> list:
    calls = []
    real = Scalar.inverse
    monkeypatch.setattr(Scalar, "inverse", lambda x: calls.append(x) or real(x))
    return calls


@pytest.mark.parametrize("p", THEORIES, ids=ids)
def test_theory_inverts_each_entry_pair_and_the_weight_denominator_once(p, monkeypatch):
    """A theory's tables make no field inversion: neither every label
    weight (the denominator prod_{i<j} [j-i] in closed form) nor every
    path model on n <= 6 strands (each entry a_d in closed form, a_-d
    from a_d)."""
    calls = _spy_inverse(monkeypatch)
    seminormal._theory.cache_clear()
    path_model.cache_clear()
    for d in labels(p):
        q_weyl_dimension(p, d)
    for n in range(7):
        path_model(p, n)
    assert calls == []


@pytest.mark.parametrize("p", THEORIES, ids=ids)
def test_first_qdim_inverts_only_the_weight_denominator(p, monkeypatch):
    """A single qdim on a fresh theory builds no entry a_d and makes no
    field inversion: the weights' common denominator is inverted in
    closed form."""
    calls = _spy_inverse(monkeypatch)
    seminormal._theory.cache_clear()
    lab = labels(p)[-1]
    got = qdim(p, lab)
    assert calls == []
    monkeypatch.undo()
    assert got == qdim_by_young_idempotent(p, lab)


@pytest.mark.parametrize("p", [Params(2, 1), Params(2, 2), Params(3, 2), Params(4, 1), Params(2, 3),
                               Params(3, 3), Params(5, 5)], ids=lambda p: f"{p.N},{p.K}")
def test_closed_form_inverses_equal_norm_inverses(p):
    """1/(y - 1) = (1/n) sum_{i<n} i y^i, y of order n, against the
    Galois-norm inverse: 1/(q^d - 1) and q^d/(q^d - 1) in Q(q) for
    0 < d < N+K, and [k]^-1 in the ambient field for 1 <= k < N+K."""
    F = p.subfield
    step = F.m // (p.N + p.K)
    for d in range(1, p.N + p.K):
        qd = p.q_pow_in(F, d)
        assert seminormal._over_root_minus_one(F, d * step) == (qd - 1).inverse(), d
        assert seminormal._over_root_minus_one(F, d * step, d * step) == qd * (qd - 1).inverse(), d
    for k in range(1, p.N + p.K):
        assert seminormal._qint_inverse(p, k) == qint(p, k).inverse(), k


def _rows_by_inversion(p) -> dict:
    """Every entry and T^-1 row as built before the closed forms: a_d by
    a norm inversion of q^d - 1 for 0 < d < N+K, a_-d = -q^-d a_d, and
    the T^-1 diagonal q^-1 a + q^-1 - 1."""
    F = p.subfield
    q, qinv = p.q_pow_in(F, 1), p.q_pow_in(F, -1)
    a = {}
    for d in range(1, p.N + p.K):
        qd = p.q_pow_in(F, d)
        a[d] = (q - 1) * qd * (qd - 1).inverse()
        a[-d] = -p.q_pow_in(F, -d) * a[d]
    rows = {}
    for d, x in a.items():
        off = x * a[-d] + q if d > 0 else Scalar.from_rational(F, 1)
        rows[d, 1] = (x, off)
        rows[d, -1] = (qinv * x + qinv - 1, qinv * off)
    return rows


@pytest.mark.parametrize("p", THEORIES, ids=ids)
def test_entries_fill_per_content_difference_on_demand(p):
    """A fresh table holds no entry after a one-strand model, and after
    an n-strand model exactly the entries of the |d| its rows use, both
    signs of d and of the letter, all with 0 < |d| < min(n, N+K); at
    (4,1) the 3- and 4-strand models use |d| = 1 alone, and no model
    |d| = 2 or 3.  Every entry and T^-1 row filled equals the inverting
    construction."""
    for n in range(1, p.N + p.K + 2):
        seminormal._theory.cache_clear()
        path_model.cache_clear()
        model = path_model(p, n)
        used = {abs(d) for gen in model.whole.steps for d, _ in gen}
        assert used <= set(range(1, min(n, p.N + p.K))), n
        assert set(seminormal._theory(p).rows) == {(e * d, sign) for d in used
                                                   for e in (1, -1) for sign in (1, -1)}, n
    rows, oracle = seminormal._theory(p).rows, _rows_by_inversion(p)
    assert rows == {key: oracle[key] for key in rows}


@pytest.mark.parametrize("p", [Params(2, 3), Params(4, 1), Params(3, 2)],
                         ids=lambda p: f"{p.N},{p.K}")
def test_modular_data_build_no_weight_matrices(p, monkeypatch):
    """Twists, fusion rows, S~ and mf_dim leave every path model they
    read without weight matrices; a closure builds them, once."""
    for cached in (seminormal._theory, path_model, modular.s_matrix, modular._row):
        cached.cache_clear()
    models = []
    real = modular.path_model
    monkeypatch.setattr(modular, "path_model", lambda p, n: models.append(real(p, n)) or models[-1])
    labs = labels(p)
    for lab in labs:
        twist(p, lab)
    fusion(p, labs[1], labs[-1], labs[1])
    s_matrix(p)
    mf_dim(p, 1, (labs[1], dagger(p, labs[1])))
    assert models and all(model.weights == [] for model in models)
    b = BraidWord(3, (1, -2, 1))
    closure._path_closure(p, b)
    built = path_model(p, 3).weights
    assert len(built) == 1
    closure._path_closure(p, b)
    assert path_model(p, 3).weights is built and len(built) == 1


@pytest.mark.parametrize("p", THEORIES, ids=ids)
def test_paths_count_and_weights_sum_to_the_unlink(p):
    for n in range(0, 7):
        model = path_model(p, n)
        total = p.zero
        for block in model.blocks:
            f = len(block.paths)
            assert f == path_count(p, n, block.label)
            assert len(set(block.paths)) == f
            total = total + block.weight * f
        assert total == loop_power(p, n)  # sum_lambda d_lambda f_lambda = [N]^n
        assert dimension(p, n) == sum(len(b.paths) ** 2 for b in model.blocks)


@pytest.mark.parametrize("p", [Params(2, 2), Params(3, 2), Params(2, 3), Params(3, 3),
                               Params(5, 5)], ids=lambda p: f"{p.N},{p.K}")
def test_one_pass_dimension_is_the_sum_of_squared_path_counts(p):
    for n in range(13):
        assert dimension(p, n) == sum(path_count(p, n, d) ** 2 for d in gamma_n(p, n)), n


def test_models_past_the_permutation_table_size_are_refused():
    """sum f^2 <= 8! passes; beyond it path_model refuses before any path
    is listed, whatever the strand count."""
    for p, n in ((Params(3, 2), 12), (Params(2, 5), 10), (Params(4, 1), 200)):
        assert dimension(p, n) <= 40320
        check_size(p, n)
    for p, n in ((Params(5, 5), 9), (Params(3, 3), 12), (Params(3, 20), 80)):
        assert dimension(p, n) > 40320
        with pytest.raises(ValueError, match=f"path model on {n} strands"):
            path_model(p, n)


@pytest.mark.parametrize("p", THEORIES, ids=ids)
def test_weights_are_quantum_dimensions(p):
    """The closed-form q-Weyl weight against [N]^{|d|} Tr(y_d) of the Young
    idempotent and against the float oracle of the benchmark, which
    imports no hsk."""
    for lab in labels(p):
        n = lab.size
        block = next(b for b in path_model(p, n).blocks if b.label == lab)
        assert block.weight == qdim_by_young_idempotent(p, lab)
        assert block.weight.embed() == pytest.approx(oracles.qdim(p.N, p.K, lab.rows), abs=1e-9)
    assert qint(p, p.N) == path_model(p, 1).blocks[0].weight


@pytest.mark.parametrize("p", THEORIES, ids=ids)
def test_path_route_matches_t_route_on_mixed_words(p):
    rng = Random(f"seminormal:{p.N},{p.K}")
    for n in range(1, 8):
        for _ in range(6 if n < 7 else 2):
            length = 0 if n == 1 else rng.randint(0, 12)
            word = tuple(rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(length))
            b = BraidWord(n, word)
            assert closure._path_closure(p, b) == _t_route(p, b), (n, word)


@pytest.mark.parametrize("p", THEORIES, ids=ids)
def test_path_route_matches_t_route_on_full_twists(p):
    for n in (5, 6, 7):
        ft = full_twist_word(n).word
        for word in (ft, tuple(-e for e in reversed(ft))):
            b = BraidWord(n, word)
            assert closure._path_closure(p, b) == _t_route(p, b), (n, word[0])


def test_route_choice(monkeypatch):
    """closure_invariant expands no word over the T_w: on short, mixed
    and full-twist words on 2-8 strands it calls neither from_braid nor
    the trace vector, and each result equals the T expansion."""
    p = Params(3, 2)
    rng = Random("single route")
    braids = []
    for n in range(2, 9):
        # a short word that no Markov move changes (sigma_2 and
        # sigma_(n-2) take the sign that stops the braid relation from
        # merging the sigma_1 or the top pair), then mixed words
        short = (1, 1) + tuple(-i if i in (2, n - 2) else i for i in range(2, n))
        braids.append(BraidWord(n, short + short[-1:]))
        assert closure._reduce(braids[-1]) == ([braids[-1]], 0, 0)
        braids += [BraidWord(n, tuple(rng.choice((1, -1)) * rng.randint(1, n - 1)
                                      for _ in range(rng.randint(6, 12)))) for _ in range(2)]
        if n < 8:  # the T expansion of an 8-strand full twist takes seconds
            ft = full_twist_word(n).word
            braids += [BraidWord(n, ft), BraidWord(n, tuple(-e for e in reversed(ft)))]
    calls = []

    def spy(name):
        real = getattr(trace, name)

        def wrapped(*args):
            calls.append(name)
            return real(*args)
        return wrapped

    monkeypatch.setattr(trace, "from_braid", spy("from_braid"))
    monkeypatch.setattr(trace, "_trace_vector", spy("_trace_vector"))
    got = [closure.closure_invariant(p, b) for b in braids]
    monkeypatch.undo()
    assert calls == []
    for b, val in zip(braids, got):
        assert val == _t_route(p, b), b


def test_braid_word_value_type():
    b = BraidWord(3, (1, -2))
    assert repr(b) == "BraidWord(strands=3, word=(1, -2))"
    assert b == BraidWord(strands=3, word=(1, -2)) and hash(b) == hash(BraidWord(3, (1, -2)))
    assert BraidWord(2).word == () and b * BraidWord(3, (2,)) == BraidWord(3, (1, -2, 2))
    with pytest.raises(AttributeError):
        b.word = ()
    with pytest.raises(ValueError, match="strand count must be positive"):
        BraidWord(0)
    with pytest.raises(ValueError, match="braid letter 3 out of range"):
        BraidWord(3, (1, 3))
    with pytest.raises(ValueError, match="braid letter 0 out of range"):
        BraidWord(3, (0,))
    with pytest.raises(ValueError, match="strand counts differ"):
        b * BraidWord(4)


def test_path_routed_closure_builds_no_permutation_table():
    code = (
        "from hsk import Params, BraidWord, closure_invariant\n"
        "from hsk.closure import full_twist_word\n"
        "from hsk.perms import perm_table\n"
        "ft = full_twist_word(8).word\n"
        "closure_invariant(Params(3, 2), BraidWord(8, tuple(-e for e in reversed(ft))))\n"
        "closure_invariant(Params(3, 2), BraidWord(5, (1, 1, 2, -3, 4, 4)))\n"
        "print(perm_table.cache_info().misses)\n")
    src = str(pathlib.Path(trace.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=60, check=True).stdout
    assert out.strip() == "0"


def test_readers_import_no_private_name_from_seminormal():
    """closure, modular and category read the path model only through
    its public traces: none imports a _-prefixed name from it."""
    root = pathlib.Path(seminormal.__file__).resolve().parent
    for module in ("closure", "modular", "category"):
        tree = ast.parse((root / f"{module}.py").read_text(encoding="utf-8"))
        private = [alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.level == 1
                   and node.module == "seminormal"
                   for alias in node.names if alias.name.startswith("_")]
        assert private == [], module
