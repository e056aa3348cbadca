"""Young-diagram combinatorics: labels, duality, restriction,
admissible paths and weights."""

import pathlib
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsk import (
    Params,
    YoungDiagram,
    branch,
    dagger,
    diagram_stats,
    gamma_n,
    labels,
    pad,
    path_count,
    weight,
)

# the benchmark's closed forms import no hsk, so they serve as oracles
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))
from hskbench.oracles import path_counts  # noqa: E402

PARAMS = [Params(2, 1), Params(2, 2), Params(3, 1), Params(3, 2), Params(4, 1)]
param_idx = st.integers(0, len(PARAMS) - 1)


class TestDiagramBasics:
    def test_construction_rejects_bad_rows(self):
        with pytest.raises(ValueError):
            YoungDiagram.of(1, 2)
        with pytest.raises(ValueError):
            YoungDiagram((2, 0))
        # the variadic constructor strips explicit zeros
        assert YoungDiagram.of(2, 0) == YoungDiagram.of(2)

    def test_value_type(self):
        d = YoungDiagram((2, 1))
        assert repr(d) == "YoungDiagram((2, 1))"
        assert d == YoungDiagram.of(2, 1) and hash(d) == hash(YoungDiagram(rows=(2, 1)))
        assert YoungDiagram().rows == () and YoungDiagram() == YoungDiagram.of()
        assert YoungDiagram.of(1) < YoungDiagram.of(1, 1) < YoungDiagram.of(2)
        with pytest.raises(AttributeError):
            d.rows = (3,)
        with pytest.raises(ValueError, match="rows must be positive"):
            YoungDiagram((2, 0))
        with pytest.raises(ValueError, match="rows must be weakly decreasing"):
            YoungDiagram((1, 2))

    def test_transpose_involution(self):
        d = YoungDiagram.of(4, 2, 1)
        assert d.transpose().transpose() == d
        assert d.transpose().rows == (3, 2, 1, 1)

    def test_hook_lengths(self):
        assert sorted(YoungDiagram.of(2, 1).hook_lengths()) == [1, 1, 3]
        assert sorted(YoungDiagram.of(2, 2).hook_lengths()) == [1, 2, 2, 3]
        assert YoungDiagram.of().hook_lengths() == []

    def test_json_roundtrip(self):
        d = YoungDiagram.of(3, 1)
        assert YoungDiagram.from_json(d.to_json()) == d
        assert YoungDiagram.from_json([]) == YoungDiagram.of()


class TestLabels:
    def test_counts(self):
        expected = {(2, 1): 2, (2, 2): 3, (3, 1): 3, (3, 2): 6, (4, 1): 4}
        for p in PARAMS:
            assert len(labels(p)) == expected[(p.N, p.K)]

    def test_su2_level2_list(self):
        assert [list(d.rows) for d in labels(Params(2, 2))] == [[], [1], [2]]

    def test_order(self):
        got = [d.rows for d in labels(Params(3, 2))]
        assert got == [(), (1,), (1, 1), (2,), (2, 1), (2, 2)]

    def test_membership_bounds(self):
        for p in PARAMS:
            for d in labels(p):
                assert d.nrows < p.N
                assert d.row(0) <= p.K

    def test_stats_flags(self):
        p = Params(2, 2)
        s = diagram_stats(p, YoungDiagram.of(2))
        assert s.in_gamma and s.in_c
        deep = diagram_stats(p, YoungDiagram.of(3, 3))
        assert not deep.in_gamma


class TestDagger:
    def test_values(self):
        p32 = Params(3, 2)
        assert dagger(p32, YoungDiagram.of(1)).rows == (1, 1)
        assert dagger(p32, YoungDiagram.of(2)).rows == (2, 2)
        assert dagger(p32, YoungDiagram.of(2, 1)).rows == (2, 1)
        assert dagger(Params(4, 1), YoungDiagram.of(1)).rows == (1, 1, 1)
        assert dagger(Params(2, 2), YoungDiagram.of(1)).rows == (1,)

    def test_involution_on_all_labels(self):
        for p in PARAMS:
            for d in labels(p):
                assert dagger(p, dagger(p, d)) == d

    def test_requires_a_label(self):
        with pytest.raises(ValueError):
            dagger(Params(2, 1), YoungDiagram.of(2))


class TestGammaN:
    def test_size_congruence(self):
        for p in PARAMS:
            for n in range(7):
                for d in gamma_n(p, n):
                    assert (n - d.size) % p.N == 0
                    assert d in labels(p)

    def test_su2_level2_chain(self):
        p = Params(2, 2)
        assert [list(d.rows) for d in gamma_n(p, 2)] == [[], [2]]
        assert [list(d.rows) for d in gamma_n(p, 3)] == [[1]]

    def test_su3_level2(self):
        p = Params(3, 2)
        assert {d.rows for d in gamma_n(p, 2)} == {(1, 1), (2,)}
        assert {d.rows for d in gamma_n(p, 3)} == {(), (2, 1)}
        assert {d.rows for d in gamma_n(p, 4)} == {(1,), (2, 2)}


class TestBranch:
    def test_su2_level2(self):
        p = Params(2, 2)
        assert {d.rows for d in branch(p, 2, YoungDiagram.of())} == {(1,)}
        assert {d.rows for d in branch(p, 2, YoungDiagram.of(2))} == {(1,)}
        assert {d.rows for d in branch(p, 3, YoungDiagram.of(1))} == {(), (2,)}

    def test_su3_level2(self):
        p = Params(3, 2)
        assert {d.rows for d in branch(p, 3, YoungDiagram.of(2, 1))} == {(1, 1), (2,)}
        assert {d.rows for d in branch(p, 3, YoungDiagram.of())} == {(1, 1)}
        assert {d.rows for d in branch(p, 5, YoungDiagram.of(1, 1))} == {(1,), (2, 2)}

    def test_subset_of_gamma(self):
        for p in PARAMS:
            for n in range(1, 7):
                for d in gamma_n(p, n):
                    for b in branch(p, n, d):
                        assert b in gamma_n(p, n - 1)


class TestPathCount:
    def test_recursion(self):
        for p in PARAMS:
            for n in range(1, 8):
                for d in gamma_n(p, n):
                    assert path_count(p, n, d) == sum(
                        path_count(p, n - 1, b) for b in branch(p, n, d)
                    )

    def test_su2_level2_values(self):
        p = Params(2, 2)
        assert path_count(p, 3, YoungDiagram.of(1)) == 2
        assert path_count(p, 4, YoungDiagram.of()) == 2
        assert path_count(p, 4, YoungDiagram.of(2)) == 2
        assert path_count(p, 5, YoungDiagram.of(1)) == 4

    def test_su3_level2_values(self):
        p = Params(3, 2)
        assert path_count(p, 3, YoungDiagram.of(2, 1)) == 2
        assert path_count(p, 4, YoungDiagram.of(1)) == 3
        assert path_count(p, 5, YoungDiagram.of(1, 1)) == 5
        assert path_count(p, 5, YoungDiagram.of(2)) == 3

    def test_empty_path(self):
        for p in PARAMS:
            assert path_count(p, 0, YoungDiagram.of()) == 1

    def test_matches_diagram_enumeration(self):
        # hskbench.oracles counts box-adding paths through N-row diagrams
        for p in PARAMS + [Params(2, 3)]:
            for n in range(13):
                want = path_counts(p.N, p.K, n)
                assert set(want) <= {d.rows for d in gamma_n(p, n)}
                for d in labels(p):
                    assert path_count(p, n, d) == want.get(d.rows, 0), (p, n, d)

    def test_deep_tower(self):
        # 900 steps: a recursion over n would overflow the stack
        for p, d in ((Params(2, 2), YoungDiagram.of()), (Params(3, 2), YoungDiagram.of(2, 1))):
            assert path_count(p, 900, d) == path_counts(p.N, p.K, 900)[d.rows]


class TestPad:
    def test_full_columns(self):
        p = Params(2, 2)
        assert pad(p, YoungDiagram.of(1), 3).rows == (2, 1)
        assert pad(p, YoungDiagram.of(), 4).rows == (2, 2)
        assert pad(p, YoungDiagram.of(2), 2).rows == (2,)

    def test_row_difference_preserved(self):
        p = Params(3, 2)
        for d in labels(p):
            for extra in range(3):
                n = d.size + extra * p.N
                q = pad(p, d, n)
                assert q.row(0) - q.row(p.N - 1) == d.row(0) - d.row(p.N - 1)

    def test_bijection_onto_bounded_diagrams(self):
        # distinct labels pad to distinct diagrams of each size
        for p in PARAMS:
            for n in range(8):
                image = {pad(p, d, n).rows for d in gamma_n(p, n)}
                assert len(image) == len(gamma_n(p, n))

    def test_rejects_bad_size(self):
        p = Params(3, 1)
        with pytest.raises(ValueError):
            pad(p, YoungDiagram.of(1), 2)


class TestWeight:
    def test_fundamental(self):
        p = Params(3, 2)
        w = weight(p, YoungDiagram.of(1))
        assert w.coeffs == (1, 0)
        assert w.pairing == 1
        assert w.in_level_alcove

    def test_adjoint_pairing(self):
        w = weight(Params(3, 2), YoungDiagram.of(2, 1))
        assert w.coeffs == (1, 1)
        assert w.pairing == 2

    def test_su2_boundary(self):
        p = Params(2, 2)
        w = weight(p, YoungDiagram.of(p.K))
        assert w.coeffs == (p.K,)
        assert w.pairing == p.K

    def test_alcove_classification(self):
        for p in PARAMS:
            seen = set()
            for d in labels(p):
                w = weight(p, d)
                assert w.in_level_alcove
                seen.add(w.coeffs)
            assert len(seen) == len(labels(p))


@given(param_idx, st.integers(0, 7))
@settings(max_examples=40, deadline=None)
def test_gamma_is_branch_closed(i, n):
    p = PARAMS[i]
    downs = set()
    for d in gamma_n(p, n):
        downs.update(branch(p, n, d))
    if n >= 1:
        ups = {d for d in gamma_n(p, n - 1) if path_count(p, n - 1, d) > 0}
        assert downs <= ups
