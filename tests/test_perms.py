"""Symmetric group tables: the fast construction against the direct one,
and the strand limit."""

from itertools import permutations

import pytest

from hsk import TRACE_LIMIT as EXPORTED_LIMIT
from hsk.perms import perm_table
from hsk.seminormal import TRACE_LIMIT


def _inversions(w):
    n = len(w)
    return sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])


def _perm_table_oracle(n):
    """perms, length, rmul, lmul by sorting on (length, word) and looking
    up each product in an index."""
    perms = tuple(sorted(permutations(range(n)), key=lambda w: (_inversions(w), w)))
    index = {w: i for i, w in enumerate(perms)}
    rmul, lmul = [], []
    for w in perms:
        rrow, lrow = [], []
        for i in range(n - 1):
            v = list(w)
            v[i], v[i + 1] = v[i + 1], v[i]
            rrow.append(index[tuple(v)])
            lrow.append(index[tuple(i + 1 if x == i else i if x == i + 1 else x for x in w)])
        rmul.append(tuple(rrow))
        lmul.append(tuple(lrow))
    return perms, tuple(_inversions(w) for w in perms), tuple(rmul), tuple(lmul)


@pytest.mark.parametrize("n", range(1, 8))
def test_table_matches_direct_construction(n):
    tbl = perm_table(n)
    assert (tbl.perms, tbl.length, tbl.rmul, tbl.lmul) == _perm_table_oracle(n)
    assert all(tbl.index[w] == i for i, w in enumerate(tbl.perms))


@pytest.mark.parametrize("n", range(1, 7))
def test_words_are_reduced_words(n):
    tbl = perm_table(n)
    for w in range(tbl.size):
        assert len(tbl.word[w]) == tbl.length[w]
        u = 0
        for i in tbl.word[w]:
            u = tbl.rmul[u][i]
        assert u == w


def test_strand_limit():
    assert TRACE_LIMIT == EXPORTED_LIMIT == 8
    assert perm_table(TRACE_LIMIT).size == 40320
    with pytest.raises(ValueError, match="limited to 8 strands"):
        perm_table(TRACE_LIMIT + 1)
    with pytest.raises(ValueError):
        perm_table(-1)
