"""Symmetric group tables used by the Hecke algebra basis.

Permutations of {0, ..., n-1} are stored in one-line notation and
addressed by their index in a fixed enumeration sorted by Coxeter length
then lexicographic order.  The table carries, for every permutation, its
length, one reduced word, and the index of the product with each simple
transposition on either side.  Intended for the desk scale
n <= 8 (``trace.TRACE_LIMIT``)."""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

__all__ = ["PermTable", "perm_table"]


def _inversions(w: tuple[int, ...]) -> int:
    n = len(w)
    return sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])


@dataclass(frozen=True)
class PermTable:
    n: int
    perms: tuple[tuple[int, ...], ...]
    index: dict
    length: tuple[int, ...]
    # rmul[w][i] = index of w * s_i  (swap positions i, i+1 of the word)
    rmul: tuple[tuple[int, ...], ...]
    # lmul[w][i] = index of s_i * w  (swap values i, i+1 in the word)
    lmul: tuple[tuple[int, ...], ...]
    # word[w] = a reduced word, as generator indices, with
    # T_w = T_{s_{word[0]}} * ... * T_{s_{word[-1]}}
    word: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.perms)

    @property
    def identity(self) -> int:
        return 0


@lru_cache(maxsize=None)
def perm_table(n: int) -> PermTable:
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        empty: tuple[tuple[int, ...], ...] = ((),)
        return PermTable(0, empty, {(): 0}, (0,), ((),), ((),), ((),))
    perms = sorted(permutations(range(n)), key=lambda w: (_inversions(w), w))
    perms = tuple(perms)
    index = {w: i for i, w in enumerate(perms)}
    length = tuple(_inversions(w) for w in perms)
    rmul = []
    lmul = []
    for w in perms:
        rrow = []
        lrow = []
        for i in range(n - 1):
            v = list(w)
            v[i], v[i + 1] = v[i + 1], v[i]
            rrow.append(index[tuple(v)])
            u = tuple(i + 1 if x == i else i if x == i + 1 else x for x in w)
            lrow.append(index[u])
        rmul.append(tuple(rrow))
        lmul.append(tuple(lrow))
    rmul = tuple(rmul)
    lmul = tuple(lmul)
    word: list[tuple[int, ...] | None] = [None] * len(perms)
    word[0] = ()
    for wi in range(1, len(perms)):
        for i in range(n - 1):
            v = rmul[wi][i]
            if length[v] == length[wi] - 1:
                word[wi] = word[v] + (i,)
                break
    return PermTable(n, perms, index, length, rmul, lmul, tuple(word))
