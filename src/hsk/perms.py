"""Symmetric group tables used by the Hecke algebra basis.

Permutations of {0, ..., n-1} are stored in one-line notation and
addressed by their index in a fixed enumeration sorted by Coxeter length
then lexicographic order.  The table carries, for every permutation, its
length, one reduced word, and the index of the product with each simple
transposition on either side.  Tables stop at TRACE_LIMIT = 8 strands:
every T-basis construction on S_9 would run for minutes."""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from math import factorial

from .seminormal import TRACE_LIMIT

__all__ = ["PermTable", "perm_table"]


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
    """``permutations`` lists S_n in the lexicographic order of the Lehmer
    codes c (c_k = #{j > k: w[j] < w[k]}), of rank r = sum_k c_k (n-1-k)!
    and length sum(c); a stable sort by length gives the table order.
    w s_i swaps c_i, c_{i+1} and adds 1 to c_i (ascent) or takes 1 from
    c_{i+1}; s_i w moves only the digit at min(w^-1(i), w^-1(i+1)), up
    by 1 if i comes first."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > TRACE_LIMIT:
        raise ValueError(f"permutation tables are limited to {TRACE_LIMIT} strands")
    if n == 0:
        empty: tuple[tuple[int, ...], ...] = ((),)
        return PermTable(0, empty, {(): 0}, (0,), ((),), ((),), ((),))
    lex = list(permutations(range(n)))
    lex_length = [0]
    for k in range(1, n + 1):
        lex_length = [c + rest for c in range(k) for rest in lex_length]
    order = sorted(range(len(lex)), key=lex_length.__getitem__)
    pos = [0] * len(lex)
    for j, r in enumerate(order):
        pos[r] = j
    fac = [factorial(n - 1 - k) for k in range(n)]
    rmul = []
    lmul = []
    for r in order:
        w = lex[r]
        winv = [0] * n
        for k, x in enumerate(w):
            winv[x] = k
        rrow = []
        lrow = []
        for i in range(n - 1):
            d = (r // fac[i + 1]) % (n - i - 1) - (r // fac[i]) % (n - i)
            if w[i] < w[i + 1]:
                rrow.append(pos[r + (d + 1) * fac[i] - d * fac[i + 1]])
            else:
                rrow.append(pos[r + d * fac[i] - (d + 1) * fac[i + 1]])
            a, b = winv[i], winv[i + 1]
            lrow.append(pos[r + fac[a]] if a < b else pos[r - fac[b]])
        rmul.append(tuple(rrow))
        lmul.append(tuple(lrow))
    perms = tuple(lex[r] for r in order)
    length = tuple(lex_length[r] for r in order)
    index = {lex[r]: pos[r] for r in order}
    del lex, lex_length, order, pos  # release before the words are built
    word: list[tuple[int, ...]] = [()] * len(perms)
    for wi in range(1, len(perms)):
        i = next(i for i in range(n - 1) if length[rmul[wi][i]] < length[wi])
        word[wi] = word[rmul[wi][i]] + (i,)
    return PermTable(n, perms, index, length, tuple(rmul), tuple(lmul), tuple(word))
