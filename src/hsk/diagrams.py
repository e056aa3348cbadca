"""Young diagram combinatorics for the label sets of the theory.

Labels are partitions with fewer than N rows and first row at most K.
The module knows three nested sets:

* Gamma:     lambda_1 <= K and fewer than N rows (the simple labels),
* GammaBar:  lambda_1 <= K and at most N rows,
* C:         lambda_1 + lambda_1^t <= N+K (where the quantum hook
             product is invertible and the Young idempotent exists).

``gamma_n`` restricts Gamma to diagrams reachable on n strands (size at
most n and congruent to n mod N), ``branch`` gives the one-strand
restriction rule, and ``path_counts`` counts paths in the resulting
Bratteli diagram, which is the dimension of the associated simple block
of the purified algebra.
"""
from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .scalar import Params, qint

__all__ = [
    "YoungDiagram",
    "DiagramStats",
    "Weight",
    "labels",
    "diagram_stats",
    "dagger",
    "gamma_n",
    "branch",
    "path_count",
    "path_counts",
    "pad",
    "weight",
]


class YoungDiagram(namedtuple("YoungDiagram", "rows")):
    """Partition stored as a weakly decreasing tuple of positive rows."""

    __slots__ = ()

    def __new__(cls, rows: tuple[int, ...] = ()):
        if any(x <= 0 for x in rows):
            raise ValueError("rows must be positive")
        if any(rows[i] < rows[i + 1] for i in range(len(rows) - 1)):
            raise ValueError("rows must be weakly decreasing")
        return super().__new__(cls, rows)

    @staticmethod
    def of(*rows: int) -> "YoungDiagram":
        return YoungDiagram(tuple(x for x in rows if x))

    @property
    def size(self) -> int:
        return sum(self.rows)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def row(self, i: int) -> int:
        """Length of row i (0-based); 0 beyond the last row."""
        return self.rows[i] if i < len(self.rows) else 0

    def transpose(self) -> "YoungDiagram":
        if not self.rows:
            return YoungDiagram()
        cols = tuple(
            sum(1 for r in self.rows if r > j) for j in range(self.rows[0])
        )
        return YoungDiagram(cols)

    def cells(self) -> list[tuple[int, int]]:
        return [(i, j) for i, r in enumerate(self.rows) for j in range(r)]

    def hook_lengths(self) -> list[int]:
        t = self.transpose()
        return [
            self.rows[i] - j + t.rows[j] - i - 1 for (i, j) in self.cells()
        ]

    def box_removals(self) -> list["YoungDiagram"]:
        out = []
        for i in range(self.nrows):
            if i == self.nrows - 1 or self.rows[i] > self.rows[i + 1]:
                rows = list(self.rows)
                rows[i] -= 1
                out.append(YoungDiagram(tuple(x for x in rows if x)))
        return out

    def to_json(self) -> list[int]:
        return list(self.rows)

    @staticmethod
    def from_json(data) -> "YoungDiagram":
        return YoungDiagram(tuple(int(x) for x in data))

    def __repr__(self) -> str:
        return f"YoungDiagram({self.rows!r})"


class DiagramStats(namedtuple("DiagramStats",
                              "transpose size quantum_hook_product in_gamma in_gamma_bar in_c")):
    __slots__ = ()


class Weight(namedtuple("Weight", "coeffs pairing in_level_alcove")):
    """Dominant weight sum(a_i Lambda_i) of a label, with the pairing
    against the highest root theta (namely lambda_1 - lambda_N)."""

    __slots__ = ()


def _in_gamma(p: Params, d: YoungDiagram) -> bool:
    return d.nrows < p.N and d.row(0) <= p.K


def _in_gamma_bar(p: Params, d: YoungDiagram) -> bool:
    return d.nrows <= p.N and d.row(0) <= p.K


def _in_c(p: Params, d: YoungDiagram) -> bool:
    if not d.rows:
        return True
    return d.rows[0] + d.transpose().rows[0] <= p.N + p.K


@lru_cache(maxsize=None)
def _labels(N: int, K: int) -> tuple[YoungDiagram, ...]:
    out: list[YoungDiagram] = []

    def rec(prefix: list[int], maximum: int):
        out.append(YoungDiagram(tuple(prefix)))
        if len(prefix) < N - 1:
            for r in range(maximum, 0, -1):
                rec(prefix + [r], r)

    rec([], K)
    return tuple(sorted(out, key=lambda d: (d.size, d.rows)))


def labels(p: Params) -> list[YoungDiagram]:
    """All simple labels Gamma_{N,K}, ordered by size then rows."""
    return list(_labels(p.N, p.K))


def diagram_stats(p: Params, d: YoungDiagram) -> DiagramStats:
    prod = p.one
    for h in d.hook_lengths():
        prod = prod * qint(p, h)
    return DiagramStats(
        transpose=d.transpose(),
        size=d.size,
        quantum_hook_product=prod,
        in_gamma=_in_gamma(p, d),
        in_gamma_bar=_in_gamma_bar(p, d),
        in_c=_in_c(p, d),
    )


def dagger(p: Params, d: YoungDiagram) -> YoungDiagram:
    """Conjugate label: the 180-degree rotation of the complement of d
    in the N x lambda_1 rectangle.  An involution on Gamma sending each
    label to the label of the dual object."""
    if not _in_gamma_bar(p, d):
        raise ValueError("dagger requires a label in GammaBar")
    if not d.rows:
        return YoungDiagram()
    w = d.rows[0]
    rows = tuple(w - d.row(p.N - 1 - i) for i in range(p.N))
    return YoungDiagram(tuple(x for x in rows if x))


@lru_cache(maxsize=None)
def _gamma_n(N: int, K: int, n: int) -> tuple[YoungDiagram, ...]:
    return tuple(
        d
        for d in _labels(N, K)
        if d.size <= n and (n - d.size) % N == 0
    )


def gamma_n(p: Params, n: int) -> list[YoungDiagram]:
    """Labels reachable on n strands: size at most n, congruent mod N."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return list(_gamma_n(p.N, p.K, n))


def _on_strands(p: Params, n: int, d: YoungDiagram) -> bool:
    """d is in Gamma^n: a label of size at most n, congruent to n mod N."""
    return _in_gamma(p, d) and d.size <= n and (n - d.size) % p.N == 0


def branch(p: Params, n: int, d: YoungDiagram) -> list[YoungDiagram]:
    """Restriction rule: the labels of Gamma^(n-1) whose block appears
    in the restriction of the block of d from n to n-1 strands.

    Predecessors are obtained by removing one box, or (when padding is
    available, n > |d|) by adding one box to each of the first N-1 rows,
    which is removing the bottom box of a padded column.  Both stay in
    Gamma^(n-1): a removal keeps a label a label, and padding means
    n >= |d| + N."""
    if not _on_strands(p, n, d):
        raise ValueError("diagram is not a label on n strands")
    out = d.box_removals()
    if n > d.size and d.row(0) + 1 <= p.K:
        out.append(YoungDiagram(tuple(d.row(i) + 1 for i in range(p.N - 1))))
    return sorted(out, key=lambda x: (x.size, x.rows))


def _walk(p: Params, n: int, start, grow) -> dict:
    """A forward pass over the Bratteli diagram of N-row shapes (rows weakly
    decreasing, within the level): each shape on n strands gets the sum,
    over its predecessors, of grow(value of the predecessor, row of the box)."""
    level = {(0,) * p.N: start}
    for _ in range(n):
        nxt: dict = {}
        for shape, value in level.items():
            for r in range(p.N):
                if r and shape[r] == shape[r - 1]:
                    continue
                new = shape[:r] + (shape[r] + 1,) + shape[r + 1:]
                if new[0] - new[-1] <= p.K:
                    x = grow(value, r)
                    nxt[new] = nxt[new] + x if new in nxt else x
        level = nxt
    return level


def path_counts(p: Params, n: int) -> dict[YoungDiagram, int]:
    """Number of Bratteli paths from the empty diagram to each label of
    Gamma^n, in the order of ``gamma_n``: one forward pass over the
    N-row shapes, each read as its label widened by full columns."""
    counts = {YoungDiagram(tuple(x - s[-1] for x in s if x > s[-1])): c
              for s, c in _walk(p, n, 1, lambda c, r: c).items()}
    return {d: counts[d] for d in gamma_n(p, n)}


def path_count(p: Params, n: int, d: YoungDiagram) -> int:
    """The entry of ``path_counts`` for d; 0 when d is not a label on n
    strands."""
    return path_counts(p, n)[d] if _on_strands(p, n, d) else 0


def pad(p: Params, d: YoungDiagram, n: int) -> YoungDiagram:
    """The N-row diagram of size n obtained by widening d with full
    columns: each of the N rows gains (n - |d|)/N boxes."""
    if not _in_gamma(p, d):
        raise ValueError("pad requires a label in Gamma")
    if n < d.size or (n - d.size) % p.N != 0:
        raise ValueError("n must exceed |d| by a multiple of N")
    l = (n - d.size) // p.N
    rows = tuple(d.row(i) + l for i in range(p.N))
    return YoungDiagram(tuple(x for x in rows if x))


def weight(p: Params, d: YoungDiagram) -> Weight:
    """Dominant weight of a label: coefficients a_i = lambda_i -
    lambda_(i+1) on the fundamental weights, and the pairing
    lambda_1 - lambda_N with the highest root.  The label is in the
    level-K alcove when 0 <= pairing <= K."""
    if d.nrows > p.N:
        raise ValueError("weight requires at most N rows")
    coeffs = tuple(d.row(i) - d.row(i + 1) for i in range(p.N - 1))
    pairing = d.row(0) - d.row(p.N - 1)
    return Weight(coeffs, pairing, 0 <= pairing <= p.K)
