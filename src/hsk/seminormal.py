"""Young's seminormal form of the level-K quotient of H_n: the path
model in which dense braid words are traced.

The basis of the block of a label lambda is its set of Bratteli paths
(Wenzl, Invent. Math. 92 (1988); Ram, Proc. LMS 75 (1997)): standard
tableaux on N-row shapes with lambda_1 - lambda_N <= K at every step,
one box per strand.  Full columns are kept, so a path on n strands ends
at ``pad(lambda, n)``; a path is stored as the row of each box.

T_i acts by q on columns and by -1 on rows (``jones_wenzl``'s antisym
is sum T_w), so the content of a box is row - column.  With
d = c(i+1) - c(i) and a_d = (q-1) q^d / (q^d - 1):

    T_i v_t     = a_d v_t + v_{s_i t},
    T_i v_{s_i t} = a_{-d} v_{s_i t} + (a_d a_{-d} + q) v_t

when s_i t (boxes i, i+1 swapped) is also a path and t comes first,
here meaning d > 0; otherwise T_i v_t = a_d v_t.  That covers boxes in
one row or column (d = -1, +1: a_d = -1, q) and the level wall
|d| = N+K-1, where a_d is q or -1.  Contents of consecutive boxes
differ by 0 < |d| < N+K, so only q^d - 1 with 0 < |d| < N+K is ever
inverted.  All entries lie in Q(q), and depend on d and the theory
only: one table per theory (``_theory``, 16 kept, as ``path_model``)
holds them, the rows of T^-1, the label weights and the matrices below
of each entry at each scale s asked for, so a build lists paths, picks
entries and compiles rows, and a theory inverts each a_d and weight once.

The Markov trace is Tr = sum_lambda (d_lambda/[N]^n) tr rho_lambda,
with d_lambda the q-Weyl dimension prod_{i<j} [l_i-l_j+j-i]/[j-i], so
a closure is zeta^k sum_lambda d_lambda tr rho_lambda(bare word), k the
braid normalisation of ``closure.braid_phase``.  ``path_model`` stores
x -> d_lambda lift(x), from Q(q) to the ambient field, as an integer
matrix per block over one common denominator D (``PathModel.weights``),
so a closure sums the blocks' integer diagonals times these matrices
and makes one scalar, over D s^len, where a sum of lifted, weighted
block traces made one per block.

``block_trace`` multiplies the word out row by row.  Every generator
row is scaled by s, the common denominator of the entries of that
model alone (no model depends on the builds before it), so rows hold
integers; each row is stored as phi packed integers, one per
coefficient of Q(q), with the matrix columns in fixed-width slots.  An
entry of Q(q) then acts on a packed row as its phi x phi integer
multiplication matrix, and a letter costs O(phi^2) big-integer
multiply-adds per row.  The slot width comes from a bound on the
entries, the product of the letters' row norms, fixed before the
product starts; the trace is s^-len times the sum of the diagonal
slots.  ``block_matrix`` starts the product on the columns asked for
and unpacks only theirs (``modular._fusion_row``).

``path_model`` refuses, before it lists a path, a quotient of
dimension sum_lambda f_lambda^2 beyond 8!, the order of the largest
permutation table (``check_size``): the one bound on path-model work.
"""
from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import factorial, lcm

from .diagrams import YoungDiagram, _walk, gamma_n
from .scalar import Params, Scalar, qint

__all__ = ["TRACE_LIMIT", "Block", "PathModel", "path_model", "dimension", "check_size",
           "q_weyl_dimension", "block_trace", "block_matrix"]

# Largest n with a permutation table (``perms``), hence with T-basis
# elements; its order 8! also bounds the path model (``check_size``).
TRACE_LIMIT = 8


class Block(namedtuple("Block", "label paths weight gens")):
    """One block: its label, its paths (paths[t][k] = row of box k), its
    weight d_lambda in the ambient field, and gens[i][t], row t of T_i:
    (diagonal entry, partner path or -1, off-diagonal entry T[t][partner]
    or None), in Q(q)."""

    __slots__ = ()


class PathModel(namedtuple("PathModel", "p n blocks scale ops weights wden")):
    """The blocks of H_n's level-K quotient, with the integer form of
    each generator row for ``block_trace``: ops[b][(i, sign)] is
    (rows, growth), a row being (diag, partner, off) as multiplication
    matrices of s times the entries of T_i^sign, and growth bounding
    the factor by which a letter can enlarge the largest entry.
    weights[b] is (d, cols): the weight d of block b and the integer
    matrix of x -> wden d lift(x), column c the image of coordinate c of
    Q(q) as its nonzero (ambient coordinate, entry)."""

    __slots__ = ()


@lru_cache(maxsize=None)
def dimension(p: Params, n: int) -> int:
    """sum_lambda f_lambda^2, the dimension of the quotient of H_n, from
    the path count of each N-row shape (one per label) in one pass."""
    return sum(c * c for c in _walk(p, n, 1, lambda c, r: c).values())


def check_size(p: Params, n: int) -> None:
    """ValueError for a path model larger than 8! = 40,320, the largest
    permutation table; sum f^2 <= n!, so n <= TRACE_LIMIT is not counted."""
    if n > TRACE_LIMIT and (dim := dimension(p, n)) > factorial(TRACE_LIMIT):
        raise ValueError(f"the path model on {n} strands has dimension {dim} > {TRACE_LIMIT}!")


def _contents(path: tuple[int, ...]) -> list[int]:
    filled: dict[int, int] = {}
    out = []
    for r in path:
        c = filled.get(r, 0)
        filled[r] = c + 1
        out.append(r - c)
    return out


@lru_cache(maxsize=16)
def _theory(p: Params):
    """What every path model of p shares: rows[(d, sign)], the diagonal
    and partner entries of a row of T_i^sign whose boxes i, i+1 have
    content difference d; the q-Weyl weight of each label
    (``q_weyl_dimension``); and mul[(x, scale)], the matrix of scale x
    (``_mul_matrix``).  The last two fill as builds ask for them."""
    F = p.subfield
    q, qinv = p.q_pow_in(F, 1), p.q_pow_in(F, -1)
    a: dict[int, Scalar] = {}
    for d in range(1 - p.N - p.K, p.N + p.K):
        if d:
            qd = p.q_pow_in(F, d)
            a[d] = (q - 1) * qd * (qd - 1).inverse()
    rows = {}
    for d, x in a.items():
        off = x * a[-d] + q if d > 0 else Scalar.from_rational(F, 1)
        rows[d, 1] = (x, off)
        rows[d, -1] = (qinv * x + qinv - 1, qinv * off)  # T^-1 = q^-1 T + (q^-1 - 1)
    return rows, {}, {}


def q_weyl_dimension(p: Params, d: YoungDiagram) -> Scalar:
    """prod_{i<j} [d_i - d_j + j - i] / [j - i] over the N rows of a
    label d: the weight of the block of d, and its quantum dimension."""
    _, weights, _ = _theory(p)
    if d not in weights:
        num = den = p.one
        for i in range(p.N):
            for j in range(i + 1, p.N):
                num = num * qint(p, d.row(i) - d.row(j) + j - i)
                den = den * qint(p, j - i)
        weights[d] = num * den.inverse()
    return weights[d]


@lru_cache(maxsize=16)
def path_model(p: Params, n: int) -> PathModel:
    check_size(p, n)
    rows, _, memo = _theory(p)
    blocks, signed = [], []
    # Bratteli paths, grouped by the N-row shape they end at
    by_shape = _walk(p, n, [()], lambda paths, r: [t + (r,) for t in paths])
    for lab in gamma_n(p, n):
        shape = tuple(lab.row(i) + (n - lab.size) // p.N for i in range(p.N))
        paths = tuple(sorted(by_shape[shape]))
        index = {t: j for j, t in enumerate(paths)}
        contents = [_contents(t) for t in paths]
        table = {}
        for i in range(n - 1):
            steps = [(c[i + 1] - c[i], index.get(t[:i] + (t[i + 1], t[i]) + t[i + 2:], -1)
                      if t[i] != t[i + 1] else -1) for t, c in zip(paths, contents)]
            for sign in (1, -1):
                table[i, sign] = tuple((rows[d, sign][0], u, None if u < 0 else rows[d, sign][1])
                                       for d, u in steps)
        blocks.append(Block(lab, paths, q_weyl_dimension(p, lab),
                            tuple(table[i, 1] for i in range(n - 1))))
        signed.append(table)
    scale = lcm(*(x.den for table in signed for gen in table.values() for row in gen
                  for x in (row[0], row[2]) if x is not None))
    mul = lambda x: (memo.get((x, scale))  # noqa: E731
                     or memo.setdefault((x, scale), _mul_matrix(x, scale)))
    ops = tuple({key: _compile(gen, mul) for key, gen in table.items()} for table in signed)
    A, step = p.field, p.m // p.subfield.m
    wden = lcm(*(b.weight.den for b in blocks))
    weights = []
    for b in blocks:
        num = [c * (wden // b.weight.den) for c in b.weight.num]
        cols = (A.monomial_map(num, 1, c * step) for c in range(p.subfield.phi))
        weights.append((b.weight, tuple(tuple((s, x) for s, x in enumerate(col) if x)
                                        for col in cols)))
    return PathModel(p, n, tuple(blocks), scale, ops, tuple(weights), wden)


def _mul_matrix(x: Scalar, scale: int):
    """Rows of the integer matrix of multiplication by scale * x on the
    coefficient vectors of Q(q), each row as its nonzero (column, entry),
    and the absolute row sums."""
    F = x.field
    num = [c * (scale // x.den) for c in x.num]
    cols = []
    for k in range(F.phi):
        unit = [0] * F.phi
        unit[k] = 1
        cols.append(F.mul_vec(num, unit))
    rows = tuple(tuple((k, cols[k][s]) for k in range(F.phi) if cols[k][s])
                 for s in range(F.phi))
    return rows, tuple(sum(abs(c) for _, c in r) for r in rows)


def _compile(gen, mul):
    """The rows of gen as (diag, partner, off) multiplication matrices
    (``mul``), and their growth, the largest absolute row sum of a
    row's two matrices together."""
    rows = []
    growth = 1
    for dg, u, off in gen:
        md, norms = mul(dg)
        mo = ()
        if u >= 0:
            mo, off_norms = mul(off)
            norms = [x + y for x, y in zip(norms, off_norms)]
        growth = max(growth, *norms)
        rows.append((md, u, mo))
    return tuple(rows), growth


def _product(model: PathModel, b: int, word: tuple[int, ...], cols):
    """s^len times the columns cols of rho_lambda(word) for block b as
    packed rows (row t holds phi integers, column cols[j] of the row in
    slot j of each), and the (offset, shift, mask, half) that read the
    signed slot j of such an integer x as ((x + offset) >> shift * j &
    mask) - half."""
    phi = model.p.subfield.phi
    steps = [model.ops[b][(abs(e) - 1, 1 if e > 0 else -1)] for e in reversed(word)]
    bound = 1
    for _, growth in steps:
        bound *= growth
    w = bound.bit_length() + 1
    X = [[0] * phi for _ in model.blocks[b].paths]
    for j, c in enumerate(cols):
        X[c][0] = 1 << (w * j)
    for rows, _ in steps:
        new = []
        for t, (md, u, mo) in enumerate(rows):
            xt = X[t]
            if u < 0:
                new.append([sum(c * xt[k] for k, c in r) for r in md])
            else:
                xu = X[u]
                new.append([sum(c * xt[k] for k, c in r) + sum(c * xu[k] for k, c in ro)
                            for r, ro in zip(md, mo)])
        X = new
    half = 1 << (w - 1)
    return X, (sum(half << (w * j) for j in range(len(cols))), w, (1 << w) - 1, half)


def _diagonal(model: PathModel, b: int, word: tuple[int, ...]) -> list[int]:
    """The coordinates over Q(q) of s^len tr rho_lambda(word), block b."""
    X, (offset, w, mask, half) = _product(model, b, word, range(len(model.blocks[b].paths)))
    return [sum(((row[k] + offset) >> w * t & mask) - half for t, row in enumerate(X))
            for k in range(model.p.subfield.phi)]


def block_trace(model: PathModel, b: int, word: tuple[int, ...]) -> Scalar:
    """tr rho_lambda(T_{s_|e1|}^sign(e1) ... ) over Q(q) for block b of the
    model and a braid word read as bare generators."""
    return Scalar._make(model.p.subfield, _diagonal(model, b, word), model.scale ** len(word))


def block_matrix(model: PathModel, b: int, word: tuple[int, ...], cols) -> list[list[Scalar]]:
    """The columns cols of rho_lambda(word) over Q(q) for block b: entry
    [t][j] is rho_lambda(word)[t][cols[j]], and only these columns are
    computed and unpacked; range(f) gives the whole matrix."""
    X, (offset, w, mask, half) = _product(model, b, word, cols)
    F, den = model.p.subfield, model.scale ** len(word)
    return [[Scalar._make(F, [((x + offset) >> w * j & mask) - half for x in row], den)
             for j in range(len(cols))] for row in X]
