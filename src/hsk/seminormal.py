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
differ by 0 < |d| < N+K, and by |d| < n on n strands.  All entries lie
in Q(q), and depend on d and the theory only: one table per theory
(``_theory``, 16 kept, as ``path_model``) holds them, the rows of T^-1,
the label weights and the row templates below, so a build lists paths
and picks entries.  The entries of each |d| are built on the first
model whose rows use it, so a one-strand model needs none.  The table
makes no field inversion: for y of order n, 1/(y - 1) = (1/n) sum_{i<n}
i y^i, one sum of monomials, gives a_d, with a_{-d} = q - 1 - a_d, and
the weights' common denominator prod_{i<j} [j-i] through
[k]^-1 = q^((k-1)/2) (q - 1)/(q^k - 1).

Three traces are read off the products below, and no other module
reads their packed state.  ``block_trace`` is tr rho_lambda(word) on
one block, over Q(q) (twists).  ``closure_trace`` is
zeta^k sum_lambda d_lambda tr rho_lambda(word), the Markov trace
Tr = sum_lambda (d_lambda/[N]^n) tr rho_lambda times [N]^n and a
phase, d_lambda the q-Weyl dimension prod_{i<j} [l_i-l_j+j-i]/[j-i]
(closures, k their ``closure.braid_phase``).  Its first call on a
model stores x -> d_lambda lift(x), from Q(q) to the ambient field, as
an integer matrix per block over one common denominator D
(``PathModel.weights``), so it sums the blocks' integer diagonals times
these matrices and makes one scalar, over D s^len, not one per block.
``fusion_trace`` is tr(P_t rho(word)^-1 P_s rho(word)) on one block,
over Q(q), P_t and P_s projections onto sets of paths (fusion rows).
Twists, fusion rows and S~ never build weight matrices.

A product runs the word as one program per letter over a flat state,
phi integers per row, coordinate k of row t at t phi + k, each block's
matrix columns in fixed-width slots.  Its scope is one block
(``block_trace``, ``block_matrix``, ``fusion_trace``) or the whole
model, the blocks' rows one after another (``PathModel.whole``:
``closure_trace``, every block in one product).  Every row is scaled
by s, the common denominator of the entries of that model alone (no
model depends on the builds before it).  A letter T_i^(+-1) compiles,
on first use, into a gather program
(``_Programs``) assembled from per-theory row templates: output o is
the dot product of T integers, entries of the multiplication matrices
of the row's entries, with T entries of the state.  On the whole model
a row is padded only to its own width T, rows of one width share a
gather, and one more gather puts the outputs back in row order; a
block pads every row to the letter's widest, one gather, which
measured faster on the small blocks of twists and fusion.  A letter is
gathers, maps of products and T - 1 chained maps of sums, with no
Python loop over rows.  The slot width comes from a bound on the
entries, the product of the letters' growths (each the largest over
the scope), fixed before the product starts; the trace is s^-len
times the sum of the diagonal slots.  ``block_matrix`` starts the
product on the columns asked for and unpacks only theirs
(``_entries``, which ``fusion_trace`` reads as integers).

``path_model`` refuses, before it lists a path, a quotient of
dimension sum_lambda f_lambda^2 beyond 8!, the order of the largest
permutation table (``check_size``): the one bound on path-model work.
"""
from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import accumulate
from math import factorial, gcd, lcm, prod
from operator import add, itemgetter, mul

from .diagrams import YoungDiagram, _walk, gamma_n
from .scalar import Params, Scalar, _Field, qint

__all__ = ["TRACE_LIMIT", "Block", "PathModel", "path_model", "dimension", "check_size",
           "q_weyl_dimension", "block_trace", "block_matrix", "closure_trace", "fusion_trace"]

# Largest n with a permutation table (``perms``), hence with T-basis
# elements; its order 8! also bounds the path model (``check_size``).
TRACE_LIMIT = 8


class Block(namedtuple("Block", "label paths weight")):
    """One block: its label, its paths (paths[t][k] = row of box k) and
    its weight d_lambda in the ambient field."""

    __slots__ = ()


class PathModel(namedtuple("PathModel", "p n blocks scale ops whole weights")):
    """The blocks of H_n's level-K quotient, with the integer programs
    of their generators (``_Programs``): ops[b] on block b alone, and
    whole on every block at once, rows numbered block after block.
    programs[i, sign] is the program of T_i^sign, compiled on first
    use, as (groups, order, growth).  A group (get, coeffs, T) makes
    outputs, output o the sum of coeffs[oT:(o+1)T] times the state
    entries idx[oT:(o+1)T], get = itemgetter(*idx), the coefficients
    being s times those of T_i^sign.  A block's letter is one group,
    padded to its widest row; the whole model's rows are grouped by
    their own width, and order (None for one group) puts the groups'
    concatenated outputs back in row order.  growth bounds the factor
    by which the letter can enlarge the largest entry of its scope.
    programs.steps[i][t] is row t's (content difference, partner row or
    -1) under T_i.  weights is empty until the model's first closure,
    which puts in (D, matrices), matrices[b] the integer matrix of
    x -> D d_lambda lift(x) over one common denominator D
    (``_weight_matrices``); nothing else reads it."""

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


_Theory = namedtuple("_Theory", "rows weights dinv terms templates")


@lru_cache(maxsize=16)
def _theory(p: Params) -> _Theory:
    """What every path model of p shares: rows[(d, sign)], the diagonal
    and partner entries of a row of T_i^sign whose boxes i, i+1 have
    content difference d (``_rows``); the q-Weyl weight of each label
    (``q_weyl_dimension``) and dinv, the inverse of their common
    denominator prod_{i<j} [j-i], in closed form (``_qint_inverse``);
    and the row terms (``_terms``) and their templates, padded to a
    width T (``_Programs``).  All but dinv fill as builds ask for them,
    and none makes a field inversion."""
    dinv = prod((_qint_inverse(p, k) ** (p.N - k) for k in range(2, p.N)), start=p.one)
    return _Theory({}, {}, dinv, {}, {})


def _over_root_minus_one(F: _Field, k: int, shift: int = 0) -> Scalar:
    """zeta^shift / (zeta^k - 1) in F, zeta^k != 1: for y of order n,
    1/(y - 1) = (1/n) sum_{i<n} i y^i, one exact sum of monomials."""
    n = F.m // gcd(k, F.m)
    return Scalar._make(F, F.monomial_map(range(n), k, shift), n)


def _qint_inverse(p: Params, k: int) -> Scalar:
    """[k]^-1 = h^(k-1) (q - 1)/(q^k - 1) in the ambient field, h = q^(1/2),
    for 0 < k < N+K."""
    return (p.q - 1) * _over_root_minus_one(p.field, 2 * p.N * k, p.N * (k - 1))


def _rows(p: Params, theory: _Theory, used) -> dict:
    """theory.rows, with the entries of each |d| of the content
    differences used filled on the first model that uses it:
    a_d = (q-1) q^d/(q^d - 1) in closed form (``_over_root_minus_one``)
    and a_-d = q - 1 - a_d, since a_d + a_-d = q - 1; the partner entry
    a_d a_-d + q of d > 0 and 1 of d < 0; and the rows of
    T^-1 = q^-1 T + (q^-1 - 1), whose diagonal is -q^-1 a_-d."""
    rows = theory.rows
    todo = {abs(d) for d in used} - {d for d, _ in rows}
    if not todo:
        return rows
    F = p.subfield
    step = F.m // (p.N + p.K)  # q = zeta_F^step
    q, qinv = p.q_pow_in(F, 1), p.q_pow_in(F, -1)
    one = Scalar.from_rational(F, 1)
    for d in todo:
        a = (q - 1) * _over_root_minus_one(F, d * step, d * step)
        b = q - 1 - a
        off = a * b + q
        rows[d, 1], rows[-d, 1] = (a, off), (b, one)
        rows[d, -1], rows[-d, -1] = (-qinv * b, qinv * off), (-qinv * a, qinv)
    return rows


def _weyl_numerator(p: Params, d: YoungDiagram) -> Scalar:
    """prod_{i<j} [d_i - d_j + j - i] over the N rows of d."""
    out = p.one
    for i in range(p.N):
        for j in range(i + 1, p.N):
            out = out * qint(p, d.row(i) - d.row(j) + j - i)
    return out


def q_weyl_dimension(p: Params, d: YoungDiagram) -> Scalar:
    """prod_{i<j} [d_i - d_j + j - i] / [j - i] over the N rows of a
    label d: the weight of the block of d, and its quantum dimension.
    The denominator is the numerator of the empty label."""
    theory = _theory(p)
    if d not in theory.weights:
        theory.weights[d] = _weyl_numerator(p, d) * theory.dinv
    return theory.weights[d]


@lru_cache(maxsize=16)
def path_model(p: Params, n: int) -> PathModel:
    check_size(p, n)
    theory = _theory(p)
    blocks, steps = [], []
    whole: list[list[tuple[int, int]]] = [[] for _ in range(n - 1)]
    # Bratteli paths, grouped by the N-row shape they end at
    by_shape = _walk(p, n, [()], lambda paths, r: [t + (r,) for t in paths])
    for lab in gamma_n(p, n):
        shape = tuple(lab.row(i) + (n - lab.size) // p.N for i in range(p.N))
        paths = tuple(sorted(by_shape[shape]))
        index = {t: j for j, t in enumerate(paths)}
        contents = [_contents(t) for t in paths]
        # per generator, each row's (content difference, partner row or -1)
        block_steps = tuple(
            tuple((c[i + 1] - c[i], index.get(t[:i] + (t[i + 1], t[i]) + t[i + 2:], -1)
                   if t[i] != t[i + 1] else -1) for t, c in zip(paths, contents))
            for i in range(n - 1))
        start = sum(len(b.paths) for b in blocks)
        for gen, out in zip(block_steps, whole):
            out += [(d, u + start if u >= 0 else -1) for d, u in gen]
        blocks.append(Block(lab, paths, q_weyl_dimension(p, lab)))
        steps.append(block_steps)
    used = {(d, u >= 0) for gen in whole for d, u in gen}
    rows = _rows(p, theory, {d for d, _ in used})
    scale = lcm(*(x.den for d, partner in used for sign in (1, -1)
                  for x in rows[d, sign][:1 + partner]))
    phi = p.subfield.phi
    ops = tuple(_Programs(theory, block_steps, scale, phi, False) for block_steps in steps)
    return PathModel(p, n, tuple(blocks), scale, ops, _Programs(theory, whole, scale, phi, True), [])


def _terms(theory: _Theory, d: int, sign: int, partner: bool, scale: int):
    """A row of T_i^sign with content difference d, scaled by scale:
    per output coordinate the (source, column, entry) it sums, source 0
    the row itself and 1 its partner, then the widest output's length
    and the largest absolute row sum (the row's growth)."""
    key = (d, sign, partner, scale)
    if key not in theory.terms:
        diag, off = theory.rows[d, sign]
        outs = [[(0, k, c) for k, c in r] for r in _mul_matrix(diag, scale)]
        if partner:
            for out, r in zip(outs, _mul_matrix(off, scale)):
                out += [(1, k, c) for k, c in r]
        theory.terms[key] = (outs, max(map(len, outs)),
                             max(sum(abs(c) for _, _, c in out) for out in outs))
    return theory.terms[key]


def _mul_matrix(x: Scalar, scale: int):
    """Rows of the integer matrix of multiplication by scale * x on the
    coefficient vectors of Q(q), each row as its nonzero (column, entry)."""
    F = x.field
    num = [c * (scale // x.den) for c in x.num]
    cols = [F.monomial_map(num, 1, k) for k in range(F.phi)]  # scale x zeta^k
    return [[(k, cols[k][s]) for k in range(F.phi) if cols[k][s]] for s in range(F.phi)]


class _Programs(dict):
    """The letter programs of one scope, a block or the whole model:
    self[i, sign] is compiled on first use from steps[i], each row's
    (content difference, partner row or -1), and the theory's row
    templates at the model's scale; see ``PathModel``.  The scope alone
    decides the padding: rows of the whole model are grouped by their
    own width, a block's rows form one group padded to the widest."""

    __slots__ = ("theory", "steps", "scale", "phi", "whole")

    def __init__(self, theory: _Theory, steps, scale: int, phi: int, whole: bool):
        super().__init__()
        self.theory, self.steps, self.scale, self.phi, self.whole = theory, steps, scale, phi, whole

    def __missing__(self, letter):
        i, sign = letter
        phi, templates, steps = self.phi, self.theory.templates, self.steps[i]
        found = {(d, partner): _terms(self.theory, d, sign, partner, self.scale)
                 for d, partner in {(d, u >= 0) for d, u in steps}}
        _, sizes, norms = zip(*found.values())
        growth, widest = max(1, *norms), max(sizes)
        groups: dict[int, tuple[list[int], list[int], list[int]]] = {}  # T: indices, coefficients, rows
        padded = {}  # (d, partner): the group of the row's width T, then its template
        for (d, partner), (outs, width, _) in found.items():
            T = width if self.whole else widest
            key = (d, sign, partner, self.scale, T)
            if key not in templates:  # (source, column, entry), outputs padded to T
                templates[key] = tuple(zip(*(term for out in outs
                                             for term in out + [(0, 0, 0)] * (T - len(out)))))
            padded[d, partner] = (groups.setdefault(T, ([], [], [])), *templates[key])
        for t, (d, u) in enumerate(steps):
            (idx, coeffs, rows), sources, columns, entries = padded[d, u >= 0]
            base = (t * phi, u * phi)
            idx += [base[src] + k for src, k in zip(sources, columns)]
            coeffs += entries
            rows.append(t)
        order = None
        if len(groups) > 1:  # row t's outputs sit at place[t] phi + k of the groups in width order
            groups = dict(sorted(groups.items()))
            place = {t: j for j, t in enumerate(t for _, _, rows in groups.values() for t in rows)}
            order = itemgetter(*(place[t] * phi + k for t in range(len(steps)) for k in range(phi)))
        self[letter] = program = (tuple([(itemgetter(*idx), tuple(coeffs), T)
                                         for T, (idx, coeffs, _) in groups.items()]), order, growth)
        return program


def _product(programs: _Programs, word: tuple[int, ...], size: int, ones, slots: int):
    """s^len times rho(word) on the scope of the programs (size rows) as
    a flat packed state, coordinate k of row t at t phi + k, started
    from ones, pairs (j, t) putting 1 in slot j of row t, coordinate 0;
    and the (offset, shift, mask, half) that read the signed slot j < slots
    of such an integer x as ((x + offset) >> shift * j & mask) - half."""
    phi = programs.phi
    steps = [programs[abs(e) - 1, 1 if e > 0 else -1] for e in reversed(word)]
    bound = 1
    for *_, growth in steps:
        bound *= growth
    w = bound.bit_length() + 1
    X = [0] * (size * phi)
    for j, t in ones:
        X[t * phi] = 1 << (w * j)
    for groups, order, _ in steps:
        out: list[int] = []
        for get, coeffs, T in groups:
            acc = terms = map(mul, coeffs, get(X))
            for _ in range(T - 1):
                acc = map(add, acc, terms)  # T consecutive products per output
            out += acc
        X = order(out) if order else out
    half = 1 << (w - 1)
    return X, (sum(half << (w * j) for j in range(slots)), w, (1 << w) - 1, half)


def _diagonals(programs: _Programs, word: tuple[int, ...], sizes) -> list[list[int]]:
    """Per block of the scope of the programs (of sizes[b] rows each,
    numbered block after block), the coordinates over Q(q) of
    s^len tr rho_lambda(word), from one product: row t of each block
    starts in slot t."""
    phi, starts = programs.phi, list(zip(accumulate(sizes, initial=0), sizes))
    ones = ((t, r + t) for r, f in starts for t in range(f))
    X, (offset, w, mask, half) = _product(programs, word, sum(sizes), ones, max(sizes))
    return [[sum(((X[(r + t) * phi + k] + offset) >> w * t & mask) - half for t in range(f))
             for k in range(phi)] for r, f in starts]


def _entries(model: PathModel, b: int, word: tuple[int, ...], cols, rows) -> list[list[list[int]]]:
    """The coordinates over Q(q) of s^len rho_lambda(word) for block b on
    the rows and columns asked for: [r][j] is entry
    rho_lambda(word)[rows[r]][cols[j]]; only these are unpacked."""
    phi = model.p.subfield.phi
    X, (offset, w, mask, half) = _product(model.ops[b], word, len(model.blocks[b].paths),
                                          enumerate(cols), len(cols))
    return [[[((x + offset) >> w * j & mask) - half for x in X[t * phi:(t + 1) * phi]]
             for j in range(len(cols))] for t in rows]


def block_trace(model: PathModel, b: int, word: tuple[int, ...]) -> Scalar:
    """tr rho_lambda(T_{s_|e1|}^sign(e1) ... ) over Q(q) for block b of the
    model and a braid word read as bare generators."""
    return Scalar._make(model.p.subfield, _diagonals(model.ops[b], word, [len(model.blocks[b].paths)])[0],
                        model.scale ** len(word))


def block_matrix(model: PathModel, b: int, word: tuple[int, ...], cols) -> list[list[Scalar]]:
    """The columns cols of rho_lambda(word) over Q(q) for block b: entry
    [t][j] is rho_lambda(word)[t][cols[j]], and only these columns are
    computed and unpacked; range(f) gives the whole matrix."""
    F, den = model.p.subfield, model.scale ** len(word)
    return [[Scalar._make(F, v, den) for v in row]
            for row in _entries(model, b, word, cols, range(len(model.blocks[b].paths)))]


def closure_trace(model: PathModel, word: tuple[int, ...], phase: int) -> Scalar:
    """zeta^phase sum_lambda d_lambda tr rho_lambda(word) in the ambient
    field, the word read as bare generators: the blocks' integer
    diagonals, from one product over the whole model, each times its
    block's integer weight matrix (``_weight_matrices``), summed in
    integers, shifted by the phase and reduced once."""
    diagonals = _diagonals(model.whole, word, [len(block.paths) for block in model.blocks])
    wden, matrices = _weight_matrices(model)
    A = model.p.field
    acc = [0] * A.phi
    for j, (block, diagonal, (weight, cols)) in enumerate(zip(model.blocks, diagonals, matrices)):
        if block.weight is not weight:
            raise RuntimeError(f"block {j} weight differs from its weight matrix")
        for t, col in zip(diagonal, cols):
            if t:
                for s, x in col:
                    acc[s] += x * t
    num = A.monomial_map(acc, 1, phase)
    return Scalar._make(A, num, wden * model.scale ** len(word))


def _weight_matrices(model: PathModel) -> tuple[int, tuple]:
    """(D, matrices), built on the model's first closure trace and kept
    in ``model.weights``: matrices[b] is (d, cols), the weight d of
    block b and the integer matrix of x -> D d lift(x), column c the
    image of coordinate c of Q(q) as its nonzero (ambient coordinate,
    entry), D the weights' common denominator.  The weights are read
    from the theory's table, not from the blocks, so a block weight
    replaced after the build differs from its matrix's."""
    if not model.weights:
        p = model.p
        table = model.whole.theory.weights
        weights = [table[block.label] for block in model.blocks]
        A, step = p.field, p.m // p.subfield.m
        wden = lcm(*(w.den for w in weights))
        matrices = []
        for w in weights:
            num = [c * (wden // w.den) for c in w.num]
            cols = (A.monomial_map(num, 1, c * step) for c in range(p.subfield.phi))
            matrices.append((w, tuple(tuple((s, x) for s, x in enumerate(col) if x)
                                      for col in cols)))
        model.weights.append((wden, tuple(matrices)))
    return model.weights[0]


def fusion_trace(model: PathModel, b: int, word: tuple[int, ...], rows_t, rows_s) -> Scalar:
    """tr(P_t rho(word)^-1 P_s rho(word)) over Q(q) for block b, P_t and
    P_s the projections onto the rows rows_t and rows_s.  The trace reads
    rho(word) only on the columns of P_t and rho(word)^-1 only on those
    of P_s, so only those are computed (``_entries``): a block of f rows
    costs f len(word) |cols| slot operations per product, not
    f^2 len(word).  The |rows_t| |rows_s| products are summed on the
    integer coordinates, unreduced, and reduced once mod Phi into one
    scalar, over s^(2 len(word))."""
    F = model.p.subfield
    inverse = tuple(-e for e in reversed(word))
    # fwd[y][x] = rho(word)[rows_s[y]][rows_t[x]] and
    # back[x][y] = rho(word)^-1[rows_t[x]][rows_s[y]], as integer coordinates
    fwd = _entries(model, b, word, rows_t, rows_s)
    back = _entries(model, b, inverse, rows_s, rows_t)
    # us[e], vs[c]: coordinate e of each back entry and c of its fwd partner,
    # pair by pair, so acc collects the trace as an unreduced polynomial
    us = zip(*(u for row in back for u in row))
    vs = list(zip(*(fwd[y][x] for x in range(len(rows_t)) for y in range(len(rows_s)))))
    acc = [0] * (2 * F.phi - 1)
    for e, ue in enumerate(us):
        for c, vc in enumerate(vs):
            acc[e + c] += sum(map(mul, ue, vc))
    return Scalar._make(F, F.monomial_map(acc, 1), model.scale ** (2 * len(word)))
