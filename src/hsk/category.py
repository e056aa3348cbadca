"""The purified finite-strand category: block decomposition, fusion
coefficients, quantum dimensions, twists, S-matrix entries, and
modular-functor dimensions.

The purified algebra A_n is H_n modulo the radical of the Markov-trace
form.  A concrete basis comes out of the Gram elimination for free:
the pivot columns J of the reduced echelon form pick out basis
elements {T_j : j in J}, and the nonpivot columns of the echelon form
express every other T_w over them, because row operations preserve
column relations.  The central idempotents and branching multiplicities
are computed in the coordinates of this basis; trace pairings reduce to
vector-matrix products against the pivot-restricted Gram matrix, so no
element products are needed.  ``PurifiedAlgebra`` holds just this: the
pivots, the echelon map ``rmap`` and the pivot Gram matrix.

The centre comes from the path model (``seminormal``), which holds
every block's data exactly: its path count f_lambda, its weight
Tr(e_lambda) = d_lambda/[N]^n for a minimal idempotent e_lambda, d_lambda
the q-Weyl dimension, and its character tr rho_lambda.  Since z_lambda
is the identity on the block lambda and zero on the others,
Tr(z_lambda T_j) = (d_lambda/[N]^n) tr rho_lambda(T_j), and z_lambda is
the Gram dual of these traces: the vector on the pivots J with
G_J z_lambda = b_lambda, b_lambda[j] = Tr(z_lambda T_j).  G_J is
nonsingular, since J picks r independent rows and columns of a rank-r
symmetric matrix, so one elimination of [G_J | B] gives every z_lambda.

Branching multiplicities (``branching_multiplicity``) are trace ratios.
A_n is split semisimple, and an idempotent x has rank
Tr(z_nu x) / Tr(e_nu) in the block nu, one pairing against the pivot
Gram matrix; for an embedded minimal idempotent of A_{n-1} that rank is
the branching multiplicity.

The modular data never build A_n: they are traces in the blocks of the
path model (``seminormal``), whose bases are Bratteli paths, not the
n! permutations.  N_{lam mu}^nu is the rank in the block nu of a
product of two commuting path projections (``_fusion_row``); the
twist theta_d is the central full twist's block trace over the path
count; S~ follows from the balancing identity
S~_{lam mu} = theta_lam^-1 theta_mu^-1 sum_nu N_{lam mu}^nu theta_nu d_nu.
The quantum dimension of a label is its block weight, the q-Weyl
product, which needs no model; the other data are bounded only by the
path model's size check (``seminormal.check_size``).
``block_summary``, the labels of Gamma^n with their path counts, lists
no path at all.  The Gram route serves only what is written on the T
basis or is a rank: ``central_idempotents``, ``purified_dim`` and
``branching_multiplicity``.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .diagrams import YoungDiagram, dagger, gamma_n, labels, path_counts
from .hecke import (BraidWord, HeckeElement, block_transposition_word, braid_phase,
                    full_twist_word, jones_wenzl, tensor_embed, young_idempotent)
from .linalg import determinant, rref
from .perms import perm_table
from .scalar import Params, Scalar
from .seminormal import block_matrix, block_trace, check_size, path_model, q_weyl_dimension
from .trace import (CURL_MATCH_SIGN, GRAM_LIMIT, curl_scalar, gram_bilinear,
                    gram_rref, loop_power)

__all__ = [
    "PurifiedAlgebra",
    "PurifiedDim",
    "BlockData",
    "FusionTable",
    "SMatrix",
    "purified_algebra",
    "purified_dim",
    "minimal_idempotent",
    "block_summary",
    "central_idempotents",
    "branching_multiplicity",
    "fusion",
    "fusion_table",
    "fusion_matrix",
    "qdim",
    "twist",
    "s_matrix",
    "mf_dim",
]


@dataclass(frozen=True)
class PurifiedAlgebra:
    """Coordinates for A_n = H_n / radical on the Gram pivot basis:
    column w of ``rmap`` holds the coordinates of T_w over the pivots,
    and ``gram_pivots`` is the Gram matrix restricted to them."""

    p: Params
    n: int
    pivots: tuple[int, ...]
    rmap: tuple[tuple[Scalar, ...], ...]
    gram_pivots: tuple[tuple[Scalar, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def reduce(self, x: HeckeElement) -> list[Scalar]:
        vec = [self.p.zero] * self.dim
        for w, c in x.terms.items():
            for r in range(self.dim):
                e = self.rmap[r][w]
                if not e.is_zero():
                    vec[r] = vec[r] + c * e
        return vec

    def lift(self, vec) -> HeckeElement:
        return HeckeElement(self.p, self.n, {j: c for j, c in zip(self.pivots, vec)})

    def trace_pair(self, u, v) -> Scalar:
        """Tr(lift(u) lift(v)) = u^T G|_J v."""
        acc = self.p.zero
        for ur, row in zip(u, self.gram_pivots):
            if ur.is_zero():
                continue
            inner = self.p.zero
            for g, vs in zip(row, v):
                if not vs.is_zero() and not g.is_zero():
                    inner = inner + g * vs
            acc = acc + ur * inner
        return acc


@lru_cache(maxsize=None)
def purified_algebra(p: Params, n: int) -> PurifiedAlgebra:
    red, piv = gram_rref(p, n)
    gram = gram_bilinear(p, n)
    gram_pivots = tuple(tuple(gram[r][c] for c in piv) for r in piv)
    return PurifiedAlgebra(p, n, piv, red, gram_pivots)


@dataclass(frozen=True)
class PurifiedDim:
    dim: int
    radical_dim: int

    def to_json(self) -> dict:
        return {"dim": self.dim, "radical_dim": self.radical_dim}


def purified_dim(p: Params, n: int) -> PurifiedDim:
    """rank and corank of the trace form on H_n; the rank equals
    sum of squared path counts over the labels of Gamma^n."""
    a = purified_algebra(p, n)
    size = perm_table(n).size
    return PurifiedDim(a.dim, size - a.dim)


@lru_cache(maxsize=None)
def minimal_idempotent(p: Params, n: int, d: YoungDiagram) -> HeckeElement:
    """y_d (x) g_N (x) ... (x) g_N with (n-|d|)/N full antisymmetrizer
    columns; a minimal idempotent of the block of d in A_n."""
    if d not in gamma_n(p, n):
        raise ValueError(f"{d.rows} is not a label of Gamma^{n}")
    yi = young_idempotent(p, d)
    if yi.idem is None:
        raise ValueError("vanishing hook product")
    x = yi.idem
    for _ in range((n - d.size) // p.N):
        x = tensor_embed(x, jones_wenzl(p, p.N, "antisym"))
    return x


@dataclass(frozen=True)
class BlockEntry:
    z: HeckeElement
    dim: int
    weight: Scalar  # Tr(e) for a minimal idempotent e of the block
    zvec: tuple[Scalar, ...]


@dataclass(frozen=True)
class BlockData:
    p: Params
    n: int
    blocks: dict[YoungDiagram, BlockEntry]

    def to_json(self) -> dict:
        out = block_summary(self.p, self.n)
        out["central_idempotents"] = {
            str(list(d.rows)): e.z.to_json() for d, e in self.blocks.items()
        }
        return out


def block_summary(p: Params, n: int) -> dict:
    """The labels of Gamma^n and the dimension f_lambda of each block of
    A_n, its path count, as JSON; read off the Bratteli diagram with no
    elimination."""
    counts = path_counts(p, n)
    return {
        "n": n,
        "labels": [list(d.rows) for d in counts],
        "dims": {str(list(d.rows)): f for d, f in counts.items()},
    }


@lru_cache(maxsize=None)
def central_idempotents(p: Params, n: int) -> BlockData:
    """The minimal central idempotents z_lambda of A_n, one per label
    of Gamma^n, as representatives in H_n (well defined mod radical):
    the solutions of G_J z_lambda = b_lambda, with b_lambda[j] =
    Tr(z_lambda T_j) the weighted block character of the path model."""
    a = purified_algebra(p, n)
    model = path_model(p, n)
    words = perm_table(n).word
    norm = loop_power(p, n).inverse()
    weights = [block.weight * norm for block in model.blocks]
    aug = [list(row) + [w * p.lift(block_trace(model, k, tuple(i + 1 for i in words[j])))
                        for k, w in enumerate(weights)]
           for j, row in zip(a.pivots, a.gram_pivots)]
    red, piv = rref(p, aug)
    if piv != list(range(a.dim)):
        raise RuntimeError("singular pivot Gram matrix")
    zvecs = [tuple(row[a.dim + k] for row in red) for k in range(len(weights))]
    # the z_lambda sum to the identity, whose coordinates are column 0 of rmap
    if [sum(col, p.zero) for col in zip(*zvecs)] != [row[0] for row in a.rmap]:
        raise RuntimeError("central idempotents do not sum to the identity")
    blocks: dict[YoungDiagram, BlockEntry] = {}
    for block, w, zvec in zip(model.blocks, weights, zvecs):
        blocks[block.label] = BlockEntry(z=a.lift(zvec), dim=len(block.paths), weight=w, zvec=zvec)
    return BlockData(p, n, blocks)


def branching_multiplicity(p: Params, n: int, lam: YoungDiagram, sub: YoungDiagram) -> int:
    """Multiplicity of the block `sub` of A_{n-1} in the restriction of
    the block `lam` of A_n: the rank Tr(z_lam e) / Tr(e_lam) of the
    embedded minimal idempotent e of `sub`, with Tr(z_lam e) paired
    against the pivot Gram matrix.  The ratio is read off one
    coefficient and checked on all of them, which needs no inversion."""
    bd = central_idempotents(p, n)
    if lam not in bd.blocks:
        raise ValueError("lam is not a label of Gamma^n")
    if sub not in gamma_n(p, n - 1):
        raise ValueError("sub is not a label of Gamma^{n-1}")
    e_sub = tensor_embed(minimal_idempotent(p, n - 1, sub), HeckeElement.identity(p, 1))
    a, blk = purified_algebra(p, n), bd.blocks[lam]
    num = a.trace_pair(blk.zvec, a.reduce(e_sub))
    weight = blk.weight
    j = next(i for i, c in enumerate(weight.num) if c)
    m = Fraction(num.num[j] * weight.den, num.den * weight.num[j])
    if m.denominator != 1 or m < 0 or weight * m != num:
        raise RuntimeError("branching multiplicity is not a nonnegative integer")
    return int(m)


def fusion(p: Params, lam: YoungDiagram, mu: YoungDiagram, nu: YoungDiagram) -> int:
    """N_{lam mu}^nu, read off the cached fusion row of (lam, mu)."""
    for d in (lam, mu):
        if d not in labels(p):
            raise ValueError(f"{d.rows} is not a label of the category")
    if nu not in gamma_n(p, lam.size + mu.size):  # gamma_n lists only labels
        return 0
    return _fusion_row(p, lam, mu)[labels(p).index(nu)]


@dataclass(frozen=True)
class FusionTable:
    p: Params
    entries: dict[tuple[YoungDiagram, YoungDiagram, YoungDiagram], int]

    def coefficient(self, lam, mu, nu) -> int:
        return self.entries.get((lam, mu, nu), 0)

    def to_json(self) -> dict:
        items = sorted(
            ((a, b, c, m) for (a, b, c), m in self.entries.items() if m),
            key=lambda t: (t[0].rows, t[1].rows, t[2].rows),
        )
        return {
            "N": self.p.N,
            "K": self.p.K,
            "entries": [
                {"a": list(a.rows), "b": list(b.rows), "c": list(c.rows), "n": m}
                for a, b, c, m in items
            ],
        }


@lru_cache(maxsize=None)
def fusion_table(p: Params, max_strands: int | None = None) -> FusionTable:
    """All coefficients N_{lam mu}^nu with |lam|+|mu| within the default
    reach GRAM_LIMIT (or a stricter cap)."""
    cap = GRAM_LIMIT if max_strands is None else min(max_strands, GRAM_LIMIT)
    labs = labels(p)
    entries = {}
    for lam in labs:
        for mu in labs:
            n = lam.size + mu.size
            if n > cap:
                continue
            for nu in gamma_n(p, n):
                entries[(lam, mu, nu)] = fusion(p, lam, mu, nu)
    return FusionTable(p, entries)


@lru_cache(maxsize=None)
def _fusion_row(p: Params, lam: YoungDiagram, mu: YoungDiagram) -> tuple[int, ...]:
    """N_{lam mu}^{L_j} over the label list, one trace per block nu of
    the (a+b)-strand path model, a = |lam| and b = |mu|:

        N_{lam mu}^nu = tr_nu(P_t rho(beta)^-1 P_s rho(beta)),

    beta the bare block transposition carrying the first b strands past
    the last a.  P_t projects onto the paths that begin with a fixed
    path t to lam, P_s onto those that begin with a fixed path s to mu;
    conjugated by beta, P_s projects onto mu on the last b strands, so
    the product is a minimal idempotent of lam (x) mu, whose rank in
    the block nu is the multiplicity of V_nu."""
    a, b = lam.size, mu.size
    model = path_model(p, a + b)
    # the row reading of a label, row i filled left to right, is its first path
    t, s = (tuple(i for i, r in enumerate(d.rows) for _ in range(r)) for d in (lam, mu))
    word = block_transposition_word(b, a).word if a and b else ()
    inverse = tuple(-e for e in reversed(word))
    found = {}
    for j, block in enumerate(model.blocks):
        rows_t = [i for i, path in enumerate(block.paths) if path[:a] == t]
        rows_s = [k for k, path in enumerate(block.paths) if path[:b] == s]
        if not rows_t or not rows_s:
            continue
        fwd, back = block_matrix(model, j, word), block_matrix(model, j, inverse)
        tr = sum((back[i][k] * fwd[k][i] for i in rows_t for k in rows_s),
                 Scalar.from_rational(p.subfield, 0))
        if not tr.is_rational() or tr.den != 1 or tr.num[0] < 0:
            raise RuntimeError("fusion coefficient is not a nonnegative integer")
        found[block.label] = tr.num[0]
    return tuple(found.get(nu, 0) for nu in labels(p))


def fusion_matrix(p: Params, lam: YoungDiagram) -> tuple[tuple[int, ...], ...]:
    """Matrix of fusion with lam over the label list: entry [i][j] =
    N_{lam, L_i}^{L_j}."""
    return tuple(_fusion_row(p, lam, mu) for mu in labels(p))


def qdim(p: Params, d: YoungDiagram) -> Scalar:
    """The closed loop colored by d, [N]^{|d|} Tr(e_d): the weight of the
    block d in the path model, the q-Weyl product."""
    if d not in labels(p):
        raise ValueError(f"{d.rows} is not a label of the category")
    return q_weyl_dimension(p, d)


def twist(p: Params, d: YoungDiagram) -> Scalar:
    """Ribbon twist theta_d: the full twist, taken with the library's
    framing sign, is central and acts on the block d of the |d|-strand
    path model by its block trace over f_d; with the braid phase and
    one curl scalar per strand, theta of the single box is exactly the
    curl scalar."""
    if d not in labels(p):
        raise ValueError(f"{d.rows} is not a label of the category")
    n = d.size
    if n == 0:
        return p.one
    model = path_model(p, n)
    # as a braid the full twist equals its reversed word, so negating
    # every letter gives its inverse
    word = tuple(CURL_MATCH_SIGN * i for i in full_twist_word(n).word)
    j = gamma_n(p, n).index(d)
    c = block_trace(model, j, word) * Fraction(1, len(model.blocks[j].paths))
    out = p.lift(c, braid_phase(p, BraidWord(n, word)))
    curl = curl_scalar(p, CURL_MATCH_SIGN)
    for _ in range(n):
        out = out * curl
    return out


@dataclass(frozen=True)
class SMatrix:
    p: Params
    labels: tuple[YoungDiagram, ...]
    entries: tuple[tuple[Scalar, ...], ...]

    def determinant(self) -> Scalar:
        return determinant(self.p, self.entries)

    def to_json(self) -> dict:
        return {
            "N": self.p.N,
            "K": self.p.K,
            "labels": [list(d.rows) for d in self.labels],
            "entries": [
                [c.to_json(embed=True) for c in row]
                for row in self.entries
            ],
        }


@lru_cache(maxsize=None)
def s_matrix(p: Params) -> SMatrix:
    """S~_{lam mu}, the closure of the two-component Hopf cabling with
    blocks colored lam and mu, from the balancing identity

        S~_{lam mu} = theta_lam^-1 theta_mu^-1 sum_nu N_{lam mu}^nu theta_nu d_nu,

    d_nu the q-Weyl product; row/column ∅ reproduces qdim.  Twists are
    roots of unity, so theta^-1 is the conjugate.  The largest label
    pair meets the path model's size check before any work.
    S~ is symmetric, and each entry below the diagonal is mirrored."""
    labs = labels(p)
    check_size(p, 2 * max(d.size for d in labs))
    theta = [twist(p, d) for d in labs]
    dims = [q_weyl_dimension(p, d) for d in labs]
    rows = [[p.zero] * len(labs) for _ in labs]
    for i, lam in enumerate(labs):
        for j in range(i, len(labs)):
            acc = p.zero
            for th, d, m in zip(theta, dims, _fusion_row(p, lam, labs[j])):
                if m:
                    acc = acc + th * d * m
            rows[i][j] = rows[j][i] = acc * (theta[i] * theta[j]).conjugate()
    return SMatrix(p, tuple(labs), tuple(tuple(r) for r in rows))


def mf_dim(p: Params, genus: int, marked: tuple[YoungDiagram, ...] | list[YoungDiagram]) -> int:
    """Dimension of the modular-functor space of a genus-g surface with
    marked points colored by `marked`, via a caterpillar pair-of-pants
    decomposition: fold the fusion matrices of the labels into the
    vacuum vector, apply the handle operator sum_mu N_mu N_{mu-dagger}
    per handle, and read off the vacuum coefficient.  A fold computes
    only the fusion rows its vector reaches; a handle needs every label
    pair, so the largest meets the path model's size check first."""
    if genus < 0:
        raise ValueError("genus must be nonnegative")
    labs = labels(p)
    index = {d: i for i, d in enumerate(labs)}
    for d in marked:
        if d not in index:
            raise ValueError(f"{tuple(d.rows)} is not a label of the category")
    if genus:
        check_size(p, 2 * max(d.size for d in labs))
    size = len(labs)
    vec = [0] * size
    vec[index[YoungDiagram.of()]] = 1
    for d in marked:
        out = [0] * size
        for mu, c in zip(labs, vec):
            if c:
                out = [o + c * f for o, f in zip(out, _fusion_row(p, d, mu))]
        vec = out
    if genus:
        handle = [[0] * size for _ in range(size)]
        for mu in labs:
            m1 = fusion_matrix(p, mu)
            m2 = fusion_matrix(p, dagger(p, mu))
            for i in range(size):
                for j in range(size):
                    handle[i][j] += sum(m1[i][k] * m2[k][j] for k in range(size))
        while genus:
            if genus & 1:
                vec = [sum(handle[i][j] * vec[i] for i in range(size)) for j in range(size)]
            genus >>= 1
            if genus:
                handle = [[sum(handle[i][k] * handle[k][j] for k in range(size))
                           for j in range(size)] for i in range(size)]
    return vec[index[YoungDiagram.of()]]
