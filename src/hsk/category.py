"""The purified algebras A_n on the T basis: their Gram-pivot
coordinates, central idempotents and branching multiplicities.

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

The modular data, block summaries and the rank of the trace form
(``purified_dim``) never build A_n: they live in ``modular``, which
reads them off the path model, and this module re-exports their names.
The Gram route serves only what is written on the T basis:
``central_idempotents`` and ``branching_multiplicity``.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .closure import loop_power
from .diagrams import YoungDiagram, gamma_n
from .hecke import HeckeElement, jones_wenzl, tensor_embed, young_idempotent
from .linalg import rref
from .modular import (GRAM_LIMIT, FusionTable, PurifiedDim, SMatrix,  # noqa: F401
                      _fusion_row, block_summary, fusion, fusion_matrix, fusion_table, mf_dim,
                      purified_dim, qdim, s_matrix, twist)
from .perms import perm_table
from .scalar import Params, Scalar
from .seminormal import block_trace, path_model
from .trace import gram_bilinear, gram_rref

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
