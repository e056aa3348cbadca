"""The purified algebras A_n on the T basis: their echelon coordinates,
central idempotents and branching multiplicities.

A_n, H_n modulo the radical of the Markov-trace form, is
sum_lambda End(V_lambda) over Gamma^n (Wenzl, Invent. Math. 92 (1988)),
the image of the path model's representation rho (``seminormal``).
Let M be the matrix whose column w lists the entries of rho_lambda(T_w)
over every block.  M has full row rank sum f_lambda^2, and the Gram
matrix of the trace form is G = M^T W M, W invertible (it pairs entries
(i, j) and (j, i) of a block, weighted by d_lambda/[N]^n != 0), so G and
M share their reduced echelon form; verify's ``gram_rref`` is its oracle.

``purified_algebra`` runs one elimination per (p, n), of [M | E] over
Q(q), E holding per block the flattened identity of that block, and
lifts each entry to the ambient field once.  The first n! columns are
the echelon form: its pivots J pick out a basis {T_j : j in J}, and its
column w expresses T_w over them (``rmap``), since row operations keep
column relations.  The column of E for block lambda becomes M_J^-1
e_lambda, the coordinates of the central idempotent z_lambda, as
rho(z_lambda) is the identity on the block lambda and zero on the others.
A branching multiplicity is the rank, so the trace, of rho_lambda(e) for
the embedded minimal idempotent e of a block of A_{n-1}.

The modular data, block summaries and the rank of the trace form
(``purified_dim``) never build A_n: they live in ``modular``, which
reads them off the path model.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .diagrams import YoungDiagram, gamma_n
from .hecke import HeckeElement, jones_wenzl, tensor_embed, young_idempotent
from .linalg import rref
from .modular import GRAM_LIMIT, block_summary
# hskbench/tracer.py looks these three up as hsk.category.<name>; nothing here uses them.
from .modular import fusion, mf_dim, s_matrix  # noqa: F401
from .perms import perm_table
from .scalar import Params, Scalar
from .seminormal import block_matrix, block_trace, path_model

__all__ = [
    "PurifiedAlgebra",
    "BlockData",
    "purified_algebra",
    "minimal_idempotent",
    "central_idempotents",
    "branching_multiplicity",
]


@dataclass(frozen=True)
class PurifiedAlgebra:
    """Coordinates for A_n = H_n / radical on the pivot basis
    {T_j : j in pivots}: column w of ``rmap`` holds the coordinates of
    T_w, and centre[k] those of the central idempotent of block k of
    the path model."""

    p: Params
    n: int
    pivots: tuple[int, ...]
    rmap: tuple[tuple[Scalar, ...], ...]
    centre: tuple[tuple[Scalar, ...], ...]

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


def _braid(word: tuple[int, ...]) -> tuple[int, ...]:
    """The braid letters of a reduced word of perm_table, T_w as a product of generators."""
    return tuple(i + 1 for i in word)


@lru_cache(maxsize=None)
def purified_algebra(p: Params, n: int) -> PurifiedAlgebra:
    """The echelon form of [M | E] over Q(q), from one elimination; see
    the module docstring."""
    if n > GRAM_LIMIT:
        raise ValueError(f"Gram computations limited to {GRAM_LIMIT} strands")
    model = path_model(p, n)
    words = perm_table(n).word
    sizes = [len(block.paths) for block in model.blocks]
    F = p.subfield
    one, zero = Scalar.from_rational(F, 1), Scalar.from_rational(F, 0)
    # row (k, t, s) of M is entry [t][s] of block k; E has a 1 on its diagonal rows
    cols = [[x for k, f in enumerate(sizes)
             for row in block_matrix(model, k, _braid(word), range(f)) for x in row]
            for word in words]
    diagonal = [(k, t == s) for k, f in enumerate(sizes) for t in range(f) for s in range(f)]
    rows = [list(row) + [one if on and k == b else zero for b in range(len(sizes))]
            for row, (k, on) in zip(zip(*cols), diagonal)]
    red, piv = rref(p, rows)
    size = len(words)
    if piv[-1] >= size:
        raise RuntimeError("the T_w do not span the path model: a pivot lies in E")
    red = [[p.lift(x) for x in row] for row in red]
    centre = tuple(zip(*(row[size:] for row in red)))
    # the z_lambda sum to the identity, whose coordinates are column 0 of rmap
    if [sum(col, p.zero) for col in zip(*centre)] != [row[0] for row in red]:
        raise RuntimeError("central idempotents do not sum to the identity")
    return PurifiedAlgebra(p, n, tuple(piv), tuple(tuple(row[:size]) for row in red), centre)


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
    of Gamma^n, as representatives in H_n (well defined mod radical),
    read off the echelon form of ``purified_algebra``."""
    a = purified_algebra(p, n)
    return BlockData(p, n, {block.label: BlockEntry(a.lift(zvec), len(block.paths), zvec)
                            for block, zvec in zip(path_model(p, n).blocks, a.centre)})


def branching_multiplicity(p: Params, n: int, lam: YoungDiagram, sub: YoungDiagram) -> int:
    """Multiplicity of the block `sub` of A_{n-1} in the restriction of
    the block `lam` of A_n: the rank of rho_lam(e), e the embedded
    minimal idempotent of `sub`, which is its trace
    sum_w c_w tr rho_lam(T_w) over the coefficients c_w of e."""
    labs = gamma_n(p, n)
    if lam not in labs:
        raise ValueError("lam is not a label of Gamma^n")
    if sub not in gamma_n(p, n - 1):
        raise ValueError("sub is not a label of Gamma^{n-1}")
    e_sub = tensor_embed(minimal_idempotent(p, n - 1, sub), HeckeElement.identity(p, 1))
    model, words, k = path_model(p, n), perm_table(n).word, labs.index(lam)
    m = sum((c * p.lift(block_trace(model, k, _braid(words[w]))) for w, c in e_sub.terms.items()),
            p.zero)
    if not m.is_rational() or m.den != 1 or m.num[0] < 0:
        raise RuntimeError("branching multiplicity is not a nonnegative integer")
    return m.num[0]
