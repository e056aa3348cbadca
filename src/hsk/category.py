"""The purified finite-strand category: block decomposition, fusion
coefficients, quantum dimensions, twists, S-matrix entries, and
modular-functor dimensions.

The purified algebra A_n is H_n modulo the radical of the Markov-trace
form.  A concrete basis comes out of the Gram elimination for free:
the pivot columns J of the reduced echelon form pick out basis
elements {T_j : j in J}, and the nonpivot columns of the echelon form
express every other T_w over them, because row operations preserve
column relations.  All block and fusion computations happen in the
coordinates of this basis; trace pairings reduce to vector-matrix
products against the pivot-restricted Gram matrix, so no element
products are needed on the hot paths.  ``PurifiedAlgebra`` holds just
this: the pivots, the echelon map ``rmap`` and the pivot Gram matrix.

The centre of A_n is the joint kernel of the commutators
T_{s_i} T_j - T_j T_{s_i} over the pivots j, each built by one
generator step on either side (``hecke._gen_step``) and reduced through
``rmap``.  Central idempotents are recovered from trace characters: a
central element z decomposes as sum over blocks of psi_mu(z) z_mu where
psi_mu(z) = Tr(z e_mu)/Tr(e_mu) for any minimal idempotent e_mu of the
block mu.  The z_lambda are dual to the psi_mu, so inverting the matrix
of the psi_mu on a basis of the centre, one elimination, produces all
of them.

Branching multiplicities are trace ratios.  A_n is split semisimple,
and an idempotent x has rank Tr(z_nu x) / Tr(e_nu) in the block nu,
one pairing against the pivot Gram matrix; for an embedded minimal
idempotent of A_{n-1} that rank is the branching multiplicity.

The modular data never build A_n: they are traces in the blocks of the
path model (``seminormal``), whose bases are Bratteli paths, not the
n! permutations.  N_{lam mu}^nu is the rank in the block nu of a
product of two commuting path projections (``_fusion_row``); the
twist theta_d is the central full twist's block trace over the path
count; S~ follows from the balancing identity
S~_{lam mu} = theta_lam^-1 theta_mu^-1 sum_nu N_{lam mu}^nu theta_nu d_nu.
The Gram route serves ``blocks``, ``purify``, ``gram`` and ``branch``.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .diagrams import YoungDiagram, dagger, gamma_n, labels, path_count
from .hecke import (BraidWord, HeckeElement, _acc, _gen_step, block_transposition_word,
                    braid_phase, full_twist_word, jones_wenzl, tensor_embed,
                    young_idempotent)
from .linalg import determinant, nullspace, rref
from .perms import TRACE_LIMIT, perm_table
from .scalar import Params, Scalar
from .seminormal import block_matrix, block_trace, path_model
from .trace import (CURL_MATCH_SIGN, GRAM_LIMIT, curl_scalar, gram_bilinear,
                    gram_rref, loop_power, markov_trace)

__all__ = [
    "PurifiedAlgebra",
    "PurifiedDim",
    "BlockData",
    "FusionTable",
    "SMatrix",
    "purified_algebra",
    "purified_dim",
    "minimal_idempotent",
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

    def reduce_terms(self, terms: dict[int, Scalar]) -> list[Scalar]:
        vec = [self.p.zero] * self.dim
        for w, c in terms.items():
            col = w
            for r in range(self.dim):
                e = self.rmap[r][col]
                if not e.is_zero():
                    vec[r] = vec[r] + c * e
        return vec

    def reduce(self, x: HeckeElement) -> list[Scalar]:
        return self.reduce_terms(x.terms)

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

    def to_json(self, full: bool = False) -> dict:
        out = {
            "n": self.n,
            "labels": [list(d.rows) for d in self.blocks],
            "dims": {str(list(d.rows)): e.dim for d, e in self.blocks.items()},
        }
        if full:
            out["central_idempotents"] = {
                str(list(d.rows)): e.z.to_json() for d, e in self.blocks.items()
            }
        return out


@lru_cache(maxsize=None)
def central_idempotents(p: Params, n: int) -> BlockData:
    """The minimal central idempotents z_lambda of A_n, one per label
    of Gamma^n, as representatives in H_n (well defined mod radical)."""
    a = purified_algebra(p, n)
    labs = gamma_n(p, n)
    d = a.dim
    # centre of A as the joint kernel of the commutators T_{s_i} T_j - T_j T_{s_i}
    tbl = perm_table(n)
    stacked: list[list[Scalar]] = []
    for i in range(n - 1):
        cols = []
        for j in a.pivots:
            comm = _gen_step(p, tbl.length, tbl.lmul, {j: p.one}, i)
            for w, c in _gen_step(p, tbl.length, tbl.rmul, {j: p.one}, i).items():
                _acc(comm, w, -c)
            cols.append(a.reduce_terms(comm))
        stacked.extend(list(row) for row in zip(*cols))
    centre = nullspace(p, stacked, d) if stacked else [[p.one]]
    if len(centre) != len(labs):
        raise RuntimeError(
            f"centre dimension {len(centre)} != |Gamma^{n}| = {len(labs)}")
    # character functionals psi_mu(z) = Tr(z e_mu)/Tr(e_mu)
    reduced_minimal = {}
    weights = {}
    for mu in labs:
        e_mu = minimal_idempotent(p, n, mu)
        reduced_minimal[mu] = a.reduce(e_mu)
        weights[mu] = markov_trace(p, e_mu)
        if weights[mu].is_zero():
            raise RuntimeError("vanishing Markov weight on a block")
    # one elimination of [psi | I] gives [I | psi^-1]; column k of psi^-1
    # holds the coordinates of z_k over the centre basis
    size = len(labs)
    aug = []
    for k, mu in enumerate(labs):
        inv = weights[mu].inverse()
        aug.append([a.trace_pair(cvec, reduced_minimal[mu]) * inv for cvec in centre]
                   + [p.one if j == k else p.zero for j in range(size)])
    red, piv = rref(p, aug)
    if piv != list(range(size)):
        raise RuntimeError("singular character system")
    blocks: dict[YoungDiagram, BlockEntry] = {}
    for k, lam in enumerate(labs):
        coeffs = [row[size + k] for row in red]
        zvec = [p.zero] * d
        for c, cvec in zip(coeffs, centre):
            if not c.is_zero():
                for r in range(d):
                    zvec[r] = zvec[r] + c * cvec[r]
        blocks[lam] = BlockEntry(
            z=a.lift(zvec),
            dim=path_count(p, n, lam),
            weight=weights[lam],
            zvec=tuple(zvec),
        )
    return BlockData(p, n, blocks)


def _block_multiplicity(a: PurifiedAlgebra, blk: BlockEntry, x: HeckeElement, what: str) -> int:
    """The rank of the idempotent x in the matrix block of `blk`:
    m = Tr(z x) / Tr(e), with Tr(z x) paired against the pivot Gram
    matrix.  m is read off one coefficient and checked on all of them,
    which needs no inversion."""
    num = a.trace_pair(blk.zvec, a.reduce(x))
    weight = blk.weight
    j = next(i for i, c in enumerate(weight.num) if c)
    m = Fraction(num.num[j] * weight.den, num.den * weight.num[j])
    if m.denominator != 1 or m < 0 or weight * m != num:
        raise RuntimeError(f"{what} is not a nonnegative integer")
    return int(m)


def branching_multiplicity(p: Params, n: int, lam: YoungDiagram, sub: YoungDiagram) -> int:
    """Multiplicity of the block `sub` of A_{n-1} in the restriction of
    the block `lam` of A_n: Tr(z_lam i(e_sub)) / Tr(e_lam)."""
    bd = central_idempotents(p, n)
    if lam not in bd.blocks:
        raise ValueError("lam is not a label of Gamma^n")
    if sub not in gamma_n(p, n - 1):
        raise ValueError("sub is not a label of Gamma^{n-1}")
    e_sub = tensor_embed(minimal_idempotent(p, n - 1, sub), HeckeElement.identity(p, 1))
    return _block_multiplicity(purified_algebra(p, n), bd.blocks[lam], e_sub,
                               "branching multiplicity")


def fusion(p: Params, lam: YoungDiagram, mu: YoungDiagram, nu: YoungDiagram) -> int:
    """N_{lam mu}^nu, read off the cached fusion row of (lam, mu)."""
    for d in (lam, mu):
        if d not in labels(p):
            raise ValueError(f"{d.rows} is not a label of the category")
    n = lam.size + mu.size
    if nu not in labels(p) or nu not in gamma_n(p, n):
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
    """All coefficients N_{lam mu}^nu with |lam|+|mu| within the Gram
    limit (or a stricter cap)."""
    cap = GRAM_LIMIT if max_strands is None else min(max_strands, GRAM_LIMIT)
    labs = labels(p)
    entries = {}
    for lam in labs:
        for mu in labs:
            n = lam.size + mu.size
            if n > cap:
                continue
            for nu in gamma_n(p, n):
                if nu not in labs:
                    continue
                entries[(lam, mu, nu)] = fusion(p, lam, mu, nu)
    return FusionTable(p, entries)


def _first_path(p: Params, d: YoungDiagram) -> tuple[int, ...]:
    """The first Bratteli path to the label d on |d| strands."""
    return path_model(p, d.size).blocks[gamma_n(p, d.size).index(d)].paths[0] if d.size else ()


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
    n = a + b
    if n > GRAM_LIMIT:
        raise ValueError(f"fusion at {n} strands exceeds the Gram limit")
    t, s = _first_path(p, lam), _first_path(p, mu)
    model = path_model(p, n)
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
    """[N]^{|d|} Tr(y_d): the closed loop colored by d."""
    yi = young_idempotent(p, d)
    if yi.idem is None:
        raise ValueError("vanishing hook product; no idempotent")
    return loop_power(p, d.size) * markov_trace(p, yi.idem)


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
    if n > TRACE_LIMIT:  # the strand limit twists had as T-basis elements
        raise ValueError(f"permutation tables are limited to {TRACE_LIMIT} strands")
    # as a braid the full twist equals its reversed word, so negating
    # every letter gives its inverse
    word = tuple(CURL_MATCH_SIGN * i for i in full_twist_word(n).word)
    model = path_model(p, n)
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
        return determinant(self.p, [list(r) for r in self.entries])

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

    d_nu the block weight of the path model; row/column ∅ reproduces
    qdim.  Twists are roots of unity, so theta^-1 is the conjugate.
    S~ is symmetric, and each entry below the diagonal is mirrored."""
    labs = labels(p)
    for lam in labs:
        for mu in labs:
            if lam.size + mu.size > GRAM_LIMIT:
                raise ValueError(
                    "label sizes exceed the strand limit for Hopf closures")
    theta = [twist(p, d) for d in labs]
    rows = [[p.zero] * len(labs) for _ in labs]
    for i, lam in enumerate(labs):
        for j in range(i, len(labs)):
            n = lam.size + labs[j].size
            weight = {b.label: b.weight for b in path_model(p, n).blocks}
            acc = p.zero
            for nu, th, m in zip(labs, theta, _fusion_row(p, lam, labs[j])):
                if m:
                    acc = acc + th * weight[nu] * m
            rows[i][j] = rows[j][i] = acc * (theta[i] * theta[j]).conjugate()
    return SMatrix(p, tuple(labs), tuple(tuple(r) for r in rows))


def mf_dim(p: Params, genus: int, marked: tuple[YoungDiagram, ...] | list[YoungDiagram]) -> int:
    """Dimension of the modular-functor space of a genus-g surface with
    marked points colored by `marked`, via a caterpillar pair-of-pants
    decomposition: fold the fusion matrices of the labels into the
    vacuum vector, apply the handle operator sum_mu N_mu N_{mu-dagger}
    per handle, and read off the vacuum coefficient.  A fold computes
    only the fusion rows its vector reaches."""
    if genus < 0:
        raise ValueError("genus must be nonnegative")
    labs = labels(p)
    index = {d: i for i, d in enumerate(labs)}
    for d in marked:
        if d not in index:
            raise ValueError(f"{tuple(d.rows)} is not a label of the category")
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
