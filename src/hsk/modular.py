"""The modular data of the level-K category, read off the path model of
the quotient of H_n (``seminormal``): quantum dimensions, twists,
fusion rules, S~, modular-functor dimensions, block dimensions and the
rank of the trace form.  Nothing here builds a permutation table, a
T-basis element, a Gram matrix or a central idempotent; that route
(``category``, ``trace``) is their oracle.

The path model's bases are Bratteli paths, not the n! permutations.
Fusion is read off the N-1 fundamental labels (1^k), 0 < k < N.  A
fundamental row N_{(1^k) mu}^nu is the rank in the block nu of a
product of two commuting path projections (``_fusion_row``), traced on
the shorter of k+|mu| and N-k+|mu^dagger| strands, since
N_{(1^k) mu}^nu = N_{(1^(N-k)) mu^dagger}^{nu^dagger}.  The fusion ring is a
quotient of the representation ring of SU(N) that sends the Schur
function of a label to the label (Goodman-Wenzl, Adv. Math. 82 (1990);
Gepner, Commun. Math. Phys. 141 (1991)), so the dual Jacobi-Trudi
identity gives every other fusion matrix,
N_lam = det[E_{lam^t_i - i + j}], E_k = N_{(1^k)}, E_0 = E_N = 1 and E_k = 0
outside [0, N] (``_row``).  The twist theta_d is the central full
twist's block trace over the path count; S~ follows from the balancing
identity
S~_{lam mu} = theta_lam^-1 theta_mu^-1 sum_nu N_{lam mu}^nu theta_nu d_nu.
The quantum dimension of a label is its block weight, the q-Weyl
product, which needs no model; the other data are bounded only by the
path model's size check (``seminormal.check_size``).

``block_summary`` and ``purified_dim`` list no path at all: they read
the labels of Gamma^n and their path counts f_lambda off the Bratteli
diagram.  H_n modulo the radical of the Markov trace is
sum_lambda End(V_lambda) over Gamma^n (Wenzl, Invent. Math. 92 (1988)),
since every block weight d_lambda is nonzero, so either trace form has
rank sum_lambda f_lambda^2 and corank n! - sum_lambda f_lambda^2.
verify's ``trace.gram_rank`` and ``category.blocks`` check this against
the Gram elimination.
"""
from __future__ import annotations

from collections import Counter, namedtuple
from functools import lru_cache
from math import factorial

from .closure import (CURL_MATCH_SIGN, BraidWord, block_transposition_word, braid_phase,
                      full_twist_word)
from .diagrams import YoungDiagram, dagger, gamma_n, labels, path_counts
from .linalg import determinant
from .scalar import Params, Scalar
from .seminormal import (block_trace, check_size, dimension, fusion_trace, path_model,
                         q_weyl_dimension)

__all__ = [
    "GRAM_LIMIT", "PurifiedDim", "FusionTable", "SMatrix", "purified_dim", "block_summary",
    "fusion", "fusion_table", "fusion_matrix", "qdim", "twist", "s_matrix", "mf_dim",
]

# Largest n for the n!-column eliminations of ``category`` and ``trace``, and the
# default reach of ``fusion_table``.
GRAM_LIMIT = 6


class PurifiedDim(namedtuple("PurifiedDim", "dim radical_dim")):
    __slots__ = ()

    def to_json(self) -> dict:
        return {"dim": self.dim, "radical_dim": self.radical_dim}


def purified_dim(p: Params, n: int) -> PurifiedDim:
    """rank and corank of the trace form on H_n: sum_lambda f_lambda^2
    over the labels of Gamma^n, and n! minus it."""
    size = factorial(n)
    rank = dimension(p, n)
    return PurifiedDim(rank, size - rank)


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


def fusion(p: Params, lam: YoungDiagram, mu: YoungDiagram, nu: YoungDiagram) -> int:
    """N_{lam mu}^nu, read off row mu of the fusion matrix of lam
    (``_row``)."""
    for d in (lam, mu):
        if d not in labels(p):
            raise ValueError(f"{d.rows} is not a label of the category")
    if nu not in gamma_n(p, lam.size + mu.size):  # gamma_n lists only labels
        return 0
    return _row(p, lam, mu)[labels(p).index(nu)]


class FusionTable(namedtuple("FusionTable", "p entries")):
    """entries[(lam, mu, nu)] = N_{lam mu}^nu."""

    __slots__ = ()

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


def _fusion_row(p: Params, lam: YoungDiagram, mu: YoungDiagram) -> tuple[int, ...]:
    """N_{lam mu}^{L_j} over the label list, one trace per block nu of
    the (a+b)-strand path model, a = |lam| and b = |mu|:

        N_{lam mu}^nu = tr_nu(P_t rho(beta)^-1 P_s rho(beta)),

    beta the bare block transposition carrying the first b strands past
    the last a.  P_t projects onto the paths that begin with a fixed
    path t to lam, P_s onto those that begin with a fixed path s to mu;
    conjugated by beta, P_s projects onto mu on the last b strands, so
    the product is a minimal idempotent of lam (x) mu, whose rank in
    the block nu is the multiplicity of V_nu (``seminormal.fusion_trace``).
    Production reads it for fundamental rows only; for any other lam
    it is the test oracle of ``_row``."""
    a, b = lam.size, mu.size
    model = path_model(p, a + b)
    # the row reading of a label, row i filled left to right, is its first path
    t, s = (tuple(i for i, r in enumerate(d.rows) for _ in range(r)) for d in (lam, mu))
    word = block_transposition_word(b, a).word if a and b else ()
    found = {}
    for j, block in enumerate(model.blocks):
        rows_t = [i for i, path in enumerate(block.paths) if path[:a] == t]
        rows_s = [k for k, path in enumerate(block.paths) if path[:b] == s]
        if not rows_t or not rows_s:
            continue
        tr = fusion_trace(model, j, word, rows_t, rows_s)
        if not tr.is_rational() or tr.den != 1 or tr.num[0] < 0:
            raise RuntimeError("fusion coefficient is not a nonnegative integer")
        found[block.label] = tr.num[0]
    return tuple(found.get(nu, 0) for nu in labels(p))


def _fundamental_row(p: Params, k: int, mu: YoungDiagram) -> tuple[int, ...]:
    """E_k[mu] = N_{(1^k) mu} over the label list, 0 < k < N, traced on
    the shorter side: N_{(1^k) mu}^nu = N_{(1^(N-k)) mu^dagger}^{nu^dagger},
    conjugation being a ring automorphism that sends (1^k) to
    (1^(N-k)).  The dagger side is read through the cache, where
    E_(N-k)[mu^dagger], traced directly, may already be."""
    dual = dagger(p, mu)
    if p.N - k + dual.size < k + mu.size:
        labs = labels(p)
        row = _row(p, YoungDiagram((1,) * (p.N - k)), dual)
        return tuple(row[labs.index(dagger(p, nu))] for nu in labs)
    return _fusion_row(p, YoungDiagram((1,) * k), mu)


def _leibniz(heights: tuple[int, ...], N: int) -> Counter:
    """The nonzero terms of det[E_{h_i - i + j}] over the permutations
    of its len(heights) columns, each keyed by the sorted indices k of
    its factors with 0 < k < N (E_0 = E_N = 1), with its summed sign:
    the E_k commute, so terms with equal factors combine."""
    terms = Counter()

    def expand(i, free, sign, ks):
        if i == len(heights):
            terms[tuple(sorted(k for k in ks if 0 < k < N))] += sign
            return
        # taking the column at position pos of the free ones adds pos inversions
        for pos, c in enumerate(free):
            k = heights[i] - i + c
            if 0 <= k <= N:
                expand(i + 1, free[:pos] + free[pos + 1:], -sign if pos % 2 else sign, ks + (k,))

    expand(0, tuple(range(len(heights))), 1, ())
    return terms


@lru_cache(maxsize=None)
def _row(p: Params, lam: YoungDiagram, mu: YoungDiagram) -> tuple[int, ...]:
    """Row mu of the fusion matrix of lam, N_{lam mu}^{L_j} over the
    label list: for a fundamental lam = (1^k) its traced row, else row
    mu of the dual Jacobi-Trudi determinant det[E_{lam^t_i - i + j}],
    computed lazily as the row vector e_mu carried through the factors
    of each Leibniz term.  Each term's indices are nonnegative and sum
    to |lam|, so every fundamental row it reads, E_k[nu] with
    |nu| <= |mu| + the indices before k, fits in |lam|+|mu| strands, the
    size checked here."""
    check_size(p, lam.size + mu.size)
    if lam.row(0) == 1:
        return _fundamental_row(p, lam.size, mu)
    labs = labels(p)
    products = {(): tuple(int(nu == mu) for nu in labs)}

    def product(ks):
        if ks not in products:
            k = ks[-1]
            out = [0] * len(labs)
            for nu, c in zip(labs, product(ks[:-1])):
                if c:
                    out = [o + c * e for o, e in zip(out, _row(p, YoungDiagram((1,) * k), nu))]
            products[ks] = tuple(out)
        return products[ks]

    row = [0] * len(labs)
    for ks, sign in _leibniz(lam.transpose().rows, p.N).items():
        if sign:
            row = [r + sign * x for r, x in zip(row, product(ks))]
    if any(r < 0 for r in row):
        raise RuntimeError("fusion coefficient is not a nonnegative integer")
    return tuple(row)


def fusion_matrix(p: Params, lam: YoungDiagram) -> tuple[tuple[int, ...], ...]:
    """Matrix of fusion with lam over the label list: entry [i][j] =
    N_{lam, L_i}^{L_j}, one determinant row (``_row``) per L_i."""
    return tuple(_row(p, lam, mu) for mu in labels(p))


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
    one curl scalar zeta^(s(1-N^2)) per strand, both lifted as one power
    of zeta, theta of the single box is exactly the curl scalar."""
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
    c = block_trace(model, j, word)
    c = Scalar._make(c.field, list(c.num), c.den * len(model.blocks[j].paths))
    return p.lift(c, braid_phase(p, BraidWord(n, word)) + n * CURL_MATCH_SIGN * (1 - p.N * p.N))


class SMatrix(namedtuple("SMatrix", "p labels entries")):
    __slots__ = ()

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
            for th, d, m in zip(theta, dims, _row(p, lam, labs[j])):
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
    only the fusion rows its vector reaches, each from fundamental rows
    on at most |d|+|mu| strands (``_row``); a handle needs every label
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
                out = [o + c * f for o, f in zip(out, _row(p, d, mu))]
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
