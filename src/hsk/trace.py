"""The Markov trace on the Hecke tower, its bilinear and hermitian
forms and their Gram matrices: the T-basis route.

The trace is the unique family Tr: H_n -> scalars with Tr(1) = 1 and
the Markov property Tr(x e_n) = eta Tr(x), where

    eta = [N+1] / ([2][N]).

This is the tower value whose block weights are the quantum dimensions
of the level-bounded diagrams: every diagram with fewer than N rows
and at most K columns carries a nonzero weight, a full column of N
boxes carries weight [N]^-N (so the column closes to 1, as the
trivialised determinant object must), and the weights of all other
shapes vanish.  On generators it pins

    Tr(T_{s_i}) = zeta_T = q - (q+1) eta = (q - 1)/(1 - q^N).

Traces of basis elements are computed class by class (Geck and
Pfeiffer, "On the irreducible characters of Hecke algebras", Adv. Math.
102 (1993)).  Since Tr is a trace, Tr(T_w) = Tr(T_{sws}) whenever
l(sws) = l(w), so Tr(T_w) is constant on the cyclic-shift classes of
S_n: the classes of the relation joining w and sws at equal length.
If a class has a member w and a simple s with l(sws) = l(w) - 2, then
T_w = T_s T_{sws} T_s and the quadratic relation gives

    Tr(T_w) = (q-1) Tr(T_{ws}) + q Tr(T_{sws}),

two traces of shorter elements.  Otherwise, by Geck-Pfeiffer, the class
consists of elements of minimal length in their conjugacy class; these
are products of n - c distinct generators, c the number of cycles, and
the Markov property gives Tr(T_w) = zeta_T^(n - c).  The whole vector
over S_n thus costs O(n! n) integer work and at most two scalar
products per class.

All of this involves q alone, so trace values lie in Q(q).
``markov_trace`` sums an element's coefficients per trace value and
embeds each distinct value once; Gram row 0 is the embedded vector.
Both Gram matrices grow from it by one row recursion over the weak
order (``_gram_rows``): the bilinear rows by forward generator steps on
the left, the hermitian ones by inverse steps on the right, transposed.

The radical of either form is the kernel of the path model's
representation: ``gram`` reads it off ``category.purified_algebra``,
whose oracle in verify and the tests is ``gram_rref``, the elimination
of the n! x n! bilinear Gram matrix.

The closure route (``closure``) and the modular data (``modular``)
live in their own modules and import nothing from here.  ``from_braid``
and ``markov_trace`` are their oracles: ``_closure_unreduced``,
[N]^n Tr(from_braid(b)) on the word as given, checks the Markov-move
reduction and the path model.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .category import purified_algebra
from .closure import BraidWord, loop_power
from .hecke import HeckeElement, from_braid
from .linalg import kernel_from_rref, rref
from .modular import GRAM_LIMIT
from .perms import perm_table
from .scalar import Params, Scalar, qint

__all__ = [
    "GramData",
    "eta",
    "trace_parameter",
    "markov_trace",
    "pairing",
    "gram",
    "gram_bilinear",
    "gram_hermitian",
    "gram_rref",
]


def eta(p: Params) -> Scalar:
    """eta = Tr(e_i) = [N+1]/([2][N]).

    Vanishes exactly at K = 1, where the symmetric square is not an
    allowed object and e_i spans the radical of the 2-strand form.
    """
    return qint(p, p.N + 1) * (qint(p, 2) * qint(p, p.N)).inverse()


def trace_parameter(p: Params, field=None) -> Scalar:
    """zeta_T = Tr(T_{s_i}) = (q - 1)/(1 - q^N), in the ambient field or
    in ``field`` (a subfield containing q, such as p.subfield)."""
    field = field or p.field
    return (p.q_pow_in(field, 1) - 1) * (1 - p.q_pow_in(field, p.N)).inverse()


@lru_cache(maxsize=None)
def _trace_vector(p: Params, n: int) -> tuple[Scalar, ...]:
    """Tr(T_w) for every w in S_n, indexed like perm_table(n), with
    values in the subfield Q(q).

    The table enumerates S_n by length, so each cyclic-shift class is
    met first at its smallest index and every class it reduces to is
    already valued.  A class is collected by a search over the
    length-preserving conjugations w -> s_i w s_i; on the way, the first
    member with l(s_i w s_i) = l(w) - 2 fixes its value from the classes
    of w s_i and s_i w s_i.  A class without such a member has minimal
    length in its conjugacy class and the value zeta_T^(n - cycles)."""
    one = Scalar.from_rational(p.subfield, 1)
    if n <= 1:
        return (one,)
    tbl = perm_table(n)
    rm, lm, ln = tbl.rmul, tbl.lmul, tbl.length
    q = p.q_pow_in(p.subfield, 1)
    qm1 = q - 1
    zt = trace_parameter(p, p.subfield)
    zt_pow = [one]
    for _ in range(n - 1):
        zt_pow.append(zt_pow[-1] * zt)
    cls = [-1] * tbl.size
    vals: list[Scalar] = []
    for w in range(tbl.size):
        if cls[w] >= 0:
            continue
        c = len(vals)
        cls[w] = c
        lw = ln[w]
        shorter = None
        stack = [w]
        while stack:
            u = stack.pop()
            for i in range(n - 1):
                us = rm[u][i]
                v = lm[us][i]
                lv = ln[v]
                if lv == lw:
                    if cls[v] < 0:
                        cls[v] = c
                        stack.append(v)
                elif lv < lw and shorter is None:
                    shorter = (us, v)
        if shorter is not None:
            us, v = shorter
            vals.append(qm1 * vals[cls[us]] + q * vals[cls[v]])
        else:
            vals.append(zt_pow[n - _cycle_count(tbl.perms[w])])
    return tuple(vals[c] for c in cls)


def _cycle_count(w: tuple[int, ...]) -> int:
    seen = [False] * len(w)
    count = 0
    for start in range(len(w)):
        if not seen[start]:
            count += 1
            j = start
            while not seen[j]:
                seen[j] = True
                j = w[j]
    return count


def markov_trace(p: Params, x: HeckeElement) -> Scalar:
    if x.p != p:
        raise ValueError("element parameters do not match")
    vec = _trace_vector(p, max(x.n, 1))
    sums: dict[Scalar, Scalar] = {}  # coefficients summed per trace value
    for w, c in x.terms.items():
        v = vec[w]
        sums[v] = sums[v] + c if v in sums else c
    acc = p.zero
    for v, c in sums.items():
        acc = acc + c * p.lift(v)
    return acc


def pairing(p: Params, x: HeckeElement, y: HeckeElement, form: str = "bilinear") -> Scalar:
    """Bilinear <x,y> = Tr(xy) or hermitian (x,y) = Tr(y* x)."""
    if x.n != y.n:
        raise ValueError("strand counts differ")
    if form == "bilinear":
        return markov_trace(p, x * y)
    if form == "hermitian":
        return markov_trace(p, y.star() * x)
    raise ValueError("form must be 'bilinear' or 'hermitian'")


def _gram_rows(p: Params, n: int, sign: int) -> list[tuple[Scalar, ...]]:
    """Rows R[u][v] = Tr(X_u T_v) with X_1 = 1 and, for sign = 1,
    X_{u s_i} = X_u T_{s_i}, or, for sign = -1, X_{u s_i} = T_{s_i}^-1 X_u.
    They are built over the right weak order: for l(u s_i) = l(u)+1,
    associativity (sign = 1) or the trace property (sign = -1) moves the
    generator onto T_v, so with t = s_i v (sign = 1: the forward step
    along lmul) or t = v s_i (sign = -1: the inverse step along rmul)
    and Q = q^sign,

        R[u s_i][v] = R[u][t]                      if l(t) - l(v) has the sign of the power,
                      (Q-1) R[u][v] + Q R[u][t]    otherwise:

    hecke._gen_step read as a functional, O(n!^2) scalar operations."""
    if n > GRAM_LIMIT:
        raise ValueError(f"Gram computations limited to {GRAM_LIMIT} strands")
    tbl = perm_table(n)
    ln, rm = tbl.length, tbl.rmul
    nbr = tbl.lmul if sign > 0 else tbl.rmul
    qs = p.q_pow(sign)
    qs1 = qs - 1
    rows: list[tuple[Scalar, ...]] = [tuple(p.lift(v) for v in _trace_vector(p, max(n, 1)))]
    for u in range(1, tbl.size):
        i = next(i for i in range(n - 1) if ln[rm[u][i]] < ln[u])
        parent = rows[rm[u][i]]
        rows.append(tuple(
            parent[nbr[v][i]] if (ln[nbr[v][i]] - ln[v]) * sign > 0
            else qs1 * parent[v] + qs * parent[nbr[v][i]]
            for v in range(tbl.size)
        ))
    return rows


@lru_cache(maxsize=None)
def gram_bilinear(p: Params, n: int) -> tuple[tuple[Scalar, ...], ...]:
    """G[u][v] = Tr(T_u T_v): the forward rows of ``_gram_rows``."""
    return tuple(_gram_rows(p, n, 1))


@lru_cache(maxsize=None)
def gram_hermitian(p: Params, n: int) -> tuple[tuple[Scalar, ...], ...]:
    """K[u][v] = (T_u, T_v) = Tr((T_v)^(-1) T_u), the matrix of the
    hermitian form (x,y) = Tr(y* x) on the T_w basis (star conjugates
    the coordinates of y, so the form's matrix itself carries no
    conjugation): the transpose of the inverse rows of ``_gram_rows``,
    whose row v is Tr((T_v)^(-1) T_u) over u."""
    return tuple(zip(*_gram_rows(p, n, -1)))


@lru_cache(maxsize=None)
def gram_rref(p: Params, n: int) -> tuple[tuple[tuple[Scalar, ...], ...], tuple[int, ...]]:
    """Cached reduced row echelon form of the bilinear Gram matrix.

    Returns (R, pivots).  Because row operations preserve column
    relations, column w of R expresses column w of the Gram matrix over
    the pivot columns.  The oracle of ``category.purified_algebra``,
    whose echelon form over the path model is the same."""
    red, piv = rref(p, [list(r) for r in gram_bilinear(p, n)])
    return tuple(tuple(r) for r in red), tuple(piv)


@dataclass(frozen=True)
class GramData:
    """Gram matrix of a trace form on the T_w basis of H_n, with its
    exact rank and a kernel basis (the radical of the form), both taken
    from the echelon form of ``category.purified_algebra``; the matrix
    is built only when asked for.  verify's ``trace.gram_psd`` proves
    from K itself that the hermitian form is positive semidefinite of
    that rank."""

    p: Params
    n: int
    form: str
    rank: int
    kernel_basis: tuple[HeckeElement, ...]

    @property
    def matrix(self) -> tuple[tuple[Scalar, ...], ...]:
        form = gram_bilinear if self.form == "bilinear" else gram_hermitian
        return form(self.p, self.n)

    def to_json(self, full: bool = False) -> dict:
        data = {
            "n": self.n,
            "form": self.form,
            "dim": self.rank + len(self.kernel_basis),
            "rank": self.rank,
            "kernel_dim": len(self.kernel_basis),
        }
        if full:
            data["matrix"] = [
                [c.to_json(embed=True) for c in row]
                for row in self.matrix
            ]
            data["kernel_basis"] = [x.to_json() for x in self.kernel_basis]
        return data


def gram(p: Params, n: int, form: str = "bilinear") -> GramData:
    """Gram matrix of the chosen trace form with exact rank and kernel.
    The kernel of the hermitian form is taken on the left (coordinates
    of x in (x,y) enter unconjugated): x with Tr(T_v^-1 x) = 0 for all
    v.  The T_v^-1 span H_n, so that is the bilinear radical itself, the
    kernel of the path model's representation; both are read off the
    echelon form of ``category.purified_algebra``."""
    if form not in ("bilinear", "hermitian"):
        raise ValueError("form must be 'bilinear' or 'hermitian'")
    a = purified_algebra(p, n)
    size = perm_table(n).size
    kern = kernel_from_rref(p, a.rmap, a.pivots, size)
    elements = tuple(
        HeckeElement(p, n, {w: c for w, c in enumerate(vec) if not c.is_zero()})
        for vec in kern
    )
    return GramData(p, n, form, a.dim, elements)


def _closure_unreduced(p: Params, b: BraidWord) -> Scalar:
    """[N]^n Tr(from_braid(b)): the closure of the word as given,
    expanded over the T_w, without the reduction or the path model; the
    oracle of closure_invariant."""
    return loop_power(p, b.strands) * markov_trace(p, from_braid(p, b))
