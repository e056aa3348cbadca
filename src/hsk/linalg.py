"""Exact linear algebra over the cyclotomic coefficient field.

Everything here works on dense matrices given as lists of Scalar rows.
Row reduction is plain Gauss-Jordan: scalar arithmetic is exact and
field division costs one inversion per pivot, so fraction-free
tricks buy nothing.  The reduced row echelon form doubles as a column
calculus: row operations preserve column relations, so column j of the
RREF expresses column j of the input in terms of the pivot columns.
One forward elimination serves the determinant and Sylvester's
criterion for positive definiteness.
"""
from __future__ import annotations

from .scalar import Params, Scalar

__all__ = ["rref", "determinant", "positive_definite"]

Matrix = list[list[Scalar]]


def rref(p: Params, rows: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and pivot columns.

    Returns (R, pivots) with len(R) == len(pivots) == rank; zero rows
    are dropped.  The input is not modified."""
    if not rows:
        return [], []
    ncols = len(rows[0])
    work = [list(r) for r in rows]
    reduced: Matrix = []
    pivots: list[int] = []
    for col in range(ncols):
        pivot_row = None
        for r in range(len(work)):
            if not work[r][col].is_zero():
                pivot_row = r
                break
        if pivot_row is None:
            continue
        row = work.pop(pivot_row)
        inv = row[col].inverse()
        row = [c * inv for c in row]
        for other in work + reduced:
            f = other[col]
            if not f.is_zero():
                for j in range(col, ncols):
                    other[j] = other[j] - f * row[j]
        reduced.append(row)
        pivots.append(col)
        work = [r for r in work if any(not c.is_zero() for c in r)]
        if not work:
            break
    return reduced, pivots


def kernel_from_rref(p: Params, red, pivots, ncols: int) -> Matrix:
    """Basis of the right kernel from a reduced echelon form and its
    pivot columns, one vector per free column.  Each basis vector has a
    single 1 in its free column, so the output is sparse whenever the
    RREF is."""
    pivot_set = set(pivots)
    basis: Matrix = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        vec = [p.zero] * ncols
        vec[f] = p.one
        for r, c in enumerate(pivots):
            vec[c] = -red[r][f]
        basis.append(vec)
    return basis


def _elimination(mat: Matrix):
    """Lazy forward Gaussian elimination: (pivot, swapped) per column,
    swapped after a row exchange; a zero pivot (no nonzero entry on or
    below the diagonal) ends it.  O(k^3) scalar operations, one inversion
    per pivot with rows below it; the input is not modified."""
    work = [list(r) for r in mat]
    for col in range(len(work)):
        piv = next((r for r in range(col, len(work)) if not work[r][col].is_zero()), col)
        work[col], work[piv] = work[piv], work[col]
        row = work[col]
        yield row[col], piv != col
        if row[col].is_zero():
            return
        below = [other for other in work[col + 1:] if not other[col].is_zero()]
        inv = row[col].inverse() if below else None
        for other in below:
            f = other[col] * inv
            for j in range(col + 1, len(row)):
                other[j] = other[j] - f * row[j]


def determinant(p: Params, mat: Matrix) -> Scalar:
    """Exact determinant: the product of the pivots of ``_elimination``,
    negated once per row swap; a zero pivot ends it at zero."""
    det = p.one
    for d, swapped in _elimination(mat):
        det = (-det if swapped else det) * d
    return det


def positive_definite(p: Params, mat: Matrix) -> bool:
    """Sylvester's criterion for a hermitian matrix: its leading minors
    are all positive iff the elimination exchanges no rows and every
    pivot (a ratio of successive minors) is real, nonzero and positive.
    All but the sign are decided exactly.  The sign is read from the
    embedding, whose rounding error stays below (phi + 16) 2^-52 times
    the coefficient mass sum |c_j| / den; a pivot inside it fails."""
    for d, swapped in _elimination(mat):
        if swapped or d.is_zero() or d != d.conjugate():
            return False
        if d.embed().real <= (d.field.phi + 16) * 2.0 ** -52 * sum(map(abs, d.num)) / d.den:
            return False
    return True
