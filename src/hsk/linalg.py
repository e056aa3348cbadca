"""Exact linear algebra over the cyclotomic coefficient field.

Everything here works on dense matrices given as lists of Scalar rows.
Row reduction is plain Gauss-Jordan: scalar arithmetic is exact and
field division costs one inversion per pivot, so fraction-free
tricks buy nothing.  The reduced row echelon form doubles as a column
calculus: row operations preserve column relations, so column j of the
RREF expresses column j of the input in terms of the pivot columns.
"""
from __future__ import annotations

from .scalar import Params, Scalar

__all__ = ["rref", "determinant", "hermitian_min_eigenvalue"]

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
        for other in work:
            f = other[col]
            if not f.is_zero():
                for j in range(col, ncols):
                    other[j] = other[j] - f * row[j]
        for other in reduced:
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


def determinant(p: Params, mat: Matrix) -> Scalar:
    """Exact determinant: the product of the pivots of one Gaussian
    elimination, negated once per row swap; O(k^3) scalar operations
    and at most one inversion per pivot.  The input is not modified."""
    work = [list(r) for r in mat]
    det = p.one
    for col in range(len(work)):
        piv = next((r for r in range(col, len(work)) if not work[r][col].is_zero()), None)
        if piv is None:
            return p.zero
        if piv != col:
            work[col], work[piv] = work[piv], work[col]
            det = -det
        row = work[col]
        det = det * row[col]
        below = [other for other in work[col + 1:] if not other[col].is_zero()]
        inv = row[col].inverse() if below else None
        for other in below:
            f = other[col] * inv
            for j in range(col + 1, len(row)):
                other[j] = other[j] - f * row[j]
    return det


def hermitian_min_eigenvalue(mat: Matrix) -> float:
    """Smallest eigenvalue of a hermitian Scalar matrix under the
    distinguished complex embedding.  numpy is imported here, at its
    only use: at module level it was half the package's import time."""
    import numpy as np

    n = len(mat)
    if n == 0:
        return 0.0
    arr = np.empty((n, n), dtype=complex)
    for i, row in enumerate(mat):
        for j, c in enumerate(row):
            arr[i, j] = c.embed()
    return float(np.linalg.eigvalsh(arr)[0].real)
