"""Exact linear algebra: the Laplace determinant against Gaussian
elimination, on seeded random matrices and on the S~ matrices."""

from random import Random

import pytest

from hsk import Params, s_matrix
from hsk.linalg import determinant


def elimination_determinant(p, mat):
    """Product of the pivots, negated once per row swap: an oracle
    independent of the expansion."""
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
        inv = row[col].inverse()
        for other in work[col + 1:]:
            f = other[col] * inv
            for j in range(col + 1, len(row)):
                other[j] = other[j] - f * row[j]
    return det


def random_scalar(p, rng):
    """Sparse small-integer combinations of powers of zeta, zero about
    a quarter of the time so that pivots must be searched for."""
    out = p.zero
    if rng.random() < 0.25:
        return out
    for _ in range(rng.randint(1, 3)):
        out = out + p.scalar(rng.randint(-3, 3)) * p.zeta_pow(rng.randrange(p.m))
    return out


def random_matrix(p, k, rng):
    mat = [[random_scalar(p, rng) for _ in range(k)] for _ in range(k)]
    kind = rng.randrange(4) if k >= 2 else 0
    if kind == 1:
        # a row that is a combination of two others
        a, b, c = (rng.randrange(k) for _ in range(3))
        s, t = random_scalar(p, rng), random_scalar(p, rng)
        mat[c] = [s * x + t * y for x, y in zip(mat[a], mat[b])]
    elif kind == 2:
        j = rng.randrange(k)
        for row in mat:
            row[j] = p.zero
    return mat


@pytest.mark.parametrize("N,K", [(2, 2), (4, 1)])
def test_laplace_matches_elimination(N, K):
    p = Params(N, K)
    rng = Random(f"det:{N},{K}")
    singular = 0
    for k in range(6):
        for _ in range(8 if k < 5 else 4):
            mat = random_matrix(p, k, rng)
            want = elimination_determinant(p, mat)
            assert determinant(p, mat) == want, (k, mat)
            singular += want.is_zero()
    assert singular >= 5


def test_determinant_leaves_input_unchanged():
    p = Params(2, 2)
    mat = [[p.zero, p.one], [p.q, p.zero]]
    copy = [list(r) for r in mat]
    assert determinant(p, mat) == -p.q
    assert mat == copy


@pytest.mark.parametrize("N,K", [(2, 1), (2, 2), (3, 1)])
def test_s_matrix_determinant_matches_elimination(N, K):
    p = Params(N, K)
    s = s_matrix(p)
    assert s.determinant() == elimination_determinant(p, [list(r) for r in s.entries])
