"""Exact linear algebra: the elimination determinant against a
first-column Laplace expansion, on seeded random matrices and on the S~
matrices, and on a 12 x 12 S~ out of the expansion's reach; Sylvester's
criterion on the pivots of the same elimination."""

import math
import time
from random import Random

import pytest

from hsk import Params, s_matrix
from hsk.linalg import determinant, positive_definite


def laplace_determinant(p, mat):
    """First-column Laplace expansion, O(k!): an oracle independent of
    the elimination."""
    if not mat:
        return p.one
    acc = p.zero
    for r, row in enumerate(mat):
        if not row[0].is_zero():
            term = row[0] * laplace_determinant(p, [x[1:] for i, x in enumerate(mat) if i != r])
            acc = acc + term if r % 2 == 0 else acc - term
    return acc


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
            want = laplace_determinant(p, mat)
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
    assert s.determinant() == laplace_determinant(p, [list(r) for r in s.entries])


def test_twelve_label_s_matrix_determinant():
    """|det S~| = D^k, exactly as det * conj(det) = (D^2)^k, for the 12 x
    12 S~ of (12,1), where a Laplace expansion has 12! terms."""
    p = Params(12, 1)
    s = s_matrix(p)
    start = time.perf_counter()
    det = s.determinant()
    assert time.perf_counter() - start < 5.0
    dim2 = sum((x * x for x in s.entries[0]), p.zero)
    want = p.one
    for _ in s.labels:
        want = want * dim2
    assert det * det.conjugate() == want


def test_positive_definite_accepts():
    p = Params(2, 2)
    z = p.zeta_pow(1)
    assert positive_definite(p, [])
    assert positive_definite(p, [[p.scalar(2), z], [z.conjugate(), p.scalar(2)]])
    # A^T conj(A) + 1 is hermitian and positive definite for every A
    rng = Random("pd")
    for k in range(1, 5):
        a = [[random_scalar(p, rng) for _ in range(k)] for _ in range(k)]
        mat = [[sum((row[u] * row[v].conjugate() for row in a), p.scalar(u == v))
                for v in range(k)] for u in range(k)]
        assert positive_definite(p, mat), k


@pytest.mark.parametrize("name", ["indefinite", "singular", "row exchange", "non-real pivot"])
def test_positive_definite_rejects(name):
    p = Params(2, 2)
    one, zero = p.one, p.zero
    mat = {
        "indefinite": [[one, zero], [zero, -one]],
        "singular": [[one, one], [one, one]],
        "row exchange": [[zero, one], [one, zero]],
        "non-real pivot": [[one, zero], [zero, p.zeta_pow(1)]],
    }[name]
    assert not positive_definite(p, mat)


def test_positive_definite_needs_a_certified_sign():
    """A positive real pivot whose embedding lies inside the rounding
    bound of its coefficient mass fails; well outside it, it passes."""
    p = Params(2, 2)
    big = 10**20
    t = p.zeta_pow(1) + p.zeta_pow(-1)  # 2 cos(2 pi/m), real
    # |big * (t - float(t))| < 10^5, so d lies in (0, 2 * 10^5)
    d = t * big - (int(big * 2 * math.cos(2 * math.pi / p.m)) - 10**5)
    assert d == d.conjugate() and d.embed().real > 0
    assert not positive_definite(p, [[d]])
    assert positive_definite(p, [[d + 10**10]])
