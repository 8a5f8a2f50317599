import math
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from tenalg import (
    DenseTensor,
    ShapeMismatchError,
    rank_decompose_rref,
    rank_decompose_svd,
    rref,
    svd,
    verify_decomposition,
)
from tenalg.rank import decomposition_terms
from tenalg.scalars import REAL

A = [[3, 4], [6, 8]]
B = [[1, 0], [1, 1]]
M = [[3, 4, 2], [1, 2, 1], [0, -2, -1]]


def random_int_matrix(rng, n, m, lo=-5, hi=5):
    return [[rng.randint(lo, hi) for _ in range(m)] for _ in range(n)]


# -- RREF --------------------------------------------------------------------


def test_rref_rank_one():
    R, pivots = rref(A)
    assert R == [[F(1), F(4, 3)], [F(0), F(0)]]
    assert pivots == [1]


def test_rref_identity():
    eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    R, pivots = rref(eye)
    assert R == [[F(1), 0, 0], [0, F(1), 0], [0, 0, F(1)]]
    assert pivots == [1, 2, 3]


def test_rref_zero():
    R, pivots = rref([[0, 0], [0, 0]])
    assert R == [[0, 0], [0, 0]]
    assert pivots == []


def test_rref_idempotent():
    rng = random.Random(5)
    for _ in range(25):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        R, pivots = rref(random_int_matrix(rng, n, m))
        R2, pivots2 = rref(R)
        assert R2 == R and pivots2 == pivots


def test_rref_accepts_rational_tensor():
    t = DenseTensor.matrix(A)
    R, pivots = rref(t)
    assert pivots == [1]


# -- exact decomposition --------------------------------------------------------


def test_decompose_rref_golden_A():
    dec = rank_decompose_rref(A)
    assert dec.r == 1
    assert dec.d1 == ((F(3), F(6)),)
    assert dec.d2 == ((F(1), F(4, 3)),)


def test_decompose_rref_golden_B():
    dec = rank_decompose_rref(B)
    assert dec.r == 2
    assert dec.d1 == ((F(1), F(1)), (F(0), F(1)))
    assert dec.d2 == ((F(1), F(0)), (F(0), F(1)))


def test_decompose_rref_golden_M():
    dec = rank_decompose_rref(M)
    assert dec.r == 2
    assert dec.d1 == ((F(3), F(1), F(0)), (F(4), F(2), F(-2)))
    assert dec.d2 == ((F(1), F(0), F(0)), (F(0), F(1), F(1, 2)))


def test_decompose_rref_zero():
    dec = rank_decompose_rref([[0, 0], [0, 0], [0, 0]])
    assert dec.r == 0 and dec.d1 == () and dec.d2 == ()


def test_decompose_rref_reconstructs_randoms():
    rng = random.Random(17)
    for _ in range(30):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        mat = random_int_matrix(rng, n, m)
        dec = rank_decompose_rref(mat)
        target = DenseTensor.matrix(mat)
        ok, residual = verify_decomposition(target, decomposition_terms(dec))
        assert ok and residual == 0.0
        assert dec.r <= min(n, m)


def test_row_and_column_rank_agree():
    rng = random.Random(23)
    for _ in range(30):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        mat = random_int_matrix(rng, n, m)
        transpose = [list(col) for col in zip(*mat)]
        assert rank_decompose_rref(mat).r == rank_decompose_rref(transpose).r


def _random_unimodular(rng, r):
    """Product of integer shears: determinant stays +-1, inverse tracked."""
    P = [[F(int(i == j)) for j in range(r)] for i in range(r)]
    Pinv = [[F(int(i == j)) for j in range(r)] for i in range(r)]
    for _ in range(3 * r):
        i, j = rng.randrange(r), rng.randrange(r)
        if i == j:
            continue
        k = rng.randint(-2, 2)
        for c in range(r):  # P <- E_ij(k) P ; Pinv <- Pinv E_ij(-k)
            P[i][c] += k * P[j][c]
        for rr in range(r):
            Pinv[rr][j] -= k * Pinv[rr][i]
    return P, Pinv


def test_gauge_freedom():
    rng = random.Random(31)
    for _ in range(10):
        n, m = rng.randint(2, 5), rng.randint(2, 5)
        mat = random_int_matrix(rng, n, m)
        dec = rank_decompose_rref(mat)
        if dec.r == 0:
            continue
        P, Pinv = _random_unimodular(rng, dec.r)
        d1 = [
            [sum(P[l2][l] * dec.d1[l2][i] for l2 in range(dec.r)) for i in range(n)]
            for l in range(dec.r)
        ]
        d2 = [
            [sum(Pinv[l][l2] * dec.d2[l2][j] for l2 in range(dec.r)) for j in range(m)]
            for l in range(dec.r)
        ]
        target = DenseTensor.matrix(mat)
        terms = [
            [DenseTensor.vector(d1[l]), DenseTensor.vector(d2[l])]
            for l in range(dec.r)
        ]
        ok, residual = verify_decomposition(target, terms)
        assert ok and residual == 0.0


WRONG_RREF = """
import sys
import tenalg.rank as rank

real_rref = rank.rref


def wrong_rref(M):
    R, pivots = real_rref(M)
    R[0] = [x + 1 for x in R[0]]
    return R, pivots


rank.rref = wrong_rref
print("optimize", sys.flags.optimize)
try:
    rank.rank_decompose_rref([[1, 2], [3, 4]])
except RuntimeError as exc:
    print("raised", exc)
"""


def test_rref_reconstruction_check_survives_optimize():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", WRONG_RREF],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "optimize 1" in proc.stdout
    assert "raised RREF decomposition failed to reconstruct its input" in proc.stdout


# -- SVD -------------------------------------------------------------------------


def _reconstruct(U, sig, Vt, n, m):
    out = [[0.0] * m for _ in range(n)]
    for l, s in enumerate(sig):
        for i in range(n):
            for j in range(m):
                out[i][j] += U[i][l] * s * Vt[l][j]
    return out


def _max_abs_diff(X, Y):
    return max(abs(a - b) for rx, ry in zip(X, Y) for a, b in zip(rx, ry))


def _orthogonality_defect(Q):
    n = len(Q)
    worst = 0.0
    for i in range(n):
        for j in range(n):
            dot = sum(Q[r][i] * Q[r][j] for r in range(n))
            worst = max(worst, abs(dot - (1.0 if i == j else 0.0)))
    return worst


def test_svd_diagonal():
    U, sig, Vt = svd([[3.0, 0.0], [0.0, 1.0]])
    assert sig == [3.0, 1.0]
    assert _orthogonality_defect(U) <= 1e-10
    assert _orthogonality_defect(Vt) <= 1e-10


def test_svd_rank_one_singular_values():
    U, sig, Vt = svd(A)
    assert abs(sig[0] - math.sqrt(125)) <= 1e-9
    assert abs(sig[1]) <= 1e-9


def test_svd_random_reconstruction():
    rng = random.Random(7)
    mat = [[rng.uniform(-3, 3) for _ in range(3)] for _ in range(4)]
    U, sig, Vt = svd(mat)
    assert _max_abs_diff(_reconstruct(U, sig, Vt, 4, 3), mat) <= 1e-9
    assert _orthogonality_defect(U) <= 1e-10
    assert _orthogonality_defect(Vt) <= 1e-10
    assert all(s1 >= s2 >= 0 for s1, s2 in zip(sig, sig[1:]))


def test_svd_wide_matrix():
    rng = random.Random(9)
    mat = [[rng.uniform(-2, 2) for _ in range(5)] for _ in range(2)]
    U, sig, Vt = svd(mat)
    assert len(U) == 2 and len(U[0]) == 2
    assert len(Vt) == 5 and len(Vt[0]) == 5
    assert len(sig) == 2
    assert _max_abs_diff(_reconstruct(U, sig, Vt, 2, 5), mat) <= 1e-9
    assert _orthogonality_defect(Vt) <= 1e-10


def test_svd_zero_matrix():
    U, sig, Vt = svd([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    assert sig == [0.0, 0.0]
    assert _orthogonality_defect(U) <= 1e-12


def test_svd_decompose_rank_one():
    dec = rank_decompose_svd(A)
    assert dec.r == 1
    target = DenseTensor.matrix([[3.0, 4.0], [6.0, 8.0]], REAL)
    ok, residual = verify_decomposition(target, decomposition_terms(dec))
    assert ok and residual <= 1e-9


def test_svd_decompose_zero():
    dec = rank_decompose_svd([[0.0, 0.0], [0.0, 0.0]])
    assert dec.r == 0 and dec.d1 == () and dec.d2 == ()


def test_svd_decompose_B():
    assert rank_decompose_svd(B).r == 2


def test_rank_agreement_small():
    rng = random.Random(13)
    for _ in range(40):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        mat = random_int_matrix(rng, n, m)
        assert rank_decompose_rref(mat).r == rank_decompose_svd(mat).r


# -- verification ------------------------------------------------------------------


def test_verify_z_real_terms(z_fixture):
    z, real_terms, _ = z_fixture
    ok, residual = verify_decomposition(z, real_terms)
    assert ok and residual == 0.0


def test_verify_z_complex_terms(z_fixture):
    z_complex = DenseTensor(z_fixture[0].shape, [complex(c) for c in z_fixture[0].coeffs], "complex")
    ok, residual = verify_decomposition(z_complex, z_fixture[2])
    assert ok and residual <= 1e-9


def test_verify_valid_but_not_minimal_three_terms():
    target = DenseTensor.matrix(M)
    terms = [
        [DenseTensor.vector([4, 2, -1]), DenseTensor.vector([1, 0, 0])],
        [DenseTensor.vector([1, 1, -1]), DenseTensor.vector([-1, 2, 1])],
        [DenseTensor.vector([1, 0, 0]), DenseTensor.vector([0, 2, 1])],
    ]
    ok, residual = verify_decomposition(target, terms)
    assert ok and residual == 0.0
    assert len(terms) > rank_decompose_rref(M).r  # valid, yet not minimal


def test_verify_rejects_wrong_decomposition(z_fixture):
    z, real_terms, _ = z_fixture
    broken = [term[:] for term in real_terms[:2]]
    ok, residual = verify_decomposition(z, broken)
    assert not ok and residual > 0.5


def test_verify_shape_mismatch(z_fixture):
    z, _, _ = z_fixture
    with pytest.raises(ShapeMismatchError):
        verify_decomposition(z, [[DenseTensor.vector([1.0, 0.0], REAL)] * 2])
    with pytest.raises(ShapeMismatchError):
        verify_decomposition(
            z,
            [[DenseTensor.vector([1.0, 0.0, 0.0], REAL)] * 3],
        )
