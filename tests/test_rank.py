import itertools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tenalg.rank as rank_module
from tenalg import (
    DenseTensor,
    FieldMismatchError,
    ShapeMismatchError,
    matrix_rank,
    rank_decompose_rref,
    rank_decompose_svd,
    rref,
    svd,
    verify_decomposition,
)
from tenalg.cli import main
from tenalg.rank import EPS_RANK, EPS_SVD, ConvergenceError, decomposition_terms
from tenalg.scalars import COMPLEX, EPS_F, RATIONAL, REAL, one, zero

A = [[3, 4], [6, 8]]
B = [[1, 0], [1, 1]]
M = [[3, 4, 2], [1, 2, 1], [0, -2, -1]]


def random_int_matrix(rng, n, m, lo=-5, hi=5):
    return [[rng.randint(lo, hi) for _ in range(m)] for _ in range(n)]


def svd_rank(M):
    """The rank-only SVD route."""
    return matrix_rank(M, "svd")


def rref_rank(M):
    """The rank-only exact route."""
    return matrix_rank(M, "rref")


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


def _fraction_rref(M):
    """Gauss-Jordan elimination over Fractions: the reference for ``rref``."""
    R = [[F(x) for x in row] for row in M]
    if not R:
        return [], []
    n, m = len(R), len(R[0])
    pivots = []
    row = 0
    for col in range(m):
        sel = None
        for i in range(row, n):
            if R[i][col] != 0:
                sel = i
                break
        if sel is None:
            continue
        R[row], R[sel] = R[sel], R[row]
        pv = R[row][col]
        R[row] = [x / pv for x in R[row]]
        for i in range(n):
            if i != row and R[i][col] != 0:
                f = R[i][col]
                R[i] = [a - f * b for a, b in zip(R[i], R[row])]
        pivots.append(col + 1)
        row += 1
        if row == n:
            break
    return R, pivots


# about half the entries zero, so that rows often have a zero in the pivot column
_entries = st.one_of(st.just(F(0)), st.fractions(min_value=-20, max_value=20, max_denominator=12))


@st.composite
def rational_matrices(draw):
    """Mixed denominators, planted rank deficiency, and zeroed rows and columns."""
    n, m = draw(st.integers(1, 7)), draw(st.integers(1, 7))

    def block(rows, cols):
        return draw(st.lists(st.lists(_entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows))

    if draw(st.booleans()):
        r = draw(st.integers(0, min(n, m)))
        left, right = block(n, r), block(r, m)
        M = [[sum((left[i][l] * right[l][j] for l in range(r)), F(0)) for j in range(m)] for i in range(n)]
    else:
        M = block(n, m)
    zero_rows = draw(st.sets(st.integers(0, n - 1), max_size=n))
    zero_cols = draw(st.sets(st.integers(0, m - 1), max_size=m))
    return [[F(0) if i in zero_rows or j in zero_cols else M[i][j] for j in range(m)] for i in range(n)]


@settings(deadline=None, max_examples=300)
@given(rational_matrices())
@example([[F(0)] * 4] * 3)
@example([[F(1, 2), F(-3, 4), F(0), F(5, 6)]])
@example([[F(2, 3)], [F(0)], [F(-1, 5)]])
def test_rref_matches_fraction_elimination(M):
    R, pivots = rref(M)
    assert (R, pivots) == _fraction_rref(M)
    assert all(type(x) is F for row in R for x in row)
    dec = rank_decompose_rref(M)
    assert dec.r == len(pivots) and [list(row) for row in dec.d2] == R[: dec.r]


@settings(deadline=None, max_examples=300)
@given(rational_matrices())
@example([[F(0)] * 4] * 3)
def test_rank_only_rref_route_counts_the_pivots_of_rref(M):
    assert rref_rank(M) == len(rref(M)[1])


def test_rank_only_routes_refuse_an_unknown_method():
    with pytest.raises(ValueError, match="unknown rank method"):
        matrix_rank([[1, 2], [3, 4]], "qr")


def _double_row(R):
    R[0] = [2 * x for x in R[0]]  # pivot entry 2: same row space, wrong scale


def _off_by_a_seventh(R):
    R[1][2] += F(1, 7)


@pytest.mark.parametrize("corrupt", [_double_row, _off_by_a_seventh])
def test_rref_reconstruction_check_rejects_wrong_echelon_form(monkeypatch, corrupt):
    real_rref = rank_module.rref

    def wrong_rref(matrix):
        R, pivots = real_rref(matrix)
        corrupt(R)
        return R, pivots

    monkeypatch.setattr(rank_module, "rref", wrong_rref)
    with pytest.raises(RuntimeError, match="failed to reconstruct"):
        rank_decompose_rref(M)


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


def test_matrix_rank_of_the_zero_matrix_by_svd():
    assert matrix_rank([[0, 0], [0, 0]], "svd") == 0


def test_svd_decompose_B():
    assert rank_decompose_svd(B).r == 2


# planted rank-4 integer matrix on which the sweeps used to divide by an
# alpha * beta that had underflowed to zero
UNDERFLOW_8X8 = [
    [-1, 1, 1, -6, -1, 1, 2, 3],
    [-17, 21, -6, -3, -2, 18, 5, -13],
    [11, -17, 4, -3, -2, -8, -7, 15],
    [-1, 0, -5, -13, 6, -3, 5, 3],
    [0, 0, 0, 0, 0, 0, 0, 0],
    [-4, 3, 2, 13, -9, 12, -9, -4],
    [7, -5, 7, -6, 1, -11, 6, 7],
    [15, -13, 6, -7, 9, -25, 9, 9],
]


# planted rank-5 integer matrix that divided by zero the same way
UNDERFLOW_10X10 = [
    [-3, -5, -15, -10, 22, -1, -7, -8, 0, -9],
    [-3, 3, 4, 8, 11, 0, 3, 4, 3, 11],
    [-3, 6, -11, -9, 0, 7, -9, 0, 1, 7],
    [0, 0, -6, -3, -18, 3, -3, 9, -15, -6],
    [6, 2, 16, 3, -12, -2, 6, -8, 15, 4],
    [6, -9, -10, -4, -6, 1, -5, 3, -14, -20],
    [6, -9, -10, -4, -6, 1, -5, 3, -14, -20],
    [-15, 1, 0, -12, -5, -12, 7, -8, -5, -5],
    [3, -5, -10, -13, 5, 0, -7, -12, 4, -13],
    [18, -3, -2, 7, 14, 12, -10, -2, 15, 2],
]


def _check_rank_deficient(mat, r):
    dec = rank_decompose_svd(mat)
    assert dec.r == r == svd_rank(mat) == rref_rank(mat)
    target = DenseTensor.matrix([[float(x) for x in row] for row in mat], REAL)
    ok, _ = verify_decomposition(target, decomposition_terms(dec))
    assert ok


def test_svd_rank_deficient_8x8_does_not_underflow():
    _check_rank_deficient(UNDERFLOW_8X8, 4)


def test_svd_rank_deficient_10x10_does_not_underflow():
    _check_rank_deficient(UNDERFLOW_10X10, 5)


@st.composite
def planted_int_matrices(draw, size=6):
    n, m = draw(st.integers(1, size)), draw(st.integers(1, size))
    r = draw(st.integers(0, min(n, m)))
    ints = st.integers(-3, 3)
    left = draw(st.lists(st.lists(ints, min_size=r, max_size=r), min_size=n, max_size=n))
    right = draw(st.lists(st.lists(ints, min_size=m, max_size=m), min_size=r, max_size=r))
    return [[sum(left[i][l] * right[l][j] for l in range(r)) for j in range(m)] for i in range(n)]


@settings(deadline=None, max_examples=60)
@given(planted_int_matrices(), st.sampled_from([150, -150, 300, -300]))
@example([[1, 1], [1, 2]], 160)
@example([[1, 1], [1, 2]], -160)
def test_svd_rank_invariant_under_extreme_scaling(mat, k):
    scaled = [[x * 10.0**k for x in row] for row in mat]
    r = rank_decompose_rref(mat).r
    assert rank_decompose_svd(scaled).r == rank_decompose_svd(mat).r == r
    assert svd_rank(scaled) == svd_rank(mat) == rref_rank(mat) == r


def _uniform_matrix(seed, n, m):
    rng = random.Random(seed)
    return [[rng.uniform(-1, 1) for _ in range(m)] for _ in range(n)]


@settings(deadline=None)
@given(planted_int_matrices(7), st.integers(-1000, 1000))
@example(_uniform_matrix(3, 5, 4), -600)
def test_svd_power_of_two_scaling_is_exact(mat, j):
    # integer entries stay normal at every 2^j drawn, so the input scales exactly
    U, sig, Vt = svd(mat)
    U2, sig2, Vt2 = svd([[math.ldexp(x, j) for x in row] for row in mat])
    assert U2 == U and Vt2 == Vt and sig2 == [math.ldexp(s, j) for s in sig]


@pytest.mark.parametrize(
    "values, k",
    [
        ([1.0], 0),
        ([1.9999999999999998], 0),
        ([2.0], 1),
        ([0.5], -1),
        ([5e-324], -1074),
        ([1.7976931348623157e308], 1023),
        ([0.0, -0.0], -1),
        ([], -1),
        ([3 + 4j], 2),
    ],
)
def test_exponent_brackets_the_largest_magnitude(values, k):
    assert rank_module._exponent(values) == k


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_svd_rejects_non_finite_entries(bad):
    for route in (rank_decompose_svd, svd_rank):
        with pytest.raises(ValueError, match="finite"):
            route([[1.0, bad], [0.0, 1.0]])


@pytest.mark.parametrize("route", [svd, svd_rank])
def test_a_singular_value_beyond_the_float_range_is_a_value_error(route):
    with pytest.raises(ValueError, match="singular value of the matrix exceeds the float range"):
        route([[1e308, 1e308], [1e308, 1e308]])


@pytest.mark.parametrize("route", [svd, svd_rank])
def test_the_sweep_cap_raises_convergence_error(monkeypatch, route):
    monkeypatch.setattr(rank_module, "SVD_MAX_SWEEPS", 0)
    with pytest.raises(ConvergenceError, match="did not converge within 0 sweeps"):
        route([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]])


@pytest.mark.parametrize(
    "route, rows, error",
    [
        (rref, [[1], [3, 4]], ShapeMismatchError),
        (rref, [], ShapeMismatchError),
        (rref, [[]], ShapeMismatchError),
        (rref, [[0.1, 1]], FieldMismatchError),
        (rref, [[True, 1]], FieldMismatchError),
        (rref, [["1/2", 1]], FieldMismatchError),
        (svd, [["1", "2"], ["3", "4"]], FieldMismatchError),
        (svd, [[1, 2], [3]], ShapeMismatchError),
        (svd, [[1j, 2], [3, 4]], FieldMismatchError),
        (rank_decompose_rref, [[1.0, 2.0]], FieldMismatchError),
        (rank_decompose_svd, [[False, 2.0]], FieldMismatchError),
        (rref_rank, [[1], [3, 4]], ShapeMismatchError),
        (rref_rank, [[]], ShapeMismatchError),
        (rref_rank, [[0.1, 1]], FieldMismatchError),
        (svd_rank, [], ShapeMismatchError),
        (svd_rank, [["1", "2"], ["3", "4"]], FieldMismatchError),
        (svd_rank, [[1j, 2], [3, 4]], FieldMismatchError),
    ],
)
def test_matrix_intake_refuses_ragged_rows_and_foreign_scalars(route, rows, error):
    with pytest.raises(error):
        route(rows)


@pytest.mark.parametrize("route", [rref, svd, rank_decompose_rref, rank_decompose_svd, rref_rank, svd_rank])
def test_matrix_intake_refuses_other_fields_and_orders(route):
    field = COMPLEX if route in (svd, rank_decompose_svd, svd_rank) else REAL
    with pytest.raises(FieldMismatchError):
        route(DenseTensor.matrix([[1, 2], [3, 4]], field))
    with pytest.raises(ShapeMismatchError):
        route(DenseTensor.vector([1, 2], RATIONAL))


@pytest.mark.parametrize("route", [svd, rank_decompose_svd, svd_rank])
def test_svd_of_a_rational_beyond_the_float_range_is_a_value_error(route):
    huge = DenseTensor.matrix([[10**400, 1], [0, 1]], RATIONAL)
    with pytest.raises(ValueError, match="float range"):
        route(huge)
    assert rank_decompose_rref(huge).r == rref_rank(huge) == 2


def test_svd_reads_a_rational_tensor_as_its_float_values():
    rows = [[F(1, 3), F(-2)], [F(5, 7), F(1, 10)]]
    assert svd(DenseTensor.matrix(rows, RATIONAL)) == svd([[float(x) for x in r] for r in rows])
    assert rank_decompose_svd(DenseTensor.matrix(rows, RATIONAL)) == rank_decompose_svd(rows)


def test_rank_agreement_small():
    rng = random.Random(13)
    for _ in range(40):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        mat = random_int_matrix(rng, n, m)
        assert rank_decompose_rref(mat).r == rank_decompose_svd(mat).r


# -- the rank-only routes ------------------------------------------------------------


def _random_orthogonal(rng, n):
    """Product of n Householder reflections of Gaussian vectors, as a list of rows."""
    Q = [[float(i == j) for j in range(n)] for i in range(n)]
    for _ in range(n):
        v = [rng.gauss(0.0, 1.0) for _ in range(n)]
        h = 2.0 / sum(x * x for x in v)
        # Q <- Q (I - h v v^T)
        Qv = [sum(q * x for q, x in zip(row, v)) for row in Q]
        Q = [[q - h * qv * x for q, x in zip(row, v)] for row, qv in zip(Q, Qv)]
    return Q


@st.composite
def planted_spectra(draw):
    """(M, r): M = U diag(sigma) V^T with orthogonal U, V and sigma_max = scale,
    every other singular value either far above the rank threshold, 5% to
    10x above it, below 95% of it, zero, or within 1e-3 of it.  r is the
    planted rank, or None once a value lies within 1e-3 of the threshold:
    forming M and the sweeps' rounding move a value by about 1e-15 *
    sigma_max * max(n, m), far inside the 5% gap but not inside that one."""
    n, m = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    scale = draw(st.sampled_from([1.0, 3.7e-5, 1e200, 1e-200]))
    thresh = EPS_RANK * max(n, m)
    sigma = [1.0]
    near = False
    for _ in range(min(n, m) - 1):
        kind = draw(st.sampled_from(["large", "above", "below", "zero", "near"]))
        if kind == "large":
            sigma.append(draw(st.floats(1e-6, 1.0)))
        elif kind == "above":
            sigma.append(thresh * draw(st.floats(1.05, 10.0)))
        elif kind == "below":
            sigma.append(thresh * draw(st.floats(0.0, 0.95)))
        elif kind == "zero":
            sigma.append(0.0)
        else:
            sigma.append(thresh * draw(st.floats(1.0 - 1e-3, 1.0 + 1e-3)))
            near = True
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    U, V = _random_orthogonal(rng, n), _random_orthogonal(rng, m)
    M = [
        [scale * sum(U[i][l] * s * V[j][l] for l, s in enumerate(sigma)) for j in range(m)]
        for i in range(n)
    ]
    return M, None if near else sum(1 for s in sigma if s > thresh)


@settings(deadline=None, max_examples=200)
@given(planted_spectra())
def test_rank_only_svd_route_agrees_with_the_decomposition_on_and_off_the_threshold(case):
    M, r = case
    assert svd_rank(M) == rank_decompose_svd(M).r
    if r is not None:
        assert svd_rank(M) == r


def _just_under_the_threshold(seed, sigma_4=7.2e-4):
    """8x8 U diag(1e6, 5e5, 3e5, sigma_4, 0, ...) V^T: by default the fourth
    singular value lies just under the rank threshold 1e-10 * 1e6 * 8 = 8e-4."""
    rng = random.Random(seed)
    U, V = _random_orthogonal(rng, 8), _random_orthogonal(rng, 8)
    sigma = [1e6, 5e5, 3e5, sigma_4, 0.0, 0.0, 0.0, 0.0]
    return [[sum(U[i][l] * s * V[j][l] for l, s in enumerate(sigma)) for j in range(8)] for i in range(8)]


@pytest.mark.parametrize("seed", range(20))
def test_svd_decomposition_accepts_its_own_truncation(seed):
    """Dropping sigma_4 moves an entry by up to 7.2e-4, more than the
    EPS_F tolerance alone allows at these magnitudes (seeds 6 and 9)."""
    assert rank_decompose_svd(_just_under_the_threshold(seed)).r == 3


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("sigma_4", [7.2e-4, 8e-4 * (1 - 1e-3), 8e-4, 8e-4 * (1 + 1e-3)])
def test_rank_only_svd_route_agrees_with_the_decomposition_at_the_threshold(seed, sigma_4):
    M = _just_under_the_threshold(seed, sigma_4)
    assert svd_rank(M) == rank_decompose_svd(M).r


@pytest.mark.parametrize("where", ["d2", "d1"])
def test_svd_decomposition_check_still_rejects_a_wrong_factor(monkeypatch, where):
    real_svd = rank_module.svd

    def corrupted_svd(matrix):
        U, sig, Vt = real_svd(matrix)
        if where == "d2":
            Vt[0][0] += 1e-6  # moves D2 = S'V'^T by 1e-6 * 1e6 = 1
        else:
            U[0][1] += 1e-6
        return U, sig, Vt

    monkeypatch.setattr(rank_module, "svd", corrupted_svd)
    with pytest.raises(ConvergenceError, match="residual"):
        rank_decompose_svd(_just_under_the_threshold(6))


def _planted(rng, n, m, r):
    left = random_int_matrix(rng, n, r, -3, 3)
    right = random_int_matrix(rng, r, m, -3, 3)
    return [[sum(left[i][l] * right[l][j] for l in range(r)) for j in range(m)] for i in range(n)]


def _transpose(mat):
    return [list(col) for col in zip(*mat)]


@pytest.mark.parametrize("seed", range(8))
def test_the_kernel_without_vectors_keeps_every_bit_of_svd(seed):
    """The rank-only route runs the svd kernel without W, U or V."""
    rng = random.Random(seed)
    n, m = rng.randint(1, 12), rng.randint(1, 12)
    if seed % 2:
        mat = [[rng.uniform(-1, 1) for _ in range(m)] for _ in range(n)]
    else:
        r = rng.randint(0, min(n, m))
        mat = [[float(x) for x in row] for row in _planted(rng, n, m, r)]
    for M in (mat, _transpose(mat)):
        n, m, cols = rank_module._tall(M)
        assert rank_module._qr_jacobi(cols, False)[0] == svd(M)[1]


def _check_svd_contract(mat):
    """The documented contract of svd: orthogonal factors, a reconstruction
    within EPS_SVD plus the QR drop, sorted sigma and the sign rule."""
    n, m = len(mat), len(mat[0])
    U, sig, Vt = svd(mat)
    assert len(U) == n and len(Vt) == m and len(sig) == min(n, m)
    assert _orthogonality_defect(U) <= EPS_SVD
    assert _orthogonality_defect(Vt) <= EPS_SVD
    assert all(s1 >= s2 >= 0.0 for s1, s2 in zip(sig, sig[1:] + [0.0]))
    smax = sig[0]
    drop = rank_module._QR_DROP * EPS_RANK * max(n, m) * smax
    assert _max_abs_diff(_reconstruct(U, sig, Vt, n, m), mat) <= EPS_SVD * smax + drop
    for l in range(min(n, m)):
        col = [U[i][l] for i in range(n)]
        assert max(col, key=abs) > 0.0


@st.composite
def scaled_planted_matrices(draw):
    n, m = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    r = draw(st.integers(0, min(n, m)))
    mat = _planted(random.Random(draw(st.integers(0, 2**32 - 1))), n, m, r)
    scale = draw(st.sampled_from([1.0, 1e200, 1e-200, 3.7e-5]))
    return [[x * scale for x in row] for row in mat]


@settings(deadline=None, max_examples=150)
@given(scaled_planted_matrices())
@example([[0.0, 0.0, 0.0]])
@example([[-1.0, 1.0], [1.0, -1.0], [2.0, 2.0]])
@example([[1.0, -2.0, 3.0], [-2.0, 4.0, -6.0]])
@example([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0], [1.0, 1.0, 1.0, 1.0], [2.0, 1.0, 2.0, 1.0]])
def test_svd_keeps_its_contract_on_planted_matrices(mat):
    _check_svd_contract(mat)
    _check_svd_contract(_transpose(mat))


def test_svd_keeps_its_contract_on_a_40x40_rank_24_matrix():
    ints = _planted(random.Random(24), 40, 40, 24)
    mat = [[float(x) for x in row] for row in ints]
    _check_svd_contract(mat)
    assert rank_decompose_svd(mat).r == svd_rank(mat) == rref_rank(ints) == 24


@pytest.mark.parametrize("method", ["rref", "svd"])
def test_cli_rank_agrees_with_the_exact_decomposition_on_criterion_6(tmp_path, capsys, method):
    """Acceptance criterion 6's 100 matrices, through ``tenalg rank``."""
    rng = random.Random(600)
    f = tmp_path / "M.json"
    for _ in range(100):
        n, m = rng.randint(1, 8), rng.randint(1, 8)
        mat = [[rng.randint(-5, 5) for _ in range(m)] for _ in range(n)]
        f.write_text(json.dumps({"shape": [n, m], "field": "rational", "coeffs": [str(x) for row in mat for x in row]}))
        assert main(["rank", str(f), "--method", method]) == 0
        assert capsys.readouterr().out == f"{rank_decompose_rref(mat).r}\n", mat


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


def test_verify_mixed_fields_raise():
    real = [DenseTensor.vector([1.0, 0.0], REAL)] * 2
    with pytest.raises(FieldMismatchError):
        verify_decomposition(DenseTensor.matrix([[1, 0], [0, 0]]), [real])
    with pytest.raises(FieldMismatchError):
        verify_decomposition(DenseTensor.matrix([[1, 0], [0, 0]], COMPLEX), [real])
    with pytest.raises(FieldMismatchError):
        verify_decomposition(
            DenseTensor.matrix([[1.0, 0.0], [0.0, 0.0]], REAL),
            [[DenseTensor.vector([1, 0]), DenseTensor.vector([1.0, 0.0], REAL)]],
        )


@pytest.mark.parametrize("field", [REAL, COMPLEX])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("slot", [0, 1])
def test_verify_non_finite_factor_never_verifies(field, bad, slot):
    eye = DenseTensor.matrix([[1, 0], [0, 1]], field)
    e1, e2 = DenseTensor.vector([1, 0], field), DenseTensor.vector([0, 1], field)
    corrupted = [e2, e2]
    corrupted[slot] = DenseTensor.vector([0, bad], field)
    ok, residual = verify_decomposition(eye, [[e1, e1], corrupted])
    assert ok is False and not math.isfinite(residual)
    all_bad = DenseTensor.vector([bad, bad], field)
    ok, residual = verify_decomposition(eye, [[all_bad, all_bad]])
    assert ok is False and not math.isfinite(residual)


# finite parts, but a modulus of about 2.4e308: abs() of it overflows
HUGE_MODULUS = complex(1.7e308, 1.7e308)


def test_verify_refuses_a_complex_target_beyond_the_float_range():
    with pytest.raises(ValueError, match="complex value's modulus exceeds the float range"):
        verify_decomposition(DenseTensor((1, 1), [HUGE_MODULUS], COMPLEX), [])


def test_verify_complex_mismatch_beyond_the_float_range_never_verifies():
    # target and factor are each in range; their difference's modulus is not
    target = DenseTensor((1, 1), [complex(1.3e308, 0)], COMPLEX)
    term = [DenseTensor.vector([complex(0, -1.3e308)], COMPLEX), DenseTensor.vector([1], COMPLEX)]
    assert verify_decomposition(target, [term]) == (False, math.inf)
    # a factor beyond the range is no error: the term's product can come back into range
    half = [DenseTensor.vector([HUGE_MODULUS], COMPLEX), DenseTensor.vector([0.5], COMPLEX)]
    assert verify_decomposition(DenseTensor((1, 1), [HUGE_MODULUS / 2], COMPLEX), [half]) == (True, 0.0)


def test_svd_decomposition_check_rejects_nan(monkeypatch):
    real_svd = rank_module.svd

    def nan_svd(matrix):
        U, sig, Vt = real_svd(matrix)
        U[1][0] = math.nan
        return U, sig, Vt

    monkeypatch.setattr(rank_module, "svd", nan_svd)
    with pytest.raises(ConvergenceError, match="residual nan"):
        rank_decompose_svd([[1.0, 2.0], [3.0, 4.0]])


def _reference_expansion(field, shape, terms):
    """Sum of the terms' outer products, one multi-index at a time."""
    out = []
    for idx in itertools.product(*map(range, shape)):
        val = zero(field)
        for factors in terms:
            p = one(field)
            for v, i in zip(factors, idx):
                p = p * v[i]
            val = val + p
        out.append(val)
    return out


@st.composite
def decomposition_cases(draw):
    """(field, shape, target, terms): orders 1-3, up to 3 terms (possibly none);
    the target is random, the terms' exact sum, or that sum with one entry moved."""
    field = draw(st.sampled_from([RATIONAL, REAL, COMPLEX]))
    shape = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))

    def scalar():
        if field == RATIONAL:
            return F(draw(st.integers(-4, 4)), draw(st.integers(1, 4)))
        x = draw(st.floats(-4, 4))
        return x if field == REAL else complex(x, draw(st.floats(-4, 4)))

    terms = [[[scalar() for _ in range(d)] for d in shape] for _ in range(draw(st.integers(0, 3)))]
    kind = draw(st.sampled_from(["random", "exact", "moved"]))
    if kind == "random":
        target = [scalar() for _ in range(math.prod(shape))]
    else:
        target = _reference_expansion(field, shape, terms)
        if kind == "moved":
            i = draw(st.integers(0, len(target) - 1))
            target[i] += F(1, 7) if field == RATIONAL else 1e-6
    return field, shape, target, terms


@settings(deadline=None, max_examples=300)
@given(decomposition_cases())
def test_verify_matches_multi_index_reference(case):
    """The reference sums in the kernel's order, so even float residuals agree exactly."""
    field, shape, target, terms = case
    ok, residual = verify_decomposition(
        DenseTensor(shape, target, field),
        [[DenseTensor.vector(v, field) for v in term] for term in terms],
    )
    expansion = _reference_expansion(field, shape, terms)
    worst = max(abs(a - b) for a, b in zip(expansion, target))
    if field == RATIONAL:
        assert (ok, residual) == (worst == 0, float(worst))
    else:
        assert residual == worst
        assert ok == (worst <= EPS_F + EPS_F * max(map(abs, target)))
