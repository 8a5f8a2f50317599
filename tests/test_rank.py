import itertools
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
    rank_decompose_rref,
    rank_decompose_svd,
    rref,
    svd,
    verify_decomposition,
)
from tenalg.rank import ConvergenceError, decomposition_terms
from tenalg.scalars import COMPLEX, EPS_F, RATIONAL, REAL, one, zero

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


def test_svd_rank_deficient_8x8_does_not_underflow():
    dec = rank_decompose_svd(UNDERFLOW_8X8)
    assert dec.r == 4
    target = DenseTensor.matrix([[float(x) for x in row] for row in UNDERFLOW_8X8], REAL)
    ok, _ = verify_decomposition(target, decomposition_terms(dec))
    assert ok


@st.composite
def planted_int_matrices(draw):
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
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
    assert rank_decompose_svd(scaled).r == rank_decompose_svd(mat).r == rank_decompose_rref(mat).r


def test_svd_power_of_two_scaling_is_exact():
    rng = random.Random(3)
    mat = [[rng.uniform(-1, 1) for _ in range(4)] for _ in range(5)]
    U, sig, Vt = svd(mat)
    U2, sig2, Vt2 = svd([[x * 2.0**-600 for x in row] for row in mat])
    assert U2 == U and Vt2 == Vt and sig2 == [s * 2.0**-600 for s in sig]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_svd_rejects_non_finite_entries(bad):
    with pytest.raises(ValueError, match="finite"):
        rank_decompose_svd([[1.0, bad], [0.0, 1.0]])


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
