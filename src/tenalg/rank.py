"""Rank and rank decomposition of order-2 tensors.

Two routes:

* exact route over the rationals: reduced row echelon form, with the factor
  matrices read off as D1^T = pivot columns of M and D2 = non-zero rows of
  the echelon form, so that M = D1^T D2 holds exactly.  The elimination and
  the check of M = D1^T D2 both run over Python ints (fraction-free
  Gauss-Jordan on rows scaled by the lcm of their denominators); Fractions
  appear only in the input and in the emitted echelon form;
* floating route over the reals: one-sided Jacobi SVD built from scratch,
  run on the input scaled by a power of two so that huge or tiny entries
  neither overflow nor underflow, with the rank read off the singular values
  and D1^T = U', D2 = S'V'^T.

Rank decompositions are never unique; every emitted decomposition is checked
by re-expansion in :func:`_residual`, which also serves verification and ALS.
For tensors of order three and up no exact rank routine is offered (that
problem is NP-hard); only verification of supplied decompositions lives here.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

from . import scalars
from .dense import DenseTensor, ShapeMismatchError
from .scalars import RATIONAL, REAL, integer_row

__all__ = [
    "ConvergenceError",
    "RankDecomposition",
    "rref",
    "rank_decompose_rref",
    "svd",
    "rank_decompose_svd",
    "verify_decomposition",
    "decomposition_terms",
]

# singular values sigma <= EPS_RANK * sigma_max * max(n, m) count as zero
EPS_RANK = 1e-10
# contract tolerance on orthogonality / reconstruction of the SVD output
EPS_SVD = 1e-10
# internal sweep target on the normalized off-diagonal mass |w_p.w_q|/(|w_p||w_q|);
# tighter than EPS_SVD so the contract holds with margin, still above the
# ~n*eps_machine round-off floor of the dot products
_SWEEP_TOL = 1e-13
# sweep cap before declaring non-convergence
SVD_MAX_SWEEPS = 10_000


class ConvergenceError(RuntimeError):
    """An iterative numeric routine failed to converge within its cap."""


@dataclass(frozen=True)
class RankDecomposition:
    """Factor matrices (rows are the rank-1 factors) with M = D1^T D2."""

    r: int
    d1: tuple  # r x n
    d2: tuple  # r x m
    field: str


def _as_fraction_matrix(M) -> List[List[Fraction]]:
    if isinstance(M, DenseTensor):
        if M.order != 2:
            raise ShapeMismatchError(f"expected an order-2 tensor, got order {M.order}")
        if M.field != RATIONAL:
            raise scalars.FieldMismatchError("the RREF route needs the rational field")
        n, m = M.shape
        return [[M.coeffs[i * m + j] for j in range(m)] for i in range(n)]
    return [[x if type(x) is Fraction else Fraction(x) for x in row] for row in M]


def rref(M) -> Tuple[List[List[Fraction]], List[int]]:
    """Reduced row echelon form over the rationals.

    Returns the echelon matrix and the pivot columns (1-based, in order).
    Pivoting takes the first non-zero entry scanning top to bottom; exact
    arithmetic needs no magnitude pivoting, and this choice keeps the
    emitted decompositions deterministic.

    The elimination runs over Python ints (fraction-free Gauss-Jordan,
    Bareiss 1968): each row is first scaled by the lcm of its denominators,
    which keeps its row space, and with ``p`` the current pivot and ``prev``
    the one before it every other row becomes ``(p * row - f * pivot_row) //
    prev``.  Every division is exact, all pivot entries end up equal to the
    last pivot ``delta`` and the integer matrix equals ``delta`` times the
    echelon form, whose entries are built once as ``Fraction(a, delta)``.
    The echelon form is unique, so this is the same matrix the elimination
    over Fractions gives.
    """
    A = _as_fraction_matrix(M)
    if not A:
        return [], []
    n, m = len(A), len(A[0])
    B = [integer_row(row)[1] for row in A]
    pivots: List[int] = []
    row = 0
    prev = 1
    for col in range(m):
        sel = None
        for i in range(row, n):
            if B[i][col]:
                sel = i
                break
        if sel is None:
            continue
        B[row], B[sel] = B[sel], B[row]
        prow = B[row]
        p = prow[col]
        for i in range(n):
            if i == row:
                continue
            f = B[i][col]
            if f:
                B[i] = [(p * a - f * b) // prev for a, b in zip(B[i], prow)]
            elif p != prev:
                B[i] = [p * a // prev for a in B[i]]
        prev = p
        pivots.append(col + 1)
        row += 1
        if row == n:
            break
    return [[Fraction(a, prev) for a in bi] for bi in B], pivots


def rank_decompose_rref(M) -> RankDecomposition:
    """Exact rank decomposition via the echelon form.

    D1^T collects the pivot columns of M, D2 the non-zero rows of the
    echelon form; the reconstruction M == D1^T D2 is checked exactly, and a
    mismatch raises :class:`RuntimeError`: it is an implementation bug, not
    bad input.
    """
    A = _as_fraction_matrix(M)
    R, pivots = rref(A)
    r = len(pivots)
    d1 = tuple(tuple(row[p - 1] for row in A) for p in pivots)
    d2 = tuple(tuple(R[l]) for l in range(r))
    ok, _ = _residual(RATIONAL, [x for row in A for x in row], list(zip(d1, d2)))
    if not ok:
        raise RuntimeError("RREF decomposition failed to reconstruct its input")
    return RankDecomposition(r=r, d1=d1, d2=d2, field=RATIONAL)


# -- floating SVD route ------------------------------------------------------


def _transpose(A):
    return [list(col) for col in zip(*A)]


def _gram_schmidt_complete(cols: List[List[float]], n: int) -> List[List[float]]:
    """Extend a set of orthonormal n-vectors to an orthonormal basis of R^n."""
    basis = [c[:] for c in cols]
    for k in range(n):
        if len(basis) == n:
            break
        v = [0.0] * n
        v[k] = 1.0
        for _ in range(2):  # re-orthogonalize once for stability
            for b in basis:
                dot = sum(x * y for x, y in zip(v, b))
                v = [x - dot * y for x, y in zip(v, b)]
        norm = math.sqrt(sum(x * x for x in v))
        if norm > 1e-8:
            basis.append([x / norm for x in v])
    if len(basis) != n:
        raise ConvergenceError("failed to complete an orthonormal basis")
    return basis


def _jacobi_svd_tall(M: List[List[float]]):
    """One-sided Jacobi on an n x m matrix with n >= m.

    Rotates column pairs until every pair is orthogonal in the normalized
    sense |w_p . w_q| <= _SWEEP_TOL * |w_p| |w_q| (zero columns skipped).
    Returns (U as n columns list, sigma list of length m, V as m columns
    list).

    The sweeps run on M * 2^-e, with 2^e the power of two at or above the
    largest |entry|, and sigma is scaled back by 2^e at the end.  Scaling by
    a power of two is exact, so input in the normal range gives the same
    bits as the unscaled sweeps, while the squared column norms can neither
    overflow nor underflow to zero merely because the input is huge or tiny.
    """
    n, m = len(M), len(M[0])
    e = math.frexp(max((abs(x) for row in M for x in row), default=0.0))[1]
    w = [[math.ldexp(x, -e) for x in col] for col in zip(*M)]  # columns
    v = [[1.0 if i == j else 0.0 for i in range(m)] for j in range(m)]
    # squared column norms, recomputed only for the two columns a rotation changes
    norm2 = [sum(map(operator.mul, col, col)) for col in w]
    if m > 1 and any(norm2):
        for _ in range(SVD_MAX_SWEEPS):
            off = 0.0
            for p in range(m - 1):
                for q in range(p + 1, m):
                    alpha, beta = norm2[p], norm2[q]
                    if alpha == 0.0 or beta == 0.0:
                        continue
                    wp, wq = w[p], w[q]
                    gamma = sum(map(operator.mul, wp, wq))
                    # the product of the roots, unlike the root of the
                    # product, does not underflow to zero
                    rel = abs(gamma) / (math.sqrt(alpha) * math.sqrt(beta))
                    off = max(off, rel)
                    if rel <= 1e-14:
                        continue
                    theta = 0.5 * math.atan2(2.0 * gamma, alpha - beta)
                    c, s = math.cos(theta), math.sin(theta)
                    w[p] = new_p = [c * x + s * y for x, y in zip(wp, wq)]
                    w[q] = new_q = [-s * x + c * y for x, y in zip(wp, wq)]
                    norm2[p] = sum(map(operator.mul, new_p, new_p))
                    norm2[q] = sum(map(operator.mul, new_q, new_q))
                    vp, vq = v[p], v[q]
                    v[p] = [c * x + s * y for x, y in zip(vp, vq)]
                    v[q] = [-s * x + c * y for x, y in zip(vp, vq)]
            if off <= _SWEEP_TOL:
                break
        else:
            raise ConvergenceError(
                f"SVD did not converge within {SVD_MAX_SWEEPS} sweeps"
            )
    sig = [math.sqrt(a) for a in norm2]
    order = sorted(range(m), key=lambda j: -sig[j])
    w = [w[j] for j in order]
    v = [v[j] for j in order]
    sig = [sig[j] for j in order]
    u_cols = [[x / sg for x in col] for col, sg in zip(w, sig) if sg > 0.0]
    u_cols = _gram_schmidt_complete(u_cols, n)
    try:
        sig = [math.ldexp(sg, e) for sg in sig]
    except OverflowError:
        raise ValueError("a singular value of the matrix exceeds the float range") from None
    return u_cols, sig, v


def svd(M) -> Tuple[List[List[float]], List[float], List[List[float]]]:
    """Singular value decomposition M = U diag(sigma) V^T.

    ``M`` is a real matrix (list of rows or a real/rational order-2 tensor)
    with finite entries; a NaN or an infinity raises :class:`ValueError`.
    Returns (U, sigma, Vt): U is n x n, Vt is m x m, both orthogonal within
    EPS_SVD; sigma holds the min(n, m) singular values, non-negative and
    non-increasing.  Raises :class:`ConvergenceError` if the rotation sweep
    cap is exhausted.
    """
    rows = _as_float_matrix(M)
    n, m = len(rows), len(rows[0])
    if n >= m:
        u_cols, sig, v_cols = _jacobi_svd_tall(rows)
        # columns of V are exactly the rows of Vt
        return _transpose(u_cols), sig[:m], [list(c) for c in v_cols]
    u_cols, sig, v_cols = _jacobi_svd_tall(_transpose(rows))
    # M^T = U2 S V2^T  =>  M = V2 S^T U2^T
    return _transpose(v_cols), sig[:n], [list(c) for c in u_cols]


class _FloatRows(list):
    """Rows of finite floats made by :func:`_as_float_matrix`, which passes one through as is."""


def _as_float_matrix(M) -> _FloatRows:
    if type(M) is _FloatRows:
        return M
    if isinstance(M, DenseTensor):
        if M.order != 2:
            raise ShapeMismatchError(f"expected an order-2 tensor, got order {M.order}")
        if M.field not in (RATIONAL, REAL):
            raise scalars.FieldMismatchError("the SVD route needs real (or rational) input")
        n, m = M.shape
        rows = _FloatRows([float(M.coeffs[i * m + j]) for j in range(m)] for i in range(n))
    else:
        rows = _FloatRows([float(x) for x in row] for row in M)
    scalars.check_finite(REAL, itertools.chain.from_iterable(rows))
    return rows


def numeric_rank(sigma: Sequence[float], n: int, m: int) -> int:
    if not sigma:
        return 0
    smax = sigma[0]
    if smax == 0.0:
        return 0
    thresh = EPS_RANK * smax * max(n, m)
    return sum(1 for s in sigma if s > thresh)


def rank_decompose_svd(M) -> RankDecomposition:
    """Floating rank decomposition via the SVD: D1^T = U', D2 = S'V'^T."""
    rows = _as_float_matrix(M)
    n, m = len(rows), len(rows[0])
    U, sig, Vt = svd(rows)
    r = numeric_rank(sig, n, m)
    d1 = tuple(tuple(U[i][l] for i in range(n)) for l in range(r))
    d2 = tuple(tuple(sig[l] * Vt[l][j] for j in range(m)) for l in range(r))
    ok, res = _residual(REAL, [x for row in rows for x in row], list(zip(d1, d2)))
    if not ok:
        raise ConvergenceError(f"SVD decomposition residual {res:.3e} exceeds tolerance")
    return RankDecomposition(r=r, d1=d1, d2=d2, field=REAL)


# -- re-expansion checks --------------------------------------------------------


def _residual(field: str, target: list, terms) -> Tuple[bool, float]:
    """Re-expand a sum of rank-1 terms and compare it with ``target``.

    ``target`` is a flat row-major list; each term is a list of per-slot
    coefficient lists, whose outer product is folded left as in
    :func:`tenalg.dense.tensor_product`.  Returns ``(ok, residual)``, the
    residual being the largest absolute mismatch of one coefficient.  Over
    the rationals the check is exact and runs over ints: the target and each
    factor are scaled by the lcm of their own denominators (never by an
    entry, so a wrong factor cannot rescale itself into passing) and brought
    to one common scale ``S``.  Otherwise ``ok`` means ``residual <= EPS_F +
    EPS_F * max|target|``, and a NaN mismatch gives a NaN residual, never ok.
    """
    goal, lead = target, [1] * len(terms)
    if field == RATIONAL:
        L, goal = integer_row(target)
        terms = [[integer_row(v) for v in term] for term in terms]
        lead = [math.prod(K for K, _ in term) for term in terms]
        S = math.lcm(L, *lead)
        goal = [S // L * x for x in goal]
        lead = [S // p for p in lead]
        terms = [[v for _, v in term] for term in terms]
    total = [0] * len(goal)
    for c, vectors in zip(lead, terms):
        out = [c]
        for v in vectors:
            out = [x * y for x in out for y in v]
        total = list(map(operator.add, total, out))
    mismatch = list(map(abs, map(operator.sub, total, goal)))
    res = max(mismatch, default=0)
    if field == RATIONAL:
        return res == 0, res / S
    if any(map(math.isnan, mismatch)):
        return False, math.nan
    return res <= scalars.EPS_F + scalars.EPS_F * max(map(abs, target), default=0.0), float(res)


def verify_decomposition(target: DenseTensor, terms) -> Tuple[bool, float]:
    """Check that a sum of rank-1 terms reproduces ``target``.

    ``terms`` is a list of factor lists: term l holds one order-1 tensor per
    slot of the target.  Returns ``(ok, residual)`` where the residual is the
    largest component mismatch in absolute value (0 means exact); ``ok`` uses
    exact equality in the rational field and the EPS_F tolerance otherwise,
    and is False whenever the re-expansion holds a NaN.
    """
    vectors = []
    for factors in terms:
        factors = list(factors)
        if len(factors) != target.order:
            raise ShapeMismatchError(
                f"term has {len(factors)} factors, target has order {target.order}"
            )
        for f in factors:
            scalars.same_field(target.field, f.field)
        shape = sum((f.shape for f in factors), ())
        if shape != target.shape:
            raise ShapeMismatchError(
                f"term of shape {shape} cannot rebuild shape {target.shape}"
            )
        vectors.append([f.coeffs for f in factors])
    return _residual(target.field, target.coeffs, vectors)


def decomposition_terms(dec: RankDecomposition):
    """Rank-1 term list of a decomposition, shaped for verify_decomposition."""
    return [
        [DenseTensor.vector(u, dec.field), DenseTensor.vector(v, dec.field)]
        for u, v in zip(dec.d1, dec.d2)
    ]
