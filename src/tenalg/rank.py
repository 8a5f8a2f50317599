"""Rank and rank decomposition of order-2 tensors.

Two routes:

* exact route over the rationals: reduced row echelon form, with the factor
  matrices read off as D1^T = pivot columns of M and D2 = non-zero rows of
  the echelon form, so that M = D1^T D2 holds exactly.  The elimination and
  the check of M = D1^T D2 both run over Python ints (fraction-free
  Gauss-Jordan on rows scaled by the lcm of their denominators); Fractions
  appear only in the input and in the emitted echelon form;
* floating route over the reals: one kernel, Householder QR with column
  pivoting stopped once the trailing block is negligible, then one-sided
  Jacobi on the kept rows of R (Drmač & Veselić 2008), run on the input
  scaled by a power of two so that huge or tiny entries neither overflow
  nor underflow; the rank is read off the singular values and D1^T = U',
  D2 = S'V'^T.

:func:`matrix_rank` computes the rank alone on either route: the pivot count
of the integer elimination, or the same kernel's singular values with no
singular vectors formed.

Rank decompositions are never unique; every emitted decomposition is checked
by re-expansion in :func:`_residual`, which also serves verification and ALS.
For tensors of order three and up no exact rank routine is offered (that
problem is NP-hard); only verification of supplied decompositions lives here.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction

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
    "matrix_rank",
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
# the SVD kernel drops a trailing block of pivoted QR once its norm is at most
# this fraction of the EPS_RANK threshold, reporting its singular values as 0
# (see _qr_jacobi)
_QR_DROP = 1e-3


class ConvergenceError(RuntimeError):
    """An iterative numeric routine failed to converge within its cap."""


class RankDecomposition(namedtuple("RankDecomposition", "r d1 d2 field")):
    """Factor matrices d1 (r x n) and d2 (r x m), rows the rank-1 factors: M = D1^T D2."""

    __slots__ = ()


def _matrix(M, field: str) -> DenseTensor:
    """``M`` as an order-2 tensor of ``field``.

    A list of rows goes through :meth:`DenseTensor.matrix`, so ragged or
    empty rows are refused and every entry enters through
    :func:`tenalg.scalars.coerce`.  A rational tensor is read as real once
    when ``field`` is real; any other field change is refused.
    """
    if not isinstance(M, DenseTensor):
        return DenseTensor.matrix(M, field)
    if M.order != 2:
        raise ShapeMismatchError(f"expected an order-2 tensor, got order {M.order}")
    if M.field == field:
        return M
    if (M.field, field) != (RATIONAL, REAL):
        raise scalars.FieldMismatchError(f"expected a {field} matrix, got a {M.field} one")
    return DenseTensor(M.shape, M.coeffs, REAL)


def _bareiss(A: DenseTensor) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free Gauss-Jordan elimination of a rational matrix over ints.

    Returns ``(B, pivots, delta)``: the integer matrix B equals ``delta``
    times the reduced row echelon form, and ``pivots`` lists the pivot
    columns (1-based, in order), so their count is the rank.  See
    :func:`rref` for the method.
    """
    n, m = A.shape
    B = [integer_row(row)[1] for row in A.tolists()]
    pivots: list[int] = []
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
    return B, pivots, prev


def rref(M) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over the rationals.

    ``M`` is a rational order-2 tensor or a list of equally long rows of
    ints and Fractions.  Returns the echelon matrix and the pivot columns
    (1-based, in order).  Pivoting takes the first non-zero entry scanning
    top to bottom; exact arithmetic needs no magnitude pivoting, and this
    choice keeps the emitted decompositions deterministic.

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
    B, pivots, delta = _bareiss(_matrix(M, RATIONAL))
    return [[Fraction(a, delta) for a in bi] for bi in B], pivots


def rank_decompose_rref(M) -> RankDecomposition:
    """Exact rank decomposition via the echelon form.

    D1^T collects the pivot columns of M, D2 the non-zero rows of the
    echelon form; the reconstruction M == D1^T D2 is checked exactly, and a
    mismatch raises :class:`RuntimeError`: it is an implementation bug, not
    bad input.
    """
    A = _matrix(M, RATIONAL)
    R, pivots = rref(A)
    r = len(pivots)
    m = A.shape[1]
    d1 = tuple(tuple(A.coeffs[p - 1 :: m]) for p in pivots)
    d2 = tuple(tuple(R[l]) for l in range(r))
    ok, _ = _residual(RATIONAL, A.coeffs, list(zip(d1, d2)))
    if not ok:
        raise RuntimeError("RREF decomposition failed to reconstruct its input")
    return RankDecomposition(r=r, d1=d1, d2=d2, field=RATIONAL)


# -- floating SVD route ------------------------------------------------------


def _exponent(values) -> int:
    """The k with 2^k <= max|v| < 2^(k+1) over the real or complex ``values``; -1 if all are 0.

    The SVD kernel and ALS both compute on their input times 2^-k, whose
    largest |entry| lies in [1, 2).  Scaling by a power of two is exact
    while the result stays in the normal range, so every relative threshold
    reads the same at any scale, while squared norms can neither overflow
    nor underflow to zero merely because the input is huge or tiny.
    """
    return math.frexp(_max_abs(values))[1] - 1


def _max_abs(values) -> float:
    """max|v| over the real or complex ``values``, 0.0 if there are none.

    Raises :class:`ValueError` on a finite complex value whose modulus lies
    beyond the float range, where ``abs`` itself overflows.
    """
    try:
        return max(map(abs, values), default=0.0)
    except OverflowError:
        message = "a complex value's modulus exceeds the float range (about 1.8e308)"
        raise ValueError(message) from None


def _jacobi_sweeps(w: list[list[float]], v=None) -> list[float]:
    """One-sided Jacobi sweeps on the columns ``w``, in place.

    Rotates column pairs until every pair is orthogonal in the normalized
    sense |w_p . w_q| <= _SWEEP_TOL * |w_p| |w_q| (zero columns skipped), and
    returns the squared column norms.  The columns of ``v``, when given,
    take the same rotations; they never feed back into ``w``, so the norms
    have the same bits either way.  Raises :class:`ConvergenceError` once
    the sweep cap is exhausted.
    """
    m = len(w)
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
                    if v is not None:
                        vp, vq = v[p], v[q]
                        v[p] = [c * x + s * y for x, y in zip(vp, vq)]
                        v[q] = [-s * x + c * y for x, y in zip(vp, vq)]
            if off <= _SWEEP_TOL:
                break
        else:
            raise ConvergenceError(
                f"SVD did not converge within {SVD_MAX_SWEEPS} sweeps"
            )
    return norm2


def _householder_qr(a: list[list[float]], drop: float):
    """Householder QR with column pivoting, A P = Q R: ``(R, house, perm)``.

    ``a`` is the list of A's columns, overwritten.  ``house`` holds the
    reflectors of Q (see :func:`_reflect`) and ``R`` the k rows computed,
    with k the first step at which the trailing block's Frobenius norm is at
    most ``drop`` times the largest column norm, or A's column count.
    """
    p = len(a)
    perm = list(range(p))
    # squared norms of the columns' active parts: rows j.. at step j
    norm2 = [sum(map(operator.mul, col, col)) for col in a]
    drop2 = drop**2 * max(norm2, default=0.0)
    R, house = [], []
    for j in range(p):
        if sum(norm2[j:]) <= drop2:
            break
        piv = max(range(j, p), key=norm2.__getitem__)
        a[j], a[piv] = a[piv], a[j]
        norm2[j], norm2[piv] = norm2[piv], norm2[j]
        perm[j], perm[piv] = perm[piv], perm[j]
        for row in R:
            row[j], row[piv] = row[piv], row[j]
        x = a[j]
        alpha = -math.copysign(math.sqrt(norm2[j]), x[0])
        # reflector I - u u^T / h with u = x - alpha e_1 maps x to alpha e_1
        h = alpha * (alpha - x[0])
        u = [x[0] - alpha, *x[1:]]
        row = [0.0] * j + [alpha]
        for c in range(j + 1, p):
            y = a[c]
            f = sum(map(operator.mul, u, y)) / h
            y = [yi - f * ui for yi, ui in zip(y, u)]
            row.append(y[0])
            a[c] = y = y[1:]
            norm2[c] = sum(map(operator.mul, y, y))
        R.append(row)
        house.append((u, h))
    return R, house, perm


def _reflect(house, x: list[float]) -> list[float]:
    """Q x for Q = H_0 H_1 ... H_{k-1}, the stored reflectors of :func:`_householder_qr`.

    ``house[j]`` is ``(u, h)``: H_j = I - u u^T / h acts on entries j.. of x.
    """
    for j in range(len(house) - 1, -1, -1):
        u, h = house[j]
        tail = x[j:]
        f = sum(map(operator.mul, u, tail)) / h
        if f:
            x[j:] = [xi - f * ui for xi, ui in zip(tail, u)]
    return x


def _qr_jacobi(cols, vectors: bool):
    """SVD of a tall matrix A, given as its p columns of length N >= p: ``(sigma, U, V)``.

    The kernel computes on A * 2^-s, s the :func:`_exponent` of A's entries.
    Householder QR with column pivoting (Businger & Golub 1965), A P = Q R,
    stops at step k once the trailing block's Frobenius norm is at most
    ``_QR_DROP * EPS_RANK * N`` times the largest column norm.  That norm is
    at most sigma_max, so by Weyl's inequality dropping the block moves each
    singular value by at most ``_QR_DROP`` times the rank threshold of
    :func:`numeric_rank`.  One-sided Jacobi then runs on the k kept rows of
    R, taken as columns (Drmač & Veselić 2008): it rotates them into
    orthogonal columns C = R_k^T W, so R_k = W C^T and A = (Q_k W) C^T P^T.

    ``sigma`` holds the norms of C, non-increasing and scaled back by 2^s
    (:class:`ValueError` if one leaves the float range), then p - k zeros.
    With ``vectors`` set, W is accumulated, and U and V hold one column for
    each column of C with a positive norm, in sigma's order: U's (length N)
    is Q applied to W's column padded with zeros, V's (length p) is P
    applied to C's column normalized.  Without it U and V are None, and W,
    which never feeds back into R, is not formed: sigma has the same bits.
    """
    s = _exponent(x for col in cols for x in col)
    a = [[math.ldexp(x, -s) for x in col] for col in cols]
    N, p = len(a[0]), len(a)
    R, house, perm = _householder_qr(a, _QR_DROP * EPS_RANK * N)
    k = len(R)
    W = [[float(i == l) for i in range(k)] for l in range(k)] if vectors else None
    norm2 = _jacobi_sweeps(R, W)
    order = sorted(range(k), key=lambda l: -norm2[l])
    scaled = [math.sqrt(norm2[l]) for l in order]
    try:
        sig = [math.ldexp(sg, s) for sg in scaled + [0.0] * (p - k)]
    except OverflowError:
        raise ValueError("a singular value of the matrix exceeds the float range") from None
    if not vectors:
        return sig, None, None
    U, V = [], []
    for l, sg in zip(order, scaled):
        if sg > 0.0:
            U.append(_reflect(house, W[l] + [0.0] * (N - k)))
            v = [0.0] * p
            for j, x in zip(perm, R[l]):
                v[j] = x / sg
            V.append(v)
    return sig, U, V


def _tall(M) -> tuple[int, int, list]:
    """``(n, m, cols)``: the shape of the finite real matrix ``M`` and the
    min(n, m) columns, each of length max(n, m), of M or M^T, whichever is tall."""
    t = _matrix(M, REAL)
    scalars.check_finite(REAL, t.coeffs)
    n, m = t.shape
    rows = t.tolists()
    return n, m, rows if n < m else list(zip(*rows))


def svd(M) -> tuple[list[list[float]], list[float], list[list[float]]]:
    """Singular value decomposition M = U diag(sigma) V^T.

    ``M`` is a real or rational order-2 tensor or a list of equally long
    rows of ints, floats and Fractions, all finite; a NaN or an infinity
    raises :class:`ValueError`.
    Returns (U, sigma, Vt): sigma holds the min(n, m) singular values,
    non-negative and non-increasing; the values of a trailing block that
    pivoted QR drops (norm at most ``_QR_DROP`` times the rank threshold of
    :func:`numeric_rank`, see :func:`_qr_jacobi`) are reported as 0.  U is
    n x q and Vt is q x m, one pair of singular vectors for each of the q
    singular values the kernel computed as positive, so q <= min(n, m) and
    sigma[q:] is all 0; the columns of U and the rows of Vt are orthonormal
    within EPS_SVD.  A zero matrix gives n empty rows and an empty Vt.
    U diag(sigma[:q]) Vt reconstructs M within EPS_SVD * sigma_max plus that
    norm.  Signs are fixed: for l < q the entry of largest magnitude in
    column l of U (the first such entry on ties) is positive, and row l of
    Vt has the matching sign.  The kernel computes on M times 2^-k (see
    :func:`_exponent`), so scaling M by a power of two that keeps its entries
    normal scales sigma by that power and keeps U and Vt bit for bit; a
    singular value beyond the float range raises :class:`ValueError`.
    Raises :class:`ConvergenceError` if the rotation sweep cap is exhausted.
    """
    n, m, cols = _tall(M)
    sig, U, V = _qr_jacobi(cols, True)
    if n < m:
        # M^T = U S V^T  =>  M = V S U^T
        U, V = V, U
    for l in range(len(U)):
        if max(U[l], key=abs) < 0.0:
            U[l] = [-x for x in U[l]]
            V[l] = [-x for x in V[l]]
    # the columns of V are the rows of Vt
    return [[u[i] for u in U] for i in range(n)], sig, V


def numeric_rank(sigma: Sequence[float], n: int, m: int) -> int:
    """The count of ``sigma`` (non-increasing) above EPS_RANK * sigma[0] * max(n, m)."""
    if not sigma:
        return 0
    smax = sigma[0]
    if smax == 0.0:
        return 0
    thresh = EPS_RANK * smax * max(n, m)
    return sum(1 for s in sigma if s > thresh)


def matrix_rank(M, method: str) -> int:
    """Rank of an order-2 tensor, computing nothing but the rank.

    ``method`` is ``"rref"`` or ``"svd"``, the routes of
    :func:`rank_decompose_rref` and :func:`rank_decompose_svd`, with the
    same intake and errors.  ``"rref"`` counts the pivots of the integer
    elimination behind :func:`rref`, so it equals
    ``rank_decompose_rref(M).r``.  ``"svd"`` applies :func:`numeric_rank`
    to the singular values of :func:`_qr_jacobi`, the kernel behind
    :func:`svd`, run without singular vectors; they have the same bits as
    ``svd(M)[1]``, so the rank always equals ``rank_decompose_svd(M).r``.
    """
    if method == "rref":
        return len(_bareiss(_matrix(M, RATIONAL))[1])
    if method != "svd":
        raise ValueError(f"unknown rank method {method!r}; expected 'rref' or 'svd'")
    n, m, cols = _tall(M)
    return numeric_rank(_qr_jacobi(cols, False)[0], n, m)


def rank_decompose_svd(M) -> RankDecomposition:
    """Floating rank decomposition via the SVD: D1^T = U', D2 = S'V'^T."""
    t = _matrix(M, REAL)
    n, m = t.shape
    U, sig, Vt = svd(t)
    r = numeric_rank(sig, n, m)
    d1 = tuple(tuple(U[i][l] for i in range(n)) for l in range(r))
    d2 = tuple(tuple(sig[l] * Vt[l][j] for j in range(m)) for l in range(r))
    # dropping singular values moves each entry by at most the largest of
    # them: max|M - M_r| <= ||M - M_r||_2 = sigma_{r+1}
    ok, res = _residual(REAL, t.coeffs, list(zip(d1, d2)), max(sig[r:], default=0.0))
    if not ok:
        raise ConvergenceError(f"SVD decomposition residual {res:.3e} exceeds tolerance")
    return RankDecomposition(r=r, d1=d1, d2=d2, field=REAL)


# -- re-expansion checks --------------------------------------------------------


def _residual(field: str, target: list, terms, slack: float = 0.0) -> tuple[bool, float]:
    """Re-expand a sum of rank-1 terms and compare it with ``target``.

    ``target`` is a flat row-major list; each term is a list of per-slot
    coefficient lists, whose outer product is folded left as in
    :func:`tenalg.dense.tensor_product`.  Returns ``(ok, residual)``, the
    residual being the largest absolute mismatch of one coefficient.  Over
    the rationals the check is exact and runs over ints: the target and each
    factor are scaled by the lcm of their own denominators (never by an
    entry, so a wrong factor cannot rescale itself into passing) and brought
    to one common scale ``S``.  Otherwise ``ok`` means ``residual <= EPS_F + EPS_F
    * max|target| + slack``, and a NaN mismatch gives a NaN residual, never ok.
    A complex target entry whose modulus exceeds the float range is refused
    with :class:`ValueError`; a complex mismatch that large gives an
    infinite residual, never ok.
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
    else:
        bound = _max_abs(target)
    total = [0] * len(goal)
    for c, vectors in zip(lead, terms):
        out = [c]
        for v in vectors:
            out = [x * y for x in out for y in v]
        total = list(map(operator.add, total, out))
    try:
        mismatch = list(map(abs, map(operator.sub, total, goal)))
    except OverflowError:
        return False, math.inf
    res = max(mismatch, default=0)
    if field == RATIONAL:
        return res == 0, res / S
    if any(map(math.isnan, mismatch)):
        return False, math.nan
    return res <= scalars.EPS_F + scalars.EPS_F * bound + slack, float(res)


def verify_decomposition(target: DenseTensor, terms) -> tuple[bool, float]:
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
