"""Truncated signatures of piecewise-linear paths in R^d.

A path is a list of sample points, parameterized uniformly on [0, 1].  The
signature over a subinterval is an element of the truncated tensor algebra
over the reals with level 0 equal to 1 and level 1 equal to the increment.

Two routes are provided and tested against each other:

* :func:`path_signature` - exact per-segment closed form (level n of a single
  linear piece is increment^(x)n / n!) composed across segments with the
  truncated concatenation product;
* :func:`oracle_signature` - direct left-point Riemann evaluation of the
  defining iterated integrals on a uniform grid, S_n(t) = int S_{n-1}(u) dx_u.

The oracle never touches the closed form, so agreement between the two is a
genuine check rather than a restatement.
"""

from __future__ import annotations

import csv
import io
import itertools
from collections import namedtuple
from collections.abc import Sequence

from . import scalars
from .algebra import TruncatedTensor, _check_budget, concat_product, unit
from .dense import DenseTensor, _as_size, _Immutable, tensor_product
from .scalars import REAL, real_literal

__all__ = [
    "PiecewiseLinearPath",
    "Signature",
    "segment_signature",
    "path_signature",
    "oracle_signature",
    "read_path_csv",
]


class PiecewiseLinearPath(_Immutable):
    """Uniformly parameterized piecewise-linear path through K >= 1 finite points.

    Each coordinate enters the real field through :func:`tenalg.scalars.coerce`:
    an int, a float or a Fraction, never a bool or a string."""

    __slots__ = ("points", "d")

    def __init__(self, points: Sequence[Sequence[float]]):
        pts = [tuple(scalars.coerce(REAL, c) for c in p) for p in points]
        if not pts:
            raise ValueError("a path needs at least one sample point")
        d = len(pts[0])
        if d < 1:
            raise ValueError("sample points must have dimension >= 1")
        if any(len(p) != d for p in pts):
            raise ValueError("all sample points must share one dimension")
        scalars.check_finite(REAL, itertools.chain.from_iterable(pts))
        object.__setattr__(self, "points", tuple(pts))
        object.__setattr__(self, "d", d)

    @property
    def segments(self) -> int:
        return len(self.points) - 1

    def at(self, u: float) -> tuple:
        """Evaluate the path at parameter ``u`` in [0, 1]."""
        if not 0.0 <= u <= 1.0:
            raise ValueError(f"parameter {u} outside [0, 1]")
        K = len(self.points)
        if K == 1:
            return self.points[0]
        pos = u * (K - 1)
        seg = min(int(pos), K - 2)
        frac = pos - seg
        p, q = self.points[seg], self.points[seg + 1]
        return tuple(a + frac * (b - a) for a, b in zip(p, q))

    def __repr__(self) -> str:
        return f"PiecewiseLinearPath({list(self.points)!r})"


class Signature(namedtuple("Signature", "value interval")):
    """Signature value (a real truncated tensor) over an interval [s, t]."""

    __slots__ = ()

    def level(self, n: int) -> DenseTensor:
        return self.value.level(n)

    @property
    def depth(self) -> int:
        return self.value.N


def segment_signature(increment: Sequence[float], N: int) -> Signature:
    """Signature over [0, 1] of a single linear segment with the given increment.

    Level n is increment^(x)n / n!.  A zero increment gives the unit.
    """
    inc = DenseTensor.vector(increment, REAL)
    d = inc.shape[0]
    _check_budget(d, N)
    flats = [[1.0]]
    for n in range(1, N + 1):
        nxt = tensor_product(DenseTensor._trusted((d,) * (n - 1), flats[-1], REAL), inc)
        flats.append([c / n for c in nxt.coeffs])
    value = TruncatedTensor._trusted(d, N, flats, REAL)
    return Signature(value, (0.0, 1.0))


def _clipped_increments(path: PiecewiseLinearPath, s: float, t: float):
    """Increments of the path segments, clipped to the window [s, t]."""
    K = len(path.points)
    if K == 1 or s == t:
        return []
    out = []
    for i in range(K - 1):
        t0 = i / (K - 1)
        t1 = (i + 1) / (K - 1)
        lo, hi = max(s, t0), min(t, t1)
        if hi <= lo:
            continue
        frac = (hi - lo) / (t1 - t0)
        p, q = path.points[i], path.points[i + 1]
        out.append(tuple(frac * (b - a) for a, b in zip(p, q)))
    return out


def path_signature(path: PiecewiseLinearPath, N: int, s: float = 0.0, t: float = 1.0) -> Signature:
    """Signature of ``path`` over [s, t], truncated at level N.

    Computed as the ordered product of per-segment signatures over the
    clipped segments.  Level 0 is exactly 1; level 1 is exactly the
    increment ``path(t) - path(s)``.
    """
    if not 0.0 <= s <= t <= 1.0:
        raise ValueError(f"need 0 <= s <= t <= 1, got s={s}, t={t}")
    sig = unit(path.d, N, REAL)
    for inc in _clipped_increments(path, s, t):
        sig = concat_product(sig, segment_signature(inc, N).value)
    return Signature(sig, (float(s), float(t)))


def oracle_signature(
    path: PiecewiseLinearPath, N: int, s: float = 0.0, t: float = 1.0, steps: int = 1000
) -> Signature:
    """Left-point Riemann evaluation of the iterated integrals on [s, t].

    Level n is accumulated by the recursion S_n += S_{n-1} (x) dx over a
    uniform grid of ``steps`` cells; the error decays like O(1/steps).  The
    summation order is fixed (cells left to right, levels top-down within a
    cell) so repeated runs are bit-identical.
    """
    d = path.d
    _check_budget(d, N)
    steps = _as_size(steps, ValueError)
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if not 0.0 <= s <= t <= 1.0:
        raise ValueError(f"need 0 <= s <= t <= 1, got s={s}, t={t}")
    levels = [[0.0] * (d ** n) for n in range(N + 1)]
    levels[0][0] = 1.0
    h = (t - s) / steps
    prev = path.at(s)
    for j in range(1, steps + 1):
        u = t if j == steps else s + j * h
        cur = path.at(u)
        dx = [b - a for a, b in zip(prev, cur)]
        prev = cur
        # top-down so each level update reads the previous cell's lower level
        for n in range(N, 0, -1):
            dst = levels[n]
            src = levels[n - 1]
            for i, sv in enumerate(src):
                if sv == 0.0:
                    continue
                base = i * d
                for c in range(d):
                    dst[base + c] += sv * dx[c]
    return Signature(TruncatedTensor._trusted(d, N, levels, REAL), (float(s), float(t)))


def read_path_csv(text_or_file) -> PiecewiseLinearPath:
    """Parse a path from CSV: one sample point per row, optional header."""
    if isinstance(text_or_file, str):
        stream = io.StringIO(text_or_file)
    else:
        stream = text_or_file
    try:
        rows = [row for row in csv.reader(stream) if any(cell.strip() for cell in row)]
    except csv.Error as exc:
        raise ValueError(f"malformed CSV: {exc}") from None
    if not rows:
        raise ValueError("empty path file")
    points = []
    for idx, row in enumerate(rows):
        try:
            points.append([real_literal(cell) for cell in row])
        except ValueError:
            if idx == 0:
                continue  # header row
            raise ValueError(f"non-numeric value in CSV row {idx + 1}: {row!r}") from None
    if not points:
        raise ValueError("path file holds a header but no sample points")
    return PiecewiseLinearPath(points)
