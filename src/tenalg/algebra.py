"""The level-N truncated tensor algebra over R^d (or C^d).

An element is stored level by level: level ``n`` is one flat row-major list
of ``d ** n`` coefficients, level 0 a single scalar.  ``level(n)`` builds a
:class:`DenseTensor` view of shape ``(d,) * n`` on request.  The product is
the truncated concatenation product, computed levelwise by the convolution
formula

    w_n = sum_{k=0}^{n} u_k (x) v_{n-k}

with everything above level N discarded.  Basis elements of level ``n`` are
indexed by words: length-``n`` sequences of letters in ``1..d``, enumerated
lexicographically, which coincides with the row-major layout of the levels.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from fractions import Fraction

from . import scalars
from .dense import MAX_COEFFS, DenseTensor, _as_size, _Immutable
from .scalars import RATIONAL

__all__ = [
    "NotInvertibleError",
    "TruncatedTensor",
    "unit",
    "word_to_index",
    "basis_word",
    "concat_product",
    "inverse",
    "project",
    "truncated_dim",
    "tt_to_json",
    "tt_from_json",
    "dump_tt",
    "load_tt",
]


class NotInvertibleError(ValueError):
    """Inversion was requested for an element whose level-0 scalar is zero."""


def word_to_index(word: Sequence[int], d: int) -> int:
    """Flat index of a word's basis element within its level.

    Words of length ``n`` over the alphabet ``1..d`` map bijectively onto
    ``0..d^n - 1`` in lexicographic order (the empty word maps to 0).
    """
    idx = 0
    for letter in word:
        if not 1 <= letter <= d:
            raise IndexError(f"letter {letter} out of range 1..{d}")
        idx = idx * d + (letter - 1)
    return idx


def _check_dims(d: int, N: int) -> tuple:
    d, N = _as_size(d, ValueError), _as_size(N, ValueError)
    if d < 1 or N < 0:
        raise ValueError("need d >= 1 and N >= 0")
    return d, N


def truncated_dim(d: int, N: int) -> int:
    """Number of words of length <= N over ``1..d``."""
    d, N = _check_dims(d, N)
    if d == 1:
        return N + 1
    return (d ** (N + 1) - 1) // (d - 1)


def _check_budget(d: int, N: int) -> None:
    """Raise :class:`ValueError` if an element of the algebra exceeds MAX_COEFFS:
    its truncated_dim(d, N) coefficients plus N (N + 1) / 2, which matters only
    at d == 1, where a product or an inverse of N + 1 coefficients makes
    (N + 1) (N + 2) / 2 multiply-adds."""
    d, N = _check_dims(d, N)
    # for d >= 2 level 64 alone is over budget; the clamp keeps an absurd N
    # from building a huge power in truncated_dim
    if truncated_dim(d, N if d == 1 else min(N, 64)) + N * (N + 1) // 2 > MAX_COEFFS:
        raise ValueError(
            f"the level-{N} truncated algebra over R^{d} exceeds the budget of "
            f"{MAX_COEFFS} coefficients"
        )


def _counted(N: int, levels) -> list:
    """``levels`` as a list, refused unless it holds N + 1 levels."""
    levels = list(levels)
    if len(levels) != N + 1:
        raise ValueError(f"need {N + 1} levels for truncation level {N}, got {len(levels)}")
    return levels


class TruncatedTensor(_Immutable):
    """Element of the level-N truncated tensor algebra: ``flats[n]`` is level
    ``n`` as a flat row-major list of ``d ** n`` coefficients."""

    __slots__ = ("d", "N", "field", "flats")

    def __init__(self, d: int, N: int, levels: Sequence[DenseTensor], field: str = RATIONAL):
        d, N = _check_dims(d, N)
        scalars.check_field(field)
        levels = _counted(N, levels)
        for n, lvl in enumerate(levels):
            if lvl.shape != (d,) * n:
                raise ValueError(f"level {n} must have shape {(d,) * n}, got {lvl.shape}")
            scalars.same_field(field, lvl.field)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "flats", [lvl.coeffs for lvl in levels])

    @classmethod
    def _trusted(cls, d: int, N: int, flats: list, field: str) -> "TruncatedTensor":
        """Wrap levels the caller guarantees: N + 1 flat lists, list n holding
        d ** n coefficients of ``field``'s type."""
        x = object.__new__(cls)
        object.__setattr__(x, "d", d)
        object.__setattr__(x, "N", N)
        object.__setattr__(x, "field", field)
        object.__setattr__(x, "flats", flats)
        return x

    @classmethod
    def from_flat_levels(cls, d, N, flat_levels, field: str = RATIONAL) -> "TruncatedTensor":
        """Build from one flat row-major list per level, checked by DenseTensor."""
        d, N = _check_dims(d, N)
        levels = [DenseTensor((d,) * n, f, field) for n, f in enumerate(_counted(N, flat_levels))]
        return cls._trusted(d, N, [lvl.coeffs for lvl in levels], field)

    def level(self, n: int) -> DenseTensor:
        """Level ``n`` as a :class:`DenseTensor` view of its flat list."""
        if not 0 <= n <= self.N:
            raise IndexError(f"level {n} out of range 0..{self.N}")
        return DenseTensor._trusted((self.d,) * n, self.flats[n], self.field)

    @property
    def levels(self) -> list:
        """Every level as a :class:`DenseTensor` view, built on each access."""
        return [self.level(n) for n in range(self.N + 1)]

    def scalar_part(self):
        return self.flats[0][0]

    def word_coefficient(self, word: Sequence[int]):
        word = tuple(word)
        if len(word) > self.N:
            raise IndexError(f"word of length {len(word)} exceeds truncation level {self.N}")
        return self.flats[len(word)][word_to_index(word, self.d)]

    def degree(self) -> int:
        """Highest non-zero level; 0 for the zero element.

        Homogeneous elements recover their grading degree; for general
        elements this is the natural extension used by order bookkeeping.
        """
        for n in range(self.N, 0, -1):
            if any(self.flats[n]):
                return n
        return 0

    def _compatible(self, other: "TruncatedTensor"):
        if self.d != other.d or self.N != other.N:
            raise ValueError(
                f"incompatible algebras: (d={self.d}, N={self.N}) vs (d={other.d}, N={other.N})"
            )
        scalars.same_field(self.field, other.field)

    def __add__(self, other: "TruncatedTensor") -> "TruncatedTensor":
        self._compatible(other)
        flats = [[a + b for a, b in zip(u, v)] for u, v in zip(self.flats, other.flats)]
        return TruncatedTensor._trusted(self.d, self.N, flats, self.field)

    def __sub__(self, other: "TruncatedTensor") -> "TruncatedTensor":
        self._compatible(other)
        flats = [[a - b for a, b in zip(u, v)] for u, v in zip(self.flats, other.flats)]
        return TruncatedTensor._trusted(self.d, self.N, flats, self.field)

    def scale(self, lam) -> "TruncatedTensor":
        lam = scalars.coerce(self.field, lam)
        flats = [[lam * c for c in flat] for flat in self.flats]
        return TruncatedTensor._trusted(self.d, self.N, flats, self.field)

    def __mul__(self, other: "TruncatedTensor") -> "TruncatedTensor":
        return concat_product(self, other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedTensor):
            return NotImplemented
        if (self.d, self.N, self.field) != (other.d, other.N, other.field):
            return False
        flat = itertools.chain.from_iterable
        pairs = zip(flat(self.flats), flat(other.flats))
        return all(scalars.close(self.field, a, b) for a, b in pairs)

    __hash__ = None

    def __repr__(self) -> str:
        return f"TruncatedTensor(d={self.d}, N={self.N}, field={self.field!r}, {self.flats!r})"


def unit(d: int, N: int, field: str = RATIONAL) -> TruncatedTensor:
    """The algebra unit: 1 at level 0, zero above."""
    return basis_word(d, N, (), field)


def basis_word(d: int, N: int, word: Sequence[int], field: str = RATIONAL) -> TruncatedTensor:
    """The basis element e_w for a word ``w`` of length <= N."""
    _check_budget(d, N)
    zero = scalars.zero(scalars.check_field(field))
    word = tuple(word)
    if len(word) > N:
        raise IndexError(f"word of length {len(word)} exceeds truncation level {N}")
    flats = [[zero] * (d ** n) for n in range(N + 1)]
    flats[len(word)][word_to_index(word, d)] = scalars.one(field)
    return TruncatedTensor._trusted(d, N, flats, field)


def _accumulate(out: list, a: list, b: list) -> None:
    """``out += a (x) b`` on flat coefficient lists: out[i*lb + j] += a_i * b_j."""
    lb = len(b)
    for i, av in enumerate(a):
        if not av:
            continue
        base = i * lb
        for j, bv in enumerate(b):
            out[base + j] += av * bv


def _integer_levels(x: TruncatedTensor):
    """``(D, X)``: D the lcm of every denominator of rational ``x``, X the
    flat levels of ``D * x`` over ints."""
    D = math.lcm(*(c.denominator for flat in x.flats for c in flat))
    return D, [[c.numerator * (D // c.denominator) for c in flat] for flat in x.flats]


def concat_product(x: TruncatedTensor, y: TruncatedTensor) -> TruncatedTensor:
    """Truncated concatenation product (levelwise convolution of levels).

    Over the rationals the convolution runs over ints: with ``Dx`` and ``Dy``
    the common denominators of the operands, ``(Dx x)(Dy y)`` is integral and
    each coefficient of the product is built once as ``Fraction(v, Dx * Dy)``.
    """
    x._compatible(y)
    d, N, field = x.d, x.N, x.field
    if field == RATIONAL:
        Dx, xs = _integer_levels(x)
        Dy, ys = _integer_levels(y)
        zero = 0
    else:
        xs, ys, zero = x.flats, y.flats, scalars.zero(field)
    out_levels = []
    for n in range(N + 1):
        out = [zero] * (d ** n)
        for k in range(n + 1):
            _accumulate(out, xs[k], ys[n - k])
        out_levels.append(out)
    if field == RATIONAL:
        den = Dx * Dy
        out_levels = [[Fraction(v, den) for v in out] for out in out_levels]
    return TruncatedTensor._trusted(d, N, out_levels, field)


def inverse(x: TruncatedTensor) -> TruncatedTensor:
    """Two-sided inverse under the truncated product.

    With ``a`` the level-0 scalar of ``x``, the inverse ``y`` is solved for
    level by level from ``x y = 1``: level 0 gives ``y_0 = 1/a`` and level
    ``n >= 1`` gives

        y_n = -(1/a) sum_{k=1}^{n} x_k (x) y_{n-k},

    which only reads levels of ``y`` already computed.  That is one product's
    worth of multiply-adds.  In this algebra a right inverse is also a left
    inverse, so ``y x = 1`` holds as well.

    Over the rationals the recursion runs over ints.  With ``D`` the common
    denominator of ``x``, write ``X = D x`` and ``A = X_0``, so ``a = A / D``.
    The integer levels

        Y_0 = [1],    Y_n = -sum_{k=1}^{n} A^(k-1) X_k (x) Y_{n-k}

    give ``y_n = D Y_n / A^(n+1)``: true at level 0, and if it holds below
    ``n`` then ``-(1/a) x_k (x) y_{n-k} = -(D/A) (X_k/D) (x) D Y_{n-k} /
    A^(n-k+1) = -D A^(k-1) X_k (x) Y_{n-k} / A^(n+1)``.  Each coefficient of
    ``y`` is built once as ``Fraction(D v, A^(n+1))``.
    """
    d, N, field = x.d, x.N, x.field
    if not x.scalar_part():
        raise NotInvertibleError("level-0 scalar is zero")
    if field == RATIONAL:
        D, X = _integer_levels(x)
        A = X[0][0]
        xs, p = [None], -1
        for Xk in X[1:]:  # -A^(k-1) X_k
            xs.append([p * c for c in Xk])
            p *= A
        ys, zero, scale = [[1]], 0, None
    else:
        xs = x.flats
        inv_a = scalars.one(field) / x.scalar_part()
        ys, zero, scale = [[inv_a]], scalars.zero(field), -inv_a
    for n in range(1, N + 1):
        acc = [zero] * (d ** n)
        for k in range(1, n + 1):
            _accumulate(acc, xs[k], ys[n - k])
        ys.append(acc if scale is None else [scale * c for c in acc])
    if field == RATIONAL:
        dens = [A ** (n + 1) for n in range(N + 1)]
        ys = [[Fraction(D * v, den) for v in y] for y, den in zip(ys, dens)]
    return TruncatedTensor._trusted(d, N, ys, field)


def project(x: TruncatedTensor, M: int) -> TruncatedTensor:
    """Keep levels 0..M.  A product morphism: commutes with multiplication."""
    M = _as_size(M, ValueError)
    if not 0 <= M <= x.N:
        raise ValueError(f"projection level {M} out of range 0..{x.N}")
    return TruncatedTensor._trusted(x.d, M, x.flats[: M + 1], x.field)


# -- JSON format -----------------------------------------------------------
#
#   {"d": 2, "N": 2, "field": "rational",
#    "levels": [["1"], ["0", "0"], ["0", "0", "0", "0"]]}
#
# level n is a flat row-major list of d^n scalars, encoded per field as in
# the dense tensor format.  "d" and "N" must be JSON integers; (d, N) is held
# to MAX_COEFFS and the level count to N + 1 before any level is decoded.
# Unknown extra keys are ignored on input.


def tt_to_json(x: TruncatedTensor) -> dict:
    return {
        "d": x.d,
        "N": x.N,
        "field": x.field,
        "levels": [[scalars.to_json(x.field, c) for c in flat] for flat in x.flats],
    }


def tt_from_json(obj: dict) -> TruncatedTensor:
    if not isinstance(obj, dict) or not {"d", "N", "levels"} <= set(obj):
        raise ValueError(
            "truncated-tensor JSON must have 'd', 'N' and 'levels' keys; 'field' defaults to 'rational'"
        )
    field = scalars.check_field(obj.get("field", RATIONAL))
    d, N = scalars.json_int(obj["d"], "'d'"), scalars.json_int(obj["N"], "'N'")
    _check_budget(d, N)
    levels = obj["levels"]
    if type(levels) is not list or not all(type(lvl) is list for lvl in levels):
        raise ValueError("'levels' must be a JSON array of JSON arrays")
    flat_levels = [[scalars.from_json(field, c) for c in lvl] for lvl in _counted(N, levels)]
    scalars.check_finite(field, itertools.chain.from_iterable(flat_levels))
    return TruncatedTensor.from_flat_levels(d, N, flat_levels, field)


def dump_tt(x: TruncatedTensor) -> str:
    return scalars.dump_json(tt_to_json(x))


def load_tt(text: str) -> TruncatedTensor:
    return tt_from_json(scalars.load_json(text))
