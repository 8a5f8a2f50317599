"""The level-N truncated tensor algebra over R^d (or C^d).

An element is stored as one homogeneous tensor per level: level ``n`` has
shape ``(d,) * n``, level 0 is a scalar.  The product is the truncated
concatenation product, computed levelwise by the convolution formula

    w_n = sum_{k=0}^{n} u_k (x) v_{n-k}

with everything above level N discarded.  Basis elements of level ``n`` are
indexed by words: length-``n`` sequences of letters in ``1..d``, enumerated
lexicographically, which coincides with the row-major layout of the level
tensors.
"""

from __future__ import annotations

import json
from typing import Sequence

from . import scalars
from .dense import DenseTensor
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


def _check_dims(d: int, N: int) -> None:
    if d < 1 or N < 0:
        raise ValueError("need d >= 1 and N >= 0")


def truncated_dim(d: int, N: int) -> int:
    """Number of words of length <= N over ``1..d``."""
    _check_dims(d, N)
    if d == 1:
        return N + 1
    return (d ** (N + 1) - 1) // (d - 1)


class TruncatedTensor:
    """Element of the level-N truncated tensor algebra, as a list of levels."""

    __slots__ = ("d", "N", "field", "levels")

    def __init__(self, d: int, N: int, levels: Sequence[DenseTensor], field: str = RATIONAL):
        _check_dims(d, N)
        scalars.check_field(field)
        levels = list(levels)
        if len(levels) != N + 1:
            raise ValueError(f"need {N + 1} levels for truncation level {N}, got {len(levels)}")
        for n, lvl in enumerate(levels):
            if lvl.shape != (d,) * n:
                raise ValueError(f"level {n} must have shape {(d,) * n}, got {lvl.shape}")
            scalars.same_field(field, lvl.field)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "levels", levels)

    @classmethod
    def _trusted(cls, d: int, N: int, levels: list, field: str) -> "TruncatedTensor":
        """Wrap levels the caller guarantees: N + 1 tensors of ``field``,
        level n of shape ``(d,) * n``."""
        x = object.__new__(cls)
        object.__setattr__(x, "d", d)
        object.__setattr__(x, "N", N)
        object.__setattr__(x, "field", field)
        object.__setattr__(x, "levels", levels)
        return x

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedTensor is immutable")

    @classmethod
    def from_flat_levels(cls, d, N, flat_levels, field: str = RATIONAL) -> "TruncatedTensor":
        """Build from one flat row-major coefficient list per level."""
        levels = [DenseTensor((d,) * n, flat, field) for n, flat in enumerate(flat_levels)]
        return cls(d, N, levels, field)

    def level(self, n: int) -> DenseTensor:
        return self.levels[n]

    def scalar_part(self):
        return self.levels[0].coeffs[0]

    def word_coefficient(self, word: Sequence[int]):
        word = tuple(word)
        if len(word) > self.N:
            raise IndexError(f"word of length {len(word)} exceeds truncation level {self.N}")
        return self.levels[len(word)].coeffs[word_to_index(word, self.d)]

    def degree(self) -> int:
        """Highest non-zero level; 0 for the zero element.

        Homogeneous elements recover their grading degree; for general
        elements this is the natural extension used by order bookkeeping.
        """
        for n in range(self.N, 0, -1):
            if not self.levels[n].is_zero():
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
        return TruncatedTensor._trusted(
            self.d, self.N, [a + b for a, b in zip(self.levels, other.levels)], self.field
        )

    def __sub__(self, other: "TruncatedTensor") -> "TruncatedTensor":
        self._compatible(other)
        return TruncatedTensor._trusted(
            self.d, self.N, [a - b for a, b in zip(self.levels, other.levels)], self.field
        )

    def scale(self, lam) -> "TruncatedTensor":
        lam = scalars.coerce(self.field, lam)
        levels = [
            DenseTensor._trusted(lvl.shape, [lam * c for c in lvl.coeffs], self.field)
            for lvl in self.levels
        ]
        return TruncatedTensor._trusted(self.d, self.N, levels, self.field)

    def __mul__(self, other: "TruncatedTensor") -> "TruncatedTensor":
        return concat_product(self, other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedTensor):
            return NotImplemented
        if (self.d, self.N, self.field) != (other.d, other.N, other.field):
            return False
        return all(a == b for a, b in zip(self.levels, other.levels))

    __hash__ = None

    def __repr__(self) -> str:
        return (
            f"TruncatedTensor(d={self.d}, N={self.N}, field={self.field!r}, "
            f"{[lvl.tolists() for lvl in self.levels]!r})"
        )


def unit(d: int, N: int, field: str = RATIONAL) -> TruncatedTensor:
    """The algebra unit: 1 at level 0, zero above."""
    return basis_word(d, N, (), field)


def basis_word(d: int, N: int, word: Sequence[int], field: str = RATIONAL) -> TruncatedTensor:
    """The basis element e_w for a word ``w`` of length <= N."""
    _check_dims(d, N)
    zero = scalars.zero(scalars.check_field(field))
    word = tuple(word)
    if len(word) > N:
        raise IndexError(f"word of length {len(word)} exceeds truncation level {N}")
    flats = [[zero] * (d ** n) for n in range(N + 1)]
    flats[len(word)][word_to_index(word, d)] = scalars.one(field)
    levels = [DenseTensor._trusted((d,) * n, flat, field) for n, flat in enumerate(flats)]
    return TruncatedTensor._trusted(d, N, levels, field)


def _accumulate(out: list, a: list, b: list) -> None:
    """``out += a (x) b`` on flat coefficient lists: out[i*lb + j] += a_i * b_j."""
    lb = len(b)
    for i, av in enumerate(a):
        if not av:
            continue
        base = i * lb
        for j, bv in enumerate(b):
            out[base + j] += av * bv


def concat_product(x: TruncatedTensor, y: TruncatedTensor) -> TruncatedTensor:
    """Truncated concatenation product (levelwise convolution of levels)."""
    x._compatible(y)
    d, N, field = x.d, x.N, x.field
    zero = scalars.zero(field)
    out_levels = []
    for n in range(N + 1):
        out = [zero] * (d ** n)
        for k in range(n + 1):
            _accumulate(out, x.levels[k].coeffs, y.levels[n - k].coeffs)
        out_levels.append(DenseTensor._trusted((d,) * n, out, field))
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
    """
    d, N, field = x.d, x.N, x.field
    zero = scalars.zero(field)
    a = x.scalar_part()
    if a == zero:
        raise NotInvertibleError("level-0 scalar is zero")
    inv_a = scalars.one(field) / a
    neg_inv_a = -inv_a
    ys = [[inv_a]]
    for n in range(1, N + 1):
        acc = [zero] * (d ** n)
        for k in range(1, n + 1):
            _accumulate(acc, x.levels[k].coeffs, ys[n - k])
        ys.append([neg_inv_a * c for c in acc])
    levels = [DenseTensor._trusted((d,) * n, y, field) for n, y in enumerate(ys)]
    return TruncatedTensor._trusted(d, N, levels, field)


def project(x: TruncatedTensor, M: int) -> TruncatedTensor:
    """Keep levels 0..M.  A product morphism: commutes with multiplication."""
    if not 0 <= M <= x.N:
        raise ValueError(f"projection level {M} out of range 0..{x.N}")
    return TruncatedTensor._trusted(x.d, M, x.levels[: M + 1], x.field)


# -- JSON format -----------------------------------------------------------
#
#   {"d": 2, "N": 2, "field": "rational",
#    "levels": [["1"], ["0", "0"], ["0", "0", "0", "0"]]}
#
# level n is a flat row-major list of d^n scalars, encoded per field as in
# the dense tensor format.  Unknown extra keys are ignored on input.


def tt_to_json(x: TruncatedTensor) -> dict:
    return {
        "d": x.d,
        "N": x.N,
        "field": x.field,
        "levels": [
            [scalars.to_json(x.field, c) for c in lvl.coeffs] for lvl in x.levels
        ],
    }


def tt_from_json(obj: dict) -> TruncatedTensor:
    if not isinstance(obj, dict) or not {"d", "N", "levels"} <= set(obj):
        raise ValueError("truncated-tensor JSON must have 'd', 'N', 'field', 'levels' keys")
    field = scalars.check_field(obj.get("field", RATIONAL))
    d, N = int(obj["d"]), int(obj["N"])
    flat_levels = [
        [scalars.from_json(field, c) for c in lvl] for lvl in obj["levels"]
    ]
    return TruncatedTensor.from_flat_levels(d, N, flat_levels, field)


def dump_tt(x: TruncatedTensor) -> str:
    return json.dumps(tt_to_json(x))


def load_tt(text: str) -> TruncatedTensor:
    return tt_from_json(json.loads(text))
