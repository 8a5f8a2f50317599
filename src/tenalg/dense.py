"""Dense tensors over a pluggable scalar field.

A tensor of order ``m`` and shape ``(d1, ..., dm)`` is stored as a flat,
row-major coefficient list (last index fastest) relative to the canonical
basis.  Order 0 is a scalar, order 1 a column vector, order 2 a matrix.
Component access is 1-based, matching the conventions of the surrounding
mathematics; the flat offsets are an internal detail.

Tensors are immutable values: every operation returns a fresh tensor, so
instances are safe to share across threads.  :class:`_Immutable` is the one
base of the package's value classes that refuses attribute assignment and
deletion; their constructors set fields with ``object.__setattr__``.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Sequence

from . import scalars
from .scalars import RATIONAL, FieldMismatchError

__all__ = [
    "DenseTensor",
    "ShapeMismatchError",
    "FieldMismatchError",
    "basis_vector",
    "add",
    "scale",
    "tensor_product",
    "multi_tensor_product",
    "tensor_to_json",
    "tensor_from_json",
    "dump_tensor",
    "load_tensor",
]


# Most coefficients one tensor or algebra element may hold where the library
# allocates it: unit/basis_word, the signatures, tt_from_json and
# expr.to_coefficient_tensor refuse a larger count before any list is built.
# A slot costs 8 bytes, and a distinct float 24 more, so a tensor at the budget
# takes about 32 MB and a product of two needs several.  Every test and
# benchmark shape is at most truncated_dim(4, 5) = 1365 coefficients.
MAX_COEFFS = 1 << 20


class ShapeMismatchError(ValueError):
    """Operands whose shapes are incompatible for the requested operation."""


def _as_size(d, error=ShapeMismatchError) -> int:
    """A size as an int: an ``int`` or another ``__index__`` type.  A bool, a
    float or a string is refused with ``error``, never truncated or converted."""
    if type(d) is int:
        return d
    if isinstance(d, bool) or not hasattr(type(d), "__index__"):
        raise error(f"sizes must be integers, got {d!r}")
    return operator.index(d)


def _check_shape(shape) -> tuple:
    dims = tuple(map(_as_size, shape))
    for d in dims:
        if d < 1:
            raise ShapeMismatchError(f"all dimensions must be >= 1, got {dims}")
    return dims


class _Immutable:
    """Base of the value classes: no attribute may be set or deleted."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class DenseTensor(_Immutable):
    """Order-``m`` dense tensor with 1-based component access.

    ``t[i1, ..., im]`` returns the coefficient of the canonical basis element
    indexed by the letters ``i1..im`` (each between 1 and the corresponding
    dimension).  Equality is exact in the rational field and tolerance-based
    (``scalars.EPS_F``) in the real and complex fields.
    """

    __slots__ = ("shape", "field", "coeffs")

    def __init__(self, shape, coeffs, field: str = RATIONAL):
        shape = _check_shape(shape)
        scalars.check_field(field)
        coeffs = [scalars.coerce(field, c) for c in coeffs]
        if len(coeffs) != math.prod(shape):
            raise ShapeMismatchError(
                f"shape {shape} needs {math.prod(shape)} coefficients, got {len(coeffs)}"
            )
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def _trusted(cls, shape: tuple, coeffs: list, field: str) -> "DenseTensor":
        """Wrap values the caller guarantees: a checked shape, a list of
        exactly that many coefficients, each already of ``field``'s type."""
        t = object.__new__(cls)
        object.__setattr__(t, "shape", shape)
        object.__setattr__(t, "field", field)
        object.__setattr__(t, "coeffs", coeffs)
        return t

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, shape, field: str = RATIONAL) -> "DenseTensor":
        shape = _check_shape(shape)
        return cls(shape, [scalars.zero(field)] * math.prod(shape), field)

    @classmethod
    def scalar(cls, value, field: str = RATIONAL) -> "DenseTensor":
        """The order-0 tensor holding a single coefficient."""
        return cls((), [value], field)

    @classmethod
    def vector(cls, values: Iterable, field: str = RATIONAL) -> "DenseTensor":
        values = list(values)
        return cls((len(values),), values, field)

    @classmethod
    def matrix(cls, rows: Sequence[Sequence], field: str = RATIONAL) -> "DenseTensor":
        rows = [list(r) for r in rows]
        n = len(rows)
        if n == 0:
            raise ShapeMismatchError("matrix needs at least one row")
        m = len(rows[0])
        if any(len(r) != m for r in rows):
            raise ShapeMismatchError("matrix rows must all have the same length")
        flat = [c for r in rows for c in r]
        return cls((n, m), flat, field)

    # -- basic queries -----------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.shape)

    @property
    def size(self) -> int:
        return len(self.coeffs)

    def offset(self, indices) -> int:
        """Flat row-major offset of a 1-based multi-index."""
        if isinstance(indices, int):
            indices = (indices,)
        indices = tuple(indices)
        if len(indices) != self.order:
            raise IndexError(
                f"expected {self.order} indices for shape {self.shape}, got {len(indices)}"
            )
        off = 0
        for i, d in zip(indices, self.shape):
            if not 1 <= i <= d:
                raise IndexError(f"index {indices} out of range for shape {self.shape}")
            off = off * d + (i - 1)
        return off

    def __getitem__(self, indices):
        return self.coeffs[self.offset(indices)]

    def tolists(self):
        """Nested-list view (scalars at order 0, lists of lists beyond)."""
        if self.order == 0:
            return self.coeffs[0]
        # group from the last axis outwards, so no order is too deep to nest
        nested = list(self.coeffs)
        for d in reversed(self.shape[1:]):
            nested = [nested[i : i + d] for i in range(0, len(nested), d)]
        return nested

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "DenseTensor") -> "DenseTensor":
        return add(self, other)

    def __sub__(self, other: "DenseTensor") -> "DenseTensor":
        return add(self, scale(-1, other))

    def __neg__(self) -> "DenseTensor":
        return scale(-1, self)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DenseTensor):
            return NotImplemented
        if self.field != other.field or self.shape != other.shape:
            return False
        return all(
            scalars.close(self.field, a, b) for a, b in zip(self.coeffs, other.coeffs)
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"DenseTensor(shape={self.shape}, field={self.field!r}, {self.tolists()!r})"


def basis_vector(d: int, i: int, field: str = RATIONAL) -> DenseTensor:
    """The i-th canonical basis vector of dimension ``d`` (1-based)."""
    if not 1 <= i <= d:
        raise IndexError(f"basis index {i} out of range 1..{d}")
    coeffs = [scalars.zero(field)] * d
    coeffs[i - 1] = scalars.one(field)
    return DenseTensor((d,), coeffs, field)


def add(a: DenseTensor, b: DenseTensor) -> DenseTensor:
    if a.shape != b.shape:
        raise ShapeMismatchError(f"cannot add shapes {a.shape} and {b.shape}")
    scalars.same_field(a.field, b.field)
    return DenseTensor._trusted(a.shape, [x + y for x, y in zip(a.coeffs, b.coeffs)], a.field)


def scale(lam, a: DenseTensor) -> DenseTensor:
    lam = scalars.coerce(a.field, lam)
    return DenseTensor._trusted(a.shape, [lam * c for c in a.coeffs], a.field)


def tensor_product(a: DenseTensor, b: DenseTensor) -> DenseTensor:
    """Tensor product: shape is the concatenation, components multiply.

    ``(a ⊗ b)[i..., j...] = a[i...] * b[j...]``; with row-major flat storage
    this is exactly the outer product of the two coefficient lists.
    """
    scalars.same_field(a.field, b.field)
    coeffs = [x * y for x in a.coeffs for y in b.coeffs]
    return DenseTensor._trusted(a.shape + b.shape, coeffs, a.field)


def multi_tensor_product(factors: Sequence[DenseTensor]) -> DenseTensor:
    """Left fold of :func:`tensor_product`; associativity makes the order moot."""
    factors = list(factors)
    if not factors:
        raise ValueError("multi_tensor_product needs at least one factor")
    out = factors[0]
    for f in factors[1:]:
        out = tensor_product(out, f)
    return out


# -- JSON format -----------------------------------------------------------
#
#   {"shape": [d1, ..., dm], "field": "rational"|"real"|"complex",
#    "coeffs": [...]}
#
# coefficients in row-major order; rationals as "p/q" strings, reals as
# numbers, complex values as [re, im] pairs.  The shape entries must be JSON
# integers.


def tensor_to_json(t: DenseTensor) -> dict:
    return {
        "shape": list(t.shape),
        "field": t.field,
        "coeffs": [scalars.to_json(t.field, c) for c in t.coeffs],
    }


def tensor_from_json(obj: dict) -> DenseTensor:
    if not isinstance(obj, dict) or "shape" not in obj or "coeffs" not in obj:
        raise ValueError(
            "tensor JSON must have 'shape' and 'coeffs' keys; 'field' defaults to 'rational'"
        )
    field = scalars.check_field(obj.get("field", RATIONAL))
    if not isinstance(obj["shape"], list):
        raise ValueError(f"'shape' must be a list of JSON integers, got {obj['shape']!r}")
    shape = tuple(scalars.json_int(n, "every 'shape' entry") for n in obj["shape"])
    if type(obj["coeffs"]) is not list:
        raise ValueError(f"'coeffs' must be a JSON array, got {type(obj['coeffs']).__name__}")
    (coeffs,) = scalars.from_json_lists(field, [obj["coeffs"]])
    return DenseTensor(shape, coeffs, field)


def dump_tensor(t: DenseTensor) -> str:
    return scalars.dump_json(tensor_to_json(t))


def load_tensor(text: str) -> DenseTensor:
    return tensor_from_json(scalars.load_json(text))
