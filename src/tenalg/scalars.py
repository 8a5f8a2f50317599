"""Scalar fields shared by every numeric kernel in the package.

Three coefficient fields are supported: exact rationals (``fractions.Fraction``),
64-bit reals (``float``) and complex floats (``complex``).  Every tensor carries
exactly one field tag; mixing scalars from two fields is always an error, never
a silent promotion, because rank over the reals and rank over the complex
numbers genuinely differ and the choice must stay visible.

Rationals compare exactly.  Reals and complex values compare with a combined
absolute/relative tolerance ``EPS_F``.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import List, Sequence, Tuple

RATIONAL = "rational"
REAL = "real"
COMPLEX = "complex"

FIELDS = (RATIONAL, REAL, COMPLEX)

# the one Python type every coefficient of a field has
_TYPES = {RATIONAL: Fraction, REAL: float, COMPLEX: complex}

# absolute + relative tolerance for float/complex component comparison
EPS_F = 1e-9


class FieldMismatchError(ValueError):
    """Operands from two different scalar fields were combined."""


def check_field(field: str) -> str:
    if field not in FIELDS:
        raise ValueError(f"unknown scalar field {field!r}; expected one of {FIELDS}")
    return field


def same_field(a: str, b: str) -> str:
    if a != b:
        raise FieldMismatchError(f"cannot mix scalar fields {a!r} and {b!r}")
    return a


def zero(field: str):
    if field == RATIONAL:
        return Fraction(0)
    if field == REAL:
        return 0.0
    return complex(0.0, 0.0)


def one(field: str):
    if field == RATIONAL:
        return Fraction(1)
    if field == REAL:
        return 1.0
    return complex(1.0, 0.0)


def coerce(field: str, value):
    """Convert ``value`` into ``field``, or raise :class:`FieldMismatchError`.

    Ints embed into every field.  Fractions embed into every field (losing
    exactness outside the rational field).  Floats do not embed into the
    rational field: there is no honest way back to an intended ratio.
    """
    if type(value) is _TYPES.get(field):
        return value
    check_field(field)
    if field == RATIONAL:
        if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
            raise FieldMismatchError(
                f"cannot place {value!r} in the rational field; use Fraction or int"
            )
        return Fraction(value)
    if field == REAL:
        if isinstance(value, bool) or not isinstance(value, (int, float, Fraction)):
            raise FieldMismatchError(f"cannot place {value!r} in the real field")
        return float(value)
    if isinstance(value, bool) or not isinstance(value, (int, float, complex, Fraction)):
        raise FieldMismatchError(f"cannot place {value!r} in the complex field")
    if isinstance(value, Fraction):
        value = float(value)
    return complex(value)


def close(field: str, a, b) -> bool:
    """Field-appropriate scalar equality: exact for rationals, ``EPS_F`` otherwise."""
    if field == RATIONAL:
        return a == b
    return abs(a - b) <= EPS_F + EPS_F * max(abs(a), abs(b))


def integer_row(row: Sequence[Fraction]) -> Tuple[int, List[int]]:
    """``(L, L * row)`` with L the lcm of the row's denominators, so L * row is integral.

    The exact kernels run over Python ints on rows lifted this way and build
    a Fraction only for each result coefficient.
    """
    L = math.lcm(*(x.denominator for x in row))
    return L, [x.numerator * (L // x.denominator) for x in row]


def check_finite(field: str, values) -> None:
    """Raise :class:`ValueError` if a real or complex value is NaN or infinite.

    A JSON reader turns a literal that overflows, such as ``1e999``, into an
    infinity, so every real or complex operand read from JSON takes this one
    pass before it reaches a kernel.  Rationals are always finite.
    """
    if field == RATIONAL:
        return
    if not all(map(math.isfinite if field == REAL else cmath.isfinite, values)):
        raise ValueError(f"{field} coefficients must be finite, got NaN or an infinity")


def json_int(obj, what: str) -> int:
    """Decode an integer header value (a size or a level) of the JSON formats.

    Only a JSON integer is accepted: a float, a bool or a string is refused,
    never truncated or converted.
    """
    if type(obj) is not int:
        raise ValueError(f"{what} must be a JSON integer, got {obj!r}")
    return obj


def to_json(field: str, value):
    """Encode one scalar for the JSON tensor formats."""
    if field == RATIONAL:
        return str(value)
    if field == REAL:
        return float(value)
    return [value.real, value.imag]


def from_json(field: str, obj):
    """Decode one scalar from the JSON tensor formats."""
    if field == RATIONAL:
        if isinstance(obj, (str, int)) and not isinstance(obj, bool):
            try:
                return Fraction(obj)
            except ZeroDivisionError:
                raise ValueError(f"rational scalar {obj!r} has a zero denominator") from None
        raise ValueError(f"rational scalars must be 'p/q' strings, got {obj!r}")
    if field == REAL:
        if isinstance(obj, bool) or not isinstance(obj, (int, float)):
            raise ValueError(f"real scalars must be numbers, got {obj!r}")
        return float(obj)
    if isinstance(obj, (list, tuple)) and len(obj) == 2:
        return complex(float(obj[0]), float(obj[1]))
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        return complex(float(obj), 0.0)
    raise ValueError(f"complex scalars must be [re, im] pairs, got {obj!r}")
