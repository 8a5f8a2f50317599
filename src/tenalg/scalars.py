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

from fractions import Fraction

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
