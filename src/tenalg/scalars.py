"""Scalar fields shared by every numeric kernel in the package.

Three coefficient fields are supported: exact rationals (``fractions.Fraction``),
64-bit reals (``float``) and complex floats (``complex``).  Every tensor carries
exactly one field tag; mixing scalars from two fields is always an error, never
a silent promotion, because rank over the reals and rank over the complex
numbers genuinely differ and the choice must stay visible.

Rationals compare exactly.  Reals and complex values compare with a combined
absolute/relative tolerance ``EPS_F``.

Every rule for how a scalar or a JSON document enters or leaves tenalg is
written here once, including the one JSON reader and the one JSON writer.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
from collections.abc import Sequence
from fractions import Fraction

RATIONAL = "rational"
REAL = "real"
COMPLEX = "complex"

FIELDS = (RATIONAL, REAL, COMPLEX)

# the one Python type every coefficient of a field has
_TYPES = {RATIONAL: Fraction, REAL: float, COMPLEX: complex}

# the Python types that embed into each field (a bool never does)
_EMBEDS = {RATIONAL: (int, Fraction), REAL: (int, float, Fraction), COMPLEX: (int, float, complex, Fraction)}

# absolute + relative tolerance for float/complex component comparison
EPS_F = 1e-9

# Most digits in a number that tenalg reads (on each side of a rational's
# ``/``) and the most digits it prints: CPython's default int/str limit,
# fixed so that no interpreter setting widens input.
MAX_DIGITS = 4300


class FieldMismatchError(ValueError):
    """Operands from two different scalar fields were combined."""


class NonFiniteResultError(ArithmeticError):
    """A computed coefficient overflowed to an infinity or NaN."""


def check_field(field: str) -> str:
    if field not in FIELDS:
        raise ValueError(f"unknown scalar field {field!r}; expected one of {FIELDS}")
    return field


def same_field(a: str, b: str) -> str:
    if a != b:
        raise FieldMismatchError(f"cannot mix scalar fields {a!r} and {b!r}")
    return a


def zero(field: str):
    return _TYPES[check_field(field)](0)


def one(field: str):
    return _TYPES[check_field(field)](1)


def coerce(field: str, value):
    """Convert ``value`` into ``field``, or raise :class:`FieldMismatchError`.

    Ints embed into every field.  Fractions embed into every field (losing
    exactness outside the rational field); an int or a Fraction beyond the
    float range raises :class:`ValueError` there.  Floats do not embed into
    the rational field: there is no honest way back to an intended ratio.
    Bools, strings and every other type embed nowhere.
    """
    if type(value) is _TYPES.get(field):
        return value
    if not isinstance(value, _EMBEDS[check_field(field)]) or isinstance(value, bool):
        hint = "; use Fraction or int" if field == RATIONAL else ""
        raise FieldMismatchError(f"cannot place {value!r} in the {field} field{hint}")
    if field == RATIONAL:
        return Fraction(value)
    if field == REAL:
        return _float(value)
    return complex(value if isinstance(value, complex) else _float(value))


def _float(value) -> float:
    try:
        return float(value)
    except OverflowError:
        raise ValueError("a value beyond the float range (about 1.8e308) has no float") from None


def close(field: str, a, b) -> bool:
    """Field-appropriate scalar equality: exact for rationals, ``EPS_F`` otherwise."""
    if field == RATIONAL:
        return a == b
    return abs(a - b) <= EPS_F + EPS_F * max(abs(a), abs(b))


def integer_row(row: Sequence[Fraction]) -> tuple[int, list[int]]:
    """``(L, L * row)`` with L the lcm of the row's denominators, so L * row is integral.

    The exact kernels run over Python ints on rows lifted this way and build
    a Fraction only for each result coefficient.
    """
    L = math.lcm(*(x.denominator for x in row))
    return L, [x.numerator * (L // x.denominator) for x in row]


def check_finite(field: str, values) -> None:
    """Raise :class:`ValueError` if a real or complex value is NaN or infinite.

    A JSON reader turns a literal that overflows, such as ``1e999``, into an
    infinity, so every real or complex operand read from JSON, like every
    path point, takes this one pass before it reaches a kernel.  Rationals
    are always finite.
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


def rational_str(value: Fraction) -> str:
    """``str(value)`` for printing, refusing a numerator or denominator of
    more than ``MAX_DIGITS`` digits with :class:`ValueError`.

    ``str`` itself stops at the interpreter's int/str limit, CPython's
    default being ``MAX_DIGITS``; the length check holds the bound under any
    setting.
    """
    try:
        text = str(value)
        if len(text) <= MAX_DIGITS or max(map(len, text.lstrip("-").split("/"))) <= MAX_DIGITS:
            return text
    except ValueError:  # beyond the interpreter's int/str limit
        pass
    raise ValueError(f"a rational result has a numerator or denominator of more than {MAX_DIGITS} digits")


def to_text(field: str, value) -> str:
    """One scalar as tenalg prints it in text: a rational as :func:`rational_str`,
    a real as ``repr``, a complex value as ``(a+bi)`` or ``(a-bi)``."""
    if field == RATIONAL:
        return rational_str(value)
    if field == REAL:
        return repr(value)
    op = "+" if value.imag >= 0 else "-"
    return f"({value.real!r}{op}{abs(value.imag)!r}i)"


def to_json(field: str, value):
    """Encode one scalar for the JSON tensor formats."""
    if field == RATIONAL:
        return rational_str(value)
    if field == REAL:
        return float(value)
    return [value.real, value.imag]


def integer_literal(text: str) -> int:
    """``int(text)`` for an optional ``-`` then 1 to ``MAX_DIGITS`` ASCII digits, the form
    of a JSON integer or an integer CLI argument; :class:`ValueError` for any other
    text, such as ``'٢'``, ``'1_0'``, ``'+3'`` or ``' 3'``, which ``int`` reads."""
    digits = text[1:] if text[:1] == "-" else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"an integer must be an optional '-' and ASCII digits, got {text!r}")
    if len(digits) > MAX_DIGITS:
        raise ValueError(f"a number with more than {MAX_DIGITS} digits")
    return int(text)


def rational_literal(text: str) -> Fraction:
    """The value of ``text`` in the one rational literal that tenalg reads, as
    :func:`from_json` states it; :class:`ValueError` for any other text."""
    num, slash, den = text.partition("/")
    digits = num[1:] if num[:1] == "-" else num
    if text.isascii() and digits.isdigit() and (den.isdigit() or not slash):
        if len(digits) > MAX_DIGITS or len(den) > MAX_DIGITS:
            raise ValueError(f"a number with more than {MAX_DIGITS} digits")
        try:
            return Fraction(int(num), int(den)) if slash else Fraction(int(num))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {text!r}") from None
    shown = repr(text) if len(text) <= 40 else repr(text[:40]) + "..."
    raise ValueError(f"a rational must be p, -p, p/q or -p/q in ASCII digits, got {shown}")


def real_literal(text: str) -> float:
    """``float(text)`` for ASCII text without ``_``, the form of a CSV field
    or a ``--from``/``--to`` value; :class:`ValueError` for any other text,
    such as ``'٣'`` or ``'1_0'``, which ``float`` alone would read."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"a real number must be ASCII with no '_', got {text!r}")
    return float(text)


def from_json(field: str, obj):
    """Decode one scalar from the JSON tensor formats.

    A rational is a JSON integer or a string in the one rational literal,
    the form :func:`to_json` writes: an optional ``-``, 1 to ``MAX_DIGITS``
    ASCII digits, then optionally ``/`` and 1 to ``MAX_DIGITS`` ASCII digits
    that are not all zeros.  :func:`rational_literal` reads it.
    """
    if field == RATIONAL:
        if type(obj) is str:
            return rational_literal(obj)
        if type(obj) is int:
            return Fraction(obj)
        raise ValueError(f"rational scalars must be 'p/q' strings, got {obj!r}")
    if field == REAL:
        return _json_number(obj, "real scalars must be numbers")
    what = "complex scalars must be [re, im] pairs of numbers"
    if isinstance(obj, (list, tuple)) and len(obj) == 2:
        return complex(_json_number(obj[0], what), _json_number(obj[1], what))
    return complex(_json_number(obj, what), 0.0)


def from_json_lists(field: str, lists) -> list[list]:
    """Decode lists of scalars from the JSON tensor formats, one output list per
    input list, then run :func:`check_finite` once over every item.

    Each item is decoded by :func:`from_json`'s rule, in order, so a document
    raises the same first error it would item by item.  Over the rationals a
    ``str`` decoded earlier in the same call reuses that Fraction (Fractions
    are immutable, so lists may share them).  Only strings are keys: a JSON
    integer, ``true`` or ``1.0`` always reaches :func:`from_json`, since
    ``True == 1.0 == 1`` would share one entry.  Nothing is kept between calls.
    """
    if field == RATIONAL:
        memo = {}
        out = []
        for items in lists:
            row = []
            for obj in items:
                if type(obj) is str:
                    if obj in memo:
                        value = memo[obj]
                    else:
                        value = memo[obj] = rational_literal(obj)
                else:
                    value = from_json(field, obj)
                row.append(value)
            out.append(row)
    else:
        out = [[from_json(field, obj) for obj in items] for items in lists]
    check_finite(field, itertools.chain.from_iterable(out))
    return out


def _json_number(obj, what: str) -> float:
    """A JSON number as a float: no bool, string or container."""
    if type(obj) is float:
        return obj
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ValueError(f"{what}, got {obj!r}")
    return _float(obj)


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name} in JSON input")


def load_json(text: str):
    """Parse a JSON document as every tenalg reader does: ``NaN`` and the
    infinities are refused, an integer goes through :func:`integer_literal`
    and so holds at most ``MAX_DIGITS`` digits under any int/str limit, and
    too deep a nesting is a :class:`ValueError`."""
    try:
        return json.loads(text, parse_constant=_reject_constant, parse_int=integer_literal)
    except RecursionError:
        raise ValueError("JSON input is nested too deeply") from None


def dump_json(obj) -> str:
    """Write a JSON document as every tenalg writer does: a NaN or an infinity,
    which :func:`load_json` would refuse, raises :class:`NonFiniteResultError`."""
    try:
        return json.dumps(obj, allow_nan=False)
    except ValueError as exc:
        raise NonFiniteResultError(f"the result holds a NaN or an infinity ({exc})") from None
