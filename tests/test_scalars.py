"""The JSON scalar decoder: a rational decodes exactly as ``Fraction`` would."""

import fractions
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tenalg.scalars import COMPLEX, RATIONAL, REAL, coerce, from_json


def reference(obj):
    """Plain ``Fraction(obj)`` behind the decoder's type check, its zero-denominator
    message and its bound on a decimal exponent, which is found with
    ``Fraction``'s own literal grammar."""
    if isinstance(obj, bool) or not isinstance(obj, (str, int)):
        raise ValueError(f"rational scalars must be 'p/q' strings, got {obj!r}")
    try:
        value = Fraction(obj)
    except ZeroDivisionError:
        raise ValueError(f"rational scalar {obj!r} has a zero denominator") from None
    literal = fractions._RATIONAL_FORMAT.match(obj) if isinstance(obj, str) else None
    if literal and literal["exp"] and abs(int(literal["exp"])) > 4300:
        raise ValueError("a rational scalar string has a decimal exponent beyond ±4300")
    return value


def outcome(decode, obj):
    try:
        value = decode(obj)
    except Exception as exc:  # the type and the message are part of the contract
        return "raised", type(exc), str(exc)
    return "value", type(value), value


# ASCII digits, leading zeros likely, plus Arabic-Indic, full-width and superscript digits
_digit = st.sampled_from("0001234567899" + "٣٤３４０²")
_digits = st.lists(st.one_of(_digit, st.just("_")), max_size=6).map("".join)
_space = st.sampled_from(["", "", "", " ", "\t", "\n", " ", " "])
_sign = st.sampled_from(["", "", "-", "+", "--", "+-", "-+"])
_tail = st.one_of(
    st.just(""),
    st.tuples(_space, st.just("/"), _space, _sign, _digits).map("".join),
    st.tuples(st.just("."), _digits).map("".join),
    st.tuples(st.sampled_from(["", ".5"]), st.sampled_from("eE"), _sign, _digits).map("".join),
    st.tuples(st.just("/"), _digits, st.just("/"), _digits).map("".join),
)
_rational_like = st.tuples(_space, _sign, _digits, _tail, _space).map("".join)


@settings(max_examples=1500, deadline=None)
@given(st.one_of(_rational_like, st.text(max_size=8), st.integers(), st.booleans(), st.floats(), st.none()))
@example("٣/٤")
@example("３/４")
@example("3/")
@example("3/ 4")
@example("+3/-4")
@example("007/010")
@example("-0/5")
@example("1/0")
@example("-5/000")
@example("-")
@example("")
@example("1_000/3")
@example("9" * 4300)
@example("-1/" + "7" * 4300)
@example("-" + "9" * 4300 + "/" + "7" * 4300)
@example("1e4300")
@example("-2.5E-4_300")
@example("0e10000")
@example(" .5E+9_999\t")
@example("e10000")
@example("1/2e10000")
def test_rational_from_json_agrees_with_fraction(obj):
    assert outcome(lambda o: from_json(RATIONAL, o), obj) == outcome(reference, obj)


@pytest.mark.parametrize(
    "obj, message",
    [
        ("9" * 4301, "a run of more than 4300 digits"),
        ("-1/" + "7" * 4301, "a run of more than 4300 digits"),
        ("0." + "0" * 4300 + "1", "a run of more than 4300 digits"),
        ("1_" * 4300 + "1", "a run of more than 4300 digits"),
        ("1e4301", "a decimal exponent beyond ±4300"),
        ("-1.5e-1000000 ", "a decimal exponent beyond ±4300"),
    ],
    ids=["integer", "denominator", "decimal", "underscores", "exponent", "negative-exponent"],
)
def test_rational_beyond_the_digit_bound_is_refused_with_its_own_message(obj, message):
    with pytest.raises(ValueError, match=message):
        from_json(RATIONAL, obj)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no interpreter limit to lift")
def test_lifting_the_interpreter_limit_does_not_widen_the_bound():
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for obj in ("9" * 4301, "1/" + "7" * 4301, "1" * 4301 + ".5"):
            with pytest.raises(ValueError, match="a run of more than 4300 digits"):
                from_json(RATIONAL, obj)
    finally:
        sys.set_int_max_str_digits(before)


_mantissa = st.sampled_from(["1", "-2.5", "0.001", ".5", "7.", "+3", " 12"])
_exponent = st.one_of(st.integers(-(10**7), 10**7), st.integers(-4310, 4310))


@settings(max_examples=300, deadline=None)
@given(_mantissa, st.sampled_from("eE"), _exponent)
@example("1", "e", 10**7)
@example("1", "e", -(10**7))
def test_rational_decimal_exponent_is_bounded(mantissa, e, exponent):
    text = f"{mantissa}{e}{exponent}"
    if abs(exponent) <= 4300:
        assert from_json(RATIONAL, text) == Fraction(text)
        return
    start = time.perf_counter()
    with pytest.raises(ValueError, match="decimal exponent beyond ±4300"):
        from_json(RATIONAL, text)
    assert time.perf_counter() - start < 0.05


@pytest.mark.parametrize("field", [REAL, COMPLEX])
@pytest.mark.parametrize(
    "value",
    [10**400, -(10**400), Fraction(10**400, 3), Fraction(-(10**309))],
    ids=["int", "negative-int", "fraction", "negative-fraction"],
)
def test_coerce_beyond_the_float_range_is_a_value_error(field, value):
    with pytest.raises(ValueError, match="float range") as info:
        coerce(field, value)
    assert type(info.value) is ValueError


@pytest.mark.parametrize(
    "field, obj",
    [(COMPLEX, obj)
     for obj in ([True, 1], [1, False], ["1.5", "2"], [[1], 2], [{}, 1], [None, 0], [10**400, 0], "1")]
    + [(REAL, obj) for obj in (10**400, True, "1.5", [1.0])],
    ids=["complex-bool-re", "complex-bool-im", "complex-strings", "complex-list", "complex-dict",
         "complex-null", "complex-huge", "complex-string", "real-huge", "real-bool", "real-string",
         "real-list"],
)
def test_real_and_complex_parts_from_json_must_be_json_numbers_in_the_float_range(field, obj):
    with pytest.raises(ValueError):
        from_json(field, obj)
