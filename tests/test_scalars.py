"""The JSON scalar decoder: a rational decodes exactly as ``Fraction`` would."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tenalg.scalars import COMPLEX, RATIONAL, REAL, coerce, from_json


def reference(obj):
    """Plain ``Fraction(obj)`` behind the decoder's type check and zero-denominator message."""
    if isinstance(obj, bool) or not isinstance(obj, (str, int)):
        raise ValueError(f"rational scalars must be 'p/q' strings, got {obj!r}")
    try:
        return Fraction(obj)
    except ZeroDivisionError:
        raise ValueError(f"rational scalar {obj!r} has a zero denominator") from None


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
@example("9" * 4301)
@example("-1/" + "7" * 4301)
def test_rational_from_json_agrees_with_fraction(obj):
    assert outcome(lambda o: from_json(RATIONAL, o), obj) == outcome(reference, obj)


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
