"""The JSON scalar decoder: a rational decodes exactly as ``Fraction`` would."""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from tenalg.scalars import RATIONAL, from_json


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
