"""The JSON scalar decoder: a rational is read in one form, the form tenalg writes."""

import json
import math
import re
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tenalg.scalars as scalars_module
from tenalg.algebra import TruncatedTensor, concat_product, dump_tt, load_tt
from tenalg.dense import DenseTensor, dump_tensor, load_tensor, tensor_product
from tenalg.scalars import (
    COMPLEX,
    RATIONAL,
    REAL,
    FieldMismatchError,
    NonFiniteResultError,
    check_finite,
    coerce,
    from_json,
    integer_literal,
    load_json,
    rational_literal,
    real_literal,
    to_json,
)

# the one rational literal, written out independently of the decoder
_LITERAL = re.compile(r"-?[0-9]{1,4300}(?:/([0-9]{1,4300}))?")


def reference(obj):
    """``Fraction(obj)`` for a JSON integer, or for a string that fully matches
    the one literal with a non-zero denominator; ``ValueError`` otherwise."""
    if type(obj) is int:
        return Fraction(obj)
    literal = _LITERAL.fullmatch(obj) if type(obj) is str else None
    if literal is None or (literal[1] is not None and int(literal[1]) == 0):
        raise ValueError(obj)
    return Fraction(obj)


def outcome(decode, obj):
    try:
        value = decode(obj)
    except ValueError as exc:
        return "raised", type(exc)
    return "value", type(value), value


# ASCII digits, leading zeros likely, plus Arabic-Indic, full-width and superscript digits
_digit = st.sampled_from("0001234567899" + "٣٤３４０²")
_digits = st.lists(st.one_of(_digit, st.just("_")), max_size=6).map("".join)
_space = st.sampled_from(["", "", "", " ", "\t", "\n", "\u00a0", "\u2003"])
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
@example("３")
@example("3/")
@example("3/ 4")
@example(" 3/4 ")
@example("+3")
@example("+3/-4")
@example("1.5")
@example("1e3")
@example("1_000")
@example("007/010")
@example("-0/5")
@example("1/0")
@example("-5/000")
@example("-")
@example("")
@example("3\n")
@example("9" * 4300)
@example("9" * 4301)
@example("-1/" + "7" * 4300)
@example("-1/" + "7" * 4301)
@example("-" + "9" * 4300 + "/" + "7" * 4300)
@example("1e4300")
@example("1/2e10000")
def test_rational_from_json_reads_exactly_the_one_literal(obj):
    assert outcome(lambda o: from_json(RATIONAL, o), obj) == outcome(reference, obj)


# small integers, and repdigits of up to 4300 digits, which cost little entropy
_magnitude = st.one_of(
    st.integers(1, 10**6),
    st.builds(lambda digit, n: digit * (10**n - 1) // 9, st.integers(1, 9), st.integers(1, 4300)),
)


@settings(max_examples=300, deadline=None)
@given(st.builds(lambda sign, p, q: Fraction(sign * p, q), st.sampled_from([1, 0, -1]), _magnitude, _magnitude))
@example(Fraction(-(10**4300 - 1), 10**4300 - 1))
@example(Fraction(10**4300 - 1, 10**4300 - 2))
def test_rational_json_round_trip(q):
    assert from_json(RATIONAL, to_json(RATIONAL, q)) == q


@pytest.mark.parametrize(
    "obj, message",
    [
        ("9" * 4301, "a number with more than 4300 digits"),
        ("-1/" + "7" * 4301, "a number with more than 4300 digits"),
        ("0." + "0" * 4300 + "1", "p, -p, p/q or -p/q in ASCII digits"),
        ("1_" * 4300 + "1", "p, -p, p/q or -p/q in ASCII digits"),
        ("1e4301", "p, -p, p/q or -p/q in ASCII digits"),
        ("-1.5e-1000000 ", "p, -p, p/q or -p/q in ASCII digits"),
    ],
    ids=["integer", "denominator", "decimal", "underscores", "exponent", "negative-exponent"],
)
def test_rational_beyond_the_one_literal_is_refused_with_its_own_message(obj, message):
    with pytest.raises(ValueError, match=message):
        from_json(RATIONAL, obj)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no interpreter limit to lift")
def test_lifting_the_interpreter_limit_does_not_widen_the_bound():
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for obj in ("9" * 4301, "1/" + "7" * 4301, "-" + "1" * 4301 + "/5"):
            with pytest.raises(ValueError, match="a number with more than 4300 digits"):
                from_json(RATIONAL, obj)
    finally:
        sys.set_int_max_str_digits(before)


_mantissa = st.sampled_from(["1", "-2.5", "0.001", ".5", "7.", "+3", " 12"])
_exponent = st.one_of(st.integers(-(10**7), 10**7), st.integers(-4310, 4310))


@settings(max_examples=300, deadline=None)
@given(_mantissa, st.sampled_from("eE"), _exponent)
@example("1", "e", 10**7)
@example("1", "e", -(10**7))
def test_rational_with_a_decimal_exponent_is_refused_at_once(mantissa, e, exponent):
    # memory, not wall time, so a pause of the machine cannot fail it: a refusal
    # that first built the value, as Fraction(text) does, would hold 10^(10^7),
    # about 4 MB, for the explicit examples
    text = f"{mantissa}{e}{exponent}"
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="p, -p, p/q or -p/q in ASCII digits"):
            from_json(RATIONAL, text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


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
    "field, value, message",
    [
        (RATIONAL, 0.5, "cannot place 0.5 in the rational field; use Fraction or int"),
        (REAL, "1", "cannot place '1' in the real field"),
        (COMPLEX, True, "cannot place True in the complex field"),
    ],
)
def test_coerce_names_the_refused_value_and_the_field(field, value, message):
    with pytest.raises(FieldMismatchError) as info:
        coerce(field, value)
    assert str(info.value) == message


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


# -- the one JSON document loader, behind both library loaders ---------------

_LOADERS = pytest.mark.parametrize("load", [load_tensor, load_tt], ids=["load_tensor", "load_tt"])


@_LOADERS
def test_loaders_refuse_a_deeply_nested_document(load):
    with pytest.raises(ValueError, match="nested too deeply"):
        load("[" * 200_000 + "]" * 200_000)


@_LOADERS
def test_loaders_refuse_a_json_integer_beyond_the_digit_bound(load):
    # the integer sits under a key both loaders ignore: the parser refuses it
    doc = '{"shape": [1, 1], "d": 1, "N": 0, "levels": [[1]], "coeffs": [1], "x": ' + "1" * 5000 + "}"
    with pytest.raises(ValueError, match="^a number with more than 4300 digits$"):
        load(doc)
    if hasattr(sys, "set_int_max_str_digits"):
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            with pytest.raises(ValueError, match="^a number with more than 4300 digits$"):
                load(doc)
        finally:
            sys.set_int_max_str_digits(before)


@_LOADERS
@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_loaders_refuse_non_finite_constants(load, constant):
    doc = f'{{"field": "real", "shape": [1, 1], "coeffs": [{constant}], "d": 1, "N": 0, "levels": [[{constant}]]}}'
    with pytest.raises(ValueError, match=f"non-finite number {constant} in JSON input"):
        load(doc)


# -- a rational literal that repeats in a document is decoded once -------------


def _document(load, field, items):
    """A document for ``load`` holding the JSON texts ``items`` in order: one
    dense vector, or one coefficient per level of a d = 1 element."""
    if load is load_tensor:
        return f'{{"shape": [{len(items)}], "field": "{field}", "coeffs": [{", ".join(items)}]}}'
    levels = ", ".join(f"[{c}]" for c in items)
    return f'{{"d": 1, "N": {len(items) - 1}, "field": "{field}", "levels": [{levels}]}}'


def _values(load, text):
    loaded = load(text)
    return loaded.coeffs if load is load_tensor else [c for flat in loaded.flats for c in flat]


@_LOADERS
def test_a_repeated_literal_does_not_let_a_bool_or_float_through(load):
    # True == 1.0 == 1 with equal hashes: a memo keyed by value would accept them
    for item, shown in [("true", "True"), ("1.0", "1.0")]:
        with pytest.raises(ValueError) as info:
            load(_document(load, RATIONAL, ['"1"', item]))
        assert str(info.value) == f"rational scalars must be 'p/q' strings, got {shown}"
    assert _exact(_values(load, _document(load, RATIONAL, ['"1"', "1", '"1"']))) == _exact([Fraction(1)] * 3)


@_LOADERS
def test_a_repeated_bad_literal_raises_the_first_error(load):
    with pytest.raises(ValueError) as info:
        load(_document(load, RATIONAL, ['"1/0"', '"1/0"', '"x"']))
    assert str(info.value) == "zero denominator in '1/0'"


# few distinct JSON texts, so that literals repeat; good and bad ones in every field
_ITEM = st.sampled_from(
    ['"1"', '"-2/3"', '"007/010"', '"1/0"', '"x"', "1", "0", "true", "1.0", "-0.0", "2.5", "1e999", "null"]
    + ["[1, 2]", "[1e999, 0]", "[true, 1]"]
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([RATIONAL, REAL, COMPLEX]), st.lists(_ITEM, min_size=1, max_size=12))
def test_loaders_decode_as_from_json_does_item_by_item(field, items):
    try:
        expected = [from_json(field, obj) for obj in load_json(f"[{', '.join(items)}]")]
        check_finite(field, expected)
        expected = _exact(expected)
    except ValueError as exc:
        expected = str(exc)
    for load in (load_tensor, load_tt):
        try:
            got = _exact(_values(load, _document(load, field, items)))
        except ValueError as exc:
            got = str(exc)
        assert got == expected


def test_loaders_decode_each_distinct_rational_literal_once(monkeypatch):
    calls = []

    def counted(text):
        calls.append(text)
        return rational_literal(text)

    monkeypatch.setattr(scalars_module, "rational_literal", counted)
    levels = [["1"], ["1/2", "-1"], ["0", "1/2", "-1", "0"], ["1", "0", "0", "1/2", "-1", "1", "0", "1"]]
    x = load_tt(json.dumps({"d": 2, "N": 3, "field": RATIONAL, "levels": levels}))
    assert x.flats == [[Fraction(c) for c in lvl] for lvl in levels]
    assert sorted(calls) == ["-1", "0", "1", "1/2"]
    calls.clear()
    coeffs = [c for lvl in levels for c in lvl]
    t = load_tensor(json.dumps({"shape": [3, 5], "field": RATIONAL, "coeffs": coeffs}))
    assert t.coeffs == [Fraction(c) for c in coeffs]
    assert sorted(calls) == ["-1", "0", "1", "1/2"]
    calls.clear()
    load_tensor(json.dumps({"shape": [3], "field": RATIONAL, "coeffs": ["1", "1", "1"]}))
    assert calls == ["1"]  # nothing is kept between documents


# -- the one JSON writer, behind both library writers --------------------------


def _overflowing_tensor():
    v = DenseTensor.vector([1e200], REAL)
    return dump_tensor(tensor_product(v, v))


def _overflowing_tt():
    x = TruncatedTensor.from_flat_levels(1, 1, [[1e308], [1e308]], REAL)
    return dump_tt(concat_product(x, x))


@pytest.mark.parametrize("dump", [_overflowing_tensor, _overflowing_tt], ids=["dump_tensor", "dump_tt"])
def test_writers_refuse_a_non_finite_result(dump):
    # the CLI exits 2 on it: a numerical failure, not a ValueError of bad input
    with pytest.raises(NonFiniteResultError, match=r"^the result holds a NaN or an infinity \(") as info:
        dump()
    assert isinstance(info.value, ArithmeticError) and not isinstance(info.value, ValueError)


# finite floats, with -0.0, subnormals and the ends of the float range drawn often
_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.225e-308, 1.7976931348623157e308, -1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)
_SCALARS = {
    RATIONAL: st.fractions(),
    REAL: _floats,
    COMPLEX: st.builds(complex, _floats, _floats),
}


def _exact(values):
    """Each value's type and repr: equal lists are the same values, -0.0 apart from 0.0."""
    return [(type(c), repr(c)) for c in values]


@st.composite
def _tensors(draw, field):
    shape = tuple(draw(st.lists(st.integers(1, 3), max_size=3)))
    return DenseTensor(shape, draw(st.lists(_SCALARS[field], min_size=math.prod(shape), max_size=math.prod(shape))), field)


@st.composite
def _tts(draw, field):
    d, N = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    levels = [draw(st.lists(_SCALARS[field], min_size=d**n, max_size=d**n)) for n in range(N + 1)]
    return TruncatedTensor.from_flat_levels(d, N, levels, field)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([RATIONAL, REAL, COMPLEX]).flatmap(lambda f: st.tuples(_tensors(f), _tts(f))))
def test_writers_and_loaders_round_trip_every_value_exactly(pair):
    t, x = pair
    back = load_tensor(dump_tensor(t))
    assert back.coeffs == t.coeffs and _exact(back.coeffs) == _exact(t.coeffs)
    flats = load_tt(dump_tt(x)).flats
    assert flats == x.flats and list(map(_exact, flats)) == list(map(_exact, x.flats))


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.floats().map(repr), st.text(alphabet="0123456789.e-+_ ٣１² ", max_size=8)))
@example("٣")
@example("1_0")
@example(" 1.5\n")
@example("-inf")
def test_real_literal_is_float_on_ascii_text_without_underscores(text):
    """float(text) where text is ASCII with no '_'; a ValueError elsewhere,
    even where float alone reads the text ('٣' is 3.0, '1_0' is 10.0)."""
    try:
        expected = repr(float(text)) if text.isascii() and "_" not in text else None
    except ValueError:
        expected = None
    if expected is None:
        with pytest.raises(ValueError):
            real_literal(text)
    else:
        assert repr(real_literal(text)) == expected


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.integers().map(str), st.text(alphabet="0123456789-+_ \n٢２²", max_size=8)))
@example("٢")
@example("1_0")
@example("+3")
@example(" 3")
@example("3\n")
@example("-")
@example("")
@example("-" + "9" * 4300)
@example("9" * 4301)
def test_integer_literal_is_an_optional_minus_and_ascii_digits(text):
    """int(text) where text is '-' or nothing then 1 to 4300 ASCII digits; a
    ValueError elsewhere, even where int alone reads the text."""
    if re.fullmatch(r"-?[0-9]{1,4300}", text):
        assert integer_literal(text) == int(text)
    else:
        with pytest.raises(ValueError):
            integer_literal(text)
