import math
import random
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tenalg.expr as expr_module
import tenalg.rank as rank_module
from tenalg import scalars
from tenalg import (
    COMPLEX,
    RATIONAL,
    REAL,
    DenseTensor,
    ExprSyntaxError,
    FieldMismatchError,
    expand,
    factor_exact_order2,
    factor_greedy,
    factor_heuristic_higher_order,
    parse,
    rank_decompose_rref,
    render,
    to_coefficient_tensor,
    verify_decomposition,
)
from tenalg.expr import (
    SlotVector,
    TensorExpr,
    Term,
    expr_to_json,
    infer_bases,
    term_factor_vectors,
)

X0A = "a1@b1 + a1@b2 + a2@b1 + a2@b2"
X1 = "a1@b1 + a1@b3 + a2@b2 + a2@b3"
X0B = "a1@b1 + a2@b2 + a1@b3 + a2@b3"
E = "-x@y + 2 x^2@y + 3 x@y^2 - 4 x^2@y^2 + x^3@y^2"
Z_EXPR = "u1@v1@w1 + u1@v2@w2 - u2@v1@w2 + u2@v2@w1"


def coefficient_matrix(text):
    tensor, _ = to_coefficient_tensor(parse(text))
    n, m = tensor.shape
    return [[tensor.coeffs[i * m + j] for j in range(m)] for i in range(n)]


def random_order2_expr(rng, syms=("a1", "a2", "a3"), cos=("b1", "b2")):
    terms = []
    for s in syms:
        for c in cos:
            coeff = rng.randint(-3, 3)
            if coeff:
                terms.append(f"{coeff} {s}@{c}" if coeff > 0 else f"- {-coeff} {s}@{c}")
    text = " + ".join(t for t in terms if not t.startswith("-"))
    negs = " ".join(t for t in terms if t.startswith("-"))
    combined = (text + " " + negs).strip()
    return combined if combined else "a1@b1 - a1@b1"


# -- parsing -----------------------------------------------------------------


def test_parse_x0a():
    e = parse(X0A)
    assert len(e.terms) == 4
    assert e.order == 2
    basis = infer_bases(e)
    assert basis == (("a1", "a2"), ("b1", "b2"))


def test_parse_exercise_polynomial_bases():
    e = parse(E)
    assert len(e.terms) == 5
    basis = infer_bases(e)
    assert basis == (("x", "x^2", "x^3"), ("y", "y^2"))
    assert e.terms[0].coefficient == F(-1)
    assert e.terms[1].coefficient == F(2)


def test_parse_mixed_order_rejected():
    with pytest.raises(ExprSyntaxError, match="mixed term order"):
        parse("a1@b1 + a1")


def test_parse_symbol_reused_across_slots():
    with pytest.raises(ExprSyntaxError, match="appears in slot"):
        parse("a1@b1 + b1@a1")


def test_parse_syntax_error_has_position():
    with pytest.raises(ExprSyntaxError) as err:
        parse("a1@@b1")
    assert err.value.position == 3
    with pytest.raises(ExprSyntaxError):
        parse("a1 @ b1 +")
    with pytest.raises(ExprSyntaxError):
        parse("$a@b")


@pytest.mark.parametrize(
    "text, expected",
    [
        ("2", "expected a symbol or '(', found end of input (at position 1)"),
        ("a1@", "expected a symbol or '(', found end of input (at position 3)"),
        ("(a1", "expected ')', found end of input (at position 3)"),
        ("(a1 + 2", "expected 'ident', found end of input (at position 7)"),
        ("(a1 + 2)", "expected 'ident', found ')' (at position 7)"),
    ],
)
def test_parse_error_names_the_end_of_input(text, expected):
    with pytest.raises(ExprSyntaxError) as err:
        parse(text)
    assert str(err.value) == expected


def test_parse_coefficient_forms():
    for text in ("2 a1@b1", "2*a1@b1", "2a1@b1"):
        e = parse(text)
        assert e.terms[0].coefficient == F(2)
    e = parse("1/2 a1@b1 - 3/4 a2@b1")
    assert e.terms[0].coefficient == F(1, 2)
    assert e.terms[1].coefficient == F(-3, 4)


@pytest.mark.parametrize(
    "text, position",
    [("1" * 4301 + " a@b", 0), ("a@b + 1/" + "2" * 4301 + " a@c", 6), ("(a1 - " + "3" * 5000 + " a2)@b", 6)],
    ids=["integer", "denominator", "slot-coefficient"],
)
def test_parse_refuses_a_number_beyond_the_digit_bound_at_its_position(text, position):
    with pytest.raises(ExprSyntaxError) as err:
        parse(text)
    assert err.value.position == position
    assert str(err.value) == f"a number with more than 4300 digits (at position {position})"


def test_parse_reads_numbers_up_to_the_digit_bound():
    e = parse("9" * 4300 + "/" + "7" * 4300 + " a@b")
    assert e.terms[0].coefficient == F(int("9" * 4300), int("7" * 4300))


@pytest.mark.parametrize(
    "text, position",
    [("٣ a@b", 0), ("a@b + ３ a@c", 6), ("1/٤ a@b", 1), ("² a@b", 0),
     ("a1\u2003@b1", 2), ("a1@\u00a0b1", 3), ("a1\u3000@b1", 2), ("a1\x0b@b1", 2)],
    ids=["arabic-indic", "full-width", "arabic-indic-denominator", "superscript",
         "em-space", "no-break-space", "ideographic-space", "vertical-tab"],
)
def test_parse_reads_only_ascii_digits(text, position):
    with pytest.raises(ExprSyntaxError) as err:
        parse(text)
    assert err.value.position == position


# small integers, and repdigits of up to 4300 digits, which cost little entropy
_magnitude = st.one_of(
    st.integers(1, 10**6),
    st.builds(lambda digit, n: digit * (10**n - 1) // 9, st.integers(1, 9), st.integers(1, 4300)),
)
_big_rational = st.builds(lambda sign, p, q: F(sign * p, q), st.sampled_from([1, -1]), _magnitude, _magnitude)


@st.composite
def _rational_expression(draw):
    order = draw(st.integers(1, 3))

    def slot(k):
        symbols = draw(st.lists(st.sampled_from([f"{'abc'[k]}1", f"{'abc'[k]}2"]), min_size=1, max_size=2, unique=True))
        return SlotVector([(sym, draw(_big_rational)) for sym in symbols])

    return TensorExpr(tuple(
        Term(draw(_big_rational), tuple(slot(k) for k in range(order)))
        for _ in range(draw(st.integers(1, 3)))
    ))


_BIG = F(-(10**4300 - 1), 10**4300 - 2)


@settings(deadline=None, max_examples=100)
@given(_rational_expression())
@example(TensorExpr((Term(_BIG, (SlotVector([("a1", _BIG), ("a2", 1 / _BIG)]), SlotVector([("b1", F(1))]))),)))
def test_render_parse_round_trip_with_numbers_up_to_the_digit_bound(e):
    assert parse(render(e)) == e


def test_parse_parenthesized_combos():
    e = parse("(a1 + 2 a2)@(b1 - b2)")
    assert len(e.terms) == 1
    left, right = e.terms[0].slots
    assert dict(left.entries) == {"a1": F(1), "a2": F(2)}
    assert dict(right.entries) == {"b1": F(1), "b2": F(-1)}


def test_a_zero_slot_renders_as_0_in_parentheses_and_parses_back():
    e = parse("(a1 - a1)@b1 + a2@b2")
    assert render(e) == "(0)@b1 + a2@b2"
    assert parse(render(e)) == e
    assert e.terms[0].slots[0].is_zero()


@pytest.mark.parametrize("text", ["(0)@b1", "(0/7)@b1", "( 0 )@b1", "(00)@b1", "a1@(0)", "(0)@(0)"])
def test_parse_reads_a_number_of_value_0_in_parentheses_as_the_zero_slot(text):
    e = parse(text)
    assert len(e.terms) == 1 and any(sv.is_zero() for sv in e.terms[0].slots)
    assert parse(render(e)) == e


@pytest.mark.parametrize(
    "text, message",
    [
        ("(1)@b1", "expected 'ident', found ')' (at position 2)"),
        ("(-0)@b1", "expected 'ident', found ')' (at position 3)"),
        ("(0*)@b1", "expected 'ident', found ')' (at position 3)"),
        ("(0 0)@b1", "expected 'ident', found Fraction(0, 1) (at position 3)"),
        ("()@b1", "expected 'ident', found ')' (at position 1)"),
        ("(0", "expected 'ident', found end of input (at position 2)"),
        ("0@b1", "expected a symbol or '(', found '@' (at position 1)"),
        ("a1@b1)", "unexpected ')' (at position 5)"),
    ],
)
def test_parse_refuses_other_parenthesised_numbers_as_before(text, message):
    with pytest.raises(ExprSyntaxError) as info:
        parse(text)
    assert str(info.value) == message


def test_parse_rejects_nested_products_in_parens():
    with pytest.raises(ExprSyntaxError):
        parse("(a1@b1) + a2@b2")


# -- coefficient tensor ---------------------------------------------------------


def test_coefficient_tensor_exercise():
    assert coefficient_matrix(E) == [
        [F(-1), F(3)],
        [F(2), F(-4)],
        [F(0), F(1)],
    ]


def test_coefficient_tensor_x0a():
    assert coefficient_matrix(X0A) == [[F(1), F(1)], [F(1), F(1)]]


def test_coefficient_tensor_cancellation():
    e = parse("a1@b1 - a1@b1")
    tensor, _ = to_coefficient_tensor(e)
    assert tensor == DenseTensor.zeros((1, 1))


# -- expand -------------------------------------------------------------------


def test_expand_distributes():
    e = expand(parse("(a1 + a2)@(b1 + b2)"))
    assert render(e) == X0A


def test_expand_idempotent():
    e = expand(parse(X1))
    assert expand(e) == e


def test_expand_zero():
    assert render(expand(parse("2 a1@(b1 - b1)"))) == "0"
    assert render(expand(parse("a1@b1 - a1@b1"))) == "0"


def test_coefficient_tensor_of_the_zero_expression_is_refused():
    with pytest.raises(ValueError) as info:
        to_coefficient_tensor(parse("0"))
    assert str(info.value) == "cannot build a coefficient tensor: no contributing terms"


def test_expand_collects_duplicates():
    e = expand(parse("a1@b1 + 2 a1@b1 - a2@b2"))
    assert render(e) == "3 a1@b1 - a2@b2"


def test_expand_budget_counts_nonzero_terms_times_slots(address_space_cap):
    # 2^17 terms of 17 slots: over MAX_COEFFS slot entries, refused before a term is built
    full = "@".join(f"(x{k}a + x{k}b)" for k in range(17))
    with pytest.raises(ValueError, match="131072 terms of 17 slots"):
        expand(parse(full))
    with pytest.raises(ValueError, match="slot entries"):
        factor_greedy(parse(full))
    # the same coefficient tensor with every coefficient cancelled expands to zero
    assert render(expand(parse(f"{full} - {full}"))) == "0"


def test_render_parse_round_trip_canonical():
    rng = random.Random(2024)
    for _ in range(25):
        e = expand(parse(random_order2_expr(rng)))
        assert expand(parse(render(e))) == e
    zero = expand(parse("a1@b1 - a1@b1"))
    assert render(zero) == "0" and parse(render(zero)) == zero


# A generated expression is a list of terms; a term is (sign, magnitude, written
# coefficient, slots), and a slot is a list of (sign, magnitude, written
# coefficient, symbol) entries with distinct symbols, written bare when it is a
# single entry of coefficient 1 and parenthesised otherwise.
_magnitudes = st.one_of(st.just((1, 1)), st.tuples(st.integers(1, 6), st.integers(1, 4)))


@st.composite
def _coefficient(draw):
    p, q = draw(_magnitudes)
    if (p, q) == (1, 1) and draw(st.booleans()):
        text = ""
    else:
        text = (f"{p}/{q}" if q > 1 else str(p)) + draw(st.sampled_from([" ", "*", " * ", ""]))
    return draw(st.sampled_from([1, -1])), F(p, q), text


@st.composite
def _slot(draw, k):
    symbols = draw(
        st.lists(st.sampled_from([f"{'abc'[k]}1", f"{'abc'[k]}2", f"{'abc'[k]}^2"]),
                 min_size=1, max_size=3, unique=True)
    )
    entries = [draw(_coefficient()) + (sym,) for sym in symbols]
    bare = len(entries) == 1 and entries[0][:3] == (1, F(1), "") and draw(st.booleans())
    return entries, bare


@st.composite
def _grouped_expression(draw):
    order = draw(st.integers(1, 3))
    return [
        draw(_coefficient()) + ([draw(_slot(k)) for k in range(order)],)
        for _ in range(draw(st.integers(1, 4)))
    ]


def _signed_text(pieces):
    return "".join(
        ("-" if sign < 0 else "") + body if i == 0 else (" - " if sign < 0 else " + ") + body
        for i, (sign, body) in enumerate(pieces)
    )


def _expression_text(terms):
    def slot_text(entries, bare):
        if bare:
            return entries[0][3]
        return "(" + _signed_text([(sg, text + sym) for sg, _, text, sym in entries]) + ")"

    return _signed_text(
        [(sign, text + "@".join(slot_text(*slot) for slot in slots)) for sign, _, text, slots in terms]
    )


@settings(deadline=None, max_examples=200)
@given(_grouped_expression())
def test_grouped_expressions_parse_render_and_collect(terms):
    text = _expression_text(terms)
    e = parse(text)
    assert e == TensorExpr(
        tuple(
            Term(
                sign * mag,
                tuple(SlotVector([(sym, sg * m) for sg, m, _, sym in entries]) for entries, _ in slots),
            )
            for sign, mag, _, slots in terms
        )
    )
    rendered = render(e)
    assert parse(rendered) == e
    assert render(parse(rendered)) == rendered
    expected = {}
    for sign, mag, _, slots in terms:
        for picks in product(*[entries for entries, _ in slots]):
            key = tuple(sym for _, _, _, sym in picks)
            expected[key] = expected.get(key, 0) + sign * mag * math.prod(sg * m for sg, m, _, _ in picks)
    tensor, basis = to_coefficient_tensor(parse(text))
    got = dict(zip(product(*basis), tensor.coeffs))
    assert {k: c for k, c in got.items() if c} == {k: c for k, c in expected.items() if c}


# -- exact factoring ---------------------------------------------------------------


def test_factor_exact_x0a_single_term():
    e = parse(X0A)
    f = factor_exact_order2(e)
    assert len(f.terms) == 1
    assert expand(f) == expand(e)
    assert render(f) == "(a1 + a2)@(b1 + b2)"


def test_factor_exact_x1_two_terms():
    e = parse(X1)
    f = factor_exact_order2(e)
    assert len(f.terms) == 2
    assert expand(f) == expand(e)


def test_factor_exact_exercise_two_terms():
    e = parse(E)
    f = factor_exact_order2(e)
    assert len(f.terms) == 2
    assert expand(f) == expand(e)


def test_factor_exact_zero_expression():
    f = factor_exact_order2(parse("a1@b1 - a1@b1"))
    assert f.terms == ()
    assert render(f) == "0"


def test_factor_exact_wrong_order():
    with pytest.raises(ValueError):
        factor_exact_order2(parse("u1@v1@w1"))


def test_factor_exact_svd_route():
    e = parse(X1)
    f = factor_exact_order2(e, route="svd")
    assert f.field == REAL
    assert len(f.terms) == 2
    tensor, basis = to_coefficient_tensor(e)
    target = DenseTensor(tensor.shape, [float(c) for c in tensor.coeffs], REAL)
    ok, residual = verify_decomposition(target, term_factor_vectors(f, basis))
    assert ok and residual <= 1e-9


def test_term_factor_vectors_refuses_a_symbol_outside_the_basis():
    # dropping b9 would verify a factoring whose expansion is a1@b1 + a1@b9
    target, basis = to_coefficient_tensor(parse("a1@b1"))
    with pytest.raises(ValueError, match="^symbol 'b9' in slot 2 is not in that slot's basis$"):
        verify_decomposition(target, term_factor_vectors(parse("a1@(b1 + b9)"), basis))
    with pytest.raises(ValueError, match="^symbol 'a0' in slot 1 "):
        term_factor_vectors(parse("(a0 + a1)@b1"), basis)
    assert verify_decomposition(target, term_factor_vectors(parse("a1@b1"), basis)) == (True, 0.0)


def test_factor_exact_bad_route():
    with pytest.raises(ValueError):
        factor_exact_order2(parse(X0A), route="cholesky")


def test_factor_exact_minimality_matches_rank():
    rng = random.Random(99)
    for _ in range(20):
        text = random_order2_expr(rng)
        e = parse(text)
        f = factor_exact_order2(e)
        expanded = expand(e)
        if not expanded.terms:
            assert f.terms == ()
            continue
        rank = rank_decompose_rref(coefficient_matrix(text)).r
        assert len(f.terms) == rank
        assert expand(f) == expanded


# -- greedy grouping -----------------------------------------------------------------


def test_greedy_left_three_terms():
    f = factor_greedy(parse(X0B), "left")
    assert len(f.terms) == 3
    assert expand(f) == expand(parse(X0B))


def test_greedy_right_two_terms():
    f = factor_greedy(parse(X0B), "right")
    assert len(f.terms) == 2
    assert expand(f) == expand(parse(X0B))


def test_greedy_single_term_unchanged():
    e = parse("a1@b1")
    assert factor_greedy(e, "left") == expand(e)


def test_greedy_bad_direction():
    with pytest.raises(ValueError):
        factor_greedy(parse(X0A), "up")


def test_greedy_never_beats_exact():
    rng = random.Random(4)
    for _ in range(15):
        e = parse(random_order2_expr(rng))
        exact = len(factor_exact_order2(e).terms)
        for direction in ("left", "right"):
            g = factor_greedy(e, direction)
            assert len(g.terms) >= exact
            assert expand(g) == expand(e)


def test_greedy_higher_order():
    e = parse("u1@v1@w1 + u2@v1@w1")
    f = factor_greedy(e, "left")
    assert len(f.terms) == 1
    assert expand(f) == expand(e)


def test_greedy_of_the_zero_expression_and_of_one_slot():
    assert render(factor_greedy(parse("0"))) == "0"
    with pytest.raises(ValueError) as info:
        factor_greedy(parse("a1 + a2"))
    assert str(info.value) == "grouping needs at least 2 slots"


def _reference_factor_greedy(e, direction="left"):
    """The grouping loop as it was before it grouped by key: each merge
    rescans every pair of terms from the start."""
    if direction not in ("left", "right"):
        raise ValueError(f"direction must be 'left' or 'right', got {direction!r}")
    ex = expand(e)
    if not ex.terms:
        return ex
    m = ex.order
    if m < 2:
        raise ValueError("grouping needs at least 2 slots")
    slot_order = list(range(m)) if direction == "left" else list(range(m - 1, -1, -1))
    work = [(t.coefficient, list(t.slots)) for t in ex.terms]
    one = scalars.one(ex.field)

    def merge_at(k: int) -> bool:
        for i in range(len(work)):
            ci, si = work[i]
            for j in range(i + 1, len(work)):
                cj, sj = work[j]
                if all(si[x] == sj[x] for x in range(m) if x != k):
                    merged = SlotVector(
                        (s, c * a) for c, sv in ((ci, si[k]), (cj, sj[k])) for s, a in sv.entries
                    )
                    del work[j]
                    if merged.is_zero():
                        del work[i]
                    else:
                        slots = list(si)
                        slots[k] = merged
                        work[i] = (one, slots)
                    return True
        return False

    changed = True
    while changed:
        changed = False
        for k in slot_order:
            while merge_at(k):
                changed = True
    return TensorExpr(
        tuple(Term(c, tuple(slots)) for c, slots in work), ex.field
    )


_greedy_coefficients = st.sampled_from([F(1), F(-1), F(2), F(-1, 2), F(3, 4), F(0)])


@st.composite
def _greedy_expressions(draw):
    """Expressions of 2-4 slots over at most 3 symbols a slot (2 for 4
    slots): grouped slots, zero slot entries, and terms repeated with the
    opposite sign so that parts of the expansion cancel.  Mostly rational;
    the real and complex ones hold the same small values, whose products
    carry signed zero parts over C."""
    order = draw(st.integers(2, 4))
    width = 2 if order == 4 else 3

    def slot(k):
        picks = draw(st.lists(st.integers(1, width), min_size=1, max_size=width, unique=True))
        return SlotVector([(f"{'abcd'[k]}{i}", draw(_greedy_coefficients)) for i in picks])

    terms = [
        Term(draw(_greedy_coefficients.filter(bool)), tuple(slot(k) for k in range(order)))
        for _ in range(draw(st.integers(1, 6)))
    ]
    terms += [Term(-t.coefficient, t.slots) for t in draw(st.lists(st.sampled_from(terms), max_size=2))]
    field = draw(st.sampled_from([RATIONAL, RATIONAL, REAL, COMPLEX]))
    return TensorExpr(tuple(draw(st.permutations(terms))), field)


@settings(deadline=None, max_examples=300)
@given(_greedy_expressions())
@example(parse(X0B))
@example(parse("(a1 + a2 + a3)@(b1 + b2)@c1 + a1@b3@c2 - a1@b1@c1"))
def test_greedy_matches_the_pairwise_reference(e):
    for direction in ("left", "right"):
        got = factor_greedy(e, direction)
        want = _reference_factor_greedy(e, direction)
        assert render(got) == render(want)
        assert repr(got) == repr(want)


# -- ALS heuristic ---------------------------------------------------------------------


def test_heuristic_rank_one_input():
    f, status = factor_heuristic_higher_order(parse("u1@v1@w1"), 1, REAL)
    assert status == "verified-upper-bound"
    assert len(f.terms) == 1


def test_heuristic_complex_z_two_terms():
    e = parse(Z_EXPR)
    f, status = factor_heuristic_higher_order(e, 2, COMPLEX)
    assert status == "verified-upper-bound"
    assert len(f.terms) == 2
    tensor, basis = to_coefficient_tensor(e)
    target = DenseTensor(tensor.shape, [complex(c) for c in tensor.coeffs], COMPLEX)
    ok, residual = verify_decomposition(target, term_factor_vectors(f, basis))
    assert residual <= 1e-8
    assert ok or residual <= 1e-8


@pytest.fixture
def short_als(monkeypatch):
    """A shorter ALS schedule for tests that only need a run to fail."""
    monkeypatch.setattr(expr_module, "ALS_RESTARTS", 2)
    monkeypatch.setattr(expr_module, "ALS_SWEEPS", 50)


def test_heuristic_failure_is_a_status(short_als):
    e = parse(Z_EXPR)
    f, status = factor_heuristic_higher_order(e, 1, REAL)
    assert status == "failed"
    assert f == e


# the Z expression plus a term whose first slot sums to zero
DEAD_Z_EXPR = "(a1 - a1)@b1@c1 + " + Z_EXPR


def test_heuristic_failure_drops_dead_terms(short_als):
    f, status = factor_heuristic_higher_order(parse(DEAD_Z_EXPR), 2, REAL)
    assert status == "failed"
    assert f == parse(Z_EXPR) and len(f.terms) == 4


@pytest.mark.parametrize(
    "factor, text",
    [
        (factor_exact_order2, X0A),
        (factor_exact_order2, E),
        (lambda e: factor_greedy(e, "left"), X0B),
        (lambda e: factor_greedy(e, "right"), "(a1 - a1)@b1 + " + X0B),
        (lambda e: factor_heuristic_higher_order(e, 2, REAL), DEAD_Z_EXPR),
    ],
    ids=["exact", "exact-polynomial", "greedy-left", "greedy-right-dead-term", "als-failed"],
)
def test_factored_rational_output_parses_back(short_als, factor, text):
    # every route whose result is rational: exact and greedy (no status) and a failed ALS fit
    f = factor(parse(text))
    f = f[0] if isinstance(f, tuple) else f
    assert f.field == RATIONAL
    assert parse(render(f)) == f and expand(f) == expand(parse(text))


def test_verified_als_output_has_no_zero_slot():
    # a verified fit is float-valued, which the expression grammar does not
    # read back; its terms still never print a zero slot
    f, status = factor_heuristic_higher_order(parse("(a1 - a1)@b1@c1 + u1@v1@w1"), 1, REAL)
    assert status == "verified-upper-bound" and len(f.terms) == 1
    assert not any(sv.is_zero() for t in f.terms for sv in t.slots)
    assert "(0)" not in render(f)


def test_heuristic_field_monotonicity_on_z():
    # the Z expression fits at rank 2 over C but not over R, where rank 3 works
    e = parse(Z_EXPR)
    _, status = factor_heuristic_higher_order(e, 2, REAL)
    assert status == "failed"
    f3, status3 = factor_heuristic_higher_order(e, 3, REAL)
    assert status3 == "verified-upper-bound"
    assert len(f3.terms) == 3


def _parts(x):
    """The real, or real and imaginary, parts of a float or complex as exact Fractions."""
    return [F(x.real), F(x.imag)] if isinstance(x, complex) else [F(x)]


# the terms of the Z expression
Z_TERMS = ["u1@v1@w1", "u1@v2@w2", "(-u2)@v1@w2", "u2@v2@w1"]


@st.composite
def _planted_exprs(draw):
    """1-2 rank-1 terms with 3-4 slots over 2 symbols each and small integer factors."""
    order = draw(st.integers(3, 4))
    rank = draw(st.integers(1, 2))
    ints = st.integers(-3, 3).filter(bool)
    terms = []
    for _ in range(rank):
        slots = []
        for k in range(order):
            a, b = draw(ints), draw(ints)
            x = "uvwx"[k]
            slots.append(f"({a} {x}1 {'+-'[b < 0]} {abs(b)} {x}2)")
        terms.append("@".join(slots))
    return terms, rank


@settings(deadline=None, max_examples=25)
@given(_planted_exprs(), st.integers(-60, 60), st.sampled_from([REAL, COMPLEX]))
@example((Z_TERMS, 3), -60, REAL)
@example((Z_TERMS, 3), 60, REAL)
def test_als_status_and_factors_follow_a_power_of_two_scaling(case, j, field):
    terms, rank = case
    c = str(2**j) if j >= 0 else f"1/{2**-j}"
    text = " + ".join(terms)
    scaled_text = " + ".join(f"{c} {t}" for t in terms)
    f, status = factor_heuristic_higher_order(parse(text), rank, field)
    g, scaled_status = factor_heuristic_higher_order(parse(scaled_text), rank, field)
    assert scaled_status == status and len(g.terms) == len(f.terms)
    if status == "failed":
        assert g == parse(scaled_text)
        return
    for t, u in zip(f.terms, g.terms):
        assert [sym for sym, _ in u.slots[0].entries] == [sym for sym, _ in t.slots[0].entries]
        for (_, y), (_, x) in zip(u.slots[0].entries, t.slots[0].entries):
            assert _parts(y) == [part * F(2) ** j for part in _parts(x)]
        assert u.slots[1:] == t.slots[1:]


def _reference_als_fit(dims, target, r, field, rng, sweeps, tol):
    """The ALS fit as it was before it read mode unfoldings: every sweep
    rebuilds the Khatri-Rao rows and offsets by index arithmetic."""
    m = len(dims)
    factors = [[[expr_module._draw(rng, field) for _ in range(r)] for _ in range(d)] for d in dims]
    strides = [1] * m
    for k in range(m - 2, -1, -1):
        strides[k] = strides[k + 1] * dims[k + 1]
    best = math.inf
    stale = 0
    for _ in range(sweeps):
        for n in range(m):
            other = [k for k in range(m) if k != n]
            rows = []  # (base offset, Khatri-Rao row)
            for multi in product(*[range(dims[k]) for k in other]):
                base = sum(i * strides[k] for k, i in zip(other, multi))
                row = []
                for l in range(r):
                    p = 1
                    for k, i in zip(other, multi):
                        p *= factors[k][i][l]
                    row.append(p)
                rows.append((base, row))
            gram = [
                [
                    sum(row[l1].conjugate() * row[l2] for _, row in rows)
                    for l2 in range(r)
                ]
                for l1 in range(r)
            ]
            rhs = [
                [sum(row[l].conjugate() * target[base + i * strides[n]] for base, row in rows)
                 for l in range(r)]
                for i in range(dims[n])
            ]
            try:
                factors[n] = expr_module._solve_linear(gram, rhs)
            except ArithmeticError:
                return math.inf, None
        terms = [[[row[l] for row in f] for f in factors] for l in range(r)]
        _, res = expr_module._residual(field, target, terms)
        if res <= tol:
            return res, terms
        if res < best - 1e-14:
            best = res
            stale = 0
        else:
            stale += 1
            if stale >= 5:
                break
    return best, None


@st.composite
def _als_cases(draw):
    dims = tuple(draw(st.lists(st.integers(1, 3), min_size=3, max_size=4)))
    field = draw(st.sampled_from([REAL, COMPLEX]))
    coerce = complex if field == COMPLEX else float
    target = [coerce(draw(st.integers(-3, 3))) for _ in range(math.prod(dims))]
    return dims, target, draw(st.integers(1, 3)), field, draw(st.integers(0, 10**6))


@settings(deadline=None, max_examples=150)
@given(_als_cases(), st.integers(1, 30), st.sampled_from([0.0, 1e-8]))
def test_als_fit_on_unfoldings_matches_index_arithmetic_bit_for_bit(case, sweeps, tol):
    dims, target, r, field, seed = case
    unfolded = expr_module._unfoldings(dims, target)
    got = expr_module._als_fit(target, unfolded, r, field, random.Random(seed), sweeps, tol)
    want = _reference_als_fit(dims, target, r, field, random.Random(seed), sweeps, tol)
    assert repr(got) == repr(want)


@st.composite
def _planted_als_cases(draw):
    """A 2-3 per slot, order-3 target planted as 1-3 rank-1 terms with small
    integer factors and scaled as ``factor_heuristic_higher_order`` scales it,
    fitted at a rank of 1-3 drawn independently of the planted one."""
    dims = tuple(draw(st.lists(st.integers(2, 3), min_size=3, max_size=3)))
    field = draw(st.sampled_from([REAL, COMPLEX]))
    target = [0] * math.prod(dims)
    for _ in range(draw(st.integers(1, 3))):
        out = [1]
        for d in dims:
            v = draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d))
            out = [x * y for x in out for y in v]
        target = [a + b for a, b in zip(target, out)]
    coerce = complex if field == COMPLEX else float
    target = [coerce(c) for c in target]
    k = rank_module._exponent(target)
    target = [expr_module._ldexp(c, -k) for c in target]
    return dims, target, draw(st.integers(1, 3)), field, draw(st.integers(0, 10**6))


Z_TARGET = [1.0, 0.0, 0.0, 1.0, 0.0, -1.0, 1.0, 0.0]  # Z_EXPR's coefficients over u, v, w
# the old rule verifies this fit only at sweep 497
SLOW_FIT = ((2, 2, 2), [0.625, 0.25, -1.25, -0.25, -1.125, -0.75, 0.0, -1.625], 2, REAL, 868665)
# the old rule fails this fit after 442 sweeps; the plateau rule ends it after 67
PLATEAU = (
    (2, 3, 2),
    [complex(x) for x in [0.625, 0.375, -0.5, -0.125, 0.875, -0.875, 0.6875, 0.5625, -0.25, -0.0625, -0.125, -1]],
    2,
    COMPLEX,
    267397,
)
# the old rule verifies this fit at sweep 234, after about 180 sweeps near a
# best residual of 0.26; the plateau rule ends it after 56
SWAMP = ((2, 2, 2), [-0.1875, 0.375, -0.75, -0.375, 1.0625, -0.125, 1.75, 0.125], 2, REAL, 346125)


@settings(deadline=None, max_examples=60)
@given(_planted_als_cases(), st.integers(2 * expr_module._ALS_WINDOW, expr_module.ALS_SWEEPS))
@example(((2, 2, 2), Z_TARGET, 2, REAL, 0), expr_module.ALS_SWEEPS)
@example(SLOW_FIT, expr_module.ALS_SWEEPS)
@example(PLATEAU, expr_module.ALS_SWEEPS)
@example(SWAMP, expr_module.ALS_SWEEPS)
def test_plateau_rule_only_ends_a_restart_far_from_a_fit(case, sweeps):
    dims, target, r, field, seed = case
    unfolded = expr_module._unfoldings(dims, target)
    tol = expr_module.ALS_TOL
    got = expr_module._als_fit(target, unfolded, r, field, random.Random(seed), sweeps, tol)
    want = _reference_als_fit(dims, target, r, field, random.Random(seed), sweeps, tol)
    # the plateau rule only ends a restart sooner: a fit it returns is the old rule's
    if got[1] is not None:
        assert repr(got) == repr(want)
    elif want[1] is not None:
        # the old rule's fit came after a plateau (SWAMP), ended far from any fit
        assert got[0] > expr_module._ALS_GUARD * tol
    else:
        assert got[0] >= want[0] or math.isinf(want[0])


def test_a_planted_fit_past_a_plateau_is_still_found_by_another_restart():
    # SWAMP's target: the plateau rule ends the restart of SWAMP's seed, yet a
    # restart among seeds 0..19 still fits it at rank 2
    dims, target, r, field, seed = SWAMP
    unfolded = expr_module._unfoldings(dims, target)
    tol = expr_module.ALS_TOL
    assert expr_module._als_fit(target, unfolded, r, field, random.Random(seed), 500, tol)[1] is None
    assert _reference_als_fit(dims, target, r, field, random.Random(seed), 500, tol)[1] is not None
    symbols = product(("u1", "u2"), ("v1", "v2"), ("w1", "w2"))
    slots = [tuple(SlotVector(((s, 1.0),)) for s in syms) for syms in symbols]
    e = TensorExpr(tuple(Term(c, t) for c, t in zip(target, slots) if c), REAL)
    f, status = factor_heuristic_higher_order(e, 2, REAL)
    assert status == "verified-upper-bound" and len(f.terms) == 2


def _scripted_residuals(monkeypatch, residuals):
    """Make ``_residual`` return ``residuals`` in turn, never ok; returns the call log."""
    calls = []

    def scripted(field, target, terms):
        calls.append(residuals[len(calls)])
        return False, calls[-1]

    monkeypatch.setattr(expr_module, "_residual", scripted)
    return calls


@pytest.mark.parametrize(
    "first, drop, sweeps_run",
    [
        # 50 sweeps lower best by about 0.5% only: cut right after sweep 51
        (1.0, 1e-4, expr_module._ALS_WINDOW + 1),
        # the same plateau at best <= _ALS_GUARD * tol is never cut
        (expr_module._ALS_GUARD * expr_module.ALS_TOL, 1e-4, expr_module.ALS_SWEEPS),
        # 50 sweeps lower best by about 5%: no plateau
        (1.0, 1e-3, expr_module.ALS_SWEEPS),
    ],
    ids=["plateau", "plateau-near-a-fit", "progress"],
)
def test_plateau_rule_window_ratio_and_guard(monkeypatch, first, drop, sweeps_run):
    residuals = [first * (1 - drop) ** i for i in range(expr_module.ALS_SWEEPS)]
    calls = _scripted_residuals(monkeypatch, residuals)
    unfolded = expr_module._unfoldings((2, 2, 2), Z_TARGET)
    got = expr_module._als_fit(
        Z_TARGET, unfolded, 2, REAL, random.Random(0), expr_module.ALS_SWEEPS, expr_module.ALS_TOL
    )
    assert len(calls) == sweeps_run
    assert got == (residuals[sweeps_run - 1], None)


_DROP = expr_module._ALS_STALL_DROP


@pytest.mark.parametrize(
    "residuals, sweeps_run, best",
    [
        # NaN never lowers best, so the first 5 sweeps stall the restart
        ([math.nan], 5, math.inf),
        # a drop of exactly _ALS_STALL_DROP is no improvement: sweeps 2-6 stall
        ([1.0] + [1.0 - _DROP], 6, 1.0),
        # a drop by more on sweep 4 restarts the count: sweeps 5-9 stall
        ([1.0, 1.0, 1.0, 0.5], 9, 0.5),
    ],
    ids=["nan", "drop-of-exactly-the-stall-drop", "drop-on-sweep-4"],
)
def test_stall_rule_ends_a_restart_after_5_sweeps_without_a_drop(
    monkeypatch, residuals, sweeps_run, best
):
    residuals = residuals + [residuals[-1]] * (expr_module.ALS_SWEEPS - len(residuals))
    calls = _scripted_residuals(monkeypatch, residuals)
    unfolded = expr_module._unfoldings((2, 2, 2), Z_TARGET)
    got = expr_module._als_fit(
        Z_TARGET, unfolded, 2, REAL, random.Random(0), expr_module.ALS_SWEEPS, expr_module.ALS_TOL
    )
    assert len(calls) == sweeps_run
    assert got == (best, None)


def test_z_real_rank_two_ends_its_restarts_on_a_plateau(monkeypatch):
    # a deterministic witness of the plateau rule's saving: the 5-sweep stall
    # rule alone makes 8638 sweeps here, as 17 of the 20 restarts run all 500
    calls = []
    residual = expr_module._residual

    def counted(*args):
        calls.append(None)
        return residual(*args)

    monkeypatch.setattr(expr_module, "_residual", counted)
    f, status = factor_heuristic_higher_order(parse(Z_EXPR), 2, REAL)
    assert status == "failed" and len(f.terms) == 4
    assert len(calls) <= 2000


def test_heuristic_refuses_a_complex_coefficient_beyond_the_float_range():
    # finite parts, but a modulus of about 2.4e308: abs() of it overflows
    slots = parse("u1@v1@w1").terms[0].slots
    e = TensorExpr((Term(complex(1.7e308, 1.7e308), slots),), COMPLEX)
    with pytest.raises(ValueError, match="complex value's modulus exceeds the float range"):
        factor_heuristic_higher_order(e, 1, COMPLEX)


def test_unfoldings_of_a_2x3x4_tensor():
    dims = (2, 3, 4)
    target = list(range(24))
    unfolded = expr_module._unfoldings(dims, target)
    assert [len(rows) for rows in unfolded] == [2, 3, 4]
    assert unfolded[0] == [list(range(12)), list(range(12, 24))]
    for n, d in enumerate(dims):
        for i in range(d):
            others = [range(dims[k]) if k != n else [i] for k in range(3)]
            want = [target[(a * 3 + b) * 4 + c] for a, b, c in product(*others)]
            assert unfolded[n][i] == want
    assert unfolded[2][1] == [1, 5, 9, 13, 17, 21]


def test_heuristic_never_verifies_nan_factors(monkeypatch, short_als):
    monkeypatch.setattr(expr_module, "_solve_linear", lambda A, B: [[math.nan] * len(A) for _ in B])
    e = parse(Z_EXPR)
    f, status = factor_heuristic_higher_order(e, 3, REAL)
    assert status == "failed" and f == e


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_solve_linear_batch_matches_one_solve_per_rhs(field):
    rng = random.Random(11)

    def draw():
        x = rng.uniform(-1, 1)
        return x if field == REAL else complex(x, rng.uniform(-1, 1))

    for n in range(1, 5):
        A = [[draw() for _ in range(n)] for _ in range(n)]
        B = [[draw() for _ in range(n)] for _ in range(4)]
        assert expr_module._solve_linear(A, B) == [expr_module._solve_linear(A, [b])[0] for b in B]


def _reference_solve_linear(A, B):
    """The ALS solver as first written: the reference ``_solve_linear`` must match bit for bit."""
    n = len(A)
    width = n + len(B)
    M = [list(A[i]) + [b[i] for b in B] for i in range(n)]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(M[r][col]))
        if abs(M[piv][col]) < 1e-250:
            raise ArithmeticError("singular system")
        M[col], M[piv] = M[piv], M[col]
        inv = 1.0 / M[col][col]
        for r in range(col + 1, n):
            f = M[r][col] * inv
            if f != 0:
                for c in range(col, width):
                    M[r][c] -= f * M[col][c]
    X = []
    for j in range(n, width):
        x = [0] * n
        for r in range(n - 1, -1, -1):
            s = M[r][j] - sum(M[r][c] * x[c] for c in range(r + 1, n))
            x[r] = s / M[r][r]
        X.append(x)
    return X


@st.composite
def linear_systems(draw):
    """(A, B) over R or C: n x n with n in 1-3, one to three right-hand sides,
    ties in magnitude, zeros and near-singular pivots included."""
    n = draw(st.integers(1, 3))
    parts = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-300]), st.floats(-1e3, 1e3))
    if draw(st.booleans()):
        scalar = parts
    else:
        scalar = st.builds(complex, parts, parts)
    A = draw(st.lists(st.lists(scalar, min_size=n, max_size=n), min_size=n, max_size=n))
    B = draw(st.lists(st.lists(scalar, min_size=n, max_size=n), min_size=1, max_size=3))
    return A, B


def _solve_or_error(solve, A, B):
    try:
        return repr(solve(A, B))
    except ArithmeticError as exc:
        return type(exc), str(exc)


@settings(deadline=None, max_examples=500)
@given(linear_systems())
def test_solve_linear_matches_the_reference_bit_for_bit(system):
    A, B = system
    # repr tells -0.0 from 0.0 and shows NaNs, which == would not
    assert _solve_or_error(expr_module._solve_linear, A, B) == _solve_or_error(_reference_solve_linear, A, B)


def test_heuristic_rejects_low_order():
    with pytest.raises(ValueError):
        factor_heuristic_higher_order(parse(X0A), 2, REAL)


def test_heuristic_rejects_rational_field():
    with pytest.raises(ValueError):
        factor_heuristic_higher_order(parse(Z_EXPR), 2, RATIONAL)


def test_heuristic_refuses_max_rank_0():
    with pytest.raises(ValueError) as info:
        factor_heuristic_higher_order(parse(Z_EXPR), 0)
    assert str(info.value) == "max_rank must be >= 1"


@pytest.mark.parametrize("text", ["0", "a@b@c - a@b@c"], ids=["no-terms", "cancelling-terms"])
def test_heuristic_of_a_zero_expression_has_no_terms(text):
    assert factor_heuristic_higher_order(parse(text), 1) == (TensorExpr((), REAL), "verified-upper-bound")


def test_exact_rejects_non_rational():
    slots = (SlotVector((("a1", 1.0),)), SlotVector((("b1", 1.0),)))
    with pytest.raises(FieldMismatchError):
        factor_exact_order2(TensorExpr((Term(1.0, slots),), REAL))


# -- JSON AST -----------------------------------------------------------------------


def test_expr_to_json_writes_real_coefficients_as_numbers():
    slots = (SlotVector((("a1", 1.0), ("a2", -0.5))), SlotVector((("b1", 2.0),)))
    obj = expr_to_json(TensorExpr((Term(3, slots),), REAL))
    assert obj == {
        "field": "real",
        "order": 2,
        "terms": [{"coefficient": 3.0, "slots": [[["a1", 1.0], ["a2", -0.5]], [["b1", 2.0]]]}],
    }
    assert type(obj["terms"][0]["coefficient"]) is float


def test_expr_json_structure():
    obj = expr_to_json(parse("2 a1@b1"))
    assert obj["field"] == "rational"
    assert obj["order"] == 2
    assert obj["terms"][0]["coefficient"] == "2"
    assert obj["terms"][0]["slots"] == [[["a1", "1"]], [["b1", "1"]]]


# -- slot vectors --------------------------------------------------------------------


def test_slot_vector_normalization():
    sv = SlotVector((("a", F(1)), ("b", F(2)), ("a", F(-1))))
    assert dict(sv.entries) == {"b": F(2)}
    assert SlotVector((("a", F(1)), ("a", F(-1)))).is_zero()
    # first-appearance order, even for a symbol that cancels and comes back
    sv = SlotVector([("a", F(1)), ("b", F(2)), ("a", F(-1)), ("a", F(3))])
    assert sv.entries == (("a", F(3)), ("b", F(2)))


def test_slot_vector_equality_is_order_insensitive():
    assert SlotVector((("a", F(1)), ("b", F(2)))) == SlotVector(
        (("b", F(2)), ("a", F(1)))
    )


_slot_entries = st.lists(
    st.tuples(st.sampled_from("abcd"), st.sampled_from([F(0), F(1), F(-1), F(1, 2), F(3)])), max_size=6
)


@given(_slot_entries.flatmap(lambda entries: st.tuples(st.just(entries), st.permutations(entries))))
def test_slot_vectors_from_permuted_entries_are_equal_and_hash_equal(pair):
    entries, permuted = pair
    a, b = SlotVector(entries), SlotVector(permuted)
    assert a == b and hash(a) == hash(b)


def test_slot_vectors_and_terms_hash_and_tensor_expressions_do_not():
    # equal coefficients of different numeric types hash equal
    a = SlotVector([("a", 1), ("b", F(1, 2))])
    b = SlotVector([("b", 0.5), ("a", F(1))])
    assert a == b and hash(a) == hash(b)
    assert a != SlotVector([("a", 1)]) and a != SlotVector([("a", 1), ("b", F(1, 3))])
    assert a.__eq__(("a", 1)) is NotImplemented
    assert hash(Term(F(2), (a, b))) == hash(Term(2, (b, a)))
    with pytest.raises(TypeError):
        hash(parse("a1@b1"))


def _reference_expr_eq(a, b):
    """TensorExpr equality as it was before it counted terms: each term of
    ``a`` removes one equal remaining term of ``b``."""
    if a.field != b.field or len(a.terms) != len(b.terms):
        return False
    remaining = list(b.terms)
    for t in a.terms:
        for i, s in enumerate(remaining):
            if t == s:
                del remaining[i]
                break
        else:
            return False
    return True


_eq_terms = st.builds(
    Term,
    st.sampled_from([F(1), F(-1), F(2)]),
    st.tuples(
        st.builds(SlotVector, st.lists(st.tuples(st.sampled_from(["a1", "a2"]), st.sampled_from([F(1), F(2)])), max_size=2)),
        st.builds(SlotVector, st.lists(st.tuples(st.just("b1"), st.just(F(1))), min_size=1, max_size=1)),
    ),
)
_eq_fields = st.sampled_from([RATIONAL, REAL, COMPLEX])


def _reordered(e):
    """The same terms listed in reverse, each slot's entries in reverse."""
    return TensorExpr(
        tuple(Term(t.coefficient, tuple(SlotVector(sv.entries[::-1]) for sv in t.slots)) for t in e.terms[::-1]),
        e.field,
    )


@st.composite
def _expr_pairs(draw):
    a = TensorExpr(tuple(draw(st.lists(_eq_terms, max_size=4))), draw(_eq_fields))
    how = draw(st.sampled_from(["independent", "reordered", "field", "one term changed"]))
    if how == "independent":
        b = TensorExpr(tuple(draw(st.lists(_eq_terms, max_size=4))), draw(_eq_fields))
    elif how == "reordered":
        b = _reordered(a)
    elif how == "field":
        b = TensorExpr(a.terms, draw(_eq_fields))
    else:
        terms = list(a.terms)
        if terms:
            terms[draw(st.integers(0, len(terms) - 1))] = draw(_eq_terms)
        b = TensorExpr(tuple(terms), a.field)
    return a, b


@settings(max_examples=300)
@given(_expr_pairs())
def test_tensor_expression_equality_matches_the_pairwise_reference(pair):
    a, b = pair
    want = _reference_expr_eq(a, b)
    assert (a == b) is want and (b == a) is want and (a != b) is not want


def test_tensor_expression_equality_counts_repeated_terms():
    t, u = parse("a1@b1").terms[0], parse("a2@b1").terms[0]
    assert TensorExpr((t, t, u)) != TensorExpr((t, u, u))
    assert TensorExpr((t, u, t)) == TensorExpr((u, t, t))
    assert parse("a1@b1").__eq__("a1@b1") is NotImplemented


def test_render_real_golden():
    # repr floats: a negative entry, a subnormal and the largest float
    e = TensorExpr(
        (
            Term(-2.5, (SlotVector([("a1", 1.0), ("a2", -0.125)]), SlotVector([("b1", 1.0)]))),
            Term(1e-300, (SlotVector([("a1", 3.0)]), SlotVector([("b2", 1.0), ("b1", -1.7976931348623157e308)]))),
            Term(1.0, (SlotVector([("a2", 5e-324)]), SlotVector([("b2", 1.0)]))),
        ),
        REAL,
    )
    assert render(e) == "-2.5 (a1 - 0.125 a2)@b1 + 1e-300 (3.0 a1)@(b2 - 1.7976931348623157e+308 b1) + (5e-324 a2)@b2"


def test_render_complex_golden():
    # (a+bi) literals: a negative imaginary part, a -0.0 imaginary part (printed +0.0) and a -0.0 real part
    e = TensorExpr(
        (
            Term(complex(1.5, -2.0), (SlotVector([("a1", 1 + 0j), ("a2", complex(2.0, -0.0))]), SlotVector([("b1", 1 + 0j)]))),
            Term(complex(-0.0, 0.25), (SlotVector([("a1", complex(-3.0, -1e-20))]), SlotVector([("b2", 1 + 0j)]))),
        ),
        COMPLEX,
    )
    assert render(e) == "(1.5-2.0i) (a1 + (2.0+0.0i) a2)@b1 + (-0.0+0.25i) ((-3.0-1e-20i) a1)@b2"
