import math
import random
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tenalg.expr as expr_module
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
    expr_from_json,
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
    assert basis.per_slot == (("a1", "a2"), ("b1", "b2"))


def test_parse_exercise_polynomial_bases():
    e = parse(E)
    assert len(e.terms) == 5
    basis = infer_bases(e)
    assert basis.per_slot == (("x", "x^2", "x^3"), ("y", "y^2"))
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


def test_parse_parenthesized_combos():
    e = parse("(a1 + 2 a2)@(b1 - b2)")
    assert len(e.terms) == 1
    left, right = e.terms[0].slots
    assert dict(left.entries) == {"a1": F(1), "a2": F(2)}
    assert dict(right.entries) == {"b1": F(1), "b2": F(-1)}


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


def test_expand_collects_duplicates():
    e = expand(parse("a1@b1 + 2 a1@b1 - a2@b2"))
    assert render(e) == "3 a1@b1 - a2@b2"


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
    got = dict(zip(product(*basis.per_slot), tensor.coeffs))
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


def test_heuristic_failure_is_a_status():
    e = parse(Z_EXPR)
    f, status = factor_heuristic_higher_order(e, 1, REAL, restarts=3, sweeps=100)
    assert status == "failed"
    assert f == e


# the Z expression plus a term whose first slot sums to zero
DEAD_Z_EXPR = "(a1 - a1)@b1@c1 + " + Z_EXPR


def test_heuristic_failure_drops_dead_terms():
    f, status = factor_heuristic_higher_order(parse(DEAD_Z_EXPR), 2, REAL, restarts=2, sweeps=50)
    assert status == "failed"
    assert f == parse(Z_EXPR) and len(f.terms) == 4


@pytest.mark.parametrize(
    "factor, text",
    [
        (factor_exact_order2, X0A),
        (factor_exact_order2, E),
        (lambda e: factor_greedy(e, "left"), X0B),
        (lambda e: factor_greedy(e, "right"), "(a1 - a1)@b1 + " + X0B),
        (lambda e: factor_heuristic_higher_order(e, 2, REAL, restarts=2, sweeps=50), DEAD_Z_EXPR),
    ],
    ids=["exact", "exact-polynomial", "greedy-left", "greedy-right-dead-term", "als-failed"],
)
def test_factored_rational_output_parses_back(factor, text):
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


@pytest.mark.parametrize(
    "options, message",
    [
        ({"restarts": 0}, "restarts must be >= 1"),
        ({"sweeps": 0}, "sweeps must be >= 1"),
        ({"tol": math.nan}, "tol must be a finite number >= 0"),
        ({"tol": math.inf}, "tol must be a finite number >= 0"),
        ({"tol": -1e-8}, "tol must be a finite number >= 0"),
    ],
    ids=["restarts-0", "sweeps-0", "tol-nan", "tol-inf", "tol-negative"],
)
def test_heuristic_rejects_options_that_can_never_fit(options, message):
    with pytest.raises(ValueError, match=message):
        factor_heuristic_higher_order(parse("u1@v1@w1"), 1, REAL, **options)


def test_heuristic_field_monotonicity_on_z():
    # the Z expression fits at rank 2 over C but not over R, where rank 3 works
    e = parse(Z_EXPR)
    _, status = factor_heuristic_higher_order(e, 2, REAL)
    assert status == "failed"
    f3, status3 = factor_heuristic_higher_order(e, 3, REAL)
    assert status3 == "verified-upper-bound"
    assert len(f3.terms) == 3


def test_heuristic_never_verifies_nan_factors(monkeypatch):
    monkeypatch.setattr(expr_module, "_solve_linear", lambda A, B: [[math.nan] * len(A) for _ in B])
    e = parse(Z_EXPR)
    f, status = factor_heuristic_higher_order(e, 3, REAL, restarts=2, sweeps=10)
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


def test_heuristic_rejects_low_order():
    with pytest.raises(ValueError):
        factor_heuristic_higher_order(parse(X0A), 2, REAL)


def test_heuristic_rejects_rational_field():
    with pytest.raises(ValueError):
        factor_heuristic_higher_order(parse(Z_EXPR), 2, RATIONAL)


def test_exact_rejects_non_rational():
    obj = {
        "field": "real",
        "order": 2,
        "terms": [{"coefficient": 1.0, "slots": [[["a1", 1.0]], [["b1", 1.0]]]}],
    }
    with pytest.raises(FieldMismatchError):
        factor_exact_order2(expr_from_json(obj))


# -- JSON AST -----------------------------------------------------------------------


def test_expr_json_round_trip():
    e = parse(E)
    assert expr_from_json(expr_to_json(e)) == e


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


def test_slot_vector_equality_is_order_insensitive():
    assert SlotVector((("a", F(1)), ("b", F(2)))) == SlotVector(
        (("b", F(2)), ("a", F(1)))
    )
