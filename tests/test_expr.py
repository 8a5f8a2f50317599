import math
import random
from fractions import Fraction as F

import pytest

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
