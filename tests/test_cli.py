import io
import json
import math
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from tenalg import algebra, expr, rank
from tenalg.cli import main

from test_acceptance import _golden_commands

SRC = str(Path(__file__).resolve().parents[1] / "src")

B_JSON = '{"shape": [2, 2], "field": "rational", "coeffs": ["1", "0", "1", "1"]}'
A_JSON = '{"shape": [2, 2], "field": "rational", "coeffs": ["3", "4", "6", "8"]}'
X_JSON = '{"d": 2, "N": 2, "field": "rational", "levels": [["2"], ["1", "0"], ["0", "0", "0", "0"]]}'
Y_JSON = '{"d": 2, "N": 2, "field": "rational", "levels": [["3"], ["0", "1"], ["0", "0", "0", "0"]]}'


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dim(capsys):
    code, out, _ = run(capsys, "dim", "2", "2")
    assert code == 0 and out == "7\n"


@pytest.mark.parametrize("d, N, digits", [("2", "14000", 4215), ("10", "4299", 4300)])
def test_dim_prints_up_to_4300_digits(capsys, d, N, digits):
    code, out, err = run(capsys, "dim", d, N)
    assert code == 0 and err == ""
    assert out == str(algebra.truncated_dim(int(d), int(N))) + "\n" and len(out) == digits + 1


@pytest.mark.parametrize("d, N", [("2", "20000"), ("10", "4300"), ("10", "100000000")])
def test_dim_over_4300_digits_is_refused_before_the_power(capsys, d, N):
    start = time.perf_counter()
    code, out, err = run(capsys, "dim", d, N)
    assert time.perf_counter() - start < 0.5
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "more than 4300 decimal digits" in err


def test_rank_rref(tmp_path, capsys):
    f = tmp_path / "B.json"
    f.write_text(B_JSON, encoding="utf-8")
    code, out, _ = run(capsys, "rank", str(f), "--method", "rref")
    assert code == 0 and out == "2\n"


def test_rank_svd(tmp_path, capsys):
    f = tmp_path / "A.json"
    f.write_text(A_JSON, encoding="utf-8")
    code, out, _ = run(capsys, "rank", str(f), "--method", "svd")
    assert code == 0 and out == "1\n"


@pytest.mark.parametrize("command", ["rank", "decompose"])
@pytest.mark.parametrize("method", ["rref", "svd"])
def test_order_3_tensor_is_refused_on_both_routes(tmp_path, capsys, command, method):
    f = tmp_path / "T.json"
    f.write_text('{"shape": [1, 1, 2], "field": "rational", "coeffs": ["1", "2"]}', encoding="utf-8")
    code, out, err = run(capsys, command, str(f), "--method", method)
    assert (code, out, err) == (1, "", "error: expected an order-2 tensor, got order 3\n")


@pytest.mark.parametrize(
    "coeff, message",
    [
        ("1e10000000", "error: a rational must be p, -p, p/q or -p/q in ASCII digits, got '1e10000000'\n"),
        ("1e-10000000", "error: a rational must be p, -p, p/q or -p/q in ASCII digits, got '1e-10000000'\n"),
        ("1" * 5000, "error: a number with more than 4300 digits\n"),
    ],
    ids=["exponent", "negative-exponent", "digits"],
)
def test_rank_refuses_a_rational_beyond_the_digit_bound_at_once(tmp_path, capsys, coeff, message):
    f = tmp_path / "big.json"
    f.write_text(f'{{"shape": [1, 1], "field": "rational", "coeffs": ["{coeff}"]}}', encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run(capsys, "rank", str(f))
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (1, "", message)


def test_a_json_integer_beyond_the_digit_bound_is_a_user_error(tmp_path, capsys):
    f = tmp_path / "big.json"
    f.write_text('{"shape": [1, 1], "field": "rational", "coeffs": [' + "1" * 5000 + "]}", encoding="utf-8")
    for method in ("rref", "svd"):
        code, out, err = run(capsys, "rank", str(f), "--method", method)
        assert (code, out) == (1, "")
        assert err == "error: a number with more than 4300 digits\n"
    f.write_text('{"shape": [1, 1], "field": "rational", "coeffs": [-' + "1" * 4300 + "]}", encoding="utf-8")
    assert run(capsys, "rank", str(f)) == (0, "1\n", "")


@pytest.mark.parametrize(
    "argv, text",
    [
        (["algebra", "inv", "FILE"], '{"d": 1, "N": 2, "field": "rational", "levels": [["1"], ["' + "7" * 3000 + '"], ["0"]]}'),
        (["expand", f"{'7' * 3000} a1@(" + "7" * 3000 + " b1)"], None),
    ],
    ids=["algebra-inv", "expand"],
)
def test_a_rational_result_beyond_the_digit_bound_is_a_user_error(tmp_path, capsys, argv, text):
    f = tmp_path / "x.json"
    if text is not None:
        f.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, *[str(f) if a == "FILE" else a for a in argv])
    assert (code, out) == (1, "")
    assert err == "error: a rational result has a numerator or denominator of more than 4300 digits\n"


def test_decompose_json_golden(tmp_path, capsys):
    f = tmp_path / "A.json"
    f.write_text(A_JSON, encoding="utf-8")
    code, out, _ = run(capsys, "decompose", str(f), "--method", "rref", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["rank"] == 1
    assert payload["terms"] == [[["3", "6"], ["1", "4/3"]]]


def test_decompose_human_format(tmp_path, capsys):
    f = tmp_path / "B.json"
    f.write_text(B_JSON, encoding="utf-8")
    code, out, _ = run(capsys, "decompose", str(f))
    assert code == 0
    assert out.splitlines()[0] == "rank 2"
    assert "⊗" in out and "+" in out


def test_decompose_human_format_golden(tmp_path, capsys):
    # 3x2, rank 2: the 3-row d1 blocks are taller than the 2-row d2 blocks,
    # and "1/2" and "-3" make the columns of different widths
    f = tmp_path / "M.json"
    f.write_text(
        '{"shape": [3, 2], "field": "rational", "coeffs": ["1", "1/2", "0", "-3", "2", "1"]}',
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "decompose", str(f))
    assert code == 0
    assert out == (
        "rank 2\n"
        "( 1 )   ( 1 )   ( 1/2 )   ( 0 )\n"
        "( 0 ) ⊗ ( 0 ) + (  -3 ) ⊗ ( 1 )\n"
        "( 2 )           (   1 )\n"
    )


def test_decompose_human_format_real_golden(tmp_path, capsys):
    # the SVD route prints repr floats, -0.0 included
    f = tmp_path / "D.json"
    f.write_text('{"shape": [2, 2], "field": "real", "coeffs": [3.0, 0.0, 0.0, 1.0]}', encoding="utf-8")
    assert run(capsys, "decompose", str(f), "--method", "svd") == (
        0,
        "rank 2\n"
        "(  1.0 ) ⊗ (  3.0 ) + ( -0.0 ) ⊗ ( -0.0 )\n"
        "( -0.0 )   ( -0.0 )   (  1.0 )   (  1.0 )\n",
        "",
    )


def test_decompose_human_format_rank_zero(tmp_path, capsys):
    f = tmp_path / "Z.json"
    f.write_text('{"shape": [2, 2], "field": "rational", "coeffs": ["0", "0", "0", "0"]}', encoding="utf-8")
    assert run(capsys, "decompose", str(f)) == (0, "rank 0\n0\n", "")


def test_factor_exact(capsys):
    code, out, _ = run(capsys, "factor", "a1@b1 + a1@b2 + a2@b1 + a2@b2")
    assert code == 0
    assert out == "(a1 + a2)@(b1 + b2)\nterms: 1\n"


def test_factor_greedy_directions(capsys):
    expr = "a1@b1 + a2@b2 + a1@b3 + a2@b3"
    _, out_left, _ = run(capsys, "factor", expr, "--method", "greedy-left")
    _, out_right, _ = run(capsys, "factor", expr, "--method", "greedy-right")
    assert "terms: 3" in out_left
    assert "terms: 2" in out_right


def test_factor_als_json(capsys):
    code, out, _ = run(
        capsys,
        "factor",
        "u1@v1@w1",
        "--method",
        "als",
        "--field",
        "real",
        "--max-rank",
        "1",
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "verified-upper-bound"
    assert payload["term_count"] == 1


@pytest.mark.parametrize(
    "argv, field",
    [
        (["factor", "u1@v1@w1", "--method", "als", "--json"], "real"),
        (["factor", "a1@b1 + a1@b2 + a2@b1 + a2@b2"], "rational"),
        (["factor", "a1@b1 + a1@b2 + a2@b1", "--method", "greedy-right", "--json"], "rational"),
    ],
)
def test_factor_default_field(capsys, argv, field):
    default = run(capsys, *argv)
    assert default[0] == 0 and default[1]
    assert default == run(capsys, *argv, "--field", field)


def test_factor_greedy_real_field_is_user_error(capsys):
    code, out, err = run(
        capsys, "factor", "a1@b1 + a1@b2", "--method", "greedy-left", "--field", "real"
    )
    assert code == 1 and out == ""
    assert err == "error: greedy factoring works over the rational field\n"


def test_factor_als_rational_field_is_user_error(capsys):
    code, out, err = run(capsys, "factor", "u1@v1@w1", "--method", "als", "--field", "rational")
    assert code == 1 and out == ""
    assert err == "error: heuristic factoring works over the real or complex field\n"


@pytest.mark.parametrize("option", ["--seed", "--sweeps", "--restarts", "--tol-als"])
def test_factor_has_a_fixed_als_schedule(capsys, option):
    code, out, _ = run(capsys, "factor", "--help")
    assert code == 0 and "--max-rank" in out and option not in out
    code, out, err = run(capsys, "factor", "u1@v1@w1", "--method", "als", option, "3")
    assert (code, out) == (1, "") and "unrecognized arguments" in err


def test_factor_als_failure_prints_only_contributing_terms(capsys, monkeypatch):
    monkeypatch.setattr(expr, "ALS_RESTARTS", 2)
    monkeypatch.setattr(expr, "ALS_SWEEPS", 50)
    z = "u1@v1@w1 + u1@v2@w2 - u2@v1@w2 + u2@v2@w1"
    options = ["--method", "als", "--max-rank", "2"]
    code, out, _ = run(capsys, "factor", "(a1 - a1)@b1@c1 + " + z, *options)
    assert code == 0 and out == z + "\nterms: 4\nstatus: failed\n"
    # the printed expression is valid input
    assert run(capsys, "factor", z, *options) == (0, out, "")


def _scaled_z(c):
    """The Z expression with every coefficient multiplied by the rational literal ``c``."""
    return f"{c} u1@v1@w1 + {c} u1@v2@w2 - {c} u2@v1@w2 + {c} u2@v2@w1"


@pytest.mark.parametrize(
    "text, options, terms",
    [
        ("1/1000000000 u1@v1@w1 + 1/1000000000 u2@v2@w2", ["--field", "complex", "--max-rank", "2"], 2),
        (_scaled_z("1/1000000000"), ["--max-rank", "3"], 3),
        (_scaled_z("1000000000000"), ["--max-rank", "3"], 3),
        # a fit whose first slot overflows once scaled back is skipped, not printed
        (_scaled_z("1" + "0" * 308), ["--max-rank", "3"], 3),
    ],
    ids=["rank-2-at-1e-9", "z-at-1e-9", "z-at-1e12", "z-at-1e308"],
)
def test_factor_als_status_does_not_depend_on_the_scale(capsys, text, options, terms):
    # ALS_TOL is relative to the power of two at or below max|coefficient|:
    # a tiny tensor no longer passes with too few terms, a huge one still fits
    code, out, err = run(capsys, "factor", text, "--method", "als", *options)
    assert (code, err) == (0, "")
    assert out.endswith(f"\nterms: {terms}\nstatus: verified-upper-bound\n")
    assert "inf" not in out and "nan" not in out


def test_expand_error_names_the_end_of_input(capsys):
    code, out, err = run(capsys, "expand", "2")
    assert code == 1 and out == ""
    assert err == "error: expected a symbol or '(', found end of input (at position 1)\n"


@pytest.mark.parametrize("space", ["\u2003", "\u00a0", "\u3000"], ids=["em", "no-break", "ideographic"])
def test_factor_refuses_non_ascii_whitespace(capsys, space):
    code, out, err = run(capsys, "factor", f"a1{space}@b1")
    assert (code, out) == (1, "")
    assert err.startswith("error: unexpected character")


def test_factor_syntax_error_exit_code(capsys):
    code, _, err = run(capsys, "factor", "a1@@b1")
    assert code == 1 and "error:" in err


def test_zero_expression_output_feeds_back(capsys):
    code, out, _ = run(capsys, "factor", "a1@b1 - a1@b1")
    assert code == 0 and out == "0\nterms: 0\n"
    code, again, err = run(capsys, "factor", out.splitlines()[0])
    assert code == 0 and again == out and err == ""
    code, out, _ = run(capsys, "expand", "0")
    assert code == 0 and out == "0\n"


def test_expand(capsys):
    code, out, _ = run(capsys, "expand", "(a1 + a2)@(b1 + b2)")
    assert code == 0
    assert out == "a1@b1 + a1@b2 + a2@b1 + a2@b2\n"


def test_expand_json(capsys):
    code, out, _ = run(capsys, "expand", "a1@b1 - a1@b1", "--json")
    assert code == 0
    assert json.loads(out)["terms"] == []


def test_sig(tmp_path, capsys):
    f = tmp_path / "path.csv"
    f.write_text("0,0\n1,0\n1,1\n", encoding="utf-8")
    code, out, _ = run(capsys, "sig", str(f), "--depth", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["levels"][0] == [1.0]
    assert payload["levels"][1] == [1.0, 1.0]
    assert payload["levels"][2] == [0.5, 1.0, 0.0, 0.5]
    assert payload["interval"] == [0.0, 1.0]


def test_sig_oracle_flag(tmp_path, capsys):
    f = tmp_path / "path.csv"
    f.write_text("0\n1\n", encoding="utf-8")
    code, out, _ = run(capsys, "sig", str(f), "--depth", "2", "--oracle", "1000")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["levels"][2][0] - 0.5) < 2e-3


def test_sig_subinterval(tmp_path, capsys):
    f = tmp_path / "path.csv"
    f.write_text("0,0\n1,1\n", encoding="utf-8")
    code, out, _ = run(capsys, "sig", str(f), "--depth", "1", "--from", "0.25", "--to", "0.75")
    assert code == 0
    assert json.loads(out)["levels"][1] == [0.5, 0.5]


@pytest.mark.parametrize("option", ["--from", "--to"])
@pytest.mark.parametrize("value", ["\u0660.\u0665", "0_5", "\uff10.5"], ids=["arabic-indic", "underscore", "full-width"])
def test_sig_interval_is_an_ascii_float(tmp_path, capsys, option, value):
    f = tmp_path / "path.csv"
    f.write_text("0,0\n1,1\n", encoding="utf-8")
    code, out, err = run(capsys, "sig", str(f), "--depth", "1", option, value)
    assert (code, out) == (1, "")
    assert f"argument {option}:" in err


@pytest.mark.parametrize(
    "argv, name",
    [
        (["dim", "{}", "2"], "d"),
        (["dim", "2", "{}"], "N"),
        (["sig", "path.csv", "--depth", "{}"], "--depth"),
        (["sig", "path.csv", "--depth", "2", "--oracle", "{}"], "--oracle"),
        (["algebra", "project", "x.json", "--level", "{}"], "--level"),
        (["factor", "a@b@c", "--method", "als", "--max-rank", "{}"], "--max-rank"),
    ],
    ids=["dim-d", "dim-N", "depth", "oracle", "level", "max-rank"],
)
@pytest.mark.parametrize("value", ["\u0662", "1_0", "+3", " 3"], ids=["arabic-indic", "underscore", "plus", "space"])
def test_integer_options_are_an_optional_minus_and_ascii_digits(capsys, argv, name, value):
    code, out, err = run(capsys, *(arg.format(value) for arg in argv))
    assert (code, out) == (1, "")
    assert f"error: argument {name}: invalid integer_literal value: {value!r}\n" in err


def test_sig_refuses_a_non_ascii_csv_value(tmp_path, capsys):
    f = tmp_path / "path.csv"
    f.write_text("0,0\n\u0663,1_0\n", encoding="utf-8")
    code, out, err = run(capsys, "sig", str(f), "--depth", "1")
    assert (code, out) == (1, "")
    assert err == "error: non-numeric value in CSV row 2: ['\u0663', '1_0']\n"


def test_algebra_mul(tmp_path, capsys):
    fx, fy = tmp_path / "x.json", tmp_path / "y.json"
    fx.write_text(X_JSON, encoding="utf-8")
    fy.write_text(Y_JSON, encoding="utf-8")
    code, out, _ = run(capsys, "algebra", "mul", str(fx), str(fy))
    assert code == 0
    payload = json.loads(out)
    assert payload["levels"] == [["6"], ["3", "2"], ["0", "1", "0", "0"]]


def test_algebra_inv_unit(tmp_path, capsys):
    f = tmp_path / "u.json"
    f.write_text(
        '{"d": 2, "N": 1, "field": "rational", "levels": [["1"], ["0", "0"]]}',
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "algebra", "inv", str(f))
    assert code == 0
    assert json.loads(out)["levels"] == [["1"], ["0", "0"]]


def test_algebra_inv_zero_scalar_is_user_error(tmp_path, capsys):
    f = tmp_path / "x.json"
    f.write_text(
        '{"d": 2, "N": 1, "field": "rational", "levels": [["0"], ["1", "1"]]}',
        encoding="utf-8",
    )
    code, _, err = run(capsys, "algebra", "inv", str(f))
    assert code == 1
    assert "level-0 scalar is zero" in err


@pytest.mark.parametrize(
    "levels, field",
    [
        ('[["1"], ["0", "0"]]', "rational"),  # N = 2 needs three levels
        ('[["1"], ["0", "0", "0"], ["0", "0", "0", "0"]]', "rational"),
        ('[["1"], ["0", 0.5], ["0", "0", "0", "0"]]', "rational"),
        ('[[1.0], [true, 0.0], [0.0, 0.0, 0.0, 0.0]]', "real"),
    ],
    ids=["few-levels", "long-level", "float-in-rational", "true-in-real"],
)
def test_algebra_inv_malformed_operand_is_user_error(tmp_path, capsys, levels, field):
    f = tmp_path / "x.json"
    f.write_text(f'{{"d": 2, "N": 2, "field": "{field}", "levels": {levels}}}', encoding="utf-8")
    code, out, err = run(capsys, "algebra", "inv", str(f))
    assert code == 1 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, text",
    [
        (["rank", "FILE"], '{"shape": [2, 2], "field": "rational", "coeffs": "1234"}'),
        (["algebra", "inv", "FILE"],
         '{"d": 2, "N": 2, "field": "rational", "levels": ["1", ["1", "0"], "1234"]}'),
        (["algebra", "inv", "FILE"], '{"d": 1, "N": 1, "field": "rational", "levels": "12"}'),
    ],
    ids=["string-coeffs", "string-levels", "string-level-list"],
)
def test_json_string_where_an_array_belongs_is_user_error(tmp_path, capsys, argv, text):
    # a string once read as a list of one-character coefficients
    f = tmp_path / "input.json"
    f.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, *[str(f) if a == "FILE" else a for a in argv])
    assert code == 1 and out == ""
    assert err.startswith("error:") and "JSON array" in err and "Traceback" not in err


# a rational with 401 digits, beyond the float range
HUGE = "1" + "0" * 400
DEEP_JSON = "[" * 200_000 + "]" * 200_000
LONG_CSV = "1," + "7" * 200_000 + "\n"


def _matrix_file(field, coeffs):
    return f'{{"shape": [2, 2], "field": "{field}", "coeffs": [{coeffs}]}}'


@pytest.mark.parametrize(
    "argv, text",
    [
        (["factor", "1/0 a1@b1 + a2@b2"], None),
        (["rank", "FILE"], _matrix_file("rational", '"1/0", "1", "1", "1"')),
        (["rank", "FILE", "--method", "svd"], _matrix_file("real", "NaN, 1, 1, 1")),
        (["decompose", "FILE", "--method", "svd"], _matrix_file("real", "1, Infinity, 1, 1")),
        (["rank", "FILE", "--method", "svd"], _matrix_file("real", "1, 1, -Infinity, 1")),
        (["rank", "FILE", "--method", "svd"], _matrix_file("real", "1e999, 1, 1, 1")),
        (["algebra", "inv", "FILE"], '{"d": 1, "N": 1, "field": "real", "levels": [[1.0], [NaN]]}'),
        (["sig", "FILE", "--depth", "2"], "x,y\n0,0\nnan,1\n"),
        (["sig", "FILE", "--depth", "2"], "0,0\n1,inf\n"),
        (["algebra", "inv", "FILE"], '{"d": 1, "N": 1, "field": "real", "levels": [[1e999], [1]]}'),
        (["algebra", "project", "FILE", "--level", "1"],
         '{"d": 1, "N": 1, "field": "real", "levels": [[1e999], [1]]}'),
        (["algebra", "inv", "FILE"],
         '{"d": 1, "N": 1, "field": "complex", "levels": [[[1, 0]], [[0, -1e999]]]}'),
        (["factor", HUGE + " a1@b1@c1", "--method", "als"], None),
        (["factor", HUGE + " a1@b1@c1", "--method", "als", "--field", "complex"], None),
        (["factor", HUGE + " a1@b1 + a2@b2", "--route", "svd"], None),
        (["rank", "FILE", "--method", "svd"], _matrix_file("rational", f'"{HUGE}1", "1", "1", "1"')),
        (["rank", "FILE"], _matrix_file("complex", "[[1], 0], [1, 0], [1, 0], [1, 0]")),
        (["rank", "FILE", "--method", "svd"], _matrix_file("complex", "[1, {}], [1, 0], [1, 0], [1, 0]")),
        (["rank", "FILE", "--method", "svd"], _matrix_file("real", f"{HUGE}, 1, 1, 1")),
        (["algebra", "inv", "FILE"], DEEP_JSON),
        (["sig", "FILE", "--depth", "2"], LONG_CSV),
    ],
    ids=["expr-1/0", "json-1/0", "json-nan", "json-inf", "json-minus-inf", "json-overflow",
         "algebra-nan", "csv-nan", "csv-inf", "algebra-inv-overflow", "algebra-project-overflow",
         "algebra-complex-overflow", "als-huge-coefficient", "als-complex-huge-coefficient",
         "svd-route-huge-coefficient", "svd-huge-rational", "complex-pair-holds-list",
         "complex-pair-holds-dict", "real-huge-integer", "json-nested-too-deep",
         "csv-field-over-limit"],
)
def test_zero_denominator_and_non_finite_input_are_user_errors(tmp_path, capsys, argv, text):
    f = tmp_path / "input"
    if text is not None:
        f.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, *[str(f) if a == "FILE" else a for a in argv])
    assert code == 1 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("error", [TypeError, IndexError, KeyError])
def test_internal_errors_are_not_reported_as_user_errors(tmp_path, monkeypatch, error):
    def broken(t, method):
        raise error("a bug in a kernel")

    f = tmp_path / "B.json"
    f.write_text(B_JSON, encoding="utf-8")
    monkeypatch.setattr(rank, "matrix_rank", broken)
    with pytest.raises(error):
        main(["rank", str(f)])


def test_non_finite_result_is_numerical_failure(tmp_path, capsys):
    f = tmp_path / "big.csv"
    f.write_text("0,0\n1e200,1\n", encoding="utf-8")
    code, out, err = run(capsys, "sig", str(f), "--depth", "2")
    assert code == 2 and out == ""
    assert err.startswith("numerical failure:") and "Traceback" not in err


def test_coefficient_budget_refuses_before_allocating(tmp_path, capsys, address_space_cap):
    f = tmp_path / "p.csv"
    f.write_text("0,0,0\n1,1,1\n", encoding="utf-8")
    tracemalloc.start()
    try:
        for extra in ([], ["--oracle", "10"]):
            code, out, err = run(capsys, "sig", str(f), "--depth", "20", *extra)
            assert code == 1 and out == ""
            assert err.startswith("error:") and "budget" in err
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # level 20 alone would need 3^20 list slots (28 GB of pointers)
    assert peak < 1 << 20
    code, out, _ = run(capsys, "dim", "3", "20")
    assert code == 0 and out == "5230176601\n"


@pytest.mark.parametrize(
    "command",
    [["expand"], ["factor", "--method", "greedy-left"], ["factor", "--method", "als"]],
    ids=["expand", "greedy", "als"],
)
def test_expression_coefficient_budget_refuses_before_allocating(capsys, address_space_cap, command):
    # 399 bytes that expand to 2^30 coefficients (8 GiB of list slots)
    text = "@".join(f"(x{k}a + x{k}b)" for k in range(30))
    code, out, err = run(capsys, command[0], text, *command[1:])
    assert code == 1 and out == ""
    assert err.startswith("error:") and "budget" in err and "Traceback" not in err


def test_algebra_operand_budget_refused_before_levels_are_decoded(tmp_path, capsys):
    # 14 KB on disk; its (N + 1) (N + 2) / 2 multiply-adds per product are
    # over the budget
    f = tmp_path / "long.json"
    levels = json.dumps([["1"]] + [["0"]] * 2000)
    f.write_text(f'{{"d": 1, "N": 2000, "field": "rational", "levels": {levels}}}', encoding="utf-8")
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "algebra", "project", str(f), "--level", "0")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1 and out == ""
    assert err.startswith("error:") and "budget" in err
    assert peak < 1 << 20


def test_algebra_operand_level_count_refused_before_levels_are_built(tmp_path, capsys):
    # 42 KB on disk: a level-1 operand with 6001 levels, refused before a
    # level is built from its flat list
    f = tmp_path / "long.json"
    levels = json.dumps([["1"]] + [["0"]] * 6000)
    f.write_text(f'{{"d": 1, "N": 1, "field": "rational", "levels": {levels}}}', encoding="utf-8")
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "algebra", "inv", str(f))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1 and out == ""
    assert err == "error: need 2 levels for truncation level 1, got 6001\n"
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "argv, text",
    [
        (["algebra", "inv", "FILE"],
         '{"d": 2.7, "N": 1, "field": "rational", "levels": [["1"], ["0", "0"]]}'),
        (["algebra", "inv", "FILE"],
         '{"d": true, "N": 1, "field": "rational", "levels": [["1"], ["0"]]}'),
        (["algebra", "inv", "FILE"],
         '{"d": 1, "N": 1.9, "field": "rational", "levels": [["1"], ["0"]]}'),
        (["rank", "FILE"], '{"shape": [2.5, 2], "field": "rational", "coeffs": ["1", "0", "0", "1"]}'),
    ],
    ids=["float-d", "bool-d", "float-N", "float-shape"],
)
def test_non_integer_json_header_is_user_error(tmp_path, capsys, argv, text):
    f = tmp_path / "input.json"
    f.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, *[str(f) if a == "FILE" else a for a in argv])
    assert code == 1 and out == ""
    assert err.startswith("error:") and "JSON integer" in err and "Traceback" not in err


def test_algebra_project(tmp_path, capsys):
    f = tmp_path / "x.json"
    f.write_text(X_JSON, encoding="utf-8")
    code, out, _ = run(capsys, "algebra", "project", str(f), "--level", "1")
    assert code == 0
    assert json.loads(out)["levels"] == [["2"], ["1", "0"]]


def test_algebra_incompatible_operands(tmp_path, capsys):
    fx, fy = tmp_path / "x.json", tmp_path / "y.json"
    fx.write_text(X_JSON, encoding="utf-8")
    fy.write_text(
        '{"d": 3, "N": 2, "field": "rational", "levels": [["1"], ["0", "0", "0"], '
        + json.dumps(["0"] * 9)
        + "]}",
        encoding="utf-8",
    )
    code, _, err = run(capsys, "algebra", "mul", str(fx), str(fy))
    assert code == 1 and "incompatible" in err


def test_missing_file_is_user_error(capsys):
    code, _, err = run(capsys, "rank", "no-such-file.json")
    assert code == 1 and "error:" in err


def test_unknown_subcommand_exits_1(capsys):
    assert main(["frobnicate"]) == 1


def test_no_arguments_prints_usage(capsys):
    code, _, err = run(capsys)
    assert code == 1 and "usage" in err.lower()
    assert err.endswith("error: a command is required\n")


def test_version_exits_0(capsys):
    assert main(["--version"]) == 0
    assert "tenalg" in capsys.readouterr().out


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0


def test_repeat_runs_identical(tmp_path, capsys):
    f = tmp_path / "B.json"
    f.write_text(B_JSON, encoding="utf-8")
    outputs = []
    for _ in range(2):
        _, out, _ = run(capsys, "decompose", str(f), "--method", "rref")
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_repeated_main_matches_fresh_processes(tmp_path, monkeypatch):
    # help text wraps to the terminal width: pin it for both sides
    monkeypatch.setenv("COLUMNS", "80")
    (tmp_path / "deep.json").write_text(DEEP_JSON, encoding="utf-8")
    (tmp_path / "long.csv").write_text(LONG_CSV, encoding="utf-8")
    (tmp_path / "pair.json").write_text(_matrix_file("complex", "[[1], 0], 1, 1, 1"), encoding="utf-8")
    (tmp_path / "huge.json").write_text(_matrix_file("rational", f'"{HUGE}", "1", "1", "1"'), encoding="utf-8")
    argvs = _golden_commands(tmp_path) + [
        ["frobnicate"],
        ["sig", str(tmp_path / "path.csv")],
        ["rank", str(tmp_path / "missing.json")],
        ["--help"],
        ["sig", "--help"],
        ["--version"],
        [],
        ["algebra", "inv", str(tmp_path / "deep.json")],
        ["sig", str(tmp_path / "long.csv"), "--depth", "2"],
        ["rank", str(tmp_path / "pair.json")],
        ["rank", str(tmp_path / "huge.json"), "--method", "svd"],
        ["factor", HUGE + " a1@b1@c1", "--method", "als", "--max-rank", "1"],
    ]
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    fresh = {}
    for argv in argvs:
        proc = subprocess.run([sys.executable, "-m", "tenalg", *argv], capture_output=True, env=env)
        fresh[tuple(argv)] = (proc.returncode, proc.stdout.decode("utf-8"), proc.stderr.decode("utf-8"))
    assert {code for code, _, _ in fresh.values()} == {0, 1}
    calls = argvs * 3
    random.Random(7).shuffle(calls)
    for argv in calls:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(argv))
        assert (code, out.getvalue(), err.getvalue()) == fresh[tuple(argv)], argv


def test_format_closure_sig_feeds_algebra(tmp_path, capsys):
    f = tmp_path / "path.csv"
    f.write_text("0,0\n0.5,0.25\n1,1\n", encoding="utf-8")
    _, sig_out, _ = run(capsys, "sig", str(f), "--depth", "2")
    sig_file = tmp_path / "sig.json"
    sig_file.write_text(sig_out, encoding="utf-8")
    code, inv_out, _ = run(capsys, "algebra", "inv", str(sig_file))
    assert code == 0
    inv_file = tmp_path / "inv.json"
    inv_file.write_text(inv_out, encoding="utf-8")
    code, prod_out, _ = run(capsys, "algebra", "mul", str(sig_file), str(inv_file))
    assert code == 0
    levels = json.loads(prod_out)["levels"]
    assert levels[0] == [1.0]
    assert all(abs(c) < 1e-12 for lvl in levels[1:] for c in lvl)


# -- the exit contract under fuzzed argv and files ------------------------------
#
# Every outside value reaches the kernels through a reader that raises
# ValueError (or OSError) where it finds the input bad, so main succeeds,
# reports a user error or reports a numerical failure; any exception that
# escapes it is a bug.  Most generated inputs are well formed with at most
# one fault, so the kernels run too.  The work stays bounded: nesting depth
# <= 4, sizes inside the coefficient budget, --oracle <= 50, --max-rank <= 3,
# and ALS runs 2 restarts of at most 10 sweeps.

_ERROR_LINE = re.compile(r"^(error:|numerical failure:|tenalg( \w+)?: error:)", re.M)

_leaf = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.sampled_from([10**400, -(10**30), 2**63]),
    st.floats(),  # NaN and the infinities print as literals the reader refuses
    st.sampled_from(["1", "-3/4", "1/0", "0.5", "1e3", "x", "", "[1]", HUGE]),
)


def _json_values(depth):
    if depth == 0:
        return _leaf
    inner = _json_values(depth - 1)
    keys = st.sampled_from(["shape", "field", "coeffs", "d", "N", "levels", "x"])
    return st.one_of(_leaf, st.lists(inner, max_size=3), st.dictionaries(keys, inner, max_size=3))


def _often(valid, *faults):
    """``valid`` about nine times in ten, otherwise one of ``faults``."""
    return st.sampled_from(range(10)).flatmap(lambda i: valid if i else st.one_of(*faults))


_number = st.one_of(st.integers(-3, 3), st.floats(-4, 4), st.sampled_from([1e300, 1e-300]))
_scalars = {
    "rational": st.one_of(st.integers(-3, 3), st.fractions(max_denominator=5).map(str)),
    "real": _number,
    "complex": st.one_of(st.tuples(_number, _number).map(list), _number),
}
_bad_scalar = st.one_of(
    st.sampled_from(["1/0", "x", HUGE, 0.5, True, 10**400, "1.5", [True, 1], ["1.5", "2"]]),
    st.sampled_from([[[1], 2], [{}, 1], [1, 2, 3], None]),
    _json_values(2),
)
_field_name = st.sampled_from(["rational", "real", "complex"])


@st.composite
def _faulty(draw, doc, flats):
    """``doc`` as it is about half the time; otherwise with one fault: a key
    dropped or replaced by any JSON value, or one coefficient of one of the
    lists ``flats`` replaced by a bad scalar."""
    kind = draw(st.sampled_from(["keep"] * 4 + ["drop", "replace", "scalar", "scalar"]))
    if kind == "scalar" and any(flats):
        flat = draw(st.sampled_from([f for f in flats if f]))
        flat[draw(st.integers(0, len(flat) - 1))] = draw(_bad_scalar)
    elif kind in ("drop", "replace"):
        key = draw(st.sampled_from(sorted(doc)))
        doc = {k: v for k, v in doc.items() if k != key}
        if kind == "replace":
            doc[key] = draw(_json_values(3))
    return doc


@st.composite
def _dense_doc(draw):
    field = draw(_field_name)
    shape = draw(_often(st.lists(st.integers(1, 4), min_size=2, max_size=2),
                        st.lists(st.integers(1, 3), max_size=3)))
    count = math.prod(shape)
    coeffs = draw(st.lists(_scalars[field], min_size=count, max_size=count))
    shape = draw(_often(st.just(shape),
                        st.sampled_from([[10**6, 10**6], [-1, 2], [2.0, 2], [10**30], [0, 1]])))
    return draw(_faulty({"shape": shape, "field": field, "coeffs": coeffs}, [coeffs]))


@st.composite
def _tt_doc(draw):
    field = draw(_field_name)
    d, N = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    levels = [draw(st.lists(_scalars[field], min_size=d**n, max_size=d**n)) for n in range(N + 1)]
    d, N = draw(_often(st.just((d, N)),
                       st.sampled_from([(1, 5000), (10**6, 1), (2, 10**30), (-1, 1), (2, N + 1)])))
    return draw(_faulty({"d": d, "N": N, "field": field, "levels": levels}, levels))


_cell = _often(
    st.one_of(st.integers(-3, 3).map(str), st.floats(-4, 4).map(repr)),
    st.sampled_from(["nan", "inf", "1e200", "1e999", "x", "", " ", HUGE]),
)


@st.composite
def _csv(draw):
    d = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(_cell, min_size=d, max_size=d), min_size=1, max_size=5))
    # a header row, or a row of another dimension
    rows = draw(_often(st.just(rows), st.just([["x"] * d] + rows), st.just(rows + [["1"] * (d + 1)])))
    return "\n".join(map(",".join, rows)) + "\n"


def _encoded(docs):
    return docs.map(lambda v: json.dumps(v).encode())


_any_file = st.one_of(
    _encoded(_json_values(4)),
    st.binary(max_size=24),  # mostly invalid UTF-8
    st.sampled_from(
        [b'{"shape": [1], "coeffs": ["\xff"]}', b"0,0\n\xc3\x28,1\n", b"\xef\xbb\xbf0,1\n"]
    ),
)
_files = {
    "rank": _often(_encoded(_dense_doc()), _any_file),
    "decompose": _often(_encoded(_dense_doc()), _any_file),
    "sig": _often(_csv().map(str.encode), _any_file),
    "algebra": _often(_encoded(_tt_doc()), _any_file),
}


@st.composite
def _expressions(draw):
    order = draw(st.integers(1, 4))
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        slots = []
        for k in range(draw(_often(st.just(order), st.integers(1, 4)))):
            syms = [f"{'abcd'[k]}{i}" for i in draw(st.lists(st.integers(1, 2), min_size=1, max_size=2))]
            coeffs = [draw(st.sampled_from(["", "", "2 ", "1/2 ", "0 "])) for _ in syms]
            body = draw(st.sampled_from([" + ", " - "])).join(c + s for c, s in zip(coeffs, syms))
            slots.append(body if len(syms) == 1 and not coeffs[0] else f"({body})")
        lead = draw(_often(st.sampled_from(["", "3 ", "1/3 ", "10/7 "]),
                           st.sampled_from(["1/0 ", HUGE + " "])))
        terms.append(lead + "@".join(slots))
    return draw(st.sampled_from([" + ", " - "])).join(terms)


_expression = _often(_expressions(), st.text(alphabet="ab12@+-()*/ 0.x", max_size=20))


def _int_text(lo, hi):
    return _often(st.integers(lo, hi).map(str), st.sampled_from(["x", "1.5", ""]))


_options = {
    "dim": [],
    "rank": [("--method", _often(st.sampled_from(["rref", "svd"]), st.just("qr")))],
    "decompose": [("--method", st.sampled_from(["rref", "svd"])), ("--json", None)],
    "factor": [
        ("--method", st.sampled_from(["exact", "greedy-left", "greedy-right", "als"])),
        ("--route", st.sampled_from(["rref", "svd"])),
        ("--field", _often(_field_name, st.just("quaternion"))),
        ("--max-rank", _int_text(-1, 3)),
        ("--json", None),
    ],
    "expand": [("--json", None)],
    "sig": [
        ("--from", _often(st.sampled_from(["0", "0.25"]), st.sampled_from(["1", "-1", "nan", "inf", "x"]))),
        ("--to", _often(st.sampled_from(["1", "0.75"]), st.sampled_from(["0", "2", "nan", "x"]))),
        ("--oracle", _int_text(-1, 50)),
    ],
    "algebra": [("--level", _int_text(-1, 4))],
}


@st.composite
def _cli_cases(draw):
    """(argv with FILE0/FILE1 placeholders, the two files' bytes)."""
    command = draw(_often(st.sampled_from(sorted(_options)), st.just("frobnicate")))
    argv = [command]
    if command == "dim":
        argv += [draw(_often(_int_text(-2, 30), st.sampled_from(["14000", "100000000", "-" + HUGE])))
                 for _ in range(2)]
    elif command in ("factor", "expand"):
        argv.append(draw(_expression))
        if command == "factor":
            argv += ["--max-rank", "2"]
    elif command == "algebra":
        op = draw(_often(st.sampled_from(["mul", "inv", "project"]), st.just("add")))
        argv += [op, "FILE0", "FILE1"][: draw(_often(st.just(3 if op == "mul" else 2), st.integers(1, 3)))]
    elif command == "sig":
        depth = _often(st.integers(0, 4).map(str), st.sampled_from(["-1", "100", "x"]))
        argv += ["FILE0", "--depth", draw(depth)]
    elif command != "frobnicate":
        argv.append("FILE0")
    for flag, value in _options.get(command, []):
        if draw(st.booleans()):
            argv += [flag] if value is None else [flag, draw(value)]
    if draw(_often(st.just(False), st.just(True))):
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(["--bogus", "extra", "-"])))
    files = _files.get(command, _any_file)
    return argv, [draw(files), draw(files)]


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_cli_cases())
@example((["sig", "FILE0", "--depth", "2"], [b"0,0\n1e200,1\n", b""]))  # exit 2
def test_main_exits_0_1_or_2_and_never_raises(tmp_path, address_space_cap, monkeypatch, case):
    # the ALS schedule is 20 restarts of up to 500 sweeps: keep every run small
    monkeypatch.setattr(expr, "ALS_RESTARTS", 2)
    monkeypatch.setattr(expr, "ALS_SWEEPS", 10)
    argv, blobs = case
    paths = []
    for k, blob in enumerate(blobs):
        path = tmp_path / f"input{k}"
        path.write_bytes(blob)
        paths.append(str(path))
    argv = [paths[int(a[-1])] if a in ("FILE0", "FILE1") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code)
    if code:
        assert _ERROR_LINE.search(err.getvalue()), (argv, err.getvalue())
    if code == 2:
        assert out.getvalue() == "", argv
