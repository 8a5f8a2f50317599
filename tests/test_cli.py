import io
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from tenalg import algebra
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


@pytest.mark.parametrize(
    "option, message",
    [
        (["--restarts", "0"], "error: restarts must be >= 1\n"),
        (["--sweeps", "0"], "error: sweeps must be >= 1\n"),
        (["--tol-als", "nan"], "error: tol must be a finite number >= 0, got nan\n"),
        (["--tol-als", "-1"], "error: tol must be a finite number >= 0, got -1.0\n"),
    ],
    ids=["restarts-0", "sweeps-0", "tol-nan", "tol-negative"],
)
def test_factor_als_options_that_can_never_fit_are_user_errors(capsys, option, message):
    code, out, err = run(capsys, "factor", "u1@v1@w1", "--method", "als", *option)
    assert (code, out, err) == (1, "", message)


def test_factor_als_failure_prints_only_contributing_terms(capsys):
    z = "u1@v1@w1 + u1@v2@w2 - u2@v1@w2 + u2@v2@w1"
    options = ["--method", "als", "--max-rank", "2", "--restarts", "2", "--sweeps", "50"]
    code, out, _ = run(capsys, "factor", "(a1 - a1)@b1@c1 + " + z, *options)
    assert code == 0 and out == z + "\nterms: 4\nstatus: failed\n"
    # the printed expression is valid input
    assert run(capsys, "factor", z, *options) == (0, out, "")


def test_expand_error_names_the_end_of_input(capsys):
    code, out, err = run(capsys, "expand", "2")
    assert code == 1 and out == ""
    assert err == "error: expected a symbol or '(', found end of input (at position 1)\n"


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
    ],
    ids=["expr-1/0", "json-1/0", "json-nan", "json-inf", "json-minus-inf", "json-overflow",
         "algebra-nan", "csv-nan", "csv-inf", "algebra-inv-overflow", "algebra-project-overflow",
         "algebra-complex-overflow"],
)
def test_zero_denominator_and_non_finite_input_are_user_errors(tmp_path, capsys, argv, text):
    f = tmp_path / "input"
    if text is not None:
        f.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, *[str(f) if a == "FILE" else a for a in argv])
    assert code == 1 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


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
    argvs = _golden_commands(tmp_path) + [
        ["frobnicate"],
        ["sig", str(tmp_path / "path.csv")],
        ["rank", str(tmp_path / "missing.json")],
        ["--help"],
        ["sig", "--help"],
        ["--version"],
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
