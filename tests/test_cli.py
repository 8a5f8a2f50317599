import json

import pytest

from tenalg.cli import main

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


def test_factor_syntax_error_exit_code(capsys):
    code, _, err = run(capsys, "factor", "a1@@b1")
    assert code == 1 and "error:" in err


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
    ],
    ids=["expr-1/0", "json-1/0", "json-nan", "json-inf", "json-minus-inf", "json-overflow",
         "algebra-nan", "csv-nan", "csv-inf"],
)
def test_zero_denominator_and_non_finite_input_are_user_errors(tmp_path, capsys, argv, text):
    f = tmp_path / "input"
    if text is not None:
        f.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, *[str(f) if a == "FILE" else a for a in argv])
    assert code == 1 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


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
