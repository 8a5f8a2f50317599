"""The CLI runs on the standard library alone.

Every command here starts a fresh ``python -S -m tenalg`` process: ``-S``
hides site-packages, so an import of anything outside the standard library
fails.  Good input exits 0 with the expected stdout; bad input exits 1 with
an error line and no traceback; no command may run past ``TIMEOUT`` seconds.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")
TIMEOUT = 10

X_JSON = '{"d": 2, "N": 2, "field": "rational", "levels": [["2"], ["1", "0"], ["0", "1/2", "0", "0"]]}'
M_JSON = '{"shape": [2, 3], "field": "rational", "coeffs": ["1", "2", "3", "2", "4", "6"]}'
P_CSV = "0,0\n1,0\n1,1\n"

# input files of the refused cases, by name
BAD_FILES = {
    "deep.json": "[" * 200000 + "]" * 200000,
    "pair.json": '{"shape": [1, 1], "field": "complex", "coeffs": [[[1], 2]]}',
    "exp.json": '{"shape": [1, 1], "field": "rational", "coeffs": ["1e10000000"]}',
    # a rational is read only in the form tenalg writes: p, -p, p/q or -p/q
    "decimal.json": '{"shape": [1, 1], "field": "rational", "coeffs": ["1.5"]}',
    "sci.json": '{"shape": [1, 1], "field": "rational", "coeffs": ["1e3"]}',
    "bigint.json": '{"shape": [1, 1], "field": "rational", "coeffs": [' + "1" * 5000 + "]}",
    # U+0663 ARABIC-INDIC DIGIT THREE, which float() alone reads as 3
    "digits.csv": "0,0\n٣,1_0\n",
}


def tenalg(*argv, cwd):
    """Run ``python -S -m tenalg argv`` in ``cwd``; a hang raises ``TimeoutExpired``."""
    proc = subprocess.run(
        [sys.executable, "-S", "-m", "tenalg", *argv],
        capture_output=True,
        text=True,
        encoding="utf-8",
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=SRC),
        timeout=TIMEOUT,
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture
def inputs(tmp_path):
    for name, text in {"x.json": X_JSON, "m.json": M_JSON, "p.csv": P_CSV, **BAD_FILES}.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    return tmp_path


def test_cli_import_loads_no_dataclasses_typing_or_inspect():
    code = "import sys, tenalg.cli; print(sorted({'dataclasses', 'typing', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC)
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


@pytest.mark.parametrize(
    "argv, stdout",
    [
        (["dim", "2", "3"], "15\n"),
        (["rank", "m.json", "--method", "rref"], "1\n"),
        (["rank", "m.json", "--method", "svd"], "1\n"),
        # the human-format renderer of decompose
        (["decompose", "m.json"], re.compile(r"rank 1\n")),
        (["factor", "a1@b1 + a2@b2", "--route", "svd"], None),
        (["factor", "a1@b1 + a1@b2 + a2@b1 + a2@b2"], None),
        (["factor", "u1@v1@w1 + u1@v2@w2", "--method", "als", "--max-rank", "2"], None),
        (
            ["factor", "u1@v1@w1 + u1@v2@w2 - u2@v1@w2 + u2@v2@w1", "--method", "als", "--field", "complex",
             "--max-rank", "2"],
            None,
        ),
        (["algebra", "inv", "x.json"], None),
        (["sig", "p.csv", "--depth", "2"], None),
    ],
)
def test_command_runs_on_the_standard_library(inputs, argv, stdout):
    code, out, err = tenalg(*argv, cwd=inputs)
    assert (code, err) == (0, "")
    if isinstance(stdout, str):
        assert out == stdout
    elif stdout is not None:
        assert stdout.match(out)


def test_decompose_json_rank_matches_the_svd_rank(inputs):
    # decompose and factor --route svd run the same SVD kernel as rank
    code, out, _ = tenalg("decompose", "m.json", "--method", "svd", "--json", cwd=inputs)
    assert code == 0
    assert f"{json.loads(out)['rank']}\n" == tenalg("rank", "m.json", "--method", "svd", cwd=inputs)[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["algebra", "inv", "deep.json"],
        ["rank", "pair.json"],
        ["rank", "exp.json"],
        ["rank", "bigint.json"],
        ["rank", "decimal.json"],
        ["rank", "sci.json"],
        # a CSV value is a float in ASCII without underscores
        ["sig", "digits.csv", "--depth", "2"],
        # an integer argument is an optional '-' and ASCII digits (U+0662 is ARABIC-INDIC DIGIT TWO)
        ["dim", "٢", "1_0"],
        ["sig", "p.csv", "--depth", "٢"],
    ],
)
def test_bad_input_exits_1_with_an_error_line_and_no_traceback(inputs, argv):
    code, _, err = tenalg(*argv, cwd=inputs)
    assert code == 1
    assert re.search(r"^(tenalg [a-z]+: )?error:", err, re.MULTILINE)
    assert "Traceback" not in err
