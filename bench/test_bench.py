"""Tests of the benchmark itself: seeded generation, the output checker, tracing.

Run from the repository root with ``python -m pytest bench -q``.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import layers  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402
from tenalg import cli, signature  # noqa: E402


def _generate(workload, seed, tmp_path):
    directory = tmp_path / f"{workload}-{seed}-{len(list(tmp_path.iterdir()))}"
    directory.mkdir()
    rounds = workloads.generate(workload, seed, str(directory), 2)
    jobs = [([a.replace(str(directory), "<dir>") for a in j.argv], j.expect, j.exact) for js in rounds for j in js]
    files = {p.name: p.read_text(encoding="utf-8") for p in sorted(directory.iterdir())}
    return jobs, files


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload, tmp_path):
    first = _generate(workload, 5, tmp_path)
    assert first == _generate(workload, 5, tmp_path)
    other = _generate(workload, 6, tmp_path)
    assert [argv[0] for argv, *_ in other[0]] == [argv[0] for argv, *_ in first[0]]
    assert other != first


def _run(job):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(job.argv) == 0
    return out.getvalue()


def _jobs(workload, tmp_path, seed=3):
    return workloads.generate(workload, seed, str(tmp_path), 1)[0]


def _first(jobs, **want):
    return next(j for j in jobs if all(j.expect.get(k) == v for k, v in want.items()))


def _rejected(job, stdout):
    with pytest.raises(verify.CheckError):
        verify.check(job.expect, stdout)


def _edit_json(stdout, edit):
    obj = json.loads(stdout)
    edit(obj)
    return json.dumps(obj) + "\n"


def test_checker_tt_algebra(tmp_path):
    jobs = _jobs("tt_algebra", tmp_path)
    for kind, fld in [("inv", "rational"), ("inv", "real"), ("mul", "rational"), ("mul", "real"),
                      ("project", "rational")]:
        job = _first(jobs, kind=kind, field=fld)
        out = _run(job)
        verify.check(job.expect, out)

        def flip(obj):
            lvl = obj["levels"][-1]
            lvl[1] = str(-verify.Fraction(lvl[1]) + 1) if fld == "rational" else lvl[1] + 1e-3

        _rejected(job, _edit_json(out, flip))


def test_checker_signatures(tmp_path):
    jobs = _jobs("sig_paths", tmp_path)
    for oracle in (False, True):
        job = next(j for j in jobs if (j.expect["oracle"] is not None) == oracle)
        out = _run(job)
        verify.check(job.expect, out)

        def flip(obj):
            obj["levels"][2][1] += 0.5

        _rejected(job, _edit_json(out, flip))
        _rejected(job, _edit_json(out, lambda obj: obj["levels"][0].__setitem__(0, 2.0)))


def test_checker_rank_and_decompositions(tmp_path):
    jobs = _jobs("rank_factor", tmp_path)
    job = _first(jobs, kind="rank")
    out = _run(job)
    verify.check(job.expect, out)
    _rejected(job, f"{job.expect['rank'] + 1}\n")
    for method in ("rref", "svd"):
        job = _first(jobs, kind="decompose", method=method, json=True)
        out = _run(job)
        verify.check(job.expect, out)

        def flip(obj):
            v = obj["terms"][0][1][0]
            obj["terms"][0][1][0] = str(verify.Fraction(v) + 1) if method == "rref" else v + 1e-3

        _rejected(job, _edit_json(out, flip))
        _rejected(job, _edit_json(out, lambda obj: obj["terms"].pop()))


def test_checker_factorings(tmp_path):
    jobs = _jobs("rank_factor", tmp_path)
    for method, js in [("exact", True), ("exact", False), ("svd", True), ("greedy", False)]:
        job = _first(jobs, kind="factor2", method=method, json=js)
        out = _run(job)
        verify.check(job.expect, out)
        if js:
            # wrong term count, then a flipped coefficient
            _rejected(job, _edit_json(out, lambda obj: obj.update(term_count=obj["term_count"] + 1)))
            _rejected(job, _edit_json(out, lambda obj: obj["terms"].pop()))
        else:
            body, tail = out.rstrip("\n").rsplit("\n", 1)
            count = int(tail.split()[1])
            _rejected(job, f"{body}\nterms: {count + 1}\n")
            _rejected(job, body.replace("a1", "a2", 1) + "\n" + tail + "\n")


def test_checker_als_status(tmp_path):
    jobs = _jobs("rank_factor", tmp_path)
    for fld, max_rank, status in [("complex", 2, "verified-upper-bound"), ("real", 2, "failed"),
                                  ("real", 3, "verified-upper-bound")]:
        job = _first(jobs, kind="als", field=fld, max_rank=max_rank, status=status)
        out = _run(job)
        verify.check(job.expect, out)
        other = "failed" if status != "failed" else "verified-upper-bound"
        _rejected(job, _edit_json(out, lambda obj: obj.update(status=other)))


def test_rendered_expression_parser():
    terms = verify.parse_rational_expr("-2 (a1 - 3/2 a2)@b1 + a2@(b1 + b2)")
    assert verify.expand_terms(terms) == {
        ("a1", "b1"): -2, ("a2", "b1"): 4, ("a2", "b2"): 1,
    }


def test_tracer_binds_every_importer_and_restores(tmp_path):
    original = signature.path_signature
    job = _first(_jobs("sig_paths", tmp_path), oracle=None)
    with layers.Tracer() as tracer:
        assert signature.path_signature is not original
        _run(job)
    assert signature.path_signature is original
    for span in ("cli.main", "signature.path_signature", "algebra.concat_product", layers.DENSE_SPAN):
        assert tracer.calls[span] > 0, span
    assert tracer.counts["signature.segments"] == tracer.calls["signature.segment_signature"]
    assert tracer.missing("rank_factor")
