"""Seeded job generators for the three benchmark workloads.

A job is one ``tenalg`` command line plus what the checker needs to judge its
stdout.  Everything the program reads (JSON operands, path CSVs, expression
text) is generated here from the workload seed and written to files before
any timing starts; the program sees only those files and the argv.

The *shape* of each workload's job list (which commands, which sizes) is fixed;
the seed only draws the numbers.  That keeps the cost of one pass of a job
list nearly the same from seed to seed, so runs under different seeds are
comparable.

This module does not import ``tenalg``: generation must not depend on the
code under test.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

WORKLOADS = ("sig_paths", "tt_algebra", "rank_factor")

# Seed kept out of all tuning of the benchmark and of the program.  A change
# that claims a gain should also show it under this seed.
HELD_OUT_SEED = 7919

# Expression of the order-3 tensor whose rank is 2 over C and 3 over R.
Z_EXPR = "u1@v1@w1 + u1@v2@w2 - u2@v1@w2 + u2@v2@w1"
Z_COEFFS = {
    ("u1", "v1", "w1"): 1,
    ("u1", "v2", "w2"): 1,
    ("u2", "v1", "w2"): -1,
    ("u2", "v2", "w1"): 1,
}


@dataclass
class Job:
    argv: list
    expect: dict
    exact: bool = False  # stdout is an exact-rational result (goes into the digest)


def generate(workload: str, seed: int, directory: str, rounds: int) -> list:
    """Build ``rounds`` job lists of ``workload`` for ``seed``; write their input files.

    Every round has the same commands with freshly drawn numbers; round ``k``
    shrinks the sizes by a fixed step ``k`` times, which fills the gaps between
    the latencies of one list.  The sizes never depend on the seed.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    maker = {"sig_paths": _sig_paths, "tt_algebra": _tt_algebra, "rank_factor": _rank_factor}
    files = _Files(directory)
    return [maker[workload](rng, files, k) for k in range(rounds)]


class _Files:
    """Writes job input files under one directory, named by a running counter."""

    def __init__(self, directory: str):
        self.directory = directory
        self.count = 0

    def write(self, suffix: str, text: str) -> str:
        name = f"in{self.count:03d}.{suffix}"
        self.count += 1
        path = os.path.join(self.directory, name)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        return path


# -- sig_paths ------------------------------------------------------------------

# (d, N, segments) ladder: d in {2, 3}, N in {3, 4, 5}, 20..200 segments,
# including the d=3, N=4, 200-segment reference shape.
SIG_SHAPES = [(d, N, k) for d in (2, 3) for N in (3, 4, 5) for k in (20, 60, 120, 200)]
# (d, N, segments, steps) of the oracle jobs, about one job in ten.
SIG_ORACLES = [(2, 3, 20, 4000), (3, 3, 30, 2000), (2, 4, 25, 3000)]


def _walk(rng, d, segments, scale):
    pts = [[rng.uniform(-1.0, 1.0) for _ in range(d)]]
    step = scale / segments ** 0.5
    for _ in range(segments):
        pts.append([c + rng.gauss(0.0, step) for c in pts[-1]])
    return pts


def _sig_job(rng, files, d, N, segments, scale, window, oracle):
    pts = _walk(rng, d, segments, scale)
    lines = [",".join(f"x{c + 1}" for c in range(d))] if rng.random() < 0.5 else []
    lines += [",".join(repr(c) for c in p) for p in pts]
    path = files.write("csv", "\n".join(lines) + "\n")
    s, t = 0.0, 1.0
    argv = ["sig", path, "--depth", str(N)]
    if window:
        s = rng.randrange(0, 500) / 1000
        t = s + 0.5
        argv += ["--from", str(s), "--to", str(t)]
    if oracle:
        argv += ["--oracle", str(oracle)]
    return Job(argv, {"kind": "sig", "points": pts, "d": d, "N": N, "s": s, "t": t, "oracle": oracle})


def _sig_paths(rng, files, rnd):
    jobs = [
        _sig_job(rng, files, d, N, round(k * (1 - rnd / 12)), 1.0, window=i % 2 == 1, oracle=None)
        for i, (d, N, k) in enumerate(SIG_SHAPES)
    ]
    for i, (d, N, k, steps) in enumerate(SIG_ORACLES):
        # smaller excursions keep the O(1/steps) oracle bound meaningful
        jobs.insert(4 + 9 * i, _sig_job(rng, files, d, N, k, 0.5, window=i == 1, oracle=steps))
    return jobs


# -- tt_algebra -----------------------------------------------------------------

TT_SHAPES = [(d, N) for d in (2, 3, 4) for N in (3, 4, 5)]


def _rand_levels(rng, d, N, fld, invertible):
    levels = []
    for n in range(N + 1):
        if fld == "rational":
            lvl = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(d ** n)]
        else:
            lvl = [rng.uniform(-1.0, 1.0) for _ in range(d ** n)]
        levels.append(lvl)
    if invertible:
        if fld == "rational":
            # a fixed |level 0| keeps the size of the inverse's fractions, and so its cost, seed-independent
            levels[0][0] = Fraction(rng.choice([-2, 2]))
        else:
            levels[0][0] = rng.choice([-1.0, 1.0]) * rng.uniform(1.0, 2.0)
    return levels


def tt_json_text(d, N, fld, levels) -> str:
    enc = str if fld == "rational" else float
    return json.dumps({"d": d, "N": N, "field": fld, "levels": [[enc(c) for c in lvl] for lvl in levels]})


def _tt_algebra(rng, files, rnd):
    jobs = []

    def add(op, d, N, fld, operands, extra=(), **expect):
        paths = [files.write("json", tt_json_text(d, N, fld, x)) for x in operands]
        expect.update(kind=op, d=d, N=N, field=fld, x=operands[0])
        jobs.append(Job(["algebra", op, *paths, *extra], expect, exact=fld == "rational"))

    for i, (d, N) in enumerate(TT_SHAPES):
        for fld in ("rational", "real"):
            add("inv", d, N, fld, [_rand_levels(rng, d, N, fld, invertible=True)])
        fld = ("rational", "real")[i % 2]
        x, y = (_rand_levels(rng, d, N, fld, invertible=False) for _ in range(2))
        add("mul", d, N, fld, [x, y], y=y)
        if i % 3 == 2:
            fld = ("real", "rational")[i % 2]
            M = rng.randrange(0, N)
            add("project", d, N, fld, [_rand_levels(rng, d, N, fld, invertible=False)], ["--level", str(M)], M=M)
    return jobs


# -- rank_factor ------------------------------------------------------------------

_PRIME = (1 << 61) - 1


def _rank_mod_p(rows) -> int:
    """Rank modulo a large prime; a lower bound on the rank over Q."""
    A = [[x % _PRIME for x in row] for row in rows]
    rank = 0
    ncols = len(A[0]) if A else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(A)) if A[i][col]), None)
        if piv is None:
            continue
        A[rank], A[piv] = A[piv], A[rank]
        inv = pow(A[rank][col], _PRIME - 2, _PRIME)
        for i in range(len(A)):
            if i != rank and A[i][col]:
                f = A[i][col] * inv % _PRIME
                A[i] = [(a - f * b) % _PRIME for a, b in zip(A[i], A[rank])]
        rank += 1
    return rank


def planted_matrix(rng, n, m, r, lo=-3, hi=3):
    """Integer n x m matrix of rank exactly r, as a product of random factors."""
    while True:
        A = [[rng.randint(lo, hi) for _ in range(r)] for _ in range(n)]
        B = [[rng.randint(lo, hi) for _ in range(m)] for _ in range(r)]
        M = [[sum(A[i][l] * B[l][j] for l in range(r)) for j in range(m)] for i in range(n)]
        # rank over Q is at most r and at least the rank mod p
        if _rank_mod_p(M) == r:
            return M


def _shrink(n, rnd, r):
    return max(n - rnd, r + 1)


def _matrix_job(rng, files, argv_head, n, m, r, fld, extra, expect):
    M = planted_matrix(rng, n, m, r)
    enc = str if fld == "rational" else float
    path = files.write("json", json.dumps({"shape": [n, m], "field": fld, "coeffs": [enc(x) for row in M for x in row]}))
    return Job([*argv_head, path, *extra], dict(expect, matrix=M, rank=r), exact=fld == "rational")


def _signed_terms(pieces) -> str:
    """Join (coefficient, body) pairs in the expression syntax."""
    out = []
    for c, body in pieces:
        mag = abs(c)
        text = body if mag == 1 else f"{mag} {body}"
        if not out:
            out.append(("-" if c < 0 else "") + text)
        else:
            out.append(("- " if c < 0 else "+ ") + text)
    return " ".join(out)


def _combo(coeffs, symbols) -> str:
    return "(" + _signed_terms([(c, s) for c, s in zip(coeffs, symbols) if c]) + ")"


def _order2_expr(rng, n, m, r, grouped):
    """Expression text over a1..an, b1..bm whose coefficient matrix has rank r."""
    a = [f"a{i + 1}" for i in range(n)]
    b = [f"b{j + 1}" for j in range(m)]
    if not grouped:
        M = planted_matrix(rng, n, m, r)
        pieces = [(M[i][j], f"{a[i]}@{b[j]}") for i in range(n) for j in range(m) if M[i][j]]
        coeffs = {(a[i], b[j]): Fraction(M[i][j]) for i in range(n) for j in range(m) if M[i][j]}
        return _signed_terms(pieces), coeffs
    # sum over l of u_l @ (v_l - w_l) + u_l @ w_l: 2r grouped terms, rank r
    while True:
        U = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(r)]
        V = [[rng.randint(-2, 2) for _ in range(m)] for _ in range(r)]
        W = [[rng.randint(-2, 2) for _ in range(m)] for _ in range(r)]
        M = [[sum(U[l][i] * V[l][j] for l in range(r)) for j in range(m)] for i in range(n)]
        ok = all(any(u) for u in U) and all(any(v[j] - w[j] for j in range(m)) and any(w) for v, w in zip(V, W))
        if ok and _rank_mod_p(M) == r and all(any(row) for row in M) and all(any(col) for col in zip(*M)):
            break
    pieces = []
    for l in range(r):
        diff = [V[l][j] - W[l][j] for j in range(m)]
        pieces.append((1, _combo(U[l], a) + "@" + _combo(diff, b)))
        pieces.append((1, _combo(U[l], a) + "@" + _combo(W[l], b)))
    coeffs = {(a[i], b[j]): Fraction(M[i][j]) for i in range(n) for j in range(m) if M[i][j]}
    return _signed_terms(pieces), coeffs


def _order3_expr(coeffs) -> str:
    return _signed_terms([(c, "@".join(k)) for k, c in coeffs.items()])


def _rank1_tensor(rng, dims):
    syms = [[f"{'abcd'[k]}{i + 1}" for i in range(d)] for k, d in enumerate(dims)]
    vecs = [[rng.choice([-2, -1, 1, 2]) for _ in range(d)] for d in dims]
    coeffs = {}
    for idx in product(*[range(d) for d in dims]):
        c = 1
        for k, i in enumerate(idx):
            c *= vecs[k][i]
        coeffs[tuple(syms[k][i] for k, i in enumerate(idx))] = c
    return coeffs


def _block_rank2_tensor(rng, dims):
    """Rank-2 order-3 tensor whose two terms live on disjoint index sets."""
    syms = [[f"{'abc'[k]}{i + 1}" for i in range(d)] for k, d in enumerate(dims)]
    coeffs = {}
    for l in range(2):
        vecs = []
        for d in dims:
            v = [0] * d
            v[l] = rng.choice([-2, -1, 1, 2])
            if l == 1 and d > 2:
                v[2] = rng.choice([-1, 1])
            vecs.append(v)
        for idx in product(*[range(d) for d in dims]):
            c = vecs[0][idx[0]] * vecs[1][idx[1]] * vecs[2][idx[2]]
            if c:
                coeffs[tuple(syms[k][i] for k, i in enumerate(idx))] = c
    return coeffs


def _factor_job(argv_tail, text, expect, exact):
    return Job(["factor", text, *argv_tail], expect, exact)


def _rank_factor(rng, files, rnd):
    jobs = []
    # exact RREF route over the rationals, sizes up to 25 x 25.  Round rnd
    # shrinks every matrix by rnd rows and columns.
    for n, m, r in [(8, 10, 4), (12, 12, 6), (16, 14, 8), (18, 18, 9), (20, 20, 10), (20, 22, 12),
                    (22, 24, 11), (24, 24, 14), (25, 25, 12), (25, 25, 18)]:
        jobs.append(_matrix_job(rng, files, ["rank"], n - rnd, m - rnd, r, "rational", ["--method", "rref"],
                                {"kind": "rank"}))
    for n, m, r, js in [(10, 10, 5, True), (14, 16, 7, False), (16, 16, 10, True), (18, 18, 9, True),
                        (20, 18, 11, False), (21, 20, 10, True), (22, 22, 14, True), (24, 22, 12, False),
                        (25, 25, 13, True), (25, 24, 16, True)]:
        extra = ["--method", "rref"] + (["--json"] if js else [])
        jobs.append(_matrix_job(rng, files, ["decompose"], n - rnd, m - rnd, r, "rational", extra,
                                {"kind": "decompose", "method": "rref", "json": js}))
    # floating Jacobi SVD route, sizes up to 40 x 40 and at least 12 x 10
    for n, m, r in [(15, 13, 5), (20, 20, 10), (24, 24, 12), (32, 30, 16), (36, 36, 20), (40, 40, 20)]:
        jobs.append(_matrix_job(rng, files, ["rank"], n - rnd, m - rnd, r, "real", ["--method", "svd"],
                                {"kind": "rank"}))
    for n, m, r in [(16, 16, 8), (20, 26, 10), (28, 28, 14), (30, 32, 12), (36, 34, 18), (40, 40, 24),
                    (40, 38, 30)]:
        jobs.append(_matrix_job(rng, files, ["decompose"], n - rnd, m - rnd, r, "real", ["--method", "svd", "--json"],
                                {"kind": "decompose", "method": "svd", "json": True}))
    # order-2 expression factoring with a planted rank: (method, extra argv, json, grouped, n, m, r)
    factor_specs = [
        ("exact", [], False, False, 4, 5, 2), ("exact", [], False, True, 6, 6, 3),
        ("exact", ["--json"], True, False, 7, 8, 4), ("exact", ["--json"], True, True, 8, 8, 5),
        ("exact", [], False, True, 10, 10, 5), ("exact", ["--json"], True, False, 12, 10, 6),
        ("exact", [], False, False, 10, 12, 7), ("exact", ["--json"], True, True, 12, 12, 6),
        ("svd", ["--route", "svd", "--json"], True, False, 16, 14, 7),
        ("svd", ["--route", "svd", "--json"], True, False, 14, 16, 8),
        ("greedy", ["--method", "greedy-left"], False, True, 5, 6, 2),
        ("greedy", ["--method", "greedy-right"], False, True, 6, 5, 3),
        ("greedy", ["--method", "greedy-left"], False, False, 4, 5, 2),
        ("greedy", ["--method", "greedy-right"], False, False, 5, 4, 3),
    ]
    for method, tail, js, grouped, n, m, r in factor_specs:
        text, coeffs = _order2_expr(rng, _shrink(n, rnd, r), _shrink(m, rnd, r), r, grouped)
        jobs.append(_factor_job(tail, text, {"kind": "factor2", "method": method, "json": js,
                                             "coeffs": coeffs, "rank": r}, exact=method != "svd"))
    # ALS on order >= 3: small tensors of planted rank, and the Z fixture.  The
    # Z jobs take no input from the seed, so they run once per cycle (in round
    # 0); the two real ones take about 1.3 s each.
    for fld, max_rank, status in [("complex", 2, "verified-upper-bound"), ("real", 2, "failed"),
                                  ("real", 3, "verified-upper-bound")] * (rnd == 0):
        jobs.append(_factor_job(["--method", "als", "--field", fld, "--max-rank", str(max_rank), "--json"],
                                Z_EXPR, {"kind": "als", "coeffs": Z_COEFFS, "max_rank": max_rank,
                                         "field": fld, "status": status,
                                         "planted": max_rank >= (2 if fld == "complex" else 3)}, False))
    planted = [(_rank1_tensor(rng, dims), 1) for dims in [(2, 2, 2), (3, 2, 2), (2, 3, 3), (2, 2, 2, 2)]]
    planted += [(_block_rank2_tensor(rng, dims), 2) for dims in [(2, 2, 2), (3, 2, 2)]]
    for coeffs, r in planted:
        jobs.append(_factor_job(["--method", "als", "--max-rank", str(r), "--json"], _order3_expr(coeffs),
                                {"kind": "als", "coeffs": coeffs, "max_rank": r, "field": "real",
                                 "status": None, "planted": True}, False))
    # interleave so that no kernel runs as one long block
    order = random.Random(len(jobs)).sample(range(len(jobs)), len(jobs))
    return [jobs[i] for i in order]
