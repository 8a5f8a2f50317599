"""Output checks for benchmark jobs, written without the code under test.

Every check recomputes what it needs from the generated inputs with small
reference routines in this file: the truncated product by splitting words,
segment exponentials chained by that product for signatures, re-expansion of
decompositions and factorings.  Rational results must match exactly; float
results must hold within ``EPS_F`` scaled by the size of the terms involved.

This module does not import ``tenalg``.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

# The documented real/complex tolerance of the program (absolute + relative).
EPS_F = 1e-9
# The documented default ALS residual target (``--tol-als``): a verified ALS
# factoring re-expands to within this absolute residual.
ALS_TOL = 1e-8


class CheckError(AssertionError):
    """A job's stdout is not a correct answer for its inputs."""


def check(expect: dict, stdout: str) -> None:
    """Raise :class:`CheckError` unless ``stdout`` answers the job ``expect``."""
    try:
        _CHECKS[expect["kind"]](expect, stdout)
    except CheckError:
        raise
    except (ValueError, KeyError, IndexError, TypeError, AttributeError, ArithmeticError) as exc:
        raise CheckError(f"unreadable output: {type(exc).__name__}: {exc}") from None


def _require(cond, msg):
    if not cond:
        raise CheckError(msg)


# -- truncated tensor algebra ------------------------------------------------------


def tt_product(x, y, d, N):
    """Truncated product; ``(xy)_w`` sums ``x_u y_v`` over the splittings w = uv."""
    out = []
    for n in range(N + 1):
        lvl = []
        for w in range(d ** n):
            acc = 0
            for k in range(n + 1):
                p = d ** (n - k)
                acc += x[k][w // p] * y[n - k][w % p]
            lvl.append(acc)
        out.append(lvl)
    return out


def _abs_levels(x):
    return [[abs(c) for c in lvl] for lvl in x]


def _decode_tt(obj, d, N, fld):
    _require((obj["d"], obj["N"], obj["field"]) == (d, N, fld), f"header {obj['d'], obj['N'], obj['field']}")
    levels = obj["levels"]
    _require([len(lvl) for lvl in levels] == [d ** n for n in range(N + 1)], "level sizes")
    if fld == "rational":
        _require(all(isinstance(c, str) for lvl in levels for c in lvl), "rationals must be strings")
        return [[Fraction(c) for c in lvl] for lvl in levels]
    _require(all(isinstance(c, float) for lvl in levels for c in lvl), "reals must be numbers")
    return levels


def _compare_levels(got, want, bound, fld, what):
    for n, (g, w, b) in enumerate(zip(got, want, bound)):
        for i, (gv, wv, bv) in enumerate(zip(g, w, b)):
            if fld == "rational":
                ok = gv == wv
            else:
                ok = math.isfinite(gv) and abs(gv - wv) <= EPS_F * (1.0 + bv)
            _require(ok, f"{what}: level {n} coefficient {i} is {gv!r}, expected {wv!r}")


def _product_bound(x, y, d, N, fld):
    """Per coefficient, the sum of |x_u y_v| that scales the float tolerance."""
    if fld == "rational":
        return [[0] * d ** n for n in range(N + 1)]
    return tt_product(_abs_levels(x), _abs_levels(y), d, N)


def _check_mul(e, stdout):
    d, N, fld = e["d"], e["N"], e["field"]
    got = _decode_tt(json.loads(stdout), d, N, fld)
    want = tt_product(e["x"], e["y"], d, N)
    _compare_levels(got, want, _product_bound(e["x"], e["y"], d, N, fld), fld, "product")


def _check_inv(e, stdout):
    d, N, fld = e["d"], e["N"], e["field"]
    y = _decode_tt(json.loads(stdout), d, N, fld)
    one = [[1 if n == 0 else 0 for _ in range(d ** n)] for n in range(N + 1)]
    got = tt_product(e["x"], y, d, N)
    _compare_levels(got, one, _product_bound(e["x"], y, d, N, fld), fld, "x * inv(x)")


def _check_project(e, stdout):
    got = _decode_tt(json.loads(stdout), e["d"], e["M"], e["field"])
    want = e["x"][: e["M"] + 1]
    _require(got == want, "projection must keep levels 0..M unchanged")


# -- signatures ----------------------------------------------------------------------


def _point(points, u):
    K = len(points)
    if K == 1:
        return points[0]
    pos = u * (K - 1)
    seg = min(int(pos), K - 2)
    frac = pos - seg
    return [a + frac * (b - a) for a, b in zip(points[seg], points[seg + 1])]


def window_increments(points, s, t):
    """Increments of the linear pieces of the path restricted to [s, t]."""
    K = len(points)
    knots = [s] + [i / (K - 1) for i in range(1, K - 1) if s < i / (K - 1) < t] + [t]
    out = []
    for a, b in zip(knots, knots[1:]):
        pa, pb = _point(points, a), _point(points, b)
        out.append([y - x for x, y in zip(pa, pb)])
    return out


def _times_segment_exp(sig, inc, N):
    """``sig`` times exp(inc), whose level j is inc^(x)j / j!, by Horner's rule:
    level n is (((S_0 inc / n + S_1) inc / (n - 1) + S_2) ... ) inc / 1 + S_n."""
    out = [sig[0]]
    for n in range(1, N + 1):
        acc = sig[0]
        for k in range(1, n + 1):
            f = n - k + 1
            acc = [a * x / f for a in acc for x in inc]
            acc = [u + v for u, v in zip(acc, sig[k])]
        out.append(acc)
    return out


def signature(points, N, s, t):
    """Reference signature: the path's segment exponentials multiplied in order."""
    d = len(points[0])
    sig = [[1.0]] + [[0.0] * d ** n for n in range(1, N + 1)]
    for inc in window_increments(points, s, t):
        sig = _times_segment_exp(sig, inc, N)
    return sig


def _check_sig(e, stdout):
    d, N, s, t = e["d"], e["N"], e["s"], e["t"]
    obj = json.loads(stdout)
    _require(obj.pop("interval", None) == [s, t], "interval must echo --from/--to")
    got = _decode_tt(obj, d, N, "real")
    _require(got[0] == [1.0], "level 0 must be exactly 1")
    incs = window_increments(e["points"], s, t)
    L = sum(abs(c) for inc in incs for c in inc)  # l1 length of the windowed path
    bound = [[L ** n / math.factorial(n)] * d ** n for n in range(N + 1)]
    p_s, p_t = _point(e["points"], s), _point(e["points"], t)
    _compare_levels(got[:2], [[1.0], [b - a for a, b in zip(p_s, p_t)]], bound, "real", "increment")
    want = signature(e["points"], N, s, t)
    if e["oracle"] is None:
        _compare_levels(got, want, bound, "real", "signature")
        return
    # left-point Riemann sums: the level-n error is at most n * delta * L^(n-1),
    # where delta bounds the l1 length of one grid cell, so it decays like 1/steps
    K = len(e["points"])
    longest = max((sum(abs(c) for c in inc) for inc in incs), default=0.0)
    delta = min(L, longest * (K - 1) * (t - s) / e["oracle"])
    for n in range(N + 1):
        tol = EPS_F * (1.0 + bound[n][0]) + n * delta * L ** max(n - 1, 0)
        for i, (g, w) in enumerate(zip(got[n], want[n])):
            _require(abs(g - w) <= tol, f"oracle level {n} coefficient {i}: {g!r} vs {w!r} (bound {tol:.3g})")


# -- order-2 rank and decompositions -----------------------------------------------------


def _check_rank(e, stdout):
    _require(stdout == f"{e['rank']}\n", f"rank {stdout.strip()!r}, planted {e['rank']}")


def _reexpand(M, d1, d2, fld, what):
    scale = max((abs(x) for row in M for x in row), default=0)
    for i, row in enumerate(M):
        for j, want in enumerate(row):
            got = sum(d1[l][i] * d2[l][j] for l in range(len(d1)))
            if fld == "rational":
                ok = got == want
            else:
                ok = abs(got - want) <= EPS_F * (1.0 + scale)
            _require(ok, f"{what} re-expands to {got!r} at ({i + 1}, {j + 1}), expected {want}")


def _check_decompose(e, stdout):
    M, r = e["matrix"], e["rank"]
    if not e["json"]:
        lines = stdout.split("\n")
        _require(lines[0] == f"rank {r}", f"header {lines[0]!r}, planted rank {r}")
        _require(stdout.count("⊗") == r, "one outer product per rank")
        return
    obj = json.loads(stdout)
    fld = "rational" if e["method"] == "rref" else "real"
    _require((obj["rank"], obj["field"], obj["shape"]) == (r, fld, [len(M), len(M[0])]), "header")
    _require(len(obj["terms"]) == r, f"{len(obj['terms'])} terms, planted rank {r}")
    conv = Fraction if fld == "rational" else float
    if fld == "rational":
        _require(all(isinstance(c, str) for t in obj["terms"] for v in t for c in v), "rational strings")
    d1 = [[conv(c) for c in t[0]] for t in obj["terms"]]
    d2 = [[conv(c) for c in t[1]] for t in obj["terms"]]
    _require(all(len(u) == len(M) and len(v) == len(M[0]) for u, v in zip(d1, d2)), "factor lengths")
    _reexpand(M, d1, d2, fld, "decomposition")


# -- expression factoring -----------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+(?:/\d+)?)|([A-Za-z][A-Za-z0-9_^]*)|([@+\-()]))")


def parse_rational_expr(text: str):
    """Parse a rendered rational expression into (coefficient, slots) terms.

    Each slot is a list of (symbol, coefficient) pairs.  Accepts the grammar
    the program renders: signed terms, an optional leading coefficient, and
    slots that are a symbol or a parenthesized linear combination.
    """
    tokens = []
    pos = 0
    text = text.strip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == pos:
            raise CheckError(f"cannot read expression at {text[pos:pos + 20]!r}")
        num, ident, op = m.groups()
        tokens.append(("num", Fraction(num)) if num else ("id", ident) if ident else (op, op))
        pos = m.end()
    tokens.append(("end", None))
    i = 0

    def take(kind=None):
        nonlocal i
        tok = tokens[i]
        if kind is not None and tok[0] != kind:
            raise CheckError(f"expected {kind}, found {tok[1]!r}")
        i += 1
        return tok

    def signed_coeff(first):
        # a sign is optional ("-" only) before the first entry, required after
        sign = 1
        if tokens[i][0] == "-" or (tokens[i][0] == "+" and not first):
            sign = -1 if take()[0] == "-" else 1
        elif not first:
            raise CheckError(f"expected + or -, found {tokens[i][1]!r}")
        return sign * (take()[1] if tokens[i][0] == "num" else Fraction(1))

    def slot():
        if tokens[i][0] == "id":
            return [(take()[1], Fraction(1))]
        take("(")
        entries = []
        while tokens[i][0] != ")":
            c = signed_coeff(not entries)
            entries.append((take("id")[1], c))
        take(")")
        return entries

    terms = []
    if tokens[0] == ("num", Fraction(0)) and tokens[1][0] == "end":
        return terms
    while tokens[i][0] != "end":
        c = signed_coeff(not terms)
        slots = [slot()]
        while tokens[i][0] == "@":
            take()
            slots.append(slot())
        terms.append((c, slots))
    return terms


def _json_terms(obj):
    fld = obj["field"]

    def dec(v):
        if fld == "rational":
            _require(isinstance(v, str), "rational scalars are strings")
            return Fraction(v)
        if fld == "real":
            return float(v)
        return complex(v[0], v[1])

    return fld, [(dec(t["coefficient"]), [[(s, dec(c)) for s, c in sl] for sl in t["slots"]]) for t in obj["terms"]]


def expand_terms(terms):
    """Coefficient of every symbol tuple in a sum of products of slot combinations."""
    out = {}
    for coeff, slots in terms:
        partial = [((), coeff)]
        for sl in slots:
            partial = [(key + (s,), c * sc) for key, c in partial for s, sc in sl]
        for key, c in partial:
            out[key] = out.get(key, 0) + c
    return out


def _compare_coeffs(got, want, tol, what):
    for key in set(got) | set(want):
        g, w = got.get(key, 0), want.get(key, 0)
        ok = g == w if tol is None else abs(g - w) <= tol
        _require(ok, f"{what} re-expands to {g!r} at {'@'.join(key)}, expected {w}")


def _check_factor2(e, stdout):
    want, r = e["coeffs"], e["rank"]
    if e["json"]:
        obj = json.loads(stdout)
        fld, terms = _json_terms(obj)
        count = obj["term_count"]
        _require(count == len(terms), "term_count must match the listed terms")
    else:
        body, _, tail = stdout.rstrip("\n").rpartition("\n")
        _require(tail.startswith("terms: "), f"missing term count in {tail!r}")
        fld, terms, count = "rational", parse_rational_expr(body), int(tail[len("terms: "):])
        _require(count == len(terms), f"rendered {len(terms)} terms but reports {count}")
    _require(fld == ("real" if e["method"] == "svd" else "rational"), f"field {fld}")
    if e["method"] == "greedy":
        _require(count >= r, f"{count} terms is below the planted rank {r}")
    else:
        _require(count == r, f"{count} terms, planted rank {r}")
    tol = None
    if fld == "real":
        tol = EPS_F * (1.0 + max(abs(c) for c in want.values()))
    _compare_coeffs(expand_terms(terms), want, tol, "factoring")


def _check_als(e, stdout):
    obj = json.loads(stdout)
    fld, terms = _json_terms(obj)
    want = e["coeffs"]
    status = obj["status"]
    _require(status in ("verified-upper-bound", "failed"), f"status {status!r}")
    if e["status"] is not None:
        _require(status == e["status"], f"status {status!r}, expected {e['status']!r}")
    _require(obj["term_count"] == len(terms), "term_count must match the listed terms")
    if status == "failed":
        # the input comes back unchanged
        _require(fld == "rational", "a failed fit returns the rational input")
        _compare_coeffs(expand_terms(terms), want, None, "failed ALS output")
        return
    _require(fld == e["field"], f"field {fld}, expected {e['field']}")
    _require(1 <= len(terms) <= e["max_rank"], f"{len(terms)} terms above max rank {e['max_rank']}")
    tol = ALS_TOL + EPS_F * (1.0 + max(abs(c) for c in want.values()))
    _compare_coeffs(expand_terms(terms), want, tol, "ALS factoring")


_CHECKS = {
    "mul": _check_mul,
    "inv": _check_inv,
    "project": _check_project,
    "sig": _check_sig,
    "rank": _check_rank,
    "decompose": _check_decompose,
    "factor2": _check_factor2,
    "als": _check_als,
}
