"""Command-line interface: every library capability as a subcommand.

Exit codes: 0 on success, 1 on user error (bad input, unknown command),
2 on numerical failure (e.g. SVD non-convergence).  All output is UTF-8 and
deterministic for a fixed argument vector.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__, algebra, expr, rank, scalars, signature
from .dense import tensor_from_json
from .scalars import COMPLEX, RATIONAL, REAL


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name} in JSON input")


def _read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, parse_constant=_reject_constant)


class NonFiniteResultError(ArithmeticError):
    """A computed coefficient overflowed to an infinity or NaN."""


def _print_json(obj) -> None:
    try:
        text = json.dumps(obj, allow_nan=False)
    except ValueError as exc:
        raise NonFiniteResultError(f"the result holds a NaN or an infinity ({exc})") from None
    print(text)


# -- pretty rendering of sum-of-outer-products ------------------------------


def _vector_block(values, field):
    strs = [scalars.to_json(field, v) if field != REAL else repr(v) for v in values]
    strs = [s if isinstance(s, str) else repr(s) for s in strs]
    width = max(len(s) for s in strs)
    return ["( " + s.rjust(width) + " )" for s in strs]


def _pad_block(lines, height):
    if not lines:
        return [""] * height
    width = len(lines[0])
    top = (height - len(lines)) // 2
    bottom = height - len(lines) - top
    return [" " * width] * top + lines + [" " * width] * bottom


def render_decomposition(dec: rank.RankDecomposition) -> str:
    if dec.r == 0:
        return "0"
    columns = []
    for l in range(dec.r):
        if l > 0:
            columns.append(("op", "+"))
        columns.append(("vec", _vector_block(dec.d1[l], dec.field)))
        columns.append(("op", "⊗"))
        columns.append(("vec", _vector_block(dec.d2[l], dec.field)))
    height = max(len(block) for kind, block in columns if kind == "vec")
    mid = (height - 1) // 2
    rows = [""] * height
    for kind, block in columns:
        if kind == "op":
            cells = [(block if i == mid else " " * len(block)) for i in range(height)]
        else:
            cells = _pad_block(block, height)
        for i in range(height):
            rows[i] = (rows[i] + " " + cells[i]) if rows[i] else cells[i]
    return "\n".join(r.rstrip() for r in rows)


def _decomposition_json(dec: rank.RankDecomposition, shape) -> dict:
    return {
        "rank": dec.r,
        "field": dec.field,
        "shape": list(shape),
        "terms": [
            [
                [scalars.to_json(dec.field, x) for x in dec.d1[l]],
                [scalars.to_json(dec.field, x) for x in dec.d2[l]],
            ]
            for l in range(dec.r)
        ],
    }


# -- subcommand handlers ------------------------------------------------------


def _cmd_dim(args) -> int:
    print(algebra.truncated_dim(args.d, args.N))
    return 0


def _load_matrix(path: str):
    t = tensor_from_json(_read_json(path))
    if t.order != 2:
        raise ValueError(f"expected an order-2 tensor, got order {t.order}")
    return t


def _decompose_matrix(t, method: str) -> rank.RankDecomposition:
    if method == "rref":
        return rank.rank_decompose_rref(t)
    return rank.rank_decompose_svd(t)


def _cmd_rank(args) -> int:
    dec = _decompose_matrix(_load_matrix(args.file), args.method)
    print(dec.r)
    return 0


def _cmd_decompose(args) -> int:
    t = _load_matrix(args.file)
    dec = _decompose_matrix(t, args.method)
    if args.json:
        _print_json(_decomposition_json(dec, t.shape))
    else:
        print(f"rank {dec.r}")
        print(render_decomposition(dec))
    return 0


def _factor_result(args):
    e = expr.parse(args.expression)
    if args.method == "exact":
        if args.field != RATIONAL:
            raise ValueError("exact factoring works over the rational field")
        return expr.factor_exact_order2(e, route=args.route), None
    if args.method in ("greedy-left", "greedy-right"):
        if args.field != RATIONAL:
            raise ValueError("greedy factoring works over the rational field")
        return expr.factor_greedy(e, args.method.split("-")[1]), None
    if args.field not in (REAL, COMPLEX):
        raise ValueError("ALS factoring needs --field real or --field complex")
    return expr.factor_heuristic_higher_order(
        e,
        args.max_rank,
        args.field,
        seed=args.seed,
        sweeps=args.sweeps,
        restarts=args.restarts,
        tol=args.tol_als,
    )


def _cmd_factor(args) -> int:
    factored, status = _factor_result(args)
    if args.json:
        payload = expr.expr_to_json(factored)
        payload["term_count"] = len(factored.terms)
        if status is not None:
            payload["status"] = status
        _print_json(payload)
    else:
        print(expr.render(factored))
        print(f"terms: {len(factored.terms)}")
        if status is not None:
            print(f"status: {status}")
    return 0


def _cmd_expand(args) -> int:
    expanded = expr.expand(expr.parse(args.expression))
    if args.json:
        payload = expr.expr_to_json(expanded)
        payload["term_count"] = len(expanded.terms)
        _print_json(payload)
    else:
        print(expr.render(expanded))
    return 0


def _cmd_sig(args) -> int:
    with open(args.file, "r", encoding="utf-8", newline="") as fh:
        path = signature.read_path_csv(fh)
    if args.oracle is not None:
        sig = signature.oracle_signature(path, args.depth, args.s, args.t, args.oracle)
    else:
        sig = signature.path_signature(path, args.depth, args.s, args.t)
    payload = algebra.tt_to_json(sig.value)
    payload["interval"] = [sig.interval[0], sig.interval[1]]
    _print_json(payload)
    return 0


def _cmd_algebra(args) -> int:
    x = algebra.tt_from_json(_read_json(args.files[0]))
    if args.op == "mul":
        if len(args.files) != 2:
            raise ValueError("mul needs exactly two operand files")
        y = algebra.tt_from_json(_read_json(args.files[1]))
        out = algebra.concat_product(x, y)
    elif args.op == "inv":
        if len(args.files) != 1:
            raise ValueError("inv needs exactly one operand file")
        out = algebra.inverse(x)
    else:  # project
        if len(args.files) != 1:
            raise ValueError("project needs exactly one operand file")
        if args.level is None:
            raise ValueError("project needs --level")
        out = algebra.project(x, args.level)
    _print_json(algebra.tt_to_json(out))
    return 0


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tenalg",
        description="Tensor algebra toolkit: rank decomposition, expression "
        "factoring, truncated tensor algebra and path signatures.",
    )
    p.add_argument("--version", action="version", version=f"tenalg {__version__}")
    sub = p.add_subparsers(dest="command")

    q = sub.add_parser("dim", help="dimension of the level-N truncated algebra over R^d")
    q.add_argument("d", type=int)
    q.add_argument("N", type=int)
    q.set_defaults(func=_cmd_dim)

    q = sub.add_parser("rank", help="rank of an order-2 tensor from a JSON file")
    q.add_argument("file")
    q.add_argument("--method", choices=["rref", "svd"], default="rref")
    q.set_defaults(func=_cmd_rank)

    q = sub.add_parser("decompose", help="rank decomposition of an order-2 tensor")
    q.add_argument("file")
    q.add_argument("--method", choices=["rref", "svd"], default="rref")
    q.add_argument("--json", action="store_true", help="machine-readable output")
    q.set_defaults(func=_cmd_decompose)

    q = sub.add_parser("factor", help="factor a tensor-product expression")
    q.add_argument("expression")
    q.add_argument(
        "--method",
        choices=["exact", "greedy-left", "greedy-right", "als"],
        default="exact",
    )
    q.add_argument(
        "--route",
        choices=["rref", "svd"],
        default="rref",
        help="rank-decomposition route for --method exact (svd gives "
        "float factors, not golden-stable)",
    )
    q.add_argument("--field", choices=list(scalars.FIELDS), default=None)
    q.add_argument("--max-rank", type=int, default=4)
    q.add_argument("--seed", type=int, default=expr.ALS_SEED)
    q.add_argument("--sweeps", type=int, default=expr.ALS_SWEEPS)
    q.add_argument("--restarts", type=int, default=expr.ALS_RESTARTS)
    q.add_argument("--tol-als", type=float, default=expr.ALS_TOL)
    q.add_argument("--json", action="store_true")
    q.set_defaults(func=_cmd_factor)

    q = sub.add_parser("expand", help="canonical expanded form of an expression")
    q.add_argument("expression")
    q.add_argument("--json", action="store_true")
    q.set_defaults(func=_cmd_expand)

    q = sub.add_parser("sig", help="truncated signature of a CSV path")
    q.add_argument("file")
    q.add_argument("--depth", type=int, required=True)
    q.add_argument("--from", dest="s", type=float, default=0.0)
    q.add_argument("--to", dest="t", type=float, default=1.0)
    q.add_argument(
        "--oracle",
        type=int,
        default=None,
        metavar="STEPS",
        help="use the Riemann-sum oracle with this many grid steps",
    )
    q.set_defaults(func=_cmd_sig)

    q = sub.add_parser("algebra", help="truncated tensor algebra operations")
    q.add_argument("op", choices=["mul", "inv", "project"])
    q.add_argument("files", nargs="+")
    q.add_argument("--level", type=int, default=None)
    q.set_defaults(func=_cmd_algebra)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad usage; 0 for --help
        return 0 if exc.code in (0, None) else 1
    if getattr(args, "command", None) is None:
        parser.print_usage(sys.stderr)
        return 1
    if getattr(args, "func", None) is _cmd_factor and args.field is None:
        args.field = REAL if args.method == "als" else RATIONAL
    try:
        return args.func(args)
    except (rank.ConvergenceError, NonFiniteResultError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, KeyError, IndexError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
