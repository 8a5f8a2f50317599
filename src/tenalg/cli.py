"""Command-line interface: every library capability as a subcommand.

Exit codes: 0 on success, 1 on user error (bad input, unknown command),
2 on numerical failure (e.g. SVD non-convergence).  Every reader of outside
input raises :class:`ValueError` (or :class:`OSError` for a file) where it
finds the input bad, so :func:`main` turns only those into exit 1; any other
exception is a bug and ends in a traceback.  Files are read and results
written only through the library codecs (``load_tensor``, ``load_tt``,
``dump_tt``, ``scalars.dump_json``).  All output is UTF-8 and deterministic
for a fixed argument vector.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import __version__, algebra, expr, rank, scalars, signature
from .dense import load_tensor
from .scalars import MAX_DIGITS, RATIONAL, REAL


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


# -- pretty rendering of sum-of-outer-products ------------------------------


def _vector_block(values, field):
    strs = [scalars.to_text(field, v) for v in values]
    width = max(len(s) for s in strs)
    return ["( " + s.rjust(width) + " )" for s in strs]


def _pad_block(lines, height):
    width = len(lines[0])
    top = (height - len(lines)) // 2
    bottom = height - len(lines) - top
    return [" " * width] * top + lines + [" " * width] * bottom


def render_decomposition(dec: rank.RankDecomposition) -> str:
    if dec.r == 0:
        return "0"
    blocks = []
    for l in range(dec.r):
        if l > 0:
            blocks.append(["+"])
        blocks += [_vector_block(dec.d1[l], dec.field), ["⊗"], _vector_block(dec.d2[l], dec.field)]
    height = max(map(len, blocks))
    padded = [_pad_block(b, height) for b in blocks]
    return "\n".join(" ".join(row).rstrip() for row in zip(*padded))


def _decomposition_json(dec: rank.RankDecomposition, shape) -> dict:
    return {
        "rank": dec.r,
        "field": dec.field,
        "shape": list(shape),
        "terms": [[[scalars.to_json(dec.field, x) for x in v] for v in uv] for uv in zip(dec.d1, dec.d2)],
    }


# -- subcommand handlers ------------------------------------------------------


def _cmd_dim(args) -> int:
    d, N = args.d, args.N
    # the dimension is at least d ** N, so a large N is refused before the power is built
    if d < 2 or N < (MAX_DIGITS + 1) / math.log10(d):
        value = algebra.truncated_dim(d, N)
        if value < 10**MAX_DIGITS:
            print(value)
            return 0
    raise ValueError(
        f"the level-{N} truncated algebra over R^{d} has a dimension of more than "
        f"{MAX_DIGITS} decimal digits"
    )


def _cmd_rank(args) -> int:
    print(rank.matrix_rank(load_tensor(_read(args.file)), args.method))
    return 0


def _cmd_decompose(args) -> int:
    t = load_tensor(_read(args.file))
    if args.method == "rref":
        dec = rank.rank_decompose_rref(t)
    else:
        dec = rank.rank_decompose_svd(t)
    if args.json:
        print(scalars.dump_json(_decomposition_json(dec, t.shape)))
    else:
        print(f"rank {dec.r}")
        print(render_decomposition(dec))
    return 0


def _factor_result(args):
    e = expr.parse(args.expression)
    if args.method == "als":
        return expr.factor_heuristic_higher_order(e, args.max_rank, args.field or REAL)
    kind, _, direction = args.method.partition("-")  # exact, greedy-left, greedy-right
    if args.field not in (None, RATIONAL):
        raise ValueError(f"{kind} factoring works over the rational field")
    if kind == "exact":
        return expr.factor_exact_order2(e, route=args.route), None
    return expr.factor_greedy(e, direction), None


def _cmd_factor(args) -> int:
    factored, status = _factor_result(args)
    if args.json:
        payload = expr.expr_to_json(factored)
        payload["term_count"] = len(factored.terms)
        if status is not None:
            payload["status"] = status
        print(scalars.dump_json(payload))
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
        print(scalars.dump_json(payload))
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
    print(scalars.dump_json(payload))
    return 0


def _cmd_algebra(args) -> int:
    x = algebra.load_tt(_read(args.files[0]))
    if args.op == "mul":
        if len(args.files) != 2:
            raise ValueError("mul needs exactly two operand files")
        y = algebra.load_tt(_read(args.files[1]))
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
    print(algebra.dump_tt(out))
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
    q.add_argument("d", type=scalars.integer_literal)
    q.add_argument("N", type=scalars.integer_literal)
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
    q.add_argument("--max-rank", type=scalars.integer_literal, default=4)
    q.add_argument("--json", action="store_true")
    q.set_defaults(func=_cmd_factor)

    q = sub.add_parser("expand", help="canonical expanded form of an expression")
    q.add_argument("expression")
    q.add_argument("--json", action="store_true")
    q.set_defaults(func=_cmd_expand)

    q = sub.add_parser("sig", help="truncated signature of a CSV path")
    q.add_argument("file")
    q.add_argument("--depth", type=scalars.integer_literal, required=True)
    q.add_argument("--from", dest="s", type=scalars.real_literal, default=0.0)
    q.add_argument("--to", dest="t", type=scalars.real_literal, default=1.0)
    q.add_argument(
        "--oracle",
        type=scalars.integer_literal,
        default=None,
        metavar="STEPS",
        help="use the Riemann-sum oracle with this many grid steps",
    )
    q.set_defaults(func=_cmd_sig)

    q = sub.add_parser("algebra", help="truncated tensor algebra operations")
    q.add_argument("op", choices=["mul", "inv", "project"])
    q.add_argument("files", nargs="+")
    q.add_argument("--level", type=scalars.integer_literal, default=None)
    q.set_defaults(func=_cmd_algebra)

    return p


# Built once per process: building the tree costs more than most commands.
# Parsing keeps no state between calls, so ``main`` may be called repeatedly.
_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad usage; 0 for --help
        return 0 if exc.code in (0, None) else 1
    if getattr(args, "command", None) is None:
        _PARSER.print_usage(sys.stderr)
        print("error: a command is required", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except (rank.ConvergenceError, scalars.NonFiniteResultError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
