"""Outside-in per-layer tracing of ``tenalg``.

The benchmark wraps public functions of the package from outside: each
wrapper records calls and self time (its own duration minus the time spent in
wrapped callees) and, for a few functions, a work count read from the
arguments.  A wrapped function is rebound under every name that points at it
in any loaded ``tenalg`` module, so ``from .rank import rank_decompose_rref``
inside ``expr`` is traced as well.  ``DenseTensor`` is traced by wrapping its
``__init__`` on the class, which covers every construction.

Nothing here changes what the program computes or prints.
"""

from __future__ import annotations

import functools
import sys
import time

# (span, module, attribute).  Several attributes may share one span.
WRAPPED = [
    ("cli.main", "tenalg.cli", "main"),
    ("dense.tensor_product", "tenalg.dense", "tensor_product"),
    ("algebra.concat_product", "tenalg.algebra", "concat_product"),
    ("algebra.inverse", "tenalg.algebra", "inverse"),
    ("algebra.json", "tenalg.algebra", "tt_from_json"),
    ("algebra.json", "tenalg.algebra", "tt_to_json"),
    ("signature.path_signature", "tenalg.signature", "path_signature"),
    ("signature.segment_signature", "tenalg.signature", "segment_signature"),
    ("signature.oracle_signature", "tenalg.signature", "oracle_signature"),
    ("signature.read_path_csv", "tenalg.signature", "read_path_csv"),
    ("rank.rref", "tenalg.rank", "rref"),
    ("rank.rank_decompose_rref", "tenalg.rank", "rank_decompose_rref"),
    ("rank.svd", "tenalg.rank", "svd"),
    ("rank.rank_decompose_svd", "tenalg.rank", "rank_decompose_svd"),
    ("expr.parse", "tenalg.expr", "parse"),
    ("expr.to_coefficient_tensor", "tenalg.expr", "to_coefficient_tensor"),
    ("expr.render", "tenalg.expr", "render"),
    ("expr.factor_exact_order2", "tenalg.expr", "factor_exact_order2"),
    ("expr.factor_greedy", "tenalg.expr", "factor_greedy"),
    ("expr.factor_heuristic_higher_order", "tenalg.expr", "factor_heuristic_higher_order"),
]
DENSE_SPAN = "dense.DenseTensor"

# Spans that must record calls on each workload.  A zero there means a binding
# did not take (or the workload lost its coverage), and the traced run fails.
EXPECTED = {
    "sig_paths": {
        "cli.main", DENSE_SPAN, "dense.tensor_product", "algebra.concat_product", "algebra.json",
        "signature.path_signature", "signature.segment_signature", "signature.oracle_signature",
        "signature.read_path_csv",
    },
    "tt_algebra": {"cli.main", DENSE_SPAN, "algebra.concat_product", "algebra.inverse", "algebra.json"},
    "rank_factor": {
        "cli.main", DENSE_SPAN, "rank.rref", "rank.rank_decompose_rref", "rank.svd",
        "rank.rank_decompose_svd", "expr.parse", "expr.to_coefficient_tensor", "expr.render",
        "expr.factor_exact_order2", "expr.factor_greedy", "expr.factor_heuristic_higher_order",
    },
}

# Per-layer metrics, all per cycle of the workload's job lists: name -> (unit, better).
# The comment on each group names the end-to-end metric it should move.
METRICS = {
    # job_p50_ms on rank_factor and tt_algebra
    "cli.main.self_s": ("s", "lower"),
    # jobs_per_s on sig_paths and tt_algebra; no move predicted on rank_factor
    "dense.DenseTensor.calls": ("count", "lower"),
    "dense.coeffs_built": ("count", "lower"),
    "dense.DenseTensor.self_s": ("s", "lower"),
    "dense.tensor_product.calls": ("count", "lower"),
    "dense.tensor_product.self_s": ("s", "lower"),
    "algebra.concat_product.calls": ("count", "lower"),
    "algebra.concat_product.self_s": ("s", "lower"),
    "algebra.concat_product.madds": ("madd-computed", "lower"),
    # job_p90_ms and jobs_per_s on tt_algebra only
    "algebra.inverse.calls": ("count", "lower"),
    "algebra.inverse.self_s": ("s", "lower"),
    # jobs_per_s on tt_algebra
    "algebra.json.self_s": ("s", "lower"),
    # jobs_per_s on sig_paths; the oracle share moves job_p90_ms there
    "signature.path_signature.self_s": ("s", "lower"),
    "signature.segment_signature.calls": ("count", "lower"),
    "signature.segment_signature.self_s": ("s", "lower"),
    "signature.segments": ("count", "higher"),
    "signature.oracle_signature.self_s": ("s", "lower"),
    "signature.read_path_csv.self_s": ("s", "lower"),
    # jobs_per_s and job_p50_ms on rank_factor
    "rank.rref.self_s": ("s", "lower"),
    "rank.rank_decompose_rref.self_s": ("s", "lower"),
    "rank.svd.self_s": ("s", "lower"),
    "rank.rank_decompose_svd.self_s": ("s", "lower"),
    "rank.entries": ("count", "higher"),
    # job_p50_ms on rank_factor
    "expr.parse.self_s": ("s", "lower"),
    "expr.to_coefficient_tensor.self_s": ("s", "lower"),
    "expr.render.self_s": ("s", "lower"),
    "expr.factor_exact_order2.self_s": ("s", "lower"),
    "expr.factor_greedy.self_s": ("s", "lower"),
    # job_p90_ms and als_verified_frac on rank_factor
    "expr.factor_heuristic_higher_order.calls": ("count", "lower"),
    "expr.factor_heuristic_higher_order.self_s": ("s", "lower"),
    "expr.als.verified_ratio": ("ratio", "higher"),
    # traced over untraced job time, minus 1
    "trace.overhead_frac": ("ratio", "lower"),
}


def _madds(args, kwargs, result):
    # multiply-adds of a dense level-N product: sum over n of (n + 1) d^n
    d, N = args[0].d, args[0].N
    return sum((n + 1) * d ** n for n in range(N + 1))


def _window_segments(args, kwargs, result):
    path = args[0]
    s = args[2] if len(args) > 2 else kwargs.get("s", 0.0)
    t = args[3] if len(args) > 3 else kwargs.get("t", 1.0)
    K = len(path.points)
    return sum(1 for i in range(K - 1) if max(s, i / (K - 1)) < min(t, (i + 1) / (K - 1)))


def _entries(args, kwargs, result):
    M = args[0]
    shape = getattr(M, "shape", None)
    return shape[0] * shape[1] if shape is not None else sum(len(row) for row in M)


def _verified(args, kwargs, result):
    return 1 if result[1] == "verified-upper-bound" else 0


# span -> (counter name, function of (args, kwargs, result))
COUNTERS = {
    "algebra.concat_product": ("algebra.concat_product.madds", _madds),
    "signature.path_signature": ("signature.segments", _window_segments),
    "rank.rank_decompose_rref": ("rank.entries", _entries),
    "rank.rank_decompose_svd": ("rank.entries", _entries),
    "expr.factor_heuristic_higher_order": ("expr.als.verified", _verified),
}


class Tracer:
    """Installs the wrappers, accumulates per-span totals, and restores on exit."""

    def __init__(self):
        self.calls = {}
        self.self_ns = {}
        self.counts = {}
        self._stack = [0]  # child time accumulated by each open span
        self._undo = []

    def _wrap(self, span, fn, counter=None):
        calls, self_ns, counts, stack = self.calls, self.self_ns, self.counts, self._stack
        calls.setdefault(span, 0)
        self_ns.setdefault(span, 0)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                child = stack.pop()
                stack[-1] += elapsed
                calls[span] += 1
                self_ns[span] += elapsed - child
            if counter is not None:
                name, count = counter
                counts[name] = counts.get(name, 0) + count(args, kwargs, result)
            return result

        return wrapper

    def __enter__(self):
        from tenalg.dense import DenseTensor

        modules = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "tenalg"]
        for span, modname, attr in WRAPPED:
            original = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(span, original, COUNTERS.get(span))
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, name, original))
                        setattr(mod, name, wrapper)

        init = DenseTensor.__init__
        timed_init = self._wrap(DENSE_SPAN, init)
        counts = self.counts

        @functools.wraps(init)
        def counted_init(obj, *args, **kwargs):
            timed_init(obj, *args, **kwargs)
            counts["dense.coeffs_built"] = counts.get("dense.coeffs_built", 0) + len(obj.coeffs)

        self._undo.append((DenseTensor, "__init__", init))
        DenseTensor.__init__ = counted_init
        return self

    def __exit__(self, *exc):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()
        return False

    def missing(self, workload):
        """Expected spans of ``workload`` that recorded no calls."""
        return sorted(span for span in EXPECTED[workload] if self.calls.get(span, 0) == 0)

    def metrics(self, cycles, overhead_frac):
        """Per-cycle values of every per-layer metric."""
        out = {}
        for name, (unit, _) in METRICS.items():
            span, _, kind = name.rpartition(".")
            if kind == "calls":
                value = self.calls.get(span, 0) / cycles
            elif kind == "self_s":
                value = self.self_ns.get(span, 0) / 1e9 / cycles
            elif name == "expr.als.verified_ratio":
                tried = self.calls.get("expr.factor_heuristic_higher_order", 0)
                value = self.counts.get("expr.als.verified", 0) / tried if tried else 1.0
            elif name == "trace.overhead_frac":
                value = overhead_frac
            else:
                value = self.counts.get(name, 0) / cycles
            out[name] = {"value": value, "unit": unit}
        return out
