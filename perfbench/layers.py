"""Per-layer tracing from outside the program.

Each public function of a layer is wrapped at the module attribute its
callers look it up by (a `from .x import f` caller looks it up in its own
module). A wrapper records a span (layer, call site, start, end, parent span,
solve id) and the work counts the call carries. A layer's self time is the time of its
spans minus the time of their direct child spans, so a faster layer can save
at most its self time.
"""

from __future__ import annotations

import importlib
import json
import time

# (module, attribute) -> layer. Every name must exist: a refactor that
# renames one fails the traced run instead of silently zeroing a layer.
TARGETS = {
    ("driver", "draw_samples"): "problems.draw_samples",
    ("driver", "eval_subsampled"): "problems.value_grad",
    ("driver", "gradient_stats"): "problems.value_grad",
    ("driver", "_sums_over"): "problems.value_grad",
    # the evaluator lambdas in driver look this name up at call time
    ("driver", "eval_subsampled_value"): "problems.value_only",
    ("driver", "eval_constraints"): "problems.constraints",
    ("bench", "make_synthetic_dataset"): "bench.dataset",
    # CSR assembly of the dataset happens when the problem is built
    ("bench", "build_logreg_problem"): "bench.dataset",
    ("bench", "run"): "driver.outer",
    ("driver", "estimate_condition_inputs"): "driver.estimate",
    ("driver", "true_metrics"): "driver.true_metrics",
    ("driver", "compute_step"): "sqp_eq.step",
    ("sqp_eq", "compute_step"): "sqp_eq.step",
    ("sqp_eq", "armijo_backtrack"): "sqp_eq.line_search",
    ("sqp_ineq", "armijo_backtrack"): "sqp_eq.line_search",
    ("sqp_eq", "minres_solve"): "linalg.minres",
    ("sqp_eq", "lbfgs_apply"): "linalg.lbfgs",
    ("sqp_eq", "lbfgs_update"): "linalg.lbfgs",
    ("sqp_ineq", "lbfgs_update"): "linalg.lbfgs",
    ("linalg", "lbfgs_apply"): "linalg.lbfgs",
    ("sqp_ineq", "feasibility_step"): "sqp_ineq.build",
    ("sqp_ineq", "direction_step"): "sqp_ineq.build",
    ("driver", "feasibility_step"): "sqp_ineq.build",
    ("driver", "direction_step"): "sqp_ineq.build",
    ("sqp_ineq", "solve_program"): "ipm.subproblem",
    # kkt_residual reaches the solver through the ipm module's own name
    ("ipm", "solve_program"): "ipm.metric",
}

LAYERS = tuple(dict.fromkeys(TARGETS.values()))
ROOT = "solve"  # the benchmark's span around one run_config call


def _sample_count(args):
    samples = args[2]  # a SampleSet, or the raw items tuple
    return samples.size if hasattr(samples, "size") else len(samples)


def _drawn(args, kwargs, out):
    prefix = kwargs.get("superset_of") or (args[3] if len(args) > 3 else None)
    return out.size - (prefix.size if prefix is not None else 0)


# layer -> {count name: f(args, kwargs, result) -> amount added per call}
COUNTS = {
    "problems.draw_samples": {"items": _drawn},
    "problems.value_grad": {"samples": lambda a, k, o: _sample_count(a)},
    "problems.value_only": {"samples": lambda a, k, o: _sample_count(a)},
    "linalg.minres": {"iters": lambda a, k, o: o.iterations,
                      "max_iter": lambda a, k, o: o.stop_reason == "max_iter"},
    "ipm.subproblem": {"barrier_iters": lambda a, k, o: o.iterations,
                       "nonoptimal": lambda a, k, o: o.status != "optimal"},
    "ipm.metric": {"barrier_iters": lambda a, k, o: o.iterations},
    "driver.outer": {
        "iters": lambda a, k, o: len(o.trace) - 1,
        "useful": lambda a, k, o: sum(r.updates > 0 for r in o.trace[1:])},
}


class Tracer:
    """Spans and counts of one traced pass, kept in memory."""

    def __init__(self):
        self.spans = []  # [layer, site, start ns, end ns, parent, solve id]
        self.stack = []
        self.counts = {layer: dict.fromkeys(COUNTS.get(layer, ()), 0)
                       for layer in LAYERS + (ROOT,)}
        self.solve_id = -1

    def wrap(self, fn, layer, site):
        counters = COUNTS.get(layer, {})
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        totals = self.counts[layer]

        def traced(*args, **kwargs):
            span = [layer, site, 0, 0, stack[-1] if stack else -1,
                    self.solve_id]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            for name, count in counters.items():
                totals[name] += count(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def solve(self, solve_id, fn, *args):
        """Run fn(*args) as the root span of one solve."""
        self.solve_id = solve_id
        return self.wrap(fn, ROOT, ROOT)(*args)

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class Installed:
    """Context manager that swaps every TARGETS name for a traced wrapper
    and restores the originals on exit."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.saved = []

    def __enter__(self):
        try:
            for (mod_name, attr), layer in TARGETS.items():
                module = importlib.import_module(f"rasqp.{mod_name}")
                if not hasattr(module, attr):
                    raise LookupError(f"trace target rasqp.{mod_name}.{attr} "
                                      "does not exist")
                original = getattr(module, attr)
                self.saved.append((module, attr, original))
                setattr(module, attr,
                        self.tracer.wrap(original, layer, f"{mod_name}.{attr}"))
        except BaseException:
            self.__exit__()
            raise
        return self.tracer

    def __exit__(self, *exc):
        for module, attr, original in reversed(self.saved):
            setattr(module, attr, original)
        self.saved.clear()
        return False


def layer_metrics(tracer, wall: float) -> dict:
    """Per-layer self time and counts of one traced pass of `wall` seconds.

    `trace.unattributed_s` is wall time outside every layer's self time, so
    the layer self times and it add up to the traced wall exactly.
    """
    spans = tracer.spans
    child_ns = [0] * len(spans)
    for _, _, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    self_ns = dict.fromkeys(LAYERS, 0)
    calls = dict.fromkeys(LAYERS, 0)
    trials_in_line_search = 0
    for i, (layer, _, start, end, parent, _) in enumerate(spans):
        if layer == ROOT:
            continue
        self_ns[layer] += end - start - child_ns[i]
        calls[layer] += 1
        if (layer == "problems.value_only" and parent >= 0
                and spans[parent][0] == "sqp_eq.line_search"):
            trials_in_line_search += 1

    counts = tracer.counts
    out = {f"{layer}.self_s": self_ns[layer] / 1e9 for layer in LAYERS}
    for layer in ("problems.draw_samples", "problems.value_only",
                  "problems.constraints", "bench.dataset",
                  "driver.true_metrics", "sqp_eq.line_search",
                  "linalg.minres", "linalg.lbfgs", "sqp_ineq.build",
                  "ipm.subproblem", "ipm.metric"):
        out[f"{layer}.calls"] = calls[layer]
    out["problems.draw_samples.items"] = counts["problems.draw_samples"]["items"]
    out["problems.value_grad.samples"] = counts["problems.value_grad"]["samples"]
    out["problems.value_only.samples"] = counts["problems.value_only"]["samples"]
    outer = counts["driver.outer"]
    out["driver.outer.iters"] = outer["iters"]
    out["driver.outer.useful_ratio"] = _ratio(outer["useful"], outer["iters"])
    out["sqp_eq.line_search.useful_ratio"] = _ratio(
        calls["sqp_eq.line_search"], trials_in_line_search)
    minres = counts["linalg.minres"]
    out["linalg.minres.iters"] = minres["iters"]
    out["linalg.minres.max_iter_frac"] = _ratio(minres["max_iter"],
                                                calls["linalg.minres"])
    sub = counts["ipm.subproblem"]
    out["ipm.subproblem.barrier_iters"] = sub["barrier_iters"]
    out["ipm.subproblem.nonoptimal"] = sub["nonoptimal"]
    out["ipm.metric.barrier_iters"] = counts["ipm.metric"]["barrier_iters"]
    out["trace.unattributed_s"] = wall - sum(self_ns.values()) / 1e9
    return out


def _ratio(num, den):
    return num / den if den else 0.0
