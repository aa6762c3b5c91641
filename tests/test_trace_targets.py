"""The benchmark's per-layer tracer wraps names in rasqp modules; a refactor
that renames or removes one breaks the traced benchmark. Its own tests are
not collected here, so this checks the names from its table directly, and
runs a few solves under the tracer itself."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

from rasqp.bench import RunConfig, run_config
from rasqp.problems import DRAW_CHUNK

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def trace_targets():
    """The `TARGETS` dict literal of perfbench/layers.py, read without
    importing or executing the file."""
    tree = ast.parse(LAYERS.read_text(), filename=str(LAYERS))
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == "TARGETS"):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS table in {LAYERS}")


def test_every_trace_target_exists():
    targets = trace_targets()
    assert targets
    missing = [f"rasqp.{mod}.{attr}" for mod, attr in targets
               if not hasattr(importlib.import_module(f"rasqp.{mod}"), attr)]
    assert missing == []


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# one solve down each path the benchmark traces: adaptive sampling with its
# fresh-set prefix, the robust solver, geometric expectation batches, and
# det-sqp's fixed whole-dataset batch, whose first inner loop ends on its
# stopping rule before the budget; each with the trace sites (module.name) its traced solve reaches, so a
# refactor that moves a call off a traced name fails here. The inequality
# solve answers both subproblems exactly, so of the interior point only the
# KKT-residual metric's `ipm.solve_program` is reached. The logistic
# solves take every corrected unit step the line search tries first, so
# only the linearly constrained quadratic reaches the backtrack
SOLVE_SITES = {"bench.run", "driver._sums_over", "driver.draw_samples",
               "driver.eval_constraints", "driver.eval_subsampled",
               "driver.eval_subsampled_value", "driver.true_metrics"}
LOGREG_SITES = SOLVE_SITES | {"bench.build_logreg_problem",
                              "bench.make_synthetic_dataset",
                              "driver.estimate_condition_inputs",
                              "driver.gradient_stats"}
TRACED_SOLVES = [
    (RunConfig(problem="synth-logreg-eq", method="ra-sqp-dl",
               max_gradient_evals=20_000),
     LOGREG_SITES | {"driver.compute_step", "sqp_eq.minres_solve"}),
    (RunConfig(problem="synth-logreg-ineq", method="ra-sqp-linf",
               max_gradient_evals=20_000),
     LOGREG_SITES | {"driver.feasibility_step", "driver.direction_step",
                     "ipm.solve_program"}),
    (RunConfig(problem="synth-eq-quad", method="ra-sqp-dl",
               sampling="geometric", max_outer=3),
     SOLVE_SITES | {"driver.compute_step", "sqp_eq.minres_solve",
                    "sqp_eq.armijo_backtrack"}),
    (RunConfig(problem="synth-logreg-eq", method="det-sqp",
               max_gradient_evals=30_000),
     SOLVE_SITES | {"bench.build_logreg_problem",
                    "bench.make_synthetic_dataset", "sqp_eq.compute_step",
                    "sqp_eq.minres_solve"}),
]


@pytest.mark.parametrize("config,sites", [
    pytest.param(config, sites, id=f"{config.problem}-{config.method}")
    for config, sites in TRACED_SOLVES])
def test_traced_solve_does_the_same_work(config, sites):
    layers = load_layers()
    tracer = layers.Tracer()
    with layers.Installed(tracer):
        traced = run_config(config).counters
    assert traced == run_config(config).counters
    assert {span[1] for span in tracer.spans} == sites
    # the tracer read every sample set it was handed
    counts = tracer.counts
    assert counts["problems.value_grad"]["samples"] == traced.gradient_evals
    assert (counts["problems.value_only"]["samples"]
            == traced.function_evals - traced.gradient_evals)
    assert counts["problems.draw_samples"]["items"] > 0


def test_drawn_items_are_the_batch_sizes():
    # geometric expectation batches, the last past DRAW_CHUNK: the tracer
    # counts every draw of every set once through the set's `.size`
    layers = load_layers()
    tracer = layers.Tracer()
    with layers.Installed(tracer):
        out = run_config(RunConfig(problem="synth-eq-quad", method="ra-sqp-dl",
                                   sampling="geometric", max_outer=7,
                                   max_gradient_evals=10 ** 9))
    sizes = [r.batch_size for r in out.trace[1:]]
    assert len(sizes) == 7 and sizes[-1] > DRAW_CHUNK
    metrics = layers.layer_metrics(tracer, 0.0)
    assert metrics["problems.draw_samples.items"] == sum(sizes)
