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
# fresh-set prefix, the robust solver, and geometric expectation batches
TRACED_SOLVES = [
    RunConfig(problem="synth-logreg-eq", method="ra-sqp-dl",
              max_gradient_evals=20_000),
    RunConfig(problem="synth-logreg-ineq", method="ra-sqp-linf",
              max_gradient_evals=20_000),
    RunConfig(problem="synth-eq-quad", method="ra-sqp-dl",
              sampling="geometric", max_outer=3),
]


@pytest.mark.parametrize("config", TRACED_SOLVES,
                         ids=lambda c: f"{c.problem}-{c.method}")
def test_traced_solve_does_the_same_work(config):
    layers = load_layers()
    tracer = layers.Tracer()
    with layers.Installed(tracer):
        traced = run_config(config).counters
    assert traced == run_config(config).counters
    # the tracer read every sample set it was handed
    counts = tracer.counts
    assert counts["problems.value_grad"]["samples"] == traced.gradient_evals
    assert (counts["problems.value_only"]["samples"]
            == traced.function_evals - traced.gradient_evals)
    assert counts["problems.draw_samples"]["items"] > 0
