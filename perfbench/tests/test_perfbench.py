"""Tests of the benchmark itself: smoke runs of every workload path, the
trace wrapper table, self-time accounting and the output checks.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
import layers
from workloads import WORKLOADS, Checker, conservation_breaks, run_solve, \
    solve_list

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SRC = ROOT / "src"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# call site -> the workload on which the layer table says it does its work
HIT_ON = {
    "driver.draw_samples": "quad-geometric",
    "driver.eval_subsampled": "quad-geometric",
    "driver.gradient_stats": "eq-logreg",
    "driver._sums_over": "eq-logreg",
    "driver.eval_subsampled_value": "eq-logreg",
    "driver.eval_constraints": "eq-logreg",
    "bench.make_synthetic_dataset": "eq-logreg",
    "bench.build_logreg_problem": "eq-logreg",
    "bench.run": "ineq-logreg",
    "driver.estimate_condition_inputs": "eq-logreg",
    "driver.true_metrics": "ineq-logreg",
    "driver.compute_step": "eq-logreg",
    "sqp_eq.compute_step": "eq-logreg",
    "sqp_eq.armijo_backtrack": "eq-logreg",
    "sqp_ineq.armijo_backtrack": "ineq-logreg",
    "sqp_eq.minres_solve": "eq-logreg",
    "sqp_eq.lbfgs_apply": "eq-logreg",
    "sqp_eq.lbfgs_update": "eq-logreg",
    "sqp_ineq.feasibility_step": "ineq-logreg",
    "sqp_ineq.direction_step": "ineq-logreg",
    "driver.feasibility_step": "ineq-logreg",
    "driver.direction_step": "ineq-logreg",
    "sqp_ineq.solve_program": "ineq-logreg",
    "ipm.solve_program": "ineq-logreg",
}
# L-BFGS inside the robust solver: no method enables it, so no workload
# reaches these sites; they stay wrapped for when one does
UNREACHED = {"sqp_ineq.lbfgs_update", "linalg.lbfgs_apply"}


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One smoke traced run per workload: (record, tracer of its pass)."""
    out = {}
    for name in WORKLOADS:
        tracer = layers.Tracer()
        with layers.Installed(tracer):
            wall, _, _ = harness.run_list(solve_list(name, 0, smoke=True),
                                          tracer)
        out[name] = (wall, tracer)
    return out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_emits_every_metric(workload, trace, tmp_path):
    record = harness.run_workload(workload, 0, 0, bool(trace), SRC,
                                  tmp_path, smoke=True)
    summary = record["summary"]
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True
    assert summary["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in summary["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    assert record["fail_frac"] == summary["failed"] / summary["attempted"]
    assert (tmp_path / f"result-{workload}-seed0-trace{trace}.json").is_file()
    if trace:
        spans = (tmp_path / f"spans-{workload}-seed0.jsonl").read_text()
        assert len(spans.splitlines()) > 0


def test_benchmark_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_every_target_is_listed_for_a_workload():
    sites = {f"{mod}.{attr}" for mod, attr in layers.TARGETS}
    assert sites == set(HIT_ON) | UNREACHED


@pytest.mark.parametrize("site", sorted(HIT_ON))
def test_target_is_hit_on_its_workload(site, traced):
    _, tracer = traced[HIT_ON[site]]
    assert any(span[1] == site for span in tracer.spans)


def test_interior_point_and_dataset_layers_stay_flat(traced):
    for name in ("eq-logreg", "quad-geometric"):
        wall, tracer = traced[name]
        m = layers.layer_metrics(tracer, wall)
        assert m["ipm.subproblem.self_s"] == 0 == m["ipm.metric.self_s"]
    wall, tracer = traced["quad-geometric"]
    assert layers.layer_metrics(tracer, wall)["bench.dataset.self_s"] == 0


def test_self_times_and_unattributed_add_up_to_wall(traced):
    for wall, tracer in traced.values():
        m = layers.layer_metrics(tracer, wall)
        total = sum(m[f"{layer}.self_s"] for layer in layers.LAYERS)
        assert m["trace.unattributed_s"] >= 0
        assert total + m["trace.unattributed_s"] == pytest.approx(wall)


def test_untraced_pass_samples_the_reference_after_every_solve():
    configs = solve_list("quad-geometric", 0, smoke=True)
    wall, pairs, refs = harness.run_list(configs)
    assert len(refs) >= len(configs)
    assert wall == sum(result.seconds for result, _ in pairs)
    assert harness.pace([harness.REFERENCE_S] * 2) == pytest.approx(1.0)


def test_self_time_subtracts_direct_children():
    tracer = layers.Tracer()
    tracer.spans[:] = [
        [layers.ROOT, layers.ROOT, 0, 100, -1, 0],
        ["driver.outer", "bench.run", 10, 90, 0, 0],
        ["sqp_eq.line_search", "sqp_eq.armijo_backtrack", 20, 50, 1, 0],
        ["problems.value_only", "driver.eval_subsampled_value", 25, 35, 2, 0],
        ["problems.value_only", "driver.eval_subsampled_value", 40, 45, 2, 0],
    ]
    m = layers.layer_metrics(tracer, 100e-9)
    assert m["driver.outer.self_s"] == pytest.approx(50e-9)
    assert m["sqp_eq.line_search.self_s"] == pytest.approx(15e-9)
    assert m["problems.value_only.self_s"] == pytest.approx(15e-9)
    assert m["sqp_eq.line_search.useful_ratio"] == 0.5
    assert m["trace.unattributed_s"] == pytest.approx(20e-9)


def test_missing_target_is_a_hard_error_and_restores(monkeypatch):
    module = importlib.import_module("rasqp.driver")
    original = module.draw_samples
    targets = dict(layers.TARGETS)
    targets[("driver", "no_such_function")] = "driver.outer"
    monkeypatch.setattr(layers, "TARGETS", targets)
    with pytest.raises(LookupError, match="no_such_function"):
        with layers.Installed(layers.Tracer()):
            pass
    assert module.draw_samples is original


def test_wrappers_are_removed_after_a_traced_run(tmp_path):
    before = {key: getattr(importlib.import_module(f"rasqp.{key[0]}"), key[1])
              for key in layers.TARGETS}
    harness.run_workload("quad-geometric", 0, 0, True, SRC, tmp_path,
                         smoke=True)
    for key, fn in before.items():
        assert getattr(importlib.import_module(f"rasqp.{key[0]}"),
                       key[1]) is fn


def test_wrong_converged_claim_is_caught():
    cfg = solve_list("eq-logreg", 0, smoke=True)[0]
    result, outcome = run_solve(cfg)
    outcome.status = result.status = "Converged"
    outcome.x = outcome.trace[0].x  # the starting point meets no threshold
    checked = Checker().check(result, outcome)
    assert checked.incorrect and checked.failures


def test_broken_gradient_accounting_is_caught():
    cfg = solve_list("eq-logreg", 0, smoke=True)[0]
    _, outcome = run_solve(cfg)
    assert conservation_breaks(outcome.trace) == []
    outcome.trace[1].grad_evals_cum += 1
    assert outcome.trace[1].k in conservation_breaks(outcome.trace)


def test_seed_zero_reproduces_acceptance_configurations():
    eq = solve_list("eq-logreg", 0)
    dl = [c.seed for c in eq if c.method == "ra-sqp-dl"]
    assert dl == list(range(WORKLOADS["eq-logreg"].seeds))
    det = [c for c in eq if c.method == "det-sqp"]
    assert [(c.seed, c.max_gradient_evals) for c in det] == [(0, 10 ** 6)]
    quad = solve_list("quad-geometric", 0)
    assert all((c.sampling, c.beta, c.max_outer, c.data_seed)
               == ("geometric", 0.5, 10, 0) for c in quad)
    ineq = solve_list("ineq-logreg", 1)
    k = WORKLOADS["ineq-logreg"].seeds
    assert [c.seed for c in ineq if c.method == "ra-sqp-linf"] == \
        list(range(k, 2 * k))
    assert [c.seed for c in ineq if c.method == "ra-sqp-l1"] == \
        list(range(k, k + k // 2))


def test_cli_prints_result_last(tmp_path):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "quad-geometric",
         "--seed", "0", "--seconds", "0", "--trace", "0", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}


def test_cli_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eq-logreg",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
