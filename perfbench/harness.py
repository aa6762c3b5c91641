"""Measurement of one workload run: set-up probes, the closed solve loop,
output checks, the traced pass, and the result record."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import layers
from workloads import WORKLOADS, Checker, run_solve, solve_list

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5
# Mean of reference_seconds() interleaved with solves on the baseline
# machine (2-core VM, Python 3.11.7, numpy 2.4.6). Timed metrics are
# divided by the measured pace, the ratio of the mean reference time in
# the run to this value: the machine's speed drifts by up to 30% within
# minutes, and the reference, sampled through the run, moves with it.
REFERENCE_S = 0.012
# share of each solve's time spent sampling the reference after it
REFERENCE_SHARE = 0.03

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "solve_s_p50": "s", "solve_s_p90": "s",
    "peak_rss_mb": "MB", "grad_evals": "count", "solver_iters": "count",
    "ok_frac": "ratio",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


def environment(src: Path) -> dict:
    """Versions, cores and source revision recorded with every result. The
    git revision is absent when the tree is not a git checkout, so a digest
    of the package sources is recorded as well."""
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=src,
                             capture_output=True, text=True, timeout=10)
        git_rev = rev.stdout.strip() if rev.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        git_rev = None
    digest = hashlib.sha256()
    for path in sorted((src / "rasqp").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "git_rev": git_rev,
            "src_sha256": digest.hexdigest()}


def reference_seconds() -> float:
    """Seconds of a fixed computation that uses no rasqp code, in the mix
    the solvers run: boxed random draws, small dense products and solves,
    and Python float arithmetic."""
    rng = np.random.default_rng(12345)
    A = rng.standard_normal((40, 40))
    M = A @ A.T + 40.0 * np.eye(40)
    x = np.ones(40)
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(300):
        draws = tuple(rng.uniform(-1.0, 1.0, size=200))
        acc += float(np.sum(np.fromiter(draws, dtype=float, count=200)))
        y = np.linalg.solve(M, x) if i % 10 == 0 else M @ x
        x = y / np.linalg.norm(y)
        acc += sum(v * v for v in x[:20])
    return time.perf_counter() - t0


def pace(samples) -> float:
    """How much slower than the baseline machine the run went."""
    return statistics.fmean(samples) / REFERENCE_S


def setup_seconds(src: Path, problems, probes: int) -> tuple:
    """Seconds from starting a fresh interpreter until it has imported
    rasqp and built each of the workload's problems once, per probe, and
    the reference samples taken around the probes."""
    times, refs = [], []
    for _ in range(probes):
        refs += [reference_seconds() for _ in range(3)]
        t0 = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, str(HERE / "setup_probe.py"), str(src),
                 *problems], stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            if proc.wait(timeout=120) != 0 or line.strip() != "ready":
                raise RuntimeError(f"set-up probe failed: {line!r}")
        times.append(elapsed)
    refs += [reference_seconds() for _ in range(3)]
    return times, refs


def run_list(configs, tracer=None):
    """Issue the solves one after another (one caller, closed loop).

    An untraced pass samples the reference after each solve, for about
    REFERENCE_SHARE of the solve's time and at least once, so the samples
    spread over the pass in proportion to time. Returns (seconds spent in
    the solves, [(SolveResult, outcome)], reference samples).
    """
    pairs, refs = [], []
    for i, cfg in enumerate(configs):
        if tracer is not None:
            pairs.append(tracer.solve(i, run_solve, cfg))
            continue
        pairs.append(run_solve(cfg))
        spent, budget = 0.0, REFERENCE_SHARE * pairs[-1][0].seconds
        while not spent or spent < budget:
            refs.append(reference_seconds())
            spent += refs[-1]
    return sum(result.seconds for result, _ in pairs), pairs, refs


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 src: Path, out_dir: Path, smoke: bool = False) -> dict:
    """Measure one workload and write its result record to out_dir.

    Passes of the whole solve list repeat for about `seconds`; in a traced
    run each untraced pass is followed by a traced one. Outputs
    are checked after each pass, outside the timed loop and with the
    wrappers removed.
    """
    configs = solve_list(workload, seed, smoke)
    checker = Checker()
    env = environment(src)
    # the first solve of a process pays for lazy imports; keep it untimed
    run_solve(solve_list(workload, seed, smoke=True)[0])

    passes, traced = [], []
    start, elapsed = time.perf_counter(), 0.0
    # untraced runs make two passes so the work counters are compared;
    # after that, another pass starts only while half of it fits in seconds
    min_passes = 1 if trace else 2
    while (len(passes) < min_passes
           or elapsed * (1 + 0.5 / len(passes)) < seconds):
        wall, pairs, refs = run_list(configs)
        passes.append((wall, [checker.check(*pair) for pair in pairs],
                       pace(refs)))
        if trace:
            tracer = layers.Tracer()
            with layers.Installed(tracer):
                wall, pairs, _ = run_list(configs, tracer)
            traced.append((wall, [checker.check(*pair) for pair in pairs],
                           tracer))
        elapsed = time.perf_counter() - start

    reference = passes[0][1]
    others = [results for _, results, _ in passes[1:]]
    others += [results for _, results, _ in traced]
    changed = [r.config for results in others
               for r, ref in zip(results, reference) if r.work() != ref.work()]
    solves = [r for _, results, _ in passes for r in results]
    failed = sum(bool(r.failures) for r in solves)
    correct = not changed and not any(
        r.incorrect for results in [reference] + others for r in results)
    notes = [f"work counters differ between passes: {c.method} seed {c.seed}"
             for c in changed]
    notes += [f"failed: {r.config.method} seed {r.config.seed}: {reason}"
              for r in reference for reason in r.failures]

    out_dir.mkdir(parents=True, exist_ok=True)
    if trace:
        metrics = traced_metrics(passes, traced)
        traced[-1][2].write(out_dir / f"spans-{workload}-seed{seed}.jsonl")
        units = {name: layer_unit(name) for name in metrics}
    else:
        setup, setup_refs = setup_seconds(
            src, [WORKLOADS[workload].problem], 1 if smoke else SETUP_PROBES)
        times = [r.seconds / p for _, results, p in passes for r in results]
        metrics = {
            "setup_s": statistics.median(setup) / pace(setup_refs),
            "wall_s": statistics.median(w / p for w, _, p in passes),
            "solve_s_p50": statistics.median(times),
            "solve_s_p90": (statistics.quantiles(times, n=10,
                                                 method="inclusive")[-1]
                            if len(times) > 1 else times[0]),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "grad_evals": sum(r.grad_evals for r in reference),
            "solver_iters": sum(r.solver_iters for r in reference),
            "ok_frac": (len(solves) - failed) / len(solves),
        }
        units = END_TO_END_UNITS

    record = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "environment": env, "passes": len(passes),
        "pass_seconds": [w for w, _, _ in passes],
        "pass_cpu_seconds": [sum(r.cpu_seconds for r in results)
                             for _, results, _ in passes],
        "pass_pace": [p for _, _, p in passes],
        "setup_seconds": None if trace else setup,
        "setup_pace": None if trace else pace(setup_refs),
        "solves_per_pass": len(configs), "solve_time_samples": len(solves),
        "fail_frac": failed / len(solves), "notes": notes,
        "solves": [{"problem": r.config.problem, "method": r.config.method,
                    "seed": r.config.seed, "status": r.status,
                    "seconds": r.seconds, "cpu_seconds": r.cpu_seconds,
                    "grad_evals": r.grad_evals,
                    "solver_iters": r.solver_iters,
                    "failures": list(r.failures)} for r in reference],
        "summary": {"correct": correct, "attempted": len(solves),
                    "failed": failed,
                    "metrics": {name: {"value": value, "unit": units[name]}
                                for name, value in metrics.items()}},
    }
    name = f"result-{workload}-seed{seed}-trace{int(trace)}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1) + "\n")
    return record


def traced_metrics(passes, traced) -> dict:
    """Per-layer metrics: medians of the traced passes' self times, the
    (repeating) counts of the last one, and the tracing overhead."""
    per_pass = [layers.layer_metrics(tracer, wall)
                for wall, _, tracer in traced]
    metrics = {}
    for name, value in per_pass[-1].items():
        if name.endswith("_s"):
            value = statistics.median(m[name] for m in per_pass)
        metrics[name] = value
    untraced = statistics.median(w for w, _, _ in passes)
    metrics["trace.overhead_frac"] = (
        statistics.median(t[0] for t in traced) / untraced - 1.0)
    return metrics
