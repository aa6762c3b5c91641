"""The benchmark's three solve workloads and the checks applied to every solve.

A workload is a fixed list of solves issued one after another through the
public `rasqp.bench.run_config` path. The workload seed picks the block of
solver seeds; every solve uses `data_seed` 0, the instance the acceptance
tests use, so workload seed 0 reproduces the acceptance configurations. The
data seed is not varied because the instance dominates the work on
`synth-eq-quad`: across data seeds 0-9 one geometric solve spends 11.2M to
19.1M gradient evaluations and 242 to 1188 MINRES iterations, a spread no
bound on a per-run total could hold.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from rasqp.bench import (RunConfig, build_problem, method_driver_config,
                         run_config)
from rasqp.driver import true_metrics

EQ_METHODS = ("ra-sqp-kkt", "ra-sqp-dnorm", "ra-sqp-dl", "ra-sqp-dl-lbfgs",
              "ra-sqp-dl-inexact")
DATA_SEED = 0
QUAD_OUTER = 10
QUAD_RATIO = 1e-2


@dataclass(frozen=True)
class Workload:
    name: str
    problem: str
    seeds: int  # solver seeds per workload seed


# The seed counts set each list's length: about 10 s on one core, long
# enough that the list's totals vary little by seed. BENCHMARK.json
# records why each workload is in the benchmark.
WORKLOADS = {
    w.name: w for w in (
        Workload("eq-logreg", "synth-logreg-eq", 10),
        Workload("quad-geometric", "synth-eq-quad", 7),
        Workload("ineq-logreg", "synth-logreg-ineq", 12),
    )
}


def solve_list(workload: str, seed: int, smoke: bool = False) -> list:
    """The fixed list of RunConfigs for one workload seed.

    Seed n uses solver seeds n*K .. n*K+K-1 for the workload's K; the
    full-batch `det-sqp` solve runs once, on the first of them. `smoke`
    shrinks the list to one solver seed and small budgets for tests.
    """
    if seed < 0:
        raise ValueError("seed must be >= 0")
    w = WORKLOADS[workload]
    k = 1 if smoke else w.seeds
    seeds = range(seed * k, seed * k + k)
    ra_budget = 20_000 if smoke else 500_000
    det_budget = 40_000 if smoke else 1_000_000

    def cfg(method, s, stop_v, stop_s, budget, **kw):
        return RunConfig(problem=w.problem, method=method, seed=s,
                         data_seed=DATA_SEED, stop_violation=stop_v,
                         stop_stationarity=stop_s,
                         max_gradient_evals=budget, **kw)

    if workload == "eq-logreg":
        return ([cfg(m, s, 1e-5, 1e-2, ra_budget)
                 for s in seeds for m in EQ_METHODS]
                + [cfg("det-sqp", seeds[0], 1e-5, 1e-2, det_budget)])
    if workload == "quad-geometric":
        return [cfg("ra-sqp-dl", s, None, None, 10 ** 9, sampling="geometric",
                    beta=0.5, max_outer=3 if smoke else QUAD_OUTER)
                for s in seeds]
    # ra-sqp-l1 solves take about twice as long as ra-sqp-linf ones. With
    # l1 on the first half of the seeds only, the pooled median solve time
    # falls inside the linf times, not on the gap between the two groups,
    # where it would jump with the seed.
    return ([cfg("ra-sqp-linf", s, 1e-6, 1e-2, ra_budget) for s in seeds]
            + [cfg("ra-sqp-l1", s, 1e-6, 1e-2, ra_budget)
               for s in seeds[:(k + 1) // 2]]
            + [cfg("det-sqp", seeds[0], 1e-9, 1e-7, det_budget)])


@dataclass
class SolveResult:
    """What one solve produced, reduced to what the benchmark compares."""
    config: RunConfig
    seconds: float
    cpu_seconds: float
    status: str
    grad_evals: int = 0
    solver_iters: int = 0
    batch_sizes: tuple = ()
    error: str = ""
    failures: tuple = ()     # reasons this solve counts toward fail_frac
    incorrect: tuple = ()    # outputs that contradict what the solver claimed

    def work(self):
        """Work counters that must repeat exactly for a fixed seed."""
        return (self.status, self.grad_evals, self.solver_iters,
                self.batch_sizes)


def run_solve(config: RunConfig) -> tuple:
    """Run one solve; returns (SolveResult, outcome or None). An exception
    is recorded on the result and the workload continues."""
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        outcome = run_config(config)
    except Exception as exc:  # a raising solve is a failed solve
        result = SolveResult(config, time.perf_counter() - t0,
                             time.process_time() - c0, "Error",
                             error=f"{type(exc).__name__}: {exc}")
        return result, None
    seconds, cpu = time.perf_counter() - t0, time.process_time() - c0
    c = outcome.counters
    result = SolveResult(
        config, seconds, cpu, outcome.status, grad_evals=c.gradient_evals,
        solver_iters=c.minres_iters + c.barrier_iters,
        batch_sizes=tuple(rec.batch_size for rec in outcome.trace[1:]))
    return result, outcome


class Checker:
    """Checks each solve's output; holds one problem per (name, data seed)
    so the checks do not rebuild datasets."""

    def __init__(self):
        self._problems = {}

    def problem(self, config: RunConfig):
        key = (config.problem, config.data_seed)
        if key not in self._problems:
            self._problems[key] = build_problem(*key)
        return self._problems[key]

    def check(self, result: SolveResult, outcome) -> SolveResult:
        """Fill `failures` and `incorrect` on `result`.

        A solve fails when it raised; when a Converged point misses the
        thresholds on the benchmark's own `true_metrics` call; when a
        geometric seed does not finish 10 outer iterations with error ratio
        <= 1e-2; when its trace breaks gradient-accounting conservation; or
        when a solve with stop thresholds ends without Converged. The first,
        third and last are outcomes of the algorithm; a wrong Converged
        claim or broken accounting is also an incorrect output.
        """
        cfg = result.config
        failures, incorrect = [], []
        if outcome is None:
            failures.append(f"raised {result.error}")
        else:
            problem = self.problem(cfg)
            if outcome.status == "Converged":
                solver = method_driver_config(cfg.method, problem, cfg).solver
                v, s, _ = true_metrics(problem, outcome.x, solver)
                if not (v <= cfg.stop_violation
                        and s <= cfg.stop_stationarity):
                    msg = f"Converged but violation {v:.3g}, stationarity {s:.3g}"
                    failures.append(msg)
                    incorrect.append(msg)
            bad = conservation_breaks(outcome.trace)
            if bad:
                msg = f"gradient accounting broken at outer {bad}"
                failures.append(msg)
                incorrect.append(msg)
            if cfg.sampling == "geometric":
                outer = len(outcome.trace) - 1
                first, last = outcome.trace[0], outcome.trace[-1]
                ratio = (max(last.violation_inf, last.stationarity)
                         / max(first.violation_inf, first.stationarity))
                if outer != cfg.max_outer or not ratio <= QUAD_RATIO:
                    failures.append(f"{outer} outer iterations, error ratio "
                                    f"{ratio:.3g}")
            elif (cfg.stop_violation is not None
                  and outcome.status != "Converged"):
                failures.append(f"ended {outcome.status}")
        result.failures = tuple(failures)
        result.incorrect = tuple(incorrect)
        return result


def conservation_breaks(trace) -> list:
    """Outer iterations whose gradient count differs from batch size times
    (1 + updates), the accounting rule of acceptance criterion 10; outer
    iterations cut short by the budget are exempt."""
    bad = []
    prev = trace[0].grad_evals_cum
    for rec in trace[1:]:
        if (rec.term_cause != "budget"
                and rec.grad_evals_cum - prev
                != rec.batch_size * (1 + rec.updates)):
            bad.append(rec.k)
        prev = rec.grad_evals_cum
    return bad
