"""Benchmark harness: problem registry, method table, run orchestration,
CSV trace emission, metrics, performance profiles, and active-set reports."""

from __future__ import annotations

import copy
import csv
import math
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Optional

import numpy as np

from .driver import (Budget, DriverConfig, SamplingRule, SolveOutcome,
                     TerminationRule, run)
from .errors import ConfigError
from .problems import (Dataset, ProblemSpec, Expectation, build_logreg_problem,
                       eval_constraints)
from .sqp_eq import violation_norms

EPS_TOL_GRID = (1e-1, 1e-2, 1e-3, 1e-4)

TRACE_COLUMNS = ("k", "batch_size", "inner_iters", "updates",
                 "estimation_size", "grad_evals_cum", "minres_iters_cum",
                 "barrier_iters_cum", "violation_inf", "stationarity",
                 "tau_exit", "term_cause", "metric_mc")


# ------------------------------------------------------------------
# problem registry
# ------------------------------------------------------------------

def make_synthetic_dataset(n_samples: int = 5000, n_features: int = 10,
                           n_classes: int = 3, data_seed: int = 0) -> Dataset:
    """Gaussian class clusters: class k has its mean shifted along feature k.
    n_features counts the appended constant bias feature."""
    rng = np.random.default_rng(data_seed)
    raw = n_features - 1
    labels = np.arange(n_samples) % n_classes
    V = rng.standard_normal((n_samples, raw))
    V[np.arange(n_samples), labels % raw] += 2.0
    return Dataset.from_dense(V, labels, n_classes)


def make_noisy_quadratic(n: int = 20, m: int = 5, noise: float = 0.01,
                         data_seed: int = 0) -> ProblemSpec:
    """Equality-constrained strongly convex quadratic whose sampled gradient
    is the true gradient scaled by (1 + xi), xi uniform on [-noise, noise]."""
    rng = np.random.default_rng(data_seed)
    A = rng.standard_normal((n, n))
    Q = A @ A.T / n + np.eye(n)
    J = rng.standard_normal((m, n))
    b = rng.standard_normal(m)

    def f(x):
        return 0.5 * float(x @ (Q @ x))

    def gf(x):
        return Q @ x

    def sampler(gen, count):
        return gen.uniform(-noise, noise, size=count)

    def sums(x, xi, order):
        w = 1.0 + xi
        total = float(np.sum(w))
        if order == 0:
            return (f(x) * total,)
        g = gf(x)
        if order == 1:
            return f(x) * total, g * total
        return f(x) * total, g * total, float(g @ g) * float(np.sum(w ** 2))

    return ProblemSpec(
        n=n, m_E=m, m_I=0, mode=Expectation(sampler), sums=sums,
        constraint_eval=lambda x: (J @ x - b, np.zeros(0)),
        jacobian_eval=lambda x: (J, np.zeros((0, n))),
        x_init=np.ones(n), true_value=f, true_gradient=gf,
        name="synth-eq-quad")


def make_infeasible_1d() -> ProblemSpec:
    """1-D problem whose two equality constraints x = 0 and x = 1 cannot be
    met; the constant objective makes every point penalty-stationary."""
    return ProblemSpec(
        n=1, m_E=2, m_I=0,
        mode=Expectation(lambda gen, count: np.zeros(count)),
        sums=lambda x, items, order: (0.0, np.zeros(1), 0.0)[:order + 1],
        constraint_eval=lambda x: (np.array([x[0], x[0] - 1.0]), np.zeros(0)),
        jacobian_eval=lambda x: (np.array([[1.0], [1.0]]), np.zeros((0, 1))),
        x_init=np.array([0.3]),
        true_value=lambda x: 0.0,
        true_gradient=lambda x: np.zeros(1),
        name="infeasible-1d")


def build_problem(name: str, data_seed: int = 0) -> ProblemSpec:
    if name == "synth-logreg-eq":
        return build_logreg_problem(make_synthetic_dataset(data_seed=data_seed),
                                    "equality")
    if name == "synth-logreg-ineq":
        return build_logreg_problem(make_synthetic_dataset(data_seed=data_seed),
                                    "inequality")
    if name == "synth-eq-quad":
        return make_noisy_quadratic(data_seed=data_seed)
    if name == "infeasible-1d":
        return make_infeasible_1d()
    raise ConfigError(f"unknown problem {name!r}")


PROBLEMS = ("synth-logreg-eq", "synth-logreg-ineq", "synth-eq-quad",
            "infeasible-1d")


# ------------------------------------------------------------------
# run configuration
# ------------------------------------------------------------------

@dataclass
class RunConfig:
    problem: str = "synth-logreg-eq"
    method: str = "ra-sqp-dl"
    seed: int = 0
    data_seed: int = 0
    sampling: str = "adaptive"          # adaptive | geometric (RA methods)
    initial_size: int = 32
    beta: float = 0.5
    max_gradient_evals: int = 10 ** 6
    max_outer: int = 10 ** 9
    stop_violation: Optional[float] = None
    stop_stationarity: Optional[float] = None
    output: Optional[str] = None


# method -> DriverConfig fields. "det-sqp" takes the solver the problem
# needs (solver None here) and the full batch, or a large fixed batch on an
# expectation problem, every outer iteration: no subsampling benefit.
METHODS = {
    "ra-sqp-kkt": dict(solver="equality", dual_mode="reinit",
                       termination=TerminationRule("kkt")),
    "ra-sqp-dnorm": dict(solver="equality",
                         termination=TerminationRule("dnorm")),
    "ra-sqp-dl": dict(solver="equality", termination=TerminationRule("dl")),
    "ra-sqp-dl-lbfgs": dict(solver="equality",
                            termination=TerminationRule("dl"),
                            use_lbfgs=True),
    "ra-sqp-dl-inexact": dict(solver="equality",
                              termination=TerminationRule("dl"),
                              exact=False),
    "ra-sqp-linf": dict(solver="robust",
                        termination=TerminationRule("robust_dnorm"),
                        norm="linf"),
    "ra-sqp-l1": dict(solver="robust",
                      termination=TerminationRule("robust_dnorm"),
                      norm="l1"),
    "det-sqp": dict(solver=None, dual_mode="reinit"),
}


def method_driver_config(method: str, problem: ProblemSpec,
                         config: RunConfig) -> DriverConfig:
    """Translate a method label into a driver configuration for a problem."""
    if method not in METHODS:
        raise ConfigError(f"unknown method {method!r}")
    fields = copy.deepcopy(METHODS[method])
    solver = fields.pop("solver") or ("robust" if problem.m_I > 0
                                      else "equality")
    if solver == "equality" and problem.m_I > 0:
        raise ConfigError(f"{method} requires a problem without inequalities")
    if solver == "robust" and problem.m_I == 0 and problem.m_E == 0:
        raise ConfigError(f"{method} requires a constrained problem")

    sampling = SamplingRule(kind=config.sampling,
                            initial_size=config.initial_size,
                            beta=config.beta)
    if method == "det-sqp":
        if isinstance(problem.mode, Expectation):
            sampling = SamplingRule(kind="fixed", initial_size=10 ** 4)
        else:
            sampling = SamplingRule(kind="full",
                                    initial_size=config.initial_size)
        # halve the inner metric per outer pass so progress is recorded (and
        # stop thresholds are checked) at a useful granularity
        fields["termination"] = TerminationRule(
            kind="kkt" if solver == "equality" else "robust_dnorm", eps=1e-12)
    return DriverConfig(solver=solver, sampling=sampling,
                        stop_violation=config.stop_violation,
                        stop_stationarity=config.stop_stationarity, **fields)


def run_config(config: RunConfig) -> SolveOutcome:
    problem = build_problem(config.problem, config.data_seed)
    driver_cfg = method_driver_config(config.method, problem, config)
    budget = Budget(max_gradient_evals=config.max_gradient_evals,
                    max_outer=config.max_outer)
    rng = np.random.default_rng(config.seed)
    return run(problem, driver_cfg, budget, rng)


# ------------------------------------------------------------------
# metrics and success rules
# ------------------------------------------------------------------

def success_test(metric_init: float, metric_out: float,
                 eps_tol: float) -> bool:
    """metric_out <= eps_tol * max(1, metric_init)."""
    if not 0.0 < eps_tol < 1.0:
        raise ConfigError("eps_tol must be in (0, 1)")
    return metric_out <= eps_tol * max(1.0, metric_init)


def success_record(trace, eps_tol: float):
    """First outer record where both feasibility and stationarity pass the
    success rule relative to the initial point; None if never."""
    init = trace[0]
    for rec in trace:
        if (success_test(init.violation_inf, rec.violation_inf, eps_tol)
                and success_test(init.stationarity, rec.stationarity,
                                 eps_tol)):
            return rec
    return None


def cost_to_success(trace, eps_tol: float,
                    metric: str = "grad_evals") -> Optional[int]:
    """Cost at the first successful outer exit: cumulative gradient
    evaluations or cumulative solver (MINRES + barrier) iterations."""
    rec = success_record(trace, eps_tol)
    if rec is None:
        return None
    if metric == "grad_evals":
        return max(rec.grad_evals_cum, 1)
    if metric == "solver_iters":
        return max(rec.minres_iters_cum + rec.barrier_iters_cum, 1)
    raise ConfigError(f"unknown profile metric {metric!r}")


# ------------------------------------------------------------------
# performance profiles
# ------------------------------------------------------------------

def performance_profile(costs: dict):
    """Dolan-More profile data.

    `costs` maps (instance, method) -> positive cost or None for failure.
    Returns (methods, instances, ratios) where ratios[method] is the list of
    per-instance cost ratios (math.inf for failures), aligned to instances.
    """
    instances = sorted({key[0] for key in costs})
    methods = sorted({key[1] for key in costs})
    ratios = {m: [] for m in methods}
    for inst in instances:
        vals = [costs.get((inst, m)) for m in methods]
        finite = [v for v in vals if v is not None]
        best = min(finite) if finite else None
        for m, v in zip(methods, vals):
            if v is None or best is None:
                ratios[m].append(math.inf)
            else:
                ratios[m].append(v / best)
    return methods, instances, ratios


def profile_curve(ratio_list, taus):
    """rho(tau) = fraction of instances with ratio <= tau."""
    n = len(ratio_list)
    return [sum(1 for r in ratio_list if r <= t) / n for t in taus]


# ------------------------------------------------------------------
# active sets
# ------------------------------------------------------------------

def active_set(problem: ProblemSpec, x: np.ndarray,
               tol: float = 1e-6) -> frozenset:
    _, c_I, _, _ = eval_constraints(problem, x)
    return frozenset(int(i) for i in np.where(c_I >= -tol)[0])


def jaccard(a: frozenset, b: frozenset) -> float:
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


def active_set_report(problem: ProblemSpec, xs, x_ref: np.ndarray,
                      tol: float = 1e-6):
    """Per-iterate (active set, Jaccard similarity to the reference active
    set, max-norm violation)."""
    ref = active_set(problem, x_ref, tol)
    report = []
    for x in xs:
        a = active_set(problem, x, tol)
        c_E, c_I, _, _ = eval_constraints(problem, x)
        report.append((a, jaccard(a, ref), violation_norms(c_E, c_I)[0]))
    return report


# ------------------------------------------------------------------
# CSV emission
# ------------------------------------------------------------------

def write_trace_csv(path: str, outcome: SolveOutcome):
    """One row per outer iteration plus the k = -1 initial row, with every
    scalar `OuterRecord` field (`metric_mc` as True/False). The first line
    is a timestamp comment excluded from determinism comparisons."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# generated {datetime.now(timezone.utc).isoformat()}\n")
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for rec in outcome.trace:
            writer.writerow([
                rec.k, rec.batch_size, rec.inner_iterations, rec.updates,
                rec.estimation_size, rec.grad_evals_cum,
                rec.minres_iters_cum, rec.barrier_iters_cum,
                f"{rec.violation_inf:.17g}", f"{rec.stationarity:.17g}",
                f"{rec.tau_exit:.17g}", rec.term_cause, rec.metric_mc])


def read_trace_csv(path: str):
    with open(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(lines))


RESULT_COLUMNS = ("problem", "method", "seed", "status", "grad_evals",
                  "violation_final", "stationarity_final") + tuple(
                      f"cost@{t:g}" for t in EPS_TOL_GRID) + tuple(
                      f"iters@{t:g}" for t in EPS_TOL_GRID)


def result_row(config: RunConfig, outcome: SolveOutcome):
    last = outcome.trace[-1]
    row = {
        "problem": config.problem,
        "method": config.method,
        "seed": config.seed,
        "status": outcome.status,
        "grad_evals": outcome.counters.gradient_evals,
        "violation_final": f"{last.violation_inf:.17g}",
        "stationarity_final": f"{last.stationarity:.17g}",
    }
    for t in EPS_TOL_GRID:
        cost = cost_to_success(outcome.trace, t, "grad_evals")
        row[f"cost@{t:g}"] = "" if cost is None else cost
        iters = cost_to_success(outcome.trace, t, "solver_iters")
        row[f"iters@{t:g}"] = "" if iters is None else iters
    return row


def write_results_csv(path: str, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=RESULT_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


# ------------------------------------------------------------------
# sweep orchestration
# ------------------------------------------------------------------

def _run_one(config: RunConfig):
    try:
        outcome = run_config(config)
        return config, result_row(config, outcome), outcome, None
    except Exception as exc:  # numerical failures recorded, harness continues
        return config, None, None, f"{type(exc).__name__}: {exc}"


def sweep(configs, workers: int = 1):
    """Run a list of RunConfigs, in a process pool of `workers` processes
    when more than one, collecting result rows serially."""
    results = []
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for cfg, row, outcome, err in pool.map(_run_one, configs):
                results.append((cfg, row, outcome, err))
    else:
        for cfg in configs:
            results.append(_run_one(cfg))
    return results
