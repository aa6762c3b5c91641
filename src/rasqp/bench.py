"""Benchmark harness: problem registry, method table, single runs, trace
CSVs and result rows, metrics, performance profiles, and active-set
reports."""

from __future__ import annotations

import csv
import dataclasses
import functools
import math
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Optional

import numpy as np

from .driver import DriverConfig, OuterRecord, Schedule, SolveOutcome, run
from .errors import ConfigError
from .problems import (Dataset, FiniteSum, ProblemSpec,
                       build_augmented_problem, build_expectation_problem,
                       build_logreg_problem, eval_constraints)
from .sqp_eq import LINF, violation

EPS_TOL_GRID = (1e-1, 1e-2, 1e-3, 1e-4)
ACTIVE_TOL = 1e-6    # an inequality with c_i >= -ACTIVE_TOL counts as active

# every OuterRecord field but the iterate x, in declaration order
TRACE_COLUMNS = tuple(f.name for f in dataclasses.fields(OuterRecord)
                      if f.name != "x")


# ------------------------------------------------------------------
# problem registry
# ------------------------------------------------------------------

def make_synthetic_dataset(n_samples: int = 5000, n_features: int = 10,
                           n_classes: int = 3, data_seed: int = 0) -> Dataset:
    """Gaussian class clusters: class k has its mean shifted along raw
    feature k mod (n_features - 1), so with more classes than raw features
    the classes share shifts. n_features counts the appended constant bias
    feature, and must be >= 2: one raw feature plus the bias.

    Memoized per argument value, however the call spells them: every call
    with the same values returns the same `Dataset`, whose arrays are
    read-only so that sharing it is safe."""
    if not n_features >= 2:
        raise ConfigError(f"n_features must be >= 2 (one raw feature plus "
                          f"the bias), got {n_features}")
    return _synthetic_dataset(n_samples, n_features, n_classes, data_seed)


@functools.lru_cache(maxsize=8)
def _synthetic_dataset(n_samples: int, n_features: int, n_classes: int,
                       data_seed: int) -> Dataset:
    rng = np.random.default_rng(data_seed)
    raw = n_features - 1
    labels = np.arange(n_samples) % n_classes
    V = rng.standard_normal((n_samples, raw))
    V[np.arange(n_samples), labels % raw] += 2.0
    ds = Dataset.from_dense(V, labels, n_classes)
    for arr in (ds.indptr, ds.indices, ds.data, ds.labels):
        arr.flags.writeable = False
    return ds


def make_noisy_quadratic(n: int = 20, m: int = 5, noise: float = 0.01,
                         data_seed: int = 0) -> ProblemSpec:
    """Equality-constrained strongly convex quadratic f(x) = x'Qx / 2
    under Jx = b: the `build_expectation_problem` instance with h = f, so
    F(x, xi) = (1 + xi) f(x), xi uniform on [-noise, noise].

    It has no sampling error: every subsampled problem is (1 + mean xi) f
    under the same constraints, whose minimizer is x* at every batch size.
    A run on it (acceptance criterion 8, the `quad-geometric` benchmark)
    measures batch growth and the fixed inner floor, not statistical
    error."""
    rng = np.random.default_rng(data_seed)
    A = rng.standard_normal((n, n))
    Q = A @ A.T / n + np.eye(n)
    J = rng.standard_normal((m, n))
    b = rng.standard_normal(m)

    def f(x):
        return 0.5 * float(x @ (Q @ x))

    def gf(x):
        return Q @ x

    return build_expectation_problem(
        f, gf, f, gf,
        lambda x: (J @ x - b, np.zeros(0), J, np.zeros((0, n))),
        m_E=m, m_I=0, x_init=np.ones(n), noise_level=noise)


# problem name -> builder of data_seed. The builders look the module's
# functions up at call time, so wrappers installed on these names see them.
PROBLEMS = {
    "synth-logreg-eq": lambda data_seed: build_logreg_problem(
        make_synthetic_dataset(data_seed=data_seed), "equality"),
    "synth-logreg-ineq": lambda data_seed: build_logreg_problem(
        make_synthetic_dataset(data_seed=data_seed), "inequality"),
    "synth-eq-quad": lambda data_seed: make_noisy_quadratic(
        data_seed=data_seed),
    # two equality constraints, x = 0 and x = 1, that cannot both hold; the
    # constant objective makes every point penalty-stationary
    "infeasible-1d": lambda data_seed: build_augmented_problem(
        lambda x: 0.0, lambda x: np.zeros(1),
        lambda x: (np.array([x[0], x[0] - 1.0]), np.zeros(0),
                   np.ones((2, 1)), np.zeros((0, 1))),
        m_E=2, m_I=0, x_init=np.array([0.3]), noise_level=0.0),
}


def build_problem(name: str, data_seed: int = 0) -> ProblemSpec:
    if name not in PROBLEMS:
        raise ConfigError(f"unknown problem {name!r}")
    return PROBLEMS[name](data_seed)


# ------------------------------------------------------------------
# run configuration
# ------------------------------------------------------------------

@dataclass(frozen=True)
class RunConfig(Schedule):
    """One benchmark solve: a registered problem and method, the solver
    and data seeds, and the run's `Schedule`, which its own checks cover,
    so that a sweep fails on a bad value before its first solve."""
    problem: str = "synth-logreg-eq"
    method: str = "ra-sqp-dl"
    seed: int = 0
    data_seed: int = 0

    def __post_init__(self):
        for name in ("seed", "data_seed"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            if value < 0:
                raise ConfigError(f"{name} must be non-negative, got {value}")
        super().__post_init__()


# method -> DriverConfig fields; the termination rule picks the solver.
# "det-sqp" takes the rule of the solver the problem needs and the whole
# dataset, or a large fixed batch on an expectation problem, every outer
# iteration: no subsampling benefit.
METHODS = {
    "ra-sqp-kkt": dict(termination="kkt"),
    "ra-sqp-dnorm": dict(termination="dnorm"),
    "ra-sqp-dl": dict(termination="dl"),
    "ra-sqp-dl-lbfgs": dict(termination="dl", use_lbfgs=True),
    "ra-sqp-dl-inexact": dict(termination="dl", exact=False),
    "ra-sqp-linf": dict(termination="robust_dnorm", norm="linf"),
    "ra-sqp-l1": dict(termination="robust_dnorm", norm="l1"),
    "det-sqp": dict(),
}


def method_driver_config(method: str, problem: ProblemSpec,
                         config: RunConfig) -> DriverConfig:
    """Translate a method label into a driver configuration for a problem:
    the run's shared fields, overridden by the method's entry."""
    if method not in METHODS:
        raise ConfigError(f"unknown method {method!r}")
    fields = {**{f.name: getattr(config, f.name)
                 for f in dataclasses.fields(Schedule)}, **METHODS[method]}
    if method == "det-sqp":
        fields.update(sampling="fixed", initial_size=(
            problem.mode.dataset_size if isinstance(problem.mode, FiniteSum)
            else 10 ** 4),
            termination="robust_dnorm" if problem.m_I > 0 else "kkt")
    return DriverConfig(**fields)


def run_config(config: RunConfig) -> SolveOutcome:
    problem = build_problem(config.problem, config.data_seed)
    return run(problem, method_driver_config(config.method, problem, config),
               np.random.default_rng(config.seed))


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

def active_set(problem: ProblemSpec, x: np.ndarray) -> frozenset:
    return _active(eval_constraints(problem, x)[1])


def _active(c_I: np.ndarray) -> frozenset:
    return frozenset(int(i) for i in np.where(c_I >= -ACTIVE_TOL)[0])


def jaccard(a: frozenset, b: frozenset) -> float:
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


def active_set_report(problem: ProblemSpec, xs, x_ref: np.ndarray):
    """Per-iterate (active set, Jaccard similarity to the reference active
    set, max-norm violation)."""
    ref = active_set(problem, x_ref)
    report = []
    for x in xs:
        c_E, c_I, _, _ = eval_constraints(problem, x)
        a = _active(c_I)
        report.append((a, jaccard(a, ref), violation(c_E, c_I, LINF)))
    return report


# ------------------------------------------------------------------
# CSV emission
# ------------------------------------------------------------------

def write_trace_csv(path: str, outcome: SolveOutcome):
    """One row per outer iteration plus the k = -1 initial row, holding the
    `OuterRecord` field named by each of `TRACE_COLUMNS` (floats as .17g).
    The first line is a timestamp comment excluded from determinism
    comparisons."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# generated {datetime.now(timezone.utc).isoformat()}\n")
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for rec in outcome.trace:
            row = [getattr(rec, name) for name in TRACE_COLUMNS]
            writer.writerow([f"{v:.17g}" if isinstance(v, float) else v
                             for v in row])


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
