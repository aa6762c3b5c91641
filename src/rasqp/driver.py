"""Outer loop of the retrospective-approximation solver: batch sizing,
inner-loop termination rules, dual initialization, budget enforcement,
and trace recording.

Both inner solvers run under one loop, `_inner_loop`. A solver supplies
`iterate(ctx, stop) -> (kind, ctx, moved)`, one inner iteration from the
context ctx. Before changing anything it calls `stop(current, first)` with
its rule's progress measure and the value the rule compares against when
this is the first inner iteration, and returns ("terminated", ctx, _) if
that returns True. Otherwise it returns ("updated", new_ctx, moved), moved
telling whether x changed, or ("infeasible_stationary", ctx, _). It raises
MeritCollapse or LineSearchFailure to abandon the batch. The loop owns the
budget check, the first-iteration snapshot, the inner cap, the mapping of
these outcomes to `OuterRecord.term_cause`, and the iteration counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .counters import Counters
from .errors import ConfigError, LineSearchFailure, MeritCollapse, RankDeficient
from .ipm import kkt_residual
from .linalg import LbfgsModel, least_squares_dual
from .problems import (FiniteSum, ProblemSpec, SampleSet, _sums_over,
                       draw_samples, eval_constraints, eval_subsampled,
                       eval_subsampled_value, gradient_stats)
from .sqp_eq import (TAU_BAR, EqInnerContext, EqSqpConfig, Evaluator,
                     compute_step, inner_iteration, merit_plan)
from .sqp_ineq import (RobustInnerContext, RobustSqpConfig, direction_step,
                       feasibility_step, robust_inner_iteration, sigma_bounds,
                       violation_norms)

INNER_CAP = 500                # inner iterations per outer iteration
KAPPA_D = 1e8                  # "dl" rule: snapshot <= KAPPA_D * ||d0||^2
THETA = 0.5                    # adaptive sampling: norm-test constant
BETA_HAT = 5.0                 # adaptive sampling: largest growth factor
MC_METRIC_SAMPLES = 10 ** 5    # Monte Carlo true-gradient surrogate size


# ------------------------------------------------------------------
# configuration types
# ------------------------------------------------------------------

# inner-loop progress rules each solver accepts
RULES = {"equality": ("kkt", "dnorm", "dl"), "robust": ("robust_dnorm",)}


@dataclass
class TerminationRule:
    """Inner-loop stopping test: current <= gamma * snapshot0 + eps, where
    snapshot0 is the rule's metric at the first inner iteration.

    kind selects the metric: "kkt" (KKT error norm), "dnorm" (step norm),
    "dl" (merit model decrease, snapshot clipped at KAPPA_D * ||d0||^2),
    "robust_dnorm" (step norm of the robust solver).
    """
    kind: str = "kkt"
    gamma: float = 0.5
    eps: float = 1e-6

    def __post_init__(self):
        if not any(self.kind in kinds for kinds in RULES.values()):
            raise ConfigError(f"unknown termination kind {self.kind!r}")
        if not 0.0 <= self.gamma < 1.0:
            raise ConfigError("gamma must be in [0, 1)")
        if self.eps < 0.0:
            raise ConfigError("eps must be >= 0")


def default_termination(kind: str) -> TerminationRule:
    gamma = 0.1 if kind == "dl" else 0.5
    return TerminationRule(kind=kind, gamma=gamma)


@dataclass
class SamplingRule:
    """Batch-size schedule: "adaptive" (variance-based norm test with
    growth factor BETA_HAT), "geometric" (fixed-rate growth: the finite-sum
    gap to the full dataset shrinks by beta per outer iteration, and an
    expectation batch grows by 1 / beta^2), "full" (whole dataset every
    outer iteration), or "fixed" (initial_size every outer iteration)."""
    kind: str = "adaptive"
    initial_size: int = 32
    beta: float = 0.5

    def __post_init__(self):
        if self.kind not in ("adaptive", "geometric", "full", "fixed"):
            raise ConfigError(f"unknown sampling kind {self.kind!r}")
        if not 0.0 < self.beta < 1.0:
            raise ConfigError("beta must be in (0, 1)")
        if self.initial_size < 1:
            raise ConfigError("initial_size must be >= 1")


@dataclass
class Budget:
    """Stopping budgets for `run`; a soft limit on gradient evaluations.

    `max_gradient_evals` is checked before each outer iteration's sampling
    and before each inner iteration, never inside them. The sampling of an
    outer iteration with batch S and each of its inner iterations spend at
    most |S| gradient evaluations, so a run that ends on this budget
    overshoots it by less than the `batch_size` of its last outer record.
    `max_outer` is checked before each outer iteration only.
    """
    max_gradient_evals: int = 10 ** 6
    max_outer: int = 10 ** 9


@dataclass
class DriverConfig:
    solver: str = "equality"           # "equality" | "robust"
    termination: TerminationRule = field(default_factory=TerminationRule)
    sampling: SamplingRule = field(default_factory=SamplingRule)
    dual_mode: str = "carryover"       # "carryover" | "reinit"
    eq: EqSqpConfig = field(default_factory=EqSqpConfig)
    robust: RobustSqpConfig = field(default_factory=RobustSqpConfig)
    use_lbfgs: bool = False
    # optional metric-threshold stopping (both must hold); None = budget only
    stop_violation: Optional[float] = None
    stop_stationarity: Optional[float] = None

    def __post_init__(self):
        if self.dual_mode not in ("carryover", "reinit"):
            raise ConfigError(f"unknown dual mode {self.dual_mode!r}")


@dataclass
class OuterRecord:
    k: int
    batch_size: int
    inner_iterations: int
    updates: int                      # inner iterations that moved x
    estimation_size: int              # fresh-set size used for batch sizing
    violation_inf: float
    stationarity: float
    grad_evals_cum: int
    minres_iters_cum: int
    barrier_iters_cum: int
    tau_exit: float
    term_cause: str
    metric_mc: bool = False
    x: Optional[np.ndarray] = None    # iterate at the outer exit (not in CSV)


@dataclass
class SolveOutcome:
    status: str                       # Converged | InfeasibleStationary | BudgetExhausted
    x: np.ndarray
    lam: Optional[np.ndarray]
    trace: list
    counters: Counters


# ------------------------------------------------------------------
# building blocks
# ------------------------------------------------------------------

def dual_initialize(mode: str, lam_prev: np.ndarray, g_S: np.ndarray,
                    c: np.ndarray, J: np.ndarray) -> np.ndarray:
    """Dual warm start for an outer iteration.

    "carryover" keeps lam_prev. "reinit" computes the least-squares
    multipliers and keeps them only if they give a KKT error no worse than
    lam_prev; a rank-deficient Jacobian falls back to carryover.
    """
    if mode == "carryover":
        return lam_prev
    if mode != "reinit":
        raise ConfigError(f"unknown dual mode {mode!r}")
    try:
        lam_ls, _ = least_squares_dual(J, g_S)
    except RankDeficient:
        return lam_prev

    def kkt_norm(lam):
        return np.linalg.norm(np.concatenate([g_S + J.T @ lam, c]))

    return lam_ls if kkt_norm(lam_ls) <= kkt_norm(lam_prev) else lam_prev


def termination_check(rule: TerminationRule, snapshot0: float,
                      current: float) -> bool:
    return current <= rule.gamma * snapshot0 + rule.eps


def adaptive_batch_size(prev_size: int, variance_est: float, Z_est: float,
                        theta: float, beta_hat: float,
                        dataset_cap: Optional[int]) -> int:
    """min{cap, beta_hat * prev, max{prev, ceil(var / (theta Z)^2)}} with the
    variance term treated as infinite when Z vanishes and as prev when the
    variance vanishes."""
    if variance_est <= 0.0:
        candidate = prev_size
    elif Z_est <= 0.0:
        candidate = math.inf
    else:
        candidate = math.ceil(variance_est / (theta * theta * Z_est * Z_est))
    size = max(prev_size, candidate)
    size = min(size, math.ceil(beta_hat * prev_size))
    if dataset_cap is not None:
        size = min(size, dataset_cap)
    return int(size)


def geometric_batch_size(k: int, rule: SamplingRule,
                         dataset_cap: Optional[int],
                         prev_size: Optional[int] = None) -> int:
    """Finite-sum: ceil((1 - beta^k) |S|); expectation: grow the previous
    size by 1 / beta^2. Clipped to [1, cap] and non-decreasing."""
    if dataset_cap is not None:
        size = math.ceil((1.0 - rule.beta ** k) * dataset_cap)
        size = min(max(size, 1), dataset_cap)
    else:
        if k == 0 or prev_size is None:
            size = rule.initial_size
        else:
            size = math.ceil(prev_size / (rule.beta ** 2))
    if prev_size is not None:
        size = max(size, prev_size)
    return int(size)


@dataclass
class ConditionEstimate:
    variance: float
    Z: float
    fresh_set: SampleSet
    value_sum: float
    gradient_sum: np.ndarray
    degenerate: bool = False


def estimate_condition_inputs(problem: ProblemSpec, x: np.ndarray,
                              lam: np.ndarray, prev_batch: SampleSet,
                              config: DriverConfig,
                              hessian: Optional[LbfgsModel],
                              rng: np.random.Generator,
                              counters: Counters) -> ConditionEstimate:
    """Variance and progress estimates on a fresh sample set of the previous
    batch size, drawn independently of the current iterate.

    The progress measure Z matches the termination rule: the KKT error norm
    directly, or the step norm / model decrease from one probe step solve
    that performs no updates. Per-sample gradient sums are retained so the
    fresh set can be folded into the next batch at no extra gradient cost.
    """
    if prev_batch.size < 1:
        raise ConfigError("previous batch is empty")
    fresh = draw_samples(problem, prev_batch.size, rng)
    vsum, gsum, sqsum = gradient_stats(problem, x, fresh.items, counters)
    m = fresh.size
    gbar = gsum / m
    if m == 1:
        variance, degenerate = 0.0, True
    else:
        variance = max(0.0, (sqsum - m * float(gbar @ gbar)) / (m - 1))
        degenerate = False

    c_E, c_I, J_E, J_I = eval_constraints(problem, x)
    if config.solver == "equality":
        ctx = EqInnerContext(x=x, lam=lam, F_S=vsum / m, g_S=gbar, c=c_E,
                             J=J_E, tau_prev=TAU_BAR, hessian=hessian)
        try:
            Z = max(_eq_progress(ctx, config, counters)[0], 0.0)
        except MeritCollapse:
            Z = 0.0
    else:
        v_inf, v_l1 = violation_norms(c_E, c_I)
        mode = config.robust.mode
        violation = v_inf if mode == "linf" else v_l1
        sigma_p, sigma_d = sigma_bounds(v_inf, v_l1, mode, x.size)
        feas = feasibility_step(c_E, c_I, J_E, J_I, sigma_p, mode,
                                counters=counters)
        H = None if hessian is None else hessian.as_matrix()
        step = direction_step(gbar, H, c_E, c_I, J_E, J_I, feas.relaxation,
                              sigma_d, mode, violation, feas.lp_objective,
                              counters=counters)
        Z = float(np.linalg.norm(step.d))

    return ConditionEstimate(variance=variance, Z=Z, fresh_set=fresh,
                             value_sum=vsum, gradient_sum=gsum,
                             degenerate=degenerate)


def _eq_progress(ctx: EqInnerContext, config: DriverConfig,
                 counters: Counters):
    """The equality rule's progress measure at ctx: (current value, value
    to snapshot at the first inner iteration, KKT step or None, merit plan
    (tau, model decrease) or None). The step is solved here only when the
    measure needs it, and the plan only for "dl", which raises MeritCollapse
    when the merit parameter would collapse; the inner iteration reuses
    both."""
    kind = config.termination.kind
    if kind == "kkt":
        current = float(np.linalg.norm(ctx.kkt_vector()))
        return current, current, None, None
    step = compute_step(ctx, config.eq, counters)
    dnorm = float(np.linalg.norm(step.d))
    if kind == "dnorm":
        return dnorm, dnorm, step, None
    plan = merit_plan(ctx, step)
    dl = plan[1]
    return dl, min(dl, KAPPA_D * dnorm * dnorm), step, plan


# ------------------------------------------------------------------
# true-problem metrics
# ------------------------------------------------------------------

def true_gradient_at(problem: ProblemSpec, x: np.ndarray) -> tuple:
    """Gradient of the underlying objective at x, outside any budget: the
    analytic gradient when known, the full-dataset average for finite sums,
    or a fixed-seed Monte Carlo surrogate (flagged) otherwise."""
    if problem.true_gradient is not None:
        return problem.true_gradient(x), False
    if isinstance(problem.mode, FiniteSum):
        full = SampleSet(np.arange(problem.mode.dataset_size))
        _, g = eval_subsampled(problem, x, full, counters=None)
        return g, False
    rng = np.random.default_rng(987654321)
    S = draw_samples(problem, MC_METRIC_SAMPLES, rng)
    _, g = eval_subsampled(problem, x, S, counters=None)
    return g, True


def true_metrics(problem: ProblemSpec, x: np.ndarray, solver: str):
    """(violation_inf, stationarity, monte_carlo_flag) for the underlying
    problem: max-norm violation of (c_E, [c_I]_+), and either the best-dual
    Lagrangian gradient norm (equality) or the KKT residual (general)."""
    c_E, c_I, J_E, J_I = eval_constraints(problem, x)
    v_inf, _ = violation_norms(c_E, c_I)
    g, mc = true_gradient_at(problem, x)
    if solver == "equality":
        if problem.m_E == 0:
            stat = float(np.linalg.norm(g, np.inf))
        else:
            lam = np.linalg.lstsq(J_E.T, -g, rcond=None)[0]
            stat = float(np.linalg.norm(g + J_E.T @ lam, np.inf))
    else:
        stat = kkt_residual(x, g, c_I, J_E, J_I, counters=None)
    return v_inf, stat, mc


# ------------------------------------------------------------------
# the outer loop
# ------------------------------------------------------------------

def run(problem: ProblemSpec, config: DriverConfig, budget: Budget,
        rng: np.random.Generator) -> SolveOutcome:
    """Retrospective-approximation outer loop.

    Each outer iteration draws a (non-decreasing) batch, warm-starts the
    inner solver from the previous solution, runs it until the termination
    rule fires or a cap is hit, and records true-problem metrics. Gradient
    evaluations on subsampled problems are budgeted; metric evaluations are
    not.
    """
    if config.solver not in RULES:
        raise ConfigError(f"unknown solver {config.solver!r}")
    if config.termination.kind not in RULES[config.solver]:
        raise ConfigError(f"the {config.solver} solver cannot use the "
                          f"{config.termination.kind!r} termination rule")
    if config.solver == "equality" and problem.m_I > 0:
        raise ConfigError("equality solver requires a problem with m_I = 0")
    cap = (problem.mode.dataset_size
           if isinstance(problem.mode, FiniteSum) else None)
    if config.sampling.kind == "full" and cap is None:
        raise ConfigError("full sampling requires a finite-sum problem")

    counters = Counters()
    x = np.asarray(problem.x_init, dtype=float).copy()
    lam = np.zeros(problem.m_E)
    hessian = (LbfgsModel(dim=problem.n, capacity=min(problem.n, 10))
               if config.use_lbfgs else None)

    trace = []
    v0, s0, mc0 = true_metrics(problem, x, config.solver)
    trace.append(OuterRecord(
        k=-1, batch_size=0, inner_iterations=0, updates=0, estimation_size=0,
        violation_inf=v0, stationarity=s0,
        grad_evals_cum=counters.gradient_evals,
        minres_iters_cum=counters.minres_iters,
        barrier_iters_cum=counters.barrier_iters,
        tau_exit=TAU_BAR, term_cause="initial", metric_mc=mc0,
        x=x.copy()))

    prev_S: Optional[SampleSet] = None
    k = 0
    while True:
        if (counters.gradient_evals >= budget.max_gradient_evals
                or k >= budget.max_outer):
            status = "BudgetExhausted"
            break

        # batch sizing
        estimate = None
        if config.sampling.kind == "full":
            size = cap
        elif config.sampling.kind == "fixed" or prev_S is None:
            size = config.sampling.initial_size
            if cap is not None:
                size = min(size, cap)
        elif config.sampling.kind == "adaptive":
            estimate = estimate_condition_inputs(problem, x, lam, prev_S,
                                                 config, hessian, rng,
                                                 counters)
            size = adaptive_batch_size(prev_S.size, estimate.variance,
                                       estimate.Z, THETA, BETA_HAT, cap)
        else:
            size = geometric_batch_size(k, config.sampling, cap, prev_S.size)

        S = draw_samples(problem, size, rng,
                         superset_of=None if estimate is None
                         else estimate.fresh_set)

        # subsampled objective at the warm-start point, reusing the sums
        # over the fresh set, which draw_samples kept as the prefix of S
        if estimate is not None:
            tail = S.items[estimate.fresh_set.size:]
            if tail.size:
                t_v, t_g = _sums_over(problem, x, tail)
                counters.gradient_evals += tail.size
                counters.function_evals += tail.size
            else:
                t_v, t_g = 0.0, np.zeros(problem.n)
            F_S = (estimate.value_sum + t_v) / S.size
            g_S = (estimate.gradient_sum + t_g) / S.size
        else:
            F_S, g_S = eval_subsampled(problem, x, S, counters)

        est_size = 0 if estimate is None else estimate.fresh_set.size
        iterate, ctx = _inner_solver(problem, S, config, x, lam, F_S, g_S,
                                     hessian, counters)
        ctx, inner_iters, updates, term_cause = _inner_loop(
            iterate, ctx, config.termination, budget, counters)
        x, hessian = ctx.x, ctx.hessian
        if config.solver == "equality":
            lam = ctx.lam

        v, s, mc = true_metrics(problem, x, config.solver)
        trace.append(OuterRecord(
            k=k, batch_size=S.size, inner_iterations=inner_iters,
            updates=updates, estimation_size=est_size,
            violation_inf=v, stationarity=s,
            grad_evals_cum=counters.gradient_evals,
            minres_iters_cum=counters.minres_iters,
            barrier_iters_cum=counters.barrier_iters,
            tau_exit=ctx.tau_prev, term_cause=term_cause, metric_mc=mc,
            x=x.copy()))

        if term_cause == "infeasible_stationary":
            status = "InfeasibleStationary"
            break
        if (config.stop_violation is not None
                and config.stop_stationarity is not None
                and v <= config.stop_violation
                and s <= config.stop_stationarity):
            status = "Converged"
            break

        prev_S = S
        k += 1

    return SolveOutcome(status=status, x=x,
                        lam=lam if config.solver == "equality" else None,
                        trace=trace, counters=counters)


def _inner_loop(iterate, ctx, rule: TerminationRule, budget: Budget,
                counters: Counters):
    """Run `iterate` (see the module docstring) from ctx until it stops,
    raises, or the gradient budget or INNER_CAP is reached.

    Returns (ctx, inner iterations, updates, term_cause).
    """
    snapshot = None

    def stop(current, first):
        nonlocal snapshot
        if snapshot is None:
            snapshot = first
        return termination_check(rule, snapshot, current)

    updates = 0
    for j in range(INNER_CAP):
        if counters.gradient_evals >= budget.max_gradient_evals:
            return ctx, j, updates, "budget"
        try:
            kind, ctx, moved = iterate(ctx, stop)
        except MeritCollapse:
            return ctx, j, updates, "merit_collapse"
        except LineSearchFailure:
            return ctx, j, updates, "line_search_failure"
        if kind != "updated":
            return ctx, j, updates, kind
        updates += moved
    return ctx, INNER_CAP, updates, "inner_cap"


def _inner_solver(problem: ProblemSpec, S: SampleSet, config: DriverConfig,
                  x, lam, F_S, g_S, hessian, counters: Counters):
    """(iterate, start context) of the configured solver on the batch S,
    warm-started at x; the equality solver's duals are initialized here."""
    c_E, c_I, J_E, J_I = eval_constraints(problem, x)

    # the evaluation functions are looked up at call time, so wrappers
    # installed on this module's names see every call
    evaluator = Evaluator(
        lambda xt: eval_subsampled_value(problem, xt, S, counters),
        lambda xt: eval_subsampled(problem, xt, S, counters),
        lambda xt: eval_constraints(problem, xt))

    if config.solver == "robust":
        def iterate(ctx, stop):
            out = robust_inner_iteration(ctx, config.robust, evaluator,
                                         lambda dnorm: stop(dnorm, dnorm),
                                         counters)
            return out.kind, out.ctx, True
        return iterate, RobustInnerContext(
            x=x, F_S=F_S, g_S=g_S, c_E=c_E, c_I=c_I, J_E=J_E, J_I=J_I,
            tau_prev=TAU_BAR, hessian=hessian)

    def iterate(ctx, stop):
        current, first, step, plan = _eq_progress(ctx, config, counters)
        if stop(current, first):
            return "terminated", ctx, False
        ctx, _, alpha = inner_iteration(ctx, config.eq, evaluator, counters,
                                        step=step, plan=plan)
        return "updated", ctx, alpha > 0.0

    lam = dual_initialize(config.dual_mode, lam, g_S, c_E, J_E)
    return iterate, EqInnerContext(x=x, lam=lam, F_S=F_S, g_S=g_S, c=c_E,
                                   J=J_E, tau_prev=TAU_BAR, hessian=hessian)
