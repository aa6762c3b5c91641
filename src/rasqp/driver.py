"""Outer loop of the retrospective-approximation solver: batch sizing,
inner-loop termination rules, dual initialization, budget enforcement,
and trace recording.

Both inner solvers run under one loop, `_inner_loop`, on one context type,
`sqp_eq.InnerContext`. The constraints are deterministic, and one context
carries an iterate's constraint values and Jacobians from `x_init` to the
last outer iteration, so only the true-problem metrics evaluate an iterate
twice. Each inner iteration is a progress probe, the
termination test, then an update. A solver supplies the probe,
`progress(ctx) -> (current, first, step, plan)` or None, and the update,
`update(ctx, step, plan) -> (new ctx, alpha)`. The probe returns its rule's
progress measure, the value the rule compares against when this is the
first inner iteration, and the step and merit plan (or None) the update
reuses; it returns None at a certified infeasible stationary point. The
update changes x only when alpha > 0. Either raises MeritCollapse or
LineSearchFailure to abandon the batch. The loop owns the budget check, the
first-iteration snapshot, the inner cap, the mapping of these outcomes to
`OuterRecord.term_cause`, and the iteration counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .counters import Counters
from .errors import ConfigError, LineSearchFailure, MeritCollapse, RankDeficient
from .ipm import kkt_residual
from .linalg import LbfgsModel, least_squares_dual
from .problems import (FiniteSum, ProblemSpec, _sums_over, draw_samples,
                       eval_constraints, eval_subsampled,
                       eval_subsampled_value, gradient_stats)
from .sqp_eq import (L1, LINF, TAU_BAR, Evaluator, InnerContext,
                     compute_step, inner_iteration, merit_plan,
                     violation_norms)
from .sqp_ineq import (detect_infeasible_stationary, direction_step,
                       feasibility_step, robust_inner_iteration, sigma_bounds)

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
    "robust_dnorm" (step norm of the robust solver). The kind also sets
    gamma.
    """
    kind: str = "kkt"
    eps: float = 1e-6

    def __post_init__(self):
        if not any(self.kind in kinds for kinds in RULES.values()):
            raise ConfigError(f"unknown termination kind {self.kind!r}")
        if self.eps < 0.0:
            raise ConfigError("eps must be >= 0")

    @property
    def gamma(self) -> float:
        """0.1 for "dl", 0.5 for the other kinds."""
        return 0.1 if self.kind == "dl" else 0.5


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
    exact: bool = True                 # equality solver: exact or inexact step
    norm: str = LINF                   # robust solver: "linf" | "l1"
    use_lbfgs: bool = False            # equality solver only
    # optional metric-threshold stopping (both must hold); None = budget only
    stop_violation: Optional[float] = None
    stop_stationarity: Optional[float] = None

    def __post_init__(self):
        if self.solver not in RULES:
            raise ConfigError(f"unknown solver {self.solver!r}")
        if self.termination.kind not in RULES[self.solver]:
            raise ConfigError(f"the {self.solver} solver cannot use the "
                              f"{self.termination.kind!r} termination rule")
        if self.solver == "robust" and self.use_lbfgs:
            raise ConfigError("the robust solver has no L-BFGS Hessian model")
        if self.dual_mode not in ("carryover", "reinit"):
            raise ConfigError(f"unknown dual mode {self.dual_mode!r}")
        if self.norm not in (LINF, L1):
            raise ConfigError(f"unknown norm mode {self.norm!r}")


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
        lam_ls, kkt_ls = least_squares_dual(J, g_S, c)
    except RankDeficient:
        return lam_prev
    kkt_prev = np.linalg.norm(np.concatenate([g_S + J.T @ lam_prev, c]))
    return lam_ls if kkt_ls <= kkt_prev else lam_prev


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
    fresh_set: np.ndarray
    value_sum: float
    gradient_sum: np.ndarray


def estimate_condition_inputs(problem: ProblemSpec, ctx: InnerContext,
                              prev_batch: np.ndarray, config: DriverConfig,
                              rng: np.random.Generator,
                              counters: Counters) -> ConditionEstimate:
    """Variance and progress estimates at the iterate ctx on a fresh sample
    set of the previous batch size, drawn independently of the iterate.

    The progress measure Z is the termination rule's, from the solver's
    progress probe, which performs no updates; Z is 0 where the probe finds
    no progress to make (merit collapse, or an infeasible stationary point).
    Per-sample gradient sums are retained so the fresh set can be folded
    into the next batch at no extra gradient cost.
    """
    if prev_batch.size < 1:
        raise ConfigError("previous batch is empty")
    fresh = draw_samples(problem, prev_batch.size, rng)
    vsum, gsum, sqsum = gradient_stats(problem, ctx.x, fresh, counters)
    m = fresh.size
    gbar = gsum / m
    variance = (0.0 if m == 1 else
                max(0.0, (sqsum - m * float(gbar @ gbar)) / (m - 1)))

    ctx = replace(ctx, F_S=vsum / m, g_S=gbar, tau_prev=TAU_BAR)
    try:
        probe = _PROGRESS[config.solver](ctx, config, counters)
    except MeritCollapse:
        probe = None
    Z = 0.0 if probe is None else max(probe[0], 0.0)

    return ConditionEstimate(variance=variance, Z=Z, fresh_set=fresh,
                             value_sum=vsum, gradient_sum=gsum)


def _eq_progress(ctx: InnerContext, config: DriverConfig,
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
    step = compute_step(ctx, config.exact, counters)
    dnorm = float(np.linalg.norm(step.d))
    if kind == "dnorm":
        return dnorm, dnorm, step, None
    plan = merit_plan(ctx, step)
    dl = plan[1]
    return dl, min(dl, KAPPA_D * dnorm * dnorm), step, plan


def _robust_progress(ctx: InnerContext, config: DriverConfig,
                     counters: Counters):
    """The robust rule's progress measure at ctx, in `_eq_progress`'s form:
    (||d||, ||d||, direction step, None) from the feasibility LP and the
    direction QP, or None, with no QP solved, when the LP certifies an
    infeasible stationary point."""
    mode = config.norm
    v_inf, v_l1 = violation_norms(ctx.c_E, ctx.c_I)
    violation = v_inf if mode == LINF else v_l1
    sigma_p, sigma_d = sigma_bounds(v_inf, v_l1, mode, ctx.x.size)
    feas = feasibility_step(ctx.c_E, ctx.c_I, ctx.J_E, ctx.J_I, sigma_p,
                            mode, counters=counters)
    if detect_infeasible_stationary(feas, violation):
        return None
    step = direction_step(ctx.g_S, ctx.c_E, ctx.c_I, ctx.J_E, ctx.J_I,
                          feas.relaxation, sigma_d, mode, violation,
                          feas.lp_objective, counters=counters)
    dnorm = float(np.linalg.norm(step.d))
    return dnorm, dnorm, step, None


_PROGRESS = {"equality": _eq_progress, "robust": _robust_progress}


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
        full = np.arange(problem.mode.dataset_size)
        _, g = eval_subsampled(problem, x, full, counters=None)
        return g, False
    rng = np.random.default_rng(987654321)
    S = draw_samples(problem, MC_METRIC_SAMPLES, rng)
    _, g = eval_subsampled(problem, x, S, counters=None)
    return g, True


def true_metrics(problem: ProblemSpec, x: np.ndarray, solver: str,
                 constraints: Optional[tuple] = None):
    """(violation_inf, stationarity, monte_carlo_flag) for the underlying
    problem: max-norm violation of (c_E, [c_I]_+), and either the best-dual
    Lagrangian gradient norm (equality) or the KKT residual (general).

    `constraints` is (c_E, c_I, J_E, J_I) at x when the caller holds them;
    otherwise they are evaluated here."""
    c_E, c_I, J_E, J_I = (eval_constraints(problem, x) if constraints is None
                          else constraints)
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
    if config.solver == "equality" and problem.m_I > 0:
        raise ConfigError("equality solver requires a problem with m_I = 0")
    cap = (problem.mode.dataset_size
           if isinstance(problem.mode, FiniteSum) else None)
    if config.sampling.kind == "full" and cap is None:
        raise ConfigError("full sampling requires a finite-sum problem")

    counters = Counters()
    x = np.asarray(problem.x_init, dtype=float).copy()
    # no batch yet: each outer iteration sets F_S and g_S on its batch
    ctx = InnerContext(
        x, np.zeros(problem.m_E), np.nan, np.full(problem.n, np.nan),
        *eval_constraints(problem, x), tau_prev=TAU_BAR,
        hessian=(LbfgsModel(dim=problem.n, capacity=min(problem.n, 10))
                 if config.use_lbfgs else None))

    trace = []

    def record(ctx, k, batch_size, est_size, inner_iters, updates,
               term_cause):
        v, s, mc = true_metrics(problem, ctx.x, config.solver,
                                (ctx.c_E, ctx.c_I, ctx.J_E, ctx.J_I))
        trace.append(OuterRecord(
            k=k, batch_size=batch_size, inner_iterations=inner_iters,
            updates=updates, estimation_size=est_size,
            violation_inf=v, stationarity=s,
            grad_evals_cum=counters.gradient_evals,
            minres_iters_cum=counters.minres_iters,
            barrier_iters_cum=counters.barrier_iters,
            tau_exit=ctx.tau_prev, term_cause=term_cause, metric_mc=mc,
            x=ctx.x.copy()))
        return v, s

    record(ctx, -1, 0, 0, 0, 0, "initial")

    prev_S: Optional[np.ndarray] = None
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
            estimate = estimate_condition_inputs(problem, ctx, prev_S,
                                                 config, rng, counters)
            size = adaptive_batch_size(prev_S.size, estimate.variance,
                                       estimate.Z, THETA, BETA_HAT, cap)
        else:
            size = geometric_batch_size(k, config.sampling, cap, prev_S.size)

        # the prefix goes by position: perfbench/layers.py reads a keyword
        # prefix with `or`, which an ndarray cannot answer
        S = draw_samples(problem, size, rng,
                         None if estimate is None else estimate.fresh_set)

        # subsampled objective at the warm-start point, reusing the sums
        # over the fresh set, which draw_samples kept as the prefix of S
        if estimate is not None:
            tail = S[estimate.fresh_set.size:]
            if tail.size:
                t_v, t_g = _sums_over(problem, ctx.x, tail, counters)
            else:
                t_v, t_g = 0.0, np.zeros(problem.n)
            F_S = (estimate.value_sum + t_v) / S.size
            g_S = (estimate.gradient_sum + t_g) / S.size
        else:
            F_S, g_S = eval_subsampled(problem, ctx.x, S, counters)

        est_size = 0 if estimate is None else estimate.fresh_set.size
        progress, update, ctx = _inner_solver(problem, S, config, ctx, F_S,
                                              g_S, counters)
        ctx, inner_iters, updates, term_cause = _inner_loop(
            progress, update, ctx, config.termination, budget, counters)
        v, s = record(ctx, k, S.size, est_size, inner_iters, updates,
                      term_cause)

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

    return SolveOutcome(status=status, x=ctx.x,
                        lam=ctx.lam if config.solver == "equality" else None,
                        trace=trace, counters=counters)


def _inner_loop(progress, update, ctx, rule: TerminationRule,
                budget: Budget, counters: Counters):
    """Probe, test and update (see the module docstring) from ctx until the
    rule fires, the probe finds an infeasible stationary point, a step
    raises, or the gradient budget or INNER_CAP is reached.

    Returns (ctx, inner iterations, updates, term_cause).
    """
    snapshot = None
    updates = 0
    for j in range(INNER_CAP):
        if counters.gradient_evals >= budget.max_gradient_evals:
            return ctx, j, updates, "budget"
        try:
            probe = progress(ctx)
            if probe is None:
                return ctx, j, updates, "infeasible_stationary"
            current, first, step, plan = probe
            if snapshot is None:
                snapshot = first
            if termination_check(rule, snapshot, current):
                return ctx, j, updates, "terminated"
            ctx, alpha = update(ctx, step, plan)
        except MeritCollapse:
            return ctx, j, updates, "merit_collapse"
        except LineSearchFailure:
            return ctx, j, updates, "line_search_failure"
        updates += alpha > 0.0
    return ctx, INNER_CAP, updates, "inner_cap"


def _inner_solver(problem: ProblemSpec, S: np.ndarray, config: DriverConfig,
                  ctx: InnerContext, F_S, g_S, counters: Counters):
    """(progress, update, start context) of the configured solver on the
    batch S, warm-started at the iterate ctx, whose subsampled objective on
    S is (F_S, g_S); the equality solver's duals are initialized here."""
    lam = ctx.lam

    # the evaluation functions are looked up at call time, so wrappers
    # installed on this module's names see every call
    evaluator = Evaluator(
        lambda xt: eval_subsampled_value(problem, xt, S, counters),
        lambda xt: eval_subsampled(problem, xt, S, counters),
        lambda xt: eval_constraints(problem, xt))

    if config.solver == "robust":
        def update(ctx, step, plan):
            return robust_inner_iteration(ctx, config.norm, evaluator, step)
    else:
        lam = dual_initialize(config.dual_mode, lam, g_S, ctx.c_E, ctx.J_E)

        def update(ctx, step, plan):
            ctx, _, alpha = inner_iteration(ctx, config.exact, evaluator,
                                            counters, step=step, plan=plan)
            return ctx, alpha

    def progress(ctx):
        return _PROGRESS[config.solver](ctx, config, counters)

    return progress, update, replace(ctx, lam=lam, F_S=F_S, g_S=g_S,
                                     tau_prev=TAU_BAR)
