"""Outer loop of the retrospective-approximation solver: batch sizing,
inner-loop termination rules, the dual warm start, budget enforcement,
and trace recording. One flat, frozen `DriverConfig` sets a run: its
inner stopping rule, batch schedule, budgets and solver settings; the
schedule, budgets and stops are a `Schedule`, which `bench.RunConfig`
shares.

Both inner solvers run under one loop, `_inner_loop`, on one context type,
`sqp_eq.InnerContext`. The constraints are deterministic, and one context
carries an iterate's constraint values and Jacobians from `x_init` to the
last outer iteration, with what is computed from them alone (the
feasibility LP, the true-problem metrics) in its `store`. Each inner
iteration is a progress probe, the termination test, then the update both
solvers share, `sqp_eq.inner_iteration(ctx, step, evaluator, config,
counters) -> (new ctx, alpha)`. A solver is its `_INNER` probe,
`probe(ctx, config, counters) -> (current, first, step)`, which reads its
own settings from the config and returns its rule's progress measure, the
value the rule compares against when this is the first inner iteration,
and the `sqp_eq.Step` the update takes, or None for the equality KKT step
the update solves itself. An update with alpha 0 cannot move x and ends
the loop, so every inner iteration counted moved x. Either raises
MeritCollapse or LineSearchFailure to abandon the batch, or
InfeasibleStationary (a MeritCollapse), where `sqp_eq.keeps_violation`
certifies an infeasible stationary point, to end the run. `run` builds
each batch's `Evaluator` and warm-started context; on a finite sum's
whole data set it hands `_inner_loop` the run's stop test, which the loop
applies after each update, and which never holds with no stop thresholds
set. The loop owns the budget check, the first-iteration snapshot, the
stop test, the inner cap, the mapping of these outcomes to
`OuterRecord.term_cause`, and the iteration count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .counters import Counters
from .errors import (ConfigError, InfeasibleStationary, LineSearchFailure,
                     MeritCollapse)
from .ipm import kkt_residual
from .linalg import LbfgsModel, least_squares_dual, norm
from .problems import (FiniteSum, ProblemSpec, _sums_over, after_prefix,
                       draw_samples, eval_constraints, eval_subsampled,
                       eval_subsampled_value, gradient_stats)
from .sqp_eq import (L1, LINF, TAU_BAR, Evaluator, InnerContext, Step,
                     compute_step, inner_iteration, keeps_violation,
                     merit_plan, violation)
from .sqp_ineq import direction_step, feasibility_step, sigma_bounds

INNER_CAP = 500                # inner iterations per outer iteration
MAX_BATCH = 2 ** 24            # largest expectation batch (bounds drawing time)
KAPPA_D = 1e8                  # "dl" rule: snapshot <= KAPPA_D * ||d0||^2
THETA = 0.5                    # adaptive sampling: norm-test constant
BETA_HAT = 5.0                 # adaptive sampling: largest growth factor
INNER_FLOOR = 1e-6             # inner stopping floor on a growing batch


# ------------------------------------------------------------------
# run configuration
# ------------------------------------------------------------------

# termination kind -> the solver whose progress measure it is
SOLVERS = {"kkt": "equality", "dnorm": "equality", "dl": "equality",
           "robust_dnorm": "robust"}


@dataclass(frozen=True, kw_only=True)
class Schedule:
    """The batch schedule, budgets and stops of a run, each checked when
    the config is built; `DriverConfig` and `bench.RunConfig` both hold
    them.

    Batch schedule: `sampling` is "adaptive" (variance-based norm test
    with growth factor BETA_HAT), "geometric" (fixed-rate growth: the
    finite-sum gap to the full dataset shrinks by beta per outer
    iteration, and an expectation batch grows by 1 / beta^2), or "fixed"
    (initial_size every outer iteration, clipped to a finite sum's dataset
    size). Outer iteration 0 takes initial_size.

    Budgets, a soft limit on gradient evaluations: `max_gradient_evals` is
    checked before each outer iteration's sampling and before each inner
    iteration, never inside them. The sampling of an outer iteration with
    batch S and each of its inner iterations spend at most |S| gradient
    evaluations, so a run that ends on this budget overshoots it by less
    than the `batch_size` of its last outer record. `max_outer` is checked
    before each outer iteration only.
    """
    sampling: str = "adaptive"
    initial_size: int = 32
    beta: float = 0.5
    max_gradient_evals: int = 10 ** 6
    max_outer: int = 10 ** 9
    # optional metric-threshold stopping: both set, and both must hold, or
    # neither set, which stops on the budget only; tested at each outer exit
    # and, on a finite sum's whole data set, after each inner update
    stop_violation: Optional[float] = None
    stop_stationarity: Optional[float] = None

    def __post_init__(self):
        if self.sampling not in ("adaptive", "geometric", "fixed"):
            raise ConfigError(f"unknown sampling kind {self.sampling!r}")
        if not 0.0 < self.beta < 1.0:
            raise ConfigError("beta must be in (0, 1)")
        if not isinstance(self.initial_size, (int, np.integer)):
            raise ConfigError(f"initial_size must be an integer, got "
                              f"{self.initial_size!r}")
        if not self.initial_size >= 1:
            raise ConfigError("initial_size must be >= 1")
        for name in ("max_gradient_evals", "max_outer"):
            if not getattr(self, name) >= 0:
                raise ConfigError(f"{name} must be non-negative, got "
                                  f"{getattr(self, name)}")
        if (self.stop_violation is None) != (self.stop_stationarity is None):
            raise ConfigError("stop_violation and stop_stationarity are set "
                              "together or not at all")
        for name in ("stop_violation", "stop_stationarity"):
            value = getattr(self, name)
            if value is not None and not value >= 0.0:
                raise ConfigError(f"{name} must be >= 0, got {value}")


@dataclass(frozen=True)
class DriverConfig(Schedule):
    """The settable configuration of `run`: the inner stopping rule and
    the solver settings here, and the `Schedule`, each checked when the
    config is built.

    Inner stopping rule: current <= gamma * snapshot0 + eps, where
    snapshot0 is the rule's metric at the first inner iteration and eps
    follows from the batch schedule and the stop (`termination_check`).
    `termination` selects the metric: "kkt" (KKT error norm), "dnorm" (step
    norm), "dl" (merit model decrease, snapshot clipped at
    KAPPA_D * ||d0||^2), "robust_dnorm" (step norm of the robust solver).
    It also sets gamma and the solver (`SOLVERS`).
    """
    termination: str = "kkt"
    exact: bool = True                 # equality solver: exact or inexact step
    norm: str = LINF                   # robust solver: "linf" | "l1"
    use_lbfgs: bool = False            # equality solver only

    def __post_init__(self):
        if self.termination not in SOLVERS:
            raise ConfigError(f"unknown termination kind {self.termination!r}")
        super().__post_init__()
        if self.norm not in (LINF, L1):
            raise ConfigError(f"unknown norm mode {self.norm!r}")
        # a setting the solver never reads is refused, not ignored
        if self.solver == "robust" and self.use_lbfgs:
            raise ConfigError("the robust solver has no L-BFGS Hessian model")
        if self.solver == "robust" and not self.exact:
            raise ConfigError("the robust solver has no inexact KKT step")
        if self.solver == "equality" and self.norm != LINF:
            raise ConfigError("the equality solver has no norm mode: its "
                              "merit is always the l1 norm")

    @property
    def solver(self) -> str:
        """"equality" or "robust": the solver the termination rule's
        progress measure belongs to."""
        return SOLVERS[self.termination]

    @property
    def gamma(self) -> float:
        """0.1 for "dl", 0.5 for the other termination kinds."""
        return 0.1 if self.termination == "dl" else 0.5


@dataclass
class OuterRecord:
    k: int
    batch_size: int
    inner_iters: int                  # inner iterations, each moved x
    updates: int                      # = inner_iters
    estimation_size: int              # fresh-set size used for batch sizing
    grad_evals_cum: int
    minres_iters_cum: int
    barrier_iters_cum: int
    violation_inf: float
    stationarity: float
    tau_exit: float
    term_cause: str
    x: Optional[np.ndarray] = None    # iterate at the outer exit (not in CSV)


@dataclass
class SolveOutcome:
    # Converged | InfeasibleStationary | BudgetExhausted | BatchLimit |
    # Stalled (an outer on a finite sum's whole data set made no update)
    status: str
    x: np.ndarray
    # equality solver: its duals; robust solver: the KKT-residual LP's
    # multipliers at x, equality constraints first
    lam: np.ndarray
    trace: list
    counters: Counters


# ------------------------------------------------------------------
# building blocks
# ------------------------------------------------------------------

def termination_check(config: DriverConfig, snapshot0: float,
                      current: float, stop_tested: bool = False) -> bool:
    """current <= gamma * snapshot0 + eps, with eps = INNER_FLOOR while
    the batch grows, since the next batch's sampling error swamps a more
    accurate solve, and eps = 0 under fixed sampling, whose problem never
    changes, and on a finite sum's whole data set (`stop_tested`), the
    true problem, which is solved to the run's stop, not to a floor."""
    eps = 0.0 if config.sampling == "fixed" or stop_tested else INNER_FLOOR
    return current <= config.gamma * snapshot0 + eps


def adaptive_batch_size(prev_size: int, variance_est: float, Z_est: float,
                        dataset_cap: Optional[int]) -> int:
    """min{cap, ceil(min{BETA_HAT * prev, max{prev, var / (THETA Z)^2}})}
    with the variance term treated as infinite when (THETA Z)^2 vanishes,
    as it does for a Z = 0 or a positive Z below about 1e-154, and as prev
    when the variance vanishes."""
    denominator = THETA * THETA * Z_est * Z_est
    if variance_est <= 0.0:
        candidate = prev_size
    elif Z_est <= 0.0 or denominator == 0.0:
        candidate = math.inf
    else:
        candidate = variance_est / denominator
    size = math.ceil(min(max(prev_size, candidate), BETA_HAT * prev_size))
    if dataset_cap is not None:
        size = min(size, dataset_cap)
    return int(size)


def geometric_batch_size(k: int, beta: float, dataset_cap: Optional[int],
                         prev_size: int) -> int:
    """Batch size of outer iteration k >= 1 after a batch of prev_size >= 1
    (outer 0 takes `initial_size`). Finite-sum: ceil((1 - beta^k) |S|),
    at most |S| as the factor rounds to <= 1; expectation: grow the
    previous size by 1 / beta^2. Never below prev_size."""
    if dataset_cap is not None:
        size = math.ceil((1.0 - beta ** k) * dataset_cap)
    else:
        size = math.ceil(prev_size / (beta ** 2))
    return int(max(size, prev_size))


def estimate_condition_inputs(problem: ProblemSpec, ctx: InnerContext,
                              prev_size: int, config: DriverConfig,
                              rng: np.random.Generator,
                              counters: Counters):
    """(variance, Z, fresh, value_sum, gradient_sum): the variance and
    progress estimates at the iterate ctx on a fresh sample set of
    prev_size, the previous batch size, drawn independently of the
    iterate, with that set and the sums of its values and gradients.

    The progress measure Z is the termination rule's, from the solver's
    progress probe, which performs no updates; Z is 0 where the probe raises
    MeritCollapse, as it does at a certified infeasible stationary point.
    The sums are returned so the fresh set can be folded into the next
    batch at no extra gradient cost.
    """
    fresh = draw_samples(problem, prev_size, rng)
    vsum, gsum, sqsum = gradient_stats(problem, ctx.x, fresh, counters)
    m = fresh.size
    gbar = gsum / m
    variance = (0.0 if m == 1 else
                max(0.0, (sqsum - m * float(gbar @ gbar)) / (m - 1)))

    # the probe keeps the duals the last inner loop ended with: a
    # least-squares warm start here shrinks the "kkt" rule's Z and grows its
    # batches (+7.8% ra-sqp-kkt gradient evaluations on eq-logreg seeds 10-19)
    ctx = replace(ctx, F_S=vsum / m, g_S=gbar, tau_prev=TAU_BAR)
    try:
        Z = max(_INNER[config.solver](ctx, config, counters)[0], 0.0)
    except MeritCollapse:
        Z = 0.0

    return variance, Z, fresh, vsum, gsum


def _eq_progress(ctx: InnerContext, config: DriverConfig,
                 counters: Counters):
    """The equality rule's progress measure at ctx: (current value, value
    to snapshot at the first inner iteration, KKT step or None). The step
    is solved here only when the measure needs it, and its merit plan
    (`step.plan`) only for "dl", which raises MeritCollapse when the merit
    parameter would collapse; the update reuses both."""
    if config.termination == "kkt":
        current = norm(ctx.kkt_vector())
        return current, current, None
    step = compute_step(ctx, config.exact, counters)
    dnorm = norm(step.d)
    if config.termination == "dnorm":
        return dnorm, dnorm, step
    step.plan = merit_plan(ctx, step)
    return step.plan[1], min(step.plan[1], KAPPA_D * dnorm * dnorm), step


def _robust_progress(ctx: InnerContext, config: DriverConfig,
                     counters: Counters):
    """The robust rule's progress measure at ctx, in `_eq_progress`'s form:
    (||d||, ||d||, step) for the direction d of the feasibility LP and the
    direction QP, as a `Step` with no dual step whose v_x is the
    linearized violation decrease max(0, violation - LP objective) and
    v_d 0. Raises InfeasibleStationary, with no QP solved, when
    `keeps_violation(violation, LP objective)` certifies an infeasible
    stationary point. The violation, the norm bounds and both subprograms
    are in the run's one norm mode;
    the LP reads only the constraint values and that mode, so it is solved
    once per iterate and kept in the context's store. With inequality rows
    only, `feasibility_step` usually answers it in closed form (objective
    0, no barrier iteration), and only the QP reaches the interior point."""
    mode = config.norm
    v = violation(ctx.c_E, ctx.c_I, mode)
    sigma_p, sigma_d = sigma_bounds(v, mode, ctx.x.size)
    feas = ctx.store.get("feasibility")
    if feas is None:
        feas = ctx.store["feasibility"] = feasibility_step(
            ctx.c_E, ctx.c_I, ctx.J_E, ctx.J_I, sigma_p, mode,
            counters=counters)
    if keeps_violation(v, feas.lp_objective):
        raise InfeasibleStationary("the feasibility LP keeps the violation")
    d = direction_step(ctx.g_S, ctx.c_E, ctx.c_I, ctx.J_E, ctx.J_I,
                       feas.relaxation, sigma_d, mode, counters=counters)
    dnorm = norm(d)
    return dnorm, dnorm, Step(d, 0.0, max(0.0, v - feas.lp_objective), 0.0)


# solver -> progress probe
_INNER = {"equality": _eq_progress, "robust": _robust_progress}


# ------------------------------------------------------------------
# true-problem metrics
# ------------------------------------------------------------------

def true_metrics(problem: ProblemSpec, x: np.ndarray, solver: str,
                 constraints: Optional[tuple] = None):
    """(violation_inf, stationarity, multipliers) for the underlying
    problem at x: `metrics_at` with `problem.true_gradient`.

    `constraints` is (c_E, c_I, J_E, J_I) at x when the caller holds them;
    otherwise they are evaluated here."""
    return metrics_at(problem.true_gradient(x),
                      (eval_constraints(problem, x) if constraints is None
                       else constraints), solver)


def metrics_at(g: np.ndarray, constraints: tuple, solver: str):
    """(violation_inf, stationarity, multipliers) at a point with objective
    gradient g and constraints (c_E, c_I, J_E, J_I): the max-norm
    `sqp_eq.violation`, and either the Lagrangian gradient norm at
    `least_squares_dual`'s lambda_E, as in the inner solver's warm start
    (equality), or the KKT residual at the residual LP's (lambda_E,
    lambda_I) (robust), with those multipliers."""
    c_E, c_I, J_E, J_I = constraints
    v_inf = violation(c_E, c_I, LINF)
    if solver == "equality":
        # with no equality constraints lam is empty and stat is ||g||_inf
        lam = least_squares_dual(J_E, g)
        return v_inf, norm(g + J_E.T @ lam, np.inf), lam
    return (v_inf, *kkt_residual(g, c_I, J_E, J_I, counters=None))


# ------------------------------------------------------------------
# the outer loop
# ------------------------------------------------------------------

def run(problem: ProblemSpec, config: DriverConfig,
        rng: np.random.Generator) -> SolveOutcome:
    """Retrospective-approximation outer loop.

    Each outer iteration draws a (non-decreasing) batch, warm-starts the
    inner solver from the previous solution, runs it until the termination
    rule fires or a cap is hit, and records true-problem metrics. With stop
    thresholds set the run ends `Converged` once both hold at an outer
    exit, and a finite sum's whole-data-set batch also tests them after
    each inner update (`stop_holds`). On that batch the inner rule has no
    floor, and an outer with no update ends the run `Stalled`. Gradient
    evaluations on subsampled problems are budgeted; metric evaluations are
    not. An expectation batch larger than MAX_BATCH ends the run with status
    BatchLimit before it is drawn; under adaptive sampling the estimate's
    fresh set is spent before that check, so the counters of such a run can
    exceed its last record's `grad_evals_cum` by one previous batch size.
    """
    if config.solver == "equality" and problem.m_I > 0:
        raise ConfigError("equality solver requires a problem with m_I = 0")
    if config.solver == "robust" and problem.m_E + problem.m_I == 0:
        raise ConfigError("robust solver requires a constrained problem")
    cap = (problem.mode.dataset_size
           if isinstance(problem.mode, FiniteSum) else None)

    counters = Counters()
    x = problem.x_init.copy()
    # no batch yet: each outer iteration sets F_S and g_S on its batch
    ctx = InnerContext(
        x, np.zeros(problem.m_E), np.nan, np.full(problem.n, np.nan),
        *eval_constraints(problem, x), tau_prev=TAU_BAR,
        hessian=(LbfgsModel(dim=problem.n, capacity=min(problem.n, 10))
                 if config.use_lbfgs else None))

    trace = []

    def metrics(ctx):
        # the iterate's true-problem metrics, once: an inner loop with no
        # update keeps the iterate, and its store
        if "metrics" not in ctx.store:
            ctx.store["metrics"] = true_metrics(
                problem, ctx.x, config.solver,
                (ctx.c_E, ctx.c_I, ctx.J_E, ctx.J_I))
        return ctx.store["metrics"]

    def record(ctx, k, batch_size, est_size, inner_iters, term_cause):
        v, s, _ = metrics(ctx)
        trace.append(OuterRecord(
            k=k, batch_size=batch_size, inner_iters=inner_iters,
            updates=inner_iters, estimation_size=est_size,
            violation_inf=v, stationarity=s,
            grad_evals_cum=counters.gradient_evals,
            minres_iters_cum=counters.minres_iters,
            barrier_iters_cum=counters.barrier_iters,
            tau_exit=ctx.tau_prev, term_cause=term_cause, x=ctx.x.copy()))
        return v, s

    record(ctx, -1, 0, 0, 0, "initial")

    def stop_met(v, s):
        return (config.stop_violation is not None
                and v <= config.stop_violation
                and s <= config.stop_stationarity)

    def stop_holds(ctx):
        # on the whole data set: the violation first, then stationarity at
        # g_S, here the full-data gradient, confirmed by the exact metrics;
        # never with no thresholds set
        cons = (ctx.c_E, ctx.c_I, ctx.J_E, ctx.J_I)
        return (stop_met(violation(ctx.c_E, ctx.c_I, LINF), 0.0)
                and stop_met(*metrics_at(ctx.g_S, cons, config.solver)[:2])
                and stop_met(*metrics(ctx)[:2]))

    prev_size: Optional[int] = None
    k = 0
    while True:
        if (counters.gradient_evals >= config.max_gradient_evals
                or k >= config.max_outer):
            status = "BudgetExhausted"
            break

        # batch sizing; an adaptive estimate's fresh set and its sums start
        # the batch
        fresh, vsum, gsum = None, 0.0, 0.0
        if config.sampling == "fixed" or prev_size is None:
            size = config.initial_size
            if cap is not None:
                size = min(size, cap)
        elif config.sampling == "adaptive":
            variance, Z, fresh, vsum, gsum = estimate_condition_inputs(
                problem, ctx, prev_size, config, rng, counters)
            size = adaptive_batch_size(prev_size, variance, Z, cap)
        else:
            size = geometric_batch_size(k, config.beta, cap, prev_size)
        if cap is None and size > MAX_BATCH:
            status = "BatchLimit"
            break

        # the prefix goes by position: perfbench/layers.py reads a keyword
        # prefix with `or`, which an ndarray cannot answer
        S = draw_samples(problem, size, rng, fresh)

        # subsampled objective at the warm-start point: the sums over the
        # fresh set, which draw_samples kept as the prefix of S, plus the
        # sums over the rest of S
        est_size = 0 if fresh is None else fresh.size
        if est_size < S.size:
            rest = S if fresh is None else after_prefix(S, fresh)
            rest_vsum, rest_gsum = _sums_over(problem, ctx.x, rest, counters)
            vsum, gsum = vsum + rest_vsum, gsum + rest_gsum
        g_S = gsum / S.size
        # the least-squares multipliers for g_S, whose KKT error no carried
        # duals beat, as a deterministic SQP method starts a new problem;
        # the robust solver never reads them
        ctx = replace(ctx, F_S=vsum / S.size, g_S=g_S, tau_prev=TAU_BAR,
                      lam=least_squares_dual(ctx.J_E, g_S))
        # the evaluation functions are looked up at call time, so wrappers
        # installed on this module's names see every call
        evaluator = Evaluator(
            lambda xt: eval_subsampled_value(problem, xt, S, counters),
            lambda xt: eval_subsampled(problem, xt, S, counters),
            lambda xt: eval_constraints(problem, xt))
        ctx, inner_iters, term_cause = _inner_loop(
            ctx, config, evaluator, counters,
            stop_holds if S.size == cap else None)
        v, s = record(ctx, k, S.size, est_size, inner_iters, term_cause)

        if term_cause == "infeasible_stationary":
            status = "InfeasibleStationary"
            break
        if stop_met(v, s):
            status = "Converged"
            break
        # no update on a finite sum's whole data set: the next outer would
        # solve the same problem from the same point
        if S.size == cap and inner_iters == 0 and term_cause != "budget":
            status = "Stalled"
            break

        prev_size = S.size
        k += 1

    return SolveOutcome(status=status, x=ctx.x,
                        lam=(ctx.lam if config.solver == "equality"
                             else metrics(ctx)[2]),
                        trace=trace, counters=counters)


def _inner_loop(ctx: InnerContext, config: DriverConfig,
                evaluator: Evaluator, counters: Counters, stop=None):
    """Probe, test and update (see the module docstring) with the config's
    solver from ctx until its termination rule fires or an update cannot
    move x ("terminated": alpha 0, the subsampled problem is solved to
    rounding), the probe or the update raises (InfeasibleStationary at a
    certified infeasible stationary point, MeritCollapse or
    LineSearchFailure), `stop` (the run's stop test on a finite sum's whole
    data set, or None) holds after an update, or the gradient budget or
    INNER_CAP is reached. With a `stop` the rule has no floor
    (`termination_check`).

    Returns (ctx, inner iterations, term_cause); every inner iteration
    counted moved x.
    """
    probe = _INNER[config.solver]
    snapshot = None
    for j in range(INNER_CAP):
        if counters.gradient_evals >= config.max_gradient_evals:
            return ctx, j, "budget"
        try:
            current, first, step = probe(ctx, config, counters)
            if snapshot is None:
                snapshot = first
            if termination_check(config, snapshot, current, stop is not None):
                return ctx, j, "terminated"
            ctx, alpha = inner_iteration(ctx, step, evaluator, config,
                                         counters)
        except InfeasibleStationary:
            return ctx, j, "infeasible_stationary"
        except MeritCollapse:
            return ctx, j, "merit_collapse"
        except LineSearchFailure:
            return ctx, j, "line_search_failure"
        if alpha == 0.0:
            return ctx, j, "terminated"
        if stop is not None and stop(ctx):
            return ctx, j + 1, "converged"
    return ctx, INNER_CAP, "inner_cap"
