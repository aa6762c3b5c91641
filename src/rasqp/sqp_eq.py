"""What both SQP solvers share, and the equality solver's KKT step.

Both solvers hand one update, `inner_iteration`, a `Step`: the direction
d, the dual step, and the violation the merit plan reads at x and along
the step's linearized model. The equality solver's step is the KKT step
(exact or truncated-MINRES) of `compute_step`; the robust solver's comes
from its subproblems (`driver._robust_progress`). The update takes the
merit-parameter rule (`merit_plan`: `trial_tau`, `update_tau`) and the
line search on the solver's merit; this module also holds the context
and the evaluation hooks the update reads."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .counters import Counters
from .errors import InfeasibleStationary, LineSearchFailure, MeritCollapse
from .linalg import (LbfgsModel, lbfgs_apply, lbfgs_update, make_kkt_operator,
                     minres_solve, norm)

TAU_BAR = 1.0        # merit parameter at the start of every inner loop
MINRES_TOL = 1e-6
MINRES_MAX_ITER = 2000  # MINRES iteration cap of a step
# inexactness conditions
KAPPA_T = 1e-1
KAPPA_PRIME = 1e3
EPS_FEAS = 1e-4
EPS_OPT = 1e-4
# merit parameter / line search
EPS_SIGMA = 0.5
EPS_TAU = 0.01
TAU_FLOOR = 1e-12    # a smaller merit parameter raises MeritCollapse
# lower bound on the model curvature relative to ||d||^2; must stay below
# the smallest Rayleigh quotient of the Hessian model or the merit parameter
# collapses on quasi-Newton models
EPS_D = 1e-4
ETA = 1e-4
EPS_ALPHA = 0.5
ALPHA_MIN = 1e-12
# infeasible-stationary certificate of both solvers: a violation tolerance
# above the interior-point objective noise floor
INFEAS_TOL_V = 1e-5
# merit norm modes: max-norm or 1-norm of the constraint violation
LINF = "linf"
L1 = "l1"


@dataclass
class InnerContext:
    """An inner iterate on the subsampled problem with what both solvers
    read at it. Each batch starts `lam` at the least-squares multipliers;
    the robust solver neither steps nor reads them. `store` keeps what is computed from x and its
    constraint values alone, whatever the batch: the driver puts the
    robust solver's feasibility LP result there ("feasibility") and the
    true-problem metrics ("metrics"). `replace` shares it, so a copy that
    changes x or the constraints needs a new one."""
    x: np.ndarray
    lam: np.ndarray
    F_S: float
    g_S: np.ndarray
    c_E: np.ndarray
    c_I: np.ndarray
    J_E: np.ndarray
    J_I: np.ndarray
    tau_prev: float
    hessian: Optional[LbfgsModel] = None  # None means identity
    store: dict = field(default_factory=dict, repr=False)

    def h_apply(self, v):
        return v if self.hessian is None else lbfgs_apply(self.hessian, v)

    def kkt_vector(self):
        return np.concatenate([self.g_S + self.J_E.T @ self.lam, self.c_E])


@dataclass
class Step:
    """A step of either solver: the direction d, the dual step delta, and
    the violation v_x at x and v_d of the step's linearized model that the
    merit plan reads. The equality solver's KKT step has v_x = ||c_E||_1,
    v_d = ||r||_1, its residual (rho, r) and MINRES's stop reason
    `acceptance` ("exact_tol" | "max_iter" | "inexact_cond1" |
    "inexact_cond2"); the robust solver's has delta 0, v_x its linearized
    violation decrease and v_d 0. `plan` is the merit plan (tau, model
    decrease) when a probe has already taken it."""
    d: np.ndarray
    delta: np.ndarray
    v_x: float
    v_d: float
    rho: Optional[np.ndarray] = None
    r: Optional[np.ndarray] = None
    acceptance: str = "exact_tol"
    plan: Optional[tuple] = None


def _inexact_acceptance(ctx: InnerContext, T: np.ndarray) -> Callable:
    """MINRES acceptance callback of the inexact mode: the name of the
    first of condition II or I an iterate passes, "inexact_cond2" or
    "inexact_cond1", or None. What the tests read of ctx alone is taken
    once here, not at every MINRES iteration."""
    n = ctx.x.size
    c1 = norm(ctx.c_E, 1)
    cnorm = norm(ctx.c_E)
    t_norm = norm(T)
    rho_cap = KAPPA_PRIME * max(norm(ctx.J_E), norm(ctx.g_S))
    sigma = EPS_SIGMA * (1 - EPS_FEAS)

    def accept(z, resid):
        # (rho, r) = -resid, so ||(rho, r)|| = ||resid||
        d = z[:n]
        r_norm = norm(resid[n:])
        rho_norm = norm(resid[:n])
        # condition II: decrease in the linear constraint model
        if r_norm <= EPS_FEAS * cnorm and rho_norm <= EPS_OPT * cnorm:
            return "inexact_cond2"
        # condition I: sufficient decrease in the merit model at tau_prev
        gTd = float(ctx.g_S @ d)
        dHd = float(d @ ctx.h_apply(d))
        curv = max(dHd, EPS_D * float(d @ d))
        dl = -ctx.tau_prev * gTd + c1 - norm(resid[n:], 1)
        bound = sigma * max(c1, r_norm - c1) + sigma * ctx.tau_prev * curv
        if (dl >= bound
                and norm(resid) <= KAPPA_T * min(t_norm, norm(d))
                and rho_norm <= rho_cap):
            return "inexact_cond1"
        return None

    return accept


def compute_step(ctx: InnerContext, exact: bool,
                 counters: Optional[Counters] = None) -> Step:
    """Solve the SQP KKT system [[H, J'], [J, 0]] (d, delta) = -T + (rho, r).

    Exact mode truncates MINRES at the relative-residual tolerance; inexact
    mode runs the same pass and also accepts the first iterate passing
    inexactness condition I (merit model decrease) or II
    (linearized-constraint decrease).
    """
    n = ctx.x.size
    T = ctx.kkt_vector()
    callback = None if exact else _inexact_acceptance(ctx, T)
    report = minres_solve(make_kkt_operator(ctx.h_apply, ctx.J_E), -T,
                          MINRES_TOL, MINRES_MAX_ITER, acceptance=callback,
                          counters=counters)
    z, resid = report.solution, report.residual
    # an accepted pass stops with the name of the condition that accepted,
    # any other with "exact_tol" or "max_iter"
    r = -resid[n:]
    return Step(d=z[:n], delta=z[n:], v_x=norm(ctx.c_E, 1), v_d=norm(r, 1),
                rho=-resid[:n], r=r, acceptance=report.stop_reason)


def trial_tau(gTd: float, dHd: float, d_norm_sq: float, c_l1: float,
              r_l1: float) -> float:
    """Trial merit parameter of both solvers; infinity when the direction is
    already a sufficient-descent direction for the objective model, or a
    descent direction (g'd < 0) that decreases no linearized violation
    (c_l1 - r_l1 <= 0): at a feasible point, where the exact step has
    g'd + curvature <= 0, rounding would give the ratio below as 0. The
    robust solver's step, with no Hessian model, gives d'd for dHd and
    d_norm_sq, and its linearized violation decrease for c_l1 with
    r_l1 = 0 (`merit_plan`)."""
    if c_l1 - r_l1 <= 0.0 and gTd < 0.0:
        return np.inf
    curv = max(dHd, EPS_D * d_norm_sq)
    denom = gTd + curv
    # the sum cancels when the direction minimizes the objective model, up
    # to the MINRES residual or the interior-point gap (1e-6 relative),
    # hence a relative guard above that noise
    if denom <= 1e-5 * (abs(gTd) + curv):
        return np.inf
    return (1.0 - EPS_SIGMA) * max(c_l1 - r_l1, 0.0) / denom


def update_tau(tau_prev: float, tau_tr: float) -> float:
    """tau_prev while it is at most tau_tr, else the smaller of
    (1 - EPS_TAU) tau_prev and tau_tr. Raises MeritCollapse below
    TAU_FLOOR."""
    if tau_prev <= tau_tr:
        tau = tau_prev
    else:
        tau = min((1.0 - EPS_TAU) * tau_prev, tau_tr)
    if tau < TAU_FLOOR:
        raise MeritCollapse(f"merit parameter collapsed to {tau:g}")
    return tau


def model_decrease(tau: float, gTd: float, c_l1: float, r_l1: float) -> float:
    """Reduction of the linear merit model: -tau g'd + ||c||_1 - ||r||_1."""
    return -tau * gTd + c_l1 - r_l1


def keeps_violation(v: float, v_model: float) -> bool:
    """The infeasible-stationary certificate of both solvers, a numerical
    "no step reduces a positive violation": the linearized violation
    v_model of the best step keeps all but a relative INFEAS_TOL_V of a
    violation v above INFEAS_TOL_V. The robust solver passes its mode's
    violation and the feasibility LP objective, which also certifies when
    the interior point returns a centered p of a non-unique minimizer; the
    equality solver passes ||c_E||_1 and its step's ||r||_1. INFEAS_TOL_V
    must sit above the solvers' noise floor or near-feasible points get
    flagged."""
    return v > INFEAS_TOL_V and v - v_model <= INFEAS_TOL_V * v


def merit_plan(ctx: InnerContext, step: Step):
    """(tau, model decrease) for `step` at ctx: the merit parameter the inner
    iteration takes it with, and the decrease of the linear merit model,
    from the step's violations (v_x, v_d).

    Raises InfeasibleStationary when the step is to set tau and
    `keeps_violation(v_x, v_d)` holds: the step keeps the linearized
    violation, so no step can reduce the violation. A robust step, with
    v_d = 0, never raises here: its probe has certified from the LP."""
    d = step.d
    gTd = float(ctx.g_S @ d)
    if step.acceptance == "inexact_cond1":
        # condition I certifies descent at the previous merit parameter
        tau = ctx.tau_prev
    else:
        if keeps_violation(step.v_x, step.v_d):
            raise InfeasibleStationary("the step keeps the linearized "
                                       "violation")
        dHd = float(d @ ctx.h_apply(d))
        tau_tr = trial_tau(gTd, dHd, float(d @ d), step.v_x, step.v_d)
        tau = update_tau(ctx.tau_prev, tau_tr)
    return tau, model_decrease(tau, gTd, step.v_x, step.v_d)


def armijo_backtrack(merit_eval: Callable[[float], float], phi0: float,
                     delta_l: float) -> float:
    """Largest alpha in {1, EPS_ALPHA, EPS_ALPHA^2, ...} down to ALPHA_MIN
    with phi(alpha) <= phi0 - ETA * alpha * delta_l."""
    if delta_l <= 0.0:
        raise ValueError("armijo_backtrack requires a positive model decrease")
    alpha = 1.0
    while alpha >= ALPHA_MIN:
        if merit_eval(alpha) <= phi0 - ETA * alpha * delta_l:
            return alpha
        alpha *= EPS_ALPHA
    raise LineSearchFailure(
        f"no step above {ALPHA_MIN:g} gave sufficient decrease")


@dataclass
class Evaluator:
    """Evaluation hooks the inner iteration needs beyond the context values:
    subsampled objective (value only, and value+gradient) and constraints."""
    value: Callable[[np.ndarray], float]
    value_grad: Callable[[np.ndarray], tuple]
    constraints: Callable[[np.ndarray], tuple]  # x -> (c_E, c_I, J_E, J_I)


def violation(c_E: np.ndarray, c_I: np.ndarray, mode: str) -> float:
    """The `mode` norm (max-norm for LINF, else 1-norm) of the stacked
    violation (c_E, [c_I]_+), or 0 with no constraints."""
    v = np.concatenate([c_E, np.maximum(c_I, 0.0)]) if c_I.size else c_E
    return norm(v, np.inf if mode == LINF else 1) if v.size else 0.0


def merit_value(F_S: float, c_E, c_I, tau: float, mode: str) -> float:
    """tau F_S plus the `mode` violation. With no inequalities and mode L1
    this is the equality solver's merit tau F + ||c_E||_1."""
    return tau * F_S + violation(c_E, c_I, mode)


def second_order_correction(ctx: InnerContext, d, c_E, c_I):
    """The min-norm s = -J_W^+ (c_W(x + d) - c_W - J_W d) that takes the
    working rows W back to their linearized values at x + d, given the
    constraint values (c_E, c_I) there, or None when that gap is at
    rounding level, as on linear constraints. W is every equality row and
    each inequality row whose value at x + d exceeds both its linearized
    value and 0."""
    Jd_E, Jd_I = ctx.J_E @ d, ctx.J_I @ d
    lin_I = ctx.c_I + Jd_I
    rows = c_I > np.maximum(lin_I, 0.0)
    gap = np.concatenate([c_E - (ctx.c_E + Jd_E), c_I[rows] - lin_I[rows]])
    # rounding level: relative to the values the gap is the difference of
    if not gap.size or norm(gap, np.inf) <= 1e-12 * (1.0 + norm(
            np.concatenate([c_E, c_I, Jd_E, Jd_I]), np.inf)):
        return None
    return -np.linalg.lstsq(np.vstack([ctx.J_E, ctx.J_I[rows]]), gap,
                            rcond=None)[0]


def line_search_step(ctx: InnerContext, d, delta, tau: float, delta_l: float,
                     evaluator: Evaluator, mode: str):
    """Armijo backtracking on the merit `merit_value(., tau, mode)` along d
    from ctx, first trying the unit step with its second-order correction s
    (`second_order_correction`): x + d + s is taken at alpha 1 when it
    passes the Armijo test there, and otherwise, or with no correction,
    the backtrack along d runs, its unit trial reusing the constraint
    values at x + d. Then the update x + alpha d (+ s), lam + alpha delta,
    the subsampled values at the new point and, with a Hessian model, its
    L-BFGS update from Lagrangian-gradient differences. Returns (new
    context, alpha).

    A model decrease delta_l <= 0 (a direction at the rounding scale can
    give one) admits no Armijo step: ctx is returned with alpha 0, as for
    a zero step, and nothing is evaluated.

    Raises LineSearchFailure when no step above ALPHA_MIN gives sufficient
    decrease.
    """
    if delta_l <= 0.0:
        return ctx, 0.0
    phi0 = merit_value(ctx.F_S, ctx.c_E, ctx.c_I, tau, mode)
    x_unit = ctx.x + d
    unit = evaluator.constraints(x_unit)
    x_new = cons = None

    def merit_at(x, c=None):
        nonlocal x_new, cons
        x_new, cons = x, evaluator.constraints(x) if c is None else c
        return merit_value(evaluator.value(x), cons[0], cons[1], tau, mode)

    corr = second_order_correction(ctx, d, unit[0], unit[1])
    if corr is not None and merit_at(x_unit + corr) <= phi0 - ETA * delta_l:
        alpha = 1.0
    else:
        # the backtrack returns right after the trial it accepts, so x_new
        # and cons hold that trial's point and constraint values
        alpha = armijo_backtrack(
            lambda a: (merit_at(x_unit, unit) if a == 1.0
                       else merit_at(ctx.x + a * d)), phi0, delta_l)

    lam_new = ctx.lam + alpha * delta
    F_new, g_new = evaluator.value_grad(x_new)
    c_E, c_I, J_E, J_I = cons

    hessian = ctx.hessian
    if hessian is not None:
        s = x_new - ctx.x
        y = (g_new + J_E.T @ lam_new) - (ctx.g_S + ctx.J_E.T @ lam_new)
        hessian = lbfgs_update(hessian, s, y)

    new_ctx = InnerContext(x=x_new, lam=lam_new, F_S=F_new, g_S=g_new,
                           c_E=c_E, c_I=c_I, J_E=J_E, J_I=J_I, tau_prev=tau,
                           hessian=hessian)
    return new_ctx, alpha


def inner_iteration(ctx: InnerContext, step: Optional[Step],
                    evaluator: Evaluator, config,
                    counters: Optional[Counters]):
    """The one update of both solvers, along the probe's step: its merit
    plan (`step.plan`, else merit_plan(ctx, step)), then the shared line
    search and update on the solver's merit, tau F + ||c_E||_1 for the
    equality solver and the `config.norm` merit for the robust one. A
    step of None is the equality solver's KKT step, solved here (exact or
    inexact by `config.exact`, counted in `counters`). Returns (new
    context, alpha).

    A zero primal step takes the full dual step, lam + delta, at the same
    x with alpha 0; a step whose model decrease is not positive returns
    ctx unchanged with alpha 0.

    Raises MeritCollapse or LineSearchFailure, which the outer loop treats
    as a signal to resample.
    """
    if step is None:
        step = compute_step(ctx, config.exact, counters=counters)

    if norm(step.d) <= 1e-15 * (1.0 + norm(ctx.x)):
        return replace(ctx, lam=ctx.lam + step.delta), 0.0

    tau, delta_l = merit_plan(ctx, step) if step.plan is None else step.plan
    return line_search_step(ctx, step.d, step.delta, tau, delta_l, evaluator,
                            L1 if config.solver == "equality"
                            else config.norm)
