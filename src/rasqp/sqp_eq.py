"""One inner iteration of the line-search SQP method for equality-constrained
subsampled problems: KKT step (exact or truncated-MINRES) and merit-parameter
management; and the context, merit function and line search that both SQP
solvers share."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .counters import Counters
from .errors import LineSearchFailure, MeritCollapse
from .linalg import (LbfgsModel, lbfgs_apply, lbfgs_update, make_kkt_operator,
                     minres_solve)

TAU_BAR = 1.0        # merit parameter at the start of every inner loop
MINRES_TOL = 1e-6
# MINRES iteration cap of a step; the inexact mode's first pass takes a
# tenth of it before it falls back to the exact tolerance
MINRES_MAX_ITER = 2000
# inexactness conditions
KAPPA_T = 1e-1
KAPPA_PRIME = 1e3
EPS_FEAS = 1e-4
EPS_OPT = 1e-4
# merit parameter / line search
EPS_SIGMA = 0.5
EPS_TAU = 0.01
# lower bound on the model curvature relative to ||d||^2; must stay below
# the smallest Rayleigh quotient of the Hessian model or the merit parameter
# collapses on quasi-Newton models
EPS_D = 1e-4
ETA = 1e-4
EPS_ALPHA = 0.5
ALPHA_MIN = 1e-12
# merit norm modes: max-norm or 1-norm of the constraint violation
LINF = "linf"
L1 = "l1"


@dataclass
class InnerContext:
    """An inner iterate on the subsampled problem with what both solvers
    read at it. The robust solver takes no dual steps, so its `lam` stays
    at the start value."""
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

    def h_apply(self, v):
        return v if self.hessian is None else lbfgs_apply(self.hessian, v)

    def kkt_vector(self):
        return np.concatenate([self.g_S + self.J_E.T @ self.lam, self.c_E])


@dataclass
class EqStepResult:
    d: np.ndarray
    delta: np.ndarray
    rho: np.ndarray
    r: np.ndarray
    acceptance: str  # "exact" | "inexact_cond1" | "inexact_cond2"


def _inexact_acceptance(ctx: InnerContext, T: np.ndarray,
                        acceptance_kind: dict) -> Callable:
    """MINRES acceptance callback of the inexact mode: True at the first
    iterate passing condition II or I, whose name it stores in
    acceptance_kind["kind"]. What the tests read of ctx alone is taken
    once here, not at every MINRES iteration."""
    n = ctx.x.size
    c1 = np.linalg.norm(ctx.c_E, 1)
    cnorm = np.linalg.norm(ctx.c_E)
    t_norm = np.linalg.norm(T)
    rho_cap = KAPPA_PRIME * max(np.linalg.norm(ctx.J_E),
                                np.linalg.norm(ctx.g_S))
    sigma = EPS_SIGMA * (1 - EPS_FEAS)

    def accept(z, resid):
        # (rho, r) = -resid, so ||(rho, r)|| = ||resid||
        d = z[:n]
        r_norm = np.linalg.norm(resid[n:])
        rho_norm = np.linalg.norm(resid[:n])
        # condition II: decrease in the linear constraint model
        if r_norm <= EPS_FEAS * cnorm and rho_norm <= EPS_OPT * cnorm:
            acceptance_kind["kind"] = "inexact_cond2"
            return True
        # condition I: sufficient decrease in the merit model at tau_prev
        gTd = float(ctx.g_S @ d)
        dHd = float(d @ ctx.h_apply(d))
        curv = max(dHd, EPS_D * float(d @ d))
        dl = -ctx.tau_prev * gTd + c1 - np.linalg.norm(resid[n:], 1)
        bound = sigma * max(c1, r_norm - c1) + sigma * ctx.tau_prev * curv
        if (dl >= bound
                and np.linalg.norm(resid) <= KAPPA_T * min(t_norm,
                                                           np.linalg.norm(d))
                and rho_norm <= rho_cap):
            acceptance_kind["kind"] = "inexact_cond1"
            return True
        return False

    return accept


def compute_step(ctx: InnerContext, exact: bool,
                 counters: Optional[Counters] = None) -> EqStepResult:
    """Solve the SQP KKT system [[H, J'], [J, 0]] (d, delta) = -T + (rho, r).

    Exact mode truncates MINRES at the relative-residual tolerance; inexact
    mode accepts the first iterate passing inexactness condition I (merit
    model decrease) or II (linearized-constraint decrease), falling back to
    the exact tolerance if neither triggers.
    """
    n = ctx.x.size
    T = ctx.kkt_vector()
    K = make_kkt_operator(ctx.h_apply, ctx.J_E)
    rhs = -T

    acceptance_kind = {}
    callback = (None if exact
                else _inexact_acceptance(ctx, T, acceptance_kind))
    report = minres_solve(K, rhs, MINRES_TOL,
                          MINRES_MAX_ITER if exact else MINRES_MAX_ITER // 10,
                          acceptance=callback, counters=counters)
    if not exact and report.stop_reason == "max_iter":
        # no iterate passed the inexactness tests; continue to the exact tol
        report = minres_solve(K, rhs, MINRES_TOL, MINRES_MAX_ITER,
                              counters=counters)

    z = report.solution
    resid_vec = report.residual
    if report.stop_reason == "inexactness_accepted":
        kind = acceptance_kind.get("kind", "inexact_cond1")
    else:
        kind = "exact"
    return EqStepResult(d=z[:n], delta=z[n:], rho=-resid_vec[:n],
                        r=-resid_vec[n:], acceptance=kind)


def trial_tau(gTd: float, dHd: float, d_norm_sq: float, c_l1: float,
              r_l1: float, eps_sigma: float, eps_d: float) -> float:
    """Trial merit parameter; infinity when the direction is already a
    sufficient-descent direction for the objective model."""
    curv = max(dHd, eps_d * d_norm_sq)
    denom = gTd + curv
    # the sum cancels at the step-solver residual scale when the direction
    # is an exact minimizer of the objective model, hence a relative guard
    if denom <= 1e-8 * (abs(gTd) + curv):
        return np.inf
    return (1.0 - eps_sigma) * max(c_l1 - r_l1, 0.0) / denom


def update_tau(tau_prev: float, tau_tr: float, eps_tau: float) -> float:
    if tau_tr == 0.0:
        raise MeritCollapse("trial merit parameter is zero")
    if tau_prev <= tau_tr:
        return tau_prev
    return (1.0 - eps_tau) * tau_tr


def model_decrease(tau: float, gTd: float, c_l1: float, r_l1: float) -> float:
    """Reduction of the linear merit model: -tau g'd + ||c||_1 - ||r||_1."""
    return -tau * gTd + c_l1 - r_l1


def merit_plan(ctx: InnerContext, step: EqStepResult):
    """(tau, model decrease) for `step` at ctx: the merit parameter the inner
    iteration takes it with, and the decrease of the linear merit model."""
    d = step.d
    gTd = float(ctx.g_S @ d)
    c_l1 = float(np.linalg.norm(ctx.c_E, 1))
    r_l1 = float(np.linalg.norm(step.r, 1))
    if step.acceptance == "inexact_cond1":
        # condition I certifies descent at the previous merit parameter
        tau = ctx.tau_prev
    else:
        dHd = float(d @ ctx.h_apply(d))
        tau_tr = trial_tau(gTd, dHd, float(d @ d), c_l1, r_l1, EPS_SIGMA,
                           EPS_D)
        tau = update_tau(ctx.tau_prev, tau_tr, EPS_TAU)
    return tau, model_decrease(tau, gTd, c_l1, r_l1)


def armijo_backtrack(merit_eval: Callable[[float], float], phi0: float,
                     delta_l: float, eta: float, eps_alpha: float,
                     alpha_min: float) -> float:
    """Largest alpha in {1, eps_alpha, eps_alpha^2, ...} with
    phi(alpha) <= phi0 - eta * alpha * delta_l."""
    if delta_l <= 0.0:
        raise ValueError("armijo_backtrack requires a positive model decrease")
    alpha = 1.0
    while alpha >= alpha_min:
        if merit_eval(alpha) <= phi0 - eta * alpha * delta_l:
            return alpha
        alpha *= eps_alpha
    raise LineSearchFailure(
        f"no step above {alpha_min:g} gave sufficient decrease")


@dataclass
class Evaluator:
    """Evaluation hooks both inner iterations need beyond the context values:
    subsampled objective (value only, and value+gradient) and constraints."""
    value: Callable[[np.ndarray], float]
    value_grad: Callable[[np.ndarray], tuple]
    constraints: Callable[[np.ndarray], tuple]  # x -> (c_E, c_I, J_E, J_I)


def violation_norms(c_E: np.ndarray, c_I: np.ndarray):
    """(max-norm, 1-norm) of the stacked violation (c_E, [c_I]_+)."""
    v = np.concatenate([c_E, np.maximum(c_I, 0.0)])
    if v.size == 0:
        return 0.0, 0.0
    return float(np.linalg.norm(v, np.inf)), float(np.linalg.norm(v, 1))


def merit_value(F_S: float, c_E, c_I, tau: float, mode: str) -> float:
    """tau F_S plus the `mode` norm of (c_E, [c_I]_+); only that norm is
    computed. With no inequalities and mode L1 this is the equality
    solver's merit tau F + ||c_E||_1."""
    v = np.concatenate([c_E, np.maximum(c_I, 0.0)]) if c_I.size else c_E
    violation = (float(np.linalg.norm(v, np.inf if mode == LINF else 1))
                 if v.size else 0.0)
    return tau * F_S + violation


def line_search_step(ctx: InnerContext, d, delta, tau: float, delta_l: float,
                     evaluator: Evaluator, mode: str):
    """Armijo backtracking on the merit `merit_value(., tau, mode)` along d
    from ctx, then the update x + alpha d, lam + alpha delta, the subsampled
    values at the new point and, with a Hessian model, its L-BFGS update
    from Lagrangian-gradient differences. Returns (new context, alpha).

    A model decrease delta_l <= 0 (a direction at the rounding scale can
    give one) admits no Armijo step: ctx is returned with alpha 0, as for
    a zero step, and nothing is evaluated.

    Raises LineSearchFailure when no step above ALPHA_MIN gives sufficient
    decrease.
    """
    if delta_l <= 0.0:
        return ctx, 0.0
    phi0 = merit_value(ctx.F_S, ctx.c_E, ctx.c_I, tau, mode)
    x_new = cons = None

    def merit_eval(alpha):
        nonlocal x_new, cons
        x_new = ctx.x + alpha * d
        cons = evaluator.constraints(x_new)
        return merit_value(evaluator.value(x_new), cons[0], cons[1], tau, mode)

    # the backtrack returns right after the trial it accepts, so x_new and
    # cons hold that trial's point and constraint values
    alpha = armijo_backtrack(merit_eval, phi0, delta_l, ETA, EPS_ALPHA,
                             ALPHA_MIN)

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


def inner_iteration(ctx: InnerContext, exact: bool,
                    evaluator: Evaluator,
                    counters: Optional[Counters] = None,
                    step: Optional[EqStepResult] = None,
                    plan: Optional[tuple] = None):
    """One equality SQP inner iteration: KKT step, merit update, then the
    shared line search and update on the l1 merit tau F + ||c_E||_1.

    Returns (new_ctx, step_result, alpha); alpha is 0 and ctx is returned
    unchanged when the step is zero or its model decrease is not positive.
    `step` may be passed in when the caller already solved the KKT system
    for a termination probe, and `plan` when it already took
    merit_plan(ctx, step).

    Raises MeritCollapse or LineSearchFailure, which the outer loop treats
    as a signal to resample.
    """
    if step is None:
        step = compute_step(ctx, exact, counters=counters)

    if np.linalg.norm(step.d) <= 1e-15 * (1.0 + np.linalg.norm(ctx.x)):
        return ctx, step, 0.0

    tau, delta_l = merit_plan(ctx, step) if plan is None else plan
    new_ctx, alpha = line_search_step(ctx, step.d, step.delta, tau, delta_l,
                                      evaluator, L1)
    return new_ctx, step, alpha
