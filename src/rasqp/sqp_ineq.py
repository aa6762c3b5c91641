"""One inner iteration of the robust-SQP method for general constraints:
feasibility LP, direction QP, infeasible-stationary detection, merit
management, and line search, in both max-norm and 1-norm modes."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .counters import Counters
from .errors import MeritCollapse, NumericalFailure
from .ipm import ConvexProgram, solve_program
from .linalg import LbfgsModel, lbfgs_update
from .sqp_eq import (ALPHA_MIN, EPS_ALPHA, EPS_SIGMA, EPS_TAU, ETA,
                     Evaluator, armijo_backtrack)

LINF = "linf"
L1 = "l1"
# infeasible-stationary certificate: a step norm that counts as p = 0, and
# a violation tolerance above the interior-point objective noise floor
INFEAS_TOL_P = 1e-9
INFEAS_TOL_V = 1e-5
TAU_FLOOR = 1e-12    # a smaller merit parameter raises MeritCollapse


def violation_norms(c_E: np.ndarray, c_I: np.ndarray):
    """(max-norm, 1-norm) of the stacked violation (c_E, [c_I]_+)."""
    v = np.concatenate([c_E, np.maximum(c_I, 0.0)])
    if v.size == 0:
        return 0.0, 0.0
    return float(np.linalg.norm(v, np.inf)), float(np.linalg.norm(v, 1))


def sigma_bounds(violation_inf: float, violation_l1: float, mode: str,
                 n: int):
    """Search-direction norm bounds proportional to the constraint violation,
    clipped to a fixed range (scaled by the dimension in 1-norm mode)."""
    if mode == LINF:
        sigma_p = float(np.clip(10.0 * violation_inf, 1e2, 1e4))
    elif mode == L1:
        sigma_p = float(np.clip(10.0 * violation_l1, n * 1e2, n * 1e4))
    else:
        raise ValueError(f"unknown norm mode {mode!r}")
    return sigma_p, 2.0 * sigma_p


@dataclass
class FeasibilityResult:
    p: np.ndarray
    relaxation: np.ndarray  # per constraint, ordered (E, I); shared y in linf
    lp_objective: float


def _linearized_program(c_E, c_I, J_E, J_I, sigma: float, mode: str,
                        g_S=None, H=None, relaxation=None) -> ConvexProgram:
    """The feasibility LP (no relaxation given) or the direction QP.

    Variables are [p, t (l1 only), y (LP only)]. The rows are +J_E, -J_E,
    J_I, each relaxed by y in the LP (one shared y in linf, one per
    constraint in l1) or by the given relaxation in the QP, then in l1 mode
    +-p - t <= 0 and sum t <= sigma. In linf mode |p| <= sigma is a bound;
    t and y are nonnegative. The LP minimizes sum y, the QP the objective
    model with gradient g_S and Hessian H (the identity when None).
    """
    if mode not in (LINF, L1):
        raise ValueError(f"unknown norm mode {mode!r}")
    m_E, n = J_E.shape
    m_I = J_I.shape[0]
    m = m_E + m_I
    n_t = n if mode == L1 else 0
    n_y = 0 if relaxation is not None else (1 if mode == LINF else m)
    nv = n + n_t + n_y

    rows = np.zeros((m_E + m, nv))
    rows[:, :n] = np.vstack([J_E, -J_E, J_I])
    rhs = -np.concatenate([c_E, -c_E, c_I])
    g = np.zeros(nv)
    if relaxation is None:
        g[n + n_t:] = 1.0
        y_col = 0 if mode == LINF else np.concatenate([np.arange(m_E),
                                                        np.arange(m)])
        rows[np.arange(m_E + m), n + n_t + y_col] = -1.0
        Hfull = None
    else:
        g[:n] = g_S
        Hfull = np.zeros((nv, nv))
        Hfull[:n, :n] = np.eye(n) if H is None else np.asarray(H, dtype=float)
        r = np.broadcast_to(np.asarray(relaxation, dtype=float), (m,))
        rhs = np.concatenate([r[:m_E], r]) + rhs
    if mode == L1:
        eye = np.eye(n)
        box = np.zeros((2 * n + 1, nv))
        box[:n, :n], box[n:2 * n, :n] = eye, -eye
        box[:2 * n, n:2 * n] = np.vstack([-eye, -eye])
        box[2 * n, n:2 * n] = 1.0
        rows = np.vstack([rows, box])
        rhs = np.concatenate([rhs, np.zeros(2 * n), [sigma]])

    lower = np.full(nv, -np.inf)
    upper = np.full(nv, np.inf)
    if mode == LINF:
        lower[:n], upper[:n] = -sigma, sigma
    lower[n:] = 0.0
    return ConvexProgram(g=g, H=Hfull, A_in=rows, b_in=rhs, lower=lower,
                         upper=upper)


def _solve(prog: ConvexProgram, what: str, counters: Optional[Counters]):
    sol = solve_program(prog, counters=counters)
    if sol.status != "optimal":
        raise NumericalFailure(f"{what} ended with status {sol.status}")
    return sol


def feasibility_step(c_E, c_I, J_E, J_I, sigma_p: float, mode: str,
                     counters: Optional[Counters] = None) -> FeasibilityResult:
    """LP minimizing the linearized constraint violation within ||p|| <= sigma_p."""
    prog = _linearized_program(c_E, c_I, J_E, J_I, sigma_p, mode)
    sol = _solve(prog, "feasibility LP", counters)
    n = J_E.shape[1]
    y = np.maximum(sol.x[n + (n if mode == L1 else 0):], 0.0)
    m = J_E.shape[0] + J_I.shape[0]
    return FeasibilityResult(p=sol.x[:n], relaxation=np.full(m, y),
                             lp_objective=max(0.0, sol.objective))


def detect_infeasible_stationary(feas: FeasibilityResult,
                                 violation: float) -> bool:
    """Numerical version of "p = 0 with positive residual violation".

    When the minimizing p is non-unique an interior-point solver returns a
    centered solution, so the equivalent certificate "the LP cannot reduce
    the linearized violation" is accepted as well. INFEAS_TOL_V must sit
    above the interior-point solver's objective noise floor or near-feasible
    points get flagged.
    """
    if violation <= INFEAS_TOL_V:
        return False
    if np.linalg.norm(feas.p) <= INFEAS_TOL_P:
        return True
    return (violation - feas.lp_objective
            <= INFEAS_TOL_V * max(1.0, violation))


@dataclass
class RobustStepResult:
    d: np.ndarray
    delta_c: float


def direction_step(g_S, H: Optional[np.ndarray], c_E, c_I, J_E, J_I,
                   relaxation, sigma_d: float, mode: str, violation: float,
                   lp_objective: float,
                   counters: Optional[Counters] = None) -> RobustStepResult:
    """QP minimizing the quadratic objective model subject to the relaxed
    linearized constraints and ||d|| <= sigma_d. H defaults to the identity;
    `relaxation` is a per-constraint array or one value for all."""
    prog = _linearized_program(c_E, c_I, J_E, J_I, sigma_d, mode, g_S=g_S,
                               H=H, relaxation=relaxation)
    sol = _solve(prog, "direction QP", counters)
    return RobustStepResult(d=sol.x[:J_E.shape[1]],
                            delta_c=max(0.0, violation - lp_objective))


def trial_tau_ineq(gTd: float, dHd: float, delta_c: float,
                   eps_sigma: float) -> float:
    # at a feasible point the QP optimality conditions make this sum exactly
    # zero; the interior-point solve leaves noise at the 1e-6 relative scale
    denom = gTd + dHd
    if denom <= 1e-5 * (abs(gTd) + abs(dHd)):
        return np.inf
    return (1.0 - eps_sigma) * max(delta_c, 0.0) / denom


def update_tau_ineq(tau_prev: float, tau_tr: float, eps_tau: float) -> float:
    if tau_prev <= tau_tr:
        tau = tau_prev
    else:
        tau = min((1.0 - eps_tau) * tau_prev, tau_tr)
    if tau < TAU_FLOOR:
        raise MeritCollapse(f"merit parameter collapsed to {tau:g}")
    return tau


@dataclass
class RobustSqpConfig:
    """Line-search and merit constants are shared with the equality solver
    (`sqp_eq.EPS_SIGMA` and the rest)."""
    mode: str = LINF


@dataclass
class RobustInnerContext:
    x: np.ndarray
    F_S: float
    g_S: np.ndarray
    c_E: np.ndarray
    c_I: np.ndarray
    J_E: np.ndarray
    J_I: np.ndarray
    tau_prev: float
    hessian: Optional[LbfgsModel] = None  # None means identity


@dataclass
class RobustOutcome:
    kind: str  # "updated" | "infeasible_stationary" | "terminated"
    ctx: RobustInnerContext
    step: Optional[RobustStepResult] = None
    alpha: float = 0.0


def merit_value(F_S: float, c_E, c_I, tau: float, mode: str) -> float:
    v_inf, v_l1 = violation_norms(c_E, c_I)
    return tau * F_S + (v_inf if mode == LINF else v_l1)


def robust_inner_iteration(ctx: RobustInnerContext, config: RobustSqpConfig,
                           evaluator: Evaluator,
                           termination_check: Callable[[float], bool],
                           counters: Optional[Counters] = None) -> RobustOutcome:
    """One robust-SQP iteration: feasibility LP, infeasible-stationary check,
    direction QP, termination probe on ||d|| before any update, then merit
    update, line search, and the iterate update."""
    n = ctx.x.size
    v_inf, v_l1 = violation_norms(ctx.c_E, ctx.c_I)
    violation = v_inf if config.mode == LINF else v_l1
    sigma_p, sigma_d = sigma_bounds(v_inf, v_l1, config.mode, n)

    feas = feasibility_step(ctx.c_E, ctx.c_I, ctx.J_E, ctx.J_I, sigma_p,
                            config.mode, counters=counters)
    if detect_infeasible_stationary(feas, violation):
        return RobustOutcome(kind="infeasible_stationary", ctx=ctx)

    H = None if ctx.hessian is None else ctx.hessian.as_matrix()
    step = direction_step(ctx.g_S, H, ctx.c_E, ctx.c_I, ctx.J_E, ctx.J_I,
                          feas.relaxation, sigma_d, config.mode, violation,
                          feas.lp_objective, counters=counters)
    d = step.d

    if termination_check(float(np.linalg.norm(d))):
        return RobustOutcome(kind="terminated", ctx=ctx, step=step)

    gTd = float(ctx.g_S @ d)
    dHd = float(d @ d) if H is None else float(d @ (H @ d))
    tau_tr = trial_tau_ineq(gTd, dHd, step.delta_c, EPS_SIGMA)
    tau = update_tau_ineq(ctx.tau_prev, tau_tr, EPS_TAU)

    delta_l = -tau * gTd + step.delta_c
    phi0 = merit_value(ctx.F_S, ctx.c_E, ctx.c_I, tau, config.mode)

    def merit_eval(alpha):
        xt = ctx.x + alpha * d
        cE, cI, _, _ = evaluator.constraints(xt)
        return merit_value(evaluator.value(xt), cE, cI, tau, config.mode)

    alpha = armijo_backtrack(merit_eval, phi0, delta_l, ETA, EPS_ALPHA,
                             ALPHA_MIN)

    x_new = ctx.x + alpha * d
    F_new, g_new = evaluator.value_grad(x_new)
    cE, cI, JE, JI = evaluator.constraints(x_new)

    hessian = ctx.hessian
    if hessian is not None:
        # pairs from objective-gradient differences; no duals in this solver
        hessian = lbfgs_update(hessian, x_new - ctx.x, g_new - ctx.g_S)

    new_ctx = RobustInnerContext(x=x_new, F_S=F_new, g_S=g_new, c_E=cE,
                                 c_I=cI, J_E=JE, J_I=JI, tau_prev=tau,
                                 hessian=hessian)
    return RobustOutcome(kind="updated", ctx=new_ctx, step=step, alpha=alpha)
