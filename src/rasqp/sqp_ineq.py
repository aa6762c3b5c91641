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
                     armijo_backtrack)

LINF = "linf"
L1 = "l1"


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
    relaxation: object  # float y (linf) or (y_E, y_I) arrays (l1)
    lp_objective: float


def feasibility_step(c_E, c_I, J_E, J_I, sigma_p: float, mode: str,
                     counters: Optional[Counters] = None) -> FeasibilityResult:
    """LP minimizing the linearized constraint violation within ||p|| <= sigma_p."""
    m_E, n = J_E.shape
    m_I = J_I.shape[0]
    if mode == LINF:
        # variables [p, y]
        nv = n + 1
        g = np.zeros(nv)
        g[-1] = 1.0
        rows, rhs = [], []
        ye = np.zeros((1, nv))
        ye[0, -1] = 1.0
        for sign in (1.0, -1.0):
            if m_E:
                R = np.zeros((m_E, nv))
                R[:, :n] = sign * J_E
                R[:, -1] = -1.0
                rows.append(R)
                rhs.append(-sign * c_E)
        if m_I:
            R = np.zeros((m_I, nv))
            R[:, :n] = J_I
            R[:, -1] = -1.0
            rows.append(R)
            rhs.append(-c_I)
        lower = np.full(nv, -sigma_p)
        upper = np.full(nv, sigma_p)
        lower[-1], upper[-1] = 0.0, np.inf
        prog = ConvexProgram(g=g,
                             A_in=np.vstack(rows) if rows else None,
                             b_in=np.concatenate(rhs) if rows else None,
                             lower=lower, upper=upper)
        sol = solve_program(prog, counters=counters)
        if sol.status != "optimal":
            raise NumericalFailure(
                f"feasibility LP ended with status {sol.status}")
        y = max(0.0, float(sol.x[-1]))
        return FeasibilityResult(p=sol.x[:n], relaxation=y,
                                 lp_objective=max(0.0, sol.objective))
    elif mode == L1:
        # variables [p, t, y_E, y_I]; t bounds |p| with sum t <= sigma_p
        nv = 2 * n + m_E + m_I
        g = np.zeros(nv)
        g[2 * n:] = 1.0
        rows, rhs = [], []
        for sign in (1.0, -1.0):
            if m_E:
                R = np.zeros((m_E, nv))
                R[:, :n] = sign * J_E
                R[np.arange(m_E), 2 * n + np.arange(m_E)] = -1.0
                rows.append(R)
                rhs.append(-sign * c_E)
        if m_I:
            R = np.zeros((m_I, nv))
            R[:, :n] = J_I
            R[np.arange(m_I), 2 * n + m_E + np.arange(m_I)] = -1.0
            rows.append(R)
            rhs.append(-c_I)
        for sign in (1.0, -1.0):
            R = np.zeros((n, nv))
            R[:, :n] = sign * np.eye(n)
            R[:, n:2 * n] = -np.eye(n)
            rows.append(R)
            rhs.append(np.zeros(n))
        R = np.zeros((1, nv))
        R[0, n:2 * n] = 1.0
        rows.append(R)
        rhs.append(np.array([sigma_p]))
        lower = np.full(nv, -np.inf)
        lower[n:] = 0.0
        prog = ConvexProgram(g=g, A_in=np.vstack(rows),
                             b_in=np.concatenate(rhs), lower=lower)
        sol = solve_program(prog, counters=counters)
        if sol.status != "optimal":
            raise NumericalFailure(
                f"feasibility LP ended with status {sol.status}")
        y_E = np.maximum(sol.x[2 * n:2 * n + m_E], 0.0)
        y_I = np.maximum(sol.x[2 * n + m_E:], 0.0)
        return FeasibilityResult(p=sol.x[:n], relaxation=(y_E, y_I),
                                 lp_objective=max(0.0, sol.objective))
    raise ValueError(f"unknown norm mode {mode!r}")


def detect_infeasible_stationary(feas: FeasibilityResult, violation: float,
                                 tol_p: float = 1e-9,
                                 tol_v: float = 1e-5) -> bool:
    """Numerical version of "p = 0 with positive residual violation".

    When the minimizing p is non-unique an interior-point solver returns a
    centered solution, so the equivalent certificate "the LP cannot reduce
    the linearized violation" is accepted as well. tol_v must sit above the
    interior-point solver's objective noise floor or near-feasible points
    get flagged.
    """
    if violation <= tol_v:
        return False
    if np.linalg.norm(feas.p) <= tol_p:
        return True
    return violation - feas.lp_objective <= tol_v * max(1.0, violation)


@dataclass
class RobustStepResult:
    d: np.ndarray
    delta_c: float


def direction_step(g_S, H: Optional[np.ndarray], c_E, c_I, J_E, J_I,
                   relaxation, sigma_d: float, mode: str, violation: float,
                   lp_objective: float,
                   counters: Optional[Counters] = None) -> RobustStepResult:
    """QP minimizing the quadratic objective model subject to the relaxed
    linearized constraints and ||d|| <= sigma_d. H defaults to the identity."""
    m_E, n = J_E.shape
    m_I = J_I.shape[0]
    Hm = np.eye(n) if H is None else np.asarray(H, dtype=float)

    if mode == LINF:
        y = float(relaxation)
        rows, rhs = [], []
        for sign in (1.0, -1.0):
            if m_E:
                rows.append(sign * J_E)
                rhs.append(y * np.ones(m_E) - sign * c_E)
        if m_I:
            rows.append(J_I)
            rhs.append(y * np.ones(m_I) - c_I)
        prog = ConvexProgram(g=np.asarray(g_S, float), H=Hm,
                             A_in=np.vstack(rows) if rows else None,
                             b_in=np.concatenate(rhs) if rows else None,
                             lower=np.full(n, -sigma_d),
                             upper=np.full(n, sigma_d))
        sol = solve_program(prog, counters=counters)
        if sol.status != "optimal":
            raise NumericalFailure(f"direction QP ended with status {sol.status}")
        d = sol.x
    elif mode == L1:
        y_E, y_I = relaxation
        nv = 2 * n
        Hfull = np.zeros((nv, nv))
        Hfull[:n, :n] = Hm
        g = np.zeros(nv)
        g[:n] = g_S
        rows, rhs = [], []
        for sign in (1.0, -1.0):
            if m_E:
                R = np.zeros((m_E, nv))
                R[:, :n] = sign * J_E
                rows.append(R)
                rhs.append(y_E - sign * c_E)
        if m_I:
            R = np.zeros((m_I, nv))
            R[:, :n] = J_I
            rows.append(R)
            rhs.append(y_I - c_I)
        for sign in (1.0, -1.0):
            R = np.zeros((n, nv))
            R[:, :n] = sign * np.eye(n)
            R[:, n:] = -np.eye(n)
            rows.append(R)
            rhs.append(np.zeros(n))
        R = np.zeros((1, nv))
        R[0, n:] = 1.0
        rows.append(R)
        rhs.append(np.array([sigma_d]))
        lower = np.full(nv, -np.inf)
        lower[n:] = 0.0
        prog = ConvexProgram(g=g, H=Hfull, A_in=np.vstack(rows),
                             b_in=np.concatenate(rhs), lower=lower)
        sol = solve_program(prog, counters=counters)
        if sol.status != "optimal":
            raise NumericalFailure(f"direction QP ended with status {sol.status}")
        d = sol.x[:n]
    else:
        raise ValueError(f"unknown norm mode {mode!r}")

    return RobustStepResult(d=d, delta_c=max(0.0, violation - lp_objective))


def trial_tau_ineq(gTd: float, dHd: float, delta_c: float,
                   eps_sigma: float) -> float:
    # at a feasible point the QP optimality conditions make this sum exactly
    # zero; the interior-point solve leaves noise at the 1e-6 relative scale
    denom = gTd + dHd
    if denom <= 1e-5 * (abs(gTd) + abs(dHd)):
        return np.inf
    return (1.0 - eps_sigma) * max(delta_c, 0.0) / denom


def update_tau_ineq(tau_prev: float, tau_tr: float, eps_tau: float,
                    tau_floor: float = 1e-12) -> float:
    if tau_prev <= tau_tr:
        tau = tau_prev
    else:
        tau = min((1.0 - eps_tau) * tau_prev, tau_tr)
    if tau < tau_floor:
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
class RobustEvaluator:
    value: Callable[[np.ndarray], float]
    value_grad: Callable[[np.ndarray], tuple]
    constraints: Callable[[np.ndarray], tuple]  # x -> (c_E, c_I, J_E, J_I)


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
                           evaluator: RobustEvaluator,
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
