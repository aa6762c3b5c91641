"""The robust-SQP method for general constraints: feasibility LP,
direction QP, infeasible-stationary detection and the merit-parameter rule,
in both max-norm and 1-norm modes. The driver's robust progress probe
solves the two subproblems; `robust_inner_iteration` takes the step."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .counters import Counters
from .errors import MeritCollapse, NumericalFailure
from .ipm import ConvexProgram, solve_program
from .sqp_eq import (EPS_SIGMA, EPS_TAU, L1, LINF, Evaluator, InnerContext,
                     line_search_step)
# nothing here calls these two; perfbench/layers.py TARGETS wraps them by
# this module's names, so they stay importable until the benchmark drops them
from .linalg import lbfgs_update  # noqa: F401
from .sqp_eq import armijo_backtrack  # noqa: F401

# infeasible-stationary certificate: a step norm that counts as p = 0, and
# a violation tolerance above the interior-point objective noise floor
INFEAS_TOL_P = 1e-9
INFEAS_TOL_V = 1e-5
TAU_FLOOR = 1e-12    # a smaller merit parameter raises MeritCollapse


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
                        g_S=None, relaxation=None) -> ConvexProgram:
    """The feasibility LP (no relaxation given) or the direction QP.

    Variables are [p, t (l1 only), y (LP only)]. The rows are +J_E, -J_E,
    J_I, each relaxed by y in the LP (one shared y in linf, one per
    constraint in l1) or by the given relaxation in the QP, then in l1 mode
    +-p - t <= 0 and sum t <= sigma. In linf mode |p| <= sigma is a bound;
    t and y are nonnegative. The LP minimizes sum y, the QP the objective
    model with gradient g_S and the identity Hessian.
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
        Hfull[:n, :n] = np.eye(n)
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


def direction_step(g_S, c_E, c_I, J_E, J_I, relaxation, sigma_d: float,
                   mode: str, violation: float, lp_objective: float,
                   counters: Optional[Counters] = None) -> RobustStepResult:
    """QP minimizing the quadratic objective model g_S'd + d'd/2 subject to
    the relaxed linearized constraints and ||d|| <= sigma_d; `relaxation`
    is a per-constraint array or one value for all."""
    prog = _linearized_program(c_E, c_I, J_E, J_I, sigma_d, mode, g_S=g_S,
                               relaxation=relaxation)
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


def robust_inner_iteration(ctx: InnerContext, mode: str,
                           evaluator: Evaluator, step: RobustStepResult):
    """One robust-SQP update along the probe's direction step: the merit
    parameter rule, then the shared line search on the `mode` merit, with
    no dual step. Returns (new context, alpha).

    Raises MeritCollapse or LineSearchFailure, which the outer loop treats
    as a signal to resample.
    """
    d = step.d
    gTd = float(ctx.g_S @ d)
    tau_tr = trial_tau_ineq(gTd, float(d @ d), step.delta_c, EPS_SIGMA)
    tau = update_tau_ineq(ctx.tau_prev, tau_tr, EPS_TAU)
    delta_l = -tau * gTd + step.delta_c
    return line_search_step(ctx, d, 0.0, tau, delta_l, evaluator, mode)
