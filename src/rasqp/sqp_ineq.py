"""The robust-SQP method for general constraints: feasibility LP,
direction QP and the merit-parameter rule, in both max-norm and 1-norm
modes. One builder writes both subproblems as the arrays (g, C, d, H) that
`ipm.solve_program` takes, and the mode's violation is
`sqp_eq.violation`. An inequality-only feasibility LP whose minimum-norm
linearized step fits the norm ball has objective 0, and `feasibility_step`
returns that answer without the interior point. The driver's robust
progress probe solves the two subproblems, and certifies an infeasible
stationary point from the LP by the rule both solvers share,
`sqp_eq.keeps_violation`; `robust_inner_iteration` takes the step."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .counters import Counters
from .errors import MeritCollapse, NumericalFailure
from .ipm import solve_program
from .sqp_eq import (EPS_SIGMA, EPS_TAU, L1, LINF, Evaluator, InnerContext,
                     line_search_step)
# nothing here calls these two; perfbench/layers.py TARGETS wraps them by
# this module's names, so they stay importable until the benchmark drops them
from .linalg import lbfgs_update  # noqa: F401
from .sqp_eq import armijo_backtrack  # noqa: F401

TAU_FLOOR = 1e-12    # a smaller merit parameter raises MeritCollapse


def sigma_bounds(violation: float, mode: str, n: int):
    """Search-direction norm bounds proportional to the `mode` constraint
    violation, clipped to a fixed range (scaled by the dimension in 1-norm
    mode)."""
    if mode not in (LINF, L1):
        raise ValueError(f"unknown norm mode {mode!r}")
    scale = n if mode == L1 else 1
    sigma_p = float(np.clip(10.0 * violation, scale * 1e2, scale * 1e4))
    return sigma_p, 2.0 * sigma_p


@dataclass
class FeasibilityResult:
    """The feasibility LP's step p, relaxation y and objective: the
    interior point's answer, or the exact (p, 0, 0) of the certificate in
    `feasibility_step`."""
    p: np.ndarray
    relaxation: np.ndarray  # per constraint, ordered (E, I); shared y in linf
    lp_objective: float


def _linearized_program(c_E, c_I, J_E, J_I, sigma: float, mode: str,
                        g_S=None, relaxation=None):
    """The feasibility LP (no relaxation given) or the direction QP, as the
    arguments (g, C, d, H) of `solve_program`.

    Variables are [p, t (l1 only), y (LP only)]. The rows are +J_E, -J_E,
    J_I, each relaxed by y in the LP (one shared y in linf, one per
    constraint in l1) or by the given relaxation in the QP, then in l1 mode
    +-p - t <= 0 and sum t <= sigma. The simple bounds follow as rows,
    lower bounds (-x <= -lower) before upper ones: |p| <= sigma in linf
    mode, and t and y nonnegative. The LP minimizes sum y, the QP the
    objective model with gradient g_S and the identity Hessian.
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
    bound = np.eye(nv)
    if mode == L1:
        eye = np.eye(n)
        box = np.zeros((2 * n + 1, nv))
        box[:n, :n], box[n:2 * n, :n] = eye, -eye
        box[:2 * n, n:2 * n] = np.vstack([-eye, -eye])
        box[2 * n, n:2 * n] = 1.0
        rows = np.vstack([rows, box, -bound[n:]])
        rhs = np.concatenate([rhs, np.zeros(2 * n), [sigma],
                              np.zeros(nv - n)])
    else:
        rows = np.vstack([rows, -bound, bound[:n]])
        rhs = np.concatenate([rhs, np.full(n, sigma), np.zeros(nv - n),
                              np.full(n, sigma)])
    return g, rows, rhs, Hfull


def _solve(program: tuple, what: str, counters: Optional[Counters]):
    sol = solve_program(*program, counters=counters)
    if sol.status != "optimal":
        raise NumericalFailure(f"{what} ended with status {sol.status}")
    return sol


def feasibility_step(c_E, c_I, J_E, J_I, sigma_p: float, mode: str,
                     counters: Optional[Counters] = None) -> FeasibilityResult:
    """LP minimizing the linearized constraint violation within ||p|| <= sigma_p.

    With no equality rows, a J_I of full row rank and a min-norm solution p
    of J_I p = -c_I inside the `mode` ball, (p, y = 0) reaches the LP's
    lower bound 0: that answer is returned exact, with no barrier
    iteration. Every other program goes to the interior point, equality
    rows included, since y = 0 would leave each +-J_E pair of the
    direction QP with no interior."""
    if mode not in (LINF, L1):
        raise ValueError(f"unknown norm mode {mode!r}")
    if J_E.shape[0] == 0:
        p, _, rank, _ = np.linalg.lstsq(J_I, -c_I, rcond=None)
        if (rank == c_I.size and np.linalg.norm(
                p, np.inf if mode == LINF else 1) <= sigma_p):
            return FeasibilityResult(p=p, relaxation=np.zeros(c_I.size),
                                     lp_objective=0.0)
    prog = _linearized_program(c_E, c_I, J_E, J_I, sigma_p, mode)
    sol = _solve(prog, "feasibility LP", counters)
    n = J_E.shape[1]
    y = np.maximum(sol.x[n + (n if mode == L1 else 0):], 0.0)
    m = J_E.shape[0] + J_I.shape[0]
    return FeasibilityResult(p=sol.x[:n], relaxation=np.full(m, y),
                             lp_objective=max(0.0, sol.objective))


def direction_step(g_S, c_E, c_I, J_E, J_I, relaxation, sigma_d: float,
                   mode: str,
                   counters: Optional[Counters] = None) -> np.ndarray:
    """The step d of the QP minimizing the quadratic objective model
    g_S'd + d'd/2 subject to the relaxed linearized constraints and
    ||d|| <= sigma_d; `relaxation` is a per-constraint array or one value
    for all."""
    prog = _linearized_program(c_E, c_I, J_E, J_I, sigma_d, mode, g_S=g_S,
                               relaxation=relaxation)
    return _solve(prog, "direction QP", counters).x[:J_E.shape[1]]


def trial_tau_ineq(gTd: float, dHd: float, delta_c: float) -> float:
    # at a feasible point the QP optimality conditions make this sum exactly
    # zero; the interior-point solve leaves noise at the 1e-6 relative scale
    denom = gTd + dHd
    if denom <= 1e-5 * (abs(gTd) + abs(dHd)):
        return np.inf
    return (1.0 - EPS_SIGMA) * max(delta_c, 0.0) / denom


def update_tau_ineq(tau_prev: float, tau_tr: float) -> float:
    if tau_prev <= tau_tr:
        tau = tau_prev
    else:
        tau = min((1.0 - EPS_TAU) * tau_prev, tau_tr)
    if tau < TAU_FLOOR:
        raise MeritCollapse(f"merit parameter collapsed to {tau:g}")
    return tau


def robust_inner_iteration(ctx: InnerContext, d: np.ndarray, delta_c: float,
                           evaluator: Evaluator, config,
                           counters: Optional[Counters]):
    """One robust-SQP update along the probe's direction d (its step) with
    its linearized violation decrease delta_c = max(0, violation - LP
    objective) (its plan): the merit parameter rule, then the shared line
    search on the `config.norm` merit, with no dual step. It solves no
    subprogram, so `counters` goes unused. Returns (new context, alpha).

    Raises MeritCollapse or LineSearchFailure, which the outer loop treats
    as a signal to resample.
    """
    gTd = float(ctx.g_S @ d)
    tau_tr = trial_tau_ineq(gTd, float(d @ d), delta_c)
    tau = update_tau_ineq(ctx.tau_prev, tau_tr)
    delta_l = -tau * gTd + delta_c
    return line_search_step(ctx, d, 0.0, tau, delta_l, evaluator,
                            config.norm)
