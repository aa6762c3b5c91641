"""Dense/Krylov linear-algebra primitives: MINRES for symmetric indefinite
systems, a limited-memory BFGS Hessian-approximation operator, and the
least-squares dual estimator."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .counters import Counters
from .errors import NumericalFailure, RankDeficient

CURVATURE_THRESHOLD = 1e-8


def make_kkt_operator(h_apply: Callable, J: np.ndarray) -> Callable:
    """Product with the symmetric indefinite [[H, J^T], [J, 0]] on (d, delta)."""
    n = J.shape[1]

    def apply(z):
        d, delta = z[:n], z[n:]
        top = h_apply(d) + J.T @ delta
        bot = J @ d
        return np.concatenate([top, bot])

    return apply


@dataclass
class KrylovReport:
    solution: np.ndarray
    residual: np.ndarray  # b - A @ solution, formed once at exit
    iterations: int
    stop_reason: str  # "exact_tol" | "inexactness_accepted" | "max_iter"


def minres_solve(apply: Callable[[np.ndarray], np.ndarray], b: np.ndarray,
                 tol: float, max_iter: int,
                 acceptance: Optional[Callable] = None,
                 counters: Optional[Counters] = None) -> KrylovReport:
    """MINRES on a symmetric (possibly indefinite) system A z = b, where
    apply(v) returns A v.

    Stops at the first of: relative residual <= tol, acceptance callback
    returning True for the current iterate (checked every iteration with an
    explicitly recomputed residual vector, which is then the reported
    residual), or max_iter.
    """
    b = np.asarray(b, dtype=float)
    n = b.size
    x = np.zeros(n)

    beta1 = np.linalg.norm(b)
    if beta1 == 0.0:
        return KrylovReport(x, b.copy(), 0, "exact_tol")

    # Lanczos + QR recurrence (Paige & Saunders)
    r1 = b.copy()
    y = b.copy()
    beta = beta1
    oldb = 0.0
    dbar = 0.0
    epsln = 0.0
    phibar = beta1
    cs, sn = -1.0, 0.0
    w = np.zeros(n)
    w2 = np.zeros(n)
    r2 = r1.copy()

    itn = 0
    stop = "max_iter"
    while itn < max_iter:
        itn += 1
        v = y / beta
        y = apply(v)
        if itn >= 2:
            y -= (beta / oldb) * r1
        alfa = float(v @ y)
        y -= (alfa / beta) * r2
        r1, r2 = r2, y
        oldb, beta = beta, np.linalg.norm(y)
        if not np.isfinite(alfa) or not np.isfinite(beta):
            raise NumericalFailure("MINRES breakdown (non-finite recurrence)")

        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        gamma = max(np.hypot(gbar, beta), np.finfo(float).eps)
        cs, sn = gbar / gamma, beta / gamma
        phi = cs * phibar
        phibar = sn * phibar

        w1, w2 = w2, w
        w = (v - oldeps * w1 - delta * w2) / gamma
        x = x + phi * w

        if phibar <= tol * beta1:
            stop = "exact_tol"
            break
        if acceptance is not None:
            resid = b - apply(x)
            if acceptance(x, resid):
                stop = "inexactness_accepted"
                break
        if beta <= np.finfo(float).eps * beta1:
            # Krylov space exhausted; solution is as exact as it gets
            stop = "exact_tol" if phibar <= tol * beta1 else "max_iter"
            break

    if counters is not None:
        counters.minres_iters += itn
    if stop != "inexactness_accepted":
        resid = b - apply(x)
    return KrylovReport(x, resid, itn, stop)


# ------------------------------------------------------------------
# L-BFGS Hessian approximation (the B matrix, applied forward)
# ------------------------------------------------------------------

@dataclass
class LbfgsModel:
    """Limited-memory BFGS approximation B of the Lagrangian Hessian.

    B is built from gamma*I and the stored (s, y) pairs via the direct
    BFGS update; pairs failing the curvature test are skipped, which keeps
    B symmetric positive definite. `terms` holds (a_i, s_i'a_i, y_i,
    s_i'y_i) per pair, a_i = B_{i-1} s_i, so B v is a flat sum of rank-one
    terms; `lbfgs_update` builds them with the model.
    """
    dim: int
    capacity: int
    gamma: float = 1.0
    pairs: list = field(default_factory=list)
    terms: list = field(default_factory=list, repr=False)


def lbfgs_apply(model: LbfgsModel, v: np.ndarray) -> np.ndarray:
    q = model.gamma * v
    for a, sa, yv, sy in model.terms:
        q = q - (a @ v / sa) * a + (yv @ v / sy) * yv
    return q


def lbfgs_update(model: LbfgsModel, s: np.ndarray, y: np.ndarray) -> LbfgsModel:
    """Append (s, y) if it passes the curvature test; otherwise return the
    model unchanged. Accepted updates reset gamma to y'y / s'y."""
    s = np.asarray(s, dtype=float)
    y = np.asarray(y, dtype=float)
    sy = float(s @ y)
    if sy <= CURVATURE_THRESHOLD * np.linalg.norm(s) * np.linalg.norm(y):
        return model
    pairs = model.pairs[-(model.capacity - 1):] if model.capacity > 1 else []
    pairs = list(pairs) + [(s.copy(), y.copy())]
    gamma = float(y @ y) / sy
    terms = []
    for sp, yp in pairs:
        a = gamma * sp
        for aj, saj, yj, syj in terms:
            a = a - (aj @ sp / saj) * aj + (yj @ sp / syj) * yj
        terms.append((a, float(sp @ a), yp, float(sp @ yp)))
    return LbfgsModel(dim=model.dim, capacity=model.capacity, gamma=gamma,
                      pairs=pairs, terms=terms)


# ------------------------------------------------------------------
# least-squares dual estimate
# ------------------------------------------------------------------

def least_squares_dual(J: np.ndarray, g: np.ndarray,
                       c: Optional[np.ndarray] = None):
    """Multipliers minimizing ||g + J' lambda||: lambda = -(JJ')^{-1} J g.

    Returns (lambda, kkt_norm) where kkt_norm stacks the residual gradient
    with c when given.
    """
    J = np.asarray(J, dtype=float)
    g = np.asarray(g, dtype=float)
    M = J @ J.T
    if M.size and np.linalg.cond(M) > 1e12:
        raise RankDeficient("J J^T numerically singular")
    lam = -np.linalg.solve(M, J @ g) if M.size else np.zeros(0)
    resid = g + J.T @ lam
    if c is not None:
        kkt = float(np.linalg.norm(np.concatenate([resid, np.atleast_1d(c)])))
    else:
        kkt = float(np.linalg.norm(resid))
    return lam, kkt
