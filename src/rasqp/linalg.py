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


@dataclass
class SymmetricOperator:
    dim: int
    apply: Callable[[np.ndarray], np.ndarray]

    @staticmethod
    def from_matrix(A: np.ndarray) -> "SymmetricOperator":
        A = np.asarray(A, dtype=float)
        return SymmetricOperator(dim=A.shape[0], apply=lambda v: A @ v)


def make_kkt_operator(h_apply: Callable, J: np.ndarray) -> SymmetricOperator:
    """Symmetric indefinite operator [[H, J^T], [J, 0]] acting on (d, delta)."""
    m, n = J.shape

    def apply(z):
        d, delta = z[:n], z[n:]
        top = h_apply(d) + J.T @ delta
        bot = J @ d
        return np.concatenate([top, bot])

    return SymmetricOperator(dim=n + m, apply=apply)


@dataclass
class KrylovReport:
    solution: np.ndarray
    residual: np.ndarray  # b - A @ solution, formed once at exit
    iterations: int
    stop_reason: str  # "exact_tol" | "inexactness_accepted" | "max_iter"


def minres_solve(A: SymmetricOperator, b: np.ndarray, tol: float,
                 max_iter: int, acceptance: Optional[Callable] = None,
                 counters: Optional[Counters] = None) -> KrylovReport:
    """MINRES on a symmetric (possibly indefinite) system A z = b.

    Stops at the first of: relative residual <= tol, acceptance callback
    returning True for the current iterate (checked every iteration with an
    explicitly recomputed residual vector), or max_iter.
    """
    n = A.dim
    b = np.asarray(b, dtype=float)
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
        y = A.apply(v)
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
            resid = b - A.apply(x)
            if acceptance(x, resid):
                stop = "inexactness_accepted"
                break
        if beta <= np.finfo(float).eps * beta1:
            # Krylov space exhausted; solution is as exact as it gets
            stop = "exact_tol" if phibar <= tol * beta1 else "max_iter"
            break

    if counters is not None:
        counters.minres_iters += itn
    return KrylovReport(x, b - A.apply(x), itn, stop)


# ------------------------------------------------------------------
# L-BFGS Hessian approximation (the B matrix, applied forward)
# ------------------------------------------------------------------

@dataclass
class LbfgsModel:
    """Limited-memory BFGS approximation B of the Lagrangian Hessian.

    B is built from gamma*I and the stored (s, y) pairs via the direct
    BFGS update; pairs failing the curvature test are skipped, which keeps
    B symmetric positive definite.
    """
    dim: int
    capacity: int
    gamma: float = 1.0
    pairs: list = field(default_factory=list)
    _cache: Optional[list] = field(default=None, repr=False)

    def _refresh(self):
        # cache a_i = B_{i-1} s_i so apply() is a flat sum
        if self._cache is not None:
            return
        cache = []
        for s, yv in self.pairs:
            a = self.gamma * s
            for aj, saj, yj, syj in cache:
                a = a - (aj @ s / saj) * aj + (yj @ s / syj) * yj
            cache.append((a, float(s @ a), yv, float(s @ yv)))
        self._cache = cache

    def as_matrix(self) -> np.ndarray:
        eye = np.eye(self.dim)
        return np.column_stack([lbfgs_apply(self, eye[:, i]) for i in range(self.dim)])


def lbfgs_apply(model: LbfgsModel, v: np.ndarray) -> np.ndarray:
    model._refresh()
    q = model.gamma * v
    for a, sa, yv, sy in model._cache:
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
    return LbfgsModel(dim=model.dim, capacity=model.capacity,
                      gamma=float(y @ y) / sy, pairs=pairs)


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
