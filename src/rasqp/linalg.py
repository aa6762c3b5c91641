"""Dense/Krylov linear-algebra primitives: vector norms, MINRES for
symmetric indefinite systems, a limited-memory BFGS Hessian-approximation
operator, and the least-squares multipliers of a Jacobian of any rank."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .counters import Counters
from .errors import NumericalFailure

CURVATURE_THRESHOLD = 1e-8
EPS = float(np.finfo(float).eps)


def norm(v: np.ndarray, ord=None) -> float:
    """`np.linalg.norm(v, ord)` of a float array by the same reductions,
    without its dispatch: the 2-norm of a vector or the Frobenius norm of a
    matrix (ord None), or a vector's 1-norm or max-norm (ord 1 or inf)."""
    if ord is None:
        v = v.ravel(order="K")
        return math.sqrt(v.dot(v))
    a = np.abs(v)
    return float(a.sum() if ord == 1 else a.max())


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
    stop_reason: str  # "exact_tol", "max_iter" or the acceptance's name


def minres_solve(apply: Callable[[np.ndarray], np.ndarray], b: np.ndarray,
                 tol: float, max_iter: int,
                 acceptance: Optional[Callable] = None,
                 counters: Optional[Counters] = None) -> KrylovReport:
    """MINRES on a symmetric (possibly indefinite) system A z = b, where
    apply(v) returns A v.

    Stops at the first of: relative residual <= tol ("exact_tol"), the
    acceptance callback `acceptance(z, resid)` returning a name rather
    than None for the current iterate (checked every iteration with an
    explicitly recomputed residual vector, which is then the reported
    residual; the name is the stop reason), or max_iter ("max_iter").
    """
    b = np.asarray(b, dtype=float)
    n = b.size
    x = np.zeros(n)

    beta1 = math.sqrt(float(b @ b))
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
    accepted = None
    while itn < max_iter:
        itn += 1
        v = y / beta
        y = apply(v)
        if itn >= 2:
            y -= (beta / oldb) * r1
        alfa = float(v @ y)
        y -= (alfa / beta) * r2
        r1, r2 = r2, y
        oldb, beta = beta, math.sqrt(float(y @ y))
        if not math.isfinite(alfa) or not math.isfinite(beta):
            raise NumericalFailure("MINRES breakdown (non-finite recurrence)")

        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        gamma = max(float(np.hypot(gbar, beta)), EPS)
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
            accepted = acceptance(x, resid)
            if accepted is not None:
                stop = accepted
                break
        if beta <= EPS * beta1:
            # Krylov space exhausted short of the tolerance
            break

    if counters is not None:
        counters.minres_iters += itn
    if accepted is None:
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
    B symmetric positive definite. The p stored pairs are the rows of S and
    Y (p x n); row i of A is a_i = B_{i-1} s_i, sa = diag(S A') and
    sy = diag(S Y'), so B v = gamma v - ((A v)/sa) A + ((Y v)/sy) Y, the
    compact form of Byrd, Nocedal and Schnabel (1994). `lbfgs_update`
    builds A, sa and sy with the model.
    """
    dim: int
    capacity: int
    gamma: float = 1.0
    S: Optional[np.ndarray] = None
    Y: Optional[np.ndarray] = None
    A: Optional[np.ndarray] = field(default=None, repr=False)
    sa: Optional[np.ndarray] = field(default=None, repr=False)
    sy: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self):
        if self.S is None:
            # no pair yet: every stack has zero rows and B = gamma I
            self.S = self.Y = self.A = np.zeros((0, self.dim))
            self.sa = self.sy = np.zeros(0)


def lbfgs_apply(model: LbfgsModel, v: np.ndarray) -> np.ndarray:
    A, Y = model.A, model.Y
    return (model.gamma * v - ((A @ v) / model.sa) @ A
            + ((Y @ v) / model.sy) @ Y)


def lbfgs_update(model: LbfgsModel, s: np.ndarray, y: np.ndarray) -> LbfgsModel:
    """Append (s, y) if it passes the curvature test; otherwise return the
    model unchanged. Accepted updates reset gamma to y'y / s'y and rebuild
    A and sa, since every a_i depends on gamma."""
    s = np.asarray(s, dtype=float)
    y = np.asarray(y, dtype=float)
    s_y = float(s @ y)
    if s_y <= CURVATURE_THRESHOLD * norm(s) * norm(y):
        return model
    first = max(model.S.shape[0] - (model.capacity - 1), 0)
    S = np.vstack([model.S[first:], s])
    Y = np.vstack([model.Y[first:], y])
    gamma = float(y @ y) / s_y
    sy = np.einsum("ij,ij->i", S, Y)
    A = np.empty_like(S)
    sa = np.empty(S.shape[0])
    for i, si in enumerate(S):
        A[i] = (gamma * si - ((A[:i] @ si) / sa[:i]) @ A[:i]
                + ((Y[:i] @ si) / sy[:i]) @ Y[:i])
        sa[i] = si @ A[i]
    return LbfgsModel(dim=model.dim, capacity=model.capacity, gamma=gamma,
                      S=S, Y=Y, A=A, sa=sa, sy=sy)


# ------------------------------------------------------------------
# least-squares multipliers
# ------------------------------------------------------------------

def least_squares_dual(J: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The minimum-norm lambda minimizing ||g + J' lambda||, for a J of any
    rank, with no rows included (lambda is then empty)."""
    return np.linalg.lstsq(J.T, -g, rcond=None)[0]
