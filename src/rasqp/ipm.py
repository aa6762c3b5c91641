"""Dense primal-dual interior-point solver for the LPs and convex QPs
arising in robust-SQP subproblems and the KKT-residual metric. A program
is min 1/2 x'Hx + g'x s.t. Cx <= d, passed to `solve_program` as its four
arrays (g, C, d, H). The one QP, the robust direction QP, comes here only
as `sqp_ineq.direction_step`'s fallback: for equality rows, a binding norm
ball, a singular working set or its loop cap.

A single Mehrotra-style predictor-corrector path handles both LPs (zero
Hessian plus a tiny diagonal regularization) and QPs, so iteration counts
are comparable across subproblem families.

The Newton systems are factored by scipy's LAPACK Cholesky routines, which
the first `solve_program` call imports: importing rasqp, and any solve that
sets up no interior-point program, needs numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .counters import Counters
from .errors import NumericalFailure

_REG = 1e-10          # diagonal regularization (makes pure LPs nonsingular)
_DIVERGE = 1e8        # dual blow-up threshold for infeasibility detection
_FRACTION = 0.995     # fraction-to-boundary
_TOL = 1e-9           # residual and complementarity tolerance, relative
_MAX_ITER = 100       # barrier iterations before status "max_iter"

# LAPACK's Cholesky factor and solve, bound by the first solve; module names,
# so that a caller can replace either before or after that
dpotrf = dpotrs = None


def _bind_lapack():
    global dpotrf, dpotrs
    from scipy.linalg import lapack
    dpotrf = dpotrf or lapack.dpotrf
    dpotrs = dpotrs or lapack.dpotrs


@dataclass
class ProgramSolution:
    x: np.ndarray
    objective: float
    iterations: int
    status: str  # "optimal" | "infeasible" | "max_iter"


def solve_program(g, C, d, H=None,
                  counters: Optional[Counters] = None) -> ProgramSolution:
    """min 1/2 x'Hx + g'x  s.t.  Cx <= d, by Mehrotra predictor-corrector
    on Cx + s = d, s >= 0.

    H is symmetric PSD (None for an LP). A simple bound is a row of C like
    any other; at least one row is required. Iterations are added to the
    barrier counter. The status is "optimal" once the mean complementarity
    and both residuals are within the relative tolerance: _TOL (1 + |g|)
    for a QP, given H, and _TOL (1 + max(|g|, |d|)) for an LP (max norms).
    Otherwise it is "infeasible" as soon as the largest dual iterate
    exceeds _DIVERGE, a test of the duals alone (the primal residual is
    not checked), and "max_iter" after _MAX_ITER iterations.
    """
    g = np.asarray(g, dtype=float)
    C = np.asarray(C, dtype=float)
    d = np.asarray(d, dtype=float)
    n, q = len(g), C.shape[0]
    if not q:
        raise ValueError("a program needs at least one row of C")
    # a QP's tolerance is on its gradient's scale; an LP's also on the
    # bounds', whose dual residual carries _REG x
    scale = np.abs(g).max() if H is not None else max(np.abs(g).max(),
                                                       np.abs(d).max())
    H = np.zeros((n, n)) if H is None else np.asarray(H, dtype=float)
    if dpotrf is None or dpotrs is None:
        _bind_lapack()

    x = np.zeros(n)
    # s and z are the halves of one array, and the step is one array
    # [dx, ds, dz]: one ratio test sizes both step lengths, one check the step
    v = np.concatenate((np.maximum(1.0, np.abs(d)), np.ones(q)))
    s, z = v[:q], v[q:]
    step = np.empty(n + 2 * q)
    dx, dv, ds, dz = step[:n], step[n:], step[n:n + q], step[n + q:]
    tol = _TOL * (1.0 + scale)

    Hreg, Ct = H + _REG * np.eye(n), C.T
    status = "max_iter"
    for it in range(_MAX_ITER):
        rd = Hreg @ x + g + Ct @ z
        ri = C @ x + s - d
        mu = float(s @ z / q)
        if mu <= tol and max(np.abs(rd).max(), np.abs(ri).max()) <= tol:
            status = "optimal"
            break
        if z.max() > _DIVERGE:  # z > 0 by fraction-to-boundary
            status = "infeasible"
            break

        # Newton matrix with the inequalities eliminated through the slacks;
        # SPD, so one Cholesky factor serves predictor and corrector
        M = Hreg + Ct @ ((z / s)[:, None] * C)
        factor, info = dpotrf(M)
        nrd, nri, zri, sz = -rd, -ri, z * ri, s * z

        def newton(t):
            # t is the complementarity target vector (length q)
            rhs = nrd - Ct @ ((t + zri) / s)
            if info == 0:
                dx[:] = dpotrs(factor, rhs)[0]
            else:
                # not numerically positive definite when the optimal face
                # is a subspace; take the minimum-norm Newton step instead
                dx[:] = np.linalg.lstsq(M, rhs, rcond=None)[0]
            np.subtract(nri, C @ dx, out=ds)
            np.divide(t - z * ds, s, out=dz)

        # predictor
        newton(-sz)
        a_p, a_d = _step_lengths(v, dv)
        mu_aff = float((s + a_p * ds) @ (z + a_d * dz) / q)
        sigma = (mu_aff / mu) ** 3 if mu > 0 else 0.0
        # corrector
        newton(-sz - ds * dz + sigma * mu)
        a_p, a_d = (_FRACTION * a for a in _step_lengths(v, dv))

        if not np.isfinite(step).all():
            raise NumericalFailure("interior-point step is non-finite")
        x += a_p * dx
        s += a_p * ds
        z += a_d * dz
    else:
        it = _MAX_ITER

    if counters is not None:
        counters.barrier_iters += it

    obj = float(0.5 * x @ (H @ x) + g @ x)
    return ProgramSolution(x=x, objective=obj, iterations=it, status=status)


def _step_lengths(v, dv):
    """The largest steps in [0, 1] that keep each half of v + alpha dv
    nonnegative: [primal, dual] for v = [s, z]."""
    ratio = np.full(v.size, -np.inf)
    np.divide(v, dv, out=ratio, where=dv < 0)
    return [min(1.0, -r) for r in ratio.reshape(2, -1).max(axis=1).tolist()]


def kkt_residual(grad_f: np.ndarray, c_I: np.ndarray, J_E: np.ndarray,
                 J_I: np.ndarray,
                 counters: Optional[Counters] = None):
    """(t, lam): the smallest t such that some multipliers put the
    stationarity residual and the complementarity products within t in the
    max norm, and such multipliers lam = (lambda_E, lambda_I), of shape
    (m_E + m_I,), with lambda_I >= 0.

    Solved as an LP over (t, lambda_E, lambda_I) with the max-norm
    constraints expanded into paired inequalities. The arrays come in the
    form `problems.eval_constraints` returns, with grad_f of shape (n,).
    """
    n, m_E, m_I = grad_f.size, J_E.shape[0], J_I.shape[0]

    nv = 1 + m_E + m_I  # [t, lambda_E, lambda_I]
    # |grad_f + J_E' lam_E + J_I' lam_I| <= t and |lam_I * c_I| <= t,
    # componentwise, then t >= 0 and lambda_I >= 0; the objective is t
    t = np.eye(1, nv)
    stat = np.zeros((n, nv))
    stat[:, 1:1 + m_E] = J_E.T
    stat[:, 1 + m_E:] = J_I.T
    comp = np.zeros((m_I, nv))
    comp[np.arange(m_I), 1 + m_E + np.arange(m_I)] = c_I
    bounded = np.r_[0, 1 + m_E:nv]
    C = np.vstack([stat - t, -stat - t, comp - t, -comp - t,
                   -np.eye(nv)[bounded]])
    d = np.concatenate([-grad_f, grad_f, np.zeros(2 * m_I + bounded.size)])
    sol = solve_program(t[0], C, d, counters=counters)
    if sol.status != "optimal":
        raise NumericalFailure(f"KKT-residual LP ended with status {sol.status}")
    return max(0.0, float(sol.x[0])), sol.x[1:]
