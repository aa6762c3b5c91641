"""Interior-point LP/QP solver tests against brute-force enumeration
oracles, and the KKT-residual metric."""

import itertools

import numpy as np

from rasqp import ipm
from rasqp.counters import Counters
from rasqp.ipm import ConvexProgram, kkt_residual, solve_program
from rasqp.sqp_eq import L1, LINF, violation_norms
from rasqp.sqp_ineq import _linearized_program, feasibility_step, sigma_bounds


def brute_force_qp(H, g, C, d, tol=1e-9):
    """Enumerate active sets of C x <= d for min 1/2 x'Hx + g'x; returns the
    best feasible KKT point. Small n only."""
    n = len(g)
    q = C.shape[0]
    best = None
    for r in range(0, min(q, n) + 1):
        for rows in itertools.combinations(range(q), r):
            A = C[list(rows)]
            K = np.zeros((n + r, n + r))
            K[:n, :n] = H
            K[:n, n:] = A.T
            K[n:, :n] = A
            rhs = np.concatenate([-g, d[list(rows)]])
            try:
                sol = np.linalg.lstsq(K, rhs, rcond=None)[0]
            except np.linalg.LinAlgError:
                continue
            x, mu = sol[:n], sol[n:]
            if np.linalg.norm(K @ sol - rhs) > 1e-7:
                continue
            if np.any(C @ x - d > tol * 100) or np.any(mu < -1e-7):
                continue
            val = 0.5 * x @ (H @ x) + g @ x
            if best is None or val < best[1] - 1e-12:
                best = (x, val)
    return best


def check_against_oracle():
    """Random LPs and QPs, each solved and compared with brute_force_qp."""
    rng = np.random.default_rng(5)
    checked = 0
    for _ in range(200):
        is_qp = rng.random() < 0.5
        if is_qp:
            # strictly convex objective keeps the problem bounded
            n = int(rng.integers(1, 7))
            q = int(rng.integers(1, 7))
            A = rng.standard_normal((n, n))
            H = A @ A.T + 0.5 * np.eye(n)
            C = rng.standard_normal((q, n))
            d = rng.uniform(0.1, 1.0, q)
        else:
            # LPs need a bounded feasible set, via box rows
            n = int(rng.integers(1, 4))
            q = int(rng.integers(1, 4))
            H = np.zeros((n, n))
            C = np.vstack([rng.standard_normal((q, n)), np.eye(n),
                           -np.eye(n)])
            d = np.concatenate([rng.uniform(0.1, 1.0, q),
                                np.full(2 * n, 3.0)])
        g = rng.standard_normal(n)
        oracle = brute_force_qp(H, g, C, d)
        if oracle is None:
            continue
        prog = ConvexProgram(g=g, H=H if is_qp else None, A_in=C, b_in=d)
        sol = solve_program(prog)
        assert sol.status == "optimal"
        assert abs(sol.objective - oracle[1]) <= 1e-6 * max(
            1.0, abs(oracle[1]))
        checked += 1
    assert checked >= 150


class TestSolveProgram:
    def test_box_lp(self):
        prog = ConvexProgram(g=np.array([1.0, -1.0]),
                             lower=np.array([-1.0, -1.0]),
                             upper=np.array([1.0, 1.0]))
        sol = solve_program(prog)
        assert sol.status == "optimal"
        np.testing.assert_allclose(sol.x, [-1.0, 1.0], atol=1e-7)

    def test_qp_with_active_bound(self):
        prog = ConvexProgram(g=np.array([-1.0]), H=np.array([[1.0]]),
                             upper=np.array([0.5]))
        sol = solve_program(prog)
        np.testing.assert_allclose(sol.x, [0.5], atol=1e-7)

    def test_infeasible_detected(self):
        prog = ConvexProgram(g=np.array([0.0]),
                             A_in=np.array([[1.0], [-1.0]]),
                             b_in=np.array([-1.0, -1.0]))
        sol = solve_program(prog)
        assert sol.status == "infeasible"

    def test_matches_enumeration_oracle(self):
        check_against_oracle()

    def test_lstsq_fallback_matches_oracle(self, monkeypatch):
        # every factorization reports failure, so each Newton step is the
        # minimum-norm least-squares one
        calls = []

        def failing(M):
            calls.append(M.shape)
            return M, 1

        monkeypatch.setattr(ipm, "dpotrf", failing)
        check_against_oracle()
        assert calls

    def test_barrier_counter(self):
        ct = Counters()
        prog = ConvexProgram(g=np.array([1.0]), lower=np.array([0.0]))
        sol = solve_program(prog, counters=ct)
        assert ct.barrier_iters == sol.iterations > 0


class TestKktResidual:
    def test_stationary_point(self):
        # min x1^2 + x2^2 s.t. x1 + x2 = 2 at (1,1): grad (2,2), J_E (1,1)
        t = kkt_residual(np.array([1.0, 1.0]), np.array([2.0, 2.0]),
                         np.zeros(0), np.array([[1.0, 1.0]]),
                         np.zeros((0, 2)))
        assert t <= 1e-6

    def test_unconstrained_nonstationary(self):
        t = kkt_residual(np.array([0.0]), np.array([1.0]), np.zeros(0),
                         np.zeros((0, 1)), np.zeros((0, 1)))
        np.testing.assert_allclose(t, 1.0, atol=1e-7)

    def test_active_inequality_cancels(self):
        # min x s.t. -x <= 0 at x = 0: grad 1, J_I = [-1], lambda = 1 -> t = 0
        t = kkt_residual(np.array([0.0]), np.array([1.0]), np.array([0.0]),
                         np.zeros((0, 1)), np.array([[-1.0]]))
        assert t <= 1e-6

    def test_inactive_inequality_complementarity(self):
        # strictly feasible c_I = -1: any multiplier mass costs |lam| in the
        # complementarity rows, so the optimum balances both terms
        t = kkt_residual(np.array([0.0]), np.array([1.0]), np.array([-1.0]),
                         np.zeros((0, 1)), np.array([[-1.0]]))
        np.testing.assert_allclose(t, 0.5, atol=1e-6)

    def test_constructed_kkt_points(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            m_e = int(rng.integers(0, 2))
            m_i = int(rng.integers(1, 4))
            J_E = rng.standard_normal((m_e, n))
            J_I = rng.standard_normal((m_i, n))
            lam_e = rng.standard_normal(m_e)
            lam_i = rng.uniform(0.1, 2.0, m_i)
            # choose the gradient so stationarity holds exactly and make all
            # inequalities active so complementarity is free
            grad = -(J_E.T @ lam_e + J_I.T @ lam_i)
            c_I = np.zeros(m_i)
            t = kkt_residual(np.zeros(n), grad, c_I, J_E, J_I)
            assert t <= 1e-6


def regression_set():
    """(iterations, status) of solve_program on a fixed seeded set:
    feasibility LPs and direction QPs from sqp_ineq._linearized_program in
    both norm modes (some with c_E entries exactly 0, some at feasible
    points), each QP relaxed by its LP's solution and half of them given a
    non-identity Hessian block, plus KKT-residual LPs."""
    rng = np.random.default_rng(11)
    out = {}
    for k in range(12):
        mode = (LINF, L1)[k % 2]
        n = (3, 10, 30)[k % 3]
        m_E, m_I = int(rng.integers(1, 3)), int(rng.integers(1, 4))
        J_E = rng.standard_normal((m_E, n))
        J_I = rng.standard_normal((m_I, n))
        c_E = rng.standard_normal(m_E)
        c_E[:k % 3] = 0.0
        c_I = rng.standard_normal(m_I)
        if k % 3 == 2:
            c_I = -np.abs(c_I)
        g = rng.standard_normal(n)
        B = rng.standard_normal((n, n))
        H = None if k % 4 < 2 else B @ B.T / n + 0.1 * np.eye(n)
        v_inf, v_l1 = violation_norms(c_E, c_I)
        sigma_p, sigma_d = sigma_bounds(v_inf, v_l1, mode, n)
        lp = solve_program(_linearized_program(c_E, c_I, J_E, J_I, sigma_p,
                                               mode))
        out[f"lp-{mode}-{k}"] = (lp.iterations, lp.status)
        feas = feasibility_step(c_E, c_I, J_E, J_I, sigma_p, mode)
        prog = _linearized_program(c_E, c_I, J_E, J_I, sigma_d, mode, g_S=g,
                                   relaxation=feas.relaxation)
        if H is not None:
            prog.H[:n, :n] = H
        qp = solve_program(prog)
        out[f"qp-{mode}-{k}"] = (qp.iterations, qp.status)
    for k in range(6):
        n = (3, 10, 30)[k % 3]
        m_E, m_I = k % 2, 1 + k % 3
        J_E = rng.standard_normal((m_E, n))
        J_I = rng.standard_normal((m_I, n))
        c_I = -rng.uniform(0.0, 1.0, m_I)
        c_I[0] = 0.0
        grad = rng.standard_normal(n)
        if k >= 3:
            # near a KKT point
            grad = 1e-3 * grad - (J_E.T @ rng.standard_normal(m_E)
                                  + J_I.T @ rng.uniform(0.1, 2.0, m_I))
        ct = Counters()
        # kkt_residual raises on any status but "optimal"
        kkt_residual(np.zeros(n), grad, c_I, J_E, J_I, counters=ct)
        out[f"kkt-{k}"] = (ct.barrier_iters, "optimal")
    return out


# the counts do not depend on how the Newton system is factored (a
# Bunch-Kaufman solve gives the same); a change to any of them is an
# algorithm change
PINNED = {
    "lp-linf-0": (4, "optimal"), "qp-linf-0": (5, "optimal"),
    "lp-l1-1": (4, "optimal"), "qp-l1-1": (8, "optimal"),
    "lp-linf-2": (4, "optimal"), "qp-linf-2": (4, "optimal"),
    "lp-l1-3": (6, "optimal"), "qp-l1-3": (6, "optimal"),
    "lp-linf-4": (4, "optimal"), "qp-linf-4": (6, "optimal"),
    "lp-l1-5": (4, "optimal"), "qp-l1-5": (5, "optimal"),
    "lp-linf-6": (4, "optimal"), "qp-linf-6": (6, "optimal"),
    "lp-l1-7": (5, "optimal"), "qp-l1-7": (6, "optimal"),
    "lp-linf-8": (4, "optimal"), "qp-linf-8": (7, "optimal"),
    "lp-l1-9": (8, "optimal"), "qp-l1-9": (8, "optimal"),
    "lp-linf-10": (4, "optimal"), "qp-linf-10": (5, "optimal"),
    "lp-l1-11": (4, "optimal"), "qp-l1-11": (6, "optimal"),
    "kkt-0": (6, "optimal"), "kkt-1": (7, "optimal"),
    "kkt-2": (8, "optimal"), "kkt-3": (8, "optimal"),
    "kkt-4": (7, "optimal"), "kkt-5": (9, "optimal"),
}


def test_iterations_and_status_pinned():
    assert regression_set() == PINNED
