"""Interior-point LP/QP solver tests against brute-force enumeration
oracles, and the KKT-residual metric."""

import itertools

import numpy as np

from rasqp.counters import Counters
from rasqp.ipm import ConvexProgram, kkt_residual, solve_program


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
