"""Interior-point LP/QP solver tests against brute-force enumeration
oracles, and the KKT-residual metric."""

import hashlib
import itertools

import numpy as np
import pytest
from scipy.linalg.lapack import dpotrf

from rasqp import ipm
from rasqp.counters import Counters
from rasqp.errors import NumericalFailure
from rasqp.ipm import kkt_residual, solve_program
from rasqp.sqp_eq import L1, LINF, violation
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
        sol = solve_program(g, C, d, H=H if is_qp else None)
        assert sol.status == "optimal"
        assert abs(sol.objective - oracle[1]) <= 1e-6 * max(
            1.0, abs(oracle[1]))
        checked += 1
    assert checked >= 150


# -1 <= x <= 1 in two dimensions: the lower bound rows, then the upper
BOX_C, BOX_D = np.vstack([-np.eye(2), np.eye(2)]), np.ones(4)
# x <= -1 and -x <= -1
INFEASIBLE_C, INFEASIBLE_D = np.array([[1.0], [-1.0]]), np.array([-1.0, -1.0])


class TestSolveProgram:
    def test_box_lp(self):
        sol = solve_program(np.array([1.0, -1.0]), BOX_C, BOX_D)
        assert sol.status == "optimal"
        np.testing.assert_allclose(sol.x, [-1.0, 1.0], atol=1e-7)

    def test_qp_with_active_bound(self):
        sol = solve_program(np.array([-1.0]), np.array([[1.0]]),
                            np.array([0.5]), H=np.array([[1.0]]))
        np.testing.assert_allclose(sol.x, [0.5], atol=1e-7)

    def test_infeasible_detected(self):
        sol = solve_program(np.array([0.0]), INFEASIBLE_C, INFEASIBLE_D)
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

    def test_non_finite_step_raises(self, monkeypatch):
        # a Newton solve that returns NaN stops the barrier loop at once
        monkeypatch.setattr(ipm, "dpotrs",
                            lambda factor, rhs: (np.full_like(rhs, np.nan),
                                                 0))
        with pytest.raises(NumericalFailure, match="non-finite"):
            solve_program(np.array([1.0, -1.0]), BOX_C, BOX_D)

    def test_barrier_counter(self):
        ct = Counters()
        sol = solve_program(np.array([1.0]), np.array([[-1.0]]),
                            np.array([0.0]), counters=ct)
        assert ct.barrier_iters == sol.iterations > 0

    @pytest.mark.parametrize("status", ["optimal", "infeasible", "max_iter"])
    def test_iterations_are_newton_steps(self, monkeypatch, status):
        # every Newton step factors the Newton matrix once; a pass that
        # stops before its step is not an iteration, whatever the exit
        factored = []

        def counting(M):
            factored.append(M.shape)
            return dpotrf(M)

        monkeypatch.setattr(ipm, "dpotrf", counting)
        prog = (np.array([1.0, -1.0]), BOX_C, BOX_D)
        if status == "infeasible":
            prog = (np.array([0.0]), INFEASIBLE_C, INFEASIBLE_D)
        if status == "max_iter":
            monkeypatch.setattr(ipm, "_MAX_ITER", 2)
        ct = Counters()
        sol = solve_program(*prog, counters=ct)
        assert sol.status == status
        assert sol.iterations == ct.barrier_iters == len(factored) > 0


def max_step(v, dv):
    """The per-vector ratio test the stacked one replaces."""
    neg = dv < 0
    if not neg.any():
        return 1.0
    return min(1.0, float((-v[neg] / dv[neg]).min()))


@pytest.mark.parametrize("ds,dz", [
    # exact zeros of either sign never block a step
    ([0.0, -0.0, -0.5], [-0.0, 0.0, 0.0]),
    ([-0.0, -0.0, -0.0], [0.0, -2.0, -0.0]),
    # no negative entry in either half: full steps
    ([0.0, 1.0, 2.0], [3.0, -0.0, 0.5]),
    # every ratio above 1 in one half, so its step is clipped to 1
    ([-0.1, -0.2, 1.0], [-4.0, 4.0, -1e-3]),
    # ratios near the ends of the float range
    ([-1e300, 5.0, -1e-300], [-1e-300, -1e300, 7.0]),
])
def test_stacked_ratio_test_matches_each_half(ds, dz):
    s, z = np.array([0.5, 1.0, 2.0]), np.array([0.25, 3.0, 1e-3])
    ds, dz = np.array(ds), np.array(dz)
    got = ipm._step_lengths(np.concatenate((s, z)), np.concatenate((ds, dz)))
    assert np.array(got).tobytes() == np.array([max_step(s, ds),
                                                max_step(z, dz)]).tobytes()


def test_stacked_ratio_test_matches_each_half_at_random():
    rng = np.random.default_rng(12)
    for q in (1, 2, 7, 60):
        for _ in range(50):
            v = rng.uniform(1e-6, 2.0, 2 * q)
            dv = rng.standard_normal(2 * q) * 10.0 ** rng.integers(-3, 3)
            dv[rng.random(2 * q) < 0.2] = 0.0
            got = ipm._step_lengths(v, dv)
            assert np.array(got).tobytes() == np.array(
                [max_step(v[:q], dv[:q]), max_step(v[q:], dv[q:])]).tobytes()


class TestKktResidual:
    def test_stationary_point(self):
        # min x1^2 + x2^2 s.t. x1 + x2 = 2 at (1,1): grad (2,2), J_E (1,1)
        t, lam = kkt_residual(np.array([2.0, 2.0]),
                              np.zeros(0), np.array([[1.0, 1.0]]),
                              np.zeros((0, 2)))
        assert t <= 1e-6
        np.testing.assert_allclose(lam, [-2.0], atol=1e-6)

    def test_unconstrained_nonstationary(self):
        t, lam = kkt_residual(np.array([1.0]), np.zeros(0),
                              np.zeros((0, 1)), np.zeros((0, 1)))
        np.testing.assert_allclose(t, 1.0, atol=1e-7)
        assert lam.shape == (0,)

    def test_active_inequality_cancels(self):
        # min x s.t. -x <= 0 at x = 0: grad 1, J_I = [-1], lambda = 1 -> t = 0
        t, lam = kkt_residual(np.array([1.0]), np.array([0.0]),
                              np.zeros((0, 1)), np.array([[-1.0]]))
        assert t <= 1e-6
        np.testing.assert_allclose(lam, [1.0], atol=1e-6)

    def test_inactive_inequality_complementarity(self):
        # strictly feasible c_I = -1: any multiplier mass costs |lam| in the
        # complementarity rows, so the optimum balances both terms
        t, lam = kkt_residual(np.array([1.0]), np.array([-1.0]),
                              np.zeros((0, 1)), np.array([[-1.0]]))
        np.testing.assert_allclose(t, 0.5, atol=1e-6)
        np.testing.assert_allclose(lam, [0.5], atol=1e-6)

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
            t, lam = kkt_residual(grad, c_I, J_E, J_I)
            assert t <= 1e-6
            # the multipliers returned attain t: (lambda_E, lambda_I) with
            # lambda_I >= 0 and the stationarity residual within t
            assert lam.shape == (m_e + m_i,)
            assert lam[m_e:].min() >= 0.0
            res = grad + J_E.T @ lam[:m_e] + J_I.T @ lam[m_e:]
            assert np.abs(res).max() <= t * (1.0 + 1e-6) + 1e-12


def test_kkt_residual_nonoptimal_lp_raises(monkeypatch):
    def nonoptimal(g, C, d, H=None, counters=None):
        return ipm.ProgramSolution(x=np.zeros(g.size), objective=0.0,
                                   iterations=1, status="max_iter")

    monkeypatch.setattr(ipm, "solve_program", nonoptimal)
    with pytest.raises(NumericalFailure, match="KKT-residual LP"):
        kkt_residual(np.array([1.0]), np.zeros(0), np.zeros((0, 1)),
                     np.zeros((0, 1)))


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
        sigma_p, sigma_d = sigma_bounds(violation(c_E, c_I, mode), mode, n)
        lp = solve_program(*_linearized_program(c_E, c_I, J_E, J_I, sigma_p,
                                                mode))
        out[f"lp-{mode}-{k}"] = (lp.iterations, lp.status)
        feas = feasibility_step(c_E, c_I, J_E, J_I, sigma_p, mode)
        prog = _linearized_program(c_E, c_I, J_E, J_I, sigma_d, mode, g_S=g,
                                   relaxation=feas.relaxation)
        if H is not None:
            prog[3][:n, :n] = H
        qp = solve_program(*prog)
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
        kkt_residual(grad, c_I, J_E, J_I, counters=ct)
        out[f"kkt-{k}"] = (ct.barrier_iters, "optimal")
    return out


# the counts do not depend on how the Newton system is factored (a
# Bunch-Kaufman solve gives the same); a change to any of them is an
# algorithm change. The QPs stop at a tolerance on their gradient's scale,
# not on the norm bound's, so they take 1-3 more iterations than the LPs'
# rule would give them
PINNED = {
    "lp-linf-0": (4, "optimal"), "qp-linf-0": (6, "optimal"),
    "lp-l1-1": (4, "optimal"), "qp-l1-1": (9, "optimal"),
    "lp-linf-2": (4, "optimal"), "qp-linf-2": (6, "optimal"),
    "lp-l1-3": (6, "optimal"), "qp-l1-3": (9, "optimal"),
    "lp-linf-4": (4, "optimal"), "qp-linf-4": (7, "optimal"),
    "lp-l1-5": (4, "optimal"), "qp-l1-5": (7, "optimal"),
    "lp-linf-6": (4, "optimal"), "qp-linf-6": (7, "optimal"),
    "lp-l1-7": (5, "optimal"), "qp-l1-7": (9, "optimal"),
    "lp-linf-8": (4, "optimal"), "qp-linf-8": (7, "optimal"),
    "lp-l1-9": (8, "optimal"), "qp-l1-9": (9, "optimal"),
    "lp-linf-10": (4, "optimal"), "qp-linf-10": (5, "optimal"),
    "lp-l1-11": (4, "optimal"), "qp-l1-11": (8, "optimal"),
    "kkt-0": (6, "optimal"), "kkt-1": (7, "optimal"),
    "kkt-2": (8, "optimal"), "kkt-3": (8, "optimal"),
    "kkt-4": (7, "optimal"), "kkt-5": (9, "optimal"),
}


def test_iterations_and_status_pinned():
    assert regression_set() == PINNED


# per program of regression_set, the first 16 hex digits of a sha256 over
# the shape, C + 0.0 and d + 0.0 (adding 0.0 turns -0.0 into 0.0) of the
# rows the builders emit, bound rows included: a reordered or mis-signed
# row changes its digest even where the iteration counts stay the same
PINNED_ROWS = {
    "lp-linf-0": "8466140bffc08adb", "qp-linf-0": "e56f0212d1152bc2",
    "lp-l1-1": "65266e4846ef69ff", "qp-l1-1": "8e09cf02a8a12016",
    "lp-linf-2": "7e5d5a05ee41f1e9", "qp-linf-2": "7358c1404f8c7038",
    "lp-l1-3": "3d80fa5f2511d92b", "qp-l1-3": "fc96baeb0522e675",
    "lp-linf-4": "4d1751b9a6c60c29", "qp-linf-4": "a6d3fae75714f4e9",
    "lp-l1-5": "7cf020ce048a48bf", "qp-l1-5": "73479289bfb4fd56",
    "lp-linf-6": "75e7c529c11681f3", "qp-linf-6": "da51a64bc1f7c7d8",
    "lp-l1-7": "bd7b387199c23ccb", "qp-l1-7": "52315d1abaf7ea7c",
    "lp-linf-8": "ae0332cc99d622f3", "qp-linf-8": "dc6816b7e72f578c",
    "lp-l1-9": "47860f5e192e2206", "qp-l1-9": "f89592af84b5b6b9",
    "lp-linf-10": "65a224c1c598ef79", "qp-linf-10": "a04d75e016b0ff15",
    "lp-l1-11": "0676067cd8cdb645", "qp-l1-11": "978d79ad900fcdc9",
    "kkt-0": "5c2afb4ac3b187ab", "kkt-1": "bf2bc223878d7c40",
    "kkt-2": "c95256cf25b8dd24", "kkt-3": "acf0f8a232842ab4",
    "kkt-4": "8fc59ca2c5cbfb83", "kkt-5": "8a486c80b46c4ed4",
}


def test_program_rows_pinned(monkeypatch):
    digests = []
    solve = ipm.solve_program

    def recording(g, C, d, H=None, counters=None):
        rows = np.asarray(C, dtype=float) + 0.0
        rhs = np.asarray(d, dtype=float) + 0.0
        h = hashlib.sha256(repr(rows.shape).encode() + rows.tobytes()
                           + rhs.tobytes())
        digests.append(h.hexdigest()[:16])
        return solve(g, C, d, H, counters=counters)

    # the programs regression_set solves itself and those kkt_residual
    # solves; feasibility_step's LP, a repeat of the one before it, is not
    # recorded
    monkeypatch.setitem(globals(), "solve_program", recording)
    monkeypatch.setattr(ipm, "solve_program", recording)
    regression_set()
    assert len(digests) == len(PINNED_ROWS)
    assert dict(zip(PINNED, digests)) == PINNED_ROWS


def test_program_without_rows_rejected():
    # no row leaves the barrier nothing to act on; every program the
    # solvers build has at least one
    with pytest.raises(ValueError, match="at least one row"):
        solve_program(np.array([1.0, 0.0]), np.zeros((0, 2)), np.zeros(0),
                      H=np.eye(2))
