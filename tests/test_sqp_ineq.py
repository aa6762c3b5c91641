"""Robust SQP inner iteration for general constraints: feasibility LP,
direction QP, infeasible-stationary detection, merit management, and the
iteration invariants in both norm modes."""

import numpy as np
import pytest

from rasqp.driver import DriverConfig, _robust_progress
from rasqp.sqp_eq import (L1, LINF, Evaluator, InnerContext, merit_value,
                          violation_norms)
from rasqp.sqp_ineq import (FeasibilityResult, detect_infeasible_stationary,
                            direction_step, feasibility_step,
                            robust_inner_iteration, sigma_bounds,
                            trial_tau_ineq, update_tau_ineq)
from rasqp.errors import MeritCollapse


class TestViolationAndBounds:
    def test_violation_norms(self):
        v_inf, v_l1 = violation_norms(np.array([1.0, -2.0]),
                                      np.array([3.0, -4.0]))
        assert v_inf == 3.0
        assert v_l1 == 6.0  # the strictly satisfied inequality contributes 0

    def test_violation_empty(self):
        assert violation_norms(np.zeros(0), np.zeros(0)) == (0.0, 0.0)

    def test_sigma_bounds_clipped_low(self):
        sp, sd = sigma_bounds(0.5, 0.5, "linf", 3)
        assert sp == 1e2 and sd == 2e2

    def test_sigma_bounds_proportional(self):
        sp, _ = sigma_bounds(50.0, 50.0, "linf", 3)
        assert sp == 500.0

    def test_sigma_bounds_l1_scales_with_dimension(self):
        sp, _ = sigma_bounds(0.0, 0.0, "l1", 4)
        assert sp == 4e2


class TestFeasibilityStep:
    def test_reaches_feasibility_1d(self):
        # constraint x - 1 = 0 at x = 0: p = 1 removes the violation
        feas = feasibility_step(np.array([-1.0]), np.zeros(0),
                                np.array([[1.0]]), np.zeros((0, 1)),
                                100.0, "linf")
        np.testing.assert_allclose(feas.p, [1.0], atol=1e-6)
        assert feas.lp_objective <= 1e-6

    def test_inconsistent_constraints_positive_objective(self):
        # x = 0 and x = 1 cannot both hold: best max-violation is 0.5
        feas = feasibility_step(np.array([0.3, -0.7]), np.zeros(0),
                                np.array([[1.0], [1.0]]), np.zeros((0, 1)),
                                100.0, "linf")
        assert feas.lp_objective == pytest.approx(0.5, abs=1e-6)

    def test_l1_mode_matches_hand_case(self):
        # same inconsistent pair in the 1-norm: total violation stays 1
        feas = feasibility_step(np.array([0.3, -0.7]), np.zeros(0),
                                np.array([[1.0], [1.0]]), np.zeros((0, 1)),
                                100.0, "l1")
        assert feas.lp_objective == pytest.approx(1.0, abs=1e-5)

    def test_inequality_only_partial(self):
        # c_I = 2 with J_I = [1]: p = -2 satisfies it
        feas = feasibility_step(np.zeros(0), np.array([2.0]),
                                np.zeros((0, 1)), np.array([[1.0]]),
                                100.0, "linf")
        assert feas.lp_objective <= 1e-6
        assert feas.p[0] <= -2.0 + 1e-5

    def test_relaxation_per_constraint(self):
        # c_E = (p + 0.3, p - 0.7) and c_I = p + 1 at p = 0: three constraints
        args = (np.array([0.3, -0.7]), np.array([1.0]),
                np.array([[1.0], [1.0]]), np.array([[1.0]]), 100.0)
        linf = feasibility_step(*args, "linf")
        assert linf.relaxation.shape == (3,)
        # the max-norm LP has one y shared by every constraint
        assert np.all(linf.relaxation == linf.relaxation[0])
        assert linf.relaxation[0] == pytest.approx(linf.lp_objective)
        l1 = feasibility_step(*args, "l1")
        assert l1.relaxation.shape == (3,)
        assert np.all(l1.relaxation >= 0.0)
        assert np.sum(l1.relaxation) == pytest.approx(l1.lp_objective,
                                                      abs=1e-6)

    def test_trust_region_limits_progress(self):
        # violation 10 but p capped at 1 leaves objective near 9
        feas = feasibility_step(np.array([-10.0]), np.zeros(0),
                                np.array([[1.0]]), np.zeros((0, 1)),
                                1.0, "linf")
        assert feas.lp_objective == pytest.approx(9.0, abs=1e-4)


class TestDetection:
    def test_feasible_point_not_flagged(self):
        feas = FeasibilityResult(p=np.zeros(1), relaxation=0.0,
                                 lp_objective=0.0)
        assert not detect_infeasible_stationary(feas, 0.0)

    def test_zero_step_with_violation_flagged(self):
        feas = FeasibilityResult(p=np.zeros(1), relaxation=0.5,
                                 lp_objective=0.5)
        assert detect_infeasible_stationary(feas, 0.5)

    def test_no_improvement_certificate_flagged(self):
        # nonzero centered p but the LP could not reduce the violation
        feas = FeasibilityResult(p=np.array([0.2]), relaxation=0.5,
                                 lp_objective=0.5 - 1e-12)
        assert detect_infeasible_stationary(feas, 0.5)

    def test_progress_not_flagged(self):
        feas = FeasibilityResult(p=np.array([1.0]), relaxation=0.1,
                                 lp_objective=0.1)
        assert not detect_infeasible_stationary(feas, 0.5)


class TestDirectionStep:
    def test_unconstrained_newton_step(self):
        # H = I, g = (2, 0), no constraints: d = -g
        step = direction_step(np.array([2.0, 0.0]), np.zeros(0),
                              np.zeros(0), np.zeros((0, 2)), np.zeros((0, 2)),
                              0.0, 100.0, "linf", 0.0, 0.0)
        np.testing.assert_allclose(step.d, [-2.0, 0.0], atol=1e-6)

    def test_relaxed_equality_respected(self):
        # c = x - 1 at x = 0 with y = 0: the step must land on c + J d = 0
        step = direction_step(np.array([0.0]), np.array([-1.0]),
                              np.zeros(0), np.array([[1.0]]),
                              np.zeros((0, 1)), 0.0, 100.0, "linf", 1.0, 0.0)
        np.testing.assert_allclose(step.d, [1.0], atol=1e-5)
        assert step.delta_c == pytest.approx(1.0)

    def test_l1_mode_step(self):
        step = direction_step(np.array([0.0]), np.array([-1.0]),
                              np.zeros(0), np.array([[1.0]]),
                              np.zeros((0, 1)), np.zeros(1),
                              200.0, "l1", 1.0, 0.0)
        np.testing.assert_allclose(step.d, [1.0], atol=1e-5)

    def test_scalar_relaxation_broadcasts(self):
        args = (np.array([1.0, -0.5]), np.array([-1.0]),
                np.array([0.5, -2.0]), np.array([[1.0, 0.0]]),
                np.array([[0.0, 1.0], [1.0, 1.0]]))
        for mode in ("linf", "l1"):
            one = direction_step(*args, 0.25, 400.0, mode, 1.5, 1.25)
            each = direction_step(*args, np.full(3, 0.25), 400.0, mode, 1.5,
                                  1.25)
            np.testing.assert_array_equal(one.d, each.d)


class TestMeritParameter:
    def test_trial_tau_hand_case(self):
        # eps_sigma = 0.5, delta_c = 0.5, gTd = 0, dHd = 0.25 -> 1.0
        assert trial_tau_ineq(0.0, 0.25, 0.5, 0.5) == pytest.approx(1.0)

    def test_trial_tau_descent_infinite(self):
        assert trial_tau_ineq(-1.0, 0.5, 0.5, 0.5) == np.inf

    def test_trial_tau_cancellation_guard(self):
        # interior-point noise scale cancellation reads as descent
        assert trial_tau_ineq(-1.0, 1.0 + 1e-7, 0.5, 0.5) == np.inf

    def test_update_keeps_small_tau(self):
        assert update_tau_ineq(0.3, 0.4, 0.01) == pytest.approx(0.3)

    def test_update_shrinks_to_min(self):
        # min{0.99 tau_prev, trial} = min{0.99, 0.4}
        assert update_tau_ineq(1.0, 0.4, 0.01) == pytest.approx(0.4)

    def test_update_collapse_raises(self):
        with pytest.raises(MeritCollapse):
            update_tau_ineq(1e-12, 0.0, 0.01)

    def test_merit_value_modes(self):
        c_E = np.array([1.0, -2.0])
        c_I = np.array([0.5])
        assert merit_value(3.0, c_E, c_I, 0.5, "linf") == pytest.approx(3.5)
        assert merit_value(3.0, c_E, c_I, 0.5, "l1") == pytest.approx(5.0)
        assert merit_value(3.0, np.zeros(0), np.zeros(0), 0.5, "linf") == 1.5


def quadratic_general_instance(rng, n=4, m_e=1, m_i=2):
    A = rng.standard_normal((n, n))
    Q = A @ A.T + np.eye(n)
    b = rng.standard_normal(n)
    J_E = rng.standard_normal((m_e, n))
    t_E = rng.standard_normal(m_e)
    J_I = rng.standard_normal((m_i, n))
    t_I = rng.standard_normal(m_i) + 1.0

    def value(x):
        return float(0.5 * x @ (Q @ x) + b @ x)

    def value_grad(x):
        return value(x), Q @ x + b

    def constraints(x):
        return J_E @ x - t_E, J_I @ x - t_I, J_E, J_I

    return Evaluator(value=value, value_grad=value_grad,
                     constraints=constraints)


def make_robust_ctx(evaluator, x0, tau=1.0):
    F, g = evaluator.value_grad(x0)
    cE, cI, JE, JI = evaluator.constraints(x0)
    return InnerContext(x=x0, lam=np.zeros(cE.size), F_S=F, g_S=g, c_E=cE,
                        c_I=cI, J_E=JE, J_I=JI, tau_prev=tau)


def robust_iterate(ctx, evaluator, mode=LINF, stop=lambda dnorm: False):
    """One robust inner iteration as the driver runs it: the progress probe,
    the stop test on ||d||, then the update. Returns (kind, ctx, step,
    alpha) with kind "updated", "terminated" or "infeasible_stationary"."""
    probe = _robust_progress(ctx, DriverConfig(norm=mode), None)
    if probe is None:
        return "infeasible_stationary", ctx, None, 0.0
    dnorm, _, step, _ = probe
    if stop(dnorm):
        return "terminated", ctx, step, 0.0
    new_ctx, alpha = robust_inner_iteration(ctx, mode, evaluator, step)
    return "updated", new_ctx, step, alpha


class TestRobustInnerIteration:
    def test_termination_probe_before_update(self):
        # the probe solves the two subprograms at ctx and evaluates nothing
        rng = np.random.default_rng(0)
        ev = quadratic_general_instance(rng)
        ctx = make_robust_ctx(ev, rng.standard_normal(4))
        before = (ctx.x.copy(), ctx.F_S, ctx.tau_prev)
        calls = []
        spy = Evaluator(value=lambda x: calls.append(x),
                        value_grad=lambda x: calls.append(x),
                        constraints=lambda x: calls.append(x))
        current, first, step, plan = _robust_progress(ctx, DriverConfig(),
                                                      None)
        assert current == first == float(np.linalg.norm(step.d)) > 0.0
        assert plan is None
        np.testing.assert_array_equal(ctx.x, before[0])
        assert (ctx.F_S, ctx.tau_prev) == before[1:]
        kind, out, _, _ = robust_iterate(ctx, spy, stop=lambda dn: True)
        assert kind == "terminated" and out is ctx and calls == []

    def test_infeasible_instance_detected(self):
        # x = 0 and x = 1 simultaneously: stationary for the infeasibility
        def constraints(x):
            return (np.array([x[0], x[0] - 1.0]), np.zeros(0),
                    np.array([[1.0], [1.0]]), np.zeros((0, 1)))

        ev = Evaluator(value=lambda x: float(x @ x),
                       value_grad=lambda x: (float(x @ x), 2.0 * x),
                       constraints=lambda x: constraints(x))
        for mode in (LINF, L1):
            ctx = make_robust_ctx(ev, np.array([0.3]))
            for _ in range(20):
                kind, ctx, _, _ = robust_iterate(ctx, ev, mode)
                if kind != "updated":
                    break
            assert kind == "infeasible_stationary"

    def test_converges_and_invariants(self):
        # merit collapse near feasibility is an expected resample signal in
        # the outer loop, so it ends a run without failing the test
        rng = np.random.default_rng(3)
        solved = 0
        for trial in range(12):
            ev = quadratic_general_instance(rng)
            ctx = make_robust_ctx(ev, rng.standard_normal(4))
            taus = []
            for _ in range(300):
                try:
                    kind, new_ctx, _, alpha = robust_iterate(
                        ctx, ev, stop=lambda dn: dn <= 1e-5)
                except MeritCollapse:
                    break
                if kind != "updated":
                    break
                assert alpha > 0.0
                np.testing.assert_array_equal(new_ctx.lam, ctx.lam)
                taus.append(new_ctx.tau_prev)
                ctx = new_ctx
            assert all(t > 0 for t in taus)
            assert all(a >= b - 1e-15 for a, b in zip(taus, taus[1:]))
            v_inf, _ = violation_norms(ctx.c_E, ctx.c_I)
            if v_inf <= 1e-4:
                solved += 1
        assert solved >= 10

    def test_merit_decrease_on_update(self):
        rng = np.random.default_rng(5)
        ev = quadratic_general_instance(rng)
        ctx = make_robust_ctx(ev, rng.standard_normal(4))
        kind, out, _, _ = robust_iterate(ctx, ev)
        assert kind == "updated"
        tau = out.tau_prev
        before = merit_value(ctx.F_S, ctx.c_E, ctx.c_I, tau, LINF)
        after = merit_value(out.F_S, out.c_E, out.c_I, tau, LINF)
        assert after < before

    def test_l1_mode_converges(self):
        rng = np.random.default_rng(7)
        ev = quadratic_general_instance(rng)
        ctx = make_robust_ctx(ev, rng.standard_normal(4))
        for _ in range(60):
            kind, ctx, _, _ = robust_iterate(ctx, ev, L1,
                                             stop=lambda dn: dn <= 1e-5)
            if kind != "updated":
                break
        _, v_l1 = violation_norms(ctx.c_E, ctx.c_I)
        assert kind == "terminated"
        assert v_l1 <= 1e-5
    def test_step_nonexpansive_in_gradient(self):
        # with the identity Hessian and no active constraints the QP solution
        # map is a projection composition, nonexpansive in the gradient
        rng = np.random.default_rng(11)
        n = 3
        J_E = np.zeros((0, n))
        J_I = np.vstack([np.eye(n), -np.eye(n)])
        c_I = -np.ones(2 * n) * 5.0
        for _ in range(20):
            g1 = rng.standard_normal(n)
            g2 = g1 + 0.1 * rng.standard_normal(n)
            d = []
            for g in (g1, g2):
                step = direction_step(g, np.zeros(0), c_I, J_E, J_I,
                                      0.0, 100.0, "linf", 0.0, 0.0)
                d.append(step.d)
            assert (np.linalg.norm(d[0] - d[1])
                    <= np.linalg.norm(g1 - g2) + 1e-6)
