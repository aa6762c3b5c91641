"""Equality-constrained SQP inner iteration: step solve, merit parameter,
line search, and the iteration invariants."""

import numpy as np
import pytest

from rasqp.errors import LineSearchFailure, MeritCollapse
from rasqp.linalg import LbfgsModel, lbfgs_update
from rasqp.sqp_eq import (EPS_FEAS, EPS_OPT, L1, TAU_BAR, Evaluator,
                          InnerContext, armijo_backtrack, compute_step,
                          inner_iteration, line_search_step, merit_plan,
                          merit_value, model_decrease, trial_tau, update_tau)


def make_ctx(x, lam, g, c, J, tau=1.0, F=0.0, hessian=None):
    J = np.asarray(J, float)
    return InnerContext(x=np.asarray(x, float), lam=np.asarray(lam, float),
                        F_S=F, g_S=np.asarray(g, float),
                        c_E=np.asarray(c, float), c_I=np.zeros(0), J_E=J,
                        J_I=np.zeros((0, J.shape[1])), tau_prev=tau,
                        hessian=hessian)


class TestComputeStep:
    def test_identity_hessian_hand_case(self):
        # H = I, J = [1 0], g = (0, 1), c = (0): the step is pure descent in
        # the nullspace of J and the multiplier does not move
        ctx = make_ctx([0.0, 0.0], [0.0], [0.0, 1.0], [0.0], [[1.0, 0.0]])
        step = compute_step(ctx, True)
        np.testing.assert_allclose(step.d, [0.0, -1.0], atol=1e-8)
        np.testing.assert_allclose(step.delta, [0.0], atol=1e-8)
        assert step.acceptance == "exact"

    def test_exact_residual_tolerance(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            n, m = 6, 2
            A = rng.standard_normal((n, n))
            H = A @ A.T + np.eye(n)
            J = rng.standard_normal((m, n))
            ctx = make_ctx(rng.standard_normal(n), rng.standard_normal(m),
                           rng.standard_normal(n), rng.standard_normal(m), J)
            ctx.h_apply = lambda v, H=H: H @ v
            step = compute_step(ctx, True)
            T = ctx.kkt_vector()
            resid = np.linalg.norm(np.concatenate([step.rho, step.r]))
            assert resid <= 1e-6 * np.linalg.norm(T) + 1e-12

    def test_inexact_accepts_with_nonzero_residual(self):
        rng = np.random.default_rng(9)
        n, m = 40, 5
        A = rng.standard_normal((n, n))
        H = A @ A.T + np.eye(n)
        J = rng.standard_normal((m, n))
        ctx = make_ctx(rng.standard_normal(n), rng.standard_normal(m),
                       rng.standard_normal(n), rng.standard_normal(m), J)
        ctx.h_apply = lambda v, H=H: H @ v
        step = compute_step(ctx, False)
        assert step.acceptance in ("inexact_cond1", "inexact_cond2")
        # the accepted iterate still satisfies the KKT system approximately
        # through its reported residual split
        K_top = H @ step.d + J.T @ step.delta + ctx.g_S + J.T @ ctx.lam
        np.testing.assert_allclose(K_top, step.rho, atol=1e-8)

    def test_cond2_residual_bounds(self):
        # g = -J'c and lam = 0 make g'd = ||c||^2 for every step with
        # J d = -c, so the merit model decrease of condition I is negative
        # and only condition II can accept; an L-BFGS model keeps MINRES
        # from reaching the exact tolerance first, as it does with H = I
        rng = np.random.default_rng(21)
        n, m = 30, 4
        for _ in range(20):
            model = LbfgsModel(dim=n, capacity=5)
            for _ in range(5):
                s = rng.standard_normal(n)
                model = lbfgs_update(model, s,
                                     s + 0.5 * rng.standard_normal(n))
            J = rng.standard_normal((m, n))
            c = 10.0 * rng.standard_normal(m)
            ctx = make_ctx(rng.standard_normal(n), np.zeros(m), -J.T @ c, c,
                           J, hessian=model)
            step = compute_step(ctx, False)
            assert step.acceptance == "inexact_cond2"
            cnorm = np.linalg.norm(c)
            assert np.linalg.norm(step.r) <= EPS_FEAS * cnorm
            assert np.linalg.norm(step.rho) <= EPS_OPT * cnorm


class TestMeritParameter:
    def test_trial_tau_descent_direction_infinite(self):
        assert trial_tau(-1.0, 0.5, 0.2, 1.0, 0.0, 0.5, 0.5) == np.inf

    def test_trial_tau_finite_case(self):
        # eps_sigma = 0.5, c1 = 1, r1 = 0, gTd + curv = 2 -> 0.25
        assert trial_tau(1.0, 1.0, 1.0, 1.0, 0.0, 0.5, 0.5) == pytest.approx(
            0.25)

    def test_trial_tau_cancellation_guard(self):
        # denominator cancels at roundoff scale: treated as descent
        gTd = -4.5
        dHd = 4.5 * (1 + 1e-15)
        assert trial_tau(gTd, dHd, 1.0, 1.0, 0.0, 0.5, 1e-8) == np.inf

    def test_update_keeps_small_tau(self):
        assert update_tau(0.1, 0.25, 0.1) == pytest.approx(0.1)

    def test_update_shrinks_below_trial(self):
        assert update_tau(1.0, 0.25, 0.1) == pytest.approx(0.225)

    def test_update_zero_trial_raises(self):
        with pytest.raises(MeritCollapse):
            update_tau(1.0, 0.0, 0.1)

    def test_model_decrease(self):
        assert model_decrease(0.5, -2.0, 3.0, 1.0) == pytest.approx(3.0)


class TestMerit:
    def test_equality_merit_is_l1_without_inequalities(self):
        # the shared line search's merit is tau F + ||c_E||_1 bit for bit,
        # also with no constraints at all
        rng = np.random.default_rng(3)
        for _ in range(20):
            c = rng.standard_normal(int(rng.integers(0, 5)))
            F, tau = float(rng.standard_normal()), float(rng.uniform())
            assert (merit_value(F, c, np.zeros(0), tau, L1)
                    == tau * F + float(np.linalg.norm(c, 1)))


class TestArmijo:
    def test_quadratic_hand_case(self):
        # f = x^2/2 at x=1 with d=-2: alpha=1 overshoots, alpha=0.5 lands on 0
        phi = lambda a: 0.5 * (1.0 - 2.0 * a) ** 2
        alpha = armijo_backtrack(phi, phi(0.0), 2.0, eta=0.5, eps_alpha=0.5,
                                 alpha_min=1e-12)
        assert alpha == pytest.approx(0.5)

    def test_full_step_accepted(self):
        phi = lambda a: 1.0 - a
        assert armijo_backtrack(phi, 1.0, 1.0, 0.5, 0.5, 1e-12) == 1.0

    def test_failure_below_alpha_min(self):
        phi = lambda a: 1.0 + a
        with pytest.raises(LineSearchFailure):
            armijo_backtrack(phi, 1.0, 1.0, 0.5, 0.5, 1e-4)

    def test_nonpositive_decrease_rejected(self):
        with pytest.raises(ValueError):
            armijo_backtrack(lambda a: 0.0, 0.0, 0.0, 0.5, 0.5, 1e-12)


def quadratic_instance(rng, n=5, m=2):
    A = rng.standard_normal((n, n))
    Q = A @ A.T + np.eye(n)
    b = rng.standard_normal(n)
    J = rng.standard_normal((m, n))
    target = rng.standard_normal(m)

    def value(x):
        return float(0.5 * x @ (Q @ x) + b @ x)

    def value_grad(x):
        return value(x), Q @ x + b

    def constraints(x):
        return J @ x - target, np.zeros(0), J, np.zeros((0, n))

    return Evaluator(value=value, value_grad=value_grad,
                     constraints=constraints)


def run_inner(evaluator, x0, iters, exact=True, use_lbfgs=False):
    F, g = evaluator.value_grad(x0)
    c, c_I, J, J_I = evaluator.constraints(x0)
    hess = LbfgsModel(dim=x0.size, capacity=20) if use_lbfgs else None
    ctx = InnerContext(x=x0, lam=np.zeros(c.size), F_S=F, g_S=g, c_E=c,
                       c_I=c_I, J_E=J, J_I=J_I, tau_prev=TAU_BAR,
                       hessian=hess)
    history = []
    for _ in range(iters):
        new_ctx, step, alpha = inner_iteration(ctx, exact, evaluator)
        history.append((ctx, new_ctx, step, alpha))
        ctx = new_ctx
    return ctx, history


class TestLineSearchStep:
    def test_constraints_evaluated_once_per_trial(self):
        # a step eight times too long makes the backtrack try several
        # points; the accepted one's constraint values are reused
        rng = np.random.default_rng(3)
        ev = quadratic_instance(rng)
        calls = {"value": 0, "constraints": 0}

        def counted(name, fn):
            def call(x):
                calls[name] += 1
                return fn(x)
            return call

        counting = Evaluator(value=counted("value", ev.value),
                             value_grad=ev.value_grad,
                             constraints=counted("constraints",
                                                 ev.constraints))
        x0 = rng.standard_normal(5)
        F, g = ev.value_grad(x0)
        c, c_I, J, J_I = ev.constraints(x0)
        ctx = InnerContext(x=x0, lam=np.zeros(c.size), F_S=F, g_S=g, c_E=c,
                           c_I=c_I, J_E=J, J_I=J_I, tau_prev=TAU_BAR)
        step = compute_step(ctx, True)
        tau, delta_l = merit_plan(ctx, step)
        new, alpha = line_search_step(ctx, 8.0 * step.d, step.delta, tau,
                                      delta_l, counting, L1)
        assert alpha < 1.0
        # merit_eval takes one value per Armijo trial
        assert calls["constraints"] == calls["value"] > 1
        for got, want in zip((new.c_E, new.c_I, new.J_E, new.J_I),
                             ev.constraints(new.x)):
            np.testing.assert_array_equal(got, want)

    def test_nonpositive_model_decrease_takes_no_step(self):
        # a step at the rounding scale can have a model decrease below
        # zero (-6.4e-24 with ||d|| = 3.3e-14 on an L-BFGS run); no Armijo
        # step exists, so the context stays and nothing is evaluated
        rng = np.random.default_rng(3)
        ev = quadratic_instance(rng)

        def never(x):
            raise AssertionError("evaluated at a rejected step")

        x0 = rng.standard_normal(5)
        F, g = ev.value_grad(x0)
        c, c_I, J, J_I = ev.constraints(x0)
        ctx = InnerContext(x=x0, lam=np.zeros(c.size), F_S=F, g_S=g, c_E=c,
                           c_I=c_I, J_E=J, J_I=J_I, tau_prev=TAU_BAR)
        step = compute_step(ctx, True)
        tau, _ = merit_plan(ctx, step)
        new, _, alpha = inner_iteration(
            ctx, True, Evaluator(never, never, never), step=step,
            plan=(tau, -6.367665870026323e-24))
        assert new is ctx
        assert alpha == 0.0


class TestInnerIterationInvariants:
    def test_solves_equality_qp(self):
        rng = np.random.default_rng(2)
        ev = quadratic_instance(rng)
        # the identity Hessian model converges linearly, so this needs
        # many more iterations than the quasi-Newton variant below
        ctx, _ = run_inner(ev, rng.standard_normal(5), 600)
        assert np.linalg.norm(ctx.kkt_vector()) <= 1e-7

    def test_merit_parameter_positive_nonincreasing(self):
        rng = np.random.default_rng(6)
        for trial in range(50):
            ev = quadratic_instance(rng)
            _, history = run_inner(ev, rng.standard_normal(5), 8)
            taus = [h[1].tau_prev for h in history]
            assert all(t > 0 for t in taus)
            assert all(t1 >= t2 - 1e-15 for t1, t2 in zip(taus, taus[1:]))

    def test_model_decrease_positive_and_armijo_holds(self):
        rng = np.random.default_rng(8)
        for trial in range(50):
            ev = quadratic_instance(rng)
            _, history = run_inner(ev, rng.standard_normal(5), 5)
            for ctx, new_ctx, step, alpha in history:
                if alpha == 0.0:
                    continue
                tau = new_ctx.tau_prev
                gTd = float(ctx.g_S @ step.d)
                dl = model_decrease(tau, gTd,
                                    float(np.linalg.norm(ctx.c_E, 1)),
                                    float(np.linalg.norm(step.r, 1)))
                assert dl > 0
                phi0 = tau * ctx.F_S + np.linalg.norm(ctx.c_E, 1)
                xt = ctx.x + alpha * step.d
                ct = ev.constraints(xt)[0]
                phi = tau * ev.value(xt) + np.linalg.norm(ct, 1)
                assert phi <= phi0 - 1e-4 * alpha * dl + 1e-10

    def test_lbfgs_variant_converges(self):
        rng = np.random.default_rng(13)
        ev = quadratic_instance(rng)
        ctx, _ = run_inner(ev, rng.standard_normal(5), 60, use_lbfgs=True)
        assert np.linalg.norm(ctx.kkt_vector()) <= 1e-6

    def test_inexact_variant_converges(self):
        rng = np.random.default_rng(14)
        ev = quadratic_instance(rng, n=12, m=3)
        ctx, _ = run_inner(ev, rng.standard_normal(12), 400, exact=False)
        assert np.linalg.norm(ctx.kkt_vector()) <= 1e-5

    def test_step_nonexpansive_in_gradient(self):
        # with a fixed KKT matrix the exact step is linear in the right-hand
        # side, so nearby gradients give nearby steps
        rng = np.random.default_rng(15)
        n, m = 5, 2
        A = rng.standard_normal((n, n))
        H = A @ A.T + np.eye(n)
        J = rng.standard_normal((m, n))
        K = np.block([[H, J.T], [J, np.zeros((m, m))]])
        bound = np.linalg.norm(np.linalg.inv(K), 2)
        for _ in range(20):
            g1 = rng.standard_normal(n)
            g2 = g1 + 1e-3 * rng.standard_normal(n)
            steps = []
            for g in (g1, g2):
                ctx = make_ctx(np.zeros(n), np.zeros(m), g,
                               rng.standard_normal(m) * 0 + 0.3, J)
                ctx.h_apply = lambda v, H=H: H @ v
                s = compute_step(ctx, True)
                steps.append(np.concatenate([s.d, s.delta]))
            diff = np.linalg.norm(steps[0] - steps[1])
            assert diff <= bound * np.linalg.norm(g1 - g2) + 1e-9
