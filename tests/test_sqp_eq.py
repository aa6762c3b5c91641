"""Equality-constrained SQP inner iteration: step solve, merit parameter,
line search, and the iteration invariants."""

import numpy as np
import pytest

from rasqp import sqp_eq
from rasqp.counters import Counters
from rasqp.driver import DriverConfig
from rasqp.errors import InfeasibleStationary, LineSearchFailure, MeritCollapse
from rasqp.linalg import LbfgsModel, lbfgs_update
from rasqp.sqp_eq import (EPS_FEAS, EPS_OPT, L1, TAU_BAR, Step,
                          Evaluator, InnerContext, armijo_backtrack,
                          compute_step, inner_iteration, line_search_step,
                          merit_plan, merit_value, model_decrease, trial_tau,
                          update_tau)


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
        assert step.acceptance == "exact_tol"

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
            # the merit plan's violations: ||c_E||_1 and ||r||_1
            assert step.v_x == np.linalg.norm(ctx.c_E, 1)
            assert step.v_d == np.linalg.norm(step.r, 1)

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

    def test_inexact_rejecting_everything_is_one_exact_pass(self,
                                                             monkeypatch):
        # a cap the exact solve exceeds a tenth of, and no iterate accepted:
        # the inexact step runs one pass to the exact tolerance, so it
        # costs no more MINRES iterations than the exact step
        monkeypatch.setattr(sqp_eq, "MINRES_MAX_ITER", 100)
        monkeypatch.setattr(sqp_eq, "_inexact_acceptance",
                            lambda ctx, T: lambda z, resid: None)
        rng = np.random.default_rng(9)
        n, m = 40, 5
        A = rng.standard_normal((n, n))
        H = A @ A.T + np.eye(n)
        J = rng.standard_normal((m, n))
        ctx = make_ctx(rng.standard_normal(n), rng.standard_normal(m),
                       rng.standard_normal(n), rng.standard_normal(m), J)
        ctx.h_apply = lambda v, H=H: H @ v
        iters = {}
        for exact in (True, False):
            counters = Counters()
            step = compute_step(ctx, exact, counters)
            assert step.acceptance == "exact_tol"
            iters[exact] = counters.minres_iters
        assert 10 < iters[True] < 100
        assert iters[False] <= iters[True]

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
        assert trial_tau(-1.0, 0.5, 0.2, 1.0, 0.0) == np.inf

    def test_trial_tau_finite_case(self):
        # EPS_SIGMA = 0.5, c1 = 1, r1 = 0, gTd + curv = 2 -> 0.25
        assert trial_tau(1.0, 1.0, 1.0, 1.0, 0.0) == pytest.approx(0.25)

    def test_trial_tau_cancellation_guard(self):
        # denominator cancels at roundoff scale: treated as descent
        gTd = -4.5
        dHd = 4.5 * (1 + 1e-15)
        assert trial_tau(gTd, dHd, 1.0, 1.0, 0.0) == np.inf

    def test_update_keeps_small_tau(self):
        assert update_tau(0.1, 0.25) == pytest.approx(0.1)

    def test_update_shrinks_below_trial(self):
        # min{(1 - EPS_TAU) * tau_prev, trial} = min{0.99, 0.25}
        assert update_tau(1.0, 0.25) == pytest.approx(0.25)

    def test_update_zero_trial_raises(self):
        with pytest.raises(MeritCollapse):
            update_tau(1.0, 0.0)

    def test_model_decrease(self):
        assert model_decrease(0.5, -2.0, 3.0, 1.0) == pytest.approx(3.0)

    # the rule both solvers share, one row per branch: trial_tau(gTd, dHd,
    # d_norm_sq, c_l1, r_l1) with EPS_SIGMA = 0.5, and update_tau(tau_prev,
    # trial); the robust solver passes (gTd, d'd, d'd, delta_c, 0)
    @pytest.mark.parametrize("rule, args, expected", [
        # delta_c = 0.5 over g'd + d'd = 0.25
        pytest.param(trial_tau, (0.0, 0.25, 0.25, 0.5, 0.0), 1.0,
                     id="trial-hand-case"),
        pytest.param(trial_tau, (-1.0, 0.5, 0.5, 0.5, 0.0), np.inf,
                     id="trial-descent"),
        # cancellation at the equality roundoff scale and at the
        # interior-point noise scale reads as descent
        pytest.param(trial_tau, (-4.5, 4.5 * (1 + 1e-15), 1.0, 1.0, 0.0),
                     np.inf, id="guard-roundoff"),
        pytest.param(trial_tau, (-1.0, 1.0 + 1e-7, 1.0 + 1e-7, 0.5, 0.0),
                     np.inf, id="guard-noise"),
        # no linearized violation decrease (c_l1 - r_l1 <= 0): a descent
        # direction keeps tau (the ratio would be 0), any other gets 0
        pytest.param(trial_tau, (-1.0, 2.0, 2.0, 0.5, 0.5), np.inf,
                     id="trial-no-decrease-descent"),
        pytest.param(trial_tau, (-1.0, 2.0, 2.0, 0.4, 0.5), np.inf,
                     id="trial-increase-descent"),
        pytest.param(trial_tau, (-1.0, 2.0, 2.0, 0.0, 0.0), np.inf,
                     id="trial-robust-no-decrease-descent"),
        pytest.param(trial_tau, (0.5, 1.0, 1.0, 0.5, 0.5), 0.0,
                     id="trial-no-decrease-ascent"),
        pytest.param(trial_tau, (0.0, 1.0, 1.0, 0.4, 0.5), 0.0,
                     id="trial-increase-flat"),
        pytest.param(update_tau, (0.3, 0.4), 0.3, id="keep-prev"),
        # min{0.99 tau_prev, trial} on either side
        pytest.param(update_tau, (1.0, 0.4), 0.4, id="min-trial"),
        pytest.param(update_tau, (1.0, 0.995), 0.99, id="min-prev"),
        pytest.param(update_tau, (1e-12, 0.0), MeritCollapse,
                     id="collapse-zero"),
        pytest.param(update_tau, (1.0, 1e-13), MeritCollapse,
                     id="collapse-below-floor"),
    ])
    def test_shared_rule(self, rule, args, expected):
        if expected is MeritCollapse:
            with pytest.raises(MeritCollapse):
                rule(*args)
        else:
            assert rule(*args) == pytest.approx(expected)


class TestInfeasibleStationary:
    """merit_plan's certificate, `keeps_violation(||c_E||_1, ||r||_1)`, on
    an exact step d = 0.1 with g = -1 and H = I, a descent direction for
    the objective model, so tau stays at 1."""

    @staticmethod
    def plan(c, r):
        ctx = make_ctx([0.0], [0.0], [-1.0], [c], [[1.0]])
        step = Step(d=np.array([0.1]), delta=np.zeros(1), v_x=abs(c),
                    v_d=abs(r), rho=np.zeros(1), r=np.array([r]))
        return merit_plan(ctx, step)

    def test_step_that_cuts_a_small_violation_is_planned(self):
        # the step cuts the linearized violation 1.5e-5 by 47%; a test
        # absolute below violation 1 took 0.7e-5 <= INFEAS_TOL_V as no cut
        tau, delta_l = self.plan(1.5e-5, 0.8e-5)
        assert tau == 1.0
        assert delta_l == pytest.approx(0.100007, rel=1e-12)

    def test_certificate_is_relative_below_violation_one(self):
        # a step that keeps all but a relative 1e-6 of a small violation
        # still certifies it
        with pytest.raises(InfeasibleStationary):
            self.plan(1.5e-5, 1.5e-5 * (1 - 1e-6))


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
        alpha = armijo_backtrack(phi, phi(0.0), 2.0)
        assert alpha == pytest.approx(0.5)

    def test_full_step_accepted(self):
        phi = lambda a: 1.0 - a
        assert armijo_backtrack(phi, 1.0, 1.0) == 1.0

    def test_failure_below_alpha_min(self):
        phi = lambda a: 1.0 + a
        with pytest.raises(LineSearchFailure):
            armijo_backtrack(phi, 1.0, 1.0)

    def test_nonpositive_decrease_rejected(self):
        with pytest.raises(ValueError):
            armijo_backtrack(lambda a: 0.0, 0.0, 0.0)


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
        step = compute_step(ctx, exact)
        new_ctx, alpha = inner_iteration(ctx, step, evaluator,
                                         DriverConfig(exact=exact), None)
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
        step.plan = merit_plan(ctx, step)[0], -6.367665870026323e-24
        new, alpha = inner_iteration(ctx, step,
                                     Evaluator(never, never, never),
                                     DriverConfig(), None)
        assert new is ctx
        assert alpha == 0.0

    def test_zero_primal_step_takes_dual_step(self):
        # J = 1', x = 1/4 (c = 0), g = -2.25, lam = 1: the exact step is
        # d = 0, delta = 1.25, so x stays, nothing is evaluated, and the
        # multiplier moves to 2.25, where the KKT error is 0 (2.5 at lam = 1)
        def never(x):
            raise AssertionError("evaluated at a zero step")

        n = 4
        ctx = make_ctx(np.full(n, 0.25), [1.0], np.full(n, -2.25), [0.0],
                       np.ones((1, n)))
        assert np.linalg.norm(ctx.kkt_vector()) == pytest.approx(2.5)
        step = compute_step(ctx, True)
        new, alpha = inner_iteration(ctx, step,
                                     Evaluator(never, never, never),
                                     DriverConfig(), None)
        assert np.linalg.norm(step.d) <= 1e-15 * (1.0 + np.linalg.norm(ctx.x))
        assert alpha == 0.0
        assert new.x is ctx.x
        np.testing.assert_allclose(new.lam, [2.25], atol=1e-12)
        assert np.linalg.norm(new.kkt_vector()) <= 1e-12


class TestSecondOrderCorrection:
    @staticmethod
    def sphere_ctx(x, kind):
        """ctx at x for the one constraint ||x||^2 - 1, an equality or an
        inequality row, with its evaluator's constraint hook."""
        def constraints(z):
            c, J = np.array([z @ z - 1.0]), 2.0 * z[None, :]
            none, no_J = np.zeros(0), np.zeros((0, z.size))
            return (c, none, J, no_J) if kind == "eq" else (none, c, no_J, J)

        c_E, c_I, J_E, J_I = constraints(x)
        ctx = InnerContext(x=x, lam=np.zeros(c_E.size), F_S=0.0,
                           g_S=np.zeros(x.size), c_E=c_E, c_I=c_I, J_E=J_E,
                           J_I=J_I, tau_prev=TAU_BAR)
        return ctx, constraints

    @pytest.mark.parametrize("kind", ["eq", "ineq"])
    def test_corrected_violation_is_higher_order(self, kind):
        # a tangent step of length h from the unit sphere leaves violation
        # h^2; the corrected step leaves h^4 / 4
        rng = np.random.default_rng(5)
        x = rng.standard_normal(4)
        x /= np.linalg.norm(x)
        t = rng.standard_normal(4)
        t -= (t @ x) * x
        t /= np.linalg.norm(t)
        ctx, constraints = self.sphere_ctx(x, kind)
        for h in (1e-1, 1e-2, 1e-3):
            d = h * t
            unit = constraints(x + d)
            s = sqp_eq.second_order_correction(ctx, d, unit[0], unit[1])
            plain = float(np.abs(np.concatenate(unit[:2])).max())
            after = constraints(x + d + s)
            corrected = float(np.abs(np.concatenate(after[:2])).max())
            assert plain == pytest.approx(h * h, rel=1e-6)
            assert corrected <= 0.3 * h * h * plain

    def test_inequality_row_inside_is_not_corrected(self):
        # a step that keeps ||x||^2 <= 1 needs no correction
        x = np.array([0.5, 0.0])
        ctx, constraints = self.sphere_ctx(x, "ineq")
        d = np.array([0.0, 0.3])
        unit = constraints(x + d)
        assert sqp_eq.second_order_correction(ctx, d, *unit[:2]) is None

    @pytest.mark.parametrize("scale", [1.0, 8.0])
    def test_linear_constraints_take_the_plain_backtrack(self, monkeypatch,
                                                          scale):
        # linear constraints meet their linearization: no correction is
        # computed, and the update is the backtrack's along d bit for bit
        def no_lstsq(*args, **kwargs):
            raise AssertionError("correction computed")

        monkeypatch.setattr(np.linalg, "lstsq", no_lstsq)
        rng = np.random.default_rng(11)
        for _ in range(20):
            ev = quadratic_instance(rng)
            x0 = rng.standard_normal(5)
            F, g = ev.value_grad(x0)
            c, c_I, J, J_I = ev.constraints(x0)
            ctx = InnerContext(x=x0, lam=np.zeros(c.size), F_S=F, g_S=g,
                               c_E=c, c_I=c_I, J_E=J, J_I=J_I,
                               tau_prev=TAU_BAR)
            step = compute_step(ctx, True)
            tau, delta_l = merit_plan(ctx, step)
            d = scale * step.d

            def phi(a):
                xa = x0 + a * d
                ca = ev.constraints(xa)
                return merit_value(ev.value(xa), ca[0], ca[1], tau, L1)

            alpha = armijo_backtrack(phi, merit_value(F, c, c_I, tau, L1),
                                     delta_l)
            x_ref = x0 + alpha * d
            new, got = line_search_step(ctx, d, step.delta, tau, delta_l, ev,
                                        L1)
            assert got == alpha
            np.testing.assert_array_equal(new.x, x_ref)
            np.testing.assert_array_equal(new.lam,
                                          ctx.lam + alpha * step.delta)
            assert (new.F_S, new.g_S.tobytes()) == (
                ev.value_grad(x_ref)[0], ev.value_grad(x_ref)[1].tobytes())


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
