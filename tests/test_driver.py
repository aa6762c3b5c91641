"""Outer-loop driver: dual warm starts, termination rules, batch schedules,
config validation, condition estimation, the shared inner loop, and full
solves."""

import collections
import dataclasses

import numpy as np
import pytest

from rasqp.bench import (RunConfig, build_problem, method_driver_config,
                         read_trace_csv, run_config, write_trace_csv)
from rasqp import driver
from rasqp.counters import Counters
from rasqp.driver import (INNER_CAP, Budget, DriverConfig, SamplingRule,
                          TerminationRule, _inner_loop, adaptive_batch_size,
                          dual_initialize,
                          estimate_condition_inputs, geometric_batch_size,
                          run, termination_check, true_metrics)
from rasqp.errors import ConfigError, LineSearchFailure, MeritCollapse
from rasqp.problems import build_augmented_problem, eval_constraints
from rasqp.sqp_eq import TAU_BAR, InnerContext


class TestDualInitialize:
    def test_carryover(self):
        lam = np.array([3.0])
        out = dual_initialize("carryover", lam, np.array([1.0, 0.0]),
                              np.array([0.0]), np.array([[1.0, 0.0]]))
        assert out is lam

    def test_reinit_least_squares(self):
        # J = [1 0], g = (2, 0): least-squares multiplier -2 zeroes the
        # Lagrangian gradient, beating the zero warm start
        out = dual_initialize("reinit", np.array([0.0]), np.array([2.0, 0.0]),
                              np.array([0.0]), np.array([[1.0, 0.0]]))
        np.testing.assert_allclose(out, [-2.0], atol=1e-10)

    def test_reinit_keeps_better_previous(self):
        # previous multiplier already optimal; the least-squares solve agrees
        out = dual_initialize("reinit", np.array([-2.0]),
                              np.array([2.0, 0.0]), np.array([0.0]),
                              np.array([[1.0, 0.0]]))
        np.testing.assert_allclose(out, [-2.0], atol=1e-10)

    def test_reinit_rank_deficient_falls_back(self):
        lam = np.array([1.0, 2.0])
        out = dual_initialize("reinit", lam, np.array([1.0, 0.0]),
                              np.zeros(2),
                              np.array([[1.0, 0.0], [1.0, 0.0]]))
        assert out is lam

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            dual_initialize("other", np.zeros(1), np.zeros(1), np.zeros(1),
                            np.zeros((1, 1)))


class TestTerminationRule:
    def test_check_below_threshold(self):
        rule = TerminationRule(kind="kkt", eps=1e-6)
        assert termination_check(rule, 2.0, 0.9)
        assert not termination_check(rule, 2.0, 1.1)

    def test_eps_floor(self):
        rule = TerminationRule(kind="kkt", eps=1e-6)
        assert termination_check(rule, 0.0, 1e-7)
        assert not termination_check(rule, 0.0, 2e-6)

    def test_defaults_per_kind(self):
        assert TerminationRule("dl").gamma == 0.1
        for kind in ("kkt", "dnorm", "robust_dnorm"):
            assert TerminationRule(kind).gamma == 0.5
        with pytest.raises(AttributeError):
            TerminationRule("dl").gamma = 0.5


class TestBatchSchedules:
    def test_adaptive_variance_driven(self):
        # var = 100, Z = 1, theta = 0.5 -> ceil(100 / 0.25) = 400, capped by
        # beta_hat * prev = 5 * 32 = 160
        assert adaptive_batch_size(32, 100.0, 1.0, 0.5, 5.0, None) == 160

    def test_adaptive_small_variance_keeps_prev(self):
        assert adaptive_batch_size(32, 0.0, 1.0, 0.5, 5.0, None) == 32

    def test_adaptive_zero_progress_growth_capped(self):
        assert adaptive_batch_size(32, 1.0, 0.0, 0.5, 5.0, None) == 160

    def test_adaptive_monotone_nondecreasing(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            prev = int(rng.integers(1, 1000))
            size = adaptive_batch_size(prev, float(rng.uniform(0, 10)),
                                       float(rng.uniform(0, 2)), 0.5, 5.0,
                                       5000)
            assert prev <= size <= min(5000, int(np.ceil(5.0 * prev)))

    def test_adaptive_dataset_cap(self):
        assert adaptive_batch_size(400, 1e9, 1.0, 0.5, 5.0, 500) == 500

    def test_geometric_finite_sum(self):
        rule = SamplingRule(kind="geometric", beta=0.5)
        assert geometric_batch_size(0, rule, 100) == 1
        assert geometric_batch_size(1, rule, 100) == 50
        assert geometric_batch_size(2, rule, 100) == 75
        assert geometric_batch_size(50, rule, 100) == 100

    def test_geometric_expectation(self):
        rule = SamplingRule(kind="geometric", beta=0.5, initial_size=32)
        assert geometric_batch_size(0, rule, None) == 32
        assert geometric_batch_size(1, rule, None, prev_size=32) == 128

    def test_geometric_nondecreasing(self):
        rule = SamplingRule(kind="geometric", beta=0.5)
        assert geometric_batch_size(1, rule, 100, prev_size=80) == 80

    def test_invalid_sampling_config(self):
        with pytest.raises(ConfigError):
            SamplingRule(beta=1.5)
        with pytest.raises(ConfigError):
            SamplingRule(initial_size=0)


class TestConfigValidation:
    """Bad enum values fail when the config is built, before a solve spends
    any gradient evaluations."""

    def test_unknown_termination_kind(self):
        with pytest.raises(ConfigError):
            TerminationRule(kind="bogus")

    def test_unknown_sampling_kind(self):
        with pytest.raises(ConfigError):
            SamplingRule(kind="adaptiv")

    def test_unknown_dual_mode(self):
        with pytest.raises(ConfigError):
            DriverConfig(dual_mode="warm")

    def test_unknown_norm(self):
        with pytest.raises(ConfigError):
            DriverConfig(norm="l2")

    @staticmethod
    def assert_rejected_before_any_evaluation(make_config):
        calls = []

        def constraints(x):
            calls.append("constraints")
            return np.array([x[0] - 1.0]), np.zeros(0)

        def grad(x):
            calls.append("gradient")
            return 2.0 * x

        prob = build_augmented_problem(
            value_fn=lambda x: float(x @ x), grad_fn=grad,
            constraint_eval=constraints,
            jacobian_eval=lambda x: (np.array([[1.0]]), np.zeros((0, 1))),
            m_E=1, m_I=0, x_init=np.zeros(1), noise_level=0.1)
        with pytest.raises(ConfigError):
            run(prob, make_config(), Budget(max_gradient_evals=500),
                np.random.default_rng(0))
        assert calls == []

    @pytest.mark.parametrize("solver,kind", [("robust", "kkt"),
                                             ("robust", "dl"),
                                             ("equality", "robust_dnorm")])
    def test_solver_rule_mismatch_before_any_evaluation(self, solver, kind):
        self.assert_rejected_before_any_evaluation(lambda: DriverConfig(
            solver=solver, termination=TerminationRule(kind=kind)))

    def test_robust_lbfgs_before_any_evaluation(self):
        self.assert_rejected_before_any_evaluation(lambda: DriverConfig(
            solver="robust", termination=TerminationRule(kind="robust_dnorm"),
            use_lbfgs=True))


def make_eq_quadratic(noise=0.5, n=4):
    """min ||x - 1||^2 s.t. sum(x) = 1 with multiplicative gradient noise."""
    ones = np.ones(n)

    def value(x):
        return float((x - ones) @ (x - ones))

    def grad(x):
        return 2.0 * (x - ones)

    return build_augmented_problem(
        value_fn=value, grad_fn=grad,
        constraint_eval=lambda x: (np.array([x @ ones - 1.0]), np.zeros(0)),
        jacobian_eval=lambda x: (ones[None, :].copy(), np.zeros((0, n))),
        m_E=1, m_I=0, x_init=np.zeros(n), noise_level=noise)


def make_infeasible_problem():
    def constraints(x):
        return np.array([x[0], x[0] - 1.0]), np.zeros(0)

    def jacobians(x):
        return np.array([[1.0], [1.0]]), np.zeros((0, 1))

    return build_augmented_problem(
        value_fn=lambda x: float(x @ x), grad_fn=lambda x: 2.0 * x,
        constraint_eval=constraints, jacobian_eval=jacobians,
        m_E=2, m_I=0, x_init=np.array([0.3]), noise_level=0.1)


def iterate(problem, x, lam):
    """An iterate's context with its constraint values; the estimate sets
    the subsampled objective itself."""
    x = np.asarray(x, dtype=float)
    return InnerContext(x, np.asarray(lam, dtype=float), np.nan,
                        np.full(x.size, np.nan),
                        *eval_constraints(problem, x), tau_prev=TAU_BAR)


class TestConditionEstimation:
    def test_variance_two_samples(self):
        # gradients 2(x-1)(1+xi): at x = 0 the per-sample gradients are
        # -2(1+xi) per coordinate, so two noise draws give a known variance
        prob = make_eq_quadratic(noise=0.5, n=1)
        from rasqp.driver import estimate_condition_inputs

        config = DriverConfig(termination=TerminationRule(kind="kkt"))
        counters = Counters()
        rng = np.random.default_rng(0)
        est = estimate_condition_inputs(prob,
                                        iterate(prob, np.zeros(1),
                                                np.zeros(1)),
                                        np.array([0.0, 0.0]), config, rng,
                                        counters)
        xi = est.fresh_set
        grads = -2.0 * (1.0 + xi)
        expect = float(np.var(grads, ddof=1))
        assert est.variance == pytest.approx(expect, rel=1e-10)
        assert counters.gradient_evals == 2

    def test_kkt_progress_measure(self):
        prob = make_eq_quadratic(noise=0.0, n=2)

        config = DriverConfig(termination=TerminationRule(kind="kkt"))
        est = estimate_condition_inputs(prob,
                                        iterate(prob, np.zeros(2),
                                                np.zeros(1)),
                                        np.array([0.0]), config,
                                        np.random.default_rng(0), Counters())
        # T = (g, c) = ((-2, -2), -1): norm sqrt(9)
        assert est.Z == pytest.approx(3.0)
        assert est.variance == 0.0  # one sample cannot estimate a variance

    def test_robust_infeasible_stationary_gives_zero(self, monkeypatch):
        # at x = 0.5 the feasibility LP certifies x = 0 and x = 1
        # inconsistent: no progress to make, and no direction QP solved
        prob = make_infeasible_problem()

        def no_qp(*args, **kwargs):
            raise AssertionError("direction QP solved")

        monkeypatch.setattr(driver, "direction_step", no_qp)
        config = DriverConfig(solver="robust",
                              termination=TerminationRule(kind="robust_dnorm"))
        est = estimate_condition_inputs(prob,
                                        iterate(prob, np.array([0.5]),
                                                np.zeros(2)),
                                        np.array([0.1, -0.1]), config,
                                        np.random.default_rng(0), Counters())
        assert est.Z == 0.0

    def test_probe_does_not_count_updates(self):
        prob = make_eq_quadratic(noise=0.5, n=2)

        config = DriverConfig(termination=TerminationRule(kind="dnorm"))
        x = np.array([0.3, -0.2])
        est = estimate_condition_inputs(prob, iterate(prob, x, np.zeros(1)),
                                        np.array([0.1, -0.1, 0.0]), config,
                                        np.random.default_rng(1), Counters())
        assert est.Z > 0.0
        np.testing.assert_array_equal(x, [0.3, -0.2])  # x untouched


class TestRun:
    def test_budget_zero_stops_immediately(self):
        prob = make_eq_quadratic()
        out = run(prob, DriverConfig(), Budget(max_gradient_evals=0),
                  np.random.default_rng(0))
        assert out.status == "BudgetExhausted"
        assert len(out.trace) == 1
        assert out.trace[0].k == -1

    def test_converges_on_quadratic(self):
        prob = make_eq_quadratic(noise=0.2)
        config = DriverConfig(stop_violation=1e-6, stop_stationarity=1e-4)
        out = run(prob, config, Budget(max_gradient_evals=10 ** 6),
                  np.random.default_rng(0))
        assert out.status == "Converged"
        # optimum of ||x - 1||^2 on sum(x) = 1 is x = 1/4 by symmetry
        np.testing.assert_allclose(out.x, 0.25 * np.ones(4), atol=1e-3)

    def test_batch_sizes_nondecreasing(self):
        prob = make_eq_quadratic(noise=0.5)
        config = DriverConfig(stop_violation=1e-6, stop_stationarity=1e-3)
        out = run(prob, config, Budget(max_gradient_evals=10 ** 5),
                  np.random.default_rng(1))
        sizes = [rec.batch_size for rec in out.trace[1:]]
        assert all(a <= b for a, b in zip(sizes, sizes[1:]))

    def test_metrics_outside_budget(self):
        prob = make_eq_quadratic(noise=0.5)
        out = run(prob, DriverConfig(), Budget(max_gradient_evals=200),
                  np.random.default_rng(2))
        # the recorded cumulative gradient count only reflects solver work
        assert out.counters.gradient_evals <= 200 + 5 * 32

    @pytest.mark.parametrize("problem,method,budget", [
        ("synth-logreg-eq", "ra-sqp-dl", 100_000),
        ("synth-logreg-ineq", "ra-sqp-linf", 30_000),
        ("synth-logreg-ineq", "ra-sqp-l1", 30_000),
        ("synth-eq-quad", "ra-sqp-dnorm", 50_000),
        ("synth-logreg-ineq", "det-sqp", 200_000),
    ])
    def test_budget_overshoot_below_last_batch(self, problem, method, budget):
        # the bound stated in Budget's docstring
        out = run_config(RunConfig(problem=problem, method=method, seed=0,
                                   max_gradient_evals=budget))
        assert out.status == "BudgetExhausted"
        over = out.counters.gradient_evals - budget
        assert 0 <= over < out.trace[-1].batch_size

    def test_gradient_conservation(self):
        # every counted gradient comes from sizing the batch (once per
        # member) or from an accepted update over the whole batch
        prob = make_eq_quadratic(noise=0.5)
        out = run(prob, DriverConfig(), Budget(max_gradient_evals=3000),
                  np.random.default_rng(3))
        prev = out.trace[0].grad_evals_cum
        for rec in out.trace[1:]:
            delta = rec.grad_evals_cum - prev
            assert delta == rec.batch_size * (1 + rec.updates)
            prev = rec.grad_evals_cum

    def test_infeasible_detected(self):
        prob = make_infeasible_problem()
        config = DriverConfig(solver="robust",
                              termination=TerminationRule(kind="robust_dnorm"))
        out = run(prob, config, Budget(max_gradient_evals=10 ** 5),
                  np.random.default_rng(0))
        assert out.status == "InfeasibleStationary"
        np.testing.assert_allclose(out.x, [0.5], atol=1e-4)

    def test_deterministic_given_seed(self):
        prob = make_eq_quadratic(noise=0.5)
        outs = [run(make_eq_quadratic(noise=0.5), DriverConfig(),
                    Budget(max_gradient_evals=2000),
                    np.random.default_rng(42)) for _ in range(2)]
        np.testing.assert_array_equal(outs[0].x, outs[1].x)
        assert ([r.grad_evals_cum for r in outs[0].trace]
                == [r.grad_evals_cum for r in outs[1].trace])

    def test_solver_problem_mismatch(self):
        prob = make_infeasible_problem()
        # the equality solver refuses problems with inequality rows only;
        # this one is all-equality, so force the mismatch the other way
        from rasqp.problems import build_augmented_problem as build

        ineq = build(lambda x: float(x @ x), lambda x: 2.0 * x,
                     lambda x: (np.zeros(0), np.array([x[0] - 1.0])),
                     lambda x: (np.zeros((0, 1)), np.array([[1.0]])),
                     0, 1, np.zeros(1), 0.0)
        with pytest.raises(ConfigError):
            run(ineq, DriverConfig(solver="equality"), Budget(),
                np.random.default_rng(0))

    def test_full_sampling_requires_finite_sum(self):
        prob = make_eq_quadratic()
        config = DriverConfig(sampling=SamplingRule(kind="full"))
        with pytest.raises(ConfigError):
            run(prob, config, Budget(max_gradient_evals=100),
                np.random.default_rng(0))

    def test_lbfgs_variant_converges(self):
        prob = make_eq_quadratic(noise=0.2)
        config = DriverConfig(use_lbfgs=True,
                              termination=TerminationRule("dl"),
                              stop_violation=1e-6, stop_stationarity=1e-4)
        out = run(prob, config, Budget(max_gradient_evals=10 ** 6),
                  np.random.default_rng(5))
        assert out.status == "Converged"


class TestInnerLoop:
    """Every exit cause of the inner loop shared by both solvers."""

    RULE = TerminationRule(kind="dnorm")

    @staticmethod
    def no_update(ctx, step, plan):
        raise AssertionError("no update expected")

    def test_line_search_failure(self):
        def update(ctx, step, plan):
            raise LineSearchFailure("stub")

        out = _inner_loop(lambda ctx: (1.0, 1.0, None, None), update, "ctx",
                          self.RULE, Budget(), Counters())
        assert out == ("ctx", 0, 0, "line_search_failure")

    def test_merit_collapse_in_probe(self):
        def progress(ctx):
            raise MeritCollapse("stub")

        out = _inner_loop(progress, self.no_update, "ctx", self.RULE,
                          Budget(), Counters())
        assert out == ("ctx", 0, 0, "merit_collapse")

    def test_inner_cap(self):
        # alternately moving and not moving: only the moves count as
        # updates; each update gets the step and plan its probe returned
        def update(ctx, step, plan):
            assert (step, plan) == (("step", ctx), ("plan", ctx))
            return ctx + 1, 0.5 if ctx % 2 == 0 else 0.0

        out = _inner_loop(lambda ctx: (1.0, 1.0, ("step", ctx), ("plan", ctx)),
                          update, 0, self.RULE, Budget(), Counters())
        assert out == (INNER_CAP, INNER_CAP, INNER_CAP // 2, "inner_cap")

    def test_snapshot_is_first_value(self):
        # only the first probe's snapshot counts: the rule fires once
        # 10 - ctx <= 0.5 * 10 + 1e-6, although later snapshots would
        # have fired it at ctx = 1
        out = _inner_loop(lambda ctx: (10.0 - ctx, 10.0 + 10.0 * ctx, None,
                                       None),
                          lambda ctx, step, plan: (ctx + 1, 1.0), 0,
                          self.RULE, Budget(), Counters())
        assert out == (5, 5, 5, "terminated")

    def test_infeasible_stationary(self):
        # the probe's None ends the loop before any update at that point
        def progress(ctx):
            return None if ctx == 3 else (1.0, 1.0, None, None)

        out = _inner_loop(progress, lambda ctx, step, plan: (ctx + 1, 1.0),
                          0, self.RULE, Budget(), Counters())
        assert out == (3, 3, 3, "infeasible_stationary")

    def test_budget(self):
        def progress(ctx):
            raise AssertionError("no iteration once the budget is spent")

        out = _inner_loop(progress, self.no_update, "ctx", self.RULE,
                          Budget(max_gradient_evals=10),
                          Counters(gradient_evals=10))
        assert out == ("ctx", 0, 0, "budget")


def _causes(problem, method, budget, **kw):
    out = run_config(RunConfig(problem=problem, method=method, seed=0,
                               max_gradient_evals=budget, **kw))
    return out, [rec.term_cause for rec in out.trace[1:]]


class TestTermCauses:
    """Solves whose outer iterations end with each solver-reported cause."""

    def test_robust_terminated_merit_collapse_budget(self):
        out, causes = _causes("synth-logreg-ineq", "ra-sqp-linf", 60_000)
        assert {"terminated", "merit_collapse", "budget"} <= set(causes)
        assert causes[-1] == "budget"
        assert out.status == "BudgetExhausted"

    def test_robust_infeasible_stationary(self):
        out, causes = _causes("infeasible-1d", "ra-sqp-linf", 10_000)
        assert causes == ["infeasible_stationary"]
        assert out.status == "InfeasibleStationary"

    def test_equality_merit_collapse(self):
        # the equality solver has no infeasibility test: the "dl" rule's
        # merit parameter collapses at the first inner iteration
        out, causes = _causes("infeasible-1d", "ra-sqp-dl", 10_000,
                              max_outer=3)
        assert causes == ["merit_collapse"] * 3
        assert all(rec.inner_iterations == 0 for rec in out.trace[1:])


@pytest.mark.parametrize("problem,method", [
    ("synth-logreg-eq", "ra-sqp-dl"), ("synth-logreg-ineq", "ra-sqp-linf")])
def test_each_iterate_constraints_evaluated_once(monkeypatch, problem,
                                                 method):
    # every point, trace records included, is evaluated once, by the
    # context that carries it
    seen = collections.Counter()
    original = driver.eval_constraints

    def counted(problem, x):
        seen[x.tobytes()] += 1
        return original(problem, x)

    monkeypatch.setattr(driver, "eval_constraints", counted)
    out = run_config(RunConfig(problem=problem, method=method, seed=0,
                               max_gradient_evals=30000))
    assert len(out.trace) > 2
    assert {r.x.tobytes() for r in out.trace} <= set(seen)
    assert set(seen.values()) == {1}


class TestTrueMetrics:
    def test_equality_quadratic_at_solution(self):
        prob = make_eq_quadratic()
        v, s, mc = true_metrics(prob, 0.25 * np.ones(4), "equality")
        assert v <= 1e-12
        assert s <= 1e-10
        assert not mc

    def test_violation_reported(self):
        prob = make_eq_quadratic()
        v, _, _ = true_metrics(prob, np.zeros(4), "equality")
        assert v == pytest.approx(1.0)

    def test_finite_sum_fallback_matches_analytic(self):
        # without an analytic gradient, a finite sum averages the dataset
        prob = build_problem("synth-logreg-eq")
        bare = dataclasses.replace(prob, true_gradient=None)
        rng = np.random.default_rng(5)
        for x in (prob.x_init, 0.3 * rng.standard_normal(prob.n)):
            v, s, mc = true_metrics(prob, x, "equality")
            v_b, s_b, mc_b = true_metrics(bare, x, "equality")
            # the caller's constraint values at x give the same metrics
            assert true_metrics(prob, x, "equality",
                                eval_constraints(prob, x)) == (v, s, mc)
            assert v_b == v
            assert s_b == pytest.approx(s, rel=1e-12, abs=1e-12)
            assert not mc and not mc_b

    def test_expectation_fallback_is_flagged_in_trace(self, tmp_path):
        # an expectation problem falls back to the fixed-seed Monte Carlo
        # surrogate, which every record and the trace CSV flag
        bare = dataclasses.replace(build_problem("synth-eq-quad"),
                                   true_gradient=None)
        _, _, mc = true_metrics(bare, bare.x_init, "equality")
        assert mc
        cfg = RunConfig(problem="synth-eq-quad", method="ra-sqp-dl",
                        max_outer=2)
        out = run(bare, method_driver_config(cfg.method, bare, cfg),
                  Budget(max_outer=2), np.random.default_rng(0))
        path = tmp_path / "trace.csv"
        write_trace_csv(str(path), out)
        rows = read_trace_csv(str(path))
        assert len(rows) == 3
        assert [row["metric_mc"] for row in rows] == ["True"] * 3
