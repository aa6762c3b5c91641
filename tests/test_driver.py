"""Outer-loop driver: dual warm starts, termination rules, batch schedules,
config validation, condition estimation, the shared inner loop, and full
solves."""

import collections
import dataclasses
import itertools
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rasqp.bench import RunConfig, build_problem, run_config
from rasqp import driver, sqp_eq
from rasqp.counters import Counters
from rasqp.driver import (INNER_CAP, DriverConfig, _inner_loop,
                          adaptive_batch_size, estimate_condition_inputs,
                          geometric_batch_size, metrics_at, run,
                          termination_check, true_metrics)
from rasqp.errors import (ConfigError, InfeasibleStationary,
                          LineSearchFailure, MeritCollapse)
from rasqp.ipm import solve_program
from rasqp.linalg import least_squares_dual, norm
from rasqp.problems import (Expectation, NoiseMoments,
                            build_augmented_problem,
                            build_expectation_problem, eval_constraints)
from rasqp.sqp_eq import TAU_BAR, Evaluator, InnerContext


class TestDualInitialize:
    def test_reinit_least_squares(self):
        # J = [1 0], g = (2, 0): least-squares multiplier -2 zeroes the
        # Lagrangian gradient, beating the zero warm start; no carried
        # multiplier enters, so an already optimal one is what comes out
        out = least_squares_dual(np.array([[1.0, 0.0]]),
                                 np.array([2.0, 0.0]))
        np.testing.assert_allclose(out, [-2.0], atol=1e-10)

    @staticmethod
    def inner_starts(monkeypatch, prob, config, returned):
        """The contexts `run` hands `_inner_loop` in two outer iterations
        of fixed batches, the inner loop replaced by one that takes no step
        and returns returned(ctx)."""
        starts = []

        def recording(ctx, config, evaluator, counters, stop=None):
            starts.append(ctx)
            return returned(ctx), 0, "terminated"

        monkeypatch.setattr(driver, "_inner_loop", recording)
        run(prob, dataclasses.replace(config, sampling="fixed", max_outer=2),
            np.random.default_rng(1))
        assert len(starts) == 2
        return starts

    def test_reinit_keeps_better_previous(self, monkeypatch):
        # a carried multiplier that is already least-squares optimal for
        # the batch gradient comes out of the warm start unchanged: without
        # noise, both batches have one gradient at the unmoved iterate
        starts = self.inner_starts(
            monkeypatch, make_eq_quadratic(noise=0.0),
            DriverConfig(termination="dl"), lambda ctx: ctx)
        lam_prev = starts[0].lam
        np.testing.assert_array_equal(
            lam_prev, least_squares_dual(starts[0].J_E, starts[0].g_S))
        np.testing.assert_array_equal(starts[1].g_S, starts[0].g_S)
        np.testing.assert_allclose(starts[1].lam, lam_prev, atol=1e-12)

    def test_reinit_rank_deficient_minimum_norm(self):
        # a repeated row: every lam with lam_1 + lam_2 = -1 zeroes the
        # Lagrangian gradient, and the warm start takes the shortest
        out = least_squares_dual(np.array([[1.0, 0.0], [1.0, 0.0]]),
                                 np.array([1.0, 0.0]))
        np.testing.assert_allclose(out, [-0.5, -0.5], atol=1e-12)

    @given(st.integers(1, 4), st.integers(0, 3),
           st.sampled_from([0.0, 1e-6, 1.0]), st.integers(0, 10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_least_squares_never_worse_than_carried(self, m, extra, scale,
                                                    seed):
        # why the warm start takes the least-squares multipliers without
        # comparing them to the carried ones: at the same c, no lam_prev
        # has a smaller KKT error
        rng = np.random.default_rng(seed)
        J = rng.standard_normal((m, m + extra))
        g_S, c = rng.standard_normal(m + extra), rng.standard_normal(m)
        lam_prev = (least_squares_dual(J, g_S)
                    + scale * rng.standard_normal(m))

        def kkt(lam):
            return np.linalg.norm(np.concatenate([g_S + J.T @ lam, c]))

        lam = least_squares_dual(J, g_S)
        assert kkt(lam) <= kkt(lam_prev) * (1 + 1e-12) + 1e-14

    @pytest.mark.parametrize("termination", ["dl", "robust_dnorm"])
    def test_inner_solver_starts_from_least_squares(self, monkeypatch,
                                                    termination):
        # a solve on a new batch starts from the least-squares multipliers
        # for the batch gradient, not from the carried ones, whichever
        # solver runs it
        lam_prev = np.array([10.0])
        starts = self.inner_starts(
            monkeypatch, make_eq_quadratic(noise=0.5),
            DriverConfig(termination=termination),
            lambda ctx: dataclasses.replace(ctx, lam=lam_prev))
        for start in starts:
            np.testing.assert_array_equal(
                start.lam, least_squares_dual(start.J_E, start.g_S))
        assert not np.allclose(starts[1].lam, lam_prev)


class TestTerminationRule:
    def test_check_below_threshold(self):
        rule = DriverConfig(termination="kkt")
        assert termination_check(rule, 2.0, 0.9)
        assert not termination_check(rule, 2.0, 1.1)

    def test_eps_floor(self):
        # the floor is INNER_FLOOR on a growing batch and 0 on a fixed one
        assert driver.INNER_FLOOR == 1e-6
        for sampling in ("adaptive", "geometric"):
            rule = DriverConfig(termination="kkt", sampling=sampling)
            assert termination_check(rule, 0.0, 1e-7)
            assert not termination_check(rule, 0.0, 2e-6)
        fixed = DriverConfig(termination="kkt", sampling="fixed")
        assert not termination_check(fixed, 0.0, 1e-7)
        assert termination_check(fixed, 0.0, 0.0)
        # and 0 wherever the inner loop tests the run's stop
        for sampling in ("adaptive", "geometric", "fixed"):
            rule = DriverConfig(termination="kkt", sampling=sampling)
            assert not termination_check(rule, 0.0, 1e-7, stop_tested=True)
            assert termination_check(rule, 0.0, 0.0, stop_tested=True)

    def test_defaults_per_kind(self):
        assert DriverConfig(termination="dl").gamma == 0.1
        for kind in ("kkt", "dnorm", "robust_dnorm"):
            assert DriverConfig(termination=kind).gamma == 0.5
        with pytest.raises(AttributeError):
            DriverConfig(termination="dl").gamma = 0.5


class TestBatchSchedules:
    def test_adaptive_variance_driven(self):
        # var = 100, Z = 1, THETA = 0.5 -> ceil(100 / 0.25) = 400, capped by
        # BETA_HAT * prev = 5 * 32 = 160
        assert adaptive_batch_size(32, 100.0, 1.0, None) == 160

    def test_adaptive_small_variance_keeps_prev(self):
        assert adaptive_batch_size(32, 0.0, 1.0, None) == 32

    def test_adaptive_zero_progress_growth_capped(self):
        assert adaptive_batch_size(32, 1.0, 0.0, None) == 160

    @pytest.mark.parametrize("Z", [1e-160, 1e-170])
    def test_adaptive_tiny_progress_is_zero_progress(self, Z):
        # (THETA Z)^2 is subnormal at 1e-160, so var / (THETA Z)^2 overflows
        # to infinity, and 0 at 1e-170: both act as Z = 0, under the cap
        assert adaptive_batch_size(32, 1.0, Z, None) == 160
        assert adaptive_batch_size(32, 1.0, Z, 100) == 100

    def test_adaptive_monotone_nondecreasing(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            prev = int(rng.integers(1, 1000))
            size = adaptive_batch_size(prev, float(rng.uniform(0, 10)),
                                       float(rng.uniform(0, 2)), 5000)
            assert prev <= size <= min(5000, int(np.ceil(5.0 * prev)))

    def test_adaptive_dataset_cap(self):
        assert adaptive_batch_size(400, 1e9, 1.0, 500) == 500

    def test_geometric_finite_sum(self):
        # outer 0 takes initial_size; from outer 1 on, ceil((1 - beta^k) N)
        assert geometric_batch_size(1, 0.5, 100, 1) == 50
        assert geometric_batch_size(2, 0.5, 100, 50) == 75
        assert geometric_batch_size(50, 0.5, 100, 75) == 100

    def test_geometric_expectation(self):
        assert geometric_batch_size(1, 0.5, None, 32) == 128
        assert geometric_batch_size(2, 0.5, None, 128) == 512

    def test_geometric_nondecreasing(self):
        assert geometric_batch_size(1, 0.5, 100, prev_size=80) == 80

    def test_invalid_sampling_config(self):
        with pytest.raises(ConfigError):
            DriverConfig(beta=1.5)
        with pytest.raises(ConfigError):
            DriverConfig(initial_size=0)
        for bad in (math.nan, -1):
            with pytest.raises(ConfigError, match="initial_size"):
                DriverConfig(initial_size=bad)
        # a size numpy cannot draw fails here, not at the first draw
        for bad in (2.5, 32.0, "32"):
            with pytest.raises(ConfigError, match="initial_size must be an "
                                                  "integer"):
                DriverConfig(initial_size=bad)
        for good in (3, np.int64(3), np.int32(3)):
            assert DriverConfig(initial_size=good).initial_size == 3
        with pytest.raises(ConfigError, match="beta"):
            DriverConfig(beta=math.nan)


class TestConfigValidation:
    """Bad enum values fail when the config is built, before a solve spends
    any gradient evaluations."""

    def test_unknown_termination_kind(self):
        with pytest.raises(ConfigError):
            DriverConfig(termination="bogus")

    def test_unknown_sampling_kind(self):
        with pytest.raises(ConfigError):
            DriverConfig(sampling="adaptiv")

    def test_full_sampling_kind_is_gone(self):
        # a fixed batch of the dataset size is the full batch
        with pytest.raises(ConfigError):
            DriverConfig(sampling="full")

    def test_rule_decides_solver(self):
        for kind in ("kkt", "dnorm", "dl"):
            assert DriverConfig(
                termination=kind).solver == "equality"
        config = DriverConfig(termination="robust_dnorm")
        assert config.solver == "robust"
        with pytest.raises(AttributeError):
            config.solver = "equality"
        assert "solver" not in {f.name for f in dataclasses.fields(config)}

    def test_readme_counts_the_settable_values(self):
        count = sum(f.init for f in dataclasses.fields(DriverConfig))
        readme = (Path(__file__).resolve().parents[1]
                  / "README.md").read_text()
        documented = re.search(r"settable configuration is these (\d+) "
                               r"values", readme)
        assert documented is not None
        assert int(documented.group(1)) == count

    def test_rules_are_frozen(self):
        with pytest.raises(AttributeError):
            DriverConfig().sampling = "fixed"
        with pytest.raises(AttributeError):
            DriverConfig().initial_size = 64

    @pytest.mark.parametrize(
        "field", [f.name for f in dataclasses.fields(DriverConfig)])
    def test_config_is_frozen(self, field):
        # a field set after construction would skip every check
        config = DriverConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(config, field, getattr(config, field))

    def test_unknown_norm(self):
        with pytest.raises(ConfigError):
            DriverConfig(norm="l2")

    @pytest.mark.parametrize("fields,message", [
        (dict(termination="robust_dnorm", exact=False),
         "the robust solver has no inexact KKT step"),
        (dict(termination="robust_dnorm", use_lbfgs=True),
         "the robust solver has no L-BFGS Hessian model"),
        (dict(termination="kkt", norm="l1"),
         "the equality solver has no norm mode"),
        (dict(termination="dnorm", norm="l1"),
         "the equality solver has no norm mode"),
        (dict(termination="dl", norm="l1"),
         "the equality solver has no norm mode"),
    ])
    def test_setting_the_solver_never_reads(self, fields, message):
        # it would run bit-identically to the default, so it is refused
        # rather than ignored; the solver's own settings stay free
        with pytest.raises(ConfigError, match=message):
            DriverConfig(**fields)
        DriverConfig(termination=fields["termination"])
        if fields["termination"] == "robust_dnorm":
            DriverConfig(termination="robust_dnorm", norm="l1")
        else:
            DriverConfig(termination=fields["termination"], exact=False,
                         use_lbfgs=True)

    @pytest.mark.parametrize("field", ["max_gradient_evals", "max_outer"])
    def test_negative_budget(self, field):
        # a negative budget would end the run at once as BudgetExhausted;
        # zero stays allowed
        with pytest.raises(ConfigError, match=f"{field} must be "
                           "non-negative"):
            DriverConfig(**{field: -1})
        assert getattr(DriverConfig(**{field: 0}), field) == 0

    @pytest.mark.parametrize("field", ["max_gradient_evals", "max_outer"])
    def test_nan_budget(self, field):
        # a NaN budget compares false, so it would never end the run
        with pytest.raises(ConfigError, match=f"{field} must be "
                           "non-negative, got nan"):
            DriverConfig(**{field: math.nan})

    @pytest.mark.parametrize("value", [math.nan, -1.0])
    @pytest.mark.parametrize("field", ["stop_violation", "stop_stationarity"])
    def test_bad_stop_threshold(self, field, value):
        # no metric is <= NaN or < 0: the run could only end on its budget.
        # Zero stays allowed
        other = ({"stop_violation", "stop_stationarity"} - {field}).pop()
        with pytest.raises(ConfigError, match=f"{field} must be >= 0, got "
                           f"{value}"):
            DriverConfig(**{field: value, other: 1e-3})
        assert getattr(DriverConfig(**{field: 0.0, other: 1e-3}),
                       field) == 0.0

    def test_lone_stop_threshold(self):
        # one threshold alone would never stop the run
        with pytest.raises(ConfigError):
            DriverConfig(stop_violation=1e-3)
        with pytest.raises(ConfigError):
            DriverConfig(stop_stationarity=1e-3)

    @staticmethod
    def assert_rejected_before_any_evaluation(make_config, m_E=1):
        calls = []

        def constraints(x):
            calls.append("constraints")
            return (np.array([x[0] - 1.0])[:m_E], np.zeros(0),
                    np.array([[1.0]])[:m_E], np.zeros((0, 1)))

        def grad(x):
            calls.append("gradient")
            return 2.0 * x

        prob = build_augmented_problem(
            value_fn=lambda x: float(x @ x), grad_fn=grad,
            constraints=constraints, m_E=m_E, m_I=0, x_init=np.zeros(1),
            noise_level=0.1)
        with pytest.raises(ConfigError):
            run(prob, make_config(), np.random.default_rng(0))
        assert calls == []

    def test_robust_lbfgs_before_any_evaluation(self):
        self.assert_rejected_before_any_evaluation(lambda: DriverConfig(
            termination="robust_dnorm", use_lbfgs=True,
            max_gradient_evals=500))

    def test_robust_unconstrained_before_any_evaluation(self):
        self.assert_rejected_before_any_evaluation(lambda: DriverConfig(
            termination="robust_dnorm", max_gradient_evals=500), m_E=0)


def make_eq_quadratic(noise=0.5, n=4):
    """min ||x - 1||^2 s.t. sum(x) = 1 with multiplicative gradient noise."""
    ones = np.ones(n)

    def value(x):
        return float((x - ones) @ (x - ones))

    def grad(x):
        return 2.0 * (x - ones)

    return build_augmented_problem(
        value_fn=value, grad_fn=grad,
        constraints=lambda x: (np.array([x @ ones - 1.0]), np.zeros(0),
                               ones[None, :].copy(), np.zeros((0, n))),
        m_E=1, m_I=0, x_init=np.zeros(n), noise_level=noise)


def make_infeasible_problem():
    def constraints(x):
        return (np.array([x[0], x[0] - 1.0]), np.zeros(0),
                np.array([[1.0], [1.0]]), np.zeros((0, 1)))

    return build_augmented_problem(
        value_fn=lambda x: float(x @ x), grad_fn=lambda x: 2.0 * x,
        constraints=constraints, m_E=2, m_I=0, x_init=np.array([0.3]),
        noise_level=0.1)


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

        drawn, sampler = [], prob.mode.sampler

        def recording(rng, count):
            drawn.append(sampler(rng, count))
            return drawn[-1]

        prob = dataclasses.replace(prob, mode=Expectation(recording))
        config = DriverConfig(termination="kkt")
        counters = Counters()
        rng = np.random.default_rng(0)
        variance, _, fresh, vsum, gsum = estimate_condition_inputs(
            prob, iterate(prob, np.zeros(1), np.zeros(1)), 2, config, rng,
            counters)
        (xi,) = drawn
        assert fresh == NoiseMoments.of(xi)
        grads = -2.0 * (1.0 + xi)
        expect = float(np.var(grads, ddof=1))
        assert variance == pytest.approx(expect, rel=1e-10)
        # the sums over the fresh set, which the next batch starts from
        assert gsum == pytest.approx([grads.sum()], rel=1e-12)
        assert vsum == pytest.approx(float(np.sum(1.0 + xi)), rel=1e-12)
        assert counters.gradient_evals == 2

    def test_kkt_progress_measure(self):
        prob = make_eq_quadratic(noise=0.0, n=2)

        config = DriverConfig(termination="kkt")
        variance, Z, *_ = estimate_condition_inputs(
            prob, iterate(prob, np.zeros(2), np.zeros(1)), 1, config,
            np.random.default_rng(0), Counters())
        # T = (g, c) = ((-2, -2), -1): norm sqrt(9)
        assert Z == pytest.approx(3.0)
        assert variance == 0.0  # one sample cannot estimate a variance

    def test_robust_infeasible_stationary_gives_zero(self, monkeypatch):
        # at x = 0.5 the feasibility LP certifies x = 0 and x = 1
        # inconsistent: no progress to make, and no direction QP solved
        prob = make_infeasible_problem()

        def no_qp(*args, **kwargs):
            raise AssertionError("direction QP solved")

        monkeypatch.setattr(driver, "direction_step", no_qp)
        config = DriverConfig(termination="robust_dnorm")
        _, Z, *_ = estimate_condition_inputs(
            prob, iterate(prob, np.array([0.5]), np.zeros(2)), 2, config,
            np.random.default_rng(0), Counters())
        assert Z == 0.0

    def test_probe_does_not_count_updates(self):
        prob = make_eq_quadratic(noise=0.5, n=2)

        config = DriverConfig(termination="dnorm")
        x = np.array([0.3, -0.2])
        _, Z, *_ = estimate_condition_inputs(
            prob, iterate(prob, x, np.zeros(1)), 3, config,
            np.random.default_rng(1), Counters())
        assert Z > 0.0
        np.testing.assert_array_equal(x, [0.3, -0.2])  # x untouched


class TestRun:
    def test_budget_zero_stops_immediately(self):
        prob = make_eq_quadratic()
        out = run(prob, DriverConfig(max_gradient_evals=0),
                  np.random.default_rng(0))
        assert out.status == "BudgetExhausted"
        assert len(out.trace) == 1
        assert out.trace[0].k == -1

    def test_converges_on_quadratic(self):
        prob = make_eq_quadratic(noise=0.2)
        config = DriverConfig(stop_violation=1e-6, stop_stationarity=1e-4,
                              max_gradient_evals=10 ** 6)
        out = run(prob, config, np.random.default_rng(0))
        assert out.status == "Converged"
        # optimum of ||x - 1||^2 on sum(x) = 1 is x = 1/4 by symmetry
        np.testing.assert_allclose(out.x, 0.25 * np.ones(4), atol=1e-3)

    def test_batch_sizes_nondecreasing(self):
        prob = make_eq_quadratic(noise=0.5)
        config = DriverConfig(stop_violation=1e-6, stop_stationarity=1e-3,
                              max_gradient_evals=10 ** 5)
        out = run(prob, config, np.random.default_rng(1))
        sizes = [rec.batch_size for rec in out.trace[1:]]
        assert all(a <= b for a, b in zip(sizes, sizes[1:]))

    def test_metrics_outside_budget(self):
        prob = make_eq_quadratic(noise=0.5)
        out = run(prob, DriverConfig(max_gradient_evals=200),
                  np.random.default_rng(2))
        # the recorded cumulative gradient count only reflects solver work
        assert out.counters.gradient_evals == out.trace[-1].grad_evals_cum
        # and the overshoot is the one DriverConfig's docstring bounds
        over = out.counters.gradient_evals - 200
        assert 0 <= over < out.trace[-1].batch_size

    def test_zero_primal_step_does_not_spin(self):
        # the sampled minimiser of this quadratic is the true one, so after
        # the first outer iteration every primal step is zero; the dual step
        # it carries lets the "kkt" rule fire instead of spinning to the cap
        out = run(make_eq_quadratic(noise=0.5),
                  DriverConfig(max_gradient_evals=2000),
                  np.random.default_rng(0))
        assert len(out.trace) > 3
        assert all(r.term_cause != "inner_cap" for r in out.trace)

    @pytest.mark.parametrize("problem,method,budget", [
        ("synth-logreg-eq", "ra-sqp-dl", 100_000),
        ("synth-logreg-ineq", "ra-sqp-linf", 30_000),
        ("synth-logreg-ineq", "ra-sqp-l1", 30_000),
        ("synth-eq-quad", "ra-sqp-dnorm", 50_000),
        ("synth-logreg-ineq", "det-sqp", 200_000),
    ])
    def test_budget_overshoot_below_last_batch(self, problem, method, budget):
        # the bound stated in DriverConfig's docstring
        out = run_config(RunConfig(problem=problem, method=method, seed=0,
                                   max_gradient_evals=budget))
        assert out.status == "BudgetExhausted"
        over = out.counters.gradient_evals - budget
        assert 0 <= over < out.trace[-1].batch_size

    def test_gradient_conservation(self):
        # every counted gradient comes from sizing the batch (once per
        # member) or from an accepted update over the whole batch
        prob = make_eq_quadratic(noise=0.5)
        out = run(prob, DriverConfig(max_gradient_evals=3000),
                  np.random.default_rng(3))
        prev = out.trace[0].grad_evals_cum
        for rec in out.trace[1:]:
            delta = rec.grad_evals_cum - prev
            assert delta == rec.batch_size * (1 + rec.updates)
            prev = rec.grad_evals_cum

    def test_infeasible_detected(self):
        prob = make_infeasible_problem()
        config = DriverConfig(termination="robust_dnorm",
                              max_gradient_evals=10 ** 5)
        out = run(prob, config, np.random.default_rng(0))
        assert out.status == "InfeasibleStationary"
        np.testing.assert_allclose(out.x, [0.5], atol=1e-4)

    def test_deterministic_given_seed(self):
        prob = make_eq_quadratic(noise=0.5)
        outs = [run(make_eq_quadratic(noise=0.5),
                    DriverConfig(max_gradient_evals=2000),
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
                     lambda x: (np.zeros(0), np.array([x[0] - 1.0]),
                                np.zeros((0, 1)), np.array([[1.0]])),
                     0, 1, np.zeros(1), 0.0)
        with pytest.raises(ConfigError):
            run(ineq, DriverConfig(), np.random.default_rng(0))

    @pytest.mark.parametrize("sampling", [
        dict(sampling="geometric"), dict(sampling="adaptive"),
        dict(sampling="fixed", initial_size=4096)])
    def test_batch_limit_before_drawing(self, monkeypatch, sampling):
        # an expectation batch above MAX_BATCH ends the run before any
        # sampler call asks for it; a call that does ask allocates nothing
        monkeypatch.setattr(driver, "MAX_BATCH", 2048)
        prob = make_eq_quadratic(noise=0.5)
        asked = []
        sampler = prob.mode.sampler

        def recording(rng, count):
            asked.append(count)
            if count > 2048:
                raise MemoryError(f"asked for {count} draws")
            return sampler(rng, count)

        prob = dataclasses.replace(prob, mode=Expectation(recording))
        config = DriverConfig(termination="dl", max_gradient_evals=10 ** 9,
                              max_outer=50, **sampling)
        out = run(prob, config, np.random.default_rng(0))
        assert out.status == "BatchLimit"
        assert max(asked, default=0) <= 2048

    def test_geometric_growth_holds_no_set(self):
        # batches of 32 to 2^21 draws (16 MB as float64): each set is its
        # moments, and no set outlives its outer iteration
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            out = run_config(RunConfig(problem="synth-eq-quad",
                                       method="ra-sqp-dl",
                                       sampling="geometric", max_outer=9,
                                       max_gradient_evals=10 ** 9))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.trace[-1].batch_size == 2 ** 21
        assert peak < 8 * 2 ** 20

    def test_batch_limit_spares_finite_sums(self, monkeypatch):
        monkeypatch.setattr(driver, "MAX_BATCH", 16)
        out = run_config(RunConfig(problem="synth-logreg-eq",
                                   method="ra-sqp-dnorm", sampling="geometric",
                                   max_gradient_evals=20_000))
        assert out.status == "BudgetExhausted"
        assert out.trace[-1].batch_size > 16

    def test_lbfgs_variant_converges(self):
        prob = make_eq_quadratic(noise=0.2)
        config = DriverConfig(use_lbfgs=True,
                              termination="dl",
                              stop_violation=1e-6, stop_stationarity=1e-4,
                              max_gradient_evals=10 ** 6)
        out = run(prob, config, np.random.default_rng(5))
        assert out.status == "Converged"


def make_repeated_row_problem():
    """The README's additive-noise example with its one constraint stated
    twice: J_E = [[1, 1], [1, 1]] has rank 1 at every x."""
    v = np.array([1.0, -0.5])
    return build_expectation_problem(
        lambda x: float(x @ x), lambda x: 2.0 * x,
        lambda x: float(v @ x), lambda x: v,
        lambda x: (np.full(2, x.sum() - 1.0), np.zeros(0), np.ones((2, 2)),
                   np.zeros((0, 2))),
        m_E=2, m_I=0, x_init=np.zeros(2), noise_level=0.5)


@pytest.mark.parametrize("kind, exact, use_lbfgs", [
    ("kkt", True, False), ("kkt", False, False),
    ("dnorm", True, False), ("dnorm", False, False),
    ("dl", True, False), ("dl", False, False), ("dl", True, True)])
def test_rank_deficient_jacobian_converges(kind, exact, use_lbfgs):
    # the minimum-norm least-squares warm start on every batch; keeping the
    # previous batch's duals instead left inexact "dnorm" and "dl" solves
    # at budget on seeds 0, 2 and 3
    config = DriverConfig(termination=kind, exact=exact,
                          use_lbfgs=use_lbfgs, stop_violation=1e-8,
                          stop_stationarity=1e-2, max_gradient_evals=20_000)
    for seed in range(5):
        out = run(make_repeated_row_problem(), config,
                  np.random.default_rng(seed))
        assert out.status == "Converged", seed
        assert np.abs(out.x - 0.5).max() <= 1e-2, seed


class TestInnerLoop:
    """Every exit cause of the inner loop shared by both solvers, with the
    configured solver's `_INNER` probe and the update both solvers share
    replaced by fakes."""

    RULE = DriverConfig(termination="dnorm")
    # no hook is called: the fake updates evaluate nothing
    EVALUATOR = Evaluator(None, None, None)

    @staticmethod
    def no_update(ctx, step, evaluator, config, counters):
        raise AssertionError("no update expected")

    @staticmethod
    def inner_loop(monkeypatch, probe, update, ctx, config=RULE,
                   counters=None, evaluator=EVALUATOR, stop=None):
        monkeypatch.setitem(driver._INNER, config.solver, probe)
        monkeypatch.setattr(driver, "inner_iteration", update)
        return _inner_loop(ctx, config, evaluator, counters or Counters(),
                           stop)

    def test_line_search_failure(self, monkeypatch):
        def update(ctx, step, evaluator, config, counters):
            raise LineSearchFailure("stub")

        out = self.inner_loop(monkeypatch,
                              lambda ctx, config, counters: (1.0, 1.0, None),
                              update, "ctx")
        assert out == ("ctx", 0, "line_search_failure")

    def test_merit_collapse_in_probe(self, monkeypatch):
        def probe(ctx, config, counters):
            raise MeritCollapse("stub")

        out = self.inner_loop(monkeypatch, probe, self.no_update, "ctx")
        assert out == ("ctx", 0, "merit_collapse")

    def test_inner_cap(self, monkeypatch):
        # every update moves x and the rule never fires; each update gets
        # the step its probe returned, and the loop's evaluator, config and
        # counters
        counters = Counters()

        def update(ctx, step, evaluator, config, counters_):
            assert step == ("step", ctx)
            assert (evaluator, config, counters_) == (self.EVALUATOR,
                                                      self.RULE, counters)
            return ctx + 1, 0.5

        out = self.inner_loop(monkeypatch,
                              lambda ctx, config, counters: (
                                  1.0, 1.0, ("step", ctx)),
                              update, 0, counters=counters)
        assert out == (INNER_CAP, INNER_CAP, "inner_cap")

    @pytest.mark.parametrize("stop", [None, lambda ctx: False],
                             ids=["no-stop", "stop"])
    def test_update_that_cannot_move_ends_the_loop(self, monkeypatch, stop):
        # the update at ctx = 3 returns alpha 0 (a zero primal step or no
        # model decrease): the subsampled problem is solved to rounding, so
        # the loop ends "terminated" with the three moves counted and no
        # further probe, with or without the run's stop
        probed = []

        def probe(ctx, config, counters):
            probed.append(ctx)
            return 1.0, 1.0, None

        out = self.inner_loop(
            monkeypatch, probe,
            lambda ctx, step, *rest: (ctx + 1, 0.0 if ctx == 3 else 1.0),
            0, stop=stop)
        assert out == (4, 3, "terminated")
        assert probed == [0, 1, 2, 3]

    def test_snapshot_is_first_value(self, monkeypatch):
        # only the first probe's snapshot counts: the rule fires once
        # 10 - ctx <= 0.5 * 10 + 1e-6, although later snapshots would
        # have fired it at ctx = 1
        out = self.inner_loop(monkeypatch,
                              lambda ctx, config, counters: (
                                  10.0 - ctx, 10.0 + 10.0 * ctx, None),
                              lambda ctx, step, *rest: (ctx + 1, 1.0),
                              0)
        assert out == (5, 5, "terminated")

    def test_infeasible_stationary(self, monkeypatch):
        # the probe's certificate ends the loop before any update at that
        # point
        def probe(ctx, config, counters):
            if ctx == 3:
                raise InfeasibleStationary("stub")
            return 1.0, 1.0, None

        out = self.inner_loop(monkeypatch, probe,
                              lambda ctx, step, *rest: (ctx + 1, 1.0),
                              0)
        assert out == (3, 3, "infeasible_stationary")

    def test_budget(self, monkeypatch):
        def probe(ctx, config, counters):
            raise AssertionError("no iteration once the budget is spent")

        out = self.inner_loop(monkeypatch, probe, self.no_update, "ctx",
                              DriverConfig(termination="dnorm",
                                           max_gradient_evals=10),
                              Counters(gradient_evals=10))
        assert out == ("ctx", 0, "budget")

    def test_robust_entry(self, monkeypatch):
        # the robust rule looks its own entry up, and the probe gets the
        # loop's config and counters
        counters = Counters()
        config = DriverConfig(termination="robust_dnorm")

        def probe(ctx, config_, counters_):
            assert (config_, counters_) == (config, counters)
            raise InfeasibleStationary("stub")

        out = self.inner_loop(monkeypatch, probe, self.no_update, "ctx",
                              config, counters)
        assert out == ("ctx", 0, "infeasible_stationary")

    def test_equality_infeasible_stationary(self, monkeypatch):
        # the equality merit plan's certificate ends the loop as the robust
        # probe's does, not as the merit collapse it subclasses
        def update(ctx, step, evaluator, config, counters):
            raise InfeasibleStationary("stub")

        out = self.inner_loop(monkeypatch,
                              lambda ctx, config, counters: (1.0, 1.0, None),
                              update, "ctx")
        assert out == ("ctx", 0, "infeasible_stationary")

    def test_stop_after_moving_updates(self, monkeypatch):
        # the stop is tested after each update, every one of which moves x,
        # and only then; the rule would fire at ctx = 5
        tested = []

        def stop(ctx):
            tested.append(ctx)
            return ctx == 3

        out = self.inner_loop(
            monkeypatch,
            lambda ctx, config, counters: (10.0 - ctx, 10.0, None),
            lambda ctx, step, *rest: (ctx + 1, 1.0), 0, stop=stop)
        assert out == (3, 3, "converged")
        assert tested == [1, 2, 3]

    def test_stop_drops_the_floor(self, monkeypatch):
        # a measure of 1e-7 from a first value of 0 meets the growing
        # batch's floor, but not the stop-tested loop's, which runs on
        def probe(ctx, config, counters):
            return (1e-7 if ctx < 3 else 0.0), 0.0, None

        move = lambda ctx, step, *rest: (ctx + 1, 1.0)  # noqa: E731
        assert self.inner_loop(monkeypatch, probe, move, 0) == (
            0, 0, "terminated")
        out = self.inner_loop(monkeypatch, probe, move, 0,
                              stop=lambda ctx: False)
        assert out == (3, 3, "terminated")


def _causes(problem, method, budget, **kw):
    out = run_config(RunConfig(problem=problem, method=method, seed=0,
                               max_gradient_evals=budget, **kw))
    return out, [rec.term_cause for rec in out.trace[1:]]


class TestTermCauses:
    """Solves whose outer iterations end with each solver-reported cause."""

    def test_robust_terminated_merit_collapse_budget(self, monkeypatch):
        # the robust solver's tenth trial merit parameter is 0, forced
        # through the module name of the shared update, as in
        # test_equality_merit_collapse: that outer ends in merit_collapse,
        # the others terminate or hit the budget
        calls = itertools.count(1)
        rule = sqp_eq.trial_tau
        monkeypatch.setattr(sqp_eq, "trial_tau", lambda *args: (
            0.0 if next(calls) == 10 else rule(*args)))
        out, causes = _causes("synth-logreg-ineq", "ra-sqp-linf", 60_000)
        assert {"terminated", "merit_collapse", "budget"} <= set(causes)
        assert causes[-1] == "budget"
        assert out.status == "BudgetExhausted"

    def test_robust_infeasible_stationary(self):
        out, causes = _causes("infeasible-1d", "ra-sqp-linf", 10_000)
        assert causes == ["infeasible_stationary"]
        assert out.status == "InfeasibleStationary"

    def test_equality_merit_collapse(self, monkeypatch):
        # a trial merit parameter of 0 at the feasible start, where the
        # infeasibility certificate cannot fire: the "dl" rule's merit
        # parameter collapses at the first inner iteration of every outer
        monkeypatch.setattr(sqp_eq, "trial_tau", lambda *args: 0.0)
        out, causes = _causes("synth-logreg-eq", "ra-sqp-dl", 10_000,
                              max_outer=3)
        assert causes == ["merit_collapse"] * 3
        assert all(rec.inner_iters == 0 for rec in out.trace[1:])
        assert out.status == "BudgetExhausted"

    def test_equality_noise_no_merit_collapse(self):
        # this geometric L-BFGS solve meets MINRES noise in g'd + curv that
        # a narrow guard reads as a zero trial merit parameter. It reaches
        # the whole data set at stationarity 1.28e-4; with no floor there
        # each outer moves x, and the budget ends the run below 1e-8 (with
        # the floor, the first outer there made no update and the run
        # ended Stalled at 1.28e-4)
        out = run_config(RunConfig(problem="synth-logreg-eq",
                                   method="ra-sqp-dl-lbfgs", seed=0,
                                   sampling="geometric",
                                   max_gradient_evals=200_000, max_outer=60))
        assert all(rec.term_cause != "merit_collapse"
                   for rec in out.trace[1:])
        assert out.status == "BudgetExhausted"
        full = [rec for rec in out.trace[1:] if rec.batch_size == 5000]
        assert full and all(rec.updates > 0 for rec in full)
        assert out.trace[-1].stationarity <= 1e-8

    @pytest.mark.parametrize("method", ["ra-sqp-kkt", "ra-sqp-dnorm",
                                        "ra-sqp-dl", "ra-sqp-dl-lbfgs",
                                        "ra-sqp-dl-inexact", "det-sqp"])
    def test_equality_infeasible_stationary(self, method):
        # the merit plan certifies that no step reduces the violation
        out, causes = _causes("infeasible-1d", method, 10 ** 5)
        assert causes == ["infeasible_stationary"]
        assert out.status == "InfeasibleStationary"
        assert out.trace[-1].violation_inf > sqp_eq.INFEAS_TOL_V


class TestFullBatchStop:
    """On a finite sum's whole data set the inner loop tests the run's stop
    after each update, with no floor on the inner rule, whether or not
    stop thresholds are set."""

    @staticmethod
    def solve(monkeypatch, problem, method, seed, stop_v, stop_s, budget):
        """The solve's outcome and the number of true_metrics calls at each
        point."""
        seen = collections.Counter()
        original = driver.true_metrics

        def counted(problem, x, constraints=None):
            seen[x.tobytes()] += 1
            return original(problem, x, constraints=constraints)

        monkeypatch.setattr(driver, "true_metrics", counted)
        out = run_config(RunConfig(problem=problem, method=method, seed=seed,
                                   stop_violation=stop_v,
                                   stop_stationarity=stop_s,
                                   max_gradient_evals=budget))
        return out, seen

    def test_stop_at_first_full_batch_update(self, monkeypatch):
        # the stop holds after the first update on the whole data set, and
        # the loop ends there, with no more 5,000-row updates and no
        # merit collapse
        out, seen = self.solve(monkeypatch, "synth-logreg-ineq",
                               "ra-sqp-linf", 1, 1e-6, 3e-3, 500_000)
        last = out.trace[-1]
        assert out.status == "Converged"
        assert [r.batch_size for r in out.trace].count(5000) == 1
        assert (last.batch_size, last.updates, last.term_cause) == (
            5000, 1, "converged")
        assert out.counters.gradient_evals == last.grad_evals_cum == 28_328
        assert last.violation_inf <= 1e-6 and last.stationarity <= 3e-3
        # the record reuses the metrics the stop computed
        assert set(seen.values()) == {1}
        assert set(seen) == {r.x.tobytes() for r in out.trace}

    def test_full_batch_repeat_ends(self, monkeypatch):
        # with the floor the inner rule held at the snapshot of every outer
        # on the whole data set, which repeated the same 5,000-row
        # gradient until the budget (1,004,384 evaluations, 172 outers)
        out, seen = self.solve(monkeypatch, "synth-logreg-eq", "ra-sqp-dl",
                               0, 1e-5, 1e-4, 10 ** 6)
        assert out.status == "Converged"
        assert len(out.trace) - 1 == 7
        assert out.counters.gradient_evals == 237_408
        assert out.trace[-1].term_cause == "converged"
        assert all(rec.updates > 0 for rec in out.trace[1:])
        assert set(seen.values()) == {1}

    @pytest.mark.parametrize("method,stops,budget", [
        ("det-sqp", (1e-5, 1e-2), 10 ** 6),
        ("det-sqp", (None, None), 20_000),
        ("ra-sqp-dl", (1e-5, 1e-4), 10 ** 6)])
    def test_stop_only_on_the_whole_data_set(self, monkeypatch, method,
                                             stops, budget):
        # the inner loop gets the stop exactly when the batch is the whole
        # data set, with or without stop thresholds (with none it never
        # holds)
        handed = self.stops_handed(monkeypatch)
        out = run_config(RunConfig(problem="synth-logreg-eq", method=method,
                                   stop_violation=stops[0],
                                   stop_stationarity=stops[1],
                                   max_gradient_evals=budget))
        sizes = [rec.batch_size for rec in out.trace[1:]]
        assert 5000 in sizes
        assert handed == [size == 5000 for size in sizes]
        if stops[0] is None:
            assert all(rec.term_cause != "converged"
                       for rec in out.trace[1:])

    @staticmethod
    def registry_solve(method):
        """A `--workload registry` solve: seed 0, no stop thresholds."""
        return run_config(RunConfig(problem="synth-logreg-eq", method=method,
                                    seed=0, max_gradient_evals=200_000,
                                    max_outer=60))

    def test_whole_data_set_solved_without_stop_thresholds(self):
        # with the floor kept where no stop thresholds were set, the rule
        # held at once on the whole data set and the run ended Stalled at
        # stationarity 3.77e-4 with 17,592 evaluations left
        out = self.registry_solve("ra-sqp-dl")
        assert out.status != "Stalled"
        assert out.trace[-1].stationarity < 3.77e-4

    def test_no_repeated_probe_of_an_unmoved_iterate(self):
        # the whole data set is solved to rounding, where an update cannot
        # move x; that ends the inner loop, which without the alpha = 0
        # exit probed the same iterate up to INNER_CAP (6,168 MINRES
        # iterations against 679)
        out = self.registry_solve("ra-sqp-dl-lbfgs")
        assert all(rec.term_cause != "inner_cap" for rec in out.trace[1:])
        assert out.counters.minres_iters <= 1000

    def test_expectation_batch_never_stop_tested(self, monkeypatch):
        handed = self.stops_handed(monkeypatch)
        run(make_eq_quadratic(noise=0.2),
            DriverConfig(stop_violation=1e-6, stop_stationarity=1e-4,
                         max_gradient_evals=10 ** 5),
            np.random.default_rng(0))
        assert handed and not any(handed)

    @staticmethod
    def stops_handed(monkeypatch) -> list:
        """A list that records, per inner loop of the runs that follow,
        whether its evaluator carries a stop."""
        handed = []
        original = driver._inner_loop

        def recording(ctx, config, evaluator, counters, stop=None):
            handed.append(stop is not None)
            return original(ctx, config, evaluator, counters, stop)

        monkeypatch.setattr(driver, "_inner_loop", recording)
        return handed


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


@pytest.mark.parametrize("method", ["ra-sqp-linf", "ra-sqp-l1"])
def test_each_feasibility_lp_solved_once(monkeypatch, method):
    # the LP reads only the constraint values, so one context solves it
    # once, for the estimate probe and the inner probes alike
    seen = collections.Counter()
    original = driver.feasibility_step

    def counted(c_E, c_I, J_E, J_I, sigma_p, mode, counters=None):
        key = (c_E.tobytes(), c_I.tobytes(), J_E.tobytes(), J_I.tobytes(),
               sigma_p, mode)
        seen[key] += 1
        return original(c_E, c_I, J_E, J_I, sigma_p, mode, counters=counters)

    monkeypatch.setattr(driver, "feasibility_step", counted)
    out = run_config(RunConfig(problem="synth-logreg-ineq", method=method,
                               seed=0, max_gradient_evals=30000))
    assert len(out.trace) > 2
    assert len(seen) > 10
    assert set(seen.values()) == {1}


@pytest.mark.parametrize("problem,method,max_outer", [
    ("synth-logreg-ineq", "ra-sqp-linf", 10 ** 9),
    ("infeasible-1d", "ra-sqp-dl", 3)])
def test_true_metrics_once_per_record_iterate(monkeypatch, problem, method,
                                              max_outer):
    # a record at the previous record's iterate (an outer iteration with no
    # update) reuses its metrics, which equal the metrics evaluated afresh.
    # The first line search of the third outer fails, forced through the
    # module name the update both solvers share calls it by, so that outer
    # has no update (the infeasible-1d solves certify at their first probe)
    seen = collections.Counter()
    original = driver.true_metrics
    search, batches = sqp_eq.line_search_step, []

    def counted(problem, x, constraints=None):
        seen[x.tobytes()] += 1
        return original(problem, x, constraints=constraints)

    def fail_third_batch(ctx, d, delta, tau, delta_l, evaluator, mode):
        if evaluator not in batches:
            batches.append(evaluator)
            if len(batches) == 3:
                raise LineSearchFailure("forced")
        return search(ctx, d, delta, tau, delta_l, evaluator, mode)

    monkeypatch.setattr(driver, "true_metrics", counted)
    monkeypatch.setattr(sqp_eq, "line_search_step", fail_third_batch)
    cfg = RunConfig(problem=problem, method=method, seed=0,
                    max_gradient_evals=30000, max_outer=max_outer)
    out = run_config(cfg)
    assert len(out.trace) > len(seen)
    assert set(seen.values()) == {1}
    assert set(seen) == {r.x.tobytes() for r in out.trace}
    prob = build_problem(problem)
    for r in out.trace:
        v, s, _ = original(prob, r.x)
        assert (v, s) == (r.violation_inf, r.stationarity)


class TestTrueMetrics:
    def test_equality_quadratic_at_solution(self):
        prob = make_eq_quadratic()
        v, s, lam = true_metrics(prob, 0.25 * np.ones(4))
        assert v <= 1e-12
        assert s <= 1e-10
        assert lam.shape == (prob.m_E,)

    def test_violation_reported(self):
        prob = make_eq_quadratic()
        v, _, _ = true_metrics(prob, np.zeros(4))
        assert v == pytest.approx(1.0)

    def test_unconstrained_stationarity_is_gradient_norm(self):
        # no equality constraints: the least-squares multipliers are empty
        # and the Lagrangian gradient is the gradient itself
        n = 3
        prob = build_augmented_problem(
            value_fn=lambda x: float(x @ x), grad_fn=lambda x: 2.0 * x - 1.0,
            constraints=lambda x: (np.zeros(0), np.zeros(0),
                                   np.zeros((0, n)), np.zeros((0, n))),
            m_E=0, m_I=0, x_init=np.zeros(n), noise_level=0.1)
        x = np.array([0.3, -2.0, 0.5])
        v, s, lam = true_metrics(prob, x)
        assert v == 0.0 and lam.shape == (0,)
        assert s == np.linalg.norm(2.0 * x - 1.0, np.inf)

    def test_finite_sum_fallback_matches_analytic(self):
        # without an analytic gradient, a finite sum averages the dataset
        prob = build_problem("synth-logreg-eq")
        bare = dataclasses.replace(prob, true_gradient=None)
        rng = np.random.default_rng(5)
        for x in (prob.x_init, 0.3 * rng.standard_normal(prob.n)):
            v, s, lam = true_metrics(prob, x)
            v_b, s_b, lam_b = true_metrics(bare, x)
            # the caller's constraint values at x give the same metrics
            again = true_metrics(prob, x,
                                 constraints=eval_constraints(prob, x))
            assert again[:2] == (v, s) and np.array_equal(again[2], lam)
            assert v_b == v
            assert s_b == pytest.approx(s, rel=1e-12, abs=1e-12)
            np.testing.assert_allclose(lam_b, lam, rtol=1e-10, atol=1e-12)

    def test_expectation_problem_needs_its_true_gradient(self):
        # no sample average is an expectation's exact gradient, so a bare
        # expectation problem is refused when it is built
        with pytest.raises(ConfigError, match="true_gradient"):
            dataclasses.replace(build_problem("synth-eq-quad"),
                                true_gradient=None)

    @pytest.mark.parametrize("method", ["ra-sqp-linf", "ra-sqp-l1"])
    def test_robust_outcome_multipliers(self, method):
        # the robust solver's multipliers are the stationarity measure's at
        # the final iterate: (lambda_E, lambda_I) with lambda_I >= 0, whose
        # Lagrangian gradient is within the last record's stationarity
        out = run_config(RunConfig(problem="synth-logreg-ineq", method=method,
                                   seed=0, max_gradient_evals=30000))
        prob = build_problem("synth-logreg-ineq")
        lam, last = out.lam, out.trace[-1]
        assert lam.shape == (prob.m_E + prob.m_I,)
        assert lam[prob.m_E:].min() >= 0.0
        assert np.array_equal(last.x, out.x)
        _, c_I, J_E, J_I = eval_constraints(prob, out.x)
        res = (prob.true_gradient(out.x) + J_E.T @ lam[:prob.m_E]
               + J_I.T @ lam[prob.m_E:])
        assert np.abs(res).max() <= last.stationarity * (1.0 + 1e-12)
        assert (np.abs(lam[prob.m_E:] * c_I).max()
                <= last.stationarity * (1.0 + 1e-12))


def kkt_lp(g, c_I, J_E, J_I):
    """The least t such that some (lambda_E, lambda_I >= 0) puts every
    entry of g + J'lambda and of lambda_I c_I within t, as an LP over (t,
    lambda) solved by the interior point, or None unless it ends optimal."""
    n, m_E, m_I = g.size, J_E.shape[0], J_I.shape[0]
    nv = 1 + m_E + m_I
    t = np.eye(1, nv)
    stat = np.hstack([np.zeros((n, 1)), J_E.T, J_I.T])
    comp = np.zeros((m_I, nv))
    comp[np.arange(m_I), 1 + m_E + np.arange(m_I)] = c_I
    signed = np.r_[0, 1 + m_E:nv]
    C = np.vstack([stat - t, -stat - t, comp - t, -comp - t,
                   -np.eye(nv)[signed]])
    d = np.concatenate([-g, g, np.zeros(2 * m_I + signed.size)])
    sol = solve_program(t[0], C, d)
    return sol.x[0] if sol.status == "optimal" else None


def random_point(rng, m_E_max=2, m_I_max=4):
    """(g, (c_E, c_I, J_E, J_I)) with a J_E of full row rank, some c_I
    entries exactly 0 (active), and g anywhere."""
    n = int(rng.integers(1, 6))
    m_E = int(rng.integers(0, min(m_E_max, n) + 1))
    m_I = int(rng.integers(1, m_I_max + 1))
    c_I = rng.standard_normal(m_I) * (rng.random(m_I) < 0.6)
    return rng.standard_normal(n), (np.zeros(m_E), c_I,
                                    rng.standard_normal((m_E, n)),
                                    rng.standard_normal((m_I, n)))


def measure_at(g, constraints, lam):
    """max(|g + J'lam|_inf, |lam_I c_I|_inf), the stationarity measure."""
    c_E, c_I, J_E, J_I = constraints
    m_E = c_E.size
    return max(np.abs(g + J_E.T @ lam[:m_E] + J_I.T @ lam[m_E:]).max(),
               np.abs(lam[m_E:] * c_I).max(initial=0.0))


class TestStationarityMeasure:
    """`metrics_at`'s stationarity: the max-norm of the Lagrangian gradient
    and the complementarity products at the sign-constrained least-squares
    multipliers, for every problem."""

    def test_stationary_point(self):
        # min x1^2 + x2^2 s.t. x1 + x2 = 2 at (1,1): grad (2,2), J_E (1,1)
        _, s, lam = metrics_at(np.array([2.0, 2.0]), (
            np.zeros(1), np.zeros(0), np.array([[1.0, 1.0]]),
            np.zeros((0, 2))))
        assert s <= 1e-15
        np.testing.assert_allclose(lam, [-2.0], rtol=1e-15)

    def test_unconstrained_nonstationary(self):
        _, s, lam = metrics_at(np.array([1.0]), (
            np.zeros(0), np.zeros(0), np.zeros((0, 1)), np.zeros((0, 1))))
        assert s == 1.0 and lam.shape == (0,)

    def test_active_inequality_cancels(self):
        # min x s.t. -x <= 0 at x = 0: grad 1, J_I = [-1], lambda = 1
        _, s, lam = metrics_at(np.array([1.0]), (
            np.zeros(0), np.array([0.0]), np.zeros((0, 1)),
            np.array([[-1.0]])))
        assert s <= 1e-15
        np.testing.assert_allclose(lam, [1.0], rtol=1e-15)

    def test_inactive_inequality_complementarity(self):
        # strictly feasible c_I = -1: lambda minimizes (1 - lambda)^2 +
        # lambda^2, so both terms read 1/2, as the LP's balance does
        _, s, lam = metrics_at(np.array([1.0]), (
            np.zeros(0), np.array([-1.0]), np.zeros((0, 1)),
            np.array([[-1.0]])))
        assert s == pytest.approx(0.5, rel=1e-15)
        np.testing.assert_allclose(lam, [0.5], rtol=1e-15)

    def test_wrong_signed_multiplier_is_held_at_zero(self):
        # min -x s.t. x <= 0 pushed the wrong way: grad 1, J_I = [1]; the
        # unsigned least squares give lambda = -1, the measure lambda = 0
        _, s, lam = metrics_at(np.array([1.0]), (
            np.zeros(0), np.array([0.0]), np.zeros((0, 1)),
            np.array([[1.0]])))
        assert s == 1.0 and lam.tolist() == [0.0]

    def test_constructed_kkt_points(self):
        # planted KKT points, more rows than variables among them: the
        # measure reads rounding, at multipliers with lambda_I >= 0
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            m_e = int(rng.integers(0, n + 1))
            m_i = int(rng.integers(1, n + 3))
            J_E = rng.standard_normal((m_e, n))
            J_I = rng.standard_normal((m_i, n))
            grad = -(J_E.T @ rng.standard_normal(m_e)
                     + J_I.T @ rng.uniform(0.1, 2.0, m_i))
            cons = (np.zeros(m_e), np.zeros(m_i), J_E, J_I)
            _, s, lam = metrics_at(grad, cons)
            assert s <= 1e-12 * (1.0 + np.abs(grad).max())
            assert lam.shape == (m_e + m_i,) and lam[m_e:].min() >= 0.0
            assert s == pytest.approx(measure_at(grad, cons, lam), rel=1e-14)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_enumeration_oracle(self, seed):
        # the least ||g + J'lam||^2 + ||lam_I c_I||^2 over lam_I >= 0, by
        # enumerating which lam_I entries are free of their bound; its
        # residual is unique, so the measure is too
        rng = np.random.default_rng(seed)
        for _ in range(50):
            g, cons = random_point(rng)
            c_E, c_I, J_E, J_I = cons
            m_E, m_I = c_E.size, c_I.size
            A = np.vstack([np.vstack([J_E, J_I]).T,
                           np.hstack([np.zeros((m_I, m_E)), np.diag(c_I)])])
            b = np.concatenate([-g, np.zeros(m_I)])
            best, oracle = np.inf, None
            for r in range(m_I + 1):
                for rows in itertools.combinations(range(m_I), r):
                    cols = list(range(m_E)) + [m_E + i for i in rows]
                    lam = np.zeros(m_E + m_I)
                    lam[cols] = np.linalg.lstsq(A[:, cols], b,
                                                rcond=None)[0]
                    resid = A @ lam - b
                    if lam[m_E:].min() >= 0.0 and resid @ resid < best:
                        best, oracle = resid @ resid, measure_at(g, cons,
                                                                 lam)
            _, s, lam = metrics_at(g, cons)
            assert lam[m_E:].min() >= 0.0
            assert abs(s - oracle) <= 1e-12 * (1.0 + np.abs(g).max())

    @pytest.mark.parametrize("seed", range(4))
    def test_never_below_the_lp(self, seed):
        # the LP's t is the least max-norm over lam_I >= 0, and the measure
        # is the max-norm at one such lam; the least 2-norm bounds it above
        # by sqrt(n + m_I) t. Rank-deficient J_E and more rows than
        # variables included
        rng = np.random.default_rng(100 + seed)
        checked = 0
        while checked < 50:
            g, cons = random_point(rng, m_E_max=3)
            c_E, c_I, J_E, J_I = cons
            t = kkt_lp(g, c_I, J_E, J_I)
            if t is None:
                continue
            checked += 1
            _, s, lam = metrics_at(g, cons)
            assert lam[c_E.size:].min() >= 0.0
            assert s >= t - 1e-6
            assert s <= math.sqrt(g.size + c_I.size) * t + 1e-6

    @pytest.mark.parametrize("m_E", range(5))
    def test_bit_identical_to_least_squares_dual_without_inequalities(
            self, m_E):
        # a repeated row from m_E = 2 on, and more rows than variables
        rng = np.random.default_rng(m_E)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            J_E = rng.standard_normal((m_E, n))
            if m_E >= 2:
                J_E[1] = J_E[0]
            g = rng.standard_normal(n)
            _, s, lam = metrics_at(g, (np.zeros(m_E), np.zeros(0), J_E,
                                       np.zeros((0, n))))
            lam_ls = least_squares_dual(J_E, g)
            assert lam.tobytes() == lam_ls.tobytes()
            assert s == norm(g + J_E.T @ lam_ls, np.inf)

    def test_repeated_equality_row(self):
        # the unsigned least squares give lambda = -1/3 (1, 1, 1); lambda_E
        # is eliminated before the sign-constrained solve, so the repeated
        # row leaves it no singular working set: lambda_I = 0, and the
        # least-squares lambda_E for it is exact
        cons = (np.zeros(2), np.array([0.0]), np.array([[1.0], [1.0]]),
                np.array([[1.0]]))
        _, s, lam = metrics_at(np.array([1.0]), cons)
        assert lam[2] == 0.0 and s <= 1e-15
        np.testing.assert_allclose(lam[:2], [-0.5, -0.5], rtol=1e-15)

    def test_fallback_when_the_routine_gives_none(self, monkeypatch):
        # with the routine giving none (a singular working set or its cap),
        # every point still reads at a lam with lam_I >= 0, so never below
        # the LP
        calls = []
        monkeypatch.setattr(driver, "sign_constrained_qp",
                            lambda *args: calls.append(args))
        rng = np.random.default_rng(7)
        fell_back = 0
        while fell_back < 30:
            g, cons = random_point(rng)
            c_E, c_I, J_E, J_I = cons
            t = kkt_lp(g, c_I, J_E, J_I)
            asked = len(calls)
            _, s, lam = metrics_at(g, cons)
            if t is None or len(calls) == asked:
                continue
            fell_back += 1
            assert lam[c_E.size:].min() >= 0.0
            assert s == pytest.approx(measure_at(g, cons, lam), rel=1e-14)
            assert s >= t - 1e-6
