"""Benchmark harness: success rules, profiles, active sets, CSV emission,
config files, and the command-line entry points."""

import dataclasses
import hashlib
import importlib.util
import math
import pickle
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

from rasqp.bench import (METHODS, PROBLEMS, RESULT_COLUMNS, TRACE_COLUMNS,
                         RunConfig, active_set_report, build_problem,
                         cost_to_success, jaccard, make_synthetic_dataset,
                         method_driver_config, performance_profile,
                         profile_curve, read_trace_csv, result_row,
                         run_config, success_test, write_trace_csv)
from rasqp import bench, cli
from rasqp.cli import load_config_file, main
from rasqp.driver import OuterRecord, SolveOutcome
from rasqp.counters import Counters
from rasqp.errors import ConfigError, NumericalFailure
from rasqp.problems import Dataset, build_augmented_problem


class TestSuccessRule:
    def test_relative_when_init_large(self):
        # init 10: threshold is eps_tol * 10
        assert success_test(10.0, 0.9, 1e-1)
        assert not success_test(10.0, 1.1, 1e-1)

    def test_absolute_when_init_small(self):
        # init 0.5 < 1: threshold is eps_tol itself
        assert success_test(0.5, 0.05, 1e-1)
        assert not success_test(0.5, 0.2, 1e-1)

    def test_zero_metric_always_succeeds(self):
        assert success_test(0.0, 0.0, 1e-4)

    def test_invalid_tolerance(self):
        with pytest.raises(ConfigError):
            success_test(1.0, 0.5, 1.0)


class TestJaccard:
    def test_identical(self):
        assert jaccard(frozenset({1, 2}), frozenset({1, 2})) == 1.0

    def test_partial_overlap(self):
        assert jaccard(frozenset({1, 2}), frozenset({2, 3})) == pytest.approx(
            1 / 3)

    def test_both_empty(self):
        assert jaccard(frozenset(), frozenset()) == 1.0

    def test_one_empty(self):
        assert jaccard(frozenset({1}), frozenset()) == 0.0


class TestActiveSetReport:
    def test_rows_and_one_evaluation_per_iterate(self):
        # x0 + x1 = 1 and the bounds x >= 0 written as -x <= 0
        calls = []

        def constraints(x):
            calls.append(x.copy())
            return (np.array([x[0] + x[1] - 1.0]), -x, np.ones((1, 2)),
                    -np.eye(2))

        prob = build_augmented_problem(
            lambda x: float(x @ x), lambda x: 2.0 * x, constraints, 1, 2,
            np.zeros(2), 0.0)
        xs = [np.array([0.5, 0.5]), np.array([1.0, 0.0]),
              np.array([-0.5, 1.0])]
        report = active_set_report(prob, xs, np.array([1.0, 0.0]))
        assert report == [(frozenset(), 0.0, 0.0),
                          (frozenset({1}), 1.0, 0.0),
                          (frozenset({0}), 0.0, 0.5)]
        assert len(calls) == 1 + len(xs)  # the reference, then each iterate


class TestPerformanceProfile:
    def test_two_methods(self):
        costs = {("i0", "a"): 10.0, ("i0", "b"): 20.0}
        methods, instances, ratios = performance_profile(costs)
        assert methods == ["a", "b"]
        assert ratios["a"] == [1.0]
        assert ratios["b"] == [2.0]

    def test_failure_is_infinite(self):
        costs = {("i0", "a"): 10.0, ("i0", "b"): None}
        _, _, ratios = performance_profile(costs)
        assert ratios["b"] == [math.inf]

    def test_curve_step_function(self):
        curve = profile_curve([1.0, 2.0, math.inf], [1.0, 2.0, 3.0])
        assert curve == [pytest.approx(1 / 3), pytest.approx(2 / 3),
                         pytest.approx(2 / 3)]

    def test_single_method_always_one(self):
        costs = {("i0", "a"): 5.0, ("i1", "a"): 7.0}
        _, _, ratios = performance_profile(costs)
        assert profile_curve(ratios["a"], [1.0]) == [1.0]


def fake_outcome(metrics, grads=None):
    """Trace with given (violation, stationarity) pairs; first row is k=-1."""
    trace = []
    for i, (v, s) in enumerate(metrics):
        trace.append(OuterRecord(
            k=i - 1, batch_size=0 if i == 0 else 32, inner_iters=i,
            updates=i, estimation_size=0, violation_inf=v, stationarity=s,
            grad_evals_cum=(grads[i] if grads else 100 * i),
            minres_iters_cum=10 * i, barrier_iters_cum=i,
            tau_exit=1.0, term_cause="initial" if i == 0 else "terminated"))
    return SolveOutcome(status="Converged", x=np.zeros(1), lam=None,
                        trace=trace, counters=Counters())


class TestCostToSuccess:
    def test_first_passing_record(self):
        out = fake_outcome([(2.0, 2.0), (1.0, 1.0), (0.1, 0.1), (0.01, 0.01)])
        assert cost_to_success(out.trace, 1e-1) == 200

    def test_never_successful(self):
        out = fake_outcome([(2.0, 2.0), (1.0, 1.0)])
        assert cost_to_success(out.trace, 1e-4) is None

    def test_solver_iters_metric(self):
        out = fake_outcome([(2.0, 2.0), (0.1, 0.1)])
        assert cost_to_success(out.trace, 1e-1, "solver_iters") == 11

    def test_unknown_metric_rejected(self):
        out = fake_outcome([(2.0, 2.0), (0.1, 0.1)])
        with pytest.raises(ConfigError, match="profile metric"):
            cost_to_success(out.trace, 1e-1, "wall_s")


class TestProblemRegistry:
    def test_all_problems_build(self):
        for name in PROBLEMS:
            prob = build_problem(name)
            assert prob.n >= 1
            assert prob.x_init.shape == (prob.n,)

    def test_synthetic_dataset_shape(self):
        ds = make_synthetic_dataset(n_samples=60, n_features=10, n_classes=3)
        assert len(ds) == 60
        assert ds.n_features == 10
        assert sorted(set(int(v) for v in ds.labels)) == [0, 1, 2]

    def test_dataset_deterministic_in_seed(self):
        a = make_synthetic_dataset(n_samples=10, data_seed=3)
        b = make_synthetic_dataset(n_samples=10, data_seed=3)
        for name in ("data", "indices", "indptr"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_default_dataset_pinned(self):
        # recorded from the row-by-row construction the vectorised one
        # replaced: every entry stored, the bias last in each row
        ds = make_synthetic_dataset()
        assert (len(ds), ds.n_features, ds.data.size) == (5000, 10, 50000)
        np.testing.assert_array_equal(ds.indices,
                                      np.tile(np.arange(10), 5000))
        np.testing.assert_array_equal(ds.indptr, np.arange(0, 50001, 10))
        np.testing.assert_array_equal(ds.labels, np.arange(5000) % 3)
        np.testing.assert_array_equal(
            ds.data[:12],
            [2.1257302210933933, -0.1321048632913019, 0.6404226504432821,
             0.10490011715303971, -0.535669373161111, 0.36159505490948474,
             1.3040000451301372, 0.9470809631292422, -0.7037352358069926,
             1.0, -1.2654214710460525, 1.3767255374626477])
        assert hashlib.sha256(ds.data.tobytes()).hexdigest() == (
            "4e52685113d29727125bbbe303f7d362491cf05790096f92f03fe91bf48abdc3")

    def test_unknown_problem(self):
        with pytest.raises(ConfigError):
            build_problem("nope")

    @pytest.mark.parametrize("n_features", [1, 0])
    def test_synthetic_dataset_needs_a_raw_feature(self, n_features):
        # the bias alone leaves no feature to shift a class along
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="n_features must be >= 2"):
                make_synthetic_dataset(n_samples=6, n_features=n_features)


class TestDatasetMemo:
    def test_same_arguments_same_object(self):
        a = make_synthetic_dataset(n_samples=40, data_seed=5)
        assert make_synthetic_dataset(n_samples=40, data_seed=5) is a
        assert make_synthetic_dataset(n_samples=40, data_seed=6) is not a

    def test_any_spelling_of_the_arguments_same_object(self):
        bench._synthetic_dataset.cache_clear()
        a = make_synthetic_dataset()
        assert make_synthetic_dataset(data_seed=0) is a
        assert make_synthetic_dataset(5000, 10, 3, 0) is a
        assert bench._synthetic_dataset.cache_info().misses == 1

    def test_arrays_read_only(self):
        ds = make_synthetic_dataset(n_samples=40, data_seed=5)
        for name in ("data", "indices", "indptr", "labels"):
            with pytest.raises(ValueError):
                getattr(ds, name)[0] = 1

    def test_one_build_per_process(self, monkeypatch):
        bench._synthetic_dataset.cache_clear()
        calls, built = [], []
        memo = make_synthetic_dataset

        def counting_make(*args, **kwargs):
            calls.append(1)
            return memo(*args, **kwargs)

        from_dense = Dataset.from_dense

        def counting_from_dense(*args):
            built.append(1)
            return from_dense(*args)

        monkeypatch.setattr(bench, "make_synthetic_dataset", counting_make)
        monkeypatch.setattr(Dataset, "from_dense",
                            staticmethod(counting_from_dense))
        a = build_problem("synth-logreg-eq")
        b = build_problem("synth-logreg-eq")
        assert (len(calls), len(built)) == (2, 1)
        # one data set, but a problem (and its per-solve state) per call
        assert a is not b and a.sums is not b.sums

    def test_repeated_solves_match_a_fresh_one(self):
        config = RunConfig(problem="synth-logreg-eq", method="ra-sqp-dl",
                           max_gradient_evals=20000)

        def result():
            out = run_config(config)
            return out.status, pickle.dumps((out.trace, out.x))

        bench._synthetic_dataset.cache_clear()
        fresh = result()
        assert result() == fresh
        assert result() == fresh


class TestMethodTable:
    def test_all_methods_map_for_some_problem(self):
        eq_prob = build_problem("synth-eq-quad")
        ineq_prob = build_problem("synth-logreg-ineq")
        for method in METHODS:
            prob = ineq_prob if method in ("ra-sqp-linf", "ra-sqp-l1") \
                else eq_prob
            cfg = method_driver_config(method, prob, RunConfig(method=method))
            assert cfg.solver in ("equality", "robust")

    def test_equality_method_rejects_inequalities(self):
        with pytest.raises(ConfigError):
            run_config(RunConfig(problem="synth-logreg-ineq",
                                 method="ra-sqp-dl"))

    def test_unknown_method(self):
        with pytest.raises(ConfigError):
            method_driver_config("nope", build_problem("synth-eq-quad"),
                                 RunConfig())

    def test_det_sqp_full_batch_on_finite_sum(self):
        # a fixed batch of the dataset size: run clips nothing
        prob = build_problem("synth-logreg-eq")
        cfg = method_driver_config("det-sqp", prob, RunConfig())
        assert cfg.sampling == "fixed"
        assert cfg.initial_size == 5000

    def test_det_sqp_fixed_batch_on_expectation(self):
        prob = build_problem("synth-eq-quad")
        cfg = method_driver_config("det-sqp", prob, RunConfig())
        assert cfg.sampling == "fixed"
        assert cfg.initial_size == 10 ** 4


class TestCsvRoundtrips:
    def test_trace_deterministic_modulo_header(self, tmp_path):
        cfg = RunConfig(problem="synth-eq-quad", method="ra-sqp-dl", seed=0,
                        max_gradient_evals=2000)
        paths = []
        for i in range(2):
            out = run_config(cfg)
            p = tmp_path / f"t{i}.csv"
            write_trace_csv(str(p), out)
            paths.append(p)
        bodies = []
        for p in paths:
            with open(p) as fh:
                bodies.append([ln for ln in fh if not ln.startswith("#")])
        assert bodies[0] == bodies[1]
        rows = read_trace_csv(str(paths[0]))
        assert rows[0]["k"] == "-1"
        assert int(rows[-1]["grad_evals_cum"]) > 0

    def test_columns_are_the_scalar_record_fields(self):
        # every OuterRecord field but the iterate, each once
        assert sorted(TRACE_COLUMNS) == sorted(
            f.name for f in dataclasses.fields(OuterRecord) if f.name != "x")

    def test_result_row_columns(self, tmp_path, monkeypatch, capsys):
        out = fake_outcome([(2.0, 2.0), (0.001, 0.001)])
        row = result_row(RunConfig(problem="p", method="m", seed=1), out)
        assert row["cost@0.01"] == 100
        assert row["cost@0.0001"] == ""
        # a sweep writes each solve's row under the RESULT_COLUMNS header
        monkeypatch.setattr(cli, "run_config", lambda cfg: out)
        path = tmp_path / "res.csv"
        assert main(["sweep", "--problems", "synth-eq-quad", "--seeds", "1",
                     "--out", str(path)]) == 0
        with open(path) as fh:
            header = fh.readline().strip().split(",")
        assert "cost@0.001" in header and "iters@0.1" in header
        assert tuple(header) == RESULT_COLUMNS
        (written,) = read_trace_csv(str(path))
        assert written == {k: str(v) for k, v in result_row(
            RunConfig(problem="synth-eq-quad", seed=1), out).items()}


class TestSweep:
    @pytest.mark.parametrize("field,value", [
        ("seed", 1.5), ("seed", 2.0), ("seed", "3"), ("data_seed", 1.5)])
    def test_non_integer_seed_fails_before_any_solve(self, field, value):
        # numpy would raise at the first solve, and a sweep would record a
        # FAILED row instead of refusing the config
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            RunConfig(**{field: value})
        for good in (3, np.int64(3)):
            assert getattr(RunConfig(**{field: good}), field) == 3

    def test_collects_rows_and_errors(self, tmp_path, capsys):
        # a raising solve is reported with no row, and the sweep goes on to
        # the next solve, whose row is the one a lone solve gives
        res = tmp_path / "results.csv"
        assert main(["sweep", "--problems", "synth-logreg-ineq,synth-eq-quad",
                     "--methods", "ra-sqp-dl", "--max-gradient-evals",
                     "1500", "--out", str(res)]) == 0
        out, err = capsys.readouterr()
        assert [line for line in err.splitlines() if "FAILED" in line] == [
            "synth-logreg-ineq ra-sqp-dl seed=0: FAILED (ConfigError: "
            "equality solver requires a problem with m_I = 0)"]
        assert f"wrote 1 results to {res}" in out
        good = RunConfig(problem="synth-eq-quad", method="ra-sqp-dl",
                         max_gradient_evals=1500)
        assert read_trace_csv(str(res)) == [
            {k: str(v) for k, v in result_row(good, run_config(good)).items()}]

    def test_interrupted_sweep_keeps_finished_solves(self, tmp_path,
                                                     monkeypatch):
        # each solve's row (flushed) and trace are written as it ends, so a
        # sweep stopped in its third solve leaves the first two
        res, traces = tmp_path / "results.csv", tmp_path / "traces"
        traces.mkdir()
        seen = []

        def third_interrupts(cfg):
            seen.append((cfg.seed, res.read_text().splitlines(),
                         sorted(p.name for p in traces.iterdir())))
            if len(seen) == 3:
                raise KeyboardInterrupt
            return run_config(cfg)

        monkeypatch.setattr(cli, "run_config", third_interrupts)
        with pytest.raises(KeyboardInterrupt):
            main(["sweep", "--problems", "synth-eq-quad", "--methods",
                  "ra-sqp-dl", "--seeds", "0-3", "--max-gradient-evals",
                  "1500", "--out", str(res), "--trace-dir", str(traces)])
        names = [f"trace_synth-eq-quad_ra-sqp-dl_{seed}.csv"
                 for seed in (0, 1)]
        # on disk while the third solve runs, not only once the file closes
        assert [(seed, len(lines), files) for seed, lines, files in seen] == [
            (0, 1, []), (1, 2, names[:1]), (2, 3, names)]
        rows = read_trace_csv(str(res))
        assert [row["seed"] for row in rows] == ["0", "1"]
        assert sorted(p.name for p in traces.iterdir()) == names


# (status, gradient evals, MINRES iterations, barrier iterations, batch size
# of each outer iteration) of four short solves, recorded from the code they
# guard. Work counters are the solver's cost measure and repeat exactly for
# a seed, so a change to the arithmetic or to the sample stream moves them.
WORK_COUNTERS = [
    pytest.param(RunConfig(problem="synth-eq-quad", method="ra-sqp-dl",
                           sampling="geometric", max_outer=4),
                 ("BudgetExhausted", 21536, 308, 0, (32, 128, 512, 2048)),
                 id="synth-eq-quad"),
    pytest.param(RunConfig(problem="synth-logreg-eq",
                           method="ra-sqp-dl-lbfgs",
                           max_gradient_evals=30000),
                 ("BudgetExhausted", 34396, 354, 0,
                  (32, 44, 44, 220, 1100, 5000, 5000, 5000)),
                 id="synth-logreg-eq"),
    pytest.param(RunConfig(problem="synth-logreg-eq", method="ra-sqp-kkt",
                           max_gradient_evals=30000),
                 ("BudgetExhausted", 30572, 125, 0,
                  (32, 34, 46, 108, 256, 561, 781, 2109)),
                 id="synth-logreg-eq-ra-sqp-kkt"),
    pytest.param(RunConfig(problem="synth-logreg-eq", method="ra-sqp-dnorm",
                           max_gradient_evals=30000),
                 ("BudgetExhausted", 32752, 133, 0,
                  (32, 34, 49, 122, 459, 1077, 4898)),
                 id="synth-logreg-eq-ra-sqp-dnorm"),
    pytest.param(RunConfig(problem="synth-logreg-eq",
                           method="ra-sqp-dl-inexact",
                           max_gradient_evals=30000),
                 ("BudgetExhausted", 30048, 54, 0, (32, 160, 800, 4000)),
                 id="synth-logreg-eq-ra-sqp-dl-inexact"),
    pytest.param(RunConfig(problem="synth-logreg-eq", method="det-sqp",
                           max_gradient_evals=30000),
                 ("BudgetExhausted", 30000, 12, 0, (5000, 5000)),
                 id="synth-logreg-eq-det-sqp"),
    pytest.param(RunConfig(problem="synth-eq-quad", method="det-sqp",
                           max_gradient_evals=50000),
                 ("BudgetExhausted", 50000, 33, 0, (10000, 10000)),
                 id="synth-eq-quad-det-sqp"),
    pytest.param(RunConfig(problem="synth-logreg-ineq", method="ra-sqp-linf",
                           max_gradient_evals=30000),
                 ("BudgetExhausted", 32752, 0, 129,
                  (32, 34, 49, 122, 459, 1077, 4898)),
                 id="synth-logreg-ineq"),
    pytest.param(RunConfig(problem="synth-logreg-ineq", method="det-sqp",
                           max_gradient_evals=30000),
                 ("BudgetExhausted", 30000, 0, 15, (5000, 5000)),
                 id="synth-logreg-ineq-det-sqp"),
    pytest.param(RunConfig(problem="infeasible-1d", method="ra-sqp-linf"),
                 ("InfeasibleStationary", 64, 0, 16, (32,)),
                 id="infeasible-1d"),
    pytest.param(RunConfig(problem="synth-logreg-ineq", method="ra-sqp-l1",
                           max_gradient_evals=30000),
                 ("BudgetExhausted", 32752, 0, 129,
                  (32, 34, 49, 122, 459, 1077, 4898)),
                 id="synth-logreg-ineq-ra-sqp-l1"),
    pytest.param(RunConfig(problem="infeasible-1d", method="ra-sqp-l1"),
                 ("InfeasibleStationary", 32, 0, 5, (32,)),
                 id="infeasible-1d-ra-sqp-l1"),
]


@pytest.mark.parametrize("config,expected", WORK_COUNTERS)
def test_work_counters_unchanged(config, expected):
    out = run_config(config)
    c = out.counters
    assert (out.status, c.gradient_evals, c.minres_iters, c.barrier_iters,
            tuple(r.batch_size for r in out.trace[1:])) == expected


def test_inequality_only_run_skips_the_interior_point(monkeypatch):
    # every feasibility LP and every direction QP of this inequality-only
    # run is answered exactly (the LP's certificate, the QP's projection),
    # so no program reaches the interior point; the gradient count and
    # batches are the WORK_COUNTERS pin's
    from rasqp import sqp_ineq

    solve = sqp_ineq.solve_program
    programs = []

    def spy(g, C, d, H=None, counters=None):
        programs.append("QP" if H is not None else "LP")
        return solve(g, C, d, H, counters=counters)

    monkeypatch.setattr(sqp_ineq, "solve_program", spy)
    out = run_config(RunConfig(problem="synth-logreg-ineq",
                               method="ra-sqp-linf",
                               max_gradient_evals=30000))
    assert programs == []
    assert out.counters.barrier_iters > 0  # the projections' working sets
    assert (out.status, out.counters.gradient_evals,
            tuple(r.batch_size for r in out.trace[1:])) == (
        "BudgetExhausted", 32752, (32, 34, 49, 122, 459, 1077, 4898))


# method -> (status, gradient evals, function evals, MINRES iterations,
# barrier iterations, `tools/work_digest.py` digest of the trace records and
# final x) of an `infeasible-1d` solve at seed 0 under a 2e4 gradient
# budget. The robust methods' counters were recorded from the hand-written
# instance the registry once held, the equality methods' when the equality
# solver gained its infeasibility certificate: the RA equality methods all
# certify the infeasible stationary point at their first step, on the same
# 32 rows. The digest hashes the record fields by position, so it is
# re-recorded whenever a field goes. The benchmark's solve lists never use
# this problem, so this is its pin.
EQ_CERTIFIED = ("cb5ddd0a015758648480f22f101cccd0"
                "76ebe8bac55961a3dcca9162c31251c6")
INFEASIBLE_1D = {
    "ra-sqp-kkt": ("InfeasibleStationary", 32, 32, 5, 0, EQ_CERTIFIED),
    "ra-sqp-dnorm": ("InfeasibleStationary", 32, 32, 5, 0, EQ_CERTIFIED),
    "ra-sqp-dl": ("InfeasibleStationary", 32, 32, 5, 0, EQ_CERTIFIED),
    "ra-sqp-dl-lbfgs": ("InfeasibleStationary", 32, 32, 5, 0, EQ_CERTIFIED),
    "ra-sqp-dl-inexact": ("InfeasibleStationary", 32, 32, 5, 0,
                          EQ_CERTIFIED),
    "ra-sqp-linf": ("InfeasibleStationary", 64, 96, 0, 16,
                    "2105f8310c94fdca41a605be18f23535"
                    "cc26841b181e4e8bc95146b61f2b870b"),
    "ra-sqp-l1": ("InfeasibleStationary", 32, 32, 0, 5,
                  "13536babb1b93d5170eaeb237fe9c728"
                  "2619324ed1849ba8de10b2dea878f929"),
    "det-sqp": ("InfeasibleStationary", 10000, 10000, 5, 0,
                "137df8054eeabf47d5cb44a38fc7d0d5"
                "a20d4a4a68d71fbfb857f30b08a3653c"),
}


def test_infeasible_1d_pinned():
    assert set(INFEASIBLE_1D) == set(METHODS)
    spec = importlib.util.spec_from_file_location(
        "work_digest", Path(__file__).resolve().parents[1] / "tools"
        / "work_digest.py")
    wd = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(wd)
    for method, expected in INFEASIBLE_1D.items():
        out = run_config(RunConfig(problem="infeasible-1d", method=method,
                                   seed=0, max_gradient_evals=20000))
        c = out.counters
        assert (out.status, c.gradient_evals, c.function_evals,
                c.minres_iters, c.barrier_iters,
                wd.digest(out)) == expected, method


class TestConfigFile:
    def test_parse_values_and_comments(self, tmp_path):
        p = tmp_path / "cfg"
        p.write_text("problem = synth-eq-quad  # which problem\n"
                     "\n"
                     "max-gradient-evals = 5000\n"
                     "beta = 0.25\n")
        values = load_config_file(str(p))
        assert values == {"problem": "synth-eq-quad",
                          "max_gradient_evals": 5000, "beta": 0.25}

    def test_output_is_not_a_config_key(self, tmp_path, capsys):
        # the trace path is `run`'s own --output flag, not a run setting
        p = tmp_path / "cfg"
        p.write_text("output = t.csv\n")
        with pytest.raises(ConfigError, match="unknown config key 'output'"):
            load_config_file(str(p))
        assert main(["run", "--config", str(p)]) == 2

    def test_malformed_line_reports_number(self, tmp_path):
        p = tmp_path / "cfg"
        p.write_text("problem synth-eq-quad\n")
        with pytest.raises(ConfigError) as err:
            load_config_file(str(p))
        assert ":1:" in str(err.value)

    @pytest.mark.parametrize("line,key", [
        ("seed = abc", "seed"),            # not an int, as --seed needs
        ("sampling = fixed", "sampling"),  # not among --sampling's choices
        ("beta = half", "beta"),
        ("problem = nope", "problem"),
    ])
    def test_bad_value_names_key_and_exits_2(self, tmp_path, capsys, line,
                                             key):
        p = tmp_path / "cfg"
        p.write_text("method = ra-sqp-dl\n" + line + "\n")
        with pytest.raises(ConfigError) as err:
            load_config_file(str(p))
        assert f":2: invalid {key} value" in str(err.value)
        assert main(["run", "--config", str(p)]) == 2
        assert f"invalid {key} value" in capsys.readouterr().err


class TestCli:
    def test_run_writes_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        code = main(["run", "--problem", "synth-eq-quad", "--method",
                     "ra-sqp-dl", "--seed", "0", "--max-gradient-evals",
                     "2000", "--output", str(out)])
        assert code == 0
        summary = capsys.readouterr().out
        rows = read_trace_csv(str(out))
        assert tuple(rows[0]) == TRACE_COLUMNS
        ref = run_config(RunConfig(problem="synth-eq-quad",
                                   method="ra-sqp-dl", seed=0,
                                   max_gradient_evals=2000))
        # the summary says why the run ended: its status, the last
        # record's term_cause and the number of outer iterations
        assert summary.startswith(
            f"synth-eq-quad ra-sqp-dl seed=0: {ref.status}, "
            f"term_cause={ref.trace[-1].term_cause}, "
            f"outers={len(ref.trace) - 1}, ")
        assert ref.trace[-1].term_cause == "budget"
        assert len(rows) == len(ref.trace)
        for row, rec in zip(rows, ref.trace):
            assert int(row["k"]) == rec.k
            assert int(row["updates"]) == rec.updates
            assert int(row["estimation_size"]) == rec.estimation_size

    def test_lone_stop_threshold_exits_2(self, capsys):
        assert main(["run", "--problem", "synth-eq-quad", "--method",
                     "ra-sqp-dl", "--stop-violation", "1e-3"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_numerical_failure_exits_1(self, tmp_path, monkeypatch, capsys):
        def failing_run(cfg):
            raise NumericalFailure("direction QP ended with status max_iter")

        monkeypatch.setattr(cli, "run_config", failing_run)
        code = main(["run", "--problem", "synth-eq-quad", "--method",
                     "ra-sqp-dl", "--output", str(tmp_path / "t.csv")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert ("numerical failure: direction QP ended with status max_iter"
                in err)

    def test_unknown_method_exits_2(self, capsys):
        assert main(["run", "--problem", "synth-eq-quad", "--method",
                     "nope"]) == 2

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        p = tmp_path / "cfg"
        p.write_text("nonsense = 1\n")
        assert main(["run", "--config", str(p)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        p = tmp_path / "cfg"
        p.write_text("problem = synth-eq-quad\nmethod = ra-sqp-dl\n"
                     "max-gradient-evals = 100000\n")
        out = tmp_path / "t.csv"
        code = main(["run", "--config", str(p), "--max-gradient-evals",
                     "1500", "--output", str(out)])
        assert code == 0
        rows = read_trace_csv(str(out))
        # the flag override caps the budget below the file's value
        assert int(rows[-1]["grad_evals_cum"]) < 5000

    def test_sweep_and_profile(self, tmp_path, capsys):
        res = tmp_path / "results.csv"
        code = main(["sweep", "--problems", "synth-eq-quad", "--methods",
                     "ra-sqp-dl,ra-sqp-kkt", "--seeds", "0-1",
                     "--max-gradient-evals", "60000",
                     "--stop-violation", "1e-5",
                     "--stop-stationarity", "1e-3",
                     "--out", str(res)])
        assert code == 0
        prof = tmp_path / "profile.csv"
        code = main(["profile", "--inputs", str(res), "--tol", "0.1",
                     "--out", str(prof)])
        assert code == 0
        with open(prof) as fh:
            header = fh.readline().strip().split(",")
        assert header[0] == "tau"
        assert set(header[1:]) == {"ra-sqp-dl", "ra-sqp-kkt"}

    @pytest.mark.parametrize("seeds", ["3-1", "a", "1,", "0-x"])
    def test_bad_seeds_exit_2(self, tmp_path, capsys, seeds):
        res = tmp_path / "results.csv"
        assert main(["sweep", "--problems", "synth-eq-quad", "--seeds",
                     seeds, "--out", str(res)]) == 2
        assert "invalid --seeds part" in capsys.readouterr().err
        assert not res.exists()

    def test_sweep_reports_failures_and_writes_traces(self, tmp_path,
                                                      capsys):
        # the equality solver rejects the inequality problem; the sweep
        # reports that solve and keeps the other one's row and trace
        res, traces = tmp_path / "results.csv", tmp_path / "traces"
        traces.mkdir()
        code = main(["sweep", "--problems", "infeasible-1d,synth-logreg-ineq",
                     "--methods", "ra-sqp-dl", "--max-gradient-evals",
                     "2000", "--out", str(res), "--trace-dir", str(traces)])
        assert code == 0
        failed = [line for line in capsys.readouterr().err.splitlines()
                  if "FAILED" in line]
        assert len(failed) == 1
        assert failed[0].startswith("synth-logreg-ineq ra-sqp-dl seed=0: "
                                    "FAILED (ConfigError: ")
        rows = read_trace_csv(str(res))
        assert [(r["problem"], r["method"], r["seed"]) for r in rows] == [
            ("infeasible-1d", "ra-sqp-dl", "0")]
        (path,) = traces.iterdir()
        assert path.name == "trace_infeasible-1d_ra-sqp-dl_0.csv"
        trace = read_trace_csv(str(path))
        assert trace[-1]["grad_evals_cum"] == rows[0]["grad_evals"]

    def test_active_set_report(self, tmp_path, capsys):
        out = tmp_path / "as.csv"
        assert main(["active-set", "--problem", "synth-logreg-ineq",
                     "--method", "ra-sqp-linf", "--max-gradient-evals",
                     "20000", "--out", str(out)]) == 0
        with open(out) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "k,jaccard,violation_inf,active_set"
        ref = run_config(RunConfig(problem="synth-logreg-ineq",
                                   method="ra-sqp-linf",
                                   max_gradient_evals=20000))
        assert [int(line.split(",")[0]) for line in lines[1:]] == [
            rec.k for rec in ref.trace]

    def test_active_set_needs_inequalities(self, tmp_path, capsys):
        assert main(["active-set", "--problem", "synth-logreg-eq", "--out",
                     str(tmp_path / "as.csv")]) == 2
        assert ("active-set reports need inequality constraints"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("argv,config", [
        (["run", "--seed", "-1"], None),
        (["run", "--data-seed", "-2"], None),
        (["sweep", "--seed", "-1"], None),
        (["active-set", "--problem", "synth-logreg-ineq", "--seed", "-1"],
         None),
        (["run", "--config"], "seed = -3\n"),
    ])
    def test_negative_seed_exits_2(self, tmp_path, capsys, monkeypatch,
                                   argv, config):
        monkeypatch.chdir(tmp_path)
        if config is not None:
            (tmp_path / "cfg").write_text(config)
            argv = argv + ["cfg"]
        assert main(argv) == 2
        assert "must be non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        (["sweep", "--problems", "synth-eq-quad,bogus"],
         "unknown problem 'bogus'"),
        (["sweep", "--methods", "ra-sqp-dl,ra-sqp-foo"],
         "unknown method 'ra-sqp-foo'"),
        (["run", "--max-outer", "-3"], "max_outer must be non-negative"),
        (["run", "--max-gradient-evals", "-1"],
         "max_gradient_evals must be non-negative"),
        (["sweep", "--max-outer", "-1"], "max_outer must be non-negative"),
        (["sweep", "--initial-size", "0"], "initial_size must be >= 1"),
        (["sweep", "--beta", "1.5"], "beta must be in (0, 1)"),
        (["run", "--stop-violation", "nan", "--stop-stationarity", "1e-3"],
         "stop_violation must be >= 0, got nan"),
        (["run", "--stop-violation", "-1", "--stop-stationarity", "1e-3"],
         "stop_violation must be >= 0, got -1.0"),
        (["sweep", "--stop-violation", "1e-3", "--stop-stationarity", "nan"],
         "stop_stationarity must be >= 0, got nan"),
        (["sweep", "--stop-violation", "1e-3"],
         "stop_violation and stop_stationarity are set together"),
        (["sweep", "--seeds", "0,0-1"], "seed 0 repeated in --seeds"),
        (["sweep", "--seeds", "0-3,5,2-4"], "seed 2 repeated in --seeds"),
        (["sweep", "--problems", "synth-eq-quad,infeasible-1d,synth-eq-quad"],
         "problem 'synth-eq-quad' repeated in --problems"),
        (["sweep", "--methods", "ra-sqp-dl,ra-sqp-dl"],
         "method 'ra-sqp-dl' repeated in --methods"),
    ])
    def test_bad_config_fails_before_solving(self, tmp_path, capsys,
                                             monkeypatch, argv, message):
        def no_solve(*args):
            raise AssertionError("solved before the config was checked")

        monkeypatch.setattr(cli, "run_config", no_solve)
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("missing", ["problem", "method", "seed",
                                         "cost@0.01"])
    def test_profile_input_without_column_exits_2(self, tmp_path, capsys,
                                                  missing):
        columns = [c for c in RESULT_COLUMNS if c != missing]
        res, prof = tmp_path / "results.csv", tmp_path / "profile.csv"
        res.write_text(",".join(columns) + "\n"
                       + ",".join("1" for _ in columns) + "\n")
        assert main(["profile", "--inputs", str(res), "--out",
                     str(prof)]) == 2
        assert f"has no {missing!r} column" in capsys.readouterr().err
        assert not prof.exists()

    @pytest.mark.parametrize("cell", ["abc", "0", "-1", "nan"])
    def test_profile_bad_cost_cell_exits_2(self, tmp_path, capsys, cell):
        # the second method's cost on seed 1 is the bad cell: only an empty
        # cell (a failure) or a finite number > 0 is a cost
        res, prof = tmp_path / "results.csv", tmp_path / "profile.csv"
        res.write_text("problem,method,seed,cost@0.01\n"
                       "p,a,0,10\np,b,0,\np,a,1,5\n"
                       f"p,b,1,{cell}\n")
        assert main(["profile", "--inputs", str(res), "--out",
                     str(prof)]) == 2
        err = capsys.readouterr().err
        assert (f"error: {res}: row 4, column 'cost@0.01': expected an "
                f"empty cell or a finite number > 0, got {cell!r}") in err
        assert not prof.exists()

    def test_profile_repeated_solve_exits_2(self, tmp_path, capsys):
        # a second row for one (problem, seed, method) would silently
        # replace the first one's cost
        res, prof = tmp_path / "results.csv", tmp_path / "profile.csv"
        res.write_text("problem,method,seed,cost@0.01\n"
                       "p,a,0,10\np,b,0,\np,a,1,5\np,a,0,7\n")
        assert main(["profile", "--inputs", str(res), "--out",
                     str(prof)]) == 2
        err = capsys.readouterr().err
        assert (f"error: {res}: rows 1 and 4 both hold problem 'p', seed "
                f"'0', method 'a'") in err
        assert not prof.exists()

    @pytest.mark.parametrize("argv", [
        ["run", "--output", "{missing}/t.csv"],
        ["run", "--output", "{tmp}"],
        ["sweep", "--out", "{missing}/r.csv"],
        ["sweep", "--seeds", "0-1", "--trace-dir", "{missing}"],
        ["active-set", "--problem", "synth-logreg-ineq",
         "--out", "{missing}/a.csv"],
    ])
    def test_unwritable_output_fails_before_solving(self, tmp_path, capsys,
                                                    monkeypatch, argv):
        def no_solve(*args):
            raise AssertionError("solved before the output path was checked")

        monkeypatch.setattr(cli, "run_config", no_solve)
        monkeypatch.chdir(tmp_path)
        argv = [a.format(missing=tmp_path / "missing", tmp=tmp_path)
                for a in argv]
        assert main(argv) == 2
        assert "error: cannot write output file" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


    @pytest.mark.parametrize("argv", [
        ["sweep", "--seeds", "0-1"],
        ["active-set", "--problem", "synth-logreg-ineq"],
    ])
    def test_output_is_a_run_flag_only(self, tmp_path, capsys, monkeypatch,
                                       argv):
        # only `run` writes a trace to --output; the other commands refuse
        # the flag instead of ignoring it
        def no_solve(*args):
            raise AssertionError("solved with a refused flag")

        monkeypatch.setattr(cli, "run_config", no_solve)
        monkeypatch.chdir(tmp_path)
        assert main(argv + ["--output", str(tmp_path / "x.csv")]) == 2
        assert ("unrecognized arguments: --output"
                in capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == []


class TestNumpyOnlyStart:
    def test_scipy_loads_with_the_first_interior_point_program(self):
        # a fresh interpreter: importing rasqp, building every problem and
        # solving without an interior-point program need numpy alone
        code = textwrap.dedent("""
            import sys
            sys.path.insert(0, sys.argv[1])
            from rasqp.bench import PROBLEMS, RunConfig, build_problem, run_config
            import rasqp.cli

            def scipy_modules():
                return [m for m in sys.modules
                        if m == "scipy" or m.startswith("scipy.")]

            for name in PROBLEMS:
                build_problem(name)
            for problem in ("synth-logreg-eq", "synth-eq-quad"):
                run_config(RunConfig(problem=problem, method="ra-sqp-dl",
                                     max_gradient_evals=3000))
            assert scipy_modules() == [], scipy_modules()
            run_config(RunConfig(problem="synth-logreg-ineq",
                                 method="ra-sqp-linf",
                                 max_gradient_evals=3000))
            assert "scipy.linalg" in sys.modules
        """)
        src = Path(cli.__file__).resolve().parents[1]
        done = subprocess.run([sys.executable, "-c", code, str(src)],
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
