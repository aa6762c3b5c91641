"""Dataset parsing, subsampled evaluation, sampling, and the concrete
problem families."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rasqp.counters import Counters
from rasqp.errors import ConfigError, ParseError
from rasqp.problems import (Dataset, SampleSet, build_augmented_problem,
                            build_logreg_problem,
                            draw_samples, eval_constraints, eval_subsampled,
                            eval_subsampled_value, gradient_stats,
                            parse_libsvm, serialize_libsvm)


SAMPLE_TEXT = "1 1:0.5 3:2.0\n-1 2:1.0\n1 1:-1.0 2:0.25 3:1.5\n"


class TestParseLibsvm:
    def test_basic_shape(self):
        ds = parse_libsvm(SAMPLE_TEXT)
        assert len(ds) == 3
        # three raw features plus the bias column
        assert ds.n_features == 4
        assert ds.n_classes == 2

    def test_bias_feature_appended(self):
        ds = parse_libsvm(SAMPLE_TEXT)
        for row in ds.rows:
            assert (3, 1.0) in row

    def test_labels_remapped_sorted(self):
        ds = parse_libsvm(SAMPLE_TEXT)
        # raw labels {-1, 1} map to {0, 1} in sorted order
        np.testing.assert_array_equal(ds.labels, [1, 0, 1])

    def test_one_based_indices(self):
        ds = parse_libsvm("0 1:7.0\n")
        assert (0, 7.0) in ds.rows[0]

    def test_bad_label(self):
        with pytest.raises(ParseError) as err:
            parse_libsvm("abc 1:1.0\n")
        assert err.value.line == 1

    def test_nonincreasing_index(self):
        with pytest.raises(ParseError) as err:
            parse_libsvm("1 2:1.0 2:2.0\n")
        assert err.value.line == 1

    def test_bad_token(self):
        with pytest.raises(ParseError):
            parse_libsvm("1 nonsense\n")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_libsvm("\n\n")

    def test_roundtrip(self):
        ds = parse_libsvm(SAMPLE_TEXT)
        again = parse_libsvm(serialize_libsvm(ds))
        assert again.n_features == ds.n_features
        np.testing.assert_array_equal(again.labels, ds.labels)
        assert again.rows == ds.rows

    def test_csr_matches_rows(self):
        ds = parse_libsvm(SAMPLE_TEXT)
        X = ds.to_csr().toarray()
        assert X.shape == (3, 4)
        assert X[0, 0] == 0.5 and X[0, 2] == 2.0 and X[0, 3] == 1.0


def make_quadratic_problem(noise=0.5):
    n = 3
    return build_augmented_problem(
        value_fn=lambda x: float(x @ x),
        grad_fn=lambda x: 2.0 * x,
        constraint_eval=lambda x: (np.array([x[0] - 1.0]), np.zeros(0)),
        jacobian_eval=lambda x: (np.array([[1.0, 0.0, 0.0]]),
                                 np.zeros((0, n))),
        m_E=1, m_I=0, x_init=np.zeros(n), noise_level=noise)


class TestEvaluation:
    def test_counts_gradient_evals(self):
        prob = make_quadratic_problem()
        ct = Counters()
        S = SampleSet((0.1, -0.2, 0.0))
        eval_subsampled(prob, np.ones(3), S, ct)
        assert ct.gradient_evals == 3

    def test_value_only_counts_function_evals(self):
        prob = make_quadratic_problem()
        ct = Counters()
        eval_subsampled_value(prob, np.ones(3), SampleSet((0.1, 0.2)), ct)
        assert ct.gradient_evals == 0
        assert ct.function_evals == 2

    def test_zero_noise_matches_true(self):
        prob = make_quadratic_problem(noise=0.0)
        x = np.array([1.0, 2.0, 3.0])
        v, g = eval_subsampled(prob, x, SampleSet((0.0, 0.0)), None)
        assert v == pytest.approx(prob.true_value(x))
        np.testing.assert_allclose(g, prob.true_gradient(x))

    def test_batch_eval_matches_loop(self):
        prob = make_quadratic_problem()
        x = np.array([0.5, -1.0, 2.0])
        samples = (0.3, -0.1, 0.05)
        vsum = sum(prob.objective_eval(x, s) for s in samples)
        gsum = sum(prob.gradient_eval(x, s) for s in samples)
        bv, bg = prob.batch_eval(x, samples)
        assert bv == pytest.approx(vsum)
        np.testing.assert_allclose(bg, gsum, atol=1e-12)

    def test_gradient_stats_matches_loop(self):
        prob = make_quadratic_problem()
        x = np.array([0.5, -1.0, 2.0])
        samples = (0.3, -0.1, 0.05)
        sq = sum(float(prob.gradient_eval(x, s) @ prob.gradient_eval(x, s))
                 for s in samples)
        _, _, sqsum = gradient_stats(prob, x, samples)
        assert sqsum == pytest.approx(sq)

    def test_empty_sample_set_rejected(self):
        prob = make_quadratic_problem()
        with pytest.raises(ConfigError):
            eval_subsampled(prob, np.zeros(3), SampleSet(()), None)


class TestDrawSamples:
    def test_finite_sum_without_replacement(self):
        prob = build_logreg_problem(_tiny_dataset(), "equality")
        rng = np.random.default_rng(0)
        S = draw_samples(prob, 8, rng)
        assert len(set(S.items)) == 8

    def test_superset_prefix(self):
        prob = build_logreg_problem(_tiny_dataset(), "equality")
        rng = np.random.default_rng(0)
        S0 = draw_samples(prob, 4, rng)
        S1 = draw_samples(prob, 9, rng, superset_of=S0)
        assert S1.items[:4] == S0.items
        assert len(set(S1.items)) == 9

    def test_oversized_request_rejected(self):
        prob = build_logreg_problem(_tiny_dataset(), "equality")
        with pytest.raises(ConfigError):
            draw_samples(prob, 10 ** 6, np.random.default_rng(0))

    @given(st.integers(1, 10), st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_expectation_sizes(self, size, seed):
        prob = make_quadratic_problem()
        S = draw_samples(prob, size, np.random.default_rng(seed))
        assert S.size == size
        assert all(-0.5 <= xi <= 0.5 for xi in S.items)


def _tiny_dataset(n_samples=12, n_raw=3, n_classes=2, seed=0):
    rng = np.random.default_rng(seed)
    rows, labels = [], []
    for i in range(n_samples):
        k = i % n_classes
        v = rng.standard_normal(n_raw)
        rows.append([(j, float(v[j])) for j in range(n_raw)] + [(n_raw, 1.0)])
        labels.append(k)
    return Dataset(rows=rows, labels=np.array(labels), n_features=n_raw + 1,
                   n_classes=n_classes)


class TestLogreg:
    def test_dimensions(self):
        ds = _tiny_dataset()
        prob = build_logreg_problem(ds, "equality")
        assert prob.n == ds.n_features * ds.n_classes
        assert prob.m_E == ds.n_classes and prob.m_I == 0
        prob = build_logreg_problem(ds, "inequality")
        assert prob.m_I == ds.n_classes and prob.m_E == 0

    def test_gradient_matches_finite_differences(self):
        prob = build_logreg_problem(_tiny_dataset(), "equality")
        rng = np.random.default_rng(1)
        x = rng.standard_normal(prob.n)
        for i in (0, 3, 7):
            g = prob.gradient_eval(x, i)
            h = 1e-6
            for j in range(0, prob.n, 3):
                e = np.zeros(prob.n)
                e[j] = h
                fd = (prob.objective_eval(x + e, i)
                      - prob.objective_eval(x - e, i)) / (2 * h)
                assert g[j] == pytest.approx(fd, abs=1e-5)

    def test_batch_eval_matches_per_sample(self):
        prob = build_logreg_problem(_tiny_dataset(), "equality")
        rng = np.random.default_rng(2)
        x = rng.standard_normal(prob.n)
        samples = (0, 2, 5, 11)
        vsum = sum(prob.objective_eval(x, i) for i in samples)
        gsum = sum(prob.gradient_eval(x, i) for i in samples)
        bv, bg = prob.batch_eval(x, samples)
        assert bv == pytest.approx(vsum)
        np.testing.assert_allclose(bg, gsum, atol=1e-10)
        bv2, bg2, sq = prob.batch_stats(x, samples)
        assert bv2 == pytest.approx(vsum)
        sq_loop = sum(float(prob.gradient_eval(x, i) @ prob.gradient_eval(x, i))
                      for i in samples)
        assert sq == pytest.approx(sq_loop)

    def test_constraints_per_class_norm(self):
        ds = _tiny_dataset()
        prob = build_logreg_problem(ds, "equality")
        nf = ds.n_features
        x = np.zeros(prob.n)
        x[:nf] = 1.0  # class 0 weight vector has squared norm nf
        c_E, c_I, J_E, J_I = eval_constraints(prob, x)
        assert c_E[0] == pytest.approx(nf - 1.0)
        assert c_E[1] == pytest.approx(-1.0)
        np.testing.assert_allclose(J_E[0, :nf], 2.0 * x[:nf])

    def test_feasible_start(self):
        prob = build_logreg_problem(_tiny_dataset(), "equality")
        c_E, _, J_E, _ = eval_constraints(prob, prob.x_init)
        np.testing.assert_allclose(c_E, np.zeros(prob.m_E), atol=1e-12)
        # the Jacobian has full row rank at the start
        assert np.linalg.matrix_rank(J_E) == prob.m_E

    def test_objective_decreases_with_correct_score(self):
        # pushing the labelled class score up lowers the loss
        ds = _tiny_dataset()
        prob = build_logreg_problem(ds, "equality")
        nf = ds.n_features
        k = int(ds.labels[0])
        x_good = np.zeros(prob.n)
        x_good[k * nf:(k + 1) * nf] = ds.to_csr()[0].toarray().ravel()
        assert prob.objective_eval(x_good, 0) < prob.objective_eval(
            np.zeros(prob.n), 0)


class TestAugmented:
    def test_noise_averages_out(self):
        prob = make_quadratic_problem(noise=0.1)
        x = np.array([1.0, -2.0, 0.5])
        xi_pairs = (0.07, -0.07)
        v, g = eval_subsampled(prob, x, SampleSet(xi_pairs), None)
        assert v == pytest.approx(prob.true_value(x))
        np.testing.assert_allclose(g, prob.true_gradient(x), atol=1e-12)

    def test_negative_noise_level_rejected(self):
        with pytest.raises(ConfigError):
            build_augmented_problem(lambda x: 0.0, lambda x: np.zeros(1),
                                    lambda x: (np.zeros(0), np.zeros(0)),
                                    lambda x: (np.zeros((0, 1)),
                                               np.zeros((0, 1))),
                                    0, 0, np.zeros(1), -0.5)
