"""Dataset parsing, subsampled evaluation, sampling, and the concrete
problem families."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from rasqp.bench import (make_infeasible_1d, make_noisy_quadratic,
                         make_synthetic_dataset)
from rasqp.counters import Counters
from rasqp.errors import ConfigError, NumericalFailure, ParseError
from rasqp.problems import (Dataset, build_augmented_problem,
                            build_logreg_problem,
                            draw_samples, eval_constraints, eval_subsampled,
                            eval_subsampled_value, gradient_stats,
                            parse_libsvm, _sigmoid, _sums_over)


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
        X = ds.X
        for i in range(len(ds)):
            # the bias is each row's last stored entry
            last = X.indptr[i + 1] - 1
            assert (X.indices[last], X.data[last]) == (3, 1.0)

    def test_labels_remapped_sorted(self):
        ds = parse_libsvm(SAMPLE_TEXT)
        # raw labels {-1, 1} map to {0, 1} in sorted order
        np.testing.assert_array_equal(ds.labels, [1, 0, 1])

    def test_one_based_indices(self):
        ds = parse_libsvm("0 1:7.0\n")
        np.testing.assert_array_equal(ds.X.indices, [0, 1])
        np.testing.assert_array_equal(ds.X.data, [7.0, 1.0])

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

    def test_parse_pinned(self):
        ds = parse_libsvm(SAMPLE_TEXT)
        np.testing.assert_array_equal(
            ds.X.data, [0.5, 2.0, 1.0, 1.0, 1.0, -1.0, 0.25, 1.5, 1.0])
        np.testing.assert_array_equal(ds.X.indices,
                                      [0, 2, 3, 1, 3, 0, 1, 2, 3])
        np.testing.assert_array_equal(ds.X.indptr, [0, 3, 5, 9])
        np.testing.assert_array_equal(ds.labels, [1, 0, 1])

    def test_csr_matches_rows(self):
        ds = parse_libsvm(SAMPLE_TEXT)
        X = ds.X.toarray()
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


# Per-sample reference functions: (value(x, sample), gradient(x, sample)).
# `sums` must agree with a loop over these.

def logreg_reference(dataset):
    """logaddexp(0, -w_y . x_i), with its gradient in class block y."""
    X = dataset.X.toarray()
    nf, K = dataset.n_features, dataset.n_classes

    def value(x, i):
        y = dataset.labels[i]
        return float(np.logaddexp(0.0, -(x.reshape(K, nf)[y] @ X[i])))

    def gradient(x, i):
        y = dataset.labels[i]
        a = x.reshape(K, nf)[y] @ X[i]
        g = np.zeros((K, nf))
        g[y] = -X[i] / (1.0 + np.exp(a))  # (sigmoid(a) - 1) x_i
        return g.ravel()
    return value, gradient


def augmented_reference(value_fn, grad_fn, x_init):
    """f(x) + xi ||x - shift||^2 with shift = x_init + 1."""
    shift = x_init + 1.0
    return (lambda x, xi: value_fn(x) + xi * float((x - shift) @ (x - shift)),
            lambda x, xi: grad_fn(x) + 2.0 * xi * (x - shift))


def _sums_cases():
    ds = _tiny_dataset()
    aug = make_quadratic_problem()
    quad = make_noisy_quadratic()
    f, gf = quad.true_value, quad.true_gradient
    return {
        "logreg": (build_logreg_problem(ds, "equality"),
                   logreg_reference(ds), np.array([0, 2, 5, 11, 2])),
        "augmented": (aug, augmented_reference(lambda x: float(x @ x),
                                               lambda x: 2.0 * x,
                                               np.zeros(3)),
                      np.array([0.3, -0.1, 0.05])),
        "synth-eq-quad": (quad, (lambda x, xi: (1.0 + xi) * f(x),
                                 lambda x, xi: (1.0 + xi) * gf(x)),
                          np.array([0.004, -0.009, 0.0, 0.01])),
        "infeasible-1d": (make_infeasible_1d(),
                          (lambda x, xi: 0.0, lambda x, xi: np.zeros(1)),
                          np.zeros(3)),
    }


class TestEvaluation:
    def test_counts_gradient_evals(self):
        prob = make_quadratic_problem()
        ct = Counters()
        S = np.array([0.1, -0.2, 0.0])
        eval_subsampled(prob, np.ones(3), S, ct)
        assert ct.gradient_evals == 3

    def test_value_only_counts_function_evals(self):
        prob = make_quadratic_problem()
        ct = Counters()
        eval_subsampled_value(prob, np.ones(3), np.array([0.1, 0.2]), ct)
        assert ct.gradient_evals == 0
        assert ct.function_evals == 2

    def test_zero_noise_matches_true(self):
        prob = make_quadratic_problem(noise=0.0)
        x = np.array([1.0, 2.0, 3.0])
        v, g = eval_subsampled(prob, x, np.zeros(2), None)
        assert v == pytest.approx(prob.true_value(x))
        np.testing.assert_allclose(g, prob.true_gradient(x))

    @pytest.mark.parametrize("case", ["logreg", "augmented", "synth-eq-quad",
                                      "infeasible-1d"])
    def test_sums_match_reference_loop(self, case):
        prob, (value, gradient), items = _sums_cases()[case]
        x = np.random.default_rng(2).standard_normal(prob.n)
        vsum = sum(value(x, s) for s in items)
        grads = [gradient(x, s) for s in items]
        gsum = np.sum(grads, axis=0)
        sq = sum(float(g @ g) for g in grads)
        out0, out1, out2 = (prob.sums(x, items, k) for k in (0, 1, 2))
        assert (len(out0), len(out1), len(out2)) == (1, 2, 3)
        for out in (out0, out1, out2):
            assert out[0] == pytest.approx(vsum, rel=1e-12, abs=1e-12)
        for out in (out1, out2):
            np.testing.assert_allclose(out[1], gsum, rtol=1e-12, atol=1e-12)
        assert out2[2] == pytest.approx(sq, rel=1e-12, abs=1e-12)

    def test_gradient_stats_matches_loop(self):
        prob = make_quadratic_problem()
        _, gradient = augmented_reference(lambda x: float(x @ x),
                                          lambda x: 2.0 * x, np.zeros(3))
        x = np.array([0.5, -1.0, 2.0])
        samples = np.array([0.3, -0.1, 0.05])
        sq = sum(float(gradient(x, s) @ gradient(x, s)) for s in samples)
        ct = Counters()
        _, _, sqsum = gradient_stats(prob, x, samples, ct)
        assert sqsum == pytest.approx(sq)
        assert ct.gradient_evals == 3

    def test_empty_sample_set_rejected(self):
        prob = make_quadratic_problem()
        with pytest.raises(ConfigError):
            eval_subsampled(prob, np.zeros(3), np.zeros(0), None)


class TestSumsOver:
    """The one checked and counted path of every subsampled sum."""

    SAMPLES = np.array([0.1, -0.2, 0.0])

    @pytest.mark.parametrize("order,grads", [(0, 0), (1, 3), (2, 3)])
    def test_counts_per_order(self, order, grads):
        prob = make_quadratic_problem()
        x = np.array([1.0, -2.0, 0.5])
        ct = Counters(gradient_evals=5, function_evals=7)
        out = _sums_over(prob, x, self.SAMPLES, ct, order=order)
        assert (ct.gradient_evals, ct.function_evals) == (5 + grads, 7 + 3)
        ref = prob.sums(x, self.SAMPLES, order)
        assert len(out) == len(ref) == order + 1
        for got, want in zip(out, ref):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_non_finite_iterate_raises(self, order):
        ct = Counters()
        with pytest.raises(NumericalFailure):
            _sums_over(make_quadratic_problem(), np.array([0.0, np.inf, 0.0]),
                       self.SAMPLES, ct, order=order)
        assert ct == Counters()

    @pytest.mark.parametrize("order,bad", [(0, 0), (1, 0), (1, 1), (2, 0),
                                           (2, 1), (2, 2)])
    def test_non_finite_sum_raises(self, order, bad):
        prob = make_quadratic_problem()

        def sums(x, items, k):
            out = list(prob.sums(x, items, k))
            out[bad] = out[bad] * np.nan
            return tuple(out)

        ct = Counters()
        with pytest.raises(NumericalFailure):
            _sums_over(dataclasses.replace(prob, sums=sums), np.ones(3),
                       self.SAMPLES, ct, order=order)
        assert ct == Counters()


class TestDrawSamples:
    def test_finite_sum_without_replacement(self):
        prob = build_logreg_problem(_tiny_dataset(), "equality")
        rng = np.random.default_rng(0)
        S = draw_samples(prob, 8, rng)
        assert len(set(S)) == 8

    def test_superset_prefix(self):
        prob = build_logreg_problem(_tiny_dataset(), "equality")
        rng = np.random.default_rng(0)
        S0 = draw_samples(prob, 4, rng)
        S1 = draw_samples(prob, 9, rng, superset_of=S0)
        assert np.array_equal(S1[:4], S0)
        assert len(set(S1)) == 9

    def test_finite_sum_rng_stream(self):
        # the exact draws: a change to how the pool is built or sampled
        # changes every trace that follows
        prob = build_logreg_problem(_tiny_dataset(), "equality")
        rng = np.random.default_rng(0)
        S0 = draw_samples(prob, 4, rng)
        S1 = draw_samples(prob, 9, rng, superset_of=S0)
        assert S0.dtype == np.int64
        assert S0.tolist() == [3, 5, 7, 6]
        assert S1.tolist() == [3, 5, 7, 6, 0, 8, 10, 11, 9]

    def test_expectation_rng_stream(self):
        S = draw_samples(make_quadratic_problem(), 5,
                         np.random.default_rng(3))
        assert S.dtype == np.float64
        assert S.tolist() == [
            -0.41435083285637564, -0.2631894934039003, 0.3012744652063969,
            0.08216203606436778, -0.4058713577596008]

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
        assert all(-0.5 <= xi <= 0.5 for xi in S)


def _tiny_dataset(n_samples=12, n_raw=3, n_classes=2, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset.from_dense(rng.standard_normal((n_samples, n_raw)),
                              np.arange(n_samples) % n_classes, n_classes)


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
            row = np.array([i])
            g = prob.sums(x, row, 1)[1]
            h = 1e-6
            for j in range(0, prob.n, 3):
                e = np.zeros(prob.n)
                e[j] = h
                fd = (prob.sums(x + e, row, 0)[0]
                      - prob.sums(x - e, row, 0)[0]) / (2 * h)
                assert g[j] == pytest.approx(fd, abs=1e-5)

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
        x_good[k * nf:(k + 1) * nf] = ds.X[0].toarray().ravel()
        row = np.array([0])
        assert prob.sums(x_good, row, 0)[0] < prob.sums(np.zeros(prob.n),
                                                        row, 0)[0]

    @pytest.mark.parametrize("kind", ["equality", "inequality"])
    def test_jacobian_is_block_diagonal(self, kind):
        ds = _tiny_dataset(n_classes=3)
        prob = build_logreg_problem(ds, kind)
        x = np.random.default_rng(4).standard_normal(prob.n)
        _, _, J_E, J_I = eval_constraints(prob, x)
        J = J_E if kind == "equality" else J_I
        expected = scipy.linalg.block_diag(*(2.0 * x.reshape(3, -1)))
        assert np.array_equal(J, expected)


def per_class_sums(dataset, x, items, order):
    """Logreg `sums` with one row gather and one transposed (CSC) product
    per class. The problem's own `sums` must match it bit for bit."""
    X, labels = dataset.X, dataset.labels
    nf, K = dataset.n_features, dataset.n_classes
    Xs = X[items]
    A = Xs @ x.reshape(K, nf).T
    lab = labels[items]
    a_lab = A[np.arange(items.size), lab]
    vsum = float(np.sum(np.logaddexp(0.0, -a_lab)))
    if order == 0:
        return (vsum,)
    coef = _sigmoid(a_lab) - 1.0
    gsum = np.zeros((K, nf))
    for k in range(K):
        mask = lab == k
        if np.any(mask):
            gsum[k] = Xs[mask].T @ coef[mask]
    if order == 1:
        return vsum, gsum.ravel()
    row_sq = np.asarray(Xs.multiply(Xs).sum(axis=1)).ravel()
    return vsum, gsum.ravel(), float(np.sum(coef * coef * row_sq))


def assert_same(out, ref):
    assert len(out) == len(ref)
    for a, b in zip(out, ref):
        assert np.array_equal(a, b)


# rows of 0 to 6 features, row 1 holds the bias only, 7 raw features
LIBSVM_TEXT = """2 1:0.5 4:-1.25 7:3.0
0
1 2:2.0
2 1:-0.75 2:0.125 3:1.5 5:-2.0 6:0.3 7:0.9
0 3:1.0 7:-0.6
1 4:0.45 5:1.1
2 6:-1.7
"""


def _logreg_sums_cases():
    synth = make_synthetic_dataset()
    libsvm = parse_libsvm(LIBSVM_TEXT)
    picked = np.random.default_rng(6).choice(len(synth), 700, replace=False)
    return {
        "synthetic": (synth, picked),
        # class 1 has no row in the batch
        "libsvm": (libsvm, np.array([0, 1, 3, 4, 6])),
        "one-row": (synth, np.array([17])),
        "duplicates": (synth, np.array([3, 9, 3, 4000, 9, 3])),
        "full-synthetic": (synth, np.arange(len(synth))),
        "full-libsvm": (libsvm, np.arange(len(libsvm))),
    }


class TestLogregSums:
    @pytest.mark.parametrize("case", list(_logreg_sums_cases()))
    def test_bit_equal_to_per_class_products(self, case):
        ds, items = _logreg_sums_cases()[case]
        prob = build_logreg_problem(ds, "equality")
        rng = np.random.default_rng(7)
        for scale in (0.1, 1.0, 5.0):
            x = scale * rng.standard_normal(prob.n)
            for order in (0, 1, 2):
                assert_same(prob.sums(x, items, order),
                            per_class_sums(ds, x, items, order))

    def test_cached_batch_follows_items_content(self):
        ds = make_synthetic_dataset(n_samples=300)
        x = np.random.default_rng(8).standard_normal(ds.n_features * 3)
        prob = build_logreg_problem(ds, "equality")

        def fresh(items, order):
            return build_logreg_problem(ds, "equality").sums(x, items, order)

        items = np.array([5, 8, 13, 21])
        prob.sums(x, items, 1)
        items[1:3] = [34, 55]  # refilled in place
        assert_same(prob.sums(x, items, 1), fresh(items.copy(), 1))

        a, b = np.arange(0, 50), np.arange(100, 180)
        for items in (a, b, a, b):
            for order in (0, 1, 2):
                assert_same(prob.sums(x, items, order),
                            fresh(items.copy(), order))
        # a different array with the cached content
        assert_same(prob.sums(x, b.copy(), 2), fresh(b, 2))

    @pytest.mark.parametrize("kind", ["equality", "inequality"])
    def test_true_metrics_are_full_sums(self, kind):
        ds = make_synthetic_dataset()
        prob = build_logreg_problem(ds, kind)
        N = len(ds)
        full = np.arange(N)
        x = np.random.default_rng(9).standard_normal(prob.n)
        assert prob.true_value(x) == prob.sums(x, full, 0)[0] / N
        assert np.array_equal(prob.true_gradient(x),
                              prob.sums(x, full, 1)[1] / N)


class TestAugmented:
    def test_noise_averages_out(self):
        prob = make_quadratic_problem(noise=0.1)
        x = np.array([1.0, -2.0, 0.5])
        xi_pairs = np.array([0.07, -0.07])
        v, g = eval_subsampled(prob, x, xi_pairs, None)
        assert v == pytest.approx(prob.true_value(x))
        np.testing.assert_allclose(g, prob.true_gradient(x), atol=1e-12)

    def test_negative_noise_level_rejected(self):
        with pytest.raises(ConfigError):
            build_augmented_problem(lambda x: 0.0, lambda x: np.zeros(1),
                                    lambda x: (np.zeros(0), np.zeros(0)),
                                    lambda x: (np.zeros((0, 1)),
                                               np.zeros((0, 1))),
                                    0, 0, np.zeros(1), -0.5)
