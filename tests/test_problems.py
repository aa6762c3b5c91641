"""Dataset parsing, subsampled evaluation, sampling, and the concrete
problem families."""

import dataclasses
import io
import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import given, settings, strategies as st

from rasqp.bench import (build_problem, make_noisy_quadratic,
                         make_synthetic_dataset)
from rasqp.counters import Counters
from rasqp.driver import DriverConfig, run
from rasqp.errors import ConfigError, NumericalFailure, ParseError
from rasqp.problems import (DRAW_CHUNK, Dataset, Expectation, NoiseMoments,
                            build_augmented_problem,
                            build_expectation_problem, build_logreg_problem,
                            draw_samples, eval_constraints, eval_subsampled,
                            eval_subsampled_value, gradient_stats,
                            parse_libsvm, _sigmoid, _sums_over)


SAMPLE_TEXT = "1 1:0.5 3:2.0\n-1 2:1.0\n1 1:-1.0 2:0.25 3:1.5\n"


def csr(dataset):
    """scipy's CSR matrix over the data set's arrays."""
    return scipy.sparse.csr_matrix(
        (dataset.data, dataset.indices, dataset.indptr),
        shape=(len(dataset), dataset.n_features))


class TestParseLibsvm:
    def test_basic_shape(self):
        ds = parse_libsvm(SAMPLE_TEXT)
        assert len(ds) == 3
        # three raw features plus the bias column
        assert ds.n_features == 4
        assert ds.n_classes == 2

    def test_bias_feature_appended(self):
        ds = parse_libsvm(SAMPLE_TEXT)
        for i in range(len(ds)):
            # the bias is each row's last stored entry
            last = ds.indptr[i + 1] - 1
            assert (ds.indices[last], ds.data[last]) == (3, 1.0)

    def test_labels_remapped_sorted(self):
        ds = parse_libsvm(SAMPLE_TEXT)
        # raw labels {-1, 1} map to {0, 1} in sorted order
        np.testing.assert_array_equal(ds.labels, [1, 0, 1])

    def test_one_based_indices(self):
        ds = parse_libsvm("0 1:7.0\n")
        np.testing.assert_array_equal(ds.indices, [0, 1])
        np.testing.assert_array_equal(ds.data, [7.0, 1.0])

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

    @pytest.mark.parametrize("text, line", [("1 a:2.0\n", 1),
                                            ("0 1:1.0\n1 3:x\n", 2)])
    def test_bad_index_or_value_names_line(self, text, line):
        with pytest.raises(ParseError) as err:
            parse_libsvm(text)
        assert err.value.line == line

    @pytest.mark.parametrize("text, line", [
        # each nan label once became a class of its own: 3 classes here
        ("nan 1:1\nnan 1:2\n1 1:3", 1),
        ("1 1:3\ninf 1:1", 2),
        # a non-finite value once reached the solve, which failed with
        # "non-finite subsampled sums"
        ("1 1:nan", 1), ("0 1:1\n1 1:inf", 2), ("0 1:-inf", 1)])
    def test_non_finite_label_or_value_names_line(self, text, line):
        with pytest.raises(ParseError, match="non-finite") as err:
            parse_libsvm(text)
        assert err.value.line == line

    @pytest.mark.parametrize("wrap", [io.StringIO,
                                      lambda t: io.BytesIO(t.encode())],
                             ids=["text", "bytes"])
    def test_stream_parses_as_its_text(self, wrap):
        ds, ref = parse_libsvm(wrap(SAMPLE_TEXT)), parse_libsvm(SAMPLE_TEXT)
        for name in ("indptr", "indices", "data", "labels"):
            np.testing.assert_array_equal(getattr(ds, name),
                                          getattr(ref, name))
        assert (ds.n_features, ds.n_classes) == (ref.n_features,
                                                 ref.n_classes)

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_libsvm("\n\n")

    def test_parse_pinned(self):
        ds = parse_libsvm(SAMPLE_TEXT)
        np.testing.assert_array_equal(
            ds.data, [0.5, 2.0, 1.0, 1.0, 1.0, -1.0, 0.25, 1.5, 1.0])
        np.testing.assert_array_equal(ds.indices,
                                      [0, 2, 3, 1, 3, 0, 1, 2, 3])
        np.testing.assert_array_equal(ds.indptr, [0, 3, 5, 9])
        np.testing.assert_array_equal(ds.labels, [1, 0, 1])

    def test_csr_matches_rows(self):
        ds = parse_libsvm(SAMPLE_TEXT)
        X = csr(ds).toarray()
        assert X.shape == (3, 4)
        assert X[0, 0] == 0.5 and X[0, 2] == 2.0 and X[0, 3] == 1.0


def make_quadratic_problem(noise=0.5):
    n = 3
    return build_augmented_problem(
        value_fn=lambda x: float(x @ x),
        grad_fn=lambda x: 2.0 * x,
        constraints=lambda x: (np.array([x[0] - 1.0]), np.zeros(0),
                               np.array([[1.0, 0.0, 0.0]]), np.zeros((0, n))),
        m_E=1, m_I=0, x_init=np.zeros(n), noise_level=noise)


LINEAR_NOISE_V = np.array([0.5, -2.0, 1.5])


def make_linear_noise_problem(noise=0.5):
    """The family with the additive noise term h(x) = v'x."""
    v = LINEAR_NOISE_V
    return build_expectation_problem(
        lambda x: float(x @ x), lambda x: 2.0 * x, lambda x: float(v @ x),
        lambda x: v,
        lambda x: (np.array([x[0] - 1.0]), np.zeros(0),
                   np.array([[1.0, 0.0, 0.0]]), np.zeros((0, 3))),
        m_E=1, m_I=0, x_init=np.zeros(3), noise_level=noise)


# Per-sample reference functions: (value(x, sample), gradient(x, sample)).
# `sums` must agree with a loop over these.

def logreg_reference(dataset):
    """logaddexp(0, -w_y . x_i), with its gradient in class block y."""
    X = csr(dataset).toarray()
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
        "linear-noise": (make_linear_noise_problem(),
                         (lambda x, xi: float(x @ x) + xi * float(
                             LINEAR_NOISE_V @ x),
                          lambda x, xi: 2.0 * x + xi * LINEAR_NOISE_V),
                         np.array([0.3, -0.45, 0.05, 0.2])),
        "infeasible-1d": (build_problem("infeasible-1d"),
                          (lambda x, xi: 0.0, lambda x, xi: np.zeros(1)),
                          np.zeros(3)),
    }


def sample_set(items):
    """The sample set of `items` as `draw_samples` gives it: int64 row ids
    as they are, float64 draws as their `NoiseMoments`."""
    return NoiseMoments.of(items) if items.dtype == np.float64 else items


def recording_draws(prob):
    """`prob` with a sampler that appends each array it returns to the
    list returned with it."""
    draws, sampler = [], prob.mode.sampler

    def recording(rng, count):
        draws.append(sampler(rng, count))
        return draws[-1]
    return dataclasses.replace(prob, mode=Expectation(recording)), draws


class TestEvaluation:
    def test_counts_gradient_evals(self):
        prob = make_quadratic_problem()
        ct = Counters()
        S = NoiseMoments.of(np.array([0.1, -0.2, 0.0]))
        eval_subsampled(prob, np.ones(3), S, ct)
        assert ct.gradient_evals == 3

    def test_value_only_counts_function_evals(self):
        prob = make_quadratic_problem()
        ct = Counters()
        eval_subsampled_value(prob, np.ones(3),
                              NoiseMoments.of(np.array([0.1, 0.2])), ct)
        assert ct.gradient_evals == 0
        assert ct.function_evals == 2

    def test_zero_noise_matches_true(self):
        prob = make_quadratic_problem(noise=0.0)
        x = np.array([1.0, 2.0, 3.0])
        v, g = eval_subsampled(prob, x, NoiseMoments.of(np.zeros(2)), None)
        assert v == pytest.approx(prob.true_value(x))
        np.testing.assert_allclose(g, prob.true_gradient(x))

    @pytest.mark.parametrize("case", ["logreg", "augmented", "synth-eq-quad",
                                      "linear-noise", "infeasible-1d"])
    def test_sums_match_reference_loop(self, case):
        prob, (value, gradient), items = _sums_cases()[case]
        x = np.random.default_rng(2).standard_normal(prob.n)
        vsum = sum(value(x, s) for s in items)
        grads = [gradient(x, s) for s in items]
        gsum = np.sum(grads, axis=0)
        sq = sum(float(g @ g) for g in grads)
        S = sample_set(items)
        out0, out1, out2 = (prob.sums(x, S, k) for k in (0, 1, 2))
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
        _, _, sqsum = gradient_stats(prob, x, NoiseMoments.of(samples), ct)
        assert sqsum == pytest.approx(sq)
        assert ct.gradient_evals == 3

    def test_empty_sample_set_rejected(self):
        prob = make_quadratic_problem()
        with pytest.raises(ConfigError):
            eval_subsampled(prob, np.zeros(3), NoiseMoments.of(np.zeros(0)),
                            None)


class TestSumsOver:
    """The one checked and counted path of every subsampled sum."""

    SAMPLES = NoiseMoments.of(np.array([0.1, -0.2, 0.0]))

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

    @pytest.mark.parametrize("wrapper", [gradient_stats, eval_subsampled,
                                         eval_subsampled_value])
    @pytest.mark.parametrize("name", ["synth-logreg-eq", "synth-eq-quad"])
    def test_empty_set_rejected_by_every_wrapper(self, name, wrapper):
        # an empty set has no average, and the logistic sums over one
        # would give an int64 zero gradient
        prob = build_problem(name)
        S = draw_samples(prob, 1, np.random.default_rng(0))
        empty = S[:0] if isinstance(S, np.ndarray) else S - S
        ct = Counters()
        with pytest.raises(ConfigError, match="empty sample set"):
            wrapper(prob, np.asarray(prob.x_init, dtype=float), empty, ct)
        assert ct == Counters()


class TestEvalConstraints:
    def test_non_finite_iterate_raises(self):
        prob = make_quadratic_problem()
        with pytest.raises(NumericalFailure, match="iterate"):
            eval_constraints(prob, np.array([0.0, np.nan, 0.0]))

    @pytest.mark.parametrize("bad", range(4))
    def test_non_finite_hook_output_raises(self, bad):
        # a NaN in any one of c_E, c_I, J_E, J_I from the problem's hook
        def constraints(x):
            out = [np.array([x[0] - 1.0]), np.array([x[1]]),
                   np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])]
            out[bad] = np.full(out[bad].shape, np.nan)
            return tuple(out)

        prob = build_augmented_problem(
            value_fn=lambda x: float(x @ x), grad_fn=lambda x: 2.0 * x,
            constraints=constraints, m_E=1, m_I=1, x_init=np.zeros(2),
            noise_level=0.0)
        with pytest.raises(NumericalFailure, match="constraint"):
            eval_constraints(prob, np.zeros(2))

    @pytest.mark.parametrize("J_E", [
        # right size, wrong layout: a reshape would re-lay it silently
        np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]).T,
        np.array([[1, 2, 3], [4, 5, 6]]),
    ], ids=["transposed", "int"])
    def test_jacobian_of_other_form_rejected(self, J_E):
        prob = build_augmented_problem(
            value_fn=lambda x: float(x @ x), grad_fn=lambda x: 2.0 * x,
            constraints=lambda x: (np.zeros(2), np.zeros(0), J_E,
                                   np.zeros((0, 3))),
            m_E=2, m_I=0, x_init=np.zeros(3), noise_level=0.0)
        with pytest.raises(ConfigError, match="m_E = 2, m_I = 0"):
            eval_constraints(prob, prob.x_init)


class TestStart:
    def test_list_start_runs_as_the_array_start(self):
        # the spec keeps a float64 copy of the start however it is given,
        # so a list start is the same solve, bit for bit
        config = DriverConfig(termination="dl", max_gradient_evals=5000)
        outs = []
        for start in (np.ones(20), [1] * 20):
            prob = dataclasses.replace(build_problem("synth-eq-quad"),
                                       x_init=start)
            assert prob.x_init.dtype == np.float64 and prob.n == 20
            outs.append(run(prob, config, np.random.default_rng(0)))
        ref, out = outs
        assert out.x.tobytes() == ref.x.tobytes()
        assert out.lam.tobytes() == ref.lam.tobytes()
        assert out.counters == ref.counters
        assert [dataclasses.astuple(dataclasses.replace(r, x=None))
                for r in out.trace] == [
            dataclasses.astuple(dataclasses.replace(r, x=None))
            for r in ref.trace]

    def test_start_is_copied(self):
        start = np.zeros(3)
        prob = make_quadratic_problem()
        prob = dataclasses.replace(prob, x_init=start)
        start[0] = 5.0
        assert prob.x_init[0] == 0.0

    @pytest.mark.parametrize("start", [0.0, np.zeros((3, 1)), [[0.0, 1.0]]],
                             ids=["scalar", "column", "row"])
    def test_start_of_other_shape_rejected(self, start):
        with pytest.raises(ConfigError, match="x_init must be "
                           "one-dimensional, got shape"):
            dataclasses.replace(make_quadratic_problem(), x_init=start)


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
        assert S == NoiseMoments.of(np.array([
            -0.41435083285637564, -0.2631894934039003, 0.3012744652063969,
            0.08216203606436778, -0.4058713577596008]))

    def test_size_below_prefix_rejected(self):
        prob = build_logreg_problem(_tiny_dataset(), "equality")
        rng = np.random.default_rng(0)
        S0 = draw_samples(prob, 4, rng)
        with pytest.raises(ConfigError, match="smaller"):
            draw_samples(prob, 3, rng, superset_of=S0)

    def test_oversized_request_rejected(self):
        prob = build_logreg_problem(_tiny_dataset(), "equality")
        with pytest.raises(ConfigError):
            draw_samples(prob, 10 ** 6, np.random.default_rng(0))

    @pytest.mark.parametrize("returned,got", [
        (lambda rng, count: rng.uniform(-1, 1, count - 1),
         "float64 ndarray of shape (31,)"),
        (lambda rng, count: rng.uniform(-1, 1, count).astype(np.float32),
         "float32 ndarray of shape (32,)"),
        (lambda rng, count: rng.uniform(-1, 1, (count, 1)),
         "float64 ndarray of shape (32, 1)"),
        (lambda rng, count: list(rng.uniform(-1, 1, count)), "list"),
    ], ids=["short", "float32", "2-d", "list"])
    def test_sampler_output_of_other_form_rejected(self, returned, got):
        # a short set would be recorded as the smaller batch, a float32 one
        # would give single-precision moments: both are errors, in draw
        # calls and in a run
        prob = dataclasses.replace(make_quadratic_problem(),
                                   mode=Expectation(returned))
        message = (f"sampler returned {got} for count = 32, not a float64 "
                   f"ndarray of shape (32,)")
        with pytest.raises(ConfigError, match=re.escape(message)):
            draw_samples(prob, 32, np.random.default_rng(0))
        with pytest.raises(ConfigError, match="sampler returned"):
            run(prob, DriverConfig(), np.random.default_rng(0))

    def test_sampler_asked_for_the_rest_only(self):
        # a superset draw asks the sampler for the new draws alone, and that
        # count is what its output is checked against
        asked = []
        prob = make_quadratic_problem()
        sampler = prob.mode.sampler
        prob = dataclasses.replace(prob, mode=Expectation(
            lambda rng, count: asked.append(count) or sampler(rng, count)))
        rng = np.random.default_rng(0)
        S1 = draw_samples(prob, 9, rng,
                          superset_of=draw_samples(prob, 4, rng))
        assert asked == [4, 5] and S1.size == 9

    def test_streamed_set_is_the_one_shot_draws(self):
        # the sampler is asked for pieces, yet they are the draws of one
        # call for them all: the same values, the same sums (the sum of the
        # draws bit for bit, as the pieces split where np.sum splits), and
        # the generator left where that call leaves it
        count = 3 * DRAW_CHUNK + 5
        prob, draws = recording_draws(make_quadratic_problem(noise=0.5))
        rng, one_shot = np.random.default_rng(11), np.random.default_rng(11)
        S = draw_samples(prob, count, rng)
        xi = one_shot.uniform(-0.5, 0.5, count)
        assert max(d.size for d in draws) <= DRAW_CHUNK
        assert np.array_equal(np.concatenate(draws), xi)
        assert S.size == count
        assert S.sum_xi == float(np.sum(xi))
        assert S.sum_sq == pytest.approx(float(xi @ xi), rel=1e-12)
        assert rng.bit_generator.state == one_shot.bit_generator.state

    @pytest.mark.parametrize("count", [1, 7, DRAW_CHUNK, 3 * DRAW_CHUNK + 5])
    @pytest.mark.parametrize("noise", [0.0, 0.01, 0.1, 3.7])
    def test_draws_are_uniform_bit_for_bit(self, noise, count):
        # at levels where 2 * noise * u rounds, a reordered scale and shift
        # moves the last bits: the pieces must be uniform's own draws
        prob, draws = recording_draws(make_quadratic_problem(noise=noise))
        rng, one_shot = np.random.default_rng(7), np.random.default_rng(7)
        S = draw_samples(prob, count, rng)
        xi = one_shot.uniform(-noise, noise, count)
        assert np.concatenate(draws).tobytes() == xi.tobytes()
        assert rng.bit_generator.state == one_shot.bit_generator.state
        assert S.sum_xi == float(np.sum(xi))

    def test_bad_form_on_a_later_piece_rejected(self):
        # the form check covers every piece, not the first alone
        asked = []
        sampler = make_quadratic_problem().mode.sampler

        def short_second(rng, count):
            asked.append(count)
            xi = sampler(rng, count)
            return xi[:-1] if len(asked) == 2 else xi

        prob = dataclasses.replace(make_quadratic_problem(),
                                   mode=Expectation(short_second))
        with pytest.raises(ConfigError) as err:
            draw_samples(prob, 3 * DRAW_CHUNK + 5, np.random.default_rng(0))
        assert len(asked) == 2
        assert str(err.value) == (
            f"sampler returned float64 ndarray of shape ({asked[1] - 1},) "
            f"for count = {asked[1]}, not a float64 ndarray of shape "
            f"({asked[1]},)")

    @given(st.integers(1, 10), st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_expectation_sizes(self, size, seed):
        prob, draws = recording_draws(make_quadratic_problem())
        S = draw_samples(prob, size, np.random.default_rng(seed))
        xi = np.concatenate(draws)
        assert S.size == xi.size == size
        assert S == NoiseMoments.of(xi)
        assert all(-0.5 <= v <= 0.5 for v in xi)


def _tiny_dataset(n_samples=12, n_raw=3, n_classes=2, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset.from_dense(rng.standard_normal((n_samples, n_raw)),
                              np.arange(n_samples) % n_classes, n_classes)


def _csr_fields(**change):
    """The constructor fields of a valid 3-row, 2-class data set with 3
    features (the last the bias), with `change` applied."""
    fields = dict(indptr=np.array([0, 2, 3, 5]),
                  indices=np.array([0, 2, 2, 1, 2]),
                  data=np.array([0.5, 1.0, 1.0, -2.0, 1.0]), n_features=3,
                  labels=np.array([0, 1, 1]), n_classes=2)
    return {**fields, **{k: np.array(v) for k, v in change.items()}}


class TestDatasetForm:
    def test_valid_fields_build(self):
        ds = Dataset(**_csr_fields())
        assert len(ds) == 3

    @pytest.mark.parametrize("change,match", [
        # gathered with mode="clip", label 5 of a 2-class set once gave a
        # finite objective and an 18-entry gradient for n = 6
        pytest.param(dict(labels=[0, 5, 1]), "label", id="label-5"),
        pytest.param(dict(labels=[0, 2, 1]), "label", id="label-n_classes"),
        pytest.param(dict(labels=[0, -1, 1]), "label", id="label-negative"),
        pytest.param(dict(labels=[0, 1]), "label", id="labels-too-few"),
        pytest.param(dict(labels=[0, 1, 1, 0]), "label",
                     id="labels-too-many"),
        pytest.param(dict(indices=[0, 3, 2, 1, 2]), "feature indices",
                     id="index-n_features"),
        pytest.param(dict(indices=[0, -1, 2, 1, 2]), "feature indices",
                     id="index-negative"),
        pytest.param(dict(indptr=[1, 2, 3, 5]), "row pointers",
                     id="indptr-start"),
        pytest.param(dict(indptr=[0, 2, 3, 4]), "row pointers",
                     id="indptr-end"),
        pytest.param(dict(indptr=[0, 3, 2, 5]), "row pointers",
                     id="indptr-decreasing"),
        pytest.param(dict(data=[0.5, 1.0, 1.0, -2.0]), "row pointers",
                     id="data-count"),
        pytest.param(dict(indptr=[0], indices=np.zeros(0, np.int64),
                          data=[], labels=np.zeros(0, np.int64)),
                     "empty dataset", id="zero-rows"),
        # a float label once passed every range check, and the logistic
        # sums cast its class-block offset 0.5 * n_features to an index
        pytest.param(dict(labels=[0.0, 0.5, 1.0]), "integer dtype",
                     id="labels-float"),
        pytest.param(dict(indices=[0, 1.5, 2, 1, 2]), "integer dtype",
                     id="indices-float"),
        pytest.param(dict(indptr=[0.0, 2.0, 3.0, 5.0]), "integer dtype",
                     id="indptr-float"),
        pytest.param(dict(data=[0.5, np.nan, 1.0, -2.0, 1.0]), "finite",
                     id="data-nan"),
        pytest.param(dict(data=[0.5, 1.0, np.inf, -2.0, 1.0]), "finite",
                     id="data-inf"),
    ])
    def test_bad_form_rejected_at_construction(self, change, match):
        with pytest.raises(ConfigError, match=match):
            Dataset(**_csr_fields(**change))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_dense_non_finite_rejected(self, value):
        features = np.ones((2, 2))
        features[1, 0] = value
        with pytest.raises(ConfigError, match="finite"):
            Dataset.from_dense(features, [0, 1], 2)

    def test_row_norms_derived_once_read_only(self):
        ds = _zeros_dataset()
        X = csr(ds)
        assert np.array_equal(ds.row_sq,
                              np.asarray(X.multiply(X).sum(axis=1)).ravel())
        assert not ds.row_sq.flags.writeable
        with pytest.raises(TypeError):
            Dataset(**_csr_fields(), row_sq=np.zeros(3))

    def test_problems_read_the_dataset_row_norms(self):
        # a marker only the data set holds: both problems built on it sum
        # its row norms, not ones of their own
        ds = _tiny_dataset()
        ds.row_sq = 2.0 * ds.row_sq
        x = np.random.default_rng(3).standard_normal(
            ds.n_features * ds.n_classes)
        items = np.arange(len(ds))
        ref = per_class_sums(ds, x, items, 2)[2]
        for kind in ("equality", "inequality"):
            sq = build_logreg_problem(ds, kind).sums(x, items, 2)[2]
            assert sq == pytest.approx(2.0 * ref, rel=1e-12)


class TestLogreg:
    def test_empty_dataset_rejected(self):
        with pytest.raises(ConfigError, match="empty dataset"):
            Dataset(indptr=np.zeros(1, dtype=np.int64),
                    indices=np.zeros(0, dtype=np.int64),
                    data=np.zeros(0), n_features=1,
                    labels=np.zeros(0, dtype=np.int64), n_classes=1)

    def test_unknown_constraint_kind_rejected(self):
        with pytest.raises(ConfigError, match="constraint kind"):
            build_logreg_problem(_tiny_dataset(), "box")

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
        x_good[k * nf:(k + 1) * nf] = csr(ds)[0].toarray().ravel()
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
    X, labels = csr(dataset), dataset.labels
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


def _zeros_dataset():
    """Rows of 13 stored entries, some of them zeros, over wide scales: a
    row's squared norm, summed pairwise over 9 or more nonzero products,
    has other bits when its zeros are summed too or it is summed in order."""
    rng = np.random.default_rng(6)
    features = rng.standard_normal((6, 12)) * np.array(
        [1e-3, 1, 1e3, 1, 1e-2, 10, 1, 1e2, 1, 1e-1, 1, 3])
    features[:, [1, 4, 8]] = 0.0
    features[2, 5:] = 0.0
    return Dataset.from_dense(features, np.arange(6) % 3, 3)


def _logreg_sums_cases():
    synth = make_synthetic_dataset()
    libsvm = parse_libsvm(LIBSVM_TEXT)
    zeros = _zeros_dataset()
    picked = np.random.default_rng(6).choice(len(synth), 700, replace=False)
    return {
        "synthetic": (synth, picked),
        # class 1 has no row in the batch
        "libsvm": (libsvm, np.array([0, 1, 3, 4, 6])),
        "one-row": (synth, np.array([17])),
        "duplicates": (synth, np.array([3, 9, 3, 4000, 9, 3])),
        "full-synthetic": (synth, np.arange(len(synth))),
        "full-libsvm": (libsvm, np.arange(len(libsvm))),
        "stored-zeros": (zeros, np.arange(len(zeros))),
        "bias-only": (libsvm, np.array([1])),
        # more entries than the data set stores
        "repeated-beyond-size": (libsvm, np.tile(np.arange(len(libsvm)), 3)),
    }


def masked_sigmoid(a):
    """The sigmoid by a boolean-mask scatter: 1 / (1 + exp(-a)) where
    a >= 0, exp(a) / (1 + exp(a)) elsewhere."""
    out = np.empty_like(a)
    pos = a >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-a[pos]))
    ea = np.exp(a[~pos])
    out[~pos] = ea / (1.0 + ea)
    return out


def test_sigmoid_bit_equal_to_masked_form():
    special = np.array([0.0, -0.0, 709.0, -709.0, 709.78, -709.78, 745.0,
                        -745.0, 746.0, -746.0, np.inf, -np.inf, np.nan,
                        5e-324, -5e-324, 1e-300, -1e-300, 36.7, -36.7])
    rng = np.random.default_rng(11)
    grid = np.concatenate([special, np.linspace(-800, 800, 20001),
                           rng.standard_normal(5000) * 10.0 ** rng.uniform(
                               -10, 3, 5000)])
    new, old = _sigmoid(grid), masked_sigmoid(grid)
    assert np.array_equal(new, old, equal_nan=True)
    # the bits too, where the value is a number
    num = ~np.isnan(old)
    assert new[num].tobytes() == old[num].tobytes()


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
    def test_reused_scores_are_byte_equal(self, kind, monkeypatch):
        # the last point's scores on the current set are reused: each sum
        # of the problem carrying them has the bytes of a fresh problem's,
        # and only a new point or a new set computes scores again
        ds = make_synthetic_dataset(n_samples=300)
        prob = build_logreg_problem(ds, kind)
        rng = np.random.default_rng(10)
        x, x2 = rng.standard_normal(prob.n), rng.standard_normal(prob.n)
        items, other = np.arange(20, 120), np.arange(150, 230)
        scored = []
        logaddexp = np.logaddexp
        monkeypatch.setattr(np, "logaddexp",
                            lambda *a: scored.append(1) or logaddexp(*a))

        def check(x, items, order, computes):
            before = len(scored)
            out = prob.sums(x, items, order)
            assert len(scored) - before == computes
            ref = build_logreg_problem(ds, kind).sums(x.copy(), items.copy(),
                                                      order)
            assert [np.asarray(v).tobytes() for v in out] == [
                np.asarray(v).tobytes() for v in ref]

        check(x, items, 0, 1)
        check(x, items, 1, 0)  # the accepted trial, again with its gradient
        check(x, items, 2, 0)
        check(x2, items, 0, 1)
        check(x2, items, 2, 0)
        x2[:] = x  # refilled in place with another point
        check(x2, items, 1, 1)
        x2[:] = x  # refilled in place with the same point
        check(x2, items, 0, 0)
        check(x2, other, 1, 1)  # a new set at an unchanged point
        check(x2, other, 0, 0)
        check(x2, items, 2, 1)

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

    def test_true_gradient_computes_no_objective(self, monkeypatch):
        # the registered problem's true gradient is the full-set gradient
        # sum over N, bit for bit, and evaluates no logaddexp
        prob = build_problem("synth-logreg-eq")
        N = prob.mode.dataset_size
        full = np.arange(N)
        rng = np.random.default_rng(12)
        scored = []
        logaddexp = np.logaddexp
        monkeypatch.setattr(np, "logaddexp",
                            lambda *a: scored.append(1) or logaddexp(*a))
        for scale in (0.01, 1.0, 30.0):
            x = scale * rng.standard_normal(prob.n)
            g = prob.true_gradient(x)
            assert not scored
            assert np.array_equal(g, prob.sums(x, full, 1)[1] / N)
            scored.clear()


class TestSumsMemory:
    @pytest.mark.parametrize("make", [make_noisy_quadratic,
                                      make_quadratic_problem,
                                      make_linear_noise_problem])
    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_no_sample_size_temporaries(self, make, order):
        # the expectation sums come from the moments of xi: an 8 MB set
        # allocates nothing near its own size
        prob = make()
        xi = np.random.default_rng(0).uniform(-0.01, 0.01, 2 ** 20)
        S = NoiseMoments.of(xi)
        x = np.random.default_rng(1).standard_normal(prob.n)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            prob.sums(x, S, order)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < xi.nbytes // 8


class TestDrawMemory:
    @pytest.mark.parametrize("prefix", [0, 2 ** 20])
    def test_drawing_holds_a_few_pieces(self, prefix):
        # a 32 MB set of draws, grown from an 8 MB prefix or not, is drawn
        # piece by piece: no array of its size, and no concatenation
        prob = make_noisy_quadratic()
        rng = np.random.default_rng(0)
        base = draw_samples(prob, prefix, rng) if prefix else None
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            S = draw_samples(prob, 2 ** 22, rng, base)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert S.size == 2 ** 22
        assert peak < 4 * DRAW_CHUNK * 8


class TestAugmented:
    def test_noise_averages_out(self):
        prob = make_quadratic_problem(noise=0.1)
        x = np.array([1.0, -2.0, 0.5])
        xi_pairs = NoiseMoments.of(np.array([0.07, -0.07]))
        v, g = eval_subsampled(prob, x, xi_pairs, None)
        assert v == pytest.approx(prob.true_value(x))
        np.testing.assert_allclose(g, prob.true_gradient(x), atol=1e-12)

    @pytest.mark.parametrize("c_E,c_I", [(np.zeros(2), np.zeros(0)),
                                         (np.zeros(1), np.zeros(1))])
    def test_constraint_count_mismatch_rejected(self, c_E, c_I):
        # one value too many passes the Jacobian reshape: it is caught at
        # the hook, not by a matmul inside the first KKT step
        prob = build_augmented_problem(
            lambda x: float(x @ x), lambda x: 2.0 * x,
            lambda x: (c_E, c_I, np.ones((1, 2)), np.zeros((0, 2))),
            1, 0, np.zeros(2), 0.1)
        with pytest.raises(ConfigError, match="m_E = 1, m_I = 0"):
            eval_constraints(prob, prob.x_init)
        with pytest.raises(ConfigError):
            run(prob, DriverConfig(), np.random.default_rng(0))

    def test_negative_noise_level_rejected(self):
        with pytest.raises(ConfigError):
            build_augmented_problem(lambda x: 0.0, lambda x: np.zeros(1),
                                    lambda x: (np.zeros(0), np.zeros(0),
                                               np.zeros((0, 1)),
                                               np.zeros((0, 1))),
                                    0, 0, np.zeros(1), -0.5)


def expanded_augmented_sums(value_fn, grad_fn, x_init):
    """The augmented problem's sums expanded by hand in d = x - x_init - e:
    the reference the family instance must match bit for bit."""
    shift = np.asarray(x_init, dtype=float) + 1.0

    def sums(x, xi, order):
        d = x - shift
        m = xi.size
        s = float(np.sum(xi))
        vsum = m * value_fn(x) + s * float(d @ d)
        if order == 0:
            return (vsum,)
        g0 = grad_fn(x)
        gsum = m * g0 + 2.0 * s * d
        if order == 1:
            return vsum, gsum
        sqsum = (m * float(g0 @ g0)
                 + 4.0 * s * float(g0 @ d)
                 + 4.0 * float(xi @ xi) * float(d @ d))
        return vsum, gsum, sqsum
    return sums


class TestExpectationFamily:
    def test_augmented_sums_match_expanded_formula_bit_for_bit(self):
        # h = ||x - x_init - e||^2 enters the family's sums with its
        # gradient 2 d: the factors 2 and 4 scale exactly, so the family
        # gives the old expansion's bits
        rng = np.random.default_rng(28)
        for _ in range(500):
            n = int(rng.integers(1, 7))
            scale = 10.0 ** rng.uniform(-3, 3)
            Q = rng.standard_normal((n, n))
            c = rng.standard_normal(n)

            def value_fn(x, Q=Q, c=c):
                return 0.5 * float(x @ (Q @ x)) + float(c @ x)

            def grad_fn(x, Q=Q, c=c):
                return 0.5 * (Q + Q.T) @ x + c

            x_init = scale * rng.standard_normal(n)
            noise = float(rng.uniform(0.0, 2.0))
            prob = build_augmented_problem(
                value_fn, grad_fn,
                lambda x: (np.zeros(0), np.zeros(0), np.zeros((0, n)),
                           np.zeros((0, n))),
                0, 0, x_init, noise)
            ref = expanded_augmented_sums(value_fn, grad_fn, x_init)
            x = scale * rng.standard_normal(n)
            xi = rng.uniform(-noise, noise, int(rng.integers(1, 50)))
            for order in (0, 1, 2):
                got = prob.sums(x, NoiseMoments.of(xi), order)
                want = ref(x, xi, order)
                assert len(got) == len(want) == order + 1
                for a, b in zip(got, want):
                    assert np.array_equal(a, b), (order, a, b)

    def test_true_problem_is_f(self):
        f, gf = (lambda x: float(x @ x)), (lambda x: 2.0 * x)
        prob = build_expectation_problem(
            f, gf, lambda x: 1.0, lambda x: np.ones(2),
            lambda x: (np.zeros(0), np.zeros(0), np.zeros((0, 2)),
                       np.zeros((0, 2))), 0, 0, [0, 1], 0.1)
        assert prob.true_value is f and prob.true_gradient is gf
        assert prob.x_init.dtype == np.float64
        assert isinstance(prob.mode, Expectation)

    # 1e308 and inf overflow the draw range 2 * noise_level, and the
    # integer 10**400 cannot even be converted to a float to compute it
    @pytest.mark.parametrize("noise", [
        -0.5, np.nan, np.inf, 1e308, pytest.param(10 ** 400, id="int-1e400")])
    def test_bad_noise_level_rejected(self, noise):
        with pytest.raises(ConfigError, match="noise_level"):
            make_linear_noise_problem(noise)
        with pytest.raises(ConfigError, match="noise_level"):
            make_noisy_quadratic(noise=noise)

    def test_noisy_quadratic_has_no_sampling_error(self):
        # with h = f each subsampled objective is (1 + mean xi) f: its
        # gradient is parallel to the true one at every x and batch
        prob = make_noisy_quadratic(noise=0.5)
        rng = np.random.default_rng(3)
        x = rng.standard_normal(prob.n)
        for size in (1, 7, 100):
            xi = draw_samples(prob, size, rng)
            v, g = eval_subsampled(prob, x, xi)
            w = 1.0 + xi.sum_xi / xi.size
            assert v == pytest.approx(w * prob.true_value(x), rel=1e-12)
            np.testing.assert_allclose(g, w * prob.true_gradient(x),
                                       rtol=1e-12)
