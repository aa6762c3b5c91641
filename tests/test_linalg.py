"""MINRES, L-BFGS operator, least-squares dual and sign-constrained QP
tests against dense linear-algebra oracles."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rasqp.counters import Counters
from rasqp.errors import NumericalFailure
from rasqp.linalg import (LbfgsModel, lbfgs_apply, lbfgs_update,
                          least_squares_dual, make_kkt_operator, minres_solve,
                          norm, sign_constrained_qp)


def random_symmetric(rng, n):
    A = rng.standard_normal((n, n))
    return (A + A.T) / 2


class TestNorm:
    @pytest.mark.parametrize("length", [1, 2, 3, 7, 8, 9, 31, 128, 129, 1000])
    @pytest.mark.parametrize("ord", [None, 1, np.inf])
    def test_bit_equal_to_numpy_on_vectors(self, length, ord):
        rng = np.random.default_rng(length)
        for lo, hi in ((-8, 8), (-8, -8), (8, 8), (-1, 1)):
            v = rng.standard_normal(length) * 10.0 ** rng.uniform(lo, hi,
                                                                 length)
            for w in (v, v[::2], v[length // 2:]):
                if w.size:
                    assert norm(w, ord) == np.linalg.norm(w, ord)

    @pytest.mark.parametrize("shape", [(1, 1), (3, 30), (5, 200), (0, 4),
                                       (40, 25)])
    def test_frobenius_bit_equal_to_numpy(self, shape):
        rng = np.random.default_rng(sum(shape))
        J = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, shape)
        for M in (J, J.T, J[:, ::2]):
            assert norm(M) == np.linalg.norm(M)

    def test_non_finite_entries(self):
        for v in (np.array([1.0, np.inf]), np.array([np.nan, 1.0]),
                  np.array([-np.inf, np.nan])):
            for ord in (None, 1, np.inf):
                assert np.array_equal(norm(v, ord), np.linalg.norm(v, ord),
                                      equal_nan=True)


class TestMinres:
    def test_identity_single_iteration(self):
        A = np.eye(4).__matmul__
        b = np.array([1.0, 2.0, 3.0, 4.0])
        rep = minres_solve(A, b, 1e-10, 50)
        assert rep.iterations == 1
        np.testing.assert_allclose(rep.solution, b, atol=1e-12)

    def test_zero_rhs(self):
        A = np.eye(3).__matmul__
        rep = minres_solve(A, np.zeros(3), 1e-10, 50)
        assert rep.iterations == 0
        assert np.linalg.norm(rep.residual) == 0.0

    def test_indefinite_system(self):
        M = np.array([[1.0, 1.0], [1.0, 0.0]])
        b = np.array([1.0, -1.0])
        rep = minres_solve(M.__matmul__, b, 1e-10, 50)
        np.testing.assert_allclose(M @ rep.solution, b, atol=1e-9)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(2, 51))
            M = random_symmetric(rng, n) + n * np.eye(n) * rng.choice([0, 1])
            if abs(np.linalg.det(M)) < 1e-8:
                M += np.eye(n)
            b = rng.standard_normal(n)
            rep = minres_solve(M.__matmul__, b, 1e-8, 10 * n)
            rel = np.linalg.norm(M @ rep.solution - b) / np.linalg.norm(b)
            assert rel <= 1e-6

    def test_inconsistent_system_exhausts_krylov_space(self):
        # A = diag(1, 0), b = (1, 1): the Krylov space is all of R^2 after
        # two steps with the residual (0, 1) left, so MINRES stops there,
        # short of its tolerance, rather than run to its cap
        M = np.diag([1.0, 0.0])
        b = np.array([1.0, 1.0])
        rep = minres_solve(M.__matmul__, b, 1e-10, 50)
        assert (rep.iterations, rep.stop_reason) == (2, "max_iter")
        np.testing.assert_array_equal(rep.residual, b - M @ rep.solution)
        np.testing.assert_allclose(rep.residual, [0.0, 1.0], atol=1e-12)

    def test_non_finite_product_raises(self):
        # a NaN from the operator breaks the Lanczos recurrence at once
        def apply(v):
            return np.full_like(v, np.nan)

        with pytest.raises(NumericalFailure, match="non-finite"):
            minres_solve(apply, np.ones(3), 1e-10, 50)

    def test_acceptance_callback_stops_early(self):
        rng = np.random.default_rng(3)
        M = random_symmetric(rng, 20) + 20 * np.eye(20)
        b = rng.standard_normal(20)
        calls = []
        products = []

        def apply(v):
            products.append(1)
            return M @ v

        def accept(x, resid):
            calls.append(np.linalg.norm(resid))
            return ("small" if np.linalg.norm(resid) <= 0.5 * np.linalg.norm(b)
                    else None)

        rep = minres_solve(apply, b, 1e-12, 100, acceptance=accept)
        assert rep.stop_reason == "small"
        # the callback saw the true residual of the reported iterate
        assert np.linalg.norm(rep.residual) <= 0.5 * np.linalg.norm(b)
        np.testing.assert_array_equal(rep.residual, b - M @ rep.solution)
        # one Lanczos and one residual product per iteration; the accepted
        # residual is reported without a further product
        assert len(products) == 2 * rep.iterations

    def test_kkt_operator_shape(self):
        J = np.array([[1.0, 0.0]])
        K = make_kkt_operator(lambda v: v, J)
        z = np.array([1.0, 2.0, 3.0])
        out = K(z)
        np.testing.assert_allclose(out, [1.0 + 3.0, 2.0, 1.0])


class TestLbfgs:
    def test_one_dimensional_update(self):
        model = LbfgsModel(dim=1, capacity=5)
        model = lbfgs_update(model, np.array([1.0]), np.array([2.0]))
        # B = y y'/s'y = 2 after the update (gamma term cancels exactly)
        np.testing.assert_allclose(lbfgs_apply(model, np.array([3.0])),
                                   [6.0], atol=1e-12)

    def test_curvature_skip(self):
        model = LbfgsModel(dim=2, capacity=5)
        out = lbfgs_update(model, np.array([1.0, 0.0]), np.array([-1.0, 0.0]))
        assert out is model
        assert out.S.shape == out.Y.shape == (0, 2)

    def test_no_pair_applies_gamma_v(self):
        v = np.array([1.5, -2.0, 0.25])
        model = LbfgsModel(dim=3, capacity=4, gamma=3.0)
        np.testing.assert_array_equal(lbfgs_apply(model, v), 3.0 * v)
        skipped = lbfgs_update(model, v, -v)
        np.testing.assert_array_equal(lbfgs_apply(skipped, v), 3.0 * v)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(30):
            n = int(rng.integers(2, 21))
            model = LbfgsModel(dim=n, capacity=50)
            pairs = []
            H = random_symmetric(rng, n) + (n + 1) * np.eye(n)
            for _ in range(8):
                s = rng.standard_normal(n)
                y = H @ s
                pairs.append((s, y))
                model = lbfgs_update(model, s, y)
            B = dense_bfgs_oracle_scaled(n, pairs)
            v = rng.standard_normal(n)
            err = np.linalg.norm(lbfgs_apply(model, v) - B @ v)
            worst = max(worst, err / max(1.0, np.linalg.norm(B @ v)))
            dense = np.column_stack([lbfgs_apply(model, e)
                                     for e in np.eye(n)])
            np.testing.assert_allclose(dense, B, rtol=1e-10,
                                       atol=1e-10 * np.abs(B).max())
        assert worst <= 1e-10

    def test_capacity_drops_oldest(self):
        # 8 pairs into 3 slots, one failing the curvature test: the model
        # is the oracle's on the 3 newest accepted pairs
        rng = np.random.default_rng(21)
        n = 6
        H = random_symmetric(rng, n) + (n + 1) * np.eye(n)
        model = LbfgsModel(dim=n, capacity=3)
        accepted = []
        for i in range(8):
            s = rng.standard_normal(n)
            y = -s if i == 5 else H @ s
            if i != 5:
                accepted.append((s, y))
            model = lbfgs_update(model, s, y)
        retained = accepted[-3:]
        np.testing.assert_array_equal(model.S, [s for s, _ in retained])
        np.testing.assert_array_equal(model.Y, [y for _, y in retained])
        B = dense_bfgs_oracle_scaled(n, retained)
        dense = np.column_stack([lbfgs_apply(model, e) for e in np.eye(n)])
        np.testing.assert_allclose(dense, B, rtol=1e-10,
                                   atol=1e-10 * np.abs(B).max())

    def test_apply_is_symmetric(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            n = int(rng.integers(2, 31))
            H = random_symmetric(rng, n) + (n + 1) * np.eye(n)
            model = LbfgsModel(dim=n, capacity=10)
            for _ in range(12):
                s = rng.standard_normal(n)
                model = lbfgs_update(model, s, H @ s)
            u, v = rng.standard_normal(n), rng.standard_normal(n)
            uBv = u @ lbfgs_apply(model, v)
            vBu = v @ lbfgs_apply(model, u)
            assert abs(uBv - vBu) <= 1e-12 * max(abs(uBv), abs(vBu))


def dense_bfgs_oracle_scaled(n, pairs):
    """Oracle replicating the limited-memory model: gamma from the newest
    accepted pair, then direct BFGS updates over all stored pairs."""
    accepted = [(s, y) for s, y in pairs
                if s @ y > 1e-8 * np.linalg.norm(s) * np.linalg.norm(y)]
    if not accepted:
        return np.eye(n)
    s_last, y_last = accepted[-1]
    B = (y_last @ y_last / (s_last @ y_last)) * np.eye(n)
    for s, y in accepted:
        Bs = B @ s
        B = B - np.outer(Bs, Bs) / (s @ Bs) + np.outer(y, y) / (s @ y)
    return B


class TestLeastSquaresDual:
    def test_exactly_determined(self):
        J = np.array([[1.0, 0.0]])
        g = np.array([2.0, 0.0])
        lam = least_squares_dual(J, g)
        np.testing.assert_allclose(lam, [-2.0], atol=1e-12)
        assert np.linalg.norm(g + J.T @ lam) <= 1e-12

    def test_gradient_orthogonal_to_jacobian(self):
        # J g = 0: no multiplier reduces ||g + J' lam||, so lam = 0
        J = np.array([[1.0, 0.0, 1.0], [0.0, 2.0, 0.0]])
        g = np.array([1.0, 0.0, -1.0])
        lam = least_squares_dual(J, g)
        np.testing.assert_allclose(lam, np.zeros(2), atol=1e-12)
        np.testing.assert_allclose(g + J.T @ lam, g, atol=1e-12)

    def test_rank_deficient(self):
        # a repeated row: the minimum-norm minimizer splits the multiplier
        J = np.array([[1.0, 0.0], [1.0, 0.0]])
        lam = least_squares_dual(J, np.array([1.0, 1.0]))
        np.testing.assert_allclose(lam, [-0.5, -0.5], atol=1e-12)

    @given(st.integers(1, 4), st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_minimizes_gradient_residual(self, m, seed):
        rng = np.random.default_rng(seed)
        n = m + 2
        J = rng.standard_normal((m, n))
        g = rng.standard_normal(n)
        lam = least_squares_dual(J, g)
        resid = g + J.T @ lam
        # stationarity of the least-squares problem: J r = 0
        np.testing.assert_allclose(J @ resid, np.zeros(m), atol=1e-8)


def sign_constrained_oracle(G, h):
    """The least z'Gz/2 - h'z over z >= 0, by enumerating which entries
    are free of their bound: each support's stationary point that keeps
    its entries >= 0 is a candidate."""
    m = h.size
    best = np.inf
    for r in range(m + 1):
        for S in itertools.combinations(range(m), r):
            z = np.zeros(m)
            z[list(S)] = np.linalg.lstsq(G[np.ix_(S, S)], h[list(S)],
                                         rcond=None)[0]
            if z.min() >= -1e-12:
                best = min(best, 0.5 * z @ G @ z - h @ z)
    return best


class TestSignConstrainedQp:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_enumeration_oracle(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(40):
            m = int(rng.integers(1, 7))
            A = rng.standard_normal((m + 2, m))
            G, h = A.T @ A, A.T @ rng.standard_normal(m + 2)
            z, work = sign_constrained_qp(G, h)
            # only working entries are nonzero, and none is negative
            assert z.min() >= 0.0 and not z[~work].any()
            best = sign_constrained_oracle(G, h)
            value = 0.5 * z @ G @ z - h @ z
            assert abs(value - best) <= 1e-12 * (1.0 + abs(best))

    def test_barrier_counter_counts_working_set_solves(self):
        # two entries, the second pushed to its bound: one solve adds entry
        # 0, then the loop stops with entry 1's gradient negative
        ct = Counters()
        z, work = sign_constrained_qp(np.array([[2.0, 1.0], [1.0, 2.0]]),
                                      np.array([2.0, -1.0]), ct)
        np.testing.assert_array_equal(z, [1.0, 0.0])
        assert work.tolist() == [True, False]
        assert ct.barrier_iters == 1

    def test_dependent_entry_stays_out(self):
        # two equal columns fit the right-hand side exactly with one
        # entry, after which the other's gradient is rounding: the
        # threshold keeps it out, where it would make G_WW singular (with
        # a threshold of 0, 10 of these 200 give None)
        rng = np.random.default_rng(3)
        for _ in range(200):
            a = rng.standard_normal(4)
            A = np.column_stack([a, a, rng.standard_normal(4)])
            rhs = A @ np.array([rng.uniform(0.1, 2.0), 0.0, 0.0])
            out = sign_constrained_qp(A.T @ A, A.T @ rhs)
            assert out is not None
            z, work = out
            assert not work[:2].all()
            assert np.abs(A @ z - rhs).max() <= 1e-12 * (1 + np.abs(rhs).max())

    def test_singular_working_set_gives_none(self):
        # the dual of x <= -1 and -x <= -1, which no x meets: both entries
        # gain, and together they make G_WW singular
        assert sign_constrained_qp(np.array([[1.0, -1.0], [-1.0, 1.0]]),
                                   np.ones(2)) is None
