"""MINRES, L-BFGS operator, and least-squares dual tests against dense
linear-algebra oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rasqp.errors import RankDeficient
from rasqp.linalg import (LbfgsModel, lbfgs_apply, lbfgs_update,
                          least_squares_dual, make_kkt_operator, minres_solve)


def random_symmetric(rng, n):
    A = rng.standard_normal((n, n))
    return (A + A.T) / 2


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
            return np.linalg.norm(resid) <= 0.5 * np.linalg.norm(b)

        rep = minres_solve(apply, b, 1e-12, 100, acceptance=accept)
        assert rep.stop_reason == "inexactness_accepted"
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
        assert out.pairs == model.pairs == []

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
        model = LbfgsModel(dim=2, capacity=2)
        for i in range(4):
            s = np.array([1.0, float(i)])
            model = lbfgs_update(model, s, 2.0 * s)
        assert len(model.pairs) == 2


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
        lam, kkt = least_squares_dual(J, np.array([2.0, 0.0]))
        np.testing.assert_allclose(lam, [-2.0], atol=1e-12)
        assert kkt <= 1e-12

    def test_residual_with_constraints(self):
        J = np.array([[1.0, 0.0]])
        lam, kkt = least_squares_dual(J, np.array([0.0, 1.0]),
                                      c=np.array([0.0]))
        np.testing.assert_allclose(lam, [0.0], atol=1e-12)
        np.testing.assert_allclose(kkt, 1.0, atol=1e-12)

    def test_rank_deficient(self):
        J = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(RankDeficient):
            least_squares_dual(J, np.array([1.0, 1.0]))

    @given(st.integers(1, 4), st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_minimizes_gradient_residual(self, m, seed):
        rng = np.random.default_rng(seed)
        n = m + 2
        J = rng.standard_normal((m, n))
        if np.linalg.cond(J @ J.T) > 1e10:
            return
        g = rng.standard_normal(n)
        lam, _ = least_squares_dual(J, g)
        resid = g + J.T @ lam
        # stationarity of the least-squares problem: J r = 0
        np.testing.assert_allclose(J @ resid, np.zeros(m), atol=1e-8)
