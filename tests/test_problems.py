import math

import numpy as np
import pytest

from tensorstep import (
    LogisticProblem,
    QuadraticProblem,
    RankOneSumTensor3,
    StochasticDraw,
    make_logistic,
    make_online_logistic,
    make_quadratic,
)
from tensorstep.problems import LOGISTIC_LINK_BOUNDS, link_d1, link_d2, link_d3, link_value

from conftest import central_diff_grad, central_diff_jacobian
from lemmas import component_gradient, component_hessian, component_value


class TestQuadratic:
    def test_identity_instance(self):
        prob = QuadraticProblem(np.eye(3), np.zeros(3))
        e1 = np.array([1.0, 0.0, 0.0])
        assert prob.value(e1) == pytest.approx(0.5)
        np.testing.assert_allclose(prob.gradient(e1), e1)
        np.testing.assert_allclose(prob.hessian(e1), np.eye(3))

    def test_third_derivative_is_zero(self, rng):
        prob = make_quadratic(4, seed=0)
        x, s = rng.standard_normal(4), rng.standard_normal(4)
        third = prob.third(x)
        assert np.all(third.apply2(s) == 0) and third.apply3(s) == 0.0

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            QuadraticProblem(np.diag([1.0, -0.5]), np.zeros(2))

    def test_lipschitz_profile(self):
        prob = QuadraticProblem(np.diag([1.0, 2.0]), np.zeros(2))
        prof = prob.lipschitz_profile(np.zeros(2), radius=1.0)
        assert prof.lip(1) == pytest.approx(2.0)
        assert prof.lip(2) == pytest.approx(1e-8)  # floored
        assert prof.lip(3) == pytest.approx(1e-8)

    def test_single_component_equals_full(self, rng):
        prob = make_quadratic(3, seed=1)
        x = rng.standard_normal(3)
        assert component_value(prob, 0, x) == prob.value(x)
        np.testing.assert_array_equal(component_gradient(prob, 0, x), prob.gradient(x))


class TestLogisticLink:
    def test_value_at_zero(self):
        assert link_value(0.0) == pytest.approx(math.log(2.0))

    def test_first_derivative_at_zero(self):
        assert link_d1(np.array([0.0]))[0] == pytest.approx(-0.5)

    def test_third_derivative_odd_at_zero(self):
        assert link_d3(np.array([0.0]))[0] == pytest.approx(0.0, abs=1e-15)

    def test_overflow_safe(self):
        big = np.array([800.0, -800.0])
        vals = link_value(big)
        assert np.isfinite(vals).all()
        assert vals[0] == pytest.approx(0.0, abs=1e-12)
        assert vals[1] == pytest.approx(800.0)

    @pytest.mark.parametrize("order,deriv", [(2, link_d2), (3, link_d3)])
    def test_link_bounds_by_grid_maximization(self, order, deriv):
        # 1-D maximization oracle over a wide grid
        ts = np.linspace(-30, 30, 400001)
        observed = np.abs(deriv(ts)).max()
        assert observed <= LOGISTIC_LINK_BOUNDS[order - 1] + 1e-12
        assert observed == pytest.approx(LOGISTIC_LINK_BOUNDS[order - 1], rel=1e-6)

    def test_second_derivative_bound_value(self):
        assert LOGISTIC_LINK_BOUNDS[1] == pytest.approx(0.25)

    def test_third_derivative_bound_value(self):
        # known closed form sqrt(3)/18
        assert LOGISTIC_LINK_BOUNDS[2] == pytest.approx(0.09622504486, abs=1e-9)


class TestLogisticProblem:
    def test_single_row_at_origin(self):
        prob = LogisticProblem(np.array([[1.0, 0.0]]), np.array([1.0]), mu=0.0)
        x = np.zeros(2)
        assert prob.value(x) == pytest.approx(math.log(2.0))
        np.testing.assert_allclose(prob.gradient(x), [-0.5, 0.0])

    def test_gradient_matches_finite_differences(self, rng):
        prob = make_logistic(n=5, m=30, seed=3, mu=1e-2)
        for _ in range(5):
            x = rng.standard_normal(5)
            fd = central_diff_grad(prob.value, x)
            g = prob.gradient(x)
            assert np.linalg.norm(g - fd) / max(1.0, np.linalg.norm(fd)) < 1e-6

    def test_hessian_matches_finite_differences(self, rng):
        prob = make_logistic(n=4, m=25, seed=4, mu=1e-2)
        x = rng.standard_normal(4)
        fd = central_diff_jacobian(prob.gradient, x)
        assert np.abs(prob.hessian(x) - fd).max() < 1e-6

    def test_third_matches_finite_differences_of_hessian(self, rng):
        prob = make_logistic(n=4, m=25, seed=5, mu=1e-3)
        x = rng.standard_normal(4)
        s = rng.standard_normal(4)
        h = 1e-6
        fd = (prob.hessian(x + h * s) - prob.hessian(x - h * s)) / (2 * h)
        analytic = prob.third(x).apply(s)
        assert np.abs(analytic - fd).max() < 1e-5 * max(1.0, np.abs(fd).max())

    def test_hessian_psd_with_ridge(self, rng):
        prob = make_logistic(n=5, m=40, seed=7, mu=1e-3)
        for _ in range(10):
            x = rng.standard_normal(5)
            lam = np.linalg.eigvalsh(prob.hessian(x)).min()
            assert lam >= prob.mu - 1e-10

    def test_component_average_reproduces_exact(self, rng):
        prob = make_logistic(n=4, m=3, seed=8, mu=1e-2)
        x = rng.standard_normal(4)
        grad_avg = sum(component_gradient(prob, j, x) for j in range(3)) / 3.0
        np.testing.assert_allclose(grad_avg, prob.gradient(x), atol=1e-12)
        hess_avg = sum(component_hessian(prob, j, x) for j in range(3)) / 3.0
        np.testing.assert_allclose(hess_avg, prob.hessian(x), atol=1e-12)

    def test_full_batch_bitwise_equals_exact(self, rng):
        prob = make_logistic(n=5, m=17, seed=9)
        x = rng.standard_normal(5)
        s = rng.standard_normal(5)
        for idx in (np.arange(17), rng.permutation(17)):
            assert np.array_equal(prob.batch_gradient(x, idx), prob.gradient(x))
            assert np.array_equal(prob.batch_hessian(x, idx), prob.hessian(x))
            third = prob.batch_third(x, idx)
            assert third.rows is prob.features
            assert np.array_equal(third.apply2(s), prob.third(x).apply2(s))

    def test_lipschitz_certificate_on_random_pairs(self, rng):
        prob = make_logistic(n=4, m=30, seed=10, mu=1e-3)
        x0 = np.zeros(4)
        radius = 2.0
        prof = prob.lipschitz_profile(x0, radius)
        for _ in range(100):
            u = rng.standard_normal(4)
            x = x0 + u / np.linalg.norm(u) * rng.uniform(0, radius)
            v = rng.standard_normal(4)
            y = x0 + v / np.linalg.norm(v) * rng.uniform(0, radius)
            dist = np.linalg.norm(x - y)
            assert abs(prob.value(x) - prob.value(y)) <= prof.lip(0) * dist * (1 + 1e-6)
            assert np.linalg.norm(prob.gradient(x) - prob.gradient(y)) \
                <= prof.lip(1) * dist * (1 + 1e-6)
            hdiff = np.linalg.norm(prob.hessian(x) - prob.hessian(y), 2)
            assert hdiff <= prof.lip(2) * dist * (1 + 1e-6)


class TestDraws:
    def test_offline_full_batch_is_everything(self, rng):
        prob = make_logistic(n=3, m=12, seed=11)
        draw = prob.draw(12, np.random.default_rng(0))
        assert sorted(draw.indices.tolist()) == list(range(12))

    def test_offline_no_duplicates(self):
        prob = make_logistic(n=3, m=40, seed=12)
        gen = np.random.default_rng(5)
        for _ in range(25):
            draw = prob.draw(17, gen)
            assert len(set(draw.indices.tolist())) == 17

    def test_offline_oversize_rejected(self):
        prob = make_logistic(n=3, m=10, seed=13)
        with pytest.raises(ValueError):
            prob.draw(11, np.random.default_rng(0))

    def test_online_uniformity_chi_square(self):
        prob = make_online_logistic(n=3, pool=16, seed=14)
        gen = np.random.default_rng(6)
        total = 100_000
        draw = prob.draw(total, gen)
        counts = np.bincount(draw.indices, minlength=16)
        expected = total / 16
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        # 15 dof: mean 15, sd sqrt(30); 3 sigma
        assert chi2 <= 15 + 3 * math.sqrt(30)

    def test_online_count_draw_matches_multinomial_semantics(self):
        prob = make_online_logistic(n=3, pool=8, seed=15)
        gen = np.random.default_rng(7)
        draw = prob.draw(2_000_000, gen)
        assert draw.counts is not None and draw.indices is None
        assert draw.counts.sum() == 2_000_000
        np.testing.assert_allclose(draw.counts / 2e6, np.full(8, 1 / 8), atol=2e-3)

    def test_count_draw_weighted_gradient(self, rng):
        prob = make_online_logistic(n=3, pool=8, seed=15)
        x = rng.standard_normal(3)
        draw = prob.draw(2_000_000, np.random.default_rng(8))
        g = prob.batch_gradient(x, draw)
        assert np.linalg.norm(g - prob.gradient(x)) < 1e-2


def all_rows_batch(prob, x, counts):
    """Batch derivatives as a weighted reduction over all m rows, zeros included."""
    w = counts.astype(float) / counts.sum()
    t = prob.labels * (prob.features @ x)
    grad = prob.features.T @ (w * link_d1(t) * prob.labels) + prob.mu * x
    hess = (prob.features * (w * link_d2(t))[:, None]).T @ prob.features \
        + prob.mu * np.eye(prob.dim)
    return grad, hess, RankOneSumTensor3(prob.features, w * link_d3(t) * prob.labels)


def assert_close(actual, expected, rtol=1e-12):
    assert np.linalg.norm(actual - expected) <= rtol * np.linalg.norm(expected)


class TestSupportBatches:
    """Sampled derivatives reduce over the rows their draw uses."""

    @pytest.fixture(params=["offline", "online-indices", "online-counts"])
    def case(self, request):
        """``(problem, draw, counts)`` with a draw that misses some rows."""
        gen = np.random.default_rng(21)
        if request.param == "offline":
            prob = make_logistic(n=5, m=40, seed=16)
            draw = prob.draw(13, gen)
        else:
            prob = make_online_logistic(n=5, pool=64, seed=17)
            if request.param == "online-indices":
                draw = prob.draw(40, gen)
                assert np.unique(draw.indices).size < draw.size  # duplicates
            else:
                counts = gen.multinomial(30, np.full(64, 1 / 64))
                draw = StochasticDraw(None, 30, counts=counts)
        counts = draw.counts if draw.counts is not None \
            else np.bincount(draw.indices, minlength=prob.m)
        assert np.count_nonzero(counts) < prob.m
        return prob, draw, counts

    def test_matches_all_rows_reduction(self, case, rng):
        prob, draw, counts = case
        x = rng.standard_normal(prob.dim)
        s = rng.standard_normal(prob.dim)
        grad, hess, third = all_rows_batch(prob, x, counts)
        assert_close(prob.batch_gradient(x, draw), grad)
        assert_close(prob.batch_hessian(x, draw), hess)
        sampled = prob.batch_third(x, draw)
        assert_close(sampled.apply(s), third.apply(s))
        assert_close(sampled.apply2(s), third.apply2(s))
        assert_close(sampled.apply3(s), third.apply3(s))

    def test_third_holds_only_the_support_rows(self, case, rng):
        prob, draw, counts = case
        third = prob.batch_third(rng.standard_normal(prob.dim), draw)
        assert third.rows.shape[0] == np.count_nonzero(counts)
        assert np.all(third.weights != 0.0)
