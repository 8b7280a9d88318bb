import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from tensorstep import (
    LogisticProblem,
    QuadraticProblem,
    RankOneSumTensor3,
    make_logistic,
    make_online_logistic,
    make_quadratic,
    reference_solution,
)
from tensorstep import problems
from tensorstep.linalg import ROW_BLOCK, row_slice_sum, t3_norm_estimate
from tensorstep.problems import (
    DENSE_SUPPORT,
    LOGISTIC_LINK_BOUNDS,
    MAX_ROW_NORM,
    _sigmoid,
    link_d1,
    link_d2,
    link_d3,
    link_value,
)
from tensorstep.sampling import BatchPlan, sample_bundle

from conftest import central_diff_grad, central_diff_jacobian
from lemmas import component_gradient, component_hessian, component_value


def with_least_eigenvalue_zero(A):
    """The symmetric ``A`` with its least eigenvalue set to 0: singular, and
    positive semidefinite up to rounding."""
    eigs, vecs = np.linalg.eigh(A)
    eigs[0] = 0.0
    return (vecs * eigs) @ vecs.T


def exactly_positive_definite(A, shift):
    """Whether ``A - shift I`` is positive definite, decided in exact rational
    arithmetic: symmetric Gaussian elimination must meet only positive pivots."""
    a = [[Fraction(v) for v in row] for row in A.tolist()]
    for i in range(len(a)):
        a[i][i] -= Fraction(shift)
    for k, pivot_row in enumerate(a):
        if pivot_row[k] <= 0:
            return False
        for row in a[k + 1:]:
            ratio = row[k] / pivot_row[k]
            for j in range(k + 1, len(a)):
                row[j] -= ratio * pivot_row[j]
    return True


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
        assert prof.S == tuple(2.0 * prof.lip(i) for i in range(3))  # one offline component

    def test_symmetrizes_by_halves(self, rng):
        """``0.5 A + 0.5 A^T`` is bitwise ``0.5 (A + A^T)`` in the normal range,
        and neither it nor the symmetry check overflows near the float range."""
        A = rng.standard_normal((4, 4))
        A = A @ A.T + 1e-14 * rng.standard_normal((4, 4))
        assert np.array_equal(QuadraticProblem(A, np.zeros(4)).A, 0.5 * (A + A.T))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            wide = QuadraticProblem(np.diag([1.7e308, 1.0]), np.zeros(2))
            assert np.array_equal(wide.A, np.diag([1.7e308, 1.0]))
            with pytest.raises(ValueError, match="symmetric"):
                QuadraticProblem(np.array([[1.0, 9e307], [-9e307, 1.0]]), np.zeros(2))

    def test_condition_number_whose_inverse_overflows(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="cond"):
                make_quadratic(3, cond=5e-324)

    @pytest.mark.parametrize("cond", [10.0, 1e4, 1e8])
    def test_mu_is_a_lower_bound_on_the_least_eigenvalue(self, cond):
        # exactly: A - mu I is positive definite, while A less a millionth
        # more than the computed least eigenvalue is not
        for seed in range(3):
            prob = make_quadratic(6, seed=seed, cond=cond)
            least = float(np.linalg.eigvalsh(prob.A)[0])
            assert 0 < prob.mu < least
            assert exactly_positive_definite(prob.A, prob.mu)
            assert not exactly_positive_definite(prob.A, least * (1 + 1e-6))

    @pytest.mark.parametrize("A", [
        np.diag([1.0, 0.0, 2.0]), np.outer([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]),
        with_least_eigenvalue_zero(make_quadratic(6, seed=0).A),
    ], ids=["diagonal", "rank-one", "rotated"])
    def test_mu_is_zero_for_a_singular_matrix(self, A):
        assert QuadraticProblem(A, np.zeros(len(A))).mu == 0.0

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

    def test_value_is_logaddexp_to_a_few_ulp(self):
        """Both forms round within ~1.4 ulp of log(1 + e^-t), so they may differ by 3."""
        specials = np.array([0.0, -0.0, 800.0, -800.0, np.inf, -np.inf, 36.7, -36.7,
                             745.0, -745.0, 1e-300, -1e-300])
        gen = np.random.default_rng(32)
        t = np.concatenate([specials, gen.standard_normal(50_000) * 3.0,
                            gen.standard_normal(50_000) * 50.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, nan = link_value(t), link_value(np.array([np.nan]))
        reference = np.logaddexp(0.0, -t)
        assert np.array_equal(np.isinf(value), np.isinf(reference))
        finite = np.isfinite(reference)
        gap = np.abs(value[finite] - reference[finite])
        assert np.all(gap <= 4 * np.spacing(reference[finite]))
        assert np.isnan(nan).all()

    def test_sigmoid_is_bitwise_the_two_branch_form(self):
        def two_branch(t):
            out = np.empty_like(t, dtype=float)
            pos = t >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
            et = np.exp(t[~pos])
            out[~pos] = et / (1.0 + et)
            return out

        grid = np.array([0.0, -0.0, 1e-300, -1e-300, 36.7, -36.7, 745.0, -745.0,
                         800.0, -800.0, np.inf, -np.inf])
        normals = np.random.default_rng(31).standard_normal(10_000) * 50.0
        for t in (grid, normals):
            assert np.array_equal(_sigmoid(t).view(np.uint64),
                                  two_branch(t).view(np.uint64))
        assert np.isnan(_sigmoid(np.array([np.nan]))).all()

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
        for _ in range(2):
            draw = prob.draw(17, rng)
            assert draw[0] is None
            assert np.array_equal(prob.batch_gradient(x, draw), prob.gradient(x))
            assert np.array_equal(prob.batch_hessian(x, draw), prob.hessian(x))
            third = prob.batch_third(x, draw)
            assert third.rows is prob.features
            assert np.array_equal(third.apply2(s), prob.third(x).apply2(s))

    def test_margins_follow_a_point_changed_in_place(self, rng):
        prob = make_logistic(n=5, m=40, seed=9)
        x = rng.standard_normal(5)
        prob.value(x)
        x += 1.0
        fresh = make_logistic(n=5, m=40, seed=9)
        assert np.array_equal(prob.gradient(x), fresh.gradient(x.copy()))

    def test_one_margin_pass_per_exact_bundle(self, rng):
        prob = make_logistic(n=5, m=40, seed=9)
        x = rng.standard_normal(5)
        prob.value(x)
        kept = prob._margin_memo
        prob.gradient(x.copy())
        prob.hessian(x)
        prob.third(x)
        prob.batch_gradient(x, prob.draw(13, rng))  # support rows gather the kept margins
        assert prob._margin_memo is kept

    def test_one_margin_pass_per_sampled_bundle(self, rng):
        prob = make_logistic(n=5, m=40, seed=9)
        x = rng.standard_normal(5)
        value = prob.value(x)
        kept = prob._margin_memo
        sizes = (36, 13, 5)  # order 1 dense, orders 2 and 3 gathered
        assert sizes[0] >= DENSE_SUPPORT * prob.m > sizes[1]
        bundle = sample_bundle(prob, x, BatchPlan(sizes), np.random.default_rng(3), value)
        assert prob._margin_memo is kept
        replay = np.random.default_rng(3)
        draw1, draw2, (rows, w) = (prob.draw(size, replay) for size in sizes)
        assert np.array_equal(prob._margins(x, rows)[2], kept[1][rows])
        assert np.array_equal(bundle.third.rows, prob.features[rows])
        assert np.array_equal(bundle.third.weights,
                              w * link_d3(kept[1][rows]) * prob.labels[rows])
        assert np.array_equal(bundle.grad, prob.batch_gradient(x, draw1))
        assert np.array_equal(bundle.hess, prob.batch_hessian(x, draw2))
        assert prob._margin_memo is kept
        # support rows read the kept margins rather than recomputing their own
        shifted = kept[1] + 1.0
        prob._margin_memo = (kept[0], shifted)
        assert np.array_equal(prob.batch_third(x, (rows, w)).weights,
                              w * link_d3(shifted[rows]) * prob.labels[rows])

    def test_exact_derivatives_over_many_slices(self, rng):
        prob = make_logistic(n=5, m=2 * ROW_BLOCK + 7, seed=9)
        x, s = rng.standard_normal(5), rng.standard_normal(5)
        grad, hess, third = all_rows_batch(prob, x, np.full(prob.m, 1.0 / prob.m))
        assert_close(prob.gradient(x), grad)
        assert_close(prob.hessian(x), hess)
        assert_close(prob.third(x).apply2(s), third.apply2(s))

    @pytest.mark.parametrize("case", ["exact-sliced", "offline-draw", "online-duplicates"])
    def test_hessian_is_a_symmetric_gram(self, case, rng):
        """Bitwise symmetric, and the single-pass ``(F * c).T @ F`` to rounding."""
        if case == "exact-sliced":
            prob = make_logistic(n=9, m=2 * ROW_BLOCK + 7, seed=9)
            draw = None, np.full(prob.m, 1.0 / prob.m)
        elif case == "offline-draw":
            prob = make_logistic(n=9, m=300, seed=18)
            draw = prob.draw(170, rng)
        else:
            prob = make_online_logistic(n=9, pool=64, seed=17)
            draw = prob.draw(60, rng)
            assert 0.0 < draw[1].min() < draw[1].max()  # duplicate picks
        x = rng.standard_normal(prob.dim)
        hess = prob.hessian(x) if case == "exact-sliced" else prob.batch_hessian(x, draw)
        assert np.array_equal(hess, hess.T)
        _, single_pass, _ = all_rows_batch(prob, x, weights_over_all_rows(prob, draw))
        assert np.abs(hess - single_pass).max() <= 1e-13 * np.abs(single_pass).max()

    @pytest.mark.parametrize("mode", ["offline", "online"])
    def test_per_sample_ranges(self, mode):
        # 2 L_{i-1} offline; M_i + L_{i-1} online, M_i = 2 clamp^i sup|phi^(i)|,
        # with the worst-row L_0..L_2 that every single sample obeys
        prob = make_logistic(n=4, m=30, seed=10, mode=mode)
        prof = prob.lipschitz_profile(np.zeros(4), 2.0)
        amax = np.linalg.norm(prob.features, axis=1).max()
        s1, s2, s3, _ = LOGISTIC_LINK_BOUNDS
        worst_row = (amax * s1 + prob.mu * 2.0, amax ** 2 * s2 + prob.mu, amax ** 3 * s3)
        for i in (1, 2, 3):
            deviation = 2.0 * prob.clamp ** i * LOGISTIC_LINK_BOUNDS[i - 1]
            expected = 2.0 * worst_row[i - 1] if mode == "offline" \
                else deviation + worst_row[i - 1]
            assert prof.range(i) == expected
        assert prof.lip(1) < worst_row[1] and prof.lip(2) < worst_row[2]

    def test_lipschitz_certificate_on_random_pairs(self, rng):
        # offline, online, and one row 30 times longer than the rest, whose
        # margins stay in the link's curved region at radius 0.2
        offline = make_logistic(n=4, m=30, seed=10, mu=1e-3)
        features = offline.features.copy()
        norms = np.linalg.norm(features, axis=1)
        features[0] *= 30.0 * norms[1:].max() / norms[0]
        instances = {
            "offline": (offline, 2.0),
            "online": (make_online_logistic(n=4, pool=30, seed=10), 2.0),
            "long-row": (LogisticProblem(features, offline.labels, mu=1e-3), 0.2),
        }
        for name, (prob, radius) in instances.items():
            x0 = np.zeros(4)
            prof = prob.lipschitz_profile(x0, radius)
            amax = np.linalg.norm(prob.features, axis=1).max()
            worst_row = {1: LOGISTIC_LINK_BOUNDS[1] * amax ** 2 + prob.mu,
                         2: LOGISTIC_LINK_BOUNDS[2] * amax ** 3,
                         3: LOGISTIC_LINK_BOUNDS[3] * amax ** 4}
            for order, bound in worst_row.items():
                assert prof.lip(order) <= bound, (name, order)
                if name == "long-row":
                    assert prof.lip(order) <= bound / 10, order
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
                # t3_norm_estimate is a lower bound of the difference's norm
                tdiff = RankOneSumTensor3(
                    prob.features, prob.third(x).weights - prob.third(y).weights)
                assert t3_norm_estimate(tdiff, n_dirs=4) <= prof.lip(3) * dist * (1 + 1e-6), name

    @pytest.mark.parametrize("m", [1, 30])
    @pytest.mark.parametrize("direction", ["axis", "generic"])
    def test_row_just_inside_the_scale_limit(self, direction, m):
        # ||a||^4 is 0.996 of the float range, and so, at m=1 along an axis,
        # is an entry of the fourth-moment matrix
        prob = make_logistic(n=4, m=m, seed=10)
        features = prob.features.copy()
        if direction == "axis":
            features[0] = np.eye(4)[0]
        features[0] *= 0.999 * MAX_ROW_NORM / np.linalg.norm(features[0])
        prob = LogisticProblem(features, prob.labels, mu=1e-3)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            prof = prob.lipschitz_profile(np.zeros(4), 1.0)
            lips = [prof.lip(order) for order in (1, 2, 3)]
        amax = np.linalg.norm(features, axis=1).max()
        for order, lip in enumerate(lips, start=1):
            assert math.isfinite(lip)
            assert lip <= LOGISTIC_LINK_BOUNDS[order] * amax ** (order + 1) + prob.mu * (order == 1)

    def test_moment_eigenvalues_are_computed_once_per_profile(self, moment_calls):
        prob = make_logistic(n=4, m=30, seed=10)
        prof = prob.lipschitz_profile(np.zeros(4), 1.0)
        assert moment_calls == ["_moment_maxima"]
        prof.lip(0), [(prof.lip(i), prof.range(i)) for i in (1, 2, 3)]
        assert moment_calls == ["_moment_maxima"]  # reads compute nothing more
        # nothing is cached on the problem: a second profile pays again
        prob.lipschitz_profile(np.zeros(4), 1.0)
        assert moment_calls == ["_moment_maxima"] * 2
        for constants in (prof.L, prof.L[:3]):
            assert all(type(c) is float for c in constants), constants

    def test_moment_bounds_match_the_unsliced_moments(self):
        # three row slices; lambda_2 and lambda_4 of matrices built in one expression
        prob = make_logistic(n=5, m=2 * ROW_BLOCK + 7, seed=4)
        a, m = prob.features, prob.m
        lam2 = np.linalg.eigvalsh(a.T @ a / m)[-1]
        lam4 = np.linalg.eigvalsh((a * (a * a).sum(axis=1)[:, None]).T @ a / m)[-1]
        _, s2, s3, s4 = LOGISTIC_LINK_BOUNDS
        prof = prob.lipschitz_profile(np.zeros(5), 1.0)
        expected = (s2 * lam2 + prob.mu, s3 * math.sqrt(lam2 * lam4), s4 * lam4)
        assert prof.L[1:] == pytest.approx(expected, rel=1e-12)


class TestDraws:
    def test_offline_full_batch_is_everything(self, rng):
        prob = make_logistic(n=3, m=12, seed=11)
        rows, weights = prob.draw(12, np.random.default_rng(0))
        assert rows is None
        assert np.array_equal(weights, np.full(12, 1 / 12))

    def test_offline_no_duplicates(self):
        prob = make_logistic(n=3, m=40, seed=12)
        gen = np.random.default_rng(5)
        for _ in range(25):
            rows, weights = prob.draw(17, gen)
            assert rows.size == 17 and np.all(np.diff(rows) > 0)
            assert np.all(weights == 1 / 17)

    def test_offline_oversize_rejected(self):
        prob = make_logistic(n=3, m=10, seed=13)
        with pytest.raises(ValueError):
            prob.draw(11, np.random.default_rng(0))

    @pytest.mark.parametrize("size", [1, 73, 19_999, 20_000])
    def test_offline_draw_is_the_count_form(self, size):
        # the sorted picks and 1/size equal the rows and weights of their
        # count vector over all m rows, and the generator advances as far
        prob = make_logistic(n=2, m=20_000, seed=16)
        gen, replay = np.random.default_rng(9), np.random.default_rng(9)
        rows, weights = prob.draw(size, gen)
        counts = np.bincount(replay.choice(prob.m, size=size, replace=False),
                             minlength=prob.m)
        full = counts / size
        if size == prob.m:
            assert rows is None and weights.tobytes() == full.tobytes()
        else:
            support = np.flatnonzero(counts)
            assert rows.dtype == support.dtype and np.array_equal(rows, support)
            assert weights.tobytes() == full[support].tobytes()
        assert gen.bit_generator.state == replay.bit_generator.state

    def test_online_uniformity_chi_square(self):
        prob = make_online_logistic(n=3, pool=16, seed=14)
        gen = np.random.default_rng(6)
        total = 100_000
        counts = weights_over_all_rows(prob, prob.draw(total, gen)) * total
        expected = total / 16
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        # 15 dof: mean 15, sd sqrt(30); 3 sigma
        assert chi2 <= 15 + 3 * math.sqrt(30)

    def test_online_count_draw_matches_multinomial_semantics(self):
        prob = make_online_logistic(n=3, pool=8, seed=15)
        rows, weights = prob.draw(2_000_000, np.random.default_rng(7))
        counts = np.random.default_rng(7).multinomial(2_000_000, np.full(8, 1 / 8))
        assert rows is None and np.array_equal(weights, counts / 2e6)
        assert np.rint(weights * 2e6).sum() == 2_000_000
        np.testing.assert_allclose(weights, np.full(8, 1 / 8), atol=2e-3)

    def test_count_draw_weighted_gradient(self, rng):
        prob = make_online_logistic(n=3, pool=8, seed=15)
        x = rng.standard_normal(3)
        draw = prob.draw(2_000_000, np.random.default_rng(8))
        g = prob.batch_gradient(x, draw)
        assert np.linalg.norm(g - prob.gradient(x)) < 1e-2


def weights_over_all_rows(prob, draw):
    """The weight a ``(rows, weights)`` draw puts on each of the m rows."""
    rows, weights = draw
    if rows is None:
        return weights
    full = np.zeros(prob.m)
    full[rows] = weights
    return full


def all_rows_batch(prob, x, w):
    """Batch derivatives as a ``w``-weighted reduction over all m rows, zeros included."""
    t = prob.labels * (prob.features @ x)
    grad = prob.features.T @ (w * link_d1(t) * prob.labels) + prob.mu * x
    hess = (prob.features * (w * link_d2(t))[:, None]).T @ prob.features \
        + prob.mu * np.eye(prob.dim)
    return grad, hess, RankOneSumTensor3(prob.features, w * link_d3(t) * prob.labels)


def assert_close(actual, expected, rtol=1e-12):
    assert np.linalg.norm(actual - expected) <= rtol * np.linalg.norm(expected)


class TestSupportBatches:
    """Sampled derivatives reduce over the rows their draw uses."""

    @pytest.fixture(params=["offline", "online-indices", "online-counts",
                            "offline-sliced-0.3", "offline-sliced-0.75",
                            "offline-sliced-0.9", "offline-sliced-0.99", "online-dense"])
    def case(self, request):
        """``(problem, draw, weights over all rows)`` with a draw that misses some rows.

        The sliced cases span several row slices. ``offline-sliced-0.3``
        gathers more than ``ROW_BLOCK`` support rows; the others, and
        ``online-dense`` (with-replacement picks with duplicates), cover at
        least ``DENSE_SUPPORT`` of the rows, so their gradients and Hessians
        take the all-rows path.
        """
        gen = np.random.default_rng(21)
        if request.param == "offline":
            prob = make_logistic(n=5, m=40, seed=16)
            draw = prob.draw(13, gen)
        elif request.param.startswith("offline-sliced"):
            prob = make_logistic(n=5, m=4 * ROW_BLOCK + 7, seed=16)
            draw = prob.draw(int(float(request.param.rsplit("-", 1)[1]) * prob.m), gen)
            assert draw[0].size > ROW_BLOCK
        else:
            prob = make_online_logistic(n=5, pool=64, seed=17)
            if request.param == "online-indices":
                draw = prob.draw(40, gen)
                assert draw[0].size < 40  # duplicates
            elif request.param == "online-dense":
                draw = prob.draw(100, gen)
                assert DENSE_SUPPORT * prob.m <= draw[0].size < prob.m
            else:
                prob.COUNT_DRAW_THRESHOLD = 29  # 30 picks take the multinomial path
                draw = prob.draw(30, gen)
                counts = np.random.default_rng(21).multinomial(30, np.full(64, 1 / 64))
                assert np.array_equal(weights_over_all_rows(prob, draw), counts / 30)
                assert np.rint(draw[1] * 30).sum() == 30
        assert draw[0] is not None
        return prob, draw, weights_over_all_rows(prob, draw)

    def test_matches_all_rows_reduction(self, case, rng):
        prob, draw, weights = case
        x = rng.standard_normal(prob.dim)
        s = rng.standard_normal(prob.dim)
        grad, hess, third = all_rows_batch(prob, x, weights)
        assert_close(prob.batch_gradient(x, draw), grad)
        assert_close(prob.batch_hessian(x, draw), hess)
        sampled = prob.batch_third(x, draw)
        assert_close(sampled.apply(s), third.apply(s))
        assert_close(sampled.apply2(s), third.apply2(s))
        assert_close(sampled.apply3(s), third.apply3(s))

    def test_third_holds_only_the_support_rows(self, case, rng):
        prob, draw, weights = case
        third = prob.batch_third(rng.standard_normal(prob.dim), draw)
        assert third.rows.shape[0] == np.count_nonzero(weights)
        assert np.all(third.weights != 0.0)

    def test_dense_supports_take_the_all_rows_path(self, case, rng, monkeypatch):
        """Below ``DENSE_SUPPORT * m`` rows a draw gathers its support, from there it
        is bitwise the all-rows reduction with zero weights off the support."""
        prob, draw, weights = case
        x = rng.standard_normal(prob.dim)
        reduced = spy_reduced_rows(monkeypatch)
        grad, hess = prob.batch_gradient(x, draw), prob.batch_hessian(x, draw)
        if draw[0].size < DENSE_SUPPORT * prob.m:
            assert reduced == [draw[0].size] * 2
            return
        assert reduced == [prob.m] * 2
        assert np.array_equal(grad, prob._weighted_gradient(x, None, weights))
        assert np.array_equal(hess, prob._weighted_hessian(x, None, weights))

    def test_the_largest_gathered_support(self, rng, monkeypatch):
        prob = make_logistic(n=5, m=4 * ROW_BLOCK + 7, seed=16)
        x = rng.standard_normal(prob.dim)
        threshold = math.ceil(DENSE_SUPPORT * prob.m)
        reduced = spy_reduced_rows(monkeypatch)
        for size in (threshold - 1, threshold):
            draw = prob.draw(size, rng)
            prob.batch_gradient(x, draw)
            prob.batch_hessian(x, draw)
            assert prob.batch_third(x, draw).rows.shape[0] == size
        assert reduced == [threshold - 1] * 2 + [prob.m] * 2


def spy_reduced_rows(monkeypatch):
    """The row counts that ``LogisticProblem``'s gradient and Hessian reductions walk."""
    reduced = []

    def recording(m, part):
        reduced.append(m)
        return row_slice_sum(m, part)

    monkeypatch.setattr(problems, "row_slice_sum", recording)
    return reduced


def newton_optimum(prob):
    """``(x_star, f_star)`` by Newton's method with halved steps, from 0 until
    the gradient norm stops falling."""
    x = np.zeros(prob.dim)
    grad = prob.gradient(x)
    for _ in range(100):
        step, t, fx = np.linalg.solve(prob.hessian(x), grad), 1.0, prob.value(x)
        while prob.value(x - t * step) > fx and t > 1e-9:
            t /= 2
        x_next = x - t * step
        grad_next = prob.gradient(x_next)
        if np.linalg.norm(grad_next) >= np.linalg.norm(grad):
            break
        x, grad = x_next, grad_next
    return x, prob.value(x)


def certified_gap_excess(prob, x, f_star):
    """``f(x) - f_star - ||grad f(x)||^2 / (2 mu)`` in units of the rounding of
    f at x, ``eps_mach (1 + |f_star| + ||H(x)|| ||x||^2)``: at most a few when
    the certificate bounds the gap."""
    bound = float(np.linalg.norm(prob.gradient(x))) ** 2 / (2.0 * prob.mu)
    rounding = np.finfo(float).eps * (
        1.0 + abs(f_star) + np.linalg.norm(prob.hessian(x), 2) * (x @ x))
    return (prob.value(x) - f_star - bound) / rounding


def strongly_convex_instances():
    """Random quadratics (cond 10 to 1e4, f_star by ``np.linalg.solve``) and
    ridge logistic instances (f_star by ``newton_optimum``)."""
    for seed, cond in itertools.product(range(3), (10.0, 1e2, 1e3, 1e4)):
        prob = make_quadratic(10, seed=seed, cond=cond)
        x_star = np.linalg.solve(prob.A, prob.b)
        yield f"quadratic-cond{cond:g}-seed{seed}", prob, x_star, prob.value(x_star)
    for seed, mu in itertools.product(range(3), (1e-3, 1e-1)):
        prob = make_logistic(6, 200, seed=seed, mu=mu)
        yield (f"logistic-mu{mu:g}-seed{seed}", prob, *newton_optimum(prob))


class TestStrongConvexityCertificate:
    """f(x) - f_star <= ||grad f(x)||^2 / (2 mu) with each problem's ``mu``
    (Nesterov, Lectures on Convex Optimization, 2018, Thm 2.1.10)."""

    def test_bounds_the_gap_at_random_points(self, rng):
        # along random directions and the least-curvature one, where the bound
        # is tight for a quadratic, from 1e-6 to 1e2 away from x_star
        for name, prob, x_star, f_star in strongly_convex_instances():
            least = np.linalg.eigh(prob.hessian(x_star))[1][:, 0]
            directions = [least] + [u / np.linalg.norm(u)
                                    for u in rng.standard_normal((4, prob.dim))]
            for u, radius in itertools.product(directions, np.logspace(-6, 2, 5)):
                excess = certified_gap_excess(prob, x_star + radius * u, f_star)
                assert excess <= 4.0, (name, radius)

    def test_bounds_the_gap_along_the_reference_iterates(self, monkeypatch):
        for name, prob, _, f_star in strongly_convex_instances():
            iterates, value = [], prob.value
            monkeypatch.setattr(prob, "value", lambda x: iterates.append(x) or value(x))
            reference_solution(prob)
            monkeypatch.undo()
            assert len(iterates) > 2
            for k, x in enumerate(iterates):
                assert certified_gap_excess(prob, x, f_star) <= 4.0, (name, k)
