import numpy as np
import pytest

from tensorstep import (
    RankOneSumTensor3,
    opnorm_mat,
    t3_norm_estimate,
    zero_tensor3,
)
from tensorstep.errors import DimensionMismatchError
from tensorstep.linalg import ROW_BLOCK

from conftest import central_diff_grad, central_diff_jacobian, sphere_grid_norm
from lemmas import NonsmoothPointError, SingularPointError, dp_grad, dp_hess, dp_value


class TestPowerProx:
    def test_zero_vector_any_order(self):
        for p in (1, 2, 3, 5):
            assert dp_value(np.zeros(4), p) == 0.0

    def test_unit_vector_order_two(self):
        assert dp_value(np.array([1.0, 0.0]), 2) == pytest.approx(0.5)

    def test_three_four_vector_cubed(self):
        # ||x|| = 5 so d_3 = 125 / 3
        assert dp_value(np.array([3.0, 4.0]), 3) == pytest.approx(125.0 / 3.0)

    def test_grad_identity_at_order_two(self, rng):
        x = rng.standard_normal(6)
        np.testing.assert_allclose(dp_grad(x, 2), x)

    def test_grad_three_four(self):
        np.testing.assert_allclose(dp_grad(np.array([3.0, 4.0]), 3), [15.0, 20.0])

    def test_grad_zero_high_order(self):
        np.testing.assert_array_equal(dp_grad(np.zeros(3), 4), np.zeros(3))

    def test_grad_order_one_nonsmooth_at_zero(self):
        with pytest.raises(NonsmoothPointError):
            dp_grad(np.zeros(2), 1)

    def test_grad_matches_finite_differences(self, rng):
        for _ in range(25):
            p = int(rng.integers(2, 6))
            x = rng.standard_normal(5) * rng.uniform(0.3, 2.0)
            fd = central_diff_grad(lambda z: dp_value(z, p), x)
            scale = max(1.0, np.linalg.norm(fd))
            assert np.linalg.norm(dp_grad(x, p) - fd) / scale < 1e-6

    def test_hess_order_two_identity(self, rng):
        np.testing.assert_array_equal(dp_hess(rng.standard_normal(4), 2), np.eye(4))

    def test_hess_e1_order_four(self):
        e1 = np.array([1.0, 0.0, 0.0])
        expected = 2.0 * np.outer(e1, e1) + np.eye(3)
        np.testing.assert_allclose(dp_hess(e1, 4), expected)

    def test_hess_order_three_singular_at_zero(self):
        with pytest.raises(SingularPointError):
            dp_hess(np.zeros(3), 3)

    def test_hess_zero_high_order(self):
        np.testing.assert_array_equal(dp_hess(np.zeros(3), 5), np.zeros((3, 3)))

    def test_hess_matches_finite_differences(self, rng):
        for _ in range(15):
            p = int(rng.integers(2, 6))
            x = rng.standard_normal(4) * rng.uniform(0.5, 1.5)
            fd = central_diff_jacobian(lambda z: dp_grad(z, p), x)
            err = np.abs(dp_hess(x, p) - fd).max()
            assert err < 1e-6 * max(1.0, np.abs(fd).max())

    def test_hess_lower_eigenvalue_bound(self, rng):
        # the paper-side inequality: hessian >= ||x||^(p-2) I
        for _ in range(20):
            p = int(rng.integers(2, 6))
            x = rng.standard_normal(4)
            lam_min = np.linalg.eigvalsh(dp_hess(x, p)).min()
            assert lam_min >= np.linalg.norm(x) ** (p - 2) - 1e-10


def random_tensor(rng, n, rank=None):
    """Random rank-one sum; by default as many terms as a symmetric n-tensor has entries."""
    if rank is None:
        rank = n * (n + 1) * (n + 2) // 6
    return RankOneSumTensor3(rng.standard_normal((rank, n)), rng.standard_normal(rank))


def entries(tensor):
    """The (n, n, n) array sum_j w_j a_j (x) a_j (x) a_j, built term by term."""
    out = np.zeros((tensor.dim,) * 3)
    for a, w in zip(tensor.rows, tensor.weights):
        out += w * np.einsum("i,j,k->ijk", a, a, a)
    return out


def naive_contractions(entries, s):
    n = entries.shape[0]
    mat = np.zeros((n, n))
    vec = np.zeros(n)
    scalar = 0.0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                mat[i, j] += entries[i, j, k] * s[k]
                vec[i] += entries[i, j, k] * s[j] * s[k]
                scalar += entries[i, j, k] * s[i] * s[j] * s[k]
    return mat, vec, scalar


class TestThirdOrderTensors:
    def test_zero_tensor_contractions(self, rng):
        t = zero_tensor3(5)
        s = rng.standard_normal(5)
        assert np.all(t.apply(s) == 0)
        assert np.all(t.apply2(s) == 0)
        assert t.apply3(s) == 0.0

    def test_zero_direction(self, rng):
        t = random_tensor(rng, 4)
        assert np.all(t.apply2(np.zeros(4)) == 0)

    def test_matches_naive_triple_loop(self, rng):
        t = random_tensor(rng, 4)
        s = rng.standard_normal(4)
        mat, vec, scalar = naive_contractions(entries(t), s)
        np.testing.assert_allclose(t.apply(s), mat, atol=1e-12)
        np.testing.assert_allclose(t.apply2(s), vec, atol=1e-12)
        assert t.apply3(s) == pytest.approx(scalar, abs=1e-12)

    def test_contraction_consistency(self, rng):
        t = random_tensor(rng, 5)
        for _ in range(10):
            s = rng.standard_normal(5)
            lhs = float(t.apply(s) @ s @ s)
            assert lhs == pytest.approx(t.apply3(s), rel=1e-10, abs=1e-12)

    def test_rank_one_sum_matches_dense(self, rng):
        # fewer terms than the 20 entries of a symmetric 4-tensor
        op = random_tensor(rng, 4, rank=7)
        s = rng.standard_normal(4)
        mat, vec, scalar = naive_contractions(entries(op), s)
        np.testing.assert_allclose(op.apply(s), mat, atol=1e-12)
        np.testing.assert_allclose(op.apply2(s), vec, atol=1e-12)
        assert op.apply3(s) == pytest.approx(scalar, abs=1e-12)

    def test_operator_form_identity_on_probes(self, rng):
        rows = rng.standard_normal((6, 5))
        op = RankOneSumTensor3(rows, rng.standard_normal(6))
        for _ in range(20):
            s = rng.standard_normal(5)
            lhs = op.apply3(s)
            rhs = float(op.apply2(s) @ s)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

    def test_difference_of_rank_one_sums(self, rng):
        a = RankOneSumTensor3(rng.standard_normal((4, 3)), rng.standard_normal(4))
        b = RankOneSumTensor3(rng.standard_normal((5, 3)), rng.standard_normal(5))
        diff = a - b
        s = rng.standard_normal(3)
        np.testing.assert_allclose(diff.apply2(s), a.apply2(s) - b.apply2(s), atol=1e-12)

    def test_difference_over_shared_rows(self, rng):
        rows = rng.standard_normal((6, 3))
        a = RankOneSumTensor3(rows, rng.standard_normal(6))
        b = RankOneSumTensor3(rows, rng.standard_normal(6))
        diff = a - b
        assert diff.rows is rows
        s = rng.standard_normal(3)
        np.testing.assert_allclose(diff.apply2(s), a.apply2(s) - b.apply2(s), atol=1e-12)

    def test_dimension_mismatch(self, rng):
        t = random_tensor(rng, 3)
        with pytest.raises(DimensionMismatchError):
            t.apply(np.zeros(4))


def single_pass_contractions(tensor, s):
    """``apply``, ``apply2`` and ``apply3`` as one reduction over all rows at once."""
    rows, weights = tensor.rows, tensor.weights
    proj = rows @ s
    return ((rows * (weights * proj)[:, None]).T @ rows,
            (weights * proj * proj) @ rows,
            float(np.dot(weights * proj * proj, proj)))


class TestRowSlices:
    """Contractions walk their rows in slices of ``ROW_BLOCK``."""

    def test_many_slices_match_a_single_pass(self, rng):
        m = 2 * ROW_BLOCK + 7  # two full slices and a short one
        t = RankOneSumTensor3(rng.standard_normal((m, 6)), rng.standard_normal(m))
        s = rng.standard_normal(6)
        for sliced, single in zip((t.apply(s), t.apply2(s), t.apply3(s)),
                                  single_pass_contractions(t, s)):
            assert np.linalg.norm(sliced - single) <= 1e-13 * np.linalg.norm(single)

    @pytest.mark.parametrize("m", [0, 1, 300, ROW_BLOCK])
    def test_one_slice_is_bitwise_a_single_pass(self, rng, m):
        t = RankOneSumTensor3(rng.standard_normal((m, 6)), rng.standard_normal(m), dim=6)
        s = rng.standard_normal(6)
        mat, vec, scalar = single_pass_contractions(t, s)
        assert np.array_equal(t.apply(s), mat)
        assert np.array_equal(t.apply2(s), vec)
        assert t.apply3(s) == scalar


class TestOperatorNorm:
    def test_diagonal(self):
        assert opnorm_mat(np.diag([1.0, -3.0, 2.0])) == pytest.approx(3.0)

    def test_identity(self):
        assert opnorm_mat(np.eye(7)) == pytest.approx(1.0)

    def test_matches_dense_eigendecomposition(self, rng):
        m = rng.standard_normal((30, 30))
        m = 0.5 * (m + m.T)
        expected = np.abs(np.linalg.eigvalsh(m)).max()
        assert opnorm_mat(m) == pytest.approx(expected, abs=1e-8)

    def test_power_iteration_path(self, rng):
        # n above 200, where the norm was once estimated by power iteration
        m = rng.standard_normal((220, 220))
        m = 0.5 * (m + m.T)
        expected = np.abs(np.linalg.eigvalsh(m)).max()
        assert opnorm_mat(m) == pytest.approx(expected, abs=1e-8)

    def test_opposite_extreme_eigenvalues(self):
        # extremes +1 and -1 tie in magnitude
        m = np.diag(np.concatenate([np.ones(110), -np.ones(111)]))
        assert opnorm_mat(m) == 1.0


class TestTensorNormEstimate:
    def test_zero_tensor(self):
        assert t3_norm_estimate(zero_tensor3(4), n_dirs=4, seed=0) == 0.0

    def test_rank_one_known_maximizer(self, rng):
        u = rng.standard_normal(6)
        u /= np.linalg.norm(u)
        t = RankOneSumTensor3(u[None, :], np.array([1.0]))
        est = t3_norm_estimate(t, n_dirs=64, seed=1)
        # one power step lands on +-u
        assert est == pytest.approx(1.0, abs=1e-12)
        assert est <= 1.0 + 1e-12

    def test_against_spherical_grid(self, rng):
        t = random_tensor(rng, 3)
        best = sphere_grid_norm(t)
        # the grid is itself only a lower bound of the true sup, so compare
        # two-sided within 2%
        est = t3_norm_estimate(t, n_dirs=32, seed=3)
        assert abs(est - best) <= 0.02 * best

    def test_monotone_in_direction_count(self, rng):
        t = random_tensor(rng, 5)
        vals = [t3_norm_estimate(t, n_dirs=k, seed=7) for k in (1, 2, 4, 8, 16, 32)]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))
