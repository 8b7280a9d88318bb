import math

import numpy as np
import pytest

from tensorstep import (
    InexactnessBudget,
    ModelConfig,
    SubsolverError,
    TaylorModel,
    make_logistic,
    make_quadratic,
)
from tensorstep.methods import default_profile, exact_bundle
from tensorstep.models import zeta_radial_coefficients

from conftest import central_diff_grad, symmetrized_fd_hessian
from lemmas import (
    NonsmoothPointError,
    coupling_residual,
    hessian_sandwich_report,
    omega,
    omega_grad,
    phi_grad,
    phi_hess,
    residual_bound_report,
    zeta_hess,
)


@pytest.fixture(scope="module")
def logistic():
    return make_logistic(n=6, m=50, seed=21, mu=1e-2)


@pytest.fixture(scope="module")
def logistic_setup(logistic):
    rng = np.random.default_rng(77)
    x = 0.4 * rng.standard_normal(6)
    bundle = exact_bundle(logistic, x, 3)
    profile = default_profile(logistic, x)
    budget = InexactnessBudget(1e-2, (0.4, 0.8, 1.5))
    config = ModelConfig.coupled(profile.lip(3), budget.kappa(3), tau=4.0)
    return logistic, bundle, budget, config, profile


class TestPhi:
    def test_center_values(self, logistic_setup, rng):
        prob, bundle, budget, config, _ = logistic_setup
        model = TaylorModel(bundle, budget, config)
        z = np.zeros(6)
        assert model.phi(z) == pytest.approx(bundle.value)
        np.testing.assert_allclose(phi_grad(model, z), bundle.grad)
        np.testing.assert_allclose(phi_hess(model, z), bundle.hess)

    def test_exact_on_quadratic(self, rng):
        prob = make_quadratic(4, seed=22)
        x = rng.standard_normal(4)
        bundle = exact_bundle(prob, x, 2)
        model = TaylorModel(bundle, InexactnessBudget(1e-3, (0.0, 0.0)),
                            ModelConfig(p=2, sigma=1e-8))
        for _ in range(10):
            s = rng.standard_normal(4)
            assert model.phi(s) == pytest.approx(prob.value(x + s), abs=1e-12)

    def test_grad_matches_finite_differences(self, logistic_setup, rng):
        _, bundle, budget, config, _ = logistic_setup
        model = TaylorModel(bundle, budget, config)
        for _ in range(5):
            s = rng.standard_normal(6) * 0.5
            fd = central_diff_grad(model.phi, s)
            err = np.linalg.norm(phi_grad(model, s) - fd)
            assert err < 1e-7 * max(1.0, np.linalg.norm(fd))


class TestOmega:
    def test_center_value(self, logistic_setup):
        _, bundle, budget, config, _ = logistic_setup
        model = TaylorModel(bundle, budget, config)
        assert omega(model, np.zeros(6)) == pytest.approx(bundle.value)

    def test_zero_kappa_quadratic_reduces_to_phi_plus_top(self, rng):
        prob = make_quadratic(4, seed=23)
        x = rng.standard_normal(4)
        bundle = exact_bundle(prob, x, 2)
        budget = InexactnessBudget(1e-2, (0.0, 0.0))
        config = ModelConfig(p=2, sigma=0.7)
        model = TaylorModel(bundle, budget, config)
        for _ in range(10):
            s = rng.standard_normal(4)
            expected = prob.value(x + s) + 0.7 / math.factorial(1) * np.linalg.norm(s) ** 3 / 3
            assert omega(model, s) == pytest.approx(expected, abs=1e-12)

    def test_majorizes_objective_with_exact_bundle(self, logistic_setup, rng):
        prob, bundle, budget, config, _ = logistic_setup
        model = TaylorModel(bundle, budget, config)
        for _ in range(200):
            s = rng.standard_normal(6)
            s *= rng.uniform(0, 1) / np.linalg.norm(s)
            assert prob.value(bundle.x + s) <= omega(model, s) + 1e-10

    def test_grad_nonsmooth_at_zero(self, logistic_setup):
        _, bundle, budget, config, _ = logistic_setup
        model = TaylorModel(bundle, budget, config)
        with pytest.raises(NonsmoothPointError):
            omega_grad(model, np.zeros(6))

    def test_grad_matches_finite_differences(self, logistic_setup, rng):
        _, bundle, budget, config, _ = logistic_setup
        model = TaylorModel(bundle, budget, config)
        for _ in range(5):
            s = rng.standard_normal(6)
            fd = central_diff_grad(lambda z: omega(model, z), s)
            err = np.linalg.norm(omega_grad(model, s) - fd)
            assert err < 1e-6 * max(1.0, np.linalg.norm(fd))

    def test_convexity_via_fd_hessian(self, logistic_setup, rng):
        _, bundle, budget, config, _ = logistic_setup
        model = TaylorModel(bundle, budget, config)
        for _ in range(25):
            s = rng.standard_normal(6)
            hess = symmetrized_fd_hessian(lambda z: omega_grad(model, z), s, h=1e-6)
            assert np.linalg.eigvalsh(hess).min() >= -1e-6


class TestZeta:
    def test_p3_coefficients_match_display(self, logistic_setup):
        _, bundle, budget, config, _ = logistic_setup
        kg, kb, kt = budget.kappas
        eps = budget.eps
        coeffs = zeta_radial_coefficients(budget, config)
        assert coeffs[0] == pytest.approx(0.5 * kg * eps ** (4 / 3))
        assert coeffs[2] == pytest.approx((kg / 2 + kb / 2 + kt / 12) * eps ** (2 / 3))
        assert coeffs[4] == pytest.approx(kt / 12 + config.sigma / 8)

    def test_p3_zero_kappa_pure_quartic(self):
        budget = InexactnessBudget(1e-2, (0.0, 0.0, 0.0))
        config = ModelConfig(p=3, sigma=2.0)
        coeffs = zeta_radial_coefficients(budget, config)
        assert set(coeffs) == {4}
        assert coeffs[4] == pytest.approx(0.25)  # sigma / 8

    def test_p2_coefficients(self):
        budget = InexactnessBudget(4e-2, (0.3, 0.7))
        config = ModelConfig(p=2, sigma=1.2)
        coeffs = zeta_radial_coefficients(budget, config)
        e = budget.eps
        assert coeffs[0] == pytest.approx(0.15 * e ** 1.5)
        assert coeffs[2] == pytest.approx((0.15 + 0.35 + 0.2) * math.sqrt(e))
        assert coeffs[4] == pytest.approx(1.2 / 6.0 / math.sqrt(e))

    def test_value_at_zero(self, logistic_setup):
        _, bundle, budget, config, _ = logistic_setup
        model = TaylorModel(bundle, budget, config)
        expected = bundle.value + 0.5 * budget.kappa(1) * budget.eps ** (4 / 3)
        assert model.zeta(np.zeros(6)) == pytest.approx(expected)

    def test_dominates_omega_pointwise(self, logistic_setup, rng):
        _, bundle, budget, config, _ = logistic_setup
        model = TaylorModel(bundle, budget, config)
        worst = 0.0
        for _ in range(2000):
            s = rng.standard_normal(6) * rng.uniform(0, 2)
            worst = min(worst, model.zeta(s) - omega(model, s))
        assert worst >= -1e-12

    def test_gap_at_zero_is_smoothing_constant(self, logistic_setup):
        _, bundle, budget, config, _ = logistic_setup
        model = TaylorModel(bundle, budget, config)
        gap = model.zeta(np.zeros(6)) - omega(model, np.zeros(6))
        assert gap == pytest.approx(0.5 * budget.kappa(1) * budget.eps ** (4 / 3))

    def test_grad_and_hess_match_finite_differences(self, logistic_setup, rng):
        _, bundle, budget, config, _ = logistic_setup
        model = TaylorModel(bundle, budget, config)
        for _ in range(5):
            s = rng.standard_normal(6)
            fd_g = central_diff_grad(model.zeta, s)
            assert np.linalg.norm(model.zeta_grad(s) - fd_g) \
                < 1e-6 * max(1.0, np.linalg.norm(fd_g))
            fd_h = symmetrized_fd_hessian(model.zeta_grad, s)
            assert np.abs(zeta_hess(model, s) - fd_h).max() < 1e-5

    def test_smooth_at_origin(self, logistic_setup):
        # unlike omega, zeta is differentiable everywhere including 0
        _, bundle, budget, config, _ = logistic_setup
        model = TaylorModel(bundle, budget, config)
        np.testing.assert_allclose(model.zeta_grad(np.zeros(6)), bundle.grad)

    def test_order_mismatch_rejected(self, logistic_setup):
        _, bundle, budget, config, _ = logistic_setup
        with pytest.raises(ValueError):
            TaylorModel(bundle, InexactnessBudget(1e-2, (0.1, 0.1)), config)


class TestZetaAndGrad:
    """The fused evaluation the inner loop takes in place of ``zeta`` plus ``zeta_grad``."""

    @pytest.fixture(params=[2, 3], ids=["p2", "p3"])
    def model(self, request, logistic_setup):
        prob, bundle, budget, config, profile = logistic_setup
        if request.param == 2:
            bundle = exact_bundle(prob, bundle.x, 2)
            budget = InexactnessBudget(budget.eps, budget.kappas[:2])
            config = ModelConfig(p=2, sigma=profile.lip(2))
        return TaylorModel(bundle, budget, config)

    @pytest.mark.parametrize("scale", [0.0, 0.3, 1.0, 3.0])
    def test_matches_zeta_and_zeta_grad(self, model, rng, scale):
        for _ in range(5):
            s = scale * rng.standard_normal(6)
            value, grad = model.zeta_and_grad(s)
            assert np.array_equal(grad, model.zeta_grad(s))
            assert value == pytest.approx(model.zeta(s), rel=1e-12, abs=0.0)

    def test_overflow_is_subsolver_error(self, model):
        with pytest.raises(SubsolverError):
            model.zeta_and_grad(np.full(6, 1e100))


class TestCoupling:
    def test_coupled_sigma_solves_identity(self):
        config = ModelConfig.coupled(2.0, 0.5, tau=4.0)
        assert coupling_residual(config, 2.0, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_coupled_sigma_exceeds_lipschitz(self):
        for tau in (2.5, 3.0, 4.0, 8.0):
            config = ModelConfig.coupled(1.3, 0.0, tau=tau)
            assert config.sigma > 1.3

    def test_tau_at_most_two_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig.coupled(1.0, 0.0, tau=2.0)


class TestResidualReports:
    def test_exact_quadratic_all_zero_residuals(self, rng):
        prob = make_quadratic(4, seed=24)
        x = rng.standard_normal(4)
        bundle = exact_bundle(prob, x, 2)
        profile = default_profile(prob, x)
        budget = InexactnessBudget(1e-2, (0.0, 0.0))
        rep = residual_bound_report(prob, bundle, budget, profile, rng.standard_normal(4))
        assert rep.value_lhs <= 1e-10 and rep.all_ok

    def test_exact_logistic_bounds_hold(self, logistic_setup, rng):
        prob, bundle, budget, _, profile = logistic_setup
        for _ in range(50):
            s = rng.standard_normal(6) * rng.uniform(0.05, 1.0)
            rep = residual_bound_report(prob, bundle, budget, profile, s)
            assert rep.all_ok

    def test_perturbed_bundle_bounds_hold(self, logistic_setup, rng):
        from tensorstep import DerivativeBundle

        prob, bundle, budget, _, profile = logistic_setup
        noisy = DerivativeBundle(
            x=bundle.x, value=bundle.value,
            grad=bundle.grad + 1e-3 * rng.standard_normal(6),
            hess=bundle.hess, third=bundle.third, p=3,
        )
        for _ in range(20):
            s = rng.standard_normal(6) * 0.5
            rep = residual_bound_report(prob, noisy, budget, profile, s)
            assert rep.all_ok

    def test_sandwich_quadratic_tight(self, rng):
        prob = make_quadratic(4, seed=25)
        x = rng.standard_normal(4)
        bundle = exact_bundle(prob, x, 2)
        profile = default_profile(prob, x)
        budget = InexactnessBudget(1e-2, (0.0, 0.0))
        config = ModelConfig(p=2, sigma=max(profile.lip(2), 1e-8))
        rep = hessian_sandwich_report(prob, bundle, budget, config,
                                      rng.standard_normal(4), profile)
        assert rep.ok

    def test_sandwich_logistic_random_displacements(self, logistic_setup, rng):
        prob, bundle, budget, config, profile = logistic_setup
        for _ in range(20):
            s = rng.standard_normal(6) * rng.uniform(0.1, 1.0)
            rep = hessian_sandwich_report(prob, bundle, budget, config, s, profile)
            assert rep.ok
