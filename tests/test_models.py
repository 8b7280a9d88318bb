import math

import numpy as np
import pytest

from tensorstep import (
    EXACT,
    BatchPlan,
    InexactnessBudget,
    ModelConfig,
    TaylorModel,
    make_logistic,
    make_quadratic,
    sample_bundle,
)
from tensorstep.linalg import ROW_BLOCK
from tensorstep.methods import default_profile, exact_bundle
from tensorstep.models import zeta_radial_coefficients
from tensorstep.subsolvers import EigenbasisZeta

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
                            ModelConfig(sigma=1e-8))
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
        config = ModelConfig(sigma=0.7)
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
        z0, z2, z4 = zeta_radial_coefficients(budget, config)
        assert z0 == pytest.approx(0.5 * kg * eps ** (4 / 3))
        assert z2 == pytest.approx((kg / 2 + kb / 2 + kt / 12) * eps ** (2 / 3))
        assert z4 == pytest.approx(kt / 12 + config.sigma / 8)

    def test_p3_zero_kappa_pure_quartic(self):
        budget = InexactnessBudget(1e-2, (0.0, 0.0, 0.0))
        config = ModelConfig(sigma=2.0)
        z0, z2, z4 = zeta_radial_coefficients(budget, config)
        assert (z0, z2) == (0.0, 0.0)
        assert z4 == pytest.approx(0.25)  # sigma / 8

    def test_p2_coefficients(self):
        budget = InexactnessBudget(4e-2, (0.3, 0.7))
        config = ModelConfig(sigma=1.2)
        z0, z2, z4 = zeta_radial_coefficients(budget, config)
        e = budget.eps
        assert z0 == pytest.approx(0.15 * e ** 1.5)
        assert z2 == pytest.approx((0.15 + 0.35 + 0.2) * math.sqrt(e))
        assert z4 == pytest.approx(1.2 / 6.0 / math.sqrt(e))

    def test_order_four_rejected(self):
        # only p = 2 and p = 3 have just the powers 0, 2 and 4
        budget = InexactnessBudget(1e-2, (0.1, 0.1, 0.1, 0.1))
        with pytest.raises(ValueError, match="p = 2 or 3"):
            zeta_radial_coefficients(budget, ModelConfig(sigma=1.0))

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
    """The eigenbasis evaluation the inner loop takes in place of ``zeta`` plus ``zeta_grad``."""

    @pytest.fixture(params=[3], ids=["p3"])
    def model(self, request, logistic_setup):
        _, bundle, budget, config, _ = logistic_setup
        assert bundle.p == request.param
        return TaylorModel(bundle, budget, config)

    @pytest.mark.parametrize("scale", [0.0, 0.3, 1.0, 3.0])
    def test_matches_zeta_and_zeta_grad(self, model, rng, scale):
        assert_matches_direct_model(EigenbasisZeta(model.bundle, model.budget, model.config),
                                    model, rng, scale)

    @pytest.mark.parametrize("scale", [0.0, 0.3, 1.0, 3.0])
    def test_stale_basis_matches_zeta_and_zeta_grad(self, model, logistic, rng, scale):
        # the eigenbasis of the Hessian at another point
        basis = np.linalg.eigh(exact_bundle(logistic, rng.standard_normal(6), 3).hess)
        assert_matches_direct_model(EigenbasisZeta(model.bundle, model.budget, model.config,
                                                   basis), model, rng, scale)


def assert_matches_direct_model(zeta, model, rng, scale):
    """``zeta.change_and_grad`` against ``TaylorModel`` at five random ``h = vecs y``."""
    for _ in range(5):
        y = scale * rng.standard_normal(6)
        h = zeta.vecs @ y
        change, grad = zeta.change_and_grad(y, h)
        assert zeta.value0 + change == pytest.approx(model.zeta(h), rel=1e-12, abs=0.0)
        # the two evaluations round differently, each to about ||grad zeta||
        direct = model.zeta_grad(h)
        tol = 1e-14 * max(1.0, float(np.linalg.norm(direct)))
        assert np.linalg.norm(zeta.vecs @ grad - direct) <= tol


def assert_taylor_terms(bundle, h):
    """``bundle.taylor_terms(h)`` against the dense ``hess @ h`` and the
    contractions of ``third``, each to 1e-12 relative: the rows ``B h`` and
    ``T[h]^2``, and from them ``B h + T[h]^2 / 2``, ``<B h, h>`` and ``T[h]^3``."""
    bh, t2 = bundle.hess @ h, bundle.third.apply2(h)
    got = bundle.taylor_terms(h)
    assert got.shape == (2, h.size)
    for row, want in zip(got, (bh, t2, bh + 0.5 * t2)):
        assert np.linalg.norm(row - want) <= 1e-12 * np.linalg.norm(want)
    want = bh + 0.5 * t2
    assert np.linalg.norm(got[0] + 0.5 * got[1] - want) <= 1e-12 * np.linalg.norm(want)
    assert float(got[0] @ h) == pytest.approx(float(h @ bh), rel=1e-12, abs=0.0)
    assert float(got[1] @ h) == pytest.approx(bundle.third.apply3(h), rel=1e-12, abs=0.0)


class TestTaylorTerms:
    """``DerivativeBundle.taylor_terms``: the rows ``B h`` and ``T[h]^2``, the
    one product the inner loop takes on a stale eigenbasis."""

    def test_exact_logistic_builds_no_hessian(self, monkeypatch, rng):
        # more rows than one slice, so the fused pass sums several slices
        problem = make_logistic(n=6, m=ROW_BLOCK + 500, seed=3, mu=1e-2)
        builds = []
        hessian = problem.hessian
        monkeypatch.setattr(problem, "hessian", lambda x: builds.append(1) or hessian(x))
        bundle = exact_bundle(problem, 0.5 * rng.standard_normal(6), 3)
        directions = [rng.standard_normal(6) * scale for scale in (1e-3, 1.0, 30.0)]
        for h in directions:
            bundle.taylor_terms(h)
        assert builds == []
        for h in directions:
            assert_taylor_terms(bundle, h)
        assert builds == [1]

    @pytest.mark.parametrize("kind", ["sampled", "quadratic", "arrays"])
    def test_dense_path(self, logistic_setup, rng, kind):
        prob, bundle, _, _, _ = logistic_setup
        if kind == "sampled":
            bundle = sample_bundle(prob, bundle.x, BatchPlan((30, 20, 10)), rng)
        elif kind == "quadratic":
            bundle = exact_bundle(make_quadratic(6, seed=5), bundle.x, 3)
        else:
            bundle = type(bundle)(x=bundle.x, value=bundle.value, grad=bundle.grad,
                                  hess=bundle.hess, third=bundle.third)
        for scale in (1e-3, 1.0, 30.0):
            assert_taylor_terms(bundle, scale * rng.standard_normal(6))

    def test_full_batch_is_bitwise_the_exact_terms(self, logistic_setup, rng):
        prob, bundle, _, _, _ = logistic_setup
        full = sample_bundle(prob, bundle.x, BatchPlan((EXACT, prob.m, prob.m)), rng)
        h = rng.standard_normal(6)
        assert np.array_equal(full.taylor_terms(h), bundle.taylor_terms(h))


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

    def test_config_rejects_tau_at_most_two(self):
        with pytest.raises(ValueError, match="tau > 2"):
            ModelConfig(sigma=1.0, tau=2.0)

    @pytest.mark.parametrize("make, field", [
        (lambda v: InexactnessBudget(v, (0.0, 0.0)), "eps"),
        (lambda v: InexactnessBudget(1e-2, (v, 0.0)), "kappas"),
        (lambda v: ModelConfig(sigma=v), "sigma"),
        (lambda v: ModelConfig(sigma=1.0, tau=v), "tau"),
    ], ids=["eps", "kappas", "sigma", "tau"])
    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_input_is_rejected(self, make, field, value):
        # NaN passes every bound check, and inf every lower bound
        with pytest.raises(ValueError, match=field):
            make(value)


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
            hess=bundle.hess, third=bundle.third,
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
        config = ModelConfig(sigma=max(profile.lip(2), 1e-8))
        rep = hessian_sandwich_report(prob, bundle, budget, config,
                                      rng.standard_normal(4), profile)
        assert rep.ok

    def test_sandwich_logistic_random_displacements(self, logistic_setup, rng):
        prob, bundle, budget, config, profile = logistic_setup
        for _ in range(20):
            s = rng.standard_normal(6) * rng.uniform(0.1, 1.0)
            rep = hessian_sandwich_report(prob, bundle, budget, config, s, profile)
            assert rep.ok
