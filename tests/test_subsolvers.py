import numpy as np
import pytest

from tensorstep import (
    InexactnessBudget,
    ModelConfig,
    RegularizedQuartic,
    SubsolverError,
    TaylorModel,
    bregman_minimize_zeta,
    make_logistic,
    make_quadratic,
    relative_smoothness_constant,
    solve_model_p2,
    solve_regularized_quartic,
)
from tensorstep.methods import default_profile, exact_bundle
from tensorstep import subsolvers
from tensorstep.subsolvers import SECULAR_TOL, _secular_root, rho_reference_coefficients

from lemmas import generic_model_minimize, rho_hessian, zeta_hess


def quartic_values(q: RegularizedQuartic, z):
    """The quartic's value at every point along the last axis of ``z``."""
    r2 = np.einsum("...i,...i->...", z, z)
    return z @ q.c + 0.5 * q.beta * np.einsum("...i,...i->...", z, z @ q.B.T) \
        + 0.5 * q.a * r2 + 0.25 * q.b * r2 * r2


#: Halving factors 2^-j of one backtracking search. A step never exceeds 1e3
#: and is not tried at or below 1e-16, so 64 halvings cover every search.
HALVINGS = 0.5 ** np.arange(64)


def descend(q: RegularizedQuartic, starts, iters):
    """Backtracking gradient descent from every row of ``starts`` at once.

    Each row runs its own descent: step 0.25, doubled (up to 1e3) after an
    accepted Armijo step and halved after a rejected one; a row stops at a
    gradient norm below 1e-12, or when no step above 1e-16 is accepted. All
    halvings of one search are tried together and the first accepted is
    taken, which is the step a one-at-a-time search would accept.
    """
    z = np.array(starts, dtype=float)
    step = np.full(len(z), 0.25)
    running = np.ones(len(z), dtype=bool)
    for _ in range(iters):
        r2 = np.einsum("ij,ij->i", z, z)
        g = q.c + q.beta * (z @ q.B.T) + (q.a + q.b * r2)[:, None] * z
        gn2 = np.einsum("ij,ij->i", g, g)
        running &= np.sqrt(gn2) >= 1e-12
        rows = np.flatnonzero(running)
        if rows.size == 0:
            break
        trials = step[rows, None] * HALVINGS
        cand = z[rows, None, :] - trials[..., None] * g[rows, None, :]
        margin = quartic_values(q, z[rows])[:, None] - 1e-4 * trials * gn2[rows, None]
        ok = (quartic_values(q, cand) < margin) & (trials > 1e-16)
        first = ok.argmax(axis=1)
        moved = ok[np.arange(rows.size), first]
        z[rows[moved]] = cand[moved, first[moved]]
        step[rows[moved]] = np.minimum(trials[moved, first[moved]] * 2, 1e3)
        running[rows[~moved]] = False
    return z


def brute_force_minimum(q: RegularizedQuartic, rng, starts=60, iters=600):
    """Multi-start backtracking descent plus a radial grid refinement."""
    n = q.c.size
    points = [np.zeros(n)]
    for _ in range(starts):
        points.append(rng.standard_normal(n) * rng.uniform(0.1, 3.0))
    found = descend(q, points, iters)
    # the first row that attains the minimum, as a sequential strict-< scan picks
    best = found[np.argmin(quartic_values(q, found))]
    # radial refinement around the best direction found
    direction = best / max(np.linalg.norm(best), 1e-12)
    radii = np.linspace(0.2, 3.0, 57) * max(np.linalg.norm(best), 1e-6)
    found = np.vstack([best, descend(q, radii[:, None] * direction, iters)])
    return found[np.argmin(quartic_values(q, found))]


class TestRegularizedQuartic:
    def test_pure_linear_quadratic_case(self):
        q = RegularizedQuartic(c=-np.eye(3)[0], B=np.eye(3), beta=1.0, a=1.0, b=0.0)
        np.testing.assert_allclose(solve_regularized_quartic(q), [0.5, 0.0, 0.0])

    def test_zero_linear_term_convex(self, rng):
        b_mat = rng.standard_normal((4, 4))
        b_mat = b_mat @ b_mat.T
        q = RegularizedQuartic(c=np.zeros(4), B=b_mat, beta=1.0, a=0.5, b=1.0)
        np.testing.assert_allclose(solve_regularized_quartic(q), np.zeros(4), atol=1e-12)

    def test_stationarity_residual_contract(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 7))
            m = rng.standard_normal((n, n))
            q = RegularizedQuartic(
                c=rng.standard_normal(n) * rng.uniform(0.1, 10),
                B=0.5 * (m + m.T),
                beta=float(rng.uniform(0.2, 3.0)),
                a=float(rng.uniform(0, 2.0)),
                b=float(rng.uniform(0.05, 5.0)),
            )
            h = solve_regularized_quartic(q)
            res = np.linalg.norm(q.grad(h))
            assert res <= 1e-10 * max(1.0, np.linalg.norm(q.c))

    def test_matches_brute_force_on_random_instances(self, rng):
        for trial in range(100):
            n = int(rng.integers(2, 6))
            m = rng.standard_normal((n, n))
            q = RegularizedQuartic(
                c=rng.standard_normal(n),
                B=0.5 * (m + m.T),
                beta=float(rng.uniform(0.3, 2.0)),
                a=float(rng.uniform(0.0, 1.0)),
                b=float(rng.uniform(0.1, 3.0)),
            )
            h = solve_regularized_quartic(q)
            ref = brute_force_minimum(q, rng, starts=25, iters=300)
            assert quartic_values(q, h) <= quartic_values(q, ref) + 1e-6

    def test_hard_case_boundary_solution(self):
        # c orthogonal to the bottom eigenspace of an indefinite curvature
        B = np.diag([-2.0, 1.0, 3.0])
        c = np.array([0.0, 0.3, 0.1])
        q = RegularizedQuartic(c=c, B=B, beta=1.0, a=0.0, b=0.5)
        h = solve_regularized_quartic(q)
        assert np.linalg.norm(q.grad(h)) <= 1e-10 * max(1.0, np.linalg.norm(c))
        # the quartic multiplier is pinned: b ||h||^2 = -lambda_min
        assert q.b * float(h @ h) == pytest.approx(2.0, rel=1e-8)
        rng = np.random.default_rng(5)
        ref = brute_force_minimum(q, rng)
        assert quartic_values(q, h) <= quartic_values(q, ref) + 1e-8

    def test_invalid_weights_rejected(self):
        with pytest.raises(ValueError):
            RegularizedQuartic(c=np.zeros(2), B=np.eye(2), a=0.0, b=0.0)
        with pytest.raises(ValueError):
            RegularizedQuartic(c=np.zeros(2), B=np.eye(2), a=-1.0, b=1.0)

    def test_b_zero_needs_positive_definite(self):
        q = RegularizedQuartic(c=np.ones(2), B=np.diag([-1.0, 1.0]), beta=1.0,
                               a=0.5, b=0.0)
        with pytest.raises(SubsolverError):
            solve_regularized_quartic(q)


@pytest.fixture(scope="module")
def p3_setup():
    prob = make_logistic(n=7, m=60, seed=31, mu=1e-2)
    rng = np.random.default_rng(123)
    x = 0.5 * rng.standard_normal(7)
    bundle = exact_bundle(prob, x, 3)
    profile = default_profile(prob, x)
    budget = InexactnessBudget(1e-2, (0.3, 0.6, 1.0))
    config = ModelConfig.coupled(profile.lip(3), budget.kappa(3), tau=4.0)
    return prob, bundle, budget, config, profile


class TestBregman:
    def test_quadratic_matches_single_quartic_solve(self, rng):
        prob = make_quadratic(5, seed=32)
        x = rng.standard_normal(5)
        bundle = exact_bundle(prob, x, 3)
        profile = default_profile(prob, x)
        budget = InexactnessBudget(1e-3, (0.0, 0.0, 0.0))
        config = ModelConfig.coupled(profile.lip(3), 0.0, tau=4.0)
        h, _ = bregman_minimize_zeta(bundle, budget, config)
        direct = solve_regularized_quartic(RegularizedQuartic(
            c=bundle.grad, B=bundle.hess, beta=1.0, a=0.0, b=config.sigma / 2.0))
        assert np.linalg.norm(h - direct) <= 1e-8

    def test_stationary_start_returns_zero(self, p3_setup):
        prob, bundle, budget, config, _ = p3_setup
        from tensorstep import DerivativeBundle
        flat = DerivativeBundle(x=bundle.x, value=bundle.value,
                                grad=np.zeros(7), hess=bundle.hess,
                                third=bundle.third, p=3)
        h, stats = bregman_minimize_zeta(flat, budget, config)
        assert np.all(h == 0) and stats.iterations == 0

    def test_reaches_tight_gradient_norm_monotonically(self, p3_setup):
        _, bundle, budget, config, _ = p3_setup
        h, stats = bregman_minimize_zeta(bundle, budget, config)
        assert stats.grad_norms[-1] <= 1e-9
        assert stats.iterations <= 200
        vals = stats.zeta_values
        assert all(b <= a + 1e-15 * max(1.0, abs(a)) for a, b in zip(vals, vals[1:]))

    def test_geometric_decay_recorded(self, p3_setup):
        # contraction observed (recorded, not asserted against a constant)
        _, bundle, budget, config, _ = p3_setup
        _, stats = bregman_minimize_zeta(bundle, budget, config)
        vals = np.array(stats.zeta_values)
        gaps = vals - vals[-1]
        gaps = gaps[gaps > 1e-13]
        ratios = gaps[1:] / gaps[:-1]
        assert np.median(ratios) < 1.0

    def test_one_contraction_per_step(self, p3_setup, monkeypatch):
        _, bundle, budget, config, _ = p3_setup
        calls = {"apply2": 0, "apply3": 0}

        def counting(name):
            original = getattr(bundle.third, name)

            def counted(s):
                calls[name] += 1
                return original(s)
            return counted

        for name in calls:
            monkeypatch.setattr(bundle.third, name, counting(name))
        _, stats = bregman_minimize_zeta(bundle, budget, config)
        assert stats.iterations > 0
        assert calls == {"apply2": stats.iterations + 1, "apply3": 0}

    def test_iteration_cap_carries_best_iterate(self, p3_setup):
        _, bundle, budget, config, _ = p3_setup
        with pytest.raises(SubsolverError) as err:
            bregman_minimize_zeta(bundle, budget, config, max_inner=3)
        assert err.value.best is not None
        assert err.value.residual > 0

    def test_relative_smoothness_sandwich(self, p3_setup, rng):
        _, bundle, budget, config, _ = p3_setup
        model = TaylorModel(bundle, budget, config)
        ktau = relative_smoothness_constant(config.tau)
        for _ in range(200):
            h = rng.standard_normal(7) * rng.uniform(0, 2)
            hz = zeta_hess(model, h)
            hr = rho_hessian(h, bundle.hess, budget, config)
            assert np.linalg.eigvalsh(hz - hr).min() >= -1e-8
            assert np.linalg.eigvalsh(ktau * hr - hz).min() >= -1e-8

    def test_reference_coefficients_positive(self, p3_setup):
        _, _, budget, config, _ = p3_setup
        beta_b, a_coef, Q = rho_reference_coefficients(budget, config)
        assert 0 < beta_b < 1 and a_coef >= 0 and Q > 0

    def test_wrong_order_rejected(self, rng):
        prob = make_quadratic(3, seed=33)
        bundle = exact_bundle(prob, np.zeros(3), 2)
        with pytest.raises(ValueError):
            bregman_minimize_zeta(bundle, InexactnessBudget(1e-2, (0.0, 0.0)),
                                  ModelConfig(p=2, sigma=1.0))


def bisected_root(lam, c2, b, steps=300):
    """Root of ``chi`` above the pole by plain bisection, the reference."""
    lam, c2 = np.asarray(lam, float), np.asarray(c2, float)

    def chi(mu):
        d = lam + mu
        return b * float(np.sum(c2 / (d * d))) - mu

    lo = max(0.0, -float(lam.min()))
    hi = 1.0 + lo
    while chi(hi) > 0.0:
        hi *= 2.0
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if chi(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class RecordingShifts(np.ndarray):
    """``lam`` that records every scalar ``mu`` of ``lam + mu``: the points
    at which ``_secular_root`` evaluates chi."""

    shifts = None

    def __add__(self, other):
        if RecordingShifts.shifts is not None and np.isscalar(other):
            RecordingShifts.shifts.append(float(other))
        return np.asarray(self) + other


def secular_instances(seed=40, count=40):
    """Seeded ``(lam, c2, b)``: half shifted below zero, so ``mu_lo > 0``."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        n = int(rng.integers(1, 30))
        lam = rng.uniform(0.0, 5.0, n) * 10.0 ** rng.uniform(-3, 2)
        if k % 2:
            lam -= lam.max() * rng.uniform(0.1, 0.9) + 1e-3
        c2 = rng.uniform(0.0, 1.0, n) ** 2 * 10.0 ** rng.uniform(-4, 2)
        yield lam, c2, 10.0 ** rng.uniform(-2, 2)


class TestSecularRoot:
    def test_matches_bisection(self):
        for lam, c2, b in secular_instances():
            mu = _secular_root(lam, c2, b)
            ref = bisected_root(lam, c2, b)
            assert abs(mu - ref) <= 1e-13 * ref

    def test_near_pole(self):
        # the bottom eigendirection carries a 1e-12 weight: the root sits
        # 1.5e-6 above the pole mu_lo = 1
        lam, c2 = np.array([-1.0, 0.5, 2.0]), np.array([1e-12, 1.0, 1.0])
        mu = _secular_root(lam, c2, 1.0)
        assert 0.0 < mu - 1.0 < 1e-5
        assert abs(mu - bisected_root(lam, c2, 1.0)) <= 1e-13 * mu

    def test_converged_newton_step_is_returned(self):
        # Newton from the cold midpoint lands exactly on the root at its 8th
        # chi evaluation; the iteration must stop there, not bisect onwards
        lam = np.array([-0.5, 1.0, 2.0]).view(RecordingShifts)
        c2, b = np.array([1e-3, 1.0, 1.0]), 2.0
        RecordingShifts.shifts = []
        try:
            mu = _secular_root(lam, c2, b)
            shifts = RecordingShifts.shifts
        finally:
            RecordingShifts.shifts = None
        assert abs(mu - bisected_root(np.asarray(lam), c2, b)) <= 1e-13 * mu
        assert shifts.index(mu) == len(shifts) - 1
        assert len(shifts) == 8

    def test_unusable_guess_gives_the_cold_root(self):
        for lam, c2, b in secular_instances(seed=41, count=10):
            cold = _secular_root(lam, c2, b)
            mu_lo = max(0.0, -float(lam.min()))
            for mu0 in (mu_lo, mu_lo - 1.0, 1e6 * (cold + 1.0), np.inf, np.nan):
                assert _secular_root(lam, c2, b, mu0) == cold

    def test_nan_data_raises(self):
        with pytest.raises(SubsolverError):
            _secular_root(np.array([1.0, 2.0]), np.array([1.0, np.nan]), 1.0)

    def test_warm_root_agrees_with_cold_at_every_inner_step(self, p3_setup, monkeypatch):
        _, bundle, budget, config, _ = p3_setup
        pairs = []
        evaluations = {"warm": 0, "cold": 0}

        def counted(kind, lam, c2, b, mu0=None):
            RecordingShifts.shifts = []
            try:
                return _secular_root(lam.view(RecordingShifts), c2, b, mu0)
            finally:
                evaluations[kind] += len(RecordingShifts.shifts)
                RecordingShifts.shifts = None

        def both(lam, c2, b, mu0=None):
            warm = counted("warm", lam, c2, b, mu0)
            pairs.append((warm, counted("cold", lam, c2, b), mu0))
            return warm

        monkeypatch.setattr(subsolvers, "_secular_root", both)
        _, stats = bregman_minimize_zeta(bundle, budget, config)
        assert len(pairs) == stats.iterations > 1
        assert pairs[0][2] is None and all(mu0 is not None for _, _, mu0 in pairs[1:])
        for warm, cold, _ in pairs:
            assert abs(warm - cold) <= 1e-12 * cold
        assert evaluations["warm"] < evaluations["cold"]

    def test_warm_start_keeps_the_inner_iterations(self, p3_setup, monkeypatch):
        _, bundle, budget, config, _ = p3_setup
        h_warm, warm = bregman_minimize_zeta(bundle, budget, config)
        monkeypatch.setattr(subsolvers, "_secular_root",
                            lambda lam, c2, b, mu0=None: _secular_root(lam, c2, b))
        h_cold, cold = bregman_minimize_zeta(bundle, budget, config)
        assert warm.iterations == cold.iterations
        assert np.linalg.norm(h_warm - h_cold) <= 1e-12 * np.linalg.norm(h_cold)


class TestSolveModelP2:
    def test_newton_limit_for_tiny_sigma(self, rng):
        prob = make_quadratic(5, seed=34)
        x = rng.standard_normal(5)
        bundle = exact_bundle(prob, x, 2)
        budget = InexactnessBudget(1.0, (0.0, 0.0))
        config = ModelConfig(p=2, sigma=1e-10)
        step = solve_model_p2(bundle, budget, config)
        newton = -np.linalg.solve(bundle.hess, bundle.grad)
        assert np.linalg.norm(step - newton) <= 1e-6

    def test_zero_gradient_zero_step(self, rng):
        prob = make_quadratic(4, seed=35)
        x_star = np.linalg.solve(prob.A, prob.b)
        bundle = exact_bundle(prob, x_star, 2)
        budget = InexactnessBudget(1e-2, (0.1, 0.1))
        step = solve_model_p2(bundle, budget, ModelConfig(p=2, sigma=0.5))
        assert np.linalg.norm(step) <= 1e-10

    def test_gradient_residual_of_smooth_model(self, rng):
        prob = make_logistic(n=5, m=40, seed=36, mu=1e-2)
        for trial in range(10):
            x = rng.standard_normal(5)
            bundle = exact_bundle(prob, x, 2)
            profile = default_profile(prob, x)
            budget = InexactnessBudget(10 ** rng.uniform(-4, -1), (0.2, 0.4))
            config = ModelConfig(p=2, sigma=profile.lip(2))
            step = solve_model_p2(bundle, budget, config)
            model = TaylorModel(bundle, budget, config)
            assert np.linalg.norm(model.zeta_grad(step)) <= 1e-10 * max(
                1.0, np.linalg.norm(bundle.grad))


class TestGenericFallback:
    def test_agrees_with_p2_solver(self, rng):
        prob = make_logistic(n=4, m=30, seed=37, mu=1e-2)
        for _ in range(50):
            x = rng.standard_normal(4)
            bundle = exact_bundle(prob, x, 2)
            profile = default_profile(prob, x)
            budget = InexactnessBudget(1e-2, (0.2, 0.4))
            config = ModelConfig(p=2, sigma=profile.lip(2))
            model = TaylorModel(bundle, budget, config)
            exact = solve_model_p2(bundle, budget, config)
            approx = generic_model_minimize(bundle, budget, config, grad_tol=1e-7)
            assert abs(model.zeta(approx) - model.zeta(exact)) <= 1e-5

    def test_agrees_with_bregman(self, p3_setup, rng):
        prob, _, budget, config, _ = p3_setup
        for _ in range(50):
            x = 0.5 * rng.standard_normal(7)
            bundle = exact_bundle(prob, x, 3)
            model = TaylorModel(bundle, budget, config)
            h_breg, _ = bregman_minimize_zeta(bundle, budget, config)
            h_desc = generic_model_minimize(bundle, budget, config, grad_tol=1e-7)
            assert abs(model.zeta(h_breg) - model.zeta(h_desc)) <= 1e-5

    def test_newton_like_point_on_quadratic(self, rng):
        prob = make_quadratic(4, seed=38)
        x = rng.standard_normal(4)
        bundle = exact_bundle(prob, x, 2)
        budget = InexactnessBudget(1.0, (0.0, 0.0))
        config = ModelConfig(p=2, sigma=1e-12)
        h = generic_model_minimize(bundle, budget, config, grad_tol=1e-8)
        newton = -np.linalg.solve(bundle.hess, bundle.grad)
        assert np.linalg.norm(h - newton) <= 1e-6
