import collections
import math
import re
import warnings
from dataclasses import dataclass

import numpy as np
import pytest

from tensorstep import (
    BatchPlan,
    DerivativeBundle,
    InexactnessBudget,
    ModelConfig,
    RankOneSumTensor3,
    SubsolverError,
    TaylorModel,
    bregman_minimize_zeta,
    make_logistic,
    make_quadratic,
    relative_smoothness_constant,
    sample_bundle,
    solve_model_p2,
    solve_regularized_quartic,
    zeta_radial_coefficients,
)
from tensorstep.methods import default_profile, exact_bundle
from tensorstep import subsolvers
from tensorstep.subsolvers import (
    SECULAR_TOL,
    EigenbasisZeta,
    _quartic_line_minimizer,
    _secular_root,
    rho_reference_coefficients,
)

from lemmas import generic_model_minimize, rho_bregman, rho_hessian, zeta_hess


@dataclass(frozen=True)
class Quartic:
    """Dense data of ``<c,h> + <B h,h>/2 + a/2 ||h||^2 + b/4 ||h||^4``."""

    c: np.ndarray
    B: np.ndarray
    a: float
    b: float

    def grad(self, h):
        return self.c + self.B @ h + (self.a + self.b * float(h @ h)) * h

    def solve(self):
        """The global minimizer through ``solve_regularized_quartic``: factor
        ``B``, solve in its eigenbasis and map the coefficients back."""
        lam, vecs = np.linalg.eigh(0.5 * (self.B + self.B.T))
        y, _ = solve_regularized_quartic(vecs.T @ self.c, lam + self.a, self.b)
        return vecs @ y


def quartic_values(q: Quartic, z):
    """The quartic's value at every point along the last axis of ``z``."""
    r2 = np.einsum("...i,...i->...", z, z)
    return z @ q.c + 0.5 * np.einsum("...i,...i->...", z, z @ q.B.T) \
        + 0.5 * q.a * r2 + 0.25 * q.b * r2 * r2


#: Halving factors 2^-j of one backtracking search. A step never exceeds 1e3
#: and is not tried at or below 1e-16, so 64 halvings cover every search.
HALVINGS = 0.5 ** np.arange(64)


def descend(q: Quartic, starts, iters):
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
        g = q.c + z @ q.B.T + (q.a + q.b * r2)[:, None] * z
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


def brute_force_minimum(q: Quartic, rng, starts=60, iters=600):
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


def newton_minimizer(q: Quartic, start, steps=40):
    """Newton's method on ``grad q`` from ``start``: the minimizer of its well."""
    h = np.array(start, dtype=float)
    for _ in range(steps):
        hess = q.B + (q.a + q.b * float(h @ h)) * np.eye(h.size) + 2.0 * q.b * np.outer(h, h)
        h = h - np.linalg.solve(hess, q.grad(h))
    return h


class TestRegularizedQuartic:
    def test_zero_linear_term_convex(self, rng):
        b_mat = rng.standard_normal((4, 4))
        b_mat = b_mat @ b_mat.T
        q = Quartic(c=np.zeros(4), B=b_mat, a=0.5, b=1.0)
        np.testing.assert_allclose(q.solve(), np.zeros(4), atol=1e-12)

    def test_stationarity_residual_contract(self, rng):
        # solve_model_p2's postcondition, on random order-2 bundles whose
        # Hessian may be indefinite
        for _ in range(50):
            n = int(rng.integers(2, 7))
            m = rng.standard_normal((n, n))
            grad = rng.standard_normal(n) * rng.uniform(0.1, 10)
            bundle = DerivativeBundle(x=np.zeros(n), value=0.0, grad=grad,
                                      hess=float(rng.uniform(0.2, 3.0)) * 0.5 * (m + m.T),
                                      third=None)
            budget = InexactnessBudget(10 ** rng.uniform(-3, 0), tuple(rng.uniform(0, 1, 2)))
            config = ModelConfig(sigma=float(rng.uniform(0.05, 5.0)))
            h = solve_model_p2(bundle, budget, config)
            _, z2, z4 = zeta_radial_coefficients(budget, config)
            res = np.linalg.norm(grad + bundle.hess @ h + (2 * z2 + 4 * z4 * float(h @ h)) * h)
            assert res <= 1e-10 * max(1.0, np.linalg.norm(grad))

    def test_matches_brute_force_on_random_instances(self, rng):
        for trial in range(100):
            n = int(rng.integers(2, 6))
            m = rng.standard_normal((n, n))
            q = Quartic(
                c=rng.standard_normal(n),
                B=float(rng.uniform(0.3, 2.0)) * 0.5 * (m + m.T),
                a=float(rng.uniform(0.0, 1.0)),
                b=float(rng.uniform(0.1, 3.0)),
            )
            h = q.solve()
            ref = brute_force_minimum(q, rng, starts=25, iters=300)
            assert quartic_values(q, h) <= quartic_values(q, ref) + 1e-6

    def test_hard_case_boundary_solution(self):
        # c orthogonal to the bottom eigenspace of an indefinite curvature
        B = np.diag([-2.0, 1.0, 3.0])
        c = np.array([0.0, 0.3, 0.1])
        q = Quartic(c=c, B=B, a=0.0, b=0.5)
        h = q.solve()
        assert np.linalg.norm(q.grad(h)) <= 1e-10 * max(1.0, np.linalg.norm(c))
        # the quartic multiplier is pinned: b ||h||^2 = -lambda_min
        assert q.b * float(h @ h) == pytest.approx(2.0, rel=1e-8)
        rng = np.random.default_rng(5)
        ref = brute_force_minimum(q, rng)
        assert quartic_values(q, h) <= quartic_values(q, ref) + 1e-8

    @pytest.mark.parametrize("lam, c, rotate", [
        ([-1.0, 1.0], [1e-3, 0.3], False),
        ([-1.0, 1.0], [1e-6, 0.3], False),
        ([-1.0, 1.0], [1e-10, 0.3], False),
        ([-1.0, 1.0], [2.2e-13, 0.3], False),
        ([-1.0, 1.0], [2.2e-13, 0.0], False),
        ([-1.0, 1.0, 2.0, 3.0], [1e-10, 0.3, 0.2, -0.1], True),
    ], ids=["1e-3", "1e-6", "1e-10", "2.2e-13", "2.2e-13-axis", "rotated"])
    def test_root_just_above_the_pole(self, lam, c, rotate):
        # the bottom direction carries a small weight, so the secular root lies
        # between 7e-15 and 1e-4 above the pole mu_lo = 1
        q = Quartic(c=np.array(c), B=np.diag(lam), a=0.0, b=1e-3)
        # Newton on grad q from the well of the global minimizer, h_0 < 0
        start = np.zeros(len(lam))
        start[0] = -math.sqrt(1.0 / q.b)
        ref = newton_minimizer(q, start)
        if rotate:
            rot, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((len(lam),) * 2))
            q = Quartic(c=rot @ q.c, B=rot @ q.B @ rot.T, a=q.a, b=q.b)
            ref = rot @ ref
        h = q.solve()
        assert np.linalg.norm(q.grad(h)) <= 1e-10 * max(1.0, np.linalg.norm(q.c))
        q_star = float(quartic_values(q, ref))
        assert quartic_values(q, h) <= q_star + 1e-9 * abs(q_star)
        if c[1] == 0.0:
            # closed form: h_1 = 0 and c_0 - h_0 + b h_0^3 = 0
            assert h[1] == 0.0
            assert abs(c[0] - h[0] + q.b * h[0] ** 3) <= 1e-12 * abs(h[0])

    @pytest.mark.parametrize("c0", [1e-60, 1e-120])
    def test_tiny_pole_weight(self, c0):
        # the root lies ~c0 above the pole mu_lo = 1: the pole weight bounds it
        # below, so the secular solve neither bisects down to it nor underflows
        q = Quartic(c=np.array([c0, 0.3]), B=np.diag([-1.0, 1.0]), a=0.0, b=1e-3)
        h = q.solve()
        ref = newton_minimizer(q, np.array([-math.sqrt(1.0 / q.b), 0.0]))
        np.testing.assert_allclose(h, ref, rtol=1e-12)

    @pytest.mark.parametrize("c", [[0.1, 0.2], [0.0, 0.2], [0.0, 0.0]])
    def test_singular_psd_curvature(self, c):
        # an exact zero eigenvalue and no quadratic weight put the pole at zero shift
        q = Quartic(c=np.array(c), B=np.diag([0.0, 1.0]), a=0.0, b=1.0)
        h = q.solve()
        # q is strictly convex, so Newton from -c finds its minimizer
        ref = newton_minimizer(q, -q.c) if any(c) else np.zeros(2)
        np.testing.assert_allclose(h, ref, rtol=1e-12, atol=1e-15)

    def test_invalid_weights_rejected(self):
        # a quadratic weight of either sign is a shift of lam; only b is checked,
        # a non-finite one before the secular root would search a bracket for it
        for b in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="quartic weight"):
                solve_regularized_quartic(np.zeros(2), np.ones(2), b)


@pytest.fixture
def tight_stop(monkeypatch):
    """The inner loop without its relative stop: every call runs to the
    absolute ``INNER_GRAD_TOL``, the tight solve that minimizers are compared at."""
    monkeypatch.setattr(subsolvers, "INNER_REL_TOL", 0.0)


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


@pytest.fixture(scope="module")
def minimizer(p3_setup):
    """The minimizer of ``p3_setup``'s objective, by 30 Newton steps from its point."""
    prob, bundle, _, _, _ = p3_setup
    x = bundle.x.copy()
    for _ in range(30):
        x -= np.linalg.solve(prob.hessian(x), prob.gradient(x))
    return x


@pytest.fixture(scope="module")
def next_step(p3_setup):
    """``(bundle, h_prev)``: the exact bundle one outer step on from ``p3_setup``
    and the step ``h_prev`` that led there, the next solve's warm start."""
    prob, bundle, budget, config, _ = p3_setup
    h_prev, _ = bregman_minimize_zeta(bundle, budget, config)
    return exact_bundle(prob, bundle.x + h_prev, 3), h_prev


def accepted_contractions(stats):
    """Indices, among a call's contractions in order, of its start and of each
    accepted step: the rejected trials of a step come before its accepted one."""
    rejected_at = collections.Counter(step for step, _ in stats.rejected)
    indices = [0]
    for step in range(stats.iterations):
        indices.append(indices[-1] + rejected_at[step] + 1)
    return indices


def recording_evaluations(monkeypatch):
    """``(h, zeta(h), ||grad zeta(h)||)`` of every evaluation of the inner loop
    from here on, in order, each value as the loop records it."""
    evaluations = []
    evaluate = EigenbasisZeta.change_and_grad

    def recorded(zeta, y, h, terms=None):
        change, g = evaluate(zeta, y, h, terms)
        evaluations.append((np.array(h), zeta.value0 + change, float(np.linalg.norm(g))))
        return change, g

    monkeypatch.setattr(EigenbasisZeta, "change_and_grad", recorded)
    return evaluations


def recording_descents(monkeypatch):
    """``(constant, result)`` of every ``_descends`` call from here on, in order."""
    results = []
    test = subsolvers._descends

    def recorded(*args):
        results.append((args[-1], test(*args)))
        return results[-1][1]

    monkeypatch.setattr(subsolvers, "_descends", recorded)
    return results


#: The model calls of ``call_inputs``: on the basis the call factors, on the
#: previous outer step's or on ``far_basis``; on an exact or an STM bundle;
#: cold, or warm from ``next_step``.
MODEL_CALLS = pytest.mark.parametrize("basis, sampled, warm", [
    ("own", False, False), ("own", True, False), ("own", False, True),
    ("own", True, True), ("previous", False, True), ("previous", True, True),
    ("far", False, False), ("far", True, False)],
    ids=["exact", "sampled", "exact-warm", "sampled-warm", "previous-exact",
         "previous-sampled", "far-exact", "far-sampled"])


def call_inputs(p3_setup, next_step, far_basis, basis, sampled, warm):
    """``(bundle, h0, basis)`` of one ``MODEL_CALLS`` case."""
    prob, bundle, budget, config, _ = p3_setup
    given = None  # the call factors its own basis
    if basis == "previous":
        given = bregman_minimize_zeta(bundle, budget, config)[1].basis
    elif basis == "far":
        given = far_basis
    h0 = None
    if warm:
        bundle, h0 = next_step
    if sampled:
        # an STM bundle: every order drawn from a part of the 60 rows
        bundle = sample_bundle(prob, bundle.x, BatchPlan((40, 30, 20)),
                               np.random.default_rng(5))
    return bundle, h0, given


class TestBregman:
    def test_quadratic_matches_single_quartic_solve(self, rng, tight_stop):
        prob = make_quadratic(5, seed=32)
        x = rng.standard_normal(5)
        bundle = exact_bundle(prob, x, 3)
        profile = default_profile(prob, x)
        budget = InexactnessBudget(1e-3, (0.0, 0.0, 0.0))
        config = ModelConfig.coupled(profile.lip(3), 0.0, tau=4.0)
        h, _ = bregman_minimize_zeta(bundle, budget, config)
        direct = Quartic(c=bundle.grad, B=bundle.hess, a=0.0, b=config.sigma / 2.0).solve()
        assert np.linalg.norm(h - direct) <= 1e-8

    def test_stationary_start_returns_zero(self, p3_setup):
        prob, bundle, budget, config, _ = p3_setup
        flat = DerivativeBundle(x=bundle.x, value=bundle.value,
                                grad=np.zeros(7), hess=bundle.hess,
                                third=bundle.third)
        h, stats = bregman_minimize_zeta(flat, budget, config)
        assert np.all(h == 0) and stats.iterations == 0

    def test_reaches_tight_gradient_norm_monotonically(self, p3_setup, tight_stop):
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

    def test_one_contraction_per_step(self, p3_setup, next_step, monkeypatch, tight_stop):
        _, bundle, budget, config, _ = p3_setup
        calls = {"taylor_terms": 0, "apply3": 0}

        def counting(owner, name):
            original = getattr(owner, name)

            def counted(s):
                calls[name] += 1
                return original(s)
            return counted

        for each in (bundle, next_step[0]):
            monkeypatch.setattr(each, "taylor_terms", counting(each, "taylor_terms"))
            monkeypatch.setattr(each.third, "apply3", counting(each.third, "apply3"))
        # one contraction per trial: an accepted trial's serves the next step.
        # Only a call run to the absolute stop rejects trials, near its end
        _, stats = bregman_minimize_zeta(bundle, budget, config)
        assert stats.iterations > 0 and stats.rejected
        assert calls == {"taylor_terms": stats.iterations + len(stats.rejected) + 1,
                         "apply3": 0}
        # a warm start's one contraction serves its line search and first evaluation
        calls["taylor_terms"] = 0
        _, stats = bregman_minimize_zeta(next_step[0], budget, config, next_step[1])
        assert stats.iterations > 0
        assert calls == {"taylor_terms": stats.iterations + len(stats.rejected) + 1,
                         "apply3": 0}

    @MODEL_CALLS
    def test_records_match_the_direct_model(self, p3_setup, next_step, far_basis,
                                            monkeypatch, basis, sampled, warm):
        # the loop evaluates zeta in an eigenbasis, its own or an earlier
        # Hessian's, from the bundle's taylor_terms at h, B h and T[h]^2;
        # TaylorModel evaluates it directly at h. A call on an earlier basis
        # may raise at the rounding floor of zeta, so every trial it
        # evaluates is checked, whether the call returns or raises
        _, _, budget, config, _ = p3_setup
        bundle, h0, given = call_inputs(p3_setup, next_step, far_basis, basis, sampled, warm)
        evaluations = recording_evaluations(monkeypatch)
        try:
            h, stats = bregman_minimize_zeta(bundle, budget, config, h0, given)
        except SubsolverError as err:
            assert basis != "own" and "descent test failed" in str(err)
            stats = None
        monkeypatch.undo()
        assert len(evaluations) > 1
        if stats is not None:
            assert stats.iterations > 0
            assert len(evaluations) == stats.iterations + len(stats.rejected) + 1
            assert np.array_equal(evaluations[-1][0], h)
            accepted = [evaluations[i] for i in accepted_contractions(stats)]
            assert [value for _, value, _ in accepted] == stats.zeta_values
            assert [norm for _, _, norm in accepted] == stats.grad_norms
        if warm:
            # the first evaluation is at alpha h0, from the contraction at h0
            assert np.linalg.norm(evaluations[0][0]) > 0
        model = TaylorModel(bundle, budget, config)
        scale = evaluations[0][2]
        for s, value, grad_norm in evaluations:
            assert value == pytest.approx(model.zeta(s), rel=1e-12, abs=0.0)
            # near the stop the gradient is a difference of terms of the size
            # of ||grad f||, which bounds the rounding of either evaluation
            assert abs(grad_norm - np.linalg.norm(model.zeta_grad(s))) <= 1e-12 * scale

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_model_is_subsolver_error(self, p3_setup, value):
        _, bundle, budget, config, _ = p3_setup
        broken = DerivativeBundle(x=bundle.x, value=value, grad=bundle.grad,
                                  hess=bundle.hess, third=bundle.third)
        with pytest.raises(SubsolverError, match="smooth model is not finite"):
            bregman_minimize_zeta(broken, budget, config)

    def test_iteration_cap_carries_best_iterate(self, p3_setup, monkeypatch):
        _, bundle, budget, config, _ = p3_setup
        monkeypatch.setattr(subsolvers, "MAX_INNER_STEPS", 3)
        with pytest.raises(SubsolverError, match="inner loop exhausted 3 steps") as err:
            bregman_minimize_zeta(bundle, budget, config)
        assert err.value.best is not None
        assert err.value.residual > 0

    def test_repeated_step_ends_the_loop(self, p3_setup, monkeypatch):
        # from the third quartic on, the map returns the second one's (y, mu),
        # the second step's. No trial of the third step moves the iterate, so
        # each is rejected without a test or an evaluation and grown, and the
        # call raises at the cap
        _, bundle, budget, config, _ = p3_setup
        solve = subsolvers.solve_regularized_quartic
        steps = []

        def stalling(ct, lam, b, mu0=None):
            steps.append(solve(ct, lam, b, mu0) if len(steps) < 2 else steps[-1])
            return steps[-1]

        monkeypatch.setattr(subsolvers, "solve_regularized_quartic", stalling)
        evaluations = recording_evaluations(monkeypatch)
        tests = recording_descents(monkeypatch)
        cap = subsolvers.CONSTANT_CAP * relative_smoothness_constant(config.tau)
        message = f"descent test failed at constant {cap:.3e} (model change 0.0e+00), step 3,"
        with pytest.raises(SubsolverError, match=re.escape(message)) as err:
            bregman_minimize_zeta(bundle, budget, config)
        assert [ok for _, ok in tests] == [True, True] and len(evaluations) == 3
        assert len(steps) > 3
        assert err.value.best is not None and err.value.residual > 0

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
                                  ModelConfig(sigma=1.0))


@pytest.fixture(scope="module", params=["exact", "sampled"])
def backtracked(request, p3_setup):
    """``(bundle, stats, iterates)`` of one cold call on an exact bundle and on
    an STM bundle, with ``iterates`` the start and each accepted step. The
    calls run to the absolute stop (``tight_stop``): the relative stop ends
    them before any trial is rejected."""
    prob, bundle, budget, config, _ = p3_setup
    if request.param == "sampled":
        bundle = sample_bundle(prob, bundle.x, BatchPlan((40, 30, 20)),
                               np.random.default_rng(5))
    contracted = []
    third = RankOneSumTensor3(bundle.third.rows, bundle.third.weights)
    contract = third.apply2

    def recording(s):
        contracted.append(np.array(s))
        return contract(s)

    third.apply2 = recording
    recorded = DerivativeBundle(x=bundle.x, value=bundle.value, grad=bundle.grad,
                                hess=bundle.hess, third=third)
    with pytest.MonkeyPatch.context() as scoped:
        scoped.setattr(subsolvers, "INNER_REL_TOL", 0.0)
        h, stats = bregman_minimize_zeta(recorded, budget, config)
    assert len(contracted) == stats.iterations + len(stats.rejected) + 1
    assert np.array_equal(contracted[-1], h)
    return bundle, stats, [contracted[i] for i in accepted_contractions(stats)]


class TestBacktracking:
    """The inner loop's relative-smoothness constant, found by backtracking."""

    def test_accepted_steps_satisfy_the_descent_inequality(self, p3_setup, backtracked):
        _, _, budget, config, _ = p3_setup
        bundle, stats, iterates = backtracked
        ktau = relative_smoothness_constant(config.tau)
        assert len(stats.constants) == stats.iterations
        assert all(1.0 <= c <= ktau for c in stats.constants)
        assert min(stats.constants) < ktau
        model = TaylorModel(bundle, budget, config)
        B = 0.5 * (bundle.hess + bundle.hess.T)
        for h, h_new, const in zip(iterates, iterates[1:], stats.constants):
            d = h_new - h
            lhs = model.zeta(h_new) - model.zeta(h) - float(model.zeta_grad(h) @ d)
            rhs = const * rho_bregman(h_new, h, B, budget, config)
            assert lhs <= rhs + 1e-14 * max(1.0, abs(model.zeta(h)))

    def test_model_value_does_not_increase(self, backtracked):
        vals = backtracked[1].zeta_values
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_trial_at_k_tau_is_never_rejected(self, p3_setup, backtracked):
        ktau = relative_smoothness_constant(p3_setup[3].tau)
        stats = backtracked[1]
        assert stats.rejected
        assert all(1.0 <= const < ktau for _, const in stats.rejected)

    def test_no_shrink_is_the_fixed_loop(self, p3_setup, backtracked, monkeypatch,
                                         tight_stop):
        # SHRINK = 1 tries k(tau) first at every step and tests it as any
        # trial: the steps it takes there are the fixed loop's, more than the
        # adaptive loop spends, until at the rounding floor of zeta the test
        # may fail up to the cap
        _, _, budget, config, _ = p3_setup
        bundle, adaptive, _ = backtracked
        ktau = relative_smoothness_constant(config.tau)
        monkeypatch.setattr(subsolvers, "SHRINK", 1.0)
        tests = recording_descents(monkeypatch)
        try:
            _, fixed = bregman_minimize_zeta(bundle, budget, config)
        except SubsolverError:
            fixed = None
        passed = [const for const, ok in tests if ok]
        assert all(const >= ktau for const, _ in tests)
        if fixed is not None:
            assert passed == fixed.constants
        assert passed.count(ktau) > adaptive.iterations + len(adaptive.rejected)


class TestWarmStart:
    """The inner loop started on the line through 0 and the previous step."""

    def test_start_is_no_worse_than_zero(self, p3_setup, next_step):
        _, _, budget, config, _ = p3_setup
        bundle, h_prev = next_step
        _, cold = bregman_minimize_zeta(bundle, budget, config)
        # the previous step, and the direction straight up the model at 0,
        # whose line descends on its other side
        for h0 in (h_prev, bundle.grad):
            _, warm = bregman_minimize_zeta(bundle, budget, config, h0)
            assert warm.zeta_values[0] < cold.zeta_values[0]

    def test_line_without_descent_gives_the_cold_start(self, p3_setup):
        # a stationary point of a convex model with no cubic term: every point
        # of the line lies above zeta(0), so the start is 0
        _, bundle, budget, config, _ = p3_setup
        third = RankOneSumTensor3(bundle.third.rows, np.zeros(bundle.third.weights.size))
        flat = DerivativeBundle(x=bundle.x, value=bundle.value, grad=np.zeros(7),
                                hess=bundle.hess, third=third)
        h, stats = bregman_minimize_zeta(flat, budget, config, np.ones(7))
        assert np.all(h == 0) and stats.iterations == 0

    def test_start_at_the_minimizer_takes_at_most_one_step(self, p3_setup, tight_stop):
        _, bundle, budget, config, _ = p3_setup
        h_star, _ = bregman_minimize_zeta(bundle, budget, config)
        h, stats = bregman_minimize_zeta(bundle, budget, config, h_star)
        assert stats.iterations <= 1
        assert np.linalg.norm(h - h_star) <= 1e-7 * np.linalg.norm(h_star)

    def test_warm_and_cold_minimizers_agree(self, p3_setup, next_step, tight_stop):
        _, _, budget, config, _ = p3_setup
        bundle, h_prev = next_step
        h_cold, cold = bregman_minimize_zeta(bundle, budget, config)
        h_warm, warm = bregman_minimize_zeta(bundle, budget, config, h_prev)
        assert warm.iterations < cold.iterations
        assert np.linalg.norm(h_warm - h_cold) <= 1e-7 * np.linalg.norm(h_cold)

    @pytest.mark.parametrize("coeffs", [
        (-1.0, 0.0, 0.0, 0.25), (0.1, -2.0, 0.0, 1.0), (-0.1, -2.0, 0.5, 1.0),
        (2.0, 1.0, -3.0, 1.0)])
    def test_line_minimizer_takes_the_lowest_well(self, coeffs):
        a1, a2, a3, a4 = coeffs
        grid = np.linspace(-3.0, 3.0, 600_001)
        values = (((a4 * grid + a3) * grid + a2) * grid + a1) * grid
        assert abs(_quartic_line_minimizer(*coeffs) - grid[values.argmin()]) <= 2e-5

    @pytest.mark.parametrize("coeffs", [
        (0.0, 1.0, 0.0, 1.0), (-1.0, 0.0, 0.0, 0.0), (math.nan, 1.0, 0.0, 1.0),
        (-1.0, math.inf, 0.0, 1.0)], ids=["convex", "no-quartic", "nan", "inf"])
    def test_line_minimizer_falls_back_to_zero(self, coeffs):
        assert _quartic_line_minimizer(*coeffs) == 0.0

    @pytest.mark.parametrize("coeffs", [
        (-1.0, 1.0, -1e200, 1e-200), (-1.0, 0.0, 0.0, 1e-310)], ids=["cubic", "subnormal"])
    def test_line_minimizer_with_an_overflowing_monic_cubic_gives_the_cold_start(
            self, coeffs):
        # finite coefficients whose derivative, made monic, overflows: np.roots
        # would take inf into its eigenvalue solver and raise LinAlgError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _quartic_line_minimizer(*coeffs) == 0.0


@pytest.fixture(scope="module")
def far_basis(p3_setup):
    """A badly stale eigenbasis: that of the Hessian at ``x = 50 * 1``, where
    every sigmoid saturates and only the ridge term is left."""
    prob = p3_setup[0]
    hess = exact_bundle(prob, np.full(7, 50.0), 3).hess
    return np.linalg.eigh(0.5 * (hess + hess.T))


class TestStaleBasis:
    """The inner loop on the eigenbasis of an earlier Hessian, under the rule
    that a call on its own basis follows."""

    @pytest.fixture(params=["previous", "far"])
    def stale(self, request, p3_setup, next_step, far_basis):
        """``(bundle, h0, basis)``: the next outer step's solve on the basis of
        this step's Hessian, or on ``far_basis``; with the param ``fresh``,
        given no basis, on the one it factors itself."""
        _, bundle, budget, config, _ = p3_setup
        if request.param == "far":
            return bundle, None, far_basis
        if request.param == "fresh":
            return next_step[0], next_step[1], None
        _, stats = bregman_minimize_zeta(bundle, budget, config)
        return next_step[0], next_step[1], stats.basis

    def test_fresh_call_returns_its_own_basis(self, p3_setup):
        _, bundle, budget, config, _ = p3_setup
        _, stats = bregman_minimize_zeta(bundle, budget, config)
        lam, vecs = np.linalg.eigh(0.5 * (bundle.hess + bundle.hess.T))
        assert np.array_equal(stats.basis[0], lam) and np.array_equal(stats.basis[1], vecs)

    def test_converges_to_the_fresh_minimizer_or_raises(self, p3_setup, stale, tight_stop):
        _, _, budget, config, _ = p3_setup
        bundle, h0, basis = stale
        h_fresh, _ = bregman_minimize_zeta(bundle, budget, config, h0)
        try:
            h, stats = bregman_minimize_zeta(bundle, budget, config, h0, basis)
        except SubsolverError:
            return
        assert stats.basis[1] is basis[1]
        assert stats.grad_norms[-1] <= subsolvers.INNER_GRAD_TOL
        assert np.linalg.norm(h - h_fresh) <= 1e-7 * np.linalg.norm(h_fresh)
        vals = stats.zeta_values
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("shrink", [None, 1.0], ids=["adaptive", "no-shrink"])
    @pytest.mark.parametrize("stale", ["fresh", "previous", "far"], indirect=True)
    def test_every_accepted_step_is_tested(self, p3_setup, stale, monkeypatch, shrink):
        # one rule on every basis: a call accepts only on the descent test,
        # at any constant, k(tau) included, and tests every trial it
        # evaluates; at the rounding floor of zeta the test fails up to the
        # cap, and the call raises there. SHRINK = 1 tries k(tau) first at
        # every step, so each step is taken at k(tau) or above
        _, _, budget, config, _ = p3_setup
        bundle, h0, basis = stale
        ktau = relative_smoothness_constant(config.tau)
        if shrink is not None:
            monkeypatch.setattr(subsolvers, "SHRINK", shrink)
        evaluations = recording_evaluations(monkeypatch)
        tests = recording_descents(monkeypatch)
        try:
            _, stats = bregman_minimize_zeta(bundle, budget, config, h0, basis)
        except SubsolverError:
            stats = None
        assert len(tests) == len(evaluations) - 1 > 0
        if shrink is not None:
            assert all(const >= ktau for const, _ in tests)
        if stats is None:
            assert tests[-1] == (subsolvers.CONSTANT_CAP * ktau, False)
            return
        passed = [const for const, ok in tests if ok]
        assert passed == stats.constants and stats.iterations > 0
        assert [const for const, ok in tests if not ok] == [c for _, c in stats.rejected]
        if shrink is not None:
            assert ktau in stats.constants

    @pytest.mark.parametrize("sampled, warm", [
        (False, False), (True, False), (False, True), (True, True)],
        ids=["exact", "sampled", "exact-warm", "sampled-warm"])
    def test_own_basis_replays_the_fresh_call(self, p3_setup, next_step, sampled, warm):
        # one evaluation path and one rule for every basis: a call given the
        # basis a fresh call factored takes the fresh call's trials bitwise
        prob, bundle, budget, config, _ = p3_setup
        h0 = None
        if warm:
            bundle, h0 = next_step
        if sampled:
            bundle = sample_bundle(prob, bundle.x, BatchPlan((40, 30, 20)),
                                   np.random.default_rng(5))
        h_fresh, fresh = bregman_minimize_zeta(bundle, budget, config, h0)
        h, stats = bregman_minimize_zeta(bundle, budget, config, h0, fresh.basis)
        assert np.array_equal(h, h_fresh)
        for name in ("zeta_values", "grad_norms", "constants", "rejected"):
            assert getattr(stats, name) == getattr(fresh, name), name

    def test_far_basis_near_the_minimizer_needs_constants_above_k_tau(
            self, p3_setup, minimizer, far_basis, monkeypatch):
        # near the minimizer of f the steps are short, so rho's quadratic part
        # must bound B alone, and on the far basis it holds only the ridge:
        # the call takes a step above k(tau) after a test that failed on a
        # model change far above the rounding of zeta
        prob, bundle, budget, config, _ = p3_setup
        ktau = relative_smoothness_constant(config.tau)
        near = exact_bundle(prob, minimizer + 0.01 * (bundle.x - minimizer), 3)
        tests = []
        test = subsolvers._descends

        def recorded(*args):
            tests.append((args[-1], args[0], test(*args)))
            return tests[-1][-1]

        monkeypatch.setattr(subsolvers, "_descends", recorded)
        _, stats = bregman_minimize_zeta(near, budget, config, None, far_basis)
        assert [const for const, _, ok in tests if ok] == stats.constants
        assert max(stats.constants) > ktau
        above = next(i for i, (const, _, ok) in enumerate(tests) if ok and const > ktau)
        _, change, ok = tests[above - 1]
        assert not ok and abs(change) > 1e6 * math.ulp(near.value)

    def test_steps_above_k_tau_are_taken_on_the_test(self, p3_setup, far_basis, monkeypatch):
        # on a basis where no constant up to k(tau) passes, a stale call
        # takes its steps above k(tau), which the sandwich spares a fresh
        # call; at the rounding floor of zeta it then raises, as the test no
        # longer passes
        _, bundle, budget, config, _ = p3_setup
        ktau = relative_smoothness_constant(config.tau)
        test = subsolvers._descends
        monkeypatch.setattr(subsolvers, "_descends",
                            lambda *args: args[-1] > ktau and test(*args))
        tests = recording_descents(monkeypatch)
        try:
            bregman_minimize_zeta(bundle, budget, config, None, far_basis)
        except SubsolverError:
            pass
        passed = [const for const, ok in tests if ok]
        assert len(passed) > 10 and min(passed) > ktau

    def test_descent_that_never_holds_raises_at_the_cap(self, p3_setup, next_step, monkeypatch):
        # a call whose test never passes raises at CONSTANT_CAP k(tau), on a
        # given basis as on the one it factors itself
        _, bundle, budget, config, _ = p3_setup
        _, stats = bregman_minimize_zeta(bundle, budget, config)
        for basis in (stats.basis, None):
            assert_raises_at_the_cap(monkeypatch, budget, config, basis, *next_step,
                                     subsolvers.INNER_GRAD_TOL)

    def test_rounding_floor_raises_at_the_floor_cap(self, p3_setup, monkeypatch, tight_stop):
        # started at its own minimizer with the stop rule off, a stale call's
        # trials change zeta only at its rounding: the floor has no cap of its
        # own, so a test that fails there raises at the same CONSTANT_CAP k(tau)
        _, bundle, budget, config, _ = p3_setup
        h_star, stats = bregman_minimize_zeta(bundle, budget, config)
        assert_raises_at_the_cap(monkeypatch, budget, config, stats.basis, bundle, h_star, 0.0)


def assert_raises_at_the_cap(monkeypatch, budget, config, basis, bundle, h0, grad_tol):
    """A call from ``h0`` whose descent test never holds raises at exactly
    CONSTANT_CAP k(tau)."""
    cap = subsolvers.CONSTANT_CAP * relative_smoothness_constant(config.tau)
    monkeypatch.setattr(subsolvers, "_descends", lambda *args: False)
    with monkeypatch.context() as scoped:
        scoped.setattr(subsolvers, "INNER_GRAD_TOL", grad_tol)
        tests = recording_descents(scoped)
        with pytest.raises(SubsolverError, match="descent test failed at constant") as err:
            bregman_minimize_zeta(bundle, budget, config, h0, basis)
    constants = [const for const, _ in tests]
    assert constants[-2] < cap == constants[-1]
    assert f"{cap:.3e}" in str(err.value)
    assert err.value.best is not None and err.value.residual > 0


class TestStopRule:
    """The inner loop stops at a model gradient relative to ``||grad f(x)||``,
    with the absolute ``INNER_GRAD_TOL`` as its floor."""

    @MODEL_CALLS
    def test_returned_call_stops_at_the_first_norm_below_the_rule(
            self, p3_setup, next_step, far_basis, basis, sampled, warm):
        _, _, budget, config, _ = p3_setup
        bundle, h0, given = call_inputs(p3_setup, next_step, far_basis, basis, sampled, warm)
        _, stats = bregman_minimize_zeta(bundle, budget, config, h0, given)
        tol = max(subsolvers.INNER_GRAD_TOL,
                  subsolvers.INNER_REL_TOL * float(np.linalg.norm(bundle.grad)))
        # far from the minimizer the relative term is the stop
        assert tol > subsolvers.INNER_GRAD_TOL
        assert stats.iterations > 0
        assert stats.grad_norms[-1] <= tol < min(stats.grad_norms[:-1])

    def test_small_gradient_stops_at_the_floor(self, p3_setup, minimizer, monkeypatch):
        # 1e-6 of the way from the minimizer, INNER_REL_TOL ||grad f|| is below
        # INNER_GRAD_TOL: the call is the one without a relative stop, bitwise
        prob, bundle, budget, config, _ = p3_setup
        near = exact_bundle(prob, minimizer + 1e-6 * (bundle.x - minimizer), 3)
        grad_norm = float(np.linalg.norm(near.grad))
        assert subsolvers.INNER_REL_TOL * grad_norm < subsolvers.INNER_GRAD_TOL < grad_norm
        h, stats = bregman_minimize_zeta(near, budget, config)
        assert stats.iterations > 0
        assert stats.grad_norms[-1] <= subsolvers.INNER_GRAD_TOL < min(stats.grad_norms[:-1])
        monkeypatch.setattr(subsolvers, "INNER_REL_TOL", 0.0)
        h_tight, tight = bregman_minimize_zeta(near, budget, config)
        assert np.array_equal(h, h_tight) and stats.grad_norms == tight.grad_norms


def first_trial(stats):
    """The constant a call tried first: its first rejected trial when that
    came before its first accepted step, else that step's constant."""
    if stats.rejected and stats.rejected[0][0] == 0:
        return stats.rejected[0][1]
    return stats.constants[0]


class TestCarriedConstant:
    """``const0``, the constant the previous call accepted last, is a call's
    first trial when it lies in ``[1, CONSTANT_CAP k(tau)]``."""

    @MODEL_CALLS
    @pytest.mark.parametrize("const0", [1.0, 2.9, 3.0, 30.0])
    def test_carried_constant_is_the_first_trial(
            self, p3_setup, next_step, far_basis, basis, sampled, warm, const0):
        # k(tau) = 3 here, and 30 is the cap
        _, _, budget, config, _ = p3_setup
        assert const0 <= subsolvers.CONSTANT_CAP * relative_smoothness_constant(config.tau)
        bundle, h0, given = call_inputs(p3_setup, next_step, far_basis, basis, sampled, warm)
        _, stats = bregman_minimize_zeta(bundle, budget, config, h0, given, const0)
        assert stats.iterations > 0 and first_trial(stats) == const0

    @MODEL_CALLS
    @pytest.mark.parametrize("scale", [0.5, subsolvers.GROW * subsolvers.CONSTANT_CAP],
                             ids=["below-one", "above-the-cap"])
    def test_constant_outside_the_range_gives_the_cold_call(
            self, p3_setup, next_step, far_basis, basis, sampled, warm, scale):
        # below 1 no constant is tried, and above the cap no constant is
        # allowed: the first trial is the cold SHRINK k(tau)
        _, _, budget, config, _ = p3_setup
        ktau = relative_smoothness_constant(config.tau)
        const0 = scale if scale < 1.0 else scale * ktau
        bundle, h0, given = call_inputs(p3_setup, next_step, far_basis, basis, sampled, warm)
        h_cold, cold = bregman_minimize_zeta(bundle, budget, config, h0, given)
        h, stats = bregman_minimize_zeta(bundle, budget, config, h0, given, const0)
        assert np.array_equal(h, h_cold)
        for name in ("iterations", "zeta_values", "grad_norms", "constants", "rejected"):
            assert getattr(stats, name) == getattr(cold, name), name
        assert all(np.array_equal(a, b) for a, b in zip(stats.basis, cold.basis))
        assert first_trial(cold) == subsolvers.SHRINK * ktau


def pole_data(lam):
    """The pole ``mu_lo = max(0, -lam_min)`` of ``lam``: ``(lam + mu_lo, mu_lo)``."""
    lam = np.asarray(lam, float)
    mu_lo = max(0.0, -float(lam.min()))
    return lam + mu_lo, mu_lo


def bisected_root(lam, c2, b, steps=300):
    """Root ``t`` of chi above the pole by plain bisection, the reference."""
    (s, mu_lo), c2 = pole_data(lam), np.asarray(c2, float)

    def chi(t):
        d = s + t
        return b * float(np.sum(c2 / (d * d))) - (mu_lo + t)

    lo, hi = 0.0, 1.0
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
    """``s`` that records every scalar ``t`` of ``s + t``: the points
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
            s, mu_lo = pole_data(lam)
            mu = mu_lo + _secular_root(s, c2, b, mu_lo)
            ref = mu_lo + bisected_root(lam, c2, b)
            assert abs(mu - ref) <= 1e-13 * ref

    def test_near_pole(self):
        # the bottom eigendirection carries a 1e-12 weight: the root sits
        # 1.5e-6 above the pole mu_lo = 1
        lam, c2 = np.array([-1.0, 0.5, 2.0]), np.array([1e-12, 1.0, 1.0])
        s, mu_lo = pole_data(lam)
        t = _secular_root(s, c2, 1.0, mu_lo)
        ref = bisected_root(lam, c2, 1.0)
        assert mu_lo == 1.0 and 0.0 < t < 1e-5
        assert abs(t - ref) <= 1e-12 * ref
        assert abs((mu_lo + t) - (mu_lo + ref)) <= 1e-13 * (mu_lo + ref)

    def test_converged_newton_step_is_returned(self):
        # Newton from the cold midpoint lands exactly on the root at its 6th
        # chi evaluation; the iteration must stop there, not bisect onwards
        # no weight on the pole at mu_lo = 0.5, and b r^2 > mu_lo there: not a hard case
        lam, c2, b = np.array([-0.5, 1.0, 2.0]), np.array([0.0, 1.0, 1.0]), 2.0
        s, mu_lo = pole_data(lam)
        RecordingShifts.shifts = []
        try:
            t = _secular_root(s.view(RecordingShifts), c2, b, mu_lo)
            shifts = RecordingShifts.shifts
        finally:
            RecordingShifts.shifts = None
        assert abs(t - bisected_root(lam, c2, b)) <= 1e-13 * t
        assert shifts.index(t) == len(shifts) - 1
        assert len(shifts) == 6

    def test_unusable_guess_gives_the_cold_root(self):
        for lam, c2, b in secular_instances(seed=41, count=10):
            s, mu_lo = pole_data(lam)
            cold = _secular_root(s, c2, b, mu_lo)
            for t0 in (0.0, -1.0, 1e6 * (cold + 1.0), np.inf, np.nan):
                assert _secular_root(s, c2, b, mu_lo, t0) == cold

    def test_nan_data_raises(self):
        with pytest.raises(SubsolverError):
            _secular_root(np.array([1.0, 2.0]), np.array([1.0, np.nan]), 1.0, 0.0)

    def test_warm_root_agrees_with_cold_at_every_inner_step(self, p3_setup, monkeypatch):
        _, bundle, budget, config, _ = p3_setup
        pairs = []
        evaluations = {"warm": 0, "cold": 0}

        def counted(kind, s, c2, b, mu_lo, t0=None):
            RecordingShifts.shifts = []
            try:
                return _secular_root(s.view(RecordingShifts), c2, b, mu_lo, t0)
            finally:
                evaluations[kind] += len(RecordingShifts.shifts)
                RecordingShifts.shifts = None

        def both(s, c2, b, mu_lo, t0=None):
            warm = counted("warm", s, c2, b, mu_lo, t0)
            pairs.append((warm, counted("cold", s, c2, b, mu_lo), t0))
            return warm

        monkeypatch.setattr(subsolvers, "_secular_root", both)
        _, stats = bregman_minimize_zeta(bundle, budget, config)
        # one root per trial
        assert len(pairs) == stats.iterations + len(stats.rejected) > 1
        assert pairs[0][2] is None and all(t0 is not None for _, _, t0 in pairs[1:])
        for warm, cold, _ in pairs:
            assert abs(warm - cold) <= 1e-12 * cold
        assert evaluations["warm"] < evaluations["cold"]

    def test_warm_start_keeps_the_inner_iterations(self, p3_setup, monkeypatch):
        _, bundle, budget, config, _ = p3_setup
        h_warm, warm = bregman_minimize_zeta(bundle, budget, config)
        monkeypatch.setattr(subsolvers, "_secular_root",
                            lambda s, c2, b, mu_lo, t0=None: _secular_root(s, c2, b, mu_lo))
        h_cold, cold = bregman_minimize_zeta(bundle, budget, config)
        assert warm.iterations == cold.iterations
        assert np.linalg.norm(h_warm - h_cold) <= 1e-12 * np.linalg.norm(h_cold)


class TestSolveModelP2:
    def test_newton_limit_for_tiny_sigma(self, rng):
        prob = make_quadratic(5, seed=34)
        x = rng.standard_normal(5)
        bundle = exact_bundle(prob, x, 2)
        budget = InexactnessBudget(1.0, (0.0, 0.0))
        config = ModelConfig(sigma=1e-10)
        step = solve_model_p2(bundle, budget, config)
        newton = -np.linalg.solve(bundle.hess, bundle.grad)
        assert np.linalg.norm(step - newton) <= 1e-6

    def test_zero_gradient_zero_step(self, rng):
        prob = make_quadratic(4, seed=35)
        x_star = np.linalg.solve(prob.A, prob.b)
        bundle = exact_bundle(prob, x_star, 2)
        budget = InexactnessBudget(1e-2, (0.1, 0.1))
        step = solve_model_p2(bundle, budget, ModelConfig(sigma=0.5))
        assert np.linalg.norm(step) <= 1e-10

    def test_gradient_residual_of_smooth_model(self, rng):
        prob = make_logistic(n=5, m=40, seed=36, mu=1e-2)
        for trial in range(10):
            x = rng.standard_normal(5)
            bundle = exact_bundle(prob, x, 2)
            profile = default_profile(prob, x)
            budget = InexactnessBudget(10 ** rng.uniform(-4, -1), (0.2, 0.4))
            config = ModelConfig(sigma=profile.lip(2))
            step = solve_model_p2(bundle, budget, config)
            model = TaylorModel(bundle, budget, config)
            assert np.linalg.norm(model.zeta_grad(step)) <= 1e-10 * max(
                1.0, np.linalg.norm(bundle.grad))


    @pytest.mark.parametrize("shift", [1e-6, 1.0])
    def test_residual_failure_carries_the_step(self, monkeypatch, shift):
        prob = make_logistic(n=5, m=40, seed=36, mu=1e-2)
        x = np.full(5, 0.3)
        bundle = exact_bundle(prob, x, 2)
        budget = InexactnessBudget(1e-2, (0.2, 0.4))
        config = ModelConfig(sigma=default_profile(prob, x).lip(2))
        solve, solved = subsolvers.solve_regularized_quartic, []

        def perturbed(ct, lam, b, mu0=None):
            y, mu = solve(ct, lam, b, mu0)
            solved.append(y + shift)
            return solved[-1], mu

        monkeypatch.setattr(subsolvers, "solve_regularized_quartic", perturbed)
        with pytest.raises(SubsolverError, match="quartic stationarity residual") as err:
            solve_model_p2(bundle, budget, config)
        h = EigenbasisZeta(bundle, budget, config).vecs @ solved[0]
        assert np.array_equal(err.value.best, h)
        _, z2, z4 = zeta_radial_coefficients(budget, config)
        residual = np.linalg.norm(
            bundle.grad + bundle.hess @ h + (2 * z2 + 4 * z4 * float(h @ h)) * h)
        assert err.value.residual == pytest.approx(residual, rel=1e-12)
        assert err.value.residual > subsolvers.QUARTIC_RESIDUAL_TOL * max(
            1.0, np.linalg.norm(bundle.grad))

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_curvature_is_subsolver_error(self, p3_setup, p, value):
        _, bundle, budget, config, profile = p3_setup
        hess = bundle.hess.copy()
        hess[0, 1] = value
        broken = DerivativeBundle(x=bundle.x, value=bundle.value, grad=bundle.grad,
                                  hess=hess, third=bundle.third if p == 3 else None)
        with pytest.raises(SubsolverError, match="curvature matrix of the model is not finite"):
            if p == 3:
                bregman_minimize_zeta(broken, budget, config)
            else:
                solve_model_p2(broken, InexactnessBudget(budget.eps, budget.kappas[:2]),
                               ModelConfig(sigma=profile.lip(2)))


class TestGenericFallback:
    def test_agrees_with_p2_solver(self, rng):
        prob = make_logistic(n=4, m=30, seed=37, mu=1e-2)
        for _ in range(50):
            x = rng.standard_normal(4)
            bundle = exact_bundle(prob, x, 2)
            profile = default_profile(prob, x)
            budget = InexactnessBudget(1e-2, (0.2, 0.4))
            config = ModelConfig(sigma=profile.lip(2))
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
        config = ModelConfig(sigma=1e-12)
        h = generic_model_minimize(bundle, budget, config, grad_tol=1e-8)
        newton = -np.linalg.solve(bundle.hess, bundle.grad)
        assert np.linalg.norm(h - newton) <= 1e-6
