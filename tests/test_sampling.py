"""Batch sizes from the concentration lemmas, batch plans and sampled bundles."""

import math

import numpy as np
import pytest

from tensorstep import (
    EXACT,
    InexactnessBudget,
    batch_size_offline,
    batch_size_online,
    exact_bundle,
    make_logistic,
    make_online_logistic,
    plan_batches,
    sample_bundle,
    verify_condition,
)
from tensorstep.bench import start_point
from tensorstep.methods import default_profile

EPS = 1e-3
DELTA = 0.1


@pytest.fixture(scope="module")
def offline():
    problem = make_logistic(n=8, m=300, seed=0)
    x = np.full(8, 0.3)
    return problem, x, default_profile(problem, x)


def log_terms(order, dim, delta):
    """``i n ln k0 + ln(2/delta)`` with ``k0 = 2 i / ln(3/2)``."""
    return order * dim * math.log(2.0 * order / math.log(1.5)) + math.log(2.0 / delta)


def offline_tail_met(order, kappa, n, m, dim, profile, p):
    if n >= m:
        return True
    t = kappa * EPS ** ((p - order + 1) / p)
    s = 2.0 * profile.lip(order - 1)
    return t * t * n * n / (2.0 * s * s * (n + 1) * (1.0 - n / m)) >= log_terms(order, dim, DELTA)


class TestBatchSizeOffline:
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_zero_tolerance_needs_exact(self, offline, order):
        problem, _, profile = offline
        assert batch_size_offline(order, 0.0, EPS, DELTA, problem.m, problem.dim,
                                  profile, 3) == EXACT

    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("kappa", [1e-2, 1.0, 10.0, 100.0, 1e4])
    def test_smallest_size_meeting_the_tail(self, offline, order, kappa):
        problem, _, profile = offline
        m, dim = problem.m, problem.dim
        n = batch_size_offline(order, kappa, EPS, DELTA, m, dim, profile, 3)
        assert 1 <= n <= m
        assert offline_tail_met(order, kappa, n, m, dim, profile, 3)
        if 1 < n < m:
            assert not offline_tail_met(order, kappa, n - 1, m, dim, profile, 3)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_nonincreasing_in_kappa(self, offline, order):
        problem, _, profile = offline
        sizes = [batch_size_offline(order, kappa, EPS, DELTA, problem.m, problem.dim,
                                    profile, 3) for kappa in np.logspace(-2, 4, 25)]
        assert sizes == sorted(sizes, reverse=True)
        assert sizes[0] == problem.m and sizes[-1] < problem.m


class TestBatchSizeOnline:
    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("kappa", [0.5, 3.0])
    def test_closed_form(self, order, kappa):
        problem = make_online_logistic(n=6, pool=512, seed=2)
        profile = default_profile(problem, np.zeros(6))
        t = kappa * EPS ** ((3 - order + 1) / 3)
        s = profile.deviation(order) + profile.lip(order - 1)
        expected = math.ceil(2.0 * s * s / (t * t) * log_terms(order, 6, DELTA))
        assert batch_size_online(order, kappa, EPS, DELTA, 6, profile, 3) == expected
        assert batch_size_online(order, 0.0, EPS, DELTA, 6, profile, 3) == EXACT


class TestPlanAndBundle:
    def test_plan_splits_delta_evenly(self, offline):
        problem, _, profile = offline
        kappas = (1000.0, 100.0, 10.0)  # every order sampled, none clamped at m
        plan = plan_batches(InexactnessBudget(EPS, kappas), DELTA, problem, profile)
        assert plan.sizes == tuple(
            batch_size_offline(i, kappas[i - 1], EPS, DELTA / 3, problem.m, problem.dim,
                               profile, 3) for i in (1, 2, 3))
        assert plan.sizes != tuple(
            batch_size_offline(i, kappas[i - 1], EPS, DELTA, problem.m, problem.dim,
                               profile, 3) for i in (1, 2, 3))

    @pytest.mark.parametrize("p", [2, 3])
    def test_exact_plan_is_bitwise_the_exact_bundle(self, offline, p):
        problem, x, profile = offline
        budget = InexactnessBudget(EPS, (0.0,) * p)
        plan = plan_batches(budget, DELTA, problem, profile)
        assert plan.sizes == (EXACT,) * p
        sampled = sample_bundle(problem, x, plan, p, np.random.default_rng(0))
        exact = exact_bundle(problem, x, p)
        assert sampled.value == exact.value
        assert np.array_equal(sampled.grad, exact.grad)
        assert np.array_equal(sampled.hess, exact.hess)
        if p == 3:
            assert np.array_equal(sampled.third.weights, exact.third.weights)
            assert np.array_equal(sampled.third.rows, exact.third.rows)

    def test_exact_bundle_meets_the_condition(self, offline):
        problem, x, _ = offline
        budget = InexactnessBudget(EPS, (1.0, 1.0, 1.0))
        report = verify_condition(problem, exact_bundle(problem, x, 3), budget,
                                  rng=np.random.default_rng(0))
        assert report.ratios == (0.0, 0.0, 0.0)
        assert report.passes == (True, True, True)

    def test_sampled_bundles_pass_at_rate_one_minus_delta(self, offline):
        # kappa 100 samples every order: plan (298, 103, 2) of m = 300
        problem = offline[0]
        x0 = start_point(problem, 1.0, 0)
        budget = InexactnessBudget(EPS, (100.0, 100.0, 100.0))
        plan = plan_batches(budget, DELTA, problem, default_profile(problem, x0))
        assert EXACT not in plan.sizes and max(plan.sizes) < problem.m
        rng = np.random.default_rng(0)
        trials = 20
        passes = np.zeros(3)
        for _ in range(trials):
            bundle = sample_bundle(problem, x0, plan, 3, rng)
            passes += verify_condition(problem, bundle, budget, rng=rng).passes
        assert np.all(passes / trials >= 1.0 - DELTA)
