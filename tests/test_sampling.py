"""Batch sizes from the concentration lemmas, batch plans and sampled bundles."""

import dataclasses
import math

import numpy as np
import pytest

from tensorstep import (
    EXACT,
    BatchPlan,
    ConfigError,
    InexactnessBudget,
    RankOneSumTensor3,
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

from conftest import sphere_grid_norm

EPS = 1e-3
DELTA = 0.1


@pytest.fixture(scope="module")
def offline():
    problem = make_logistic(n=8, m=300, seed=0)
    x = np.full(8, 0.3)
    return problem, x, default_profile(problem, x)


def budget_of(kappa):
    """A budget with tolerance ``kappa`` at every order of three."""
    return InexactnessBudget(EPS, (kappa,) * 3)


def log_terms(order, dim, delta):
    """``i n ln k0 + ln(2/delta)`` with ``k0 = 2 i / ln(3/2)``."""
    return order * dim * math.log(2.0 * order / math.log(1.5)) + math.log(2.0 / delta)


def offline_tail_met(order, kappa, n, m, dim, profile, p):
    if n >= m:
        return True
    t = kappa * EPS ** ((p - order + 1) / p)
    s = profile.range(order)
    return t * t * n * n / (2.0 * s * s * (n + 1) * (1.0 - n / m)) >= log_terms(order, dim, DELTA)


class TestBatchSizeOffline:
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_zero_tolerance_needs_exact(self, offline, order):
        problem, _, profile = offline
        assert batch_size_offline(order, budget_of(0.0), DELTA, problem.m, problem.dim,
                                  profile) == EXACT

    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("kappa", [1e-4, 1e-2, 1.0, 10.0, 100.0, 1e4, 1e6])
    def test_smallest_size_meeting_the_tail(self, offline, order, kappa):
        problem, _, profile = offline
        m, dim = problem.m, problem.dim
        n = batch_size_offline(order, budget_of(kappa), DELTA, m, dim, profile)
        assert 1 <= n <= m
        assert offline_tail_met(order, kappa, n, m, dim, profile, 3)
        if n > 1:
            # at n = m this checks that m - 1 misses
            assert not offline_tail_met(order, kappa, n - 1, m, dim, profile, 3)

    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("kappa", [1e-4, 1.0, 1e6])
    def test_one_component_is_one_sample(self, offline, order, kappa):
        problem, _, profile = offline
        assert batch_size_offline(order, budget_of(kappa), DELTA, 1, problem.dim, profile) == 1

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_nonincreasing_in_kappa(self, offline, order):
        problem, _, profile = offline
        sizes = [batch_size_offline(order, budget_of(kappa), DELTA, problem.m, problem.dim,
                                    profile) for kappa in np.logspace(-4, 6, 41)]
        assert sizes == sorted(sizes, reverse=True)
        # both ends of the search: the full batch, and a single sample
        assert sizes[0] == problem.m and sizes[-1] == 1


class TestBatchSizeOnline:
    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("kappa", [0.5, 3.0])
    def test_closed_form(self, order, kappa):
        problem = make_online_logistic(n=6, pool=512, seed=2)
        profile = default_profile(problem, np.zeros(6))
        t = kappa * EPS ** ((3 - order + 1) / 3)
        s = profile.range(order)
        expected = math.ceil(2.0 * s * s / (t * t) * log_terms(order, 6, DELTA))
        assert batch_size_online(order, budget_of(kappa), DELTA, 6, profile) == expected
        assert batch_size_online(order, budget_of(0.0), DELTA, 6, profile) == EXACT


class TestPlanAndBundle:
    def test_plan_splits_delta_evenly(self, offline):
        problem, _, profile = offline
        # every order sampled, none clamped at m
        budget = InexactnessBudget(EPS, (1000.0, 100.0, 10.0))
        plan = plan_batches(budget, DELTA, problem, profile)
        assert plan.sizes == tuple(
            batch_size_offline(i, budget, DELTA / 3, problem.m, problem.dim, profile)
            for i in (1, 2, 3))
        assert plan.sizes != tuple(
            batch_size_offline(i, budget, DELTA, problem.m, problem.dim, profile)
            for i in (1, 2, 3))

    @pytest.mark.parametrize("setting", ["offline", "online"])
    def test_plan_reads_the_ranges_not_the_model_constants(self, offline, setting):
        if setting == "offline":
            problem, _, profile = offline
        else:
            problem = make_online_logistic(n=6, pool=512, seed=2)
            profile = default_profile(problem, np.zeros(6))
        budget = InexactnessBudget(EPS, (1000.0, 100.0, 10.0))
        plan = plan_batches(budget, DELTA, problem, profile)
        assert EXACT not in plan.sizes
        lower = dataclasses.replace(profile, L=tuple(profile.lip(i) / 100 for i in range(4)))
        assert plan_batches(budget, DELTA, problem, lower) == plan
        wider = dataclasses.replace(profile, S=tuple(10 * s for s in profile.S))
        assert plan_batches(budget, DELTA, problem, wider) != plan

    @pytest.mark.parametrize("p", [2, 3])
    def test_exact_plan_is_bitwise_the_exact_bundle(self, offline, p):
        problem, x, profile = offline
        budget = InexactnessBudget(EPS, (0.0,) * p)
        plan = plan_batches(budget, DELTA, problem, profile)
        assert plan.sizes == (EXACT,) * p
        sampled = sample_bundle(problem, x, plan, np.random.default_rng(0))
        exact = exact_bundle(problem, x, p)
        assert sampled.value == exact.value
        assert np.array_equal(sampled.grad, exact.grad)
        assert np.array_equal(sampled.hess, exact.hess)
        if p == 3:
            assert np.array_equal(sampled.third.weights, exact.third.weights)
            assert np.array_equal(sampled.third.rows, exact.third.rows)

    @pytest.mark.parametrize("p", [2, 3])
    def test_delta_that_splits_to_zero_is_a_config_error(self, offline, p):
        problem, _, profile = offline
        budget = InexactnessBudget(EPS, (1.0,) * p)
        with pytest.raises(ConfigError, match="^delta: "):
            plan_batches(budget, 5e-324, problem, profile)
        # the next float still plans: ln(2/delta) is inf, so every batch is full
        assert plan_batches(budget, 1e-323, problem, profile).sizes == (problem.m,) * p

    @pytest.mark.parametrize("sizes,calls", [
        ((40, EXACT), ["draw", "batch_gradient", "hessian_operator", "value"]),
        ((EXACT, 30, 20), ["gradient", "draw", "hessian_operator", "draw", "batch_third",
                           "value"]),
        ((40, 30, EXACT), ["draw", "batch_gradient", "draw", "hessian_operator", "third",
                           "value"]),
    ])
    def test_bundle_takes_the_orders_in_turn(self, offline, sizes, calls, monkeypatch):
        """Order 1, then 2, then 3, each by its exact or its batch oracle; a
        two-entry plan touches no third-order method. The Hessian is built
        on the first read of ``hess``, once, and only then."""
        problem, x, _ = offline

        class Recorder:
            def __init__(self):
                self.calls = []

            def __getattr__(self, name):
                method = getattr(problem, name)

                def call(*args):
                    self.calls.append(name)
                    return method(*args)
                return call

        builds = []
        for name in ("hessian", "batch_hessian"):
            build = getattr(problem, name)
            monkeypatch.setattr(problem, name,
                                lambda *args, name=name, build=build:
                                builds.append(name) or build(*args))
        recorder = Recorder()
        bundle = sample_bundle(recorder, x, BatchPlan(sizes), np.random.default_rng(0))
        assert recorder.calls == calls
        assert bundle.p == len(sizes)
        assert builds == []
        first = bundle.hess
        assert bundle.hess is first
        assert builds == ["hessian" if sizes[1] == EXACT else "batch_hessian"]

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
            bundle = sample_bundle(problem, x0, plan, rng)
            passes += verify_condition(problem, bundle, budget, rng=rng).passes
        assert np.all(passes / trials >= 1.0 - DELTA)


class TestOrderThreeCondition:
    @pytest.fixture(scope="class")
    def sampled(self):
        """A sampled bundle of a logistic problem in R^3 whose order 3 is sampled."""
        problem = make_logistic(3, 300)
        x0 = start_point(problem, 1.0, 0)
        budget = InexactnessBudget(EPS, (100.0, 100.0, 100.0))
        plan = plan_batches(budget, DELTA, problem, default_profile(problem, x0))
        assert plan.sizes[2] < problem.m
        return problem, sample_bundle(problem, x0, plan, np.random.default_rng(0)), budget

    def test_bound_meets_the_spherical_grid_without_forming_matrices(self, sampled,
                                                                     monkeypatch):
        def no_matrix(tensor, s):
            raise AssertionError("verify_condition formed the n-by-n matrix T[s]")

        monkeypatch.setattr(RankOneSumTensor3, "apply", no_matrix)
        problem, bundle, budget = sampled
        report = verify_condition(problem, bundle, budget, rng=np.random.default_rng(0))
        grid = sphere_grid_norm(bundle.third - problem.third(bundle.x))
        assert report.ratios[2] * budget.eps_power(3) == pytest.approx(grid, rel=1e-3)

    @pytest.mark.parametrize("margin, passes", [(1.9, False), (2.1, True)])
    def test_order_three_fails_within_the_safety_factor(self, sampled, margin, passes):
        problem, bundle, budget = sampled
        r3 = verify_condition(problem, bundle, budget, rng=np.random.default_rng(0)).ratios[2]
        tight = InexactnessBudget(EPS, (100.0, 100.0, margin * r3))
        report = verify_condition(problem, bundle, tight, rng=np.random.default_rng(0))
        assert report.passes[2] is passes
