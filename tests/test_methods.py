"""Outer-loop behaviour: golden trace replays, STM/ITM agreement, monotonicity,
and the rate theory (gaps below the residual bound, budgets that meet eps).

The golden fixtures under ``tests/golden/<name>/`` are the trace CSVs and
``summary.json`` that ``run_experiment`` writes for each config in
``GOLDEN_CONFIGS``. They pin the stopping ladder and the recorded columns of
every method byte for byte. Regenerate them (only when a change to the traces
is intended) with

    PYTHONPATH=src python tests/test_methods.py
"""

import dataclasses
import functools
import itertools
import math
import os
import re
import sys

import numpy as np
import pytest

from tensorstep import (
    ConfigError,
    ExperimentConfig,
    QuadraticProblem,
    RunConfig,
    StartPointError,
    SubsolverError,
    TaylorModel,
    complexity_sweep,
    gd_baseline,
    kappa_defaults,
    make_logistic,
    make_quadratic,
    reference_solution,
    run_experiment,
)
from tensorstep import bench, methods, subsolvers
from tensorstep.bench import build_problem, start_point
from tensorstep.methods import (
    IterationRecord,
    RunTrace,
    default_profile,
    exact_bundle,
    itm_run,
    monotonicity_guard,
    resolve_model,
    stm_run,
)

from lemmas import iteration_budget, theoretical_residual_bound
from test_problems import with_least_eigenvalue_zero

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

GOLDEN_PROBLEM = {"kind": "logistic-synthetic", "n": 8, "m": 300, "seed": 0}

GOLDEN_CONFIGS = {
    "itm-p2": {"method": "itm", "p": 2},
    "itm-p3": {"method": "itm", "p": 3},
    # n1 and n2 clamp at m; n3 is sampled at eps=1e-3
    "stm-p3": {"method": "stm", "p": 3, "kappa": [1.0, 1.0, 1.0]},
    "gd": {"method": "gd"},
    "agd": {"method": "agd"},
}


def golden_data(name, **overrides) -> dict:
    """The config file of golden config ``name``, as JSON data."""
    return {"version": 1, "problem": GOLDEN_PROBLEM, "eps": [1e-6, 1e-3],
            "seeds": [0, 1], "max_iter": 40, **GOLDEN_CONFIGS[name], **overrides}


def golden_config(name, **overrides) -> ExperimentConfig:
    return ExperimentConfig.from_dict(golden_data(name, **overrides))


def read_tree(directory) -> dict:
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    """``(ExperimentResult, out_dir)`` of one golden config, run once per module."""
    runs = {}

    def run(name):
        if name not in runs:
            out = tmp_path_factory.mktemp(name)
            runs[name] = run_experiment(golden_config(name, out=str(out))), out
        return runs[name]

    return run


def assert_only_fewer_inner_steps(result, baseline):
    """``result`` has the iterations, batches and call counts of ``baseline``,
    in fewer inner steps."""
    assert result.traces.keys() == baseline.traces.keys()

    def columns(trace):
        return [(r.k, r.batch, r.grad_calls, r.hess_calls, r.third_calls)
                for r in trace.records]

    for key, trace in result.traces.items():
        assert columns(trace) == columns(baseline.traces[key])

    def inner_total(run):
        return sum(r.inner_iters for t in run.traces.values() for r in t.records)

    assert inner_total(result) < inner_total(baseline)


class TestGoldenTraces:
    @pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
    def test_replay_is_byte_identical(self, name, golden_run):
        _, out = golden_run(name)
        expected = read_tree(os.path.join(GOLDEN_DIR, name))
        assert read_tree(out) == expected

    def test_warm_start_only_cuts_inner_steps(self, golden_run, monkeypatch):
        # the itm-p3 config again, every model solve started at 0
        warm = golden_run("itm-p3")[0]
        solve = methods.bregman_minimize_zeta
        monkeypatch.setattr(methods, "bregman_minimize_zeta",
                            lambda bundle, budget, config, h0=None, basis=None, const0=None:
                            solve(bundle, budget, config, basis=basis, const0=const0))
        assert_only_fewer_inner_steps(warm, run_experiment(golden_config("itm-p3")))

    @pytest.mark.parametrize("name", ["itm-p3", "stm-p3"])
    def test_carried_constant_only_cuts_inner_steps(self, golden_run, monkeypatch, name):
        # the config again, every model solve's first trial the cold SHRINK k(tau)
        carried, solve = golden_run(name)[0], methods.bregman_minimize_zeta
        monkeypatch.setattr(methods, "bregman_minimize_zeta",
                            lambda bundle, budget, config, h0=None, basis=None, const0=None:
                            solve(bundle, budget, config, h0, basis))
        assert_only_fewer_inner_steps(carried, run_experiment(golden_config(name)))

    @pytest.mark.parametrize("name", ["itm-p3", "stm-p3"])
    def test_adaptive_constant_only_cuts_inner_steps(self, golden_run, monkeypatch, name):
        # the config again with every inner step taken at the fixed k(tau):
        # SHRINK = 1 makes k(tau) each step's first trial
        adaptive = golden_run(name)[0]
        monkeypatch.setattr(subsolvers, "SHRINK", 1.0)
        assert_only_fewer_inner_steps(adaptive, run_experiment(golden_config(name)))

    @pytest.mark.parametrize("name, steps", [("itm-p3", 54), ("stm-p3", 157)])
    def test_every_step_majorizes(self, monkeypatch, name, steps):
        # f(x + h) <= zeta(h) at every accepted model step pins the model's
        # assembly (z0, z2, z4, the kappa terms, a bundle taken at x); the
        # eigenbasis the inner loop runs on changes only its path to the step.
        # The constants it accepts, fresh or stale, keep half the cap as headroom
        problem = build_problem(GOLDEN_PROBLEM)
        solve = methods.bregman_minimize_zeta
        slacks, scaled = [], []

        def checked(bundle, budget, config, h0=None, basis=None, const0=None):
            h, stats = solve(bundle, budget, config, h0, basis, const0)
            f = problem.value(bundle.x + h)
            slacks.append(TaylorModel(bundle, budget, config).zeta(h) - f
                          + 1e-12 * max(1.0, abs(f)))
            ktau = subsolvers.relative_smoothness_constant(config.tau)
            scaled.extend(const / ktau for const in stats.constants)
            return h, stats

        monkeypatch.setattr(methods, "bregman_minimize_zeta", checked)
        run_experiment(golden_config(name))
        assert len(slacks) == steps
        assert min(slacks) >= 0.0
        assert scaled and max(scaled) <= subsolvers.CONSTANT_CAP / 2

    @pytest.mark.parametrize("name", ["itm-p3", "stm-p3"])
    def test_no_model_solve_raises_and_each_rejection_backtracks(self, monkeypatch, name):
        # the relative inner stop ends every call before the rounding floor
        # of zeta, where the descent test raised and trials were
        # rejected on rounding alone; so no step is redone. A call's first
        # trial is the constant the previous call accepted, which the next
        # model may not pass: such a trial is rejected below k(tau), and its
        # step accepts a larger constant, at most k(tau)
        solve, raised, calls = methods.bregman_minimize_zeta, [], []

        def checked(bundle, budget, config, h0=None, basis=None, const0=None):
            try:
                h, stats = solve(bundle, budget, config, h0, basis, const0)
            except SubsolverError as err:
                raised.append(err)
                raise
            calls.append((subsolvers.relative_smoothness_constant(config.tau), stats))
            return h, stats

        monkeypatch.setattr(methods, "bregman_minimize_zeta", checked)
        run_experiment(golden_config(name))
        assert raised == [] and calls
        for ktau, stats in calls:
            for step, const in stats.rejected:
                assert 1.0 <= const < stats.constants[step] <= ktau

    def test_interrupted_summary_keeps_the_old_one(self, tmp_path, monkeypatch):
        (tmp_path / "summary.json").write_text("old")

        def interrupted(obj, fh, **kwargs):
            fh.write('{"f_ref": ')
            raise KeyboardInterrupt

        monkeypatch.setattr(bench.json, "dump", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_experiment(golden_config("gd", eps=[1e-3], seeds=[0], out=str(tmp_path)))
        assert (tmp_path / "summary.json").read_text() == "old"
        assert not list(tmp_path.glob("*.tmp"))

    def test_outputs_get_the_umask_mode(self, tmp_path):
        previous = os.umask(0o022)
        try:
            result = run_experiment(golden_config("gd", eps=[1e-3], seeds=[0],
                                                  out=str(tmp_path)))
        finally:
            os.umask(previous)
        assert [os.path.basename(path) for path in result.files] == [
            "trace_eps0.001_seed0.csv", "summary.json"]
        assert [os.stat(path).st_mode & 0o777 for path in result.files] == [0o644, 0o644]


@pytest.fixture(scope="module")
def logistic():
    problem = make_logistic(n=8, m=300, seed=0)
    return problem, start_point(problem, 1.0, 0)


@pytest.fixture(scope="module")
def quadratic():
    # one component: every sampled order is a full batch of QuadraticProblem.draw;
    # at cond 1e3 the minimizer is far enough that six steps stay above the step floor
    problem = make_quadratic(8, seed=0, cond=1e3)
    return problem, start_point(problem, 1.0, 0)


def logged_model_calls(monkeypatch, basis_for=None):
    """``(fresh, iterations)`` of each order-3 model solve from here on, with
    ``iterations`` None for a call that raised. ``basis_for``, when given,
    replaces each stale basis the step passes."""
    solve, log = methods.bregman_minimize_zeta, []

    def logged(bundle, budget, config, h0=None, basis=None, const0=None):
        fresh = basis is None
        if not fresh and basis_for is not None:
            basis = basis_for(basis)
        try:
            h, stats = solve(bundle, budget, config, h0, basis, const0)
        except SubsolverError:
            log.append((fresh, None))
            raise
        log.append((fresh, stats.iterations))
        return h, stats

    monkeypatch.setattr(methods, "bregman_minimize_zeta", logged)
    return log


def assert_refresh_rule(log):
    """A call of one run is fresh exactly when it is the first call or follows
    a call that raised, which only a stale call does without ending the run."""
    assert log[0][0]
    for (fresh, iterations), (next_fresh, _) in zip(log, log[1:]):
        assert not (fresh and iterations is None)
        assert next_fresh == (iterations is None)


class TestStaleEigenbasis:
    """The model step keeps the last factored eigenbasis of the Hessian across
    outer steps, and factors again only after a stale call that raised."""

    def test_one_factorization_serves_many_steps(self, monkeypatch):
        problem = make_logistic(60, 120)
        _, f_ref = reference_solution(problem)
        eigh, calls = np.linalg.eigh, []

        def counted(a):
            calls.append(a.shape)
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        trace = itm_run(problem, np.zeros(60), RunConfig(p=3, eps=1e-6), f_ref)
        assert trace.status == "gap-target" and monotonicity_guard(trace) == []
        assert 0 < len(calls) < trace.final.k

    def test_hessian_is_built_only_to_be_factored(self, monkeypatch):
        # a stale call takes B h from the bundle's fused row pass, so the
        # exact Hessian is built once per eigh and never for a stale call
        problem = make_logistic(60, 120)
        _, f_ref = reference_solution(problem)
        builds, eigh = [], np.linalg.eigh
        hessian = problem.hessian
        monkeypatch.setattr(problem, "hessian", lambda x: builds.append("hessian") or hessian(x))
        monkeypatch.setattr(np.linalg, "eigh", lambda a: builds.append("eigh") or eigh(a))
        trace = itm_run(problem, np.zeros(60), RunConfig(p=3, eps=1e-6), f_ref)
        assert trace.status == "gap-target" and monotonicity_guard(trace) == []
        assert 0 < builds.count("hessian") == builds.count("eigh") < trace.final.k
        assert builds[::2] == ["hessian"] * (len(builds) // 2)

    def test_run_on_a_badly_stale_basis_reaches_the_target(self, monkeypatch):
        # every stale call runs on the eigenbasis of the Hessian at 50 * 1,
        # where only the ridge term is left
        problem = make_logistic(n=7, m=60, seed=31, mu=1e-2)
        _, f_ref = reference_solution(problem)
        far = exact_bundle(problem, np.full(7, 50.0), 3).hess
        far = np.linalg.eigh(0.5 * (far + far.T))
        log = logged_model_calls(monkeypatch, lambda basis: far)
        trace = itm_run(problem, np.zeros(7), RunConfig(p=3, eps=1e-6), f_ref)
        assert trace.status == "gap-target" and monotonicity_guard(trace) == []
        assert sum(not fresh for fresh, _ in log) >= len(trace.records) // 2
        assert_refresh_rule(log)

    def test_slow_stale_call_keeps_its_step(self, logistic, monkeypatch):
        # every stale call reports 100 extra steps: its step stands, and the
        # next call stays on the same stale basis
        problem, x0 = logistic
        solve = methods.bregman_minimize_zeta

        def slow(bundle, budget, config, h0=None, basis=None, const0=None):
            h, stats = solve(bundle, budget, config, h0, basis, const0)
            stats.iterations += 0 if basis is None else 100
            return h, stats

        monkeypatch.setattr(methods, "bregman_minimize_zeta", slow)
        log = logged_model_calls(monkeypatch)
        trace = itm_run(problem, x0, RunConfig(p=3, max_iter=6))
        assert [fresh for fresh, _ in log] == [True] + [False] * 5
        assert [r.inner_iters > 100 for r in trace.records[:-1]] == [False] + [True] * 5
        assert_refresh_rule(log)

    def test_failed_stale_call_is_redone_fresh(self, logistic, monkeypatch):
        # every stale call raises and the step is redone on a fresh
        # factorization: the run is that of a fresh factorization at every step
        problem, x0 = logistic
        config = RunConfig(p=3, max_iter=4)
        solve = methods.bregman_minimize_zeta

        def failing(bundle, budget, config, h0=None, basis=None, const0=None):
            if basis is not None:
                raise SubsolverError("descent test failed")
            return solve(bundle, budget, config, h0, const0=const0)

        monkeypatch.setattr(methods, "bregman_minimize_zeta", failing)
        log = logged_model_calls(monkeypatch)
        trace = itm_run(problem, x0, config)
        assert [fresh for fresh, _ in log] == [True] + [False, True] * 3
        assert all(iterations is None for fresh, iterations in log if not fresh)
        assert_refresh_rule(log)
        monkeypatch.setattr(methods, "bregman_minimize_zeta",
                            lambda bundle, budget, config, h0=None, basis=None, const0=None:
                            solve(bundle, budget, config, h0, const0=const0))
        assert itm_run(problem, x0, config).records == trace.records


def counted_oracles(monkeypatch, problem, names):
    """Calls of each ``problem`` method in ``names`` from here on, in order."""
    calls = []
    for name in names:
        method = getattr(problem, name)
        monkeypatch.setattr(problem, name, functools.partial(
            lambda method, name, *args: calls.append(name) or method(*args), method, name))
    return calls


class TestOneDerivativePerStep:
    """Every model step builds or draws its Hessian once; only a stale
    order-3 call, which never reads it, builds none."""

    def test_order_two_builds_one_hessian_per_step(self, logistic, monkeypatch):
        problem, x0 = logistic
        calls = counted_oracles(monkeypatch, problem, ["hessian"])
        trace = itm_run(problem, x0, RunConfig(p=2, max_iter=6))
        assert trace.status == "max-iter" and len(calls) == 6

    def test_reference_closing_oracle_builds_no_hessian(self, monkeypatch):
        # the run ends at the gradient floor, whose bundle no step reads
        problem = make_logistic(8, 300, seed=0)
        calls = counted_oracles(monkeypatch, problem, ["hessian", "gradient"])
        steps = []
        solve = methods.solve_model_p2
        monkeypatch.setattr(methods, "solve_model_p2",
                            lambda *args: steps.append(1) or solve(*args))
        reference_solution(problem)
        assert calls.count("hessian") == len(steps) == calls.count("gradient") - 1

    def test_sampled_run_draws_one_hessian_per_step(self, logistic, monkeypatch):
        # eps 1e-2 and kappa 10 sample orders 2 and 3: plan (298, 212, 23) of 300
        problem, x0 = logistic
        calls = counted_oracles(monkeypatch, problem, ["hessian", "batch_hessian"])
        trace = stm_run(problem, x0, RunConfig(p=3, eps=1e-2, kappa=(10.0,) * 3,
                                               max_iter=6))
        assert trace.status == "max-iter"
        assert all(0 < r.batch[1] < problem.m for r in trace.records[:-1])
        assert calls == ["batch_hessian"] * 6


class TestSharedLadder:
    @pytest.mark.parametrize("kind, p", [("logistic", 2), ("logistic", 3),
                                         ("quadratic", 2), ("quadratic", 3)],
                             ids=["2", "3", "quadratic-2", "quadratic-3"])
    def test_full_batch_stm_equals_itm(self, request, kind, p):
        problem, x0 = request.getfixturevalue(kind)
        config = RunConfig(p=p, kappa=(1e-6,) * p, max_iter=6, seed=3)
        stm = stm_run(problem, x0, config)
        itm = itm_run(problem, x0, config)
        full = (problem.m, problem.m, problem.m if p == 3 else 0)
        assert all(r.batch == full for r in stm.records[:-1])
        assert stm.records == itm.records
        assert stm.status == itm.status == "max-iter"

    @pytest.mark.parametrize("p, status, records",
                             [(2, "max-iter", 31), (3, "step-floor", 20)], ids=["2", "3"])
    def test_exact_itm_is_monotone(self, logistic, p, status, records):
        # at p=3 the run reaches the optimum and its steps fall to the floor
        problem, x0 = logistic
        trace = itm_run(problem, x0, RunConfig(p=p, max_iter=30))
        assert (trace.status, len(trace.records)) == (status, records)
        assert monotonicity_guard(trace) == []

    @pytest.mark.parametrize("run", [
        itm_run, stm_run, gd_baseline, functools.partial(gd_baseline, accelerated=True)],
        ids=["itm", "stm", "gd", "agd"])
    def test_one_value_call_per_record(self, logistic, monkeypatch, run):
        problem, x0 = logistic
        calls = []
        value = problem.value

        def counted(x):
            calls.append(x)
            return value(x)

        monkeypatch.setattr(problem, "value", counted)
        trace = run(problem, x0, RunConfig(p=3, kappa=(1.0, 1.0, 1.0), max_iter=4))
        assert len(trace.records) == 5
        assert len(calls) == len(trace.records)

    @pytest.fixture
    def reference_traces(self, monkeypatch):
        """The traces of the runs that ``reference_solution`` makes."""
        traces, run = [], methods.itm_run

        def kept(*args, **kwargs):
            traces.append(run(*args, **kwargs))
            return traces[-1]

        monkeypatch.setattr(methods, "itm_run", kept)
        return traces

    def test_reference_solution_returns_the_recorded_value(
            self, logistic, monkeypatch, reference_traces):
        problem, _ = logistic
        calls = []
        value = problem.value

        def counted(x):
            calls.append(x)
            return value(x)

        monkeypatch.setattr(problem, "value", counted)
        x_ref, f_ref = reference_solution(problem)
        assert len(reference_traces) == 1
        assert len(calls) == len(reference_traces[0].records)
        assert f_ref == value(x_ref)

    def test_reference_solution_reaches_the_gradient_floor(self, logistic, reference_traces):
        # the floor sqrt(2 mu eps_mach) certifies f(x_ref) - f_star <= eps_mach
        problem, _ = logistic
        x_ref, _ = reference_solution(problem)
        assert reference_traces[0].status == "grad-floor"
        assert reference_traces[0].final.k < 100
        grad_norm = float(np.linalg.norm(problem.gradient(x_ref)))
        assert grad_norm ** 2 / (2.0 * problem.mu) <= methods.EPS_MACH

    def test_reference_solution_at_the_rounding_floor_returns(self, reference_traces):
        # ||x*|| ~ 5e4, f_star ~ -2.7e8: the gradient rounds above 1e-12 there,
        # but not above the certified floor sqrt(2 mu eps_mach) ~ 6.7e-9
        quadratic = make_quadratic(20, seed=0, cond=10.0)
        problem = QuadraticProblem(quadratic.A, 1e4 * quadratic.b)
        _, f_ref = reference_solution(problem)
        assert reference_traces[0].status == "grad-floor"
        f_star = problem.value(np.linalg.solve(problem.A, problem.b))
        assert abs(f_ref - f_star) <= 1e-14 * abs(f_star)

    def test_reference_solution_without_modulus_at_the_rounding_floor_returns(
            self, reference_traces):
        # the quadratic above with its least eigenvalue set to 0, so mu = 0 and
        # the floor is 1e-12, and ||x*|| ~ 4e5: the gradient rounds above the
        # floor, the run stops at its step cap, and some of its steps did not
        # lower f
        singular = with_least_eigenvalue_zero(make_quadratic(20, seed=0, cond=10.0).A)
        x_star = 1e5 * np.random.default_rng(1).standard_normal(20)
        problem = QuadraticProblem(singular, singular @ x_star)
        assert problem.mu == 0.0
        _, f_ref = reference_solution(problem)
        assert reference_traces[0].status == "max-iter"
        f_star = problem.value(np.linalg.lstsq(problem.A, problem.b, rcond=None)[0])
        assert abs(f_ref - f_star) <= 1e-14 * abs(f_star)

    def test_reference_solution_without_modulus_keeps_the_absolute_floor(self, reference_traces):
        # with mu = 0 the floor is the absolute 1e-12, and the run and its
        # value are pinned bit for bit
        problem = make_logistic(8, 300, seed=0, mu=0.0)
        _, f_ref = reference_solution(problem)
        assert (reference_traces[0].status, reference_traces[0].final.k) == ("grad-floor", 36)
        assert f_ref == 0.4456693185698778

    @pytest.mark.parametrize("mu, max_iter, outcome", [
        (1e-3, 300, "returns"), (0.0, 300, "returns"),
        (1e-3, 3, "certified gap ||grad f||^2/(2 mu) = "), (0.0, 3, "mu = 0, no certified gap"),
    ], ids=["certified", "rounding-floor", "uncertified", "descending"])
    def test_reference_solution_at_its_step_cap(self, monkeypatch, mu, max_iter, outcome):
        # with both floors off the run reaches the step cap: at the optimum after
        # 300 steps, where the certificate (mu > 0) or a step that did not lower
        # f (mu = 0) accepts it, and still descending after 3, where it raises
        problem = make_logistic(8, 300, seed=0, mu=mu)
        _, f_floor = reference_solution(problem)
        run = methods.itm_run
        monkeypatch.setattr(methods, "itm_run", lambda problem, x0, config: run(
            problem, x0, dataclasses.replace(config, grad_stop=0.0, step_stop=0.0,
                                             max_iter=max_iter)))
        if outcome == "returns":
            _, f_ref = reference_solution(problem)
            assert abs(f_ref - f_floor) <= 4 * methods.EPS_MACH
        else:
            # the message names the cap of the solve, not the shortened run's
            with pytest.raises(SubsolverError, match=re.escape(
                    "reference solve stopped at its 300-step cap with " + outcome)):
                reference_solution(problem)

    @pytest.mark.parametrize("run, p", [
        (itm_run, 3), (stm_run, 3), (itm_run, 2),
        (gd_baseline, 3), (functools.partial(gd_baseline, accelerated=True), 3),
    ], ids=["itm-p3", "stm-p3", "itm-p2", "gd", "agd"])
    def test_each_moment_eigenvalue_only_for_the_runs_that_read_it(
            self, logistic, moment_calls, run, p):
        # every run reads a constant that needs a moment eigenvalue, and its one
        # profile computes lambda_2 and lambda_4 together, exactly once
        problem, x0 = logistic
        run(problem, x0, RunConfig(p=p, kappa=(1e-6,) * p, max_iter=3))
        assert moment_calls == ["_moment_maxima"]

    @pytest.mark.parametrize("run", [itm_run, stm_run], ids=["itm", "stm"])
    def test_non_finite_start_fails_before_the_oracle(self, logistic, monkeypatch, run):
        problem, x0 = logistic
        monkeypatch.setattr(problem, "value", lambda x: float("inf"))

        def no_oracle(*args):
            raise AssertionError("oracle ran at a non-finite start")

        for name in ("gradient", "batch_gradient"):
            monkeypatch.setattr(problem, name, no_oracle)
        with pytest.raises(StartPointError, match="start point"):
            run(problem, x0, RunConfig(p=3, kappa=(1.0, 1.0, 1.0), max_iter=4))

    def test_gradient_floor(self, logistic):
        problem, x0 = logistic
        trace = itm_run(problem, x0, RunConfig(p=2, grad_stop=1e-4, max_iter=200))
        assert trace.status == "grad-floor"
        assert np.linalg.norm(problem.gradient(trace.x_final)) <= 1e-4
        last = trace.final
        assert last.step_norm == 0.0 and last.batch == (0, 0, 0)
        assert last.grad_calls == problem.m * len(trace.records)

    def test_gradient_descent_stops_at_step_floor(self):
        problem = make_quadratic(4, seed=0, cond=4.0)
        trace = gd_baseline(problem, np.ones(4), RunConfig(eps=1e-6, max_iter=5000))
        assert trace.status == "step-floor"
        assert trace.records[-2].step_norm <= 1e-12
        assert trace.final.k == len(trace.records) - 1


class TestRunChecks:
    @pytest.mark.parametrize("fields, message", [
        ({"p": 4}, "shipped problems exercise p"),
        ({"eps": 0.0}, "target accuracy must be positive"),
        ({"kappa": "corollary", "diameter": -1.0}, "needs a positive diameter"),
        ({"mode": "online"}, "unknown mode 'online'"),
        ({"eps": math.nan}, "target accuracy must be positive"),
        ({"eps": math.inf}, "target accuracy must be positive"),
        ({"eps": True}, "target accuracy must be positive"),
        ({"max_iter": -1}, "max_iter must be a non-negative integer"),
        ({"max_iter": 2.5}, "max_iter must be a non-negative integer"),
        ({"max_iter": 3.0}, "max_iter must be a non-negative integer"),
        ({"max_iter": True}, "max_iter must be a non-negative integer"),
        ({"kappa": "bogus"}, "kappa must be 'exact', 'corollary' or 3 finite"),
        ({"kappa": (0.1, 0.1)}, "kappa must be 'exact', 'corollary' or 3 finite"),
        ({"p": 2, "kappa": (0.1,) * 3}, "kappa must be 'exact', 'corollary' or 2 finite"),
        ({"kappa": ["a", "b", "c"]}, "kappa must be"),
        ({"kappa": (math.nan, 0.0, 0.0)}, "kappa must be"),
        ({"kappa": (-1.0, 0.0, 0.0)}, "kappa must be"),
        ({"kappa": (True, 0.0, 0.0)}, "kappa must be"),
        ({"kappa": 0.1}, "kappa must be"),
        ({"kappa": np.full((1, 3), 0.1)}, "kappa must be"),
    ], ids=["p", "eps", "diameter", "mode", "eps-nan", "eps-inf", "eps-bool",
            "max-iter-negative", "max-iter-fraction", "max-iter-float", "max-iter-bool",
            "kappa-unknown", "kappa-short", "kappa-long", "kappa-strings", "kappa-nan",
            "kappa-negative", "kappa-bool", "kappa-scalar", "kappa-matrix"])
    def test_run_config_rejects(self, fields, message):
        with pytest.raises(ValueError, match=message):
            RunConfig(**fields)

    @pytest.mark.parametrize("kappa", [np.full(3, 0.1), [0.1, 0.1, 0.1], (np.float64(0.1),) * 3],
                             ids=["array", "list", "numpy-scalars"])
    def test_explicit_kappa_is_kept_as_floats(self, kappa):
        # any sequence of p tolerances builds; the run reads the tuple
        config = RunConfig(p=3, kappa=kappa, max_iter=1)
        assert config.kappa == (0.1, 0.1, 0.1)
        assert all(type(k) is float for k in config.kappa)
        problem = make_logistic(n=4, m=40, seed=5)
        assert itm_run(problem, np.zeros(4), config).status == "max-iter"

    @pytest.mark.parametrize("run, fields, field", [
        (itm_run, {"tau": math.nan}, "tau"),
        (itm_run, {"tau": math.inf}, "tau"),
        (stm_run, {"kappa": (math.inf, 0.0, 0.0), "mode": "stochastic"}, "kappas"),
    ], ids=["itm-tau-nan", "itm-tau-inf", "stm-kappa-inf"])
    def test_non_finite_model_input_is_rejected(self, run, fields, field):
        # the model's budget and config reject it before any derivative is taken
        problem = make_logistic(n=4, m=40, seed=5)
        with pytest.raises(ValueError, match=field):
            run(problem, np.zeros(4), RunConfig(p=3, max_iter=2, **fields))

    def test_overflowing_coupled_sigma_is_a_config_error(self):
        problem = make_logistic(n=4, m=40, seed=5)
        with pytest.raises(ConfigError, match="tau: the coupled sigma overflows at tau = 1e"):
            itm_run(problem, np.zeros(4), RunConfig(p=3, tau=1e300))

    @pytest.mark.parametrize("max_iter", [0, np.int64(2)])
    def test_integer_step_caps_stop_the_run(self, max_iter):
        problem = make_logistic(n=4, m=40, seed=5)
        trace = itm_run(problem, np.zeros(4), RunConfig(p=3, max_iter=max_iter))
        assert trace.status == "max-iter" and trace.final.k == max_iter

    @pytest.mark.parametrize("values, flagged", [
        ([3.0, 2.0, 2.5, 1.0, 1.5], [2, 4]),
        ([1.0, 1.0 + 1e-11], [1]),
        ([1.0, 1.0 + 1e-13], []),
        ([-1e6, -1e6 + 1e-7], []),
    ], ids=["increases", "above-tol", "within-tol", "relative-tol"])
    def test_monotonicity_guard_flags_increases(self, values, flagged):
        trace = RunTrace(records=[IterationRecord(k, f, 0.0, 0, (0, 0, 0), 0, 0, 0)
                                  for k, f in enumerate(values)])
        assert monotonicity_guard(trace) == flagged


class TestRateTheory:
    @pytest.mark.parametrize("name, kappa", [
        ("itm-p2", None), ("itm-p3", None), ("itm-p3", "corollary"), ("stm-p3", None)])
    def test_gaps_stay_below_residual_bound(self, golden_run, name, kappa):
        # measured worst gap/bound ratio over these 16 runs: 1.3e-2 (ITM p=2)
        if kappa is None:
            config, result = golden_config(name), golden_run(name)[0]
        else:
            config = golden_config(name, kappa=kappa)
            result = run_experiment(config)
        problem = build_problem(GOLDEN_PROBLEM)
        x_ref, _ = reference_solution(problem)
        p = config.p
        for (eps, seed), trace in result.traces.items():
            x0 = start_point(problem, config.x0_offset, seed)
            run = RunConfig(p=p, eps=eps, kappa=config.kappa, tau=config.tau,
                            diameter=2.0 * float(np.linalg.norm(x0 - x_ref)))
            profile = default_profile(problem, x0)
            budget, mconfig = resolve_model(run, profile)
            kappas, sigma = budget.kappas, mconfig.sigma
            for rec in trace.records:
                if rec.k >= 1:
                    bound = theoretical_residual_bound(
                        rec.k - 1, kappas, eps, run.diameter, profile.lip(p), sigma, p)
                    assert rec.f - result.f_ref <= bound, (eps, seed, rec.k)

    def test_stm_corollary_exponents(self):
        # measured: q_iter 0.135, q_grad - q_iter 2.000, q_hess - q_iter 1.333,
        # third-order exponent 0.801
        config = ExperimentConfig.from_dict({
            "version": 1, "method": "stm", "kappa": "corollary",
            "problem": {"kind": "online-logistic", "n": 4, "pool": 2048},
            "eps": [1e-2, 1e-3], "seeds": [0, 1]})
        summary = complexity_sweep(config)
        thirds = summary.third_totals
        q_third = math.log(thirds[1] / thirds[0]) / math.log(summary.eps[0] / summary.eps[1])
        assert summary.q_grad - summary.q_iter == pytest.approx(2.0, abs=1e-2)
        assert summary.q_hess - summary.q_iter == pytest.approx(4 / 3, abs=1e-2)
        assert q_third == pytest.approx(2 / 3 + summary.q_iter, abs=1e-2)
        assert summary.q_iter <= 1 / config.p

    def test_budget_with_default_kappas_meets_eps(self):
        # measured worst bound/eps ratio over this grid: 0.72
        for p, eps, lip, diameter in itertools.product(
                (2, 3), np.logspace(-2, -8, 7), np.logspace(-3, 3, 7), np.logspace(-1, 1, 5)):
            for sigma in (lip, 24.0 * lip):
                budget = iteration_budget(eps, lip, sigma, diameter, p)
                kappas = kappa_defaults(lip, diameter, p)
                bound = theoretical_residual_bound(budget, kappas, eps, diameter, lip, sigma, p)
                assert bound <= eps, (p, eps, lip, diameter, sigma)


if __name__ == "__main__":
    for cfg_name in sorted(GOLDEN_CONFIGS):
        run_experiment(golden_config(cfg_name, out=os.path.join(GOLDEN_DIR, cfg_name)))
        print(f"wrote {os.path.join(GOLDEN_DIR, cfg_name)}", file=sys.stderr)
