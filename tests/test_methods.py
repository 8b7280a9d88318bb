"""Outer-loop behaviour: golden trace replays, STM/ITM agreement, monotonicity,
and the rate theory (gaps below the residual bound, budgets that meet eps).

The golden fixtures under ``tests/golden/<name>/`` are the trace CSVs and
``summary.json`` that ``run_experiment`` writes for each config in
``GOLDEN_CONFIGS``. They pin the stopping ladder and the recorded columns of
every method byte for byte. Regenerate them (only when a change to the traces
is intended) with

    PYTHONPATH=src python tests/test_methods.py
"""

import itertools
import os
import sys

import numpy as np
import pytest

from tensorstep import (
    ExperimentConfig,
    RunConfig,
    gd_baseline,
    iteration_budget,
    kappa_defaults,
    make_logistic,
    make_quadratic,
    reference_solution,
    run_experiment,
    theoretical_residual_bound,
)
from tensorstep.bench import build_problem, start_point
from tensorstep.methods import (
    default_profile,
    itm_run,
    monotonicity_guard,
    resolve_kappas,
    resolve_model_config,
    stm_run,
)

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


def golden_config(name, **overrides) -> ExperimentConfig:
    return ExperimentConfig.from_dict({
        "version": 1, "problem": GOLDEN_PROBLEM, "eps": [1e-6, 1e-3],
        "seeds": [0, 1], "max_iter": 40, **GOLDEN_CONFIGS[name], **overrides,
    })


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
            runs[name] = run_experiment(golden_config(name), out_dir=str(out)), out
        return runs[name]

    return run


class TestGoldenTraces:
    @pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
    def test_replay_is_byte_identical(self, name, golden_run):
        _, out = golden_run(name)
        expected = read_tree(os.path.join(GOLDEN_DIR, name))
        assert read_tree(out) == expected


@pytest.fixture(scope="module")
def logistic():
    problem = make_logistic(n=8, m=300, seed=0)
    return problem, start_point(problem, 1.0, 0)


class TestSharedLadder:
    @pytest.mark.parametrize("p", [2, 3])
    def test_full_batch_stm_equals_itm(self, logistic, p):
        problem, x0 = logistic
        config = RunConfig(p=p, kappa=(1e-6,) * p, max_iter=6, seed=3)
        stm = stm_run(problem, x0, config)
        itm = itm_run(problem, x0, config)
        full = (problem.m, problem.m, problem.m if p == 3 else 0)
        assert all(r.batch == full for r in stm.records[:-1])
        assert stm.records == itm.records
        assert stm.status == itm.status == "max-iter"

    @pytest.mark.parametrize("p", [2, 3])
    def test_exact_itm_is_monotone(self, logistic, p):
        problem, x0 = logistic
        trace = itm_run(problem, x0, RunConfig(p=p, max_iter=30))
        assert len(trace.records) == 31
        assert monotonicity_guard(trace) == []

    @pytest.mark.parametrize("run", [itm_run, stm_run], ids=["itm", "stm"])
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
        trace = gd_baseline(problem, np.ones(4), eps=1e-6, max_iter=5000)
        assert trace.status == "step-floor"
        assert trace.records[-2].step_norm <= 1e-12
        assert trace.final.k == len(trace.records) - 1


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
            kappas = resolve_kappas(run, profile)
            sigma = resolve_model_config(run, profile, kappas).sigma
            for rec in trace.records:
                if rec.k >= 1:
                    bound = theoretical_residual_bound(
                        rec.k - 1, kappas, eps, run.diameter, profile.lip(p), sigma, p)
                    assert rec.f - result.f_ref <= bound, (eps, seed, rec.k)

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
        run_experiment(golden_config(cfg_name), out_dir=os.path.join(GOLDEN_DIR, cfg_name))
        print(f"wrote {os.path.join(GOLDEN_DIR, cfg_name)}", file=sys.stderr)
