"""Outer-loop behaviour: golden trace replays, STM/ITM agreement, monotonicity.

The golden fixtures under ``tests/golden/<name>/`` are the trace CSVs and
``summary.json`` that ``run_experiment`` writes for each config in
``GOLDEN_CONFIGS``. They pin the stopping ladder and the recorded columns of
every method byte for byte. Regenerate them (only when a change to the traces
is intended) with

    PYTHONPATH=src python tests/test_methods.py
"""

import os
import sys

import numpy as np
import pytest

from tensorstep import (
    ExperimentConfig,
    RunConfig,
    gd_baseline,
    make_logistic,
    make_quadratic,
    run_experiment,
)
from tensorstep.bench import start_point
from tensorstep.methods import itm_run, monotonicity_guard, stm_run

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


def golden_config(name) -> ExperimentConfig:
    return ExperimentConfig.from_dict({
        "version": 1, "problem": GOLDEN_PROBLEM, "eps": [1e-6, 1e-3],
        "seeds": [0, 1], "max_iter": 40, **GOLDEN_CONFIGS[name],
    })


def read_tree(directory) -> dict:
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


class TestGoldenTraces:
    @pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
    def test_replay_is_byte_identical(self, name, tmp_path):
        run_experiment(golden_config(name), out_dir=str(tmp_path))
        expected = read_tree(os.path.join(GOLDEN_DIR, name))
        assert read_tree(tmp_path) == expected


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

    def test_sigma_rejected_at_order_three(self):
        RunConfig(p=2, sigma=1.0)
        with pytest.raises(ValueError, match="sigma"):
            RunConfig(p=3, sigma=1.0)


if __name__ == "__main__":
    for cfg_name in sorted(GOLDEN_CONFIGS):
        run_experiment(golden_config(cfg_name), out_dir=os.path.join(GOLDEN_DIR, cfg_name))
        print(f"wrote {os.path.join(GOLDEN_DIR, cfg_name)}", file=sys.stderr)
