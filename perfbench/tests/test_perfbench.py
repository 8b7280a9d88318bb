"""Self-tests of the benchmark harness, on tiny instances.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import json
import math
import os
import sys
from dataclasses import replace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [os.path.dirname(HERE), os.path.join(ROOT, "src")]

import harness  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

#: Sizes at which each workload still passes its own check in under a second.
TINY = {
    "itm-logistic": (5, 200),
    "reference-logistic": (5, 200),
    "stm-sampled": (5, 2000),
    "itm-wide": (20, 40),
}


def tiny(name):
    n, m = TINY[name]
    return replace(workloads.WORKLOADS[name], n=n, m=m)


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def test_declared_workloads_exist():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    assert sorted(names) == sorted(workloads.WORKLOADS) == sorted(TINY)


@pytest.mark.parametrize("name", sorted(TINY))
def test_untraced_run_reports_every_end_to_end_metric(name):
    result = harness.run_untraced(tiny(name), seed=3, seconds=0)
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 1, 0)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_reports_every_per_layer_metric(name):
    result, spans = harness.run_traced(tiny(name), seed=3, seconds=0)
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 2, 0)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == declared("per_layer")
    assert spans


@pytest.mark.parametrize("name", sorted(TINY))
def test_self_times_add_up_to_traced_solve_time(name):
    workload = tiny(name)
    inst = workloads.build_instance(workload, 3)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        workloads.solve(workload, inst, 3)
    metrics = tracing.layer_metrics(tracer)
    total = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert math.isclose(total, metrics["trace.solve_s"], rel_tol=1e-9)
    root = tracer.spans[0]
    assert math.isclose(metrics["trace.solve_s"], root[2] - root[1], rel_tol=1e-12)


def test_wrappers_are_removed_after_traced_run():
    before = [vars(owner)[attr] for owner, attr, _, _ in tracing.entry_points()]
    harness.run_traced(tiny("stm-sampled"), seed=3, seconds=0)
    after = [vars(owner)[attr] for owner, attr, _, _ in tracing.entry_points()]
    assert all(a is b for a, b in zip(before, after))


def test_failed_check_counts_as_failed_operation():
    def always_wrong(workload, inst, out):
        return ["forced failure"]

    result = harness.run_untraced(tiny("itm-logistic"), seed=3, seconds=0,
                                  check=always_wrong)
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 1, 1)


def test_seed_changes_inputs_but_not_the_optimum():
    workload = tiny("itm-logistic")
    a = workloads.build_instance(workload, 1)
    b = workloads.build_instance(workload, 2)
    assert not (a.problem.features == b.problem.features).all()
    assert math.isclose(a.f_star, b.f_star, rel_tol=1e-12)
    again = workloads.build_instance(workload, 1)
    assert (a.problem.features == again.problem.features).all()
