"""Measurement loops, metrics and result output of the benchmark.

``--trace 0`` times untraced solves and reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced solves and reports the
per-layer metrics of the traced ones, with their median self times and the
traced-minus-untraced solve time as ``trace.overhead_s``. Every solve is one
operation; it fails if it raises or fails its workload's check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

import numpy as np

import tracer as tracing
import workloads
from workloads import WORKLOADS

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 7

END_TO_END_UNITS = {
    "setup_s": "s", "solve_s": "s", "outer_iters": "count",
    "oracle_calls": "count", "final_gap": "1", "peak_rss_mb": "MiB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith(".calls") or name in ("linalg.rows_contracted",
                                           "subsolvers.inner_steps",
                                           "subsolvers.errors") \
            or name.startswith("sampling.batch_n"):
        return "count"
    if name.endswith("_s") or name.endswith("_s.p50"):
        return "s"
    return {"linalg.bytes_computed": "B",
            "subsolvers.inner_steps_per_outer": "steps/iter"}.get(name, "1")


# ---------------------------------------------------------------------------
# one operation
# ---------------------------------------------------------------------------

def attempt(workload, inst, seed, check, tracer=None):
    """One timed solve; returns ``(seconds, outcome or None, errors)``."""
    start = time.perf_counter()
    try:
        if tracer is None:
            out = workloads.solve(workload, inst, seed)
        else:
            with tracing.instrument(tracer):
                out = workloads.solve(workload, inst, seed)
    except Exception as exc:  # a raising solve is a failed operation, not a crash
        return time.perf_counter() - start, None, [f"{type(exc).__name__}: {exc}"]
    elapsed = time.perf_counter() - start
    return elapsed, out, check(workload, inst, out)


def _ran_out(deadline, times) -> bool:
    """True when the next solve, as long as the median so far, would overrun."""
    return time.perf_counter() + statistics.median(times) > deadline


def _count_failure(errors, failed):
    for err in errors:
        print(f"check failed: {err}", file=sys.stderr)
    return failed + bool(errors)


def run_untraced(workload, seed, seconds, check=workloads.check) -> dict:
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        inst = workloads.build_instance(workload, seed)
        setups.append(time.perf_counter() - start)

    times, failed, last = [], 0, None
    deadline = time.perf_counter() + seconds
    while not times or not _ran_out(deadline, times):
        elapsed, out, errors = attempt(workload, inst, seed, check)
        times.append(elapsed)
        failed = _count_failure(errors, failed)
        last = out or last
    metrics = {
        "setup_s": statistics.median(setups),
        "solve_s": statistics.median(times),
        "outer_iters": workloads.outer_iters(last) if last else 0,
        "oracle_calls": workloads.oracle_calls(last) if last else 0,
        "final_gap": workloads.final_gap(inst, last) if last else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return _result(len(times), failed, metrics, END_TO_END_UNITS.__getitem__)


def run_traced(workload, seed, seconds, check=workloads.check):
    """Per-layer result and the spans of the last traced solve."""
    inst = workloads.build_instance(workload, seed)
    plain, traced, layered = [], [], []
    failed, tracer, last = 0, None, None
    deadline = time.perf_counter() + seconds
    while not traced or not _ran_out(deadline, [a + b for a, b in zip(plain, traced)]):
        elapsed, out, errors = attempt(workload, inst, seed, check)
        plain.append(elapsed)
        failed = _count_failure(errors, failed)
        tracer = tracing.Tracer()
        elapsed, out, errors = attempt(workload, inst, seed, check, tracer)
        traced.append(elapsed)
        failed = _count_failure(errors, failed)
        layered.append(tracing.layer_metrics(tracer))
        last = out or last

    metrics = {key: statistics.median(run[key] for run in layered) for key in layered[0]}
    steps = workloads.inner_steps(last) if last else 0
    outer = workloads.outer_iters(last) if last else 0
    metrics["subsolvers.inner_steps"] = steps
    metrics["subsolvers.inner_steps_per_outer"] = steps / outer if outer else 0.0
    metrics["methods.ref_grad_norm"] = (
        float(np.linalg.norm(workloads.objective_gradient(inst.problem, last.x_final)))
        if last and workload.method == "reference" else 0.0)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    result = _result(len(plain) + len(traced), failed, metrics, per_layer_unit)
    return result, tracer.spans


def _result(attempted, failed, metrics, unit) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit(name)}
                    for name, value in metrics.items()},
    }


# ---------------------------------------------------------------------------
# environment and output
# ---------------------------------------------------------------------------

def git_sha(root: str) -> str:
    """Commit of the checkout read from ``.git``, or ``unknown`` outside git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: str) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):    # numpy < 1.25 has no dict mode
        blas = "unknown"
    return {
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: value for var, value in sorted(os.environ.items())
                    if var.endswith("_NUM_THREADS")},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description="tensorstep solver benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv, root: str) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    spans = None
    if args.trace:
        result, spans = run_traced(workload, args.seed, args.seconds)
    else:
        result = run_untraced(workload, args.seed, args.seconds)
    env = environment(root)

    out_dir = os.path.join(root, "perfbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "result": result}
    if spans is not None:
        origin = spans[0][1] if spans else 0.0
        record["spans"] = [[name, start - origin, end - origin, parent]
                           for name, start, end, parent, _ in spans]
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh)

    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0
