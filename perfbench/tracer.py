"""Span tracer over the public entry points of each ``tensorstep`` layer.

``instrument(tracer)`` replaces each entry point, at the name its caller
looks up, with a wrapper that records a span ``(name, start, end, parent)``
in memory, and puts every original back on exit. ``methods`` binds the
subsolver, sampling and bundle functions as its own globals, so those are
wrapped on ``tensorstep.methods``; ``solve_model_p2`` looks up
``solve_regularized_quartic`` on ``tensorstep.subsolvers``. Derivative and
contraction methods are wrapped on their classes.

A span's self time is its duration minus the durations of its direct
children, so the self times of all spans under a root add up to the root's
duration; the wrapper's own bookkeeping lands in the parent's self time.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time
from collections import Counter

from tensorstep import linalg, methods, models, problems, subsolvers
from tensorstep.sampling import EXACT

LAYERS = ("problems", "linalg", "models", "subsolvers", "sampling", "methods")

#: Entry points whose calls and self time are reported one by one.
REPORTED = (
    "problems.value", "problems.gradient", "problems.hessian", "problems.third",
    "problems.batch_gradient", "problems.batch_hessian", "problems.batch_third",
    "problems.draw",
    "linalg.apply", "linalg.apply2", "linalg.apply3",
    "models.zeta", "models.zeta_grad",
    "subsolvers.bregman_minimize_zeta", "subsolvers.solve_model_p2",
    "subsolvers.solve_regularized_quartic",
    "sampling.plan_batches", "sampling.sample_bundle",
    "methods.exact_bundle",
)

RUNS = ("methods.itm_run", "methods.stm_run")


class Tracer:
    """In-memory spans plus the counters observed at span boundaries."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1, raised]
        self.counts = Counter()
        self.plan_sizes = None   # sizes of the last batch plan
        self._open = []

    def wrap(self, name, fn, observe=None):
        spans, stack, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, False]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                observe(self, args, result)
            return result

        return traced


def _contracted(tracer, args, result):
    rows = args[0].rows
    tracer.counts["rows"] += rows.shape[0]
    tracer.counts["bytes"] += rows.shape[0] * rows.shape[1] * 8


def _sampled_third(tracer, args, result):
    tracer.counts["third_rows"] += result.weights.size
    tracer.counts["third_useful_rows"] += int((result.weights != 0.0).sum())


def _plan(tracer, args, result):
    m = args[2].m
    tracer.plan_sizes = tuple(m if s == EXACT else s for s in result.sizes)


def entry_points():
    """``(owner, attribute, span name, observer)`` for every traced call."""
    logistic = problems.LogisticProblem
    out = [(logistic, attr, f"problems.{attr}", None) for attr in (
        "value", "gradient", "hessian", "third", "batch_gradient",
        "batch_hessian", "draw", "lipschitz_profile")]
    out.append((logistic, "batch_third", "problems.batch_third", _sampled_third))
    out += [(linalg.RankOneSumTensor3, attr, f"linalg.{attr}", _contracted)
            for attr in ("apply", "apply2", "apply3")]
    out += [(models.TaylorModel, attr, f"models.{attr}", None)
            for attr in ("zeta", "zeta_grad")]
    out += [(methods, attr, f"subsolvers.{attr}", None)
            for attr in ("bregman_minimize_zeta", "solve_model_p2")]
    out.append((subsolvers, "solve_regularized_quartic",
                "subsolvers.solve_regularized_quartic", None))
    out.append((methods, "plan_batches", "sampling.plan_batches", _plan))
    out.append((methods, "sample_bundle", "sampling.sample_bundle", None))
    out += [(methods, attr, f"methods.{attr}", None) for attr in (
        "exact_bundle", "itm_run", "stm_run", "reference_solution")]
    return out


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route every entry point through ``tracer`` for the ``with`` body."""
    saved = []
    try:
        for owner, attr, name, observe in entry_points():
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, observe))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans) -> list:
    children = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent] += end - start
    return [(end - start) - child
            for (_, start, end, _, _), child in zip(spans, children)]


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer calls, self times and counters of one traced solve."""
    spans = tracer.spans
    calls, self_s = Counter(), Counter()
    layer_s = dict.fromkeys(LAYERS, 0.0)
    for span, own in zip(spans, self_times(spans)):
        calls[span[0]] += 1
        self_s[span[0]] += own
        layer_s[span[0].split(".")[0]] += own
    out = {}
    for name in REPORTED:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    out["problems.lipschitz_profile.self_s"] = self_s["problems.lipschitz_profile"]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_s[layer]
    out["linalg.rows_contracted"] = tracer.counts["rows"]
    out["linalg.bytes_computed"] = tracer.counts["bytes"]
    out["subsolvers.errors"] = sum(
        1 for span in spans if span[4] and span[0].startswith("subsolvers."))
    for order, size in enumerate(tracer.plan_sizes or (0, 0, 0), start=1):
        out[f"sampling.batch_n{order}"] = size
    rows = tracer.counts["third_rows"]
    out["sampling.third_useful_ratio"] = (
        tracer.counts["third_useful_rows"] / rows if rows else 0.0)
    out["methods.outer_iter_s.p50"] = _outer_iteration_p50(spans)
    out["trace.solve_s"] = sum(end - start for _, start, end, parent, _ in spans
                               if parent < 0)
    return out


def _outer_iteration_p50(spans) -> float:
    """Median gap between the bundle requests of consecutive outer steps."""
    runs = {i for i, span in enumerate(spans) if span[0] in RUNS}
    starts = [span[1] for span in spans if span[3] in runs
              and span[0] in ("methods.exact_bundle", "sampling.plan_batches")]
    gaps = [b - a for a, b in zip(starts, starts[1:])]
    return statistics.median(gaps) if gaps else 0.0
