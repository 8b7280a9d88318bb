"""Experiment harness: configs, trace CSVs, rate fitting, complexity sweeps.

Config files are JSON with a required ``version`` field; every run is
replayable from its config and seed, and deterministic runs rewrite
byte-identical CSVs. The other top-level fields are those of
``ExperimentConfig``, each with the default written there; ``problem`` is
required. A problem block names its ``kind`` and gives the fields of the
class or generator that builds it (``PROBLEM_BUILDERS``):

    quadratic            A, b
    logistic-finite-sum  features, labels; optional mu, mode, clamp
    quadratic-synthetic  n; optional seed, cond
    logistic-synthetic   n, m; optional seed, mu, row_scale, flip_fraction, mode
    online-logistic      n; optional pool, seed, mu, clamp, flip_fraction

An optional field left out takes the builder's default. A missing, ill-typed
or unknown field, at the top level or in the problem block, is a
``ConfigError`` naming it (the CLI exits 1), and so is a top-level field the
chosen method never reads (``UNREAD_KEYS``; ``tau`` is read only at ``p: 3``
and ``diameter`` only under ``kappa: "corollary"``). Traces use the fixed
column set

    k, f_gap, step_norm, n1, n2, n3, inner_iters,
    grad_calls, hess_calls, third_calls

with gaps measured against a high-accuracy reference solution computed once
per problem.
"""

from __future__ import annotations

import csv
import inspect
import json
import math
import os
import tempfile
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConfigError, DimensionMismatchError, InsufficientDataError
from .methods import (
    RunConfig,
    RunTrace,
    gd_baseline,
    itm_run,
    reference_solution,
    stm_run,
)
from .problems import (
    LogisticProblem,
    QuadraticProblem,
    make_logistic,
    make_online_logistic,
    make_quadratic,
)

CONFIG_VERSION = 1

TRACE_COLUMNS = ("k", "f_gap", "step_norm", "n1", "n2", "n3", "inner_iters",
                 "grad_calls", "hess_calls", "third_calls")

VALID_METHODS = ("itm", "stm", "gd", "agd")

#: Config keys a method never reads: a config that gives one is rejected.
#: ``tau`` is read only at ``p: 3`` (the order-2 model step has no Bregman
#: inner loop), and ``diameter`` only under ``kappa: "corollary"``, whatever
#: the method.
UNREAD_KEYS = {
    "gd": ("kappa", "tau", "delta", "diameter"),
    "agd": ("kappa", "tau", "delta", "diameter"),
    "itm": ("delta",),
}

#: What builds each problem kind. A block's fields are the builder's
#: parameters: those without a default are required, and a field the block
#: leaves out takes the builder's default.
PROBLEM_BUILDERS = {
    "quadratic": QuadraticProblem,
    "logistic-finite-sum": LogisticProblem,
    "quadratic-synthetic": make_quadratic,
    "logistic-synthetic": make_logistic,
    "online-logistic": make_online_logistic,
}

#: Arrays of an inline problem block and their number of dimensions.
PROBLEM_ARRAYS = {"A": 2, "b": 1, "features": 2, "labels": 1}


# ---------------------------------------------------------------------------
# rate fitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    window: tuple
    rms: float


def fit_rate(ks, gaps, p: int, f_ref: float | None = None) -> RateFit:
    """Least-squares slope of ``log(gap)`` against ``log(k + p + 1)``.

    Drops the first two points and anything within 100 machine epsilons of
    the reference value (the numerical floor). Needs at least five usable
    points.
    """
    ks = np.asarray(ks, dtype=float)
    gaps = np.asarray(gaps, dtype=float)
    if ks.shape != gaps.shape:
        raise ValueError("iteration and gap arrays must align")
    floor = 0.0
    if f_ref is not None:
        floor = 100.0 * np.finfo(float).eps * abs(f_ref)
    keep = (np.arange(ks.size) >= 2) & (gaps > max(floor, 0.0))
    if keep.sum() < 5:
        raise InsufficientDataError(
            f"only {int(keep.sum())} usable points above the floor, need 5")
    xs = np.log(ks[keep] + p + 1)
    ys = np.log(gaps[keep])
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    window = (int(ks[keep][0]), int(ks[keep][-1]))
    return RateFit(float(slope), float(intercept), window,
                   float(np.sqrt(np.mean(resid ** 2))))


# ---------------------------------------------------------------------------
# config parsing and validation
# ---------------------------------------------------------------------------

def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """An int or float that is finite as a float; JSON ``true``/``false``,
    ``NaN``, ``Infinity`` and integers beyond the float range are not."""
    if not (_is_int(value) or isinstance(value, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _is_count(value) -> bool:
    """A positive integer."""
    return _is_int(value) and value >= 1


def _is_array(value, ndim: int) -> bool:
    """A nonempty nested list of finite numbers with ``ndim`` dimensions."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        return False
    return arr.ndim == ndim and arr.size > 0 and bool(np.all(np.isfinite(arr)))


#: Checks on the scalar fields of a problem block: field -> (test, requirement).
PROBLEM_FIELD_CHECKS = {
    "n": (_is_count, "a positive integer"),
    "m": (_is_count, "a positive integer"),
    "pool": (_is_count, "a positive integer"),
    "seed": (lambda v: _is_int(v) and v >= 0, "a nonnegative integer"),
    "mu": (lambda v: _is_number(v) and v >= 0, "a nonnegative number"),
    "cond": (lambda v: _is_number(v) and v > 0, "a positive number"),
    "row_scale": (lambda v: _is_number(v) and v > 0, "a positive number"),
    "clamp": (lambda v: _is_number(v) and v > 0, "a positive number"),
    "flip_fraction": (lambda v: _is_number(v) and 0 <= v <= 1, "a number in [0, 1]"),
    "mode": (lambda v: v in ("offline", "online"), "'offline' or 'online'"),
}


@dataclass
class ExperimentConfig:
    problem: dict
    method: str = "itm"
    p: int = 3
    eps: tuple = (1e-6,)
    seeds: tuple = (0,)
    kappa: object = "exact"
    delta: float = 0.1
    tau: float = 4.0
    max_iter: int = 100
    diameter: float | None = None
    x0_offset: float = 1.0
    out: str | None = None

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError(["config: top level must be an object"])
        defaults = {f.name: f.default for f in fields(cls)}
        problems = [f"{key}: unknown field" for key in data
                    if key != "version" and key not in defaults]
        values = {**defaults, **data}
        version = data.get("version")
        if version != CONFIG_VERSION:
            problems.append(f"version: expected {CONFIG_VERSION}, got {version!r}")
        prob = values["problem"]
        if not isinstance(prob, dict):
            problems.append("problem: required object is missing")
        method = values["method"]
        if not isinstance(method, str) or method not in VALID_METHODS:
            problems.append(f"method: must be one of {VALID_METHODS}, got {method!r}")
        p = values["p"]
        if not _is_int(p) or p not in (2, 3):
            problems.append(f"p: must be 2 or 3, got {p!r}")
        eps = values["eps"]
        if not isinstance(eps, (list, tuple)) or len(eps) == 0:
            problems.append("eps: must be a nonempty list")
        elif any(not _is_number(e) or e <= 0 for e in eps):
            problems.append("eps: entries must be positive numbers")
        seeds = values["seeds"]
        if not isinstance(seeds, (list, tuple)) or len(seeds) == 0:
            problems.append("seeds: must be a nonempty list")
        elif any(not _is_int(s) or s < 0 for s in seeds):
            problems.append("seeds: entries must be nonnegative integers")
        elif len(set(seeds)) != len(seeds):
            problems.append("seeds: entries must be distinct")
        kappa = values["kappa"]
        if isinstance(kappa, str):
            if kappa not in ("exact", "corollary"):
                problems.append(f"kappa: unknown policy {kappa!r}")
        elif isinstance(kappa, (list, tuple)):
            if len(kappa) != p or any(not _is_number(k) or k < 0 for k in kappa):
                problems.append("kappa: explicit array needs p nonnegative entries")
        else:
            problems.append("kappa: must be a policy name or an array")
        tau = values["tau"]
        if not _is_number(tau):
            problems.append(f"tau: must be a number, got {tau!r}")
        elif method in ("itm", "stm") and p != 2 and tau <= 2:
            problems.append(f"tau: must be > 2 for {method}, got {tau!r}")
        delta = values["delta"]
        if not _is_number(delta) or not 0 < delta <= 1:
            problems.append(f"delta: must be in (0, 1], got {delta!r}")
        max_iter = values["max_iter"]
        if not _is_count(max_iter):
            problems.append(f"max_iter: must be a positive integer, got {max_iter!r}")
        diameter = values["diameter"]
        if diameter is not None and (not _is_number(diameter) or diameter <= 0):
            problems.append("diameter: must be a positive number when given")
        x0_offset = values["x0_offset"]
        if not _is_number(x0_offset):
            problems.append(f"x0_offset: must be a number, got {x0_offset!r}")
        out = values["out"]
        if out is not None and not isinstance(out, str):
            problems.append(f"out: must be a path string, got {out!r}")
        unread = UNREAD_KEYS.get(method, ()) if isinstance(method, str) else ()
        problems += [f"{key}: not read by method {method!r}"
                     for key in unread if key in data]
        if "tau" in data and "tau" not in unread and p == 2:
            problems.append("tau: not read at p 2")
        if "diameter" in data and "diameter" not in unread and kappa != "corollary":
            problems.append("diameter: read only with kappa 'corollary'")
        if problems:
            raise ConfigError(problems)
        return cls(
            problem=prob, method=method, p=p,
            eps=tuple(float(e) for e in eps),
            seeds=tuple(int(s) for s in seeds),
            kappa=tuple(kappa) if isinstance(kappa, (list, tuple)) else kappa,
            delta=float(delta), tau=float(tau),
            max_iter=max_iter, diameter=diameter,
            x0_offset=float(x0_offset), out=out,
        )


def load_config(path):
    """The JSON of a config file, unvalidated (``ExperimentConfig.from_dict`` checks it)."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError([f"config: cannot read {path}: {exc}"]) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            [f"config: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"]
        ) from exc
    return data


def _field_errors(kwargs: dict, kind: str) -> list:
    """Missing, unknown and ill-typed fields, besides ``kind``, of a problem block."""
    params = inspect.signature(PROBLEM_BUILDERS[kind]).parameters
    bad = [f"problem.{name}: required for kind {kind!r}"
           for name, param in params.items()
           if param.default is param.empty and name not in kwargs]
    for key, value in kwargs.items():
        if key not in params:
            bad.append(f"problem.{key}: unknown field for kind {kind!r}")
        elif key in PROBLEM_FIELD_CHECKS:
            test, wanted = PROBLEM_FIELD_CHECKS[key]
            if not test(value):
                bad.append(f"problem.{key}: must be {wanted}, got {value!r}")
        elif key in PROBLEM_ARRAYS and not _is_array(value, PROBLEM_ARRAYS[key]):
            bad.append(f"problem.{key}: must be a nonempty {PROBLEM_ARRAYS[key]}-d "
                       f"array of finite numbers")
    return bad


def build_problem(spec: dict):
    """Instantiate a problem from its config block through ``PROBLEM_BUILDERS``.

    Every field is checked before it reaches numpy, so a malformed block is a
    ``ConfigError`` naming the field.
    """
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in PROBLEM_BUILDERS:
        raise ConfigError([f"problem.kind: must be one of {tuple(PROBLEM_BUILDERS)}, "
                           f"got {kind!r}"])
    kwargs = {key: value for key, value in spec.items() if key != "kind"}
    bad = _field_errors(kwargs, kind)
    if bad:
        raise ConfigError(bad)
    try:
        return PROBLEM_BUILDERS[kind](**kwargs)
    except (ValueError, DimensionMismatchError) as exc:
        raise ConfigError([f"problem: {exc}"]) from exc


def start_point(problem, offset: float, seed: int) -> np.ndarray:
    """Deterministic start at distance ``offset`` from the origin."""
    rng = np.random.default_rng(seed + 10_000)
    direction = rng.standard_normal(problem.dim)
    direction /= np.linalg.norm(direction)
    return offset * direction


# ---------------------------------------------------------------------------
# trace IO
# ---------------------------------------------------------------------------

def trace_rows(trace: RunTrace):
    f_ref = trace.f_ref if trace.f_ref is not None else 0.0
    for rec in trace.records:
        n1, n2, n3 = rec.batch
        yield (rec.k, rec.f - f_ref, rec.step_norm, n1, n2, n3,
               rec.inner_iters, rec.grad_calls, rec.hess_calls, rec.third_calls)


def _write_atomically(path, write) -> None:
    """``write(fh)`` to a temporary file, then ``os.replace`` it onto ``path``."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_trace_csv(path, trace: RunTrace) -> None:
    """Atomic CSV write with a fixed float format (17 significant digits)."""
    def write(fh):
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for row in trace_rows(trace):
            writer.writerow([_fmt(v) for v in row])

    _write_atomically(path, write)


def _fmt(value):
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def load_trace_csv(path):
    """Columns of a trace CSV as a dict of arrays."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    out = {}
    for col in TRACE_COLUMNS:
        out[col] = np.array([float(r[col]) for r in rows])
    return out


# ---------------------------------------------------------------------------
# experiment driver
# ---------------------------------------------------------------------------

@dataclass
class ExperimentResult:
    traces: dict            # (eps, seed) -> RunTrace
    f_ref: float
    files: list = field(default_factory=list)


def run_cell(problem, config: ExperimentConfig, eps: float, seed: int,
             f_ref: float, x_ref) -> RunTrace:
    x0 = start_point(problem, config.x0_offset, seed)
    diameter = None
    if config.kappa == "corollary":
        diameter = config.diameter or 2.0 * float(np.linalg.norm(x0 - x_ref))
    run_cfg = RunConfig(
        p=config.p, eps=eps, kappa=config.kappa, tau=config.tau,
        diameter=diameter, max_iter=config.max_iter, seed=seed,
        delta=config.delta,
    )
    if config.method == "itm":
        return itm_run(problem, x0, run_cfg, f_ref=f_ref)
    if config.method == "stm":
        return stm_run(problem, x0, run_cfg, f_ref=f_ref)
    return gd_baseline(problem, x0, eps, max_iter=config.max_iter,
                       accelerated=(config.method == "agd"), f_ref=f_ref)


def run_experiment(config: ExperimentConfig, out_dir=None) -> ExperimentResult:
    """Run every (eps, seed) cell, write one CSV per cell plus a summary."""
    problem = build_problem(config.problem)
    x_ref, f_ref = reference_solution(problem)
    result = ExperimentResult(traces={}, f_ref=f_ref)
    out_dir = out_dir or config.out
    summary_rows = []
    for eps in config.eps:
        for seed in config.seeds:
            trace = run_cell(problem, config, eps, seed, f_ref, x_ref)
            result.traces[(eps, seed)] = trace
            try:
                fit = fit_rate(trace.iterations(), trace.gaps(), config.p,
                               f_ref=f_ref)
            except InsufficientDataError:
                fit = None
            final = trace.final
            summary_rows.append({
                "eps": eps, "seed": seed, "status": trace.status,
                "final_gap": final.f - f_ref,
                "iterations": final.k,
                "grad_calls": final.grad_calls,
                "hess_calls": final.hess_calls,
                "third_calls": final.third_calls,
                "slope": None if fit is None else fit.slope,
            })
            if out_dir is not None:
                path = os.path.join(out_dir, f"trace_eps{eps:g}_seed{seed}.csv")
                write_trace_csv(path, trace)
                result.files.append(path)
    if out_dir is not None:
        spath = os.path.join(out_dir, "summary.json")
        _write_atomically(spath, lambda fh: json.dump(
            {"f_ref": f_ref, "cells": summary_rows}, fh, indent=2, sort_keys=True))
        result.files.append(spath)
    return result


# ---------------------------------------------------------------------------
# complexity sweep
# ---------------------------------------------------------------------------

@dataclass
class ComplexitySummary:
    eps: tuple
    iterations: tuple
    grad_totals: tuple
    hess_totals: tuple
    third_totals: tuple
    q_iter: float
    q_grad: float
    q_hess: float
    clamped: bool


def _fit_exponent(eps_values, totals) -> float:
    xs = np.log(1.0 / np.asarray(eps_values, dtype=float))
    ys = np.log(np.asarray(totals, dtype=float))
    slope, _ = np.polyfit(xs, ys, 1)
    return float(slope)


def complexity_sweep(problem, config: ExperimentConfig, f_ref=None,
                     x_ref=None) -> ComplexitySummary:
    """Oracle-call totals of the stochastic method across the eps axis.

    Totals and outer-iteration counts are averaged over the configured seeds
    before the log-log exponent fit. Offline problems can clamp batch sizes
    at the full component count, which flattens the exponents: clamping is
    detected and reported as ``clamped``.
    """
    if config.method != "stm":
        raise ConfigError(["method: complexity_sweep requires method == 'stm'"])
    if len(set(config.eps)) < 2:
        raise ConfigError([f"eps: a sweep fits its exponents over at least two "
                           f"distinct values, got {list(config.eps)}"])
    if x_ref is None or f_ref is None:
        x_ref, f_ref = reference_solution(problem)
    iterations, grads, hessians, thirds = [], [], [], []
    clamped = False
    for eps in config.eps:
        its, g, h, t3 = [], [], [], []
        for seed in config.seeds:
            trace = run_cell(problem, config, eps, seed, f_ref, x_ref)
            final = trace.final
            its.append(max(final.k, 1))
            g.append(max(final.grad_calls, 1))
            h.append(max(final.hess_calls, 1))
            t3.append(max(final.third_calls, 1))
            if problem.mode == "offline":
                for rec in trace.records:
                    if rec.step_norm > 0 and max(rec.batch) >= problem.m:
                        clamped = True
        iterations.append(float(np.mean(its)))
        grads.append(float(np.mean(g)))
        hessians.append(float(np.mean(h)))
        thirds.append(float(np.mean(t3)))
    return ComplexitySummary(
        eps=tuple(config.eps), iterations=tuple(iterations),
        grad_totals=tuple(grads), hess_totals=tuple(hessians),
        third_totals=tuple(thirds),
        q_iter=_fit_exponent(config.eps, iterations),
        q_grad=_fit_exponent(config.eps, grads),
        q_hess=_fit_exponent(config.eps, hessians),
        clamped=clamped,
    )
