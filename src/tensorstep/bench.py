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
or unknown field, at the top level (``CONFIG_FIELD_CHECKS``) or in the
problem block (``PROBLEM_FIELD_CHECKS``), is a ``ConfigError`` naming it (the
CLI exits 1), and so is a top-level field given where the run never reads it
(``READ_WHEN``). ``METHODS`` names the run behind each ``method``. Traces use
the fixed column set

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
from dataclasses import dataclass, field
from functools import partial

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

#: What runs each method: ``(problem, x0, RunConfig, f_ref) -> RunTrace``.
METHODS = {
    "itm": itm_run,
    "stm": stm_run,
    "gd": gd_baseline,
    "agd": partial(gd_baseline, accelerated=True),
}


#: Where a run reads a config key: key -> (test on the config's values, where).
#: A config that gives the key where the test fails is rejected. ``tau`` is
#: read only by the order-3 Bregman inner loop, and ``diameter`` only by the
#: corollary kappa policy.
READ_WHEN = {
    "kappa": (lambda v: v["method"] in ("itm", "stm"), "by itm and stm"),
    "delta": (lambda v: v["method"] == "stm", "by stm"),
    "tau": (lambda v: v["method"] in ("itm", "stm") and v["p"] == 3, "by itm and stm at p 3"),
    "diameter": (lambda v: v["method"] in ("itm", "stm") and v["kappa"] == "corollary",
                 "by itm and stm under kappa 'corollary'"),
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


def _is_list(value, entry) -> bool:
    """A nonempty list whose entries all pass ``entry``."""
    return isinstance(value, (list, tuple)) and len(value) > 0 and all(map(entry, value))


#: Checks on the fields of a config: field -> (test, requirement).
CONFIG_FIELD_CHECKS = {
    "version": (lambda v: _is_int(v) and v == CONFIG_VERSION, f"the integer {CONFIG_VERSION}"),
    "problem": (lambda v: isinstance(v, dict), "an object"),
    "method": (lambda v: isinstance(v, str) and v in METHODS, f"one of {tuple(METHODS)}"),
    "p": (lambda v: _is_int(v) and v in (2, 3), "2 or 3"),
    "eps": (lambda v: _is_list(v, lambda e: _is_number(e) and e > 0)
            and len(set(v)) == len(v), "a nonempty list of distinct positive numbers"),
    "seeds": (lambda v: _is_list(v, lambda s: _is_int(s) and s >= 0)
              and len(set(v)) == len(v), "a nonempty list of distinct nonnegative integers"),
    "kappa": (lambda v: v in ("exact", "corollary") if isinstance(v, str)
              else _is_list(v, lambda k: _is_number(k) and k >= 0),
              "'exact', 'corollary' or a nonempty list of nonnegative numbers"),
    "delta": (lambda v: _is_number(v) and 0 < v <= 1, "a number in (0, 1]"),
    "tau": (_is_number, "a number"),
    "max_iter": (_is_count, "a positive integer"),
    "diameter": (lambda v: v is None or _is_number(v) and v > 0, "a positive number"),
    "x0_offset": (_is_number, "a number"),
    "out": (lambda v: v is None or isinstance(v, str), "a path string"),
}

#: Checks on the fields of a problem block: field -> (test, requirement).
PROBLEM_FIELD_CHECKS = {
    "A": (lambda v: _is_array(v, 2), "a nonempty 2-d array of finite numbers"),
    "b": (lambda v: _is_array(v, 1), "a nonempty 1-d array of finite numbers"),
    "features": (lambda v: _is_array(v, 2), "a nonempty 2-d array of finite numbers"),
    "labels": (lambda v: _is_array(v, 1), "a nonempty 1-d array of finite numbers"),
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
        params = {"version": REQUIRED, **_parameters(cls)}
        problems = _field_errors(data, params, CONFIG_FIELD_CHECKS, "")
        values = {**params, **data}
        kappa, p, tau = values["kappa"], values["p"], values["tau"]
        if isinstance(kappa, (list, tuple)) and len(kappa) != p:
            problems.append(f"kappa: explicit array needs one entry per order (p {p!r}), "
                            f"got {len(kappa)}")
        problems += [f"{key}: read only {where}" for key, (reads, where)
                     in READ_WHEN.items() if key in data and not reads(values)]
        if READ_WHEN["tau"][0](values) and _is_number(tau) and tau <= 2:
            problems.append(f"tau: must be > 2 where it is read, got {tau!r}")
        if problems:
            raise ConfigError(problems)
        del values["version"]
        return cls(**{
            **values,
            "eps": tuple(float(e) for e in values["eps"]),
            "seeds": tuple(values["seeds"]),
            "kappa": tuple(kappa) if isinstance(kappa, list) else kappa,
            "delta": float(values["delta"]), "tau": float(tau),
            "x0_offset": float(values["x0_offset"]),
        })


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


#: The default of a parameter that has none: the field is required.
REQUIRED = inspect.Parameter.empty


def _parameters(fn) -> dict:
    """Each parameter of ``fn`` and its default (``REQUIRED`` when it has none)."""
    return {name: param.default for name, param in inspect.signature(fn).parameters.items()}


def _field_errors(given: dict, params: dict, checks: dict, prefix: str) -> list:
    """Missing, unknown and ill-typed fields of ``given``.

    ``params`` maps each field ``given`` may have to its default,
    ``REQUIRED`` for a field it must have; ``checks`` maps a field to its
    ``(test, requirement)``. Each message starts with ``prefix`` and the field.
    """
    bad = [f"{prefix}{name}: required" for name, default in params.items()
           if default is REQUIRED and name not in given]
    for key, value in given.items():
        if key not in params:
            bad.append(f"{prefix}{key}: unknown field, expected one of {tuple(params)}")
        elif key in checks and not checks[key][0](value):
            bad.append(f"{prefix}{key}: must be {checks[key][1]}, got {value!r}")
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
    bad = _field_errors(kwargs, _parameters(PROBLEM_BUILDERS[kind]),
                        PROBLEM_FIELD_CHECKS, "problem.")
    if bad:
        raise ConfigError(bad)
    try:
        return PROBLEM_BUILDERS[kind](**kwargs)
    except (ValueError, DimensionMismatchError, MemoryError) as exc:
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
    """``write(fh)`` to a temporary file, then ``os.replace`` it onto ``path``.

    The file gets the mode the umask gives a newly created file.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        # mkstemp opens its file 0600; give it the mode a plain open would
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
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
    """Columns of a trace CSV as a dict of arrays; ``ValueError`` unless ``k``
    is finite and strictly increases and every ``f_gap`` is finite, as a rate
    fit needs."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    out = {}
    for col in TRACE_COLUMNS:
        out[col] = np.array([float(r[col]) for r in rows])
    if not np.all(np.isfinite(out["k"])):
        raise ValueError("column k is not finite")
    if not np.all(np.diff(out["k"]) > 0):
        raise ValueError("column k is not strictly increasing")
    if not np.all(np.isfinite(out["f_gap"])):
        raise ValueError("column f_gap is not finite")
    return out


# ---------------------------------------------------------------------------
# experiment driver
# ---------------------------------------------------------------------------

@dataclass
class ExperimentResult:
    problem: object         # as built from the config's problem block
    traces: dict            # (eps, seed) -> RunTrace
    f_ref: float
    files: list = field(default_factory=list)


def run_cell(problem, config: ExperimentConfig, eps: float, seed: int,
             f_ref: float, x_ref) -> RunTrace:
    x0 = start_point(problem, config.x0_offset, seed)
    diameter = None
    if config.kappa == "corollary":
        diameter = config.diameter or 2.0 * float(np.linalg.norm(x0 - x_ref))
        if not diameter > 0:
            raise ConfigError([f"diameter: the corollary kappa policy needs a positive "
                               f"diameter, and 2 ||x0 - x_ref|| is {diameter:g} at seed "
                               f"{seed}; set one in the config"])
    run_cfg = RunConfig(
        p=config.p, eps=eps, kappa=config.kappa, tau=config.tau,
        diameter=diameter, max_iter=config.max_iter, seed=seed,
        delta=config.delta,
    )
    return METHODS[config.method](problem, x0, run_cfg, f_ref=f_ref)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run every (eps, seed) cell; with ``config.out`` set, write one CSV per
    cell plus a summary there."""
    problem = build_problem(config.problem)
    x_ref, f_ref = reference_solution(problem)
    result = ExperimentResult(problem=problem, traces={}, f_ref=f_ref)
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
            if config.out is not None:
                path = os.path.join(config.out, f"trace_eps{eps:g}_seed{seed}.csv")
                write_trace_csv(path, trace)
                result.files.append(path)
    if config.out is not None:
        spath = os.path.join(config.out, "summary.json")
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


def complexity_sweep(config: ExperimentConfig) -> ComplexitySummary:
    """Oracle-call totals of the stochastic method across the eps axis.

    Runs the config through ``run_experiment`` (which writes its CSVs and
    summary when ``config.out`` is set) and reads the final record of each
    cell's trace. Totals and outer-iteration counts are averaged over the
    configured seeds before the log-log exponent fit. Offline problems can
    clamp batch sizes at the full component count, which flattens the
    exponents: clamping is detected and reported as ``clamped``.
    """
    if config.method != "stm":
        raise ConfigError(["method: complexity_sweep requires method == 'stm'"])
    if len(set(config.eps)) < 2:
        raise ConfigError([f"eps: a sweep fits its exponents over at least two "
                           f"distinct values, got {list(config.eps)}"])
    result = run_experiment(config)
    finals = [[result.traces[(eps, seed)].final for seed in config.seeds]
              for eps in config.eps]

    def mean(count):
        """Seed average of a final count per eps, each count at least 1 for the log fit."""
        return tuple(float(np.mean([max(getattr(f, count), 1) for f in row])) for row in finals)

    iterations, grads, hessians = mean("k"), mean("grad_calls"), mean("hess_calls")
    problem = result.problem
    clamped = problem.mode == "offline" and any(
        rec.step_norm > 0 and max(rec.batch) >= problem.m
        for trace in result.traces.values() for rec in trace.records)
    return ComplexitySummary(
        eps=tuple(config.eps), iterations=iterations, grad_totals=grads,
        hess_totals=hessians, third_totals=mean("third_calls"),
        q_iter=_fit_exponent(config.eps, iterations),
        q_grad=_fit_exponent(config.eps, grads),
        q_hess=_fit_exponent(config.eps, hessians),
        clamped=clamped,
    )
