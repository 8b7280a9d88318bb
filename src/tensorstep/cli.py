"""Command-line harness.

Subcommands and the flags each takes:

    run               --config, --out, --seed, --mode, --p, --eps
    sweep             --config, --out, --seed, --p, --eps
    fit               TRACE, --p
    verify-condition  --config, --seed, --p, --eps, --trials

``run`` runs one experiment from a config and ``sweep`` runs it as the
stochastic method, printing the oracle-call complexity across the eps axis;
with ``--out`` (or the config's ``out``) both write one trace CSV per cell
plus ``summary.json`` there. ``fit`` fits a rate to an existing trace CSV,
and ``verify-condition`` checks the sampled-derivative condition at the
run's start point (CI-friendly): for every (eps, seed) cell it prints an
``eps=... seed=...`` line, the planned batch sizes and the per-order pass
rates, and it exits 3 if any cell misses its target. Like ``run``, it
exits 2 at a start point where f is not finite. ``--seed``, ``--mode``,
``--p`` and ``--eps`` replace the config's ``seeds`` (with one seed),
``method``, ``p`` and ``eps`` (with a comma-separated list).

Exit codes: 0 success, 1 config/validation error (a malformed command line
included), 2 runtime failure, 3 acceptance-check failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys

import numpy as np

from .bench import (
    METHODS,
    ExperimentConfig,
    build_problem,
    complexity_sweep,
    fit_rate,
    load_config,
    load_trace_csv,
    run_experiment,
    start_point,
)
from .errors import ConfigError, TensorStepError
from .methods import checked_start
from .models import InexactnessBudget
from .sampling import plan_batches, sample_bundle, verify_condition


def _config(args, **fixed) -> ExperimentConfig:
    """The config file with the command-line overrides and ``fixed`` applied, validated."""
    data = load_config(args.config)
    if isinstance(data, dict):
        if getattr(args, "mode", None):
            data["method"] = args.mode
        if args.p:
            data["p"] = args.p
        if args.eps:
            try:
                data["eps"] = [float(e) for e in args.eps.split(",")]
            except ValueError:
                raise ConfigError(
                    [f"eps: --eps must be comma-separated numbers, got {args.eps!r}"]) from None
        if args.seed is not None:
            data["seeds"] = [args.seed]
        if getattr(args, "out", None):
            data["out"] = args.out
        data.update(fixed)
    return ExperimentConfig.from_dict(data)


def cmd_run(args) -> int:
    config = _config(args)
    result = run_experiment(config)
    for (eps, seed), trace in result.traces.items():
        final = trace.final
        print(f"eps={eps:g} seed={seed} status={trace.status} "
              f"iters={final.k} gap={final.f - result.f_ref:.3e} "
              f"grad_calls={final.grad_calls}")
    for path in result.files:
        print(f"wrote {path}")
    return 0


def cmd_sweep(args) -> int:
    summary = complexity_sweep(_config(args, method="stm"))
    print(json.dumps(dataclasses.asdict(summary), indent=2))
    return 0


def cmd_fit(args) -> int:
    try:
        data = load_trace_csv(args.trace)
    except (OSError, csv.Error, KeyError, TypeError, ValueError) as exc:
        raise ConfigError([f"trace: cannot read {args.trace}: {exc!r}"]) from exc
    fit = fit_rate(data["k"], data["f_gap"], args.p)
    print(f"slope={fit.slope:.4f} intercept={fit.intercept:.4f} "
          f"window={fit.window} rms={fit.rms:.4f}")
    return 0


def cmd_verify_condition(args) -> int:
    if args.trials < 1:
        raise ConfigError([f"trials: --trials must be at least 1, got {args.trials}"])
    config = _config(args, method="stm")
    problem = build_problem(config.problem)
    if not isinstance(config.kappa, tuple):
        raise ConfigError(["kappa: verify-condition needs an explicit kappa array"])
    target = 1.0 - config.delta
    met = True
    for eps in config.eps:
        budget = InexactnessBudget(eps, config.kappa)
        for seed in config.seeds:
            rng = np.random.default_rng(seed)
            x0 = start_point(problem, config.x0_offset, seed)
            fx0, profile = checked_start(problem, x0)
            plan = plan_batches(budget, config.delta, problem, profile)
            passes = np.zeros(config.p)
            for _ in range(args.trials):
                bundle = sample_bundle(problem, x0, plan, rng, fx0)
                passes += verify_condition(problem, bundle, budget, rng=rng).passes
            rates = passes / args.trials
            print(f"eps={eps:g} seed={seed}")
            print(f"plan sizes: {plan.sizes}")
            for i, rate in enumerate(rates, start=1):
                print(f"order {i}: pass rate {rate:.3f} (target >= {target:.3f})")
            met &= bool(np.all(rates >= target))
    return 0 if met else 3


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are config errors (exit 1)."""

    def error(self, message):
        raise ConfigError([message])


def main(argv=None) -> int:
    parser = _Parser(
        prog="tensorstep",
        description="Benchmark harness for inexact/stochastic tensor methods.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="JSON experiment config")
    common.add_argument("--seed", type=int, help="override: single seed")
    common.add_argument("--p", type=int, choices=(2, 3), help="override: order")
    common.add_argument("--eps", help="override: comma-separated accuracy list")
    writes = argparse.ArgumentParser(add_help=False)
    writes.add_argument("--out", help="output directory for trace CSVs")

    p_run = sub.add_parser("run", parents=[common, writes], help="run one experiment")
    p_run.add_argument("--mode", choices=tuple(METHODS), help="override: method")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", parents=[common, writes],
                             help="stochastic complexity sweep over eps")
    p_sweep.set_defaults(func=cmd_sweep)

    p_fit = sub.add_parser("fit", help="fit a convergence rate to a trace CSV")
    p_fit.add_argument("trace", help="trace CSV produced by `run`")
    p_fit.add_argument("--p", type=int, default=3, choices=(2, 3))
    p_fit.set_defaults(func=cmd_fit)

    p_ver = sub.add_parser("verify-condition", parents=[common],
                           help="empirical check of the sampling condition")
    p_ver.add_argument("--trials", type=int, default=50)
    p_ver.set_defaults(func=cmd_verify_condition)

    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        for line in exc.problems:
            print(f"config error: {line}", file=sys.stderr)
        return 1
    except TensorStepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
