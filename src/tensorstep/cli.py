"""Command-line harness.

Subcommands: ``run`` (one experiment from a config), ``sweep`` (oracle-call
complexity across the eps axis), ``fit`` (rate fit of an existing trace CSV),
``verify-condition`` (sampled-derivative condition check at the run's start
point, CI-friendly).

Exit codes: 0 success, 1 config/validation error, 2 runtime failure,
3 acceptance-check failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from .bench import (
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
from .methods import default_profile
from .models import InexactnessBudget
from .sampling import plan_batches, sample_bundle, verify_condition


def _config(args, **fixed) -> ExperimentConfig:
    """The config file with the command-line overrides and ``fixed`` applied, validated."""
    data = load_config(args.config)
    if isinstance(data, dict):
        if args.mode:
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
        if args.out:
            data["out"] = args.out
        data.update(fixed)
    return ExperimentConfig.from_dict(data)


def cmd_run(args) -> int:
    config = _config(args)
    result = run_experiment(config, out_dir=config.out)
    for (eps, seed), trace in result.traces.items():
        final = trace.final
        print(f"eps={eps:g} seed={seed} status={trace.status} "
              f"iters={final.k} gap={final.f - result.f_ref:.3e} "
              f"grad_calls={final.grad_calls}")
    for path in result.files:
        print(f"wrote {path}")
    return 0


def cmd_sweep(args) -> int:
    config = _config(args, method="stm")
    problem = build_problem(config.problem)
    summary = complexity_sweep(problem, config)
    print(json.dumps({
        "eps": list(summary.eps),
        "iterations": list(summary.iterations),
        "grad_totals": list(summary.grad_totals),
        "hess_totals": list(summary.hess_totals),
        "third_totals": list(summary.third_totals),
        "q_iter": summary.q_iter,
        "q_grad": summary.q_grad,
        "q_hess": summary.q_hess,
        "clamped": summary.clamped,
    }, indent=2))
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
    eps = config.eps[0]
    budget = InexactnessBudget(eps, config.kappa)
    seed = config.seeds[0]
    rng = np.random.default_rng(seed)
    x0 = start_point(problem, config.x0_offset, seed)
    profile = default_profile(problem, x0)
    plan = plan_batches(budget, config.delta, problem, profile)
    passes = np.zeros(config.p)
    for _ in range(args.trials):
        bundle = sample_bundle(problem, x0, plan, config.p, rng)
        report = verify_condition(problem, bundle, budget, rng=rng)
        passes += np.array(report.passes, dtype=float)
    rates = passes / args.trials
    target = 1.0 - config.delta
    print(f"plan sizes: {plan.sizes}")
    for i, rate in enumerate(rates, start=1):
        print(f"order {i}: pass rate {rate:.3f} (target >= {target:.3f})")
    return 0 if bool(np.all(rates >= target)) else 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tensorstep",
        description="Benchmark harness for inexact/stochastic tensor methods.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="JSON experiment config")
    common.add_argument("--out", help="output directory for trace CSVs")
    common.add_argument("--seed", type=int, help="override: single seed")
    common.add_argument("--mode", choices=("itm", "stm", "gd", "agd"),
                        help="override: method")
    common.add_argument("--p", type=int, choices=(2, 3), help="override: order")
    common.add_argument("--eps", help="override: comma-separated accuracy list")

    p_run = sub.add_parser("run", parents=[common], help="run one experiment")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", parents=[common],
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

    args = parser.parse_args(argv)
    try:
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
