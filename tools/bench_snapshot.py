"""Summarize the end-to-end benchmark results of one workload in ``BENCH_<workload>.json``.

Run from the repository root after one or more untraced benchmark runs:

    python3 perfbench/run.py --workload stm-sampled --seed 1 --seconds 25 --trace 0
    python3 tools/bench_snapshot.py --workload stm-sampled --label change

Each untraced run writes ``perfbench/out/<workload>-seed<N>-trace0.json``,
one end-to-end value per metric. The snapshot reads every such file of the
workload and records, per metric, the number of runs ``n``, their median,
quartiles and interquartile range, and the values by seed, together with the
git sha and environment the runs recorded. All files must come from one
checkout on one machine. The summary is stored under ``--label``; labels
already in the output file are kept, so the runs of two checkouts (say
``--label parent --results <parent checkout>/perfbench/out``, then
``--label change``) sit side by side for comparison. Once the file holds
both a ``parent`` and a ``change`` label, the tool also prints, per metric,
both medians, the relative change of the median, in how many of the
seed-matched pairs ``change`` read lower (ties count for neither side), and a
verdict. Every end-to-end metric of the benchmark is better lower, so the
verdict is "gain" when ``change`` read lower in at least nine of ten pairs
(``GAIN_SHARE`` of at least ``MIN_PAIRS`` pairs) and its median is below the
parent's by more than the parent's interquartile range; "worse" when its
median is above the parent's by more than the metric's relative ``bound`` in
the ``end_to_end`` list of ``BENCHMARK.json`` (read, never written); else
"unresolved". Below the table, a metric is named "noisy" when the parent's
own interquartile range is at least half of its bound times its median
(``NOISY_SHARE``): a shift of that size is the runs' spread, so its verdict
says little either way.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Share of the seed-matched pairs ``change`` must win, and the fewest pairs,
#: for a gain.
GAIN_SHARE = 0.9
MIN_PAIRS = 10

#: Share of ``bound × |median|`` at or above which the parent's IQR makes a
#: metric "noisy".
NOISY_SHARE = 0.5


class SnapshotError(Exception):
    """The result files are missing or do not describe one checkout."""


def _seed(path: str) -> int:
    return int(re.search(r"-seed(\d+)-trace0\.json$", path).group(1))


def load_results(results_dir: str, workload: str) -> list:
    """The untraced result records of ``workload``, ordered by seed."""
    pattern = os.path.join(glob.escape(results_dir), f"{workload}-seed*-trace0.json")
    paths = sorted(glob.glob(pattern), key=_seed)
    if not paths:
        raise SnapshotError(f"no results match {pattern}")
    records = []
    for path in paths:
        with open(path) as fh:
            record = json.load(fh)
        if record.get("workload") != workload or record.get("trace") != 0:
            raise SnapshotError(f"{path} is not an untraced {workload} result")
        records.append(record)
    return records


def spread(values: list) -> dict:
    """Median, quartiles and interquartile range (inclusive method)."""
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(records: list) -> dict:
    environments = {json.dumps(r["environment"], sort_keys=True) for r in records}
    if len(environments) != 1:
        raise SnapshotError("results come from more than one checkout or environment")
    environment = dict(records[0]["environment"])
    metrics = {}
    for name, metric in records[0]["result"]["metrics"].items():
        values = [r["result"]["metrics"][name]["value"] for r in records]
        metrics[name] = {"unit": metric["unit"], "n": len(values),
                         **spread(values), "values": values}
    return {
        "git_sha": environment.pop("git_sha"),
        "environment": environment,
        "seeds": [r["seed"] for r in records],
        "seconds": sorted({r["seconds"] for r in records}),
        "attempted": sum(r["result"]["attempted"] for r in records),
        "failed": sum(r["result"]["failed"] for r in records),
        "metrics": metrics,
    }


def write_snapshot(workload: str, label: str, results_dir: str, output: str) -> dict:
    """Store the summary of ``results_dir`` under ``label`` in ``output``."""
    snapshot = {"workload": workload, "runs": {}}
    if os.path.exists(output):
        with open(output) as fh:
            snapshot = json.load(fh)
        if snapshot.get("workload") != workload:
            raise SnapshotError(f"{output} holds workload {snapshot.get('workload')!r}")
    snapshot["runs"][label] = summarize(load_results(results_dir, workload))
    with open(output, "w") as fh:
        json.dump(snapshot, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return snapshot


def compare(snapshot: dict) -> list:
    """``(metric, unit, parent median, change median, relative change, lower, pairs)`` rows.

    ``lower`` counts the seeds both labels ran on where ``change`` read
    strictly lower; the relative change is ``None`` when the parent median
    is zero.
    """
    parent, change = snapshot["runs"]["parent"], snapshot["runs"]["change"]
    rows = []
    for name, old in parent["metrics"].items():
        new = change["metrics"].get(name)
        if new is None:
            continue
        by_seed = dict(zip(parent["seeds"], old["values"]))
        pairs = [(by_seed[seed], value) for seed, value in zip(change["seeds"], new["values"])
                 if seed in by_seed]
        lower = sum(value < base for base, value in pairs)
        base = old["median"]
        rel = (new["median"] - base) / abs(base) if base else None
        rows.append((name, old["unit"], base, new["median"], rel, lower, len(pairs)))
    return rows


def end_to_end_bounds() -> dict:
    """The relative ``bound`` of each end-to-end metric in ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {metric["name"]: metric["bound"] for metric in json.load(fh)["end_to_end"]}


def verdict(row: tuple, parent_iqr: float, bound: float | None = None) -> str:
    """The verdict on one ``compare`` row, "gain", "worse" or "unresolved";
    lower is better. Without a ``bound`` a row is never "worse"."""
    _, _, base, new, _, lower, pairs = row
    if pairs >= MIN_PAIRS and lower >= GAIN_SHARE * pairs and base - new > parent_iqr:
        return "gain"
    if bound is not None and new - base > bound * abs(base):
        return "worse"
    return "unresolved"


def noisy(parent_metric: dict, bound: float | None) -> bool:
    """Whether the parent's spread rivals the metric's bound: a positive IQR
    of at least ``NOISY_SHARE × bound × |median|``. Without a bound, never."""
    iqr = parent_metric["iqr"]
    return bound is not None and iqr > 0 and iqr >= NOISY_SHARE * bound * abs(parent_metric["median"])


def format_comparison(snapshot: dict, bounds: dict) -> str:
    parent = snapshot["runs"]["parent"]["metrics"]
    lines = [f"{'metric':<14} {'unit':<6} {'parent':>12} {'change':>12} {'rel':>8}  "
             f"change lower        verdict"]
    for row in compare(snapshot):
        name, unit, base, new, rel, lower, pairs = row
        rel_text = "-" if rel is None else f"{rel:+.1%}"
        lines.append(f"{name:<14} {unit:<6} {base:>12.6g} {new:>12.6g} {rel_text:>8}  "
                     f"{lower:>2} of {pairs:>2} pairs  "
                     f"{verdict(row, parent[name]['iqr'], bounds.get(name))}")
    for name, metric in parent.items():
        if noisy(metric, bounds.get(name)):
            lines.append(f"noisy: {name}: the parent's IQR {metric['iqr']:.3g} is at least "
                         f"{NOISY_SHARE:g} x the {bounds[name]:.0%} bound of its median "
                         f"{metric['median']:.3g}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="tools/bench_snapshot.py",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--label", default="change",
                        help="name of this set of runs in the snapshot (default: change)")
    parser.add_argument("--results", default=os.path.join(ROOT, "perfbench", "out"),
                        help="directory of result files (default: perfbench/out)")
    parser.add_argument("--output", help="default: BENCH_<workload>.json at the repository root")
    args = parser.parse_args(argv)
    output = args.output or os.path.join(ROOT, f"BENCH_{args.workload}.json")
    try:
        bounds = end_to_end_bounds()
        snapshot = write_snapshot(args.workload, args.label, args.results, output)
    except (OSError, SnapshotError) as exc:
        print(f"bench_snapshot: {exc}", file=sys.stderr)
        return 1
    run = snapshot["runs"][args.label]
    print(f"{output}: {args.label} at {run['git_sha'][:12]}, {len(run['seeds'])} runs, "
          f"{run['failed']} of {run['attempted']} operations failed")
    if {"parent", "change"} <= snapshot["runs"].keys():
        print(format_comparison(snapshot, bounds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
