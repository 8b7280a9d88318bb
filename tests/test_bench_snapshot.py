"""``tools/bench_snapshot.py`` on synthetic benchmark result files."""

import importlib.util
import json
import os

import pytest

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "bench_snapshot.py")
spec = importlib.util.spec_from_file_location("bench_snapshot", TOOL)
bench_snapshot = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_snapshot)

ENV = {"git_sha": "abc123", "python": "3.11", "numpy": "2.0", "blas": "openblas",
       "nproc": 2, "threads": {"OMP_NUM_THREADS": "1"}}


def write_result(directory, seed, solve_s, workload="stm-sampled", trace=0, env=ENV,
                 failed=0):
    directory.mkdir(exist_ok=True)
    record = {
        "workload": workload, "seed": seed, "seconds": 25.0, "trace": trace,
        "environment": env,
        "result": {"correct": failed == 0, "attempted": 4, "failed": failed, "metrics": {
            "solve_s": {"value": solve_s, "unit": "s"},
            "outer_iters": {"value": 30, "unit": "count"},
        }},
    }
    path = directory / f"{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record))


def snapshot(tmp_path, results, label="change"):
    out = tmp_path / "BENCH_stm-sampled.json"
    code = bench_snapshot.main(["--workload", "stm-sampled", "--label", label,
                                "--results", str(results), "--output", str(out)])
    return code, (json.loads(out.read_text()) if out.exists() else None)


def test_median_and_iqr_per_metric(tmp_path):
    results = tmp_path / "out"
    for seed, solve_s in [(10, 5.0), (2, 2.0), (1, 1.0), (3, 3.0), (4, 4.0)]:
        write_result(results, seed, solve_s)
    write_result(results, 1, 99.0, trace=1)                    # traced: ignored
    write_result(results, 1, 99.0, workload="itm-logistic")    # other workload
    code, data = snapshot(tmp_path, results)
    assert code == 0
    run = data["runs"]["change"]
    assert run["git_sha"] == "abc123" and "git_sha" not in run["environment"]
    assert run["environment"]["threads"] == {"OMP_NUM_THREADS": "1"}
    assert run["seeds"] == [1, 2, 3, 4, 10]
    assert (run["attempted"], run["failed"]) == (20, 0)
    solve = run["metrics"]["solve_s"]
    assert solve["unit"] == "s" and solve["n"] == 5
    assert solve["values"] == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert (solve["median"], solve["q1"], solve["q3"], solve["iqr"]) == (3.0, 2.0, 4.0, 2.0)
    assert run["metrics"]["outer_iters"]["iqr"] == 0


def test_labels_sit_side_by_side(tmp_path):
    write_result(tmp_path / "parent", 1, 1.0, env={**ENV, "git_sha": "p"})
    write_result(tmp_path / "change", 1, 0.25)
    assert snapshot(tmp_path, tmp_path / "parent", label="parent")[0] == 0
    code, data = snapshot(tmp_path, tmp_path / "change")
    assert code == 0
    assert data["runs"]["parent"]["git_sha"] == "p"
    assert data["runs"]["change"]["metrics"]["solve_s"]["median"] == 0.25
    assert data["runs"]["parent"]["metrics"]["solve_s"]["q1"] == 1.0


def test_parent_and_change_are_compared(tmp_path, capsys):
    for seed, solve_s in [(1, 1.0), (2, 2.0), (3, 3.0), (4, 9.0)]:
        write_result(tmp_path / "parent", seed, solve_s, env={**ENV, "git_sha": "p"})
    for seed, solve_s in [(1, 0.5), (2, 2.5), (3, 1.0), (5, 0.1)]:
        write_result(tmp_path / "change", seed, solve_s)
    assert snapshot(tmp_path, tmp_path / "parent", label="parent")[0] == 0
    assert "change lower" not in capsys.readouterr().out  # one label only
    code, data = snapshot(tmp_path, tmp_path / "change")
    assert code == 0
    rows = {row[0]: row for row in bench_snapshot.compare(data)}
    # medians 2.5 -> 0.75 over all runs; pairs only on seeds 1..3
    assert rows["solve_s"] == ("solve_s", "s", 2.5, 0.75, -0.7, 2, 3)
    assert rows["outer_iters"][4:] == (0.0, 0, 3)  # ties count for neither side
    out = {line.split()[0]: line.split() for line in capsys.readouterr().out.splitlines()[1:]}
    assert out["metric"][:2] == ["metric", "unit"]
    assert out["solve_s"] == ["solve_s", "s", "2.5", "0.75", "-70.0%", "2", "of", "3", "pairs",
                              "unresolved"]
    assert out["outer_iters"][-6:] == ["+0.0%", "0", "of", "3", "pairs", "unresolved"]


PARENT_SOLVE_S = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]  # IQR 0.45


@pytest.mark.parametrize("case,shift,expected", [
    ("nine-of-ten", [-0.6] * 9 + [0.1], "gain"),
    ("eight-of-ten", [-0.6] * 8 + [0.1] * 2, "unresolved"),
    ("inside-the-iqr", [-0.3] * 10, "unresolved"),
    ("nine-pairs", [-0.6] * 9, "unresolved"),
])
def test_verdict_by_pairs_and_parent_iqr(tmp_path, capsys, case, shift, expected):
    """A gain needs >= 9 of >= 10 seed-matched pairs and a median gap above the parent's IQR."""
    for seed, (base, delta) in enumerate(zip(PARENT_SOLVE_S, shift + [0.0] * 10), start=1):
        write_result(tmp_path / "parent", seed, base, env={**ENV, "git_sha": "p"})
        if seed <= len(shift):
            write_result(tmp_path / "change", seed, base + delta)
    assert snapshot(tmp_path, tmp_path / "parent", label="parent")[0] == 0
    code, data = snapshot(tmp_path, tmp_path / "change")
    assert code == 0
    assert data["runs"]["parent"]["metrics"]["solve_s"]["iqr"] == pytest.approx(0.45)
    rows = {row[0]: row for row in bench_snapshot.compare(data)}
    iqr = data["runs"]["parent"]["metrics"]["solve_s"]["iqr"]
    assert bench_snapshot.verdict(rows["solve_s"], iqr) == expected
    out = {line.split()[0]: line.split() for line in capsys.readouterr().out.splitlines()[1:]}
    assert out["solve_s"][-1] == expected
    assert out["outer_iters"][-1] == "unresolved"  # ties never make a gain


@pytest.mark.parametrize("factor,expected", [(1.3, "worse"), (1.2, "unresolved")])
def test_worse_beyond_the_benchmark_bound(tmp_path, capsys, factor, expected):
    """A median above the parent's by more than the metric's relative bound in
    BENCHMARK.json (25% for solve_s) is "worse"; within it, "unresolved"."""
    assert bench_snapshot.end_to_end_bounds()["solve_s"] == 0.25
    for seed, base in enumerate(PARENT_SOLVE_S, start=1):
        write_result(tmp_path / "parent", seed, base, env={**ENV, "git_sha": "p"})
        write_result(tmp_path / "change", seed, base * factor)
    assert snapshot(tmp_path, tmp_path / "parent", label="parent")[0] == 0
    code, data = snapshot(tmp_path, tmp_path / "change")
    assert code == 0
    out = {line.split()[0]: line.split() for line in capsys.readouterr().out.splitlines()[1:]}
    assert out["solve_s"][-1] == expected
    assert out["outer_iters"][-1] == "unresolved"  # unchanged
    row = {row[0]: row for row in bench_snapshot.compare(data)}["solve_s"]
    assert bench_snapshot.verdict(row, 0.45) == "unresolved"  # no bound, never worse


def test_worse_from_a_zero_parent_median():
    row = ("failed", "count", 0.0, 1.0, None, 0, 10)
    assert bench_snapshot.verdict(row, 0.0, 0.1) == "worse"
    assert bench_snapshot.verdict(row[:3] + (0.0,) + row[4:], 0.0, 0.1) == "unresolved"


@pytest.mark.parametrize("iqr,flagged", [(0.125, True), (0.1, False), (0.0, False)])
def test_noisy_when_the_parent_spread_rivals_the_bound(tmp_path, capsys, iqr, flagged):
    """A metric whose parent IQR is at least half of its bound times its
    median is named "noisy" below the table; its verdict stands as it is."""
    # median 1 and quartiles 1 -/+ iqr/2; half of the 25% bound is 0.125
    a = iqr / 2
    values = [1 - 2 * a, 1 - a, 1 - a, 1 - a, 1.0, 1.0, 1 + a, 1 + a, 1 + a, 1 + 2 * a]
    for seed, value in enumerate(values, start=1):
        write_result(tmp_path / "parent", seed, value, env={**ENV, "git_sha": "p"})
        write_result(tmp_path / "change", seed, value)
    assert snapshot(tmp_path, tmp_path / "parent", label="parent")[0] == 0
    code, data = snapshot(tmp_path, tmp_path / "change")
    assert code == 0
    parent = data["runs"]["parent"]["metrics"]
    assert parent["solve_s"]["median"] == 1.0
    assert parent["solve_s"]["iqr"] == pytest.approx(iqr)
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[-1] for line in lines if line.startswith("solve_s")] == ["unresolved"]
    noisy = [line for line in lines if line.startswith("noisy:")]
    assert noisy == (["noisy: solve_s: the parent's IQR 0.125 is at least 0.5 x the 25% "
                      "bound of its median 1"] if flagged else [])
    assert not bench_snapshot.noisy(parent["outer_iters"], 0.1)  # zero spread
    assert not bench_snapshot.noisy(parent["solve_s"], None)      # no bound


@pytest.mark.parametrize("case", ["no-results", "mixed-checkouts"])
def test_unusable_results_exit_one(tmp_path, capsys, case):
    results = tmp_path / "out"
    results.mkdir()
    if case == "mixed-checkouts":
        write_result(results, 1, 1.0)
        write_result(results, 2, 1.0, env={**ENV, "git_sha": "other"})
    code, data = snapshot(tmp_path, results)
    assert code == 1 and data is None
    assert capsys.readouterr().err.startswith("bench_snapshot: ")
