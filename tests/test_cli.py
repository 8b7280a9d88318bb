"""Exit-code contract of the command-line harness: bad input exits 1, never a traceback."""

import json
import os

import numpy as np
import pytest

from tensorstep import LogisticProblem, cli
from tensorstep.bench import build_problem

GOLDEN_TRACE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "golden", "itm-p3", "trace_eps1e-06_seed0.csv")


def write_config(tmp_path, **fields):
    data = {"version": 1, "problem": {"kind": "logistic-synthetic", "n": 8, "m": 300},
            "kappa": [1.0, 1.0, 1.0], "max_iter": 2}
    data.update(fields)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return str(path)


class TestExitCodes:
    @pytest.mark.parametrize("missing", ["n", "m"])
    def test_missing_problem_size_is_config_error(self, tmp_path, capsys, missing):
        problem = {"kind": "logistic-synthetic", "n": 8, "m": 300}
        del problem[missing]
        path = write_config(tmp_path, problem=problem)
        assert cli.main(["run", "--config", path]) == 1
        assert f"problem.{missing}" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["itm", "stm"])
    def test_tau_at_most_two_is_config_error(self, tmp_path, capsys, method):
        path = write_config(tmp_path, method=method, tau=2.0)
        assert cli.main(["run", "--config", path]) == 1
        assert "tau" in capsys.readouterr().err

    def test_verify_condition_above_dense_limit(self, tmp_path):
        path = write_config(tmp_path, problem={"kind": "logistic-synthetic", "n": 101, "m": 50})
        assert cli.main(["verify-condition", "--config", path, "--trials", "2"]) in (0, 3)

    def far_start_args(self, tmp_path, offset):
        path = write_config(tmp_path, problem={"kind": "logistic-synthetic", "n": 4, "m": 50},
                            x0_offset=offset, out=str(tmp_path / "out"))
        return ["run", "--config", path]

    def test_far_start_exhausting_the_inner_loop_exits_two(self, tmp_path, capsys):
        assert cli.main(self.far_start_args(tmp_path, 1e100)) == 2
        assert capsys.readouterr().err.startswith("error: inner loop exhausted")

    def test_far_start_overflowing_the_model_exits_two(self, tmp_path, capsys, monkeypatch):
        centers = []
        certify = LogisticProblem.lipschitz_profile

        def recording(problem, x0, radius):
            centers.append(float(np.abs(x0).max()))
            return certify(problem, x0, radius)

        monkeypatch.setattr(LogisticProblem, "lipschitz_profile", recording)
        # f(x0) itself overflows here: its own numpy warning is the only one
        with pytest.warns(RuntimeWarning, match="overflow") as warned:
            code = cli.main(self.far_start_args(tmp_path, 1e300))
        assert code == 2
        assert len(warned) == 1
        assert centers == [0.0]  # only the reference solve, which starts at the origin
        assert capsys.readouterr().err.startswith(
            "error: f(x0) = inf is not finite at the start point")


class TestSuccessPaths:
    def test_sweep_prints_every_total(self, tmp_path, capsys):
        path = write_config(tmp_path, eps=[1e-2, 1e-3])
        assert cli.main(["sweep", "--config", path]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert len(summary["third_totals"]) == 2
        assert isinstance(summary["clamped"], bool)

    def test_verify_condition_plans_stm_batches_for_any_method(self, tmp_path):
        # the kappa array a gradient method never reads is what the check plans with
        path = write_config(tmp_path, method="gd")
        assert cli.main(["verify-condition", "--config", path, "--trials", "2"]) in (0, 3)

    def test_fit_of_a_golden_trace(self, capsys):
        assert cli.main(["fit", GOLDEN_TRACE]) == 0
        assert capsys.readouterr().out.startswith("slope=")


class TestProblemKinds:
    def test_synthetic_logistic_honours_mode(self):
        problem = build_problem({"kind": "logistic-synthetic", "n": 4, "m": 50,
                                 "mode": "online"})
        assert problem.mode == "online"

    def test_inline_logistic_has_no_ridge_by_default(self):
        problem = build_problem({"kind": "logistic-finite-sum",
                                 "features": [[1.0, 0.0]], "labels": [1]})
        assert problem.mu == 0.0


def fit_args(tmp_path, text):
    """``fit`` on a trace file holding ``text``, or on a missing file for ``None``."""
    path = tmp_path / "trace.csv"
    if text is not None:
        path.write_text(text)
    return ["fit", str(path)]


def run_args(tmp, *overrides, **fields):
    return ["run", "--config", write_config(tmp, **fields), *overrides]


def problem_args(tmp, **problem):
    return run_args(tmp, problem=problem)


GENERATED = {"kind": "logistic-synthetic", "n": 8, "m": 300}

#: case -> (argv builder, text the config error line must name)
MALFORMED = {
    "delta-string": (lambda tmp: run_args(tmp, delta="a"), "delta"),
    "diameter-string": (lambda tmp: run_args(tmp, diameter="x"), "diameter"),
    "seed-string": (lambda tmp: run_args(tmp, seeds=["a"]), "seeds"),
    "kappa-strings": (lambda tmp: run_args(tmp, kappa=["a", "b", "c"]), "kappa"),
    "x0-offset-string": (lambda tmp: run_args(tmp, x0_offset="q"), "x0_offset"),
    "max-iter-bool": (lambda tmp: run_args(tmp, max_iter=True), "max_iter"),
    "eps-nan": (lambda tmp: run_args(tmp, eps=[float("nan")]), "eps"),
    "eps-beyond-float-range": (lambda tmp: run_args(tmp, eps=[10 ** 400]), "eps"),
    "n-string": (lambda tmp: problem_args(tmp, **{**GENERATED, "n": "4"}), "problem.n"),
    "n-zero": (lambda tmp: problem_args(tmp, **{**GENERATED, "n": 0}), "problem.n"),
    "problem-seed-string": (
        lambda tmp: problem_args(tmp, **GENERATED, seed="x"), "problem.seed"),
    "mu-string": (lambda tmp: problem_args(tmp, **GENERATED, mu="x"), "problem.mu"),
    "flip-fraction-string": (
        lambda tmp: problem_args(tmp, **GENERATED, flip_fraction="x"), "problem.flip_fraction"),
    "quadratic-without-b": (
        lambda tmp: problem_args(tmp, kind="quadratic", A=[[1]]), "problem.b"),
    "features-without-labels": (
        lambda tmp: problem_args(tmp, kind="logistic-finite-sum", features=[[1.0]]),
        "problem.labels"),
    "generator-without-m": (
        lambda tmp: problem_args(tmp, kind="logistic-finite-sum",
                                 generator={"name": "synthetic-logistic", "n": 4}),
        "problem.generator"),
    "generator-block": (
        lambda tmp: problem_args(tmp, kind="logistic-finite-sum",
                                 generator={"name": "synthetic-logistic", "n": 4, "m": 50}),
        "problem.generator"),
    "top-level-unknown": (lambda tmp: run_args(tmp, max_iters=5), "max_iters"),
    "quadratic-cond": (
        lambda tmp: problem_args(tmp, kind="quadratic", A=[[1]], b=[1], cond=3.0),
        "problem.cond"),
    "online-logistic-m": (
        lambda tmp: problem_args(tmp, kind="online-logistic", n=4, m=50), "problem.m"),
    "synthetic-misspelled": (
        lambda tmp: problem_args(tmp, **GENERATED, flip_fracton=0.1), "problem.flip_fracton"),
    "eps-override-string": (lambda tmp: run_args(tmp, "--eps", "a"), "eps"),
    "eps-override-zero": (lambda tmp: run_args(tmp, "--eps", "0"), "eps"),
    "eps-override-negative": (lambda tmp: run_args(tmp, "--eps", "-1"), "eps"),
    "eps-override-nan": (lambda tmp: run_args(tmp, "--eps", "nan"), "eps"),
    "p-override-kappa-length": (lambda tmp: run_args(tmp, "--p", "2"), "kappa"),
    "mode-override-tau": (
        lambda tmp: run_args(tmp, "--mode", "itm", method="gd", tau=1), "tau"),
    "seed-override-negative": (lambda tmp: run_args(tmp, "--seed", "-1"), "seeds"),
    "trials-zero": (lambda tmp: ["verify-condition", "--config", write_config(tmp),
                                 "--trials", "0"], "trials"),
    "trials-negative": (lambda tmp: ["verify-condition", "--config", write_config(tmp),
                                     "--trials", "-2"], "trials"),
    "sweep-single-eps": (lambda tmp: ["sweep", "--config", write_config(tmp, eps=[1e-3])],
                         "eps"),
    "sweep-repeated-eps": (
        lambda tmp: ["sweep", "--config", write_config(tmp), "--eps", "1e-3,1e-3"], "eps"),
    "gd-tau": (lambda tmp: run_args(tmp, method="gd", tau=1e9), "tau"),
    "agd-kappa": (lambda tmp: run_args(tmp, method="agd"), "kappa"),
    "itm-delta": (lambda tmp: run_args(tmp, method="itm", delta=0.5), "delta"),
    "diameter-without-corollary": (lambda tmp: run_args(tmp, diameter=7), "diameter"),
    "fit-missing-file": (lambda tmp: fit_args(tmp, None), "trace"),
    "fit-no-step-norm": (lambda tmp: fit_args(tmp, "k,f_gap\n0,1.0\n"), "trace"),
    "fit-non-numeric": (lambda tmp: fit_args(
        tmp, "k,f_gap,step_norm,n1,n2,n3,inner_iters,grad_calls,hess_calls,third_calls\n"
             "0,x,0,0,0,0,0,0,0,0\n"), "trace"),
}


class TestMalformedInput:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_exits_one_without_traceback(self, tmp_path, capsys, case):
        argv, field = MALFORMED[case]
        assert cli.main(argv(tmp_path)) == 1
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("config error: ")]
        assert any(field in line for line in errors)


class TestVerifyCondition:
    def test_order_three_ratio_is_measured(self, tmp_path, capsys, monkeypatch):
        reports = []

        def recording(*args, **kwargs):
            reports.append(cli_verify(*args, **kwargs))
            return reports[-1]

        cli_verify = cli.verify_condition
        monkeypatch.setattr(cli, "verify_condition", recording)
        path = write_config(tmp_path, eps=[1e-3])
        assert cli.main(["verify-condition", "--config", path, "--trials", "3"]) in (0, 3)
        assert "plan sizes: (300, 300, 292)" in capsys.readouterr().out
        assert len(reports) == 3
        assert all(report.ratios[2] > 0.0 for report in reports)
