"""Exit-code contract of the command-line harness: bad input exits 1, never a traceback."""

import csv
import dataclasses
import json
import math
import os
import re
import warnings

import numpy as np
import pytest

from tensorstep import (LogisticProblem, QuadraticProblem, RunConfig, SubsolverError, bench, cli,
                        itm_run, make_quadratic, subsolvers)
from tensorstep.bench import build_problem

from test_methods import GOLDEN_DIR, golden_data, read_tree

GOLDEN_TRACE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "golden", "itm-p3", "trace_eps1e-06_seed0.csv")

#: Start of the error of a reference solve that stops at its step cap.
REFERENCE_CAP_ERROR = "error: reference solve stopped at its 300-step cap with "


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

    def test_overflowing_hessian_exits_two(self, tmp_path, capsys):
        # the squared row norms overflow: the run stops at the Lipschitz
        # constants, before any derivative, and numpy warns of nothing
        path = write_config(tmp_path, method="itm", kappa="exact", problem={
            "kind": "logistic-synthetic", "n": 8, "m": 300, "row_scale": 1e300})
        assert cli.main(["run", "--config", path]) == 2
        assert capsys.readouterr().err.startswith("error: largest feature row norm inf ")

    @pytest.mark.parametrize("problem", [
        {"kind": "logistic-synthetic", "n": 8, "m": 300, "row_scale": 1e100},
        {"kind": "online-logistic", "n": 4, "pool": 60, "clamp": 1e300},
    ], ids=["row-norm", "norm-clamp"])
    def test_overflowing_lipschitz_constant_exits_two(self, tmp_path, capsys, problem):
        # finite norms whose third or fourth power overflows
        path = write_config(tmp_path, problem=problem)
        assert cli.main(["run", "--config", path]) == 2
        assert "beyond which the certified constants overflow" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["itm", "gd", "agd", "sweep"])
    def test_overflowing_linear_term_exits_two_without_warnings(
            self, tmp_path, capsys, command):
        # ||b||^2 overflows: the run stops at the Lipschitz constants, and
        # numpy warns of nothing
        data = {"version": 1, "eps": [1e-2, 1e-3],
                "problem": {"kind": "quadratic", "A": [[1.0]], "b": [-1e300]}}
        if command == "sweep":
            argv = ["sweep"]
        else:
            argv = ["run"]
            data["method"] = command
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.main([*argv, "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith(
            "error: linear term norm ||b|| = 1.000e+300 exceeds ")

    def test_linear_term_just_inside_the_scale_limit_exits_two_without_warnings(
            self, tmp_path, capsys):
        # ||b|| = 1e154 passes the scale check; the reference solve, which runs
        # first, stops at its step cap, and its error is the only report
        path = write_config(tmp_path, method="itm", kappa="exact",
                            problem={"kind": "quadratic", "A": [[1.0]], "b": [-1e154]})
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.main(["run", "--config", path]) == 2
        assert capsys.readouterr().err.startswith(REFERENCE_CAP_ERROR)

    @pytest.mark.parametrize("method", ["gd", "agd"])
    def test_unconverged_reference_exits_two_without_warnings(self, tmp_path, capsys, method):
        # the reference solve stops at its step cap far from x* = -1e154, so
        # there is no optimum to measure a gap from (itm: the test above)
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"version": 1, "method": method, "problem": {
            "kind": "quadratic", "A": [[1.0]], "b": [-1e154]}}))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.main(["run", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith(REFERENCE_CAP_ERROR)

    def test_reference_at_the_rounding_floor_exits_zero(self, tmp_path, capsys):
        # ||x*|| ~ 5e4: the gradient rounds above 1e-12 there, but not above
        # the reference solve's certified floor sqrt(2 mu eps_mach) ~ 6.7e-9
        quadratic = make_quadratic(20, seed=0, cond=10.0)
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"version": 1, "method": "gd", "max_iter": 5, "problem": {
            "kind": "quadratic", "A": quadratic.A.tolist(), "b": (1e4 * quadratic.b).tolist()}}))
        assert cli.main(["run", "--config", str(path)]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command, problem, message", [
        ("run", {"kind": "logistic-synthetic", "n": 3, "m": 20, "mu": 1.7e308},
         "ridge weight mu = 1.700e+308 on a ball of reach "),
        ("run", {"kind": "quadratic-synthetic", "n": 3, "cond": 1e-300},
         "gradient bound L_0 = 4.000e+300 of curvature lambda_max(A) = 1.000e+300 "),
        ("run", {"kind": "logistic-synthetic", "n": 3, "m": 20, "row_scale": 1.7e308},
         "feature row scale 1.700e+308 overflows the features; rows beyond "),
        ("verify-condition", {"kind": "online-logistic", "n": 4, "pool": 60, "clamp": 1.7e308},
         "largest feature row norm "),
    ], ids=["ridge", "curvature", "row-scale", "norm-clamp"])
    def test_scale_at_the_float_range_exits_two_without_warnings(
            self, tmp_path, capsys, command, problem, message):
        # the scale error is the only report: no overflow warning comes first
        path = write_config(tmp_path, method="itm", problem=problem)
        argv = [command, "--config", path] + (["--trials", "1"] if command != "run" else [])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")

    def far_start_args(self, tmp_path, offset):
        path = write_config(tmp_path, problem={"kind": "logistic-synthetic", "n": 4, "m": 50},
                            x0_offset=offset, out=str(tmp_path / "out"))
        return ["run", "--config", path]

    #: Configs whose model gradient stalls far above the absolute inner
    #: tolerance, but not above the relative one.
    STALLING = [
        {"x0_offset": 1e100},
        {"method": "itm", "kappa": "exact", "problem": {
            "kind": "logistic-synthetic", "n": 8, "m": 300, "row_scale": 1e76}},
    ]

    @pytest.mark.parametrize("fields, status, steps", [
        (STALLING[0], "max-iter", 2), (STALLING[1], "step-floor", 1),
    ], ids=["far-start", "row-scale"])
    def test_far_model_steps_meet_the_relative_stop_and_exit_zero(
            self, tmp_path, capsys, fields, status, steps):
        # INNER_REL_TOL ||grad f|| is reached in a few inner steps, so every
        # outer step completes: the records are finite and f never rises
        out = tmp_path / "out"
        path = write_config(tmp_path, **{
            "problem": {"kind": "logistic-synthetic", "n": 4, "m": 50}, **fields,
            "out": str(out)})
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.main(["run", "--config", path]) == 0
        assert capsys.readouterr().err == ""
        with open(out / "trace_eps1e-06_seed0.csv") as fh:
            rows = list(csv.DictReader(fh))
        with open(out / "summary.json") as fh:
            assert json.load(fh)["cells"][0]["status"] == status
        assert len(rows) == steps + 1
        assert all(math.isfinite(float(value)) for row in rows for value in row.values())
        gaps = [float(row["f_gap"]) for row in rows]
        assert all(b <= a for a, b in zip(gaps, gaps[1:]))
        assert all(float(row["step_norm"]) > 0 for row in rows[:-1])

    def test_far_start_exhausting_the_inner_loop_exits_two(self, tmp_path, capsys, monkeypatch):
        # without the relative stop, the far start's inner loop reaches a
        # step cap below the step at which its descent test gives up
        monkeypatch.setattr(subsolvers, "INNER_REL_TOL", 0.0)
        monkeypatch.setattr(subsolvers, "MAX_INNER_STEPS", 10)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.main(self.far_start_args(tmp_path, 1e100)) == 2
        assert capsys.readouterr().err.startswith("error: inner loop exhausted 10 steps, residual ")

    @pytest.mark.parametrize("fields", STALLING, ids=["far-start", "row-scale"])
    def test_stalled_inner_loop_exits_two_early_without_warnings(
            self, tmp_path, capsys, monkeypatch, fields):
        # without the relative stop, the model gradient stalls far above the
        # inner tolerance; the loop ends where the descent test fails up to
        # the cap, long before its step cap, and numpy warns of nothing
        monkeypatch.setattr(subsolvers, "INNER_REL_TOL", 0.0)
        path = write_config(tmp_path, **{
            "problem": {"kind": "logistic-synthetic", "n": 4, "m": 50}, **fields})
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.main(["run", "--config", path]) == 2
        err = capsys.readouterr().err
        match = re.match(r"error: descent test failed at constant \S+ \(model change \S+\), "
                         r"step (\d+), residual ", err)
        assert match, err
        assert int(match[1]) < subsolvers.MAX_INNER_STEPS

    @pytest.mark.parametrize("problem, message", [
        ({"kind": "logistic-synthetic", "n": 4, "m": 60, "mu": 1e300},
         "error: smooth model is not finite"),
        ({"kind": "logistic-finite-sum", "features": [[1.0, 2.0]], "labels": [1]},
         REFERENCE_CAP_ERROR),
    ], ids=["ridge", "one-row"])
    def test_overflowing_model_exits_two_without_warnings(
            self, tmp_path, capsys, problem, message):
        # the inner loop's model gradient overflows: its error is the only report.
        # One unregularized row has no minimizer, so there the reference solve,
        # which runs first, stops at its step cap and reports that instead
        # (the run's own error: test_model_overflow_of_the_run_without_warnings).
        path = write_config(tmp_path, method="itm", kappa="exact", problem=problem)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.main(["run", "--config", path]) == 2
        assert capsys.readouterr().err.startswith(message)

    @pytest.mark.parametrize("problem, offset, message", [
        (QuadraticProblem(np.array([[1.0]]), np.array([-1e154])), 0.0,
         "secular bracket expansion failed"),
        (LogisticProblem(np.array([[1.0, 2.0]]), np.array([1.0])), 1.0,
         "smooth model is not finite"),
    ], ids=["linear-term", "one-row"])
    def test_model_overflow_of_the_run_without_warnings(self, problem, offset, message):
        # the runs whose reference solve reports first on the command line:
        # without a reference, their own subsolver error is the only report
        x0 = bench.start_point(problem, offset, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(SubsolverError, match=message):
                itm_run(problem, x0, RunConfig(p=3, kappa="exact", max_iter=2), f_ref=None)

    def test_far_start_overflowing_the_model_exits_two(self, tmp_path, capsys, monkeypatch):
        centers = []
        certify = LogisticProblem.lipschitz_profile

        def recording(problem, x0, radius):
            centers.append(float(np.abs(x0).max()))
            return certify(problem, x0, radius)

        monkeypatch.setattr(LogisticProblem, "lipschitz_profile", recording)
        # f(x0) itself overflows here: the start-point error is the only report
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.main(self.far_start_args(tmp_path, 1e300)) == 2
        assert centers == [0.0]  # only the reference solve, which starts at the origin
        assert capsys.readouterr().err.startswith(
            "error: f(x0) = inf is not finite at the start point")

    @pytest.mark.parametrize("offset", [1e300, 1.7e308])
    @pytest.mark.parametrize("problem", [
        {"kind": "quadratic", "A": [[2.0, 0.0], [0.0, 1.0]], "b": [1.0, 1.0]},
        {"kind": "logistic-synthetic", "n": 4, "m": 50},
    ], ids=["quadratic", "logistic"])
    @pytest.mark.parametrize("command", ["itm", "gd", "verify-condition"])
    def test_non_finite_start_exits_two_without_warnings(
            self, tmp_path, capsys, command, problem, offset):
        # f(x0) overflows to inf, or to nan at the largest floats
        data = {"version": 1, "problem": problem, "x0_offset": offset}
        if command == "verify-condition":
            argv = ["verify-condition", "--trials", "1"]
            data["kappa"] = [1.0, 1.0, 1.0]
        else:
            argv = ["run"]
            data["method"] = command
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.main([*argv, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert re.match(r"error: f\(x0\) = (inf|nan) is not finite at the start point", err), err


#: Problems whose certified L_1 is 0 before its floor.
ZERO_CURVATURE = [
    {"kind": "quadratic", "A": [[0.0]], "b": [0.0]},
    {"kind": "logistic-finite-sum", "features": [[0, 0], [0, 0]], "labels": [1, -1]},
]


class TestSuccessPaths:
    @pytest.mark.parametrize("name", ["itm-p2", "gd"])
    def test_run_with_out_reproduces_the_golden_files(self, tmp_path, capsys, name):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(golden_data(name)))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
        golden = os.path.join(GOLDEN_DIR, name)
        assert read_tree(out) == read_tree(golden)
        with open(os.path.join(golden, "summary.json")) as fh:
            cells = json.load(fh)["cells"]
        reports = [f"eps={c['eps']:g} seed={c['seed']} status={c['status']} "
                   f"iters={c['iterations']} gap={c['final_gap']:.3e} "
                   f"grad_calls={c['grad_calls']}" for c in cells]
        files = [f"trace_eps{c['eps']:g}_seed{c['seed']}.csv" for c in cells] + ["summary.json"]
        wrote = [f"wrote {out / file}" for file in files]
        assert capsys.readouterr().out.splitlines() == reports + wrote

    def test_sweep_prints_every_total(self, tmp_path, capsys):
        path = write_config(tmp_path, eps=[1e-2, 1e-3])
        assert cli.main(["sweep", "--config", path]) == 0
        printed = capsys.readouterr().out
        summary = json.loads(printed)
        assert len(summary["third_totals"]) == 2
        assert isinstance(summary["clamped"], bool)
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", path, "--out", str(out)]) == 0
        assert capsys.readouterr().out == printed
        assert sorted(os.listdir(out)) == [
            "summary.json", "trace_eps0.001_seed0.csv", "trace_eps0.01_seed0.csv"]

    def test_singular_quadratic_at_order_three_reaches_the_target(self, tmp_path, capsys):
        # an exact zero eigenvalue of A carries no gradient weight: the inner
        # quartics sit on a pole at zero shift and must solve without a warning
        path = write_config(tmp_path, method="itm", p=3, kappa="exact",
                            problem={"kind": "quadratic", "A": [[1, 0], [0, 0]], "b": [1, 0]})
        assert cli.main(["run", "--config", path]) == 0
        assert "status=gap-target" in capsys.readouterr().out

    @pytest.mark.parametrize("method", ["gd", "agd"])
    @pytest.mark.parametrize("problem", ZERO_CURVATURE, ids=["quadratic", "logistic"])
    def test_gradient_method_without_curvature_reaches_the_target(
            self, tmp_path, capsys, problem, method):
        # L_1 = 0 here, and the step 1/L_1 takes its floor instead
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"version": 1, "problem": problem, "method": method}))
        assert cli.main(["run", "--config", str(path)]) == 0
        assert "status=gap-target" in capsys.readouterr().out

    def test_verify_condition_on_zero_features(self, tmp_path, capsys):
        # every constant is 0 here, and the range 2 L_0 takes its floor instead
        path = write_config(tmp_path, problem=ZERO_CURVATURE[1])
        assert cli.main(["verify-condition", "--config", path, "--trials", "2"]) == 0
        assert "plan sizes: (1, 1, 1)" in capsys.readouterr().out

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--help"])
        assert exc.value.code == 0
        assert "--mode" in capsys.readouterr().out

    def test_verify_condition_plans_stm_batches_for_any_method(self, tmp_path):
        # the kappa array a gradient method never reads is what the check plans with
        path = write_config(tmp_path, method="gd")
        assert cli.main(["verify-condition", "--config", path, "--trials", "2"]) in (0, 3)

    def test_verify_condition_plans_one_sample_for_a_loose_online_target(self, tmp_path,
                                                                          capsys):
        path = write_config(tmp_path, problem={"kind": "online-logistic", "n": 4},
                            eps=[1e300])
        assert cli.main(["verify-condition", "--config", path, "--trials", "2"]) == 0
        assert "plan sizes: (1, 1, 1)" in capsys.readouterr().out

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


TRACE_HEADER = "k,f_gap,step_norm,n1,n2,n3,inner_iters,grad_calls,hess_calls,third_calls\n"


def trace_text(ks, gaps):
    """A trace CSV with the given ``k`` and ``f_gap`` columns and zeros elsewhere."""
    return TRACE_HEADER + "".join(f"{k},{gap},0,0,0,0,0,0,0,0\n" for k, gap in zip(ks, gaps))


def run_args(tmp, *overrides, **fields):
    return ["run", "--config", write_config(tmp, **fields), *overrides]


def problem_args(tmp, **problem):
    return run_args(tmp, problem=problem)


def verify_args(tmp, **fields):
    return ["verify-condition", "--config", write_config(tmp, **fields), "--trials", "1"]


GENERATED = {"kind": "logistic-synthetic", "n": 8, "m": 300}
ONLINE = {"kind": "online-logistic", "n": 4}

#: case -> (argv builder, text the config error line must name)
MALFORMED = {
    "delta-string": (lambda tmp: run_args(tmp, delta="a"), "delta"),
    "diameter-string": (lambda tmp: run_args(tmp, diameter="x"), "diameter"),
    "seed-string": (lambda tmp: run_args(tmp, seeds=["a"]), "seeds"),
    "kappa-strings": (lambda tmp: run_args(tmp, kappa=["a", "b", "c"]), "kappa"),
    "x0-offset-string": (lambda tmp: run_args(tmp, x0_offset="q"), "x0_offset"),
    "max-iter-bool": (lambda tmp: run_args(tmp, max_iter=True), "max_iter"),
    "version-bool": (lambda tmp: run_args(tmp, version=True), "version"),
    "version-float": (lambda tmp: run_args(tmp, version=1.0), "version"),
    "eps-nan": (lambda tmp: run_args(tmp, eps=[float("nan")]), "eps"),
    "eps-beyond-float-range": (lambda tmp: run_args(tmp, eps=[10 ** 400]), "eps"),
    # a repeated eps would run its cells twice and overwrite their CSVs
    "eps-repeated": (lambda tmp: run_args(tmp, eps=[1e-2, 1e-3, 1e-2]), "eps"),
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
    # a malformed command line is a config error too, naming the flag
    "p-override-four": (lambda tmp: run_args(tmp, "--p", "4"), "--p"),
    "seed-override-string": (lambda tmp: run_args(tmp, "--seed", "x"), "--seed"),
    "sweep-mode": (lambda tmp: ["sweep", "--config", write_config(tmp, eps=[1e-2, 1e-3]),
                                "--mode", "gd"], "--mode"),
    "verify-condition-mode": (lambda tmp: [*verify_args(tmp), "--mode", "itm"], "--mode"),
    "verify-condition-out": (lambda tmp: [*verify_args(tmp), "--out", str(tmp / "out")],
                             "--out"),
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
    # the start point is the optimum, so the derived diameter 2 ||x0 - x_ref|| is 0
    "corollary-zero-diameter": (lambda tmp: run_args(
        tmp, method="itm", kappa="corollary", x0_offset=0,
        problem={"kind": "quadratic", "A": [[1.0]], "b": [0.0]}), "diameter"),
    "method-list": (lambda tmp: run_args(tmp, method=["stm"]), "method"),
    "p2-tau": (lambda tmp: run_args(tmp, p=2, kappa=[1.0, 1.0], tau=3.0), "tau"),
    # online batch sizes that cannot be drawn: the target underflows to 0, the
    # size overflows to inf, and the size is finite but beyond 2^63
    "online-target-underflow": (lambda tmp: verify_args(
        tmp, problem=ONLINE, eps=[1e-300], kappa=[1e-300] * 3), "kappa"),
    "online-batch-infinite": (lambda tmp: verify_args(
        tmp, problem=ONLINE, eps=[1.0], kappa=[1e-160] * 3), "kappa"),
    "online-batch-beyond-int64": (lambda tmp: verify_args(
        tmp, problem=ONLINE, eps=[1e-12], kappa=[1e-3] * 3), "kappa"),
    "fit-missing-file": (lambda tmp: fit_args(tmp, None), "trace"),
    "fit-no-step-norm": (lambda tmp: fit_args(tmp, "k,f_gap\n0,1.0\n"), "trace"),
    "fit-non-numeric": (lambda tmp: fit_args(tmp, trace_text([0], ["x"])), "trace"),
    # a fit to these would print slope=nan, or numpy's RankWarning and a slope
    "fit-gap-infinite": (lambda tmp: fit_args(tmp, trace_text(range(9), ["inf"] * 9)),
                         "trace"),
    # increasing up to inf: numpy's SVD would not converge on it
    "fit-k-infinite": (lambda tmp: fit_args(
        tmp, trace_text([0, 1, 2, *(10.0 ** e for e in range(300, 309)), "inf"],
                        [0.1 ** j for j in range(1, 14)])), "trace"),
    "fit-k-repeated": (lambda tmp: fit_args(
        tmp, trace_text([0] * 9, [0.1 * j for j in range(9, 0, -1)])), "trace"),
}


class TestMalformedInput:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_exits_one_without_traceback(self, tmp_path, capsys, case):
        argv, field = MALFORMED[case]
        assert cli.main(argv(tmp_path)) == 1
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("config error: ")]
        assert any(field in line for line in errors)


    def test_every_fault_is_reported(self, tmp_path, capsys):
        # gd reads neither delta nor kappa, so each of them is also an unread key
        path = write_config(tmp_path, method="gd", delta="x", colour="red", tau=3.0,
                            kappa=[1.0])
        assert cli.main(["run", "--config", path]) == 1
        fields = [line.split(":")[1].strip() for line in capsys.readouterr().err.splitlines()
                  if line.startswith("config error: ")]
        assert sorted(fields) == ["colour", "delta", "delta", "kappa", "kappa", "tau"]

    def test_problem_beyond_memory_is_config_error(self, tmp_path, capsys, monkeypatch):
        def oversized(n, m):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setitem(bench.PROBLEM_BUILDERS, "logistic-synthetic", oversized)
        assert cli.main(run_args(tmp_path)) == 1
        assert "config error: problem: Unable to allocate" in capsys.readouterr().err


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

    def test_every_cell_is_checked(self, tmp_path, capsys, monkeypatch):
        cli_verify = cli.verify_condition

        def missing_at_the_loose_eps(problem, bundle, budget, rng=None):
            report = cli_verify(problem, bundle, budget, rng=rng)
            if budget.eps == 1e-2:
                return dataclasses.replace(report, passes=(False,) * len(report.passes))
            return report

        monkeypatch.setattr(cli, "verify_condition", missing_at_the_loose_eps)
        path = write_config(tmp_path, seeds=[0, 5])
        argv = ["verify-condition", "--config", path, "--eps", "1e-2,1e-9", "--trials", "2"]
        assert cli.main(argv) == 3
        out = capsys.readouterr().out.splitlines()
        # per cell: its eps and seed, its plan, one pass rate per order
        assert out[::5] == [
            "eps=0.01 seed=0", "eps=0.01 seed=5", "eps=1e-09 seed=0", "eps=1e-09 seed=5"]
        assert len(out) == 4 * 5
        assert all(line.startswith("plan sizes: ") for line in out[1::5])
        assert out[2] == "order 1: pass rate 0.000 (target >= 0.900)"
        assert out[12] == "order 1: pass rate 1.000 (target >= 0.900)"
