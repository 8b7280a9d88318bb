"""Exit-code contract of the command-line harness: bad input exits 1, never a traceback."""

import json

import pytest

from tensorstep import cli


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


def fit_args(tmp_path, text):
    """``fit`` on a trace file holding ``text``, or on a missing file for ``None``."""
    path = tmp_path / "trace.csv"
    if text is not None:
        path.write_text(text)
    return ["fit", str(path)]


MALFORMED = {
    "delta-string": lambda tmp: ["run", "--config", write_config(tmp, delta="a")],
    "diameter-string": lambda tmp: ["run", "--config", write_config(tmp, diameter="x")],
    "seed-string": lambda tmp: ["run", "--config", write_config(tmp, seeds=["a"])],
    "kappa-strings": lambda tmp: ["run", "--config", write_config(tmp, kappa=["a", "b", "c"])],
    "x0-offset-string": lambda tmp: ["run", "--config", write_config(tmp, x0_offset="q")],
    "max-iter-bool": lambda tmp: ["run", "--config", write_config(tmp, max_iter=True)],
    "n-string": lambda tmp: ["run", "--config", write_config(
        tmp, problem={"kind": "logistic-synthetic", "n": "4", "m": 300})],
    "n-zero": lambda tmp: ["run", "--config", write_config(
        tmp, problem={"kind": "logistic-synthetic", "n": 0, "m": 300})],
    "fit-missing-file": lambda tmp: fit_args(tmp, None),
    "fit-no-step-norm": lambda tmp: fit_args(tmp, "k,f_gap\n0,1.0\n"),
    "fit-non-numeric": lambda tmp: fit_args(
        tmp, "k,f_gap,step_norm,n1,n2,n3,inner_iters,grad_calls,hess_calls,third_calls\n"
             "0,x,0,0,0,0,0,0,0,0\n"),
}


class TestMalformedInput:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_exits_one_without_traceback(self, tmp_path, capsys, case):
        assert cli.main(MALFORMED[case](tmp_path)) == 1
        assert "error" in capsys.readouterr().err


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
