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
