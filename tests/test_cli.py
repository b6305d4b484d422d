"""End-to-end CLI coverage over the documented subcommands and flags."""

import json
import pathlib
import re
from dataclasses import fields, replace

import pytest

from pnu import harness, losses, training
from pnu.cli import main
from pnu.datasets import gen_gaussian_artificial
from pnu.training import CvConfig, TrainConfig


class TestAdviseCommand:
    def test_prints_json(self, capsys):
        code = main(["advise", "--pi", "0.5", "--n-pos", "45", "--n-neg", "5",
                     "--n-unl", "100"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "pu-promising"
        assert doc["alpha_pu_pn"] == pytest.approx(0.7805469288332914, abs=1e-12)

    def test_unbounded_unlabeled(self, capsys):
        code = main(["advise", "--pi", "0.5", "--n-pos", "45", "--n-neg", "5",
                     "--n-unl", "inf"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n_unl"] is None

    def test_writes_file(self, tmp_path):
        out = tmp_path / "advice.json"
        code = main(["advise", "--pi", "0.5", "--n-pos", "5", "--n-neg", "45",
                     "--n-unl", "100", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text(encoding="utf-8"))["verdict"] == "nu-promising"

    def test_contract_violation_exits_nonzero(self, capsys):
        code = main(["advise", "--pi", "1.5", "--n-pos", "5", "--n-neg", "5",
                     "--n-unl", "10"])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestSweepCommands:
    def test_sweep_nu_to_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep-nu", "--n-unl", "5,15", "--pi", "0.5", "--n-pos", "8", "--n-neg", "8",
            "--trials", "1", "--test-size", "500", "--seed", "3",
            "--out", str(out), "--format", "csv",
        ])
        assert code == 0
        lines = out.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0].startswith("sweep_value,mode")
        assert len(lines) == 1 + 2 * 3

    def test_sweep_pi_stdout(self, capsys):
        code = main([
            "sweep-pi", "--pi", "0.3,0.7", "--n-unl", "10", "--n-pos", "6", "--n-neg", "6",
            "--trials", "1", "--test-size", "500", "--seed", "4",
        ])
        assert code == 0
        out_lines = capsys.readouterr().out.strip().splitlines()
        assert out_lines[0].startswith("sweep_value,mode")
        assert len(out_lines) == 1 + 2 * 3

    def test_sweep_json_stdout(self, capsys):
        """Without --out, --format json prints JSON, not CSV."""
        code = main(["sweep-nu", "--n-unl", "10", "--trials", "1", "--test-size", "100",
                     "--format", "json"])
        assert code == 0
        assert len(json.loads(capsys.readouterr().out)["rows"]) == 3

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_stdout_matches_out_file(self, tmp_path, capsys, fmt):
        argv = ["sweep-nu", "--n-unl", "10", "--n-pos", "6", "--n-neg", "6", "--trials", "1",
                "--test-size", "100", "--format", fmt]
        out = tmp_path / f"sweep.{fmt}"
        assert main(argv + ["--out", str(out)]) == 0
        assert main(argv) == 0
        assert capsys.readouterr().out.encode() == out.read_bytes()

    def test_train_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"lambda": 0.01, "cccp_max_outer": 3}), encoding="utf-8")
        code = main([
            "sweep-nu", "--n-unl", "5", "--pi", "0.5", "--n-pos", "6", "--n-neg", "6",
            "--trials", "1", "--test-size", "400", "--seed", "5",
            "--train-config", str(cfg),
        ])
        assert code == 0
        assert capsys.readouterr().out.strip()

    def test_missing_data_file_is_a_clean_error(self, capsys):
        code = main([
            "sweep-nu", "--n-unl", "5", "--pi", "0.5", "--n-pos", "6", "--n-neg", "6",
            "--trials", "1", "--data", "nope.csv", "--label-col", "y",
        ])
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, doc, fragment", [
        ("--train-config", {"bogus": 1}, "'bogus'"),
        ("--train-config", [0.1], "JSON object"),
        ("--train-config", {"lam": "x"}, "'lam'"),
        ("--cv-config", {"lambda_grid": 0.1}, "'lambda_grid'"),
        ("--cv-config", {"folds": 2.5, "lambda_grid": [0.1]}, "'folds'"),
        ("--train-config", {"inner_tol": 1e-8}, "'inner_tol'"),
        ("--train-config", {"lambda": float("nan")}, "'lam'"),
        ("--train-config", {"outer_tol": float("inf")}, "'outer_tol'"),
        ("--cv-config", {"width_grid": [float("inf")], "lambda_grid": [0.1]}, "'width_grid'"),
        ("--cv-config", {"lambda_grid": [0.1, float("nan")]}, "'lambda_grid'"),
        ("--train-config", {"seed": -1}, "'seed'"),
        ("--train-config", {"lambda": 0}, "'lam'"),
        ("--train-config", {"inner_max_iter": 300}, "'inner_max_iter'"),
    ])
    def test_bad_config_file_exits_2(self, tmp_path, capsys, flag, doc, fragment):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        code = main([
            "sweep-nu", "--n-unl", "5", "--pi", "0.5", "--n-pos", "6", "--n-neg", "6",
            "--trials", "1", "--test-size", "400", flag, str(cfg),
        ])
        assert code == 2
        self._assert_one_line_error(capsys.readouterr().err, fragment)

    def test_solver_failure_exits_3(self, tmp_path, monkeypatch, capsys):
        """A trial whose CCCP step raises the objective aborts the sweep with its context."""
        path = tmp_path / "pool.csv"
        path.write_text("f1,f2,y\n" + "".join(f"{i % 7}.5,{i % 5}.0,{i % 2}\n" for i in range(60)),
                        encoding="utf-8")
        monkeypatch.setattr(training, "_solve", lambda theta0, *args: theta0 + 1e4)
        code = main([
            "sweep-nu", "--n-unl", "5", "--pi", "0.5", "--n-pos", "6", "--n-neg", "6",
            "--trials", "1", "--data", str(path), "--label-col", "y",
        ])
        assert code == 3
        self._assert_one_line_error(capsys.readouterr().err, "sweep point nu=5, trial 0: ",
                                    "objective increased")

    @staticmethod
    def _assert_one_line_error(err, *fragments):
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "Traceback" not in err
        for fragment in fragments:
            assert fragment in lines[0]

    def test_pool_exhaustion_exits_2(self, tmp_path, capsys):
        path = tmp_path / "pool.csv"
        path.write_text("f1,y\n" + "".join(f"{i}.0,{1 if i < 3 else -1}\n" for i in range(10)),
                        encoding="utf-8")
        code = main([
            "sweep-pi", "--pi", "0.5", "--n-unl", "4", "--n-pos", "8", "--n-neg", "2",
            "--trials", "1", "--data", str(path), "--label-col", "y",
        ])
        assert code == 2
        self._assert_one_line_error(capsys.readouterr().err,
                                    "sweep point pi=0.5, trial 0: ", "positive class exhausted")

    def test_non_finite_csv_exits_2(self, tmp_path, capsys):
        path = tmp_path / "pool.csv"
        path.write_text("f1,y\n1.0,1\nnan,-1\n2.0,1\n3.0,-1\n", encoding="utf-8")
        code = main([
            "sweep-nu", "--n-unl", "1", "--pi", "0.5", "--n-pos", "1", "--n-neg", "1",
            "--trials", "1", "--data", str(path), "--label-col", "y",
        ])
        assert code == 2
        self._assert_one_line_error(capsys.readouterr().err, "pool.csv:3: non-finite")


class TestVerifyCommand:
    def test_fast_verify_passes(self, capsys):
        code = main(["verify", "--fast", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("[PASS]") == 5
        assert "[FAIL]" not in out

    @pytest.mark.parametrize("size", [[], ["--fast"]], ids=["full", "fast"])
    @pytest.mark.parametrize("seed", range(10))
    def test_passes_for_seeds_0_to_9(self, capsys, seed, size):
        code = main(["verify", "--seed", str(seed), *size])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("[PASS]") == 5
        assert "[FAIL]" not in out

    def test_failed_suite_exits_1(self, monkeypatch, capsys):
        """A conditional risk mirrored in g fails calibration, and only calibration."""
        true_risk = losses.conditional_risk
        monkeypatch.setattr(losses, "conditional_risk", lambda p, g: true_risk(p, -g))
        code = main(["verify", "--fast"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 1
        assert [line for line in lines if line.startswith("[FAIL]")] == [
            "[FAIL] calibration: conditional-risk grid 0.05 x 0.01 over [-2, 2]"
        ]
        assert sum(line.startswith("[PASS]") for line in lines) == 4

    def test_short_resample_draw_exits_2(self, monkeypatch, capsys):
        """A draw one resample short of the others reaches the estimator's shape check."""
        def short_neg(n_pos, n_neg, n_unl, pi, seed):
            triple = gen_gaussian_artificial(n_pos, n_neg, n_unl, pi, seed)
            return replace(triple, x_neg=triple.x_neg[50:])

        monkeypatch.setattr(harness, "gen_gaussian_artificial", short_neg)
        code = main(["verify", "--fast"])
        assert code == 2
        TestSweepCommands._assert_one_line_error(
            capsys.readouterr().err, "resample axis", "(2000, 50, 2) and (1999, 50, 2)")


def test_readme_config_examples_load():
    """The two JSON blocks under README's "### Config files" load, with every key documented."""
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Config files", 1)[1].split("\n## ", 1)[0]
    train_doc, cv_doc = (json.loads(block)
                         for block in re.findall(r"```json\n(.*?)```", section, re.S))
    TrainConfig.from_dict(train_doc)
    CvConfig.from_dict(cv_doc)
    assert {"lam" if key == "lambda" else key for key in train_doc} == \
        {f.name for f in fields(TrainConfig)}
    assert set(cv_doc) == {f.name for f in fields(CvConfig)}
