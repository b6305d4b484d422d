"""End-to-end CLI coverage over the documented subcommands and flags."""

import ast
import hashlib
import json
import math
import os
import pathlib
import re
import subprocess
import sys
from dataclasses import fields, replace

import pytest

from pnu import bounds, harness, losses, risk, training
from pnu.cli import DESK_NU_VALUES, DESK_PI_VALUES, PAPER_NU_VALUES, PAPER_PI_VALUES, main
from pnu.datasets import gen_gaussian_artificial
from pnu.training import CvConfig, TrainConfig

# Recorded stdout, byte for byte, of four `pnu advise` calls and of
# `pnu verify --seed 0 --fast`: a change to bounds or harness that should
# not move a number must leave these texts as they are.
_ADVISE_FINITE = """\
{
 "pi": 0.5,
 "n_pos": 45,
 "n_neg": 5,
 "n_unl": 100,
 "alpha_pu_pn": 0.7805469288332914,
 "alpha_nu_pn": 4.341640786499874,
 "pu_bound_tighter_than_pn": true,
 "nu_bound_tighter_than_pn": false,
 "alpha_star_pu": 0.3333333333333333,
 "alpha_star_nu": 3.0,
 "verdict": "pu-promising",
 "bound_values": {
  "pn": 1.4789098317568368,
  "pu": 1.235496353338578,
  "nu": 2.714406185095415,
  "delta": 0.05,
  "lipschitz": 0.5,
  "complexity_const": 1.0
 },
 "recommendation": "PU learning is promising: collect more unlabeled data (limit comparator 0.3333 < 1)."
}
"""

_ADVISE_UNBOUNDED = """\
{
 "pi": 0.5,
 "n_pos": 45,
 "n_neg": 5,
 "n_unl": null,
 "alpha_pu_pn": null,
 "alpha_nu_pn": null,
 "pu_bound_tighter_than_pn": null,
 "nu_bound_tighter_than_pn": null,
 "alpha_star_pu": 0.3333333333333333,
 "alpha_star_nu": 3.0,
 "verdict": "pu-promising",
 "bound_values": {
  "pn": 1.4789098317568368,
  "pu": 0.7394549158784184,
  "nu": 2.218364747635255,
  "delta": 0.05,
  "lipschitz": 0.5,
  "complexity_const": 1.0
 },
 "recommendation": "PU learning is promising: collect more unlabeled data (limit comparator 0.3333 < 1)."
}
"""

_ADVISE_NU = """\
{
 "pi": 0.3,
 "n_pos": 5,
 "n_neg": 45,
 "n_unl": 7,
 "alpha_pu_pn": 4.9078039488364995,
 "alpha_nu_pn": 3.5949586268728333,
 "pu_bound_tighter_than_pn": false,
 "nu_bound_tighter_than_pn": false,
 "alpha_star_pu": 1.2857142857142856,
 "alpha_star_nu": 0.7777777777777778,
 "verdict": "nu-promising",
 "bound_values": {
  "pn": 1.183127865405469,
  "pu": 3.20587925358484,
  "nu": 2.910097287233473,
  "delta": 0.05,
  "lipschitz": 0.5,
  "complexity_const": 1.0
 },
 "recommendation": "NU learning is promising: collect more unlabeled data (limit comparator 0.7778 < 1)."
}
"""

_ADVISE_TIE = """\
{
 "pi": 0.5,
 "n_pos": 64,
 "n_neg": 64,
 "n_unl": null,
 "alpha_pu_pn": null,
 "alpha_nu_pn": null,
 "pu_bound_tighter_than_pn": null,
 "nu_bound_tighter_than_pn": null,
 "alpha_star_pu": 1.0,
 "alpha_star_nu": 1.0,
 "verdict": "degenerate-tie",
 "bound_values": {
  "pn": 0.6200517968251995,
  "pu": 0.6200517968251995,
  "nu": 0.6200517968251995,
  "delta": 0.05,
  "lipschitz": 0.5,
  "complexity_const": 1.0
 },
 "recommendation": "Degenerate tie (n_pos/n_neg equals pi^2/(1-pi)^2): neither unlabeled-data route improves on PN in the limit; PN remains competitive."
}
"""

_VERIFY_SEED_0_FAST = """\
[PASS] calibration: conditional-risk grid 0.05 x 0.01 over [-2, 2]
[PASS] comparator-equivalence: 2000 random inputs, 0 violations
[PASS] alpha-star-reciprocity: 2000 random inputs, worst product error 2.22e-16
[PASS] unbiasedness: PN gap 2.77e-04 vs 5se 1.01e-03; PU gap 4.55e-04 vs 5se 2.00e-03; NU gap 9.98e-05 vs 5se 2.03e-03
[PASS] rademacher: 20 samples across n in (1, 10, 100, 1000)
"""

# sha256 of `pnu verify --seed 0` stdout at full size.
_VERIFY_SEED_0_SHA256 = "e17d516bc6dd66955727b83721fc37516461b2abc590619e16de8d1a29275436"


class TestAdviseCommand:
    @pytest.mark.parametrize("args, expected", [
        (["--pi", "0.5", "--n-pos", "45", "--n-neg", "5", "--n-unl", "100"], _ADVISE_FINITE),
        (["--pi", "0.5", "--n-pos", "45", "--n-neg", "5", "--n-unl", "inf"], _ADVISE_UNBOUNDED),
        (["--pi", "0.3", "--n-pos", "5", "--n-neg", "45", "--n-unl", "7"], _ADVISE_NU),
        (["--pi", "0.5", "--n-pos", "64", "--n-neg", "64"], _ADVISE_TIE),
    ], ids=["finite", "unbounded", "nu", "tie"])
    def test_output_matches_recorded_bytes(self, capsys, args, expected):
        assert main(["advise", *args]) == 0
        assert capsys.readouterr().out == expected

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

    def test_file_holds_the_bytes_printed_to_stdout(self, capsys, tmp_path):
        args = ["advise", "--pi", "0.3", "--n-pos", "5", "--n-neg", "45", "--n-unl", "7"]
        assert main(args) == 0
        printed = capsys.readouterr().out
        out = tmp_path / "advice.json"
        assert main([*args, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == printed.encode("utf-8")

    def test_empty_out_path_fails_without_printing(self, capsys):
        code = main(["advise", "--pi", "0.5", "--n-pos", "5", "--n-neg", "5", "--out", ""])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")

    def test_contract_violation_exits_nonzero(self, capsys):
        code = main(["advise", "--pi", "1.5", "--n-pos", "5", "--n-neg", "5",
                     "--n-unl", "10"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("n_unl", ["abc", "2.5"])
    def test_bad_n_unl_names_the_flag(self, capsys, n_unl):
        with pytest.raises(SystemExit) as exc:
            main(["advise", "--pi", "0.5", "--n-pos", "5", "--n-neg", "5", "--n-unl", n_unl])
        assert exc.value.code == 2
        last = capsys.readouterr().err.strip().splitlines()[-1]
        assert "--n-unl" in last and repr(n_unl) in last

    def test_count_past_int64_prints_comparator_values(self, capsys):
        """2**64 positives is a float64 count: the comparators read it as one."""
        n_pos = 2 ** 64
        assert main(["advise", "--pi", "0.5", "--n-pos", str(n_pos), "--n-neg", "5",
                     "--n-unl", "100"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n_pos"] == n_pos
        root = math.sqrt(float(n_pos))
        assert doc["alpha_star_pu"] == 0.5 * math.sqrt(5) / (0.5 * root)
        assert doc["alpha_pu_pn"] == (0.5 / root + 1.0 / 10.0) / (0.5 / math.sqrt(5))

    @pytest.mark.parametrize("flag", ["--n-pos", "--n-neg", "--n-unl"])
    def test_count_past_float64_exits_2_naming_it(self, capsys, flag):
        counts = {"--n-pos": "45", "--n-neg": "5", "--n-unl": "100", flag: str(10 ** 400)}
        code = main(["advise", "--pi", "0.5", *(x for pair in counts.items() for x in pair)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        (line,) = captured.err.strip().splitlines()
        assert line.startswith(f"error: {flag[2:].replace('-', '_')} must be at most 1.798e+308")


class TestSweepCommands:
    @pytest.mark.parametrize("command, flag, text, expected", [
        ("sweep-nu", "--n-unl", "5,abc", "integers"),
        ("sweep-nu", "--n-unl", "5,2.5", "integers"),
        ("sweep-nu", "--n-unl", ",", "integers"),
        ("sweep-pi", "--pi", "0.3,x", "numbers"),
        ("sweep-pi", "--pi", " ", "numbers"),
    ])
    def test_bad_sweep_list_says_what_it_expects(self, capsys, command, flag, text, expected):
        with pytest.raises(SystemExit) as exc:
            main([command, flag, text])
        assert exc.value.code == 2
        last = capsys.readouterr().err.strip().splitlines()[-1]
        assert last.endswith(f"argument {flag}: expected comma-separated {expected}, "
                             f"got {text!r}")

    @pytest.mark.parametrize("command, paper, trials, test_size, values", [
        ("sweep-nu", False, 50, 100_000, DESK_NU_VALUES),
        ("sweep-nu", True, 100, 1_000_000, PAPER_NU_VALUES),
        ("sweep-pi", False, 50, 100_000, DESK_PI_VALUES),
        ("sweep-pi", True, 100, 1_000_000, PAPER_PI_VALUES),
    ])
    def test_default_and_paper_scale_presets(self, monkeypatch, command, paper, trials,
                                             test_size, values):
        """With no --trials, --test-size or sweep list, the scale picks all three."""
        grids = []
        monkeypatch.setattr(harness, "run_sweep",
                            lambda grid, *args: grids.append(grid) or harness.ResultTable())
        monkeypatch.setattr(harness, "emit", lambda *args: None)
        assert main([command] + ["--paper-scale"] * paper) == 0
        (grid,) = grids
        assert (grid.trials, grid.test_size, grid.values) == (trials, test_size, values)

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
        cfg.write_text(json.dumps({"lambda": 0.01, "restarts": 1}), encoding="utf-8")
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

    def test_data_without_label_col_names_the_flag(self, tmp_path, capsys):
        """The flag is checked before the file is read, so a missing file does not mask it."""
        code = main([
            "sweep-nu", "--n-unl", "5", "--pi", "0.5", "--n-pos", "6", "--n-neg", "6",
            "--trials", "1", "--data", str(tmp_path / "x.csv"),
        ])
        assert code == 2
        self._assert_one_line_error(capsys.readouterr().err, "x.csv", "needs --label-col")

    @pytest.mark.parametrize("command", [["sweep-nu", "--n-unl", "5"], ["sweep-pi", "--pi", "0.5"]])
    def test_label_col_without_data_exits_2_naming_both(self, monkeypatch, capsys, command):
        """A synthetic sweep has no label column, so --label-col alone would be ignored."""
        self._forbid_sweep(monkeypatch)
        code = main([*command, "--trials", "1", "--test-size", "10", "--label-col", "y"])
        assert code == 2
        self._assert_one_line_error(capsys.readouterr().err, "--label-col", "--data")

    @pytest.mark.parametrize("extra", [[], ["--paper-scale"]], ids=["desk", "paper-scale"])
    def test_test_size_with_data_exits_2_naming_both(self, tmp_path, monkeypatch, capsys, extra):
        """A CSV sweep's holdout is the pool's leftover rows, so --test-size would be ignored.

        The flags are checked before the file is read: this one does not exist.
        """
        self._forbid_sweep(monkeypatch)
        code = main([
            "sweep-nu", "--n-unl", "5", "--trials", "1", "--data", str(tmp_path / "x.csv"),
            "--label-col", "y", "--test-size", "10", *extra,
        ])
        assert code == 2
        self._assert_one_line_error(capsys.readouterr().err, "--test-size", "--data")

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
        ("--train-config", {"cccp_max_outer": 30}, "'cccp_max_outer'"),
        ("--train-config", {"lambda": 1e-3, "lam": 0.5}, "'lambda' and 'lam'"),
        ("--cv-config", {"width_grid": [1e-170], "lambda_grid": [0.1]}, "'width_grid'"),
        ("--cv-config", {"width_grid": [9e153], "lambda_grid": [0.1]}, "'width_grid'"),
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
    def _forbid_sweep(monkeypatch):
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(harness, "run_sweep", no_sweep)

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

    def test_short_holdout_exits_2_naming_it(self, tmp_path, capsys):
        """Five rows serve a 1/1/2 draw, but the one row left cannot be a holdout."""
        path = tmp_path / "pool.csv"
        path.write_text("f1,y\n0.1,1\n0.5,1\n0.9,1\n-0.3,-1\n-0.7,-1\n", encoding="utf-8")
        code = main([
            "sweep-nu", "--n-unl", "2", "--pi", "0.5", "--n-pos", "1", "--n-neg", "1",
            "--trials", "1", "--data", str(path), "--label-col", "y",
        ])
        assert code == 2
        self._assert_one_line_error(capsys.readouterr().err, "sweep point nu=2, trial 0: ",
                                    "holdout too small: 1 row(s) left after the draw, "
                                    "none of the negative class")

    @pytest.mark.parametrize("out", ["missing/x.json", "."], ids=["no-directory", "a-directory"])
    def test_unwritable_out_exits_2_before_the_sweep(self, tmp_path, monkeypatch, capsys, out):
        """The --out path is checked before any training, not after the sweep."""
        self._forbid_sweep(monkeypatch)
        out = str(tmp_path / out)
        code = main(["sweep-nu", "--n-unl", "5", "--trials", "1", "--out", out])
        assert code == 2
        self._assert_one_line_error(capsys.readouterr().err, f"--out {out}: ")

    def test_nan_pi_exits_2_before_the_sweep(self, monkeypatch, capsys):
        """Every sweep value is checked, not only the first and the last."""
        self._forbid_sweep(monkeypatch)
        code = main(["sweep-pi", "--pi", "0.3,nan", "--n-unl", "5", "--trials", "1"])
        assert code == 2
        self._assert_one_line_error(capsys.readouterr().err, "strictly inside (0, 1)")

    def test_data_named_artificial_is_read(self, tmp_path, monkeypatch):
        """A CSV file named ``artificial`` is loaded, not taken for the synthetic source."""
        (tmp_path / "artificial").write_text(
            "f1,y\n" + "".join(f"{i}.0,{1 if i % 2 else -1}\n" for i in range(40)),
            encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        loaded = []
        real = harness.load_csv
        monkeypatch.setattr(harness, "load_csv", lambda *args: loaded.append(args) or real(*args))
        code = main(["sweep-nu", "--n-unl", "4", "--pi", "0.5", "--n-pos", "3", "--n-neg", "3",
                     "--trials", "1", "--data", "artificial", "--label-col", "y",
                     "--out", str(tmp_path / "table.csv")])
        assert code == 0
        assert loaded == [("artificial", "y")]

    def test_non_finite_csv_exits_2(self, tmp_path, capsys):
        path = tmp_path / "pool.csv"
        path.write_text("f1,y\n1.0,1\nnan,-1\n2.0,1\n3.0,-1\n", encoding="utf-8")
        code = main([
            "sweep-nu", "--n-unl", "1", "--pi", "0.5", "--n-pos", "1", "--n-neg", "1",
            "--trials", "1", "--data", str(path), "--label-col", "y",
        ])
        assert code == 2
        self._assert_one_line_error(capsys.readouterr().err, "pool.csv:3: non-finite")

    def test_csv_too_large_to_standardize_exits_2(self, tmp_path, capsys):
        """Finite cells whose column variance overflows float64 fail before any training."""
        path = tmp_path / "pool.csv"
        path.write_text("f1,y\n" + "".join(f"{(-1) ** i}e300,{i % 2}\n" for i in range(8)),
                        encoding="utf-8")
        code = main([
            "sweep-nu", "--n-unl", "1", "--pi", "0.5", "--n-pos", "1", "--n-neg", "1",
            "--trials", "1", "--data", str(path), "--label-col", "y",
        ])
        assert code == 2
        self._assert_one_line_error(capsys.readouterr().err,
                                    "pool.csv: feature values too large to standardize")

    def test_files_starting_with_a_byte_order_mark_are_read(self, tmp_path, capsys):
        """A spreadsheet's UTF-8 export starts with U+FEFF; it is not part of the first cell."""
        data, cfg = tmp_path / "bom.csv", tmp_path / "train.json"
        data.write_text("\ufefflabel,x1\n" + "".join(f"{i % 2},{i}.5\n" for i in range(40)),
                        encoding="utf-8")
        cfg.write_text("\ufeff" + json.dumps({"restarts": 1}), encoding="utf-8")
        code = main(["sweep-pi", "--pi", "0.5", "--n-unl", "4", "--n-pos", "3", "--n-neg", "3",
                     "--trials", "1", "--data", str(data), "--label-col", "label",
                     "--train-config", str(cfg)])
        assert code == 0
        assert capsys.readouterr().out.strip()

    @pytest.mark.parametrize("flag, content, fragment", [
        ("--train-config", b'{"lam": 0.1, bad}', "Expecting property name"),
        ("--cv-config", b'{"lambda_grid": [0.1]', "Expecting ',' delimiter"),
        ("--train-config", b'{"lam": 0.1\xff}', "'utf-8' codec can't decode byte 0xff"),
        ("--data", b"f1,y\n1.0,1\n\xff2.0,-1\n", "'utf-8' codec can't decode byte 0xff"),
    ], ids=["train-json", "cv-json", "train-bytes", "data-bytes"])
    def test_unreadable_file_exits_2_naming_it(self, tmp_path, monkeypatch, capsys, flag,
                                               content, fragment):
        """Text that is not JSON, or bytes that are not UTF-8, fail naming the file."""
        path = tmp_path / "input.txt"
        path.write_bytes(content)
        if flag != "--data":
            self._forbid_sweep(monkeypatch)
        code = main(["sweep-nu", "--n-unl", "5", "--trials", "1", flag, str(path),
                     *(["--label-col", "y"] if flag == "--data" else ["--test-size", "10"])])
        assert code == 2
        self._assert_one_line_error(capsys.readouterr().err, f"error: {path}: ", fragment)

    def test_rows_too_large_to_train_on_exit_2(self, monkeypatch, capsys):
        """Finite rows of 1e300 overflow the solve: a one-line contract error, not a warning."""
        def huge(*args):
            triple = gen_gaussian_artificial(*args)
            return replace(triple, x_pos=1e300 * triple.x_pos, x_neg=1e300 * triple.x_neg,
                           x_unl=1e300 * triple.x_unl)

        monkeypatch.setattr(harness, "gen_gaussian_artificial", huge)
        code = main(["sweep-nu", "--n-unl", "5", "--trials", "1", "--test-size", "10"])
        assert code == 2
        self._assert_one_line_error(
            capsys.readouterr().err, "sweep point nu=5, trial 0: non-finite objective: "
            "training on the x_pos and x_neg rows overflowed float64")

    def test_count_past_float64_exits_2_before_the_sweep(self, monkeypatch, capsys):
        self._forbid_sweep(monkeypatch)
        code = main(["sweep-nu", "--n-unl", str(10 ** 400), "--trials", "1", "--test-size", "10"])
        assert code == 2
        self._assert_one_line_error(capsys.readouterr().err,
                                    "unlabeled size must be at most 1.798e+308")

    @pytest.mark.parametrize("count", [10 ** 300, 2 ** 63], ids=["10**300", "2**63"])
    @pytest.mark.parametrize("command, flag, field", [
        ("sweep-nu", "--n-pos", "n_pos"), ("sweep-nu", "--n-neg", "n_neg"),
        ("sweep-nu", "--test-size", "test_size"), ("sweep-nu", "--trials", "trials"),
        ("sweep-nu", "--n-unl", "unlabeled size"), ("sweep-pi", "--n-unl", "n_unl"),
    ])
    def test_size_past_numpy_arrays_exits_2_naming_it(self, monkeypatch, capsys, command, flag,
                                                      field, count):
        """Each size is refused before the sweep, where numpy would name no field."""
        self._forbid_sweep(monkeypatch)
        args = {"--trials": "1", "--test-size": "10", flag: str(count)}
        code = main([command, *(x for pair in args.items() for x in pair)])
        assert code == 2
        self._assert_one_line_error(capsys.readouterr().err, f"error: {field} must be at most ")

    @pytest.mark.parametrize("message", ["Unable to allocate 44.7 GiB for an array with shape "
                                         "(3000000000, 2) and data type float64", ""])
    def test_refused_allocation_exits_2_naming_the_sweep_point(self, monkeypatch, capsys,
                                                                message):
        """A MemoryError inside a trial is one error line; nothing is allocated for real."""
        def refuse(*args):
            raise MemoryError(message)

        monkeypatch.setattr(harness, "gen_gaussian_artificial", refuse)
        code = main(["sweep-nu", "--n-unl", "5", "--n-neg", "3000000000", "--trials", "1",
                     "--test-size", "10"])
        assert code == 2
        self._assert_one_line_error(capsys.readouterr().err, "sweep point nu=5, trial 0: ",
                                    message or "MemoryError")


class TestVerifyCommand:
    def test_seed_0_fast_output_matches_recorded_bytes(self, capsys):
        assert main(["verify", "--seed", "0", "--fast"]) == 0
        assert capsys.readouterr().out == _VERIFY_SEED_0_FAST

    def test_seed_0_full_output_matches_recorded_digest(self, capsys):
        assert main(["verify", "--seed", "0"]) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == _VERIFY_SEED_0_SHA256

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

    def test_negative_seed_exits_2_before_any_suite(self, capsys):
        code = main(["verify", "--seed", "-3"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        TestSweepCommands._assert_one_line_error(captured.err, "'seed'")

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

    @pytest.mark.parametrize("name, perturb, suite", [
        ("alpha_pu_pn", lambda alpha: 2.0 * alpha, "comparator-equivalence"),
        ("alpha_star",
         lambda res: replace(res, alpha_star_nu=res.alpha_star_nu * (1.0 + 1e-9)),
         "alpha-star-reciprocity"),
    ], ids=["comparator-equivalence", "alpha-star-reciprocity"])
    def test_failed_comparator_suite_exits_1(self, monkeypatch, capsys, name, perturb, suite):
        """A doubled PU comparator breaks equivalence; a perturbed 1/alpha* breaks reciprocity."""
        true_fn = getattr(bounds, name)
        monkeypatch.setattr(bounds, name, lambda *args, **kw: perturb(true_fn(*args, **kw)))
        code = main(["verify", "--fast"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 1
        failed = [line for line in lines if line.startswith("[FAIL]")]
        assert len(failed) == 1 and failed[0].startswith(f"[FAIL] {suite}: 2000 random inputs")
        assert sum(line.startswith("[PASS]") for line in lines) == 4

    def test_biased_pu_estimator_fails_unbiasedness(self, monkeypatch, capsys):
        """A PU estimator 1e-2 off the exact risk fails the unbiasedness suite, and only it."""
        true_pu = risk.risk_pu
        monkeypatch.setattr(risk, "risk_pu", lambda *args: true_pu(*args) + 1e-2)
        code = main(["verify", "--fast"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 1
        failed = [line for line in lines if line.startswith("[FAIL]")]
        assert len(failed) == 1 and failed[0].startswith("[FAIL] unbiasedness: PN gap")
        assert sum(line.startswith("[PASS]") for line in lines) == 4

    def test_short_resample_draw_exits_2(self, monkeypatch, capsys):
        """A block's draw one resample short of the others reaches the estimator's shape check."""
        def short_neg(n_pos, n_neg, n_unl, pi, seed):
            triple = gen_gaussian_artificial(n_pos, n_neg, n_unl, pi, seed)
            return replace(triple, x_neg=triple.x_neg[50:])

        monkeypatch.setattr(harness, "gen_gaussian_artificial", short_neg)
        code = main(["verify", "--fast"])
        assert code == 2
        TestSweepCommands._assert_one_line_error(
            capsys.readouterr().err, "resample axis", "(500, 50, 2) and (499, 50, 2)")


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


def test_readme_quick_start_runs(capsys):
    """README's Python quick-start block runs as printed, so a renamed name cannot break it."""
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, re.S)
    exec(compile(block, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert 0.0 <= float(lines[1]) <= 0.5


def test_only_datasets_lends_private_names():
    """No module of the package reads a sibling's underscore name, except the contract rules.

    ``datasets`` holds the input-contract checks every layer shares; any other
    private name stays inside its module.
    """
    package = pathlib.Path(__file__).parents[1] / "src" / "pnu"
    siblings = {path.stem for path in package.glob("*.py")}
    leaks = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module != "datasets":
                leaks += [f"{path.name}: from .{node.module} import {alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
            elif (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                  and isinstance(node.value, ast.Name) and node.value.id in siblings - {"datasets"}):
                leaks.append(f"{path.name}: {node.value.id}.{node.attr}")
    assert leaks == []


def test_no_name_lookup_by_string_or_import_inside_a_function():
    """No module calls ``globals()`` or ``locals()``, or imports inside a function body.

    Every name a module calls is then bound at its head, where a wrapper
    installed on the module attribute replaces it for every caller.
    """
    package = pathlib.Path(__file__).parents[1] / "src" / "pnu"
    found = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ("globals", "locals")):
                found.add(f"{path.name}:{node.lineno}: {node.func.id}()")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found |= {f"{path.name}:{inner.lineno}: import in {node.name}"
                          for inner in ast.walk(node)
                          if isinstance(inner, (ast.Import, ast.ImportFrom))}
    assert sorted(found) == []


def test_runtime_imports_only_numpy():
    """Importing the package and its CLI loads no third-party module but numpy."""
    src = pathlib.Path(__file__).parents[1] / "src"
    code = (
        "import sys; before = set(sys.modules); import pnu, pnu.cli; "
        "print(' '.join(sorted({m.split('.')[0] for m in set(sys.modules) - before}"
        " - set(sys.stdlib_module_names))))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["numpy", "pnu"]
