import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ewm
from ewm.cli import main, parse_alpha_grid
from ewm.errors import FormatError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseAlphaGrid:
    def test_log_grid(self):
        grid = parse_alpha_grid("log:1e-2:1e-120:30")
        assert len(grid) == 30
        assert grid[0] == 1e-2 and grid[-1] == 1e-120
        ratios = [grid[i + 1] / grid[i] for i in range(29)]
        assert max(ratios) / min(ratios) < 1.0 + 1e-9  # geometric spacing

    def test_comma_list(self):
        assert parse_alpha_grid("0.1,0.05,0.02") == [0.1, 0.05, 0.02]

    def test_count_too_small(self):
        with pytest.raises(FormatError):
            parse_alpha_grid("log:1e-2:1e-120:1")

    def test_malformed(self):
        with pytest.raises(FormatError):
            parse_alpha_grid("log:1e-2:1e-120")
        with pytest.raises(FormatError):
            parse_alpha_grid("abc")
        with pytest.raises(FormatError):
            parse_alpha_grid("0.5,2.0")


class TestJstarCommand:
    def test_values(self, capsys):
        code, out, _ = run(capsys, "jstar", "--anchor", "[0.5,0.5]", "--delta", "0.1")
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["entropy"] - 0.693147) < 5e-7
        assert abs(payload["jstar"] - 0.494632) < 5e-7
        assert abs(payload["inv_jstar"] - 2.021705) < 5e-6

    def test_reruns_byte_identical(self, capsys):
        _, out1, _ = run(capsys, "jstar", "--anchor", "[0.4,0.3,0.3]", "--delta", "0.1")
        _, out2, _ = run(capsys, "jstar", "--anchor", "[0.4,0.3,0.3]", "--delta", "0.1")
        assert out1 == out2

    def test_anchor_file(self, capsys, tmp_path):
        path = tmp_path / "anchor.json"
        path.write_text("[0.5, 0.5]")
        code, out, _ = run(capsys, "jstar", "--anchor-file", str(path), "--delta", "0.1")
        assert code == 0 and abs(json.loads(out)["jstar"] - 0.494632) < 5e-7

    def test_inline_wins_over_file(self, capsys, tmp_path):
        path = tmp_path / "anchor.json"
        path.write_text("[0.2, 0.8]")
        _, out, _ = run(capsys, "jstar", "--anchor", "[0.5,0.5]",
                        "--anchor-file", str(path), "--delta", "0.1")
        assert abs(json.loads(out)["jstar"] - 0.494632) < 5e-7

    def test_anchor_accepts_a_path_too(self, capsys, tmp_path):
        path = tmp_path / "a.json"
        path.write_text("[0.5, 0.5]")
        code, out, _ = run(capsys, "jstar", "--anchor", str(path), "--delta", "0.1")
        assert code == 0 and abs(json.loads(out)["jstar"] - 0.494632) < 5e-7


class TestImport:
    def test_import_leaves_scipy_unloaded(self):
        # scipy serves only the baseline detector and is imported on first use
        src = str(Path(ewm.__file__).resolve().parents[1])
        probe = "import sys, ewm.cli; sys.exit(int('scipy' in sys.modules))"
        env = dict(os.environ, PYTHONPATH=src)
        assert subprocess.run([sys.executable, "-c", probe], env=env).returncode == 0


class TestErrors:
    def test_unknown_subcommand_usage_error(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2

    def test_unknown_flag_usage_error(self, capsys):
        code, _, _ = run(capsys, "jstar", "--anchor", "[0.5,0.5]", "--delta", "0.1", "--nope")
        assert code == 2

    def test_runtime_error_exit_one(self, capsys):
        code, _, err = run(capsys, "jstar", "--anchor", "[0.5,0.6]", "--delta", "0.1")
        assert code == 1 and "error" in err

    def test_non_integer_stream_row(self, capsys, tmp_path):
        stream = tmp_path / "stream.csv"
        stream.write_text("step,v,s\n0,a,1\n")
        for method in ("evalue", "baseline"):
            code, _, err = run(capsys, "detect", "--anchor", "[0.5,0.5]", "--delta", "0.1",
                               "--alpha", "0.02", "--method", method, "--stream", str(stream))
            assert code == 1 and "non-integer stream row" in err

    def test_symbol_outside_vocabulary(self, capsys, tmp_path):
        stream = tmp_path / "stream.csv"
        stream.write_text("step,v,s\n0,7,1\n")
        for method in ("evalue", "baseline"):
            code, out, err = run(capsys, "detect", "--anchor", "[0.5,0.5]", "--delta", "0.1",
                                 "--alpha", "0.02", "--method", method, "--stream", str(stream))
            assert code == 1 and out == "" and "out of range for n=2" in err

    def test_non_numeric_anchor_weight(self, capsys):
        code, out, err = run(capsys, "jstar", "--anchor", '["a",0.5]', "--delta", "0.1")
        assert code == 1 and out == "" and "weights must be numbers" in err
        assert "Traceback" not in err

    def test_negative_steps(self, capsys, tmp_path):
        code, _, err = run(capsys, "generate", "--anchor", "[0.5,0.5]", "--delta", "0.1",
                           "--pair", "0,1", "--steps", "-1", "--out", str(tmp_path / "s.csv"))
        assert code == 1 and "steps must be >= 0" in err and "Traceback" not in err

    def test_missing_stream_file(self, capsys):
        code, _, _ = run(capsys, "detect", "--anchor", "[0.5,0.5]", "--delta", "0.1",
                         "--alpha", "0.02", "--stream", "/nonexistent/stream.csv")
        assert code == 1


class TestMaxmin2Command:
    def test_report_and_trace(self, capsys, tmp_path):
        trace = tmp_path / "trace.csv"
        code, out, _ = run(capsys, "maxmin2", "--p", "0.5", "--delta", "0.1",
                           "--grid", "64", "--refinements", "2", "--trace", str(trace))
        assert code == 0
        payload = json.loads(out)
        assert payload["abs_error"] <= 1e-4
        lines = trace.read_text().splitlines()
        assert lines[0] == "refinement,r00,r11,objective"
        assert len(lines) == 3


class TestDecomposeCommand:
    def test_matches_library(self, capsys):
        code, out, _ = run(capsys, "decompose", "--anchor", "[0.4,0.3,0.3]",
                           "--delta", "0.1", "--target", "[0.43,0.32,0.25]")
        assert code == 0
        got = {(t["gain"], t["loss"]): t["weight"] for t in json.loads(out)["terms"]}
        assert abs(got[(0, 2)] - 0.6) < 1e-9
        assert abs(got[(1, 2)] - 0.4) < 1e-9


class TestGenerateDetectRoundTrip:
    def test_detect_reproduces_batch_detect(self, capsys, tmp_path):
        stream = tmp_path / "stream.csv"
        code, _, _ = run(capsys, "generate", "--anchor", "[0.5,0.5]", "--delta", "0.1",
                         "--pair", "0,1", "--steps", "200", "--seed", "7",
                         "--out", str(stream))
        assert code == 0
        code, out, _ = run(capsys, "detect", "--anchor", "[0.5,0.5]", "--delta", "0.1",
                           "--alpha", "0.02", "--method", "evalue", "--stream", str(stream))
        assert code == 0
        report = json.loads(out)

        spec = ewm.make_neighborhood(ewm.make_distribution([0.5, 0.5]), 0.1)
        with open(stream, newline="") as fh:
            pairs = ewm.read_stream_csv(fh)
        expected = ewm.batch_detect(ewm.optimal_evalue(spec), 0.02, pairs, len(pairs))
        assert report["decision"] == expected.decision
        assert report["stop_step"] == expected.stop_step
        assert abs(report["wealth"] - expected.wealth) < 1e-9

    def test_generate_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run(capsys, "generate", "--anchor", "[0.4,0.3,0.3]",
                             "--delta", "0.1", "--target", "[0.43,0.32,0.25]",
                             "--steps", "100", "--seed", "11", "--out", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_baseline_method(self, capsys, tmp_path):
        stream = tmp_path / "stream.csv"
        run(capsys, "generate", "--anchor", "[0.5,0.5]", "--delta", "0.3",
            "--pair", "0,1", "--steps", "300", "--seed", "3", "--out", str(stream))
        code, out, _ = run(capsys, "detect", "--anchor", "[0.5,0.5]", "--delta", "0.3",
                           "--alpha", "0.02", "--method", "baseline", "--stream", str(stream))
        assert code == 0
        report = json.loads(out)
        assert report["method"] == "baseline"
        assert report["decision"] in ("rejected", "undecided")


class TestSweepTauCommand:
    def test_csv_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run(capsys, "sweep-tau", "--anchor", "[0.5,0.5]", "--delta", "0.1",
                             "--alphas", "0.01,0.001", "--trials", "50", "--seed", "21",
                             "--threads", "1", "--out", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().splitlines()
        assert lines[0] == "alpha,log_inv_alpha,mean_tau,std_err,ratio,censored_count"
        assert len(lines) == 3

    def test_threads_default_is_read_on_every_call(self, capsys, monkeypatch):
        seen = []

        def record_threads(config, threads=1):
            seen.append(threads)
            return []

        monkeypatch.setattr(ewm.simulation, "estimate_stopping", record_threads)
        argv = ["sweep-tau", "--anchor", "[0.5,0.5]", "--delta", "0.1",
                "--alphas", "0.01", "--trials", "2"]
        for value in ("3", "5"):
            monkeypatch.setenv("EWM_THREADS", value)
            assert run(capsys, *argv)[0] == 0
        assert run(capsys, *argv, "--threads", "2")[0] == 0
        assert seen == [3, 5, 2]


class TestCalibrateNullCommand:
    def test_csv_written(self, capsys, tmp_path):
        out_path = tmp_path / "cal.csv"
        code, _, _ = run(capsys, "calibrate-null", "--anchor", "[0.5,0.5]", "--delta", "0.1",
                         "--alphas", "0.05", "--trials", "500", "--seed", "1",
                         "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "alpha,trials,horizon,false_positives,rate"
        alpha, trials, horizon, fp, rate = lines[1].split(",")
        assert float(rate) <= 0.05 + 3.0 * np.sqrt(0.05 * 0.95 / 500)
        assert int(fp) == round(float(rate) * 500)


class TestAuditCommand:
    def test_audit_passes(self, capsys):
        code, out, _ = run(capsys, "audit", "--anchor", "[0.4,0.3,0.3]", "--delta", "0.1",
                           "--perturbations", "50", "--magnitude", "0.05", "--seed", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["audit_pass"] is True
        assert abs(payload["null_worst_expectation"] - 1.0) < 1e-10
        assert payload["cycle_condition"] is True and payload["saddle_ok"] is True
