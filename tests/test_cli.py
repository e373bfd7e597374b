import argparse
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ewm
from ewm.cli import build_parser, main, parse_alpha_grid
from ewm.errors import FormatError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


FAIR = ["--anchor", "[0.5,0.5]", "--delta", "0.1"]
THREE = ["--anchor", "[0.4,0.3,0.3]", "--delta", "0.1"]
SWEEP = ["sweep-tau", *FAIR, "--alphas", "0.01", "--trials", "2", "--horizon-cap", "50"]
# name -> (argv, EWM_THREADS or None, stderr fragment): counts that were once
# masked or clamped, and magnitudes that once overflowed, each end in a typed error.
BAD_COUNTS = {
    "horizon-0": (["calibrate-null", *FAIR, "--alphas", "0.05", "--trials", "10",
                   "--horizon", "0"], None, "horizon must be >= 1"),
    "max-cycle-len-0": (["audit", *THREE, "--perturbations", "1", "--max-cycle-len", "0"],
                        None, "cycle length cap must be >= 2"),
    "threads-negative": ([*SWEEP, "--threads", "-4"], None, "threads must be >= 1"),
    "threads-0": ([*SWEEP, "--threads", "0"], None, "threads must be >= 1"),
    "env-threads-abc": (SWEEP, "abc", "EWM_THREADS must be an integer"),
    "env-threads-negative": (SWEEP, "-2", "threads must be >= 1"),
    "grid-1025": (["maxmin2", "--p", "0.3", "--delta", "0.1", "--grid", "1025"], None,
                  "grid must lie in 64..1024"),
    "alphas-count-10001": (["sweep-tau", *FAIR, "--alphas", "log:0.1:0.01:10001",
                            "--trials", "2"], None, "grid count must lie in 2..10000"),
    **{f"magnitude-{m}": (["audit", *THREE, "--perturbations", "1", "--magnitude", m], None,
                          "magnitude") for m in ("inf", "nan", "1e308")},
}

# name -> (argv, stderr fragment): each malformed token the parsers refuse
BAD_TOKENS = {
    "log-grid-number": (["sweep-tau", *FAIR, "--alphas", "log:1e-2:x:4", "--trials", "2"],
                        "malformed grid token"),
    "empty-alphas": (["sweep-tau", *FAIR, "--alphas", " , ", "--trials", "2"],
                     "empty alpha list"),
    "pair-three-fields": (["generate", *FAIR, "--pair", "0,1,2", "--steps", "3"],
                          "expected 'gain,loss'"),
    "pair-non-integer": (["generate", *FAIR, "--pair", "0,x", "--steps", "3"], "malformed pair"),
    "unknown-policy": ([*SWEEP, "--policy", "sneaky"], "unknown policy"),
}


# a valid neighborhood whose J* (about 5.5e-318) is subnormal and whose scores overflow
SUBNORMAL = ["--anchor", "[1,1e-320]", "--delta", "5e-321"]
SUBNORMAL_SWEEP = ["sweep-tau", *SUBNORMAL, "--alphas", "0.01", "--trials", "2"]
SUBNORMAL_JSTAR = {
    "fixed-capped": [*SUBNORMAL_SWEEP, "--horizon-cap", "1000"],
    "fixed": SUBNORMAL_SWEEP,
    "roundrobin": [*SUBNORMAL_SWEEP, "--policy", "roundrobin"],
    "calibrate-null": ["calibrate-null", *SUBNORMAL, "--alphas", "0.01", "--trials", "2"],
    "jstar": ["jstar", *SUBNORMAL],
}

# deltas so small that the off-diagonal mass delta / (2(n-1)) underflows to 0
TINY_DELTA = {
    "jstar-fair": ["jstar", "--anchor", "[0.5,0.5]", "--delta", "5e-324"],
    "sweep-fair": ["sweep-tau", "--anchor", "[0.5,0.5]", "--delta", "5e-324",
                   "--alphas", "0.01", "--trials", "2"],
    "jstar-subnormal-anchor": ["jstar", "--anchor", "[1,1e-323]", "--delta", "5e-324"],
    "jstar-three": ["jstar", "--anchor", "[0.4,0.3,0.3]", "--delta", "1e-323"],
}


def run_isolated(argv, threads_env=None):
    """``main(argv)`` with stdout and stderr captured and ``EWM_THREADS`` set to
    ``threads_env`` (unset for None); returns (exit code, stderr)."""
    environ = {k: v for k, v in os.environ.items() if k != "EWM_THREADS"}
    if threads_env is not None:
        environ["EWM_THREADS"] = threads_env
    err = io.StringIO()
    with mock.patch.dict(os.environ, environ, clear=True), \
            redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(list(argv))
    return code, err.getvalue()


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

    def test_anchor_reads_no_path(self, capsys, tmp_path):
        # a file is read only through --anchor-file
        path = tmp_path / "a.json"
        path.write_text("[0.5, 0.5]")
        code, out, err = run(capsys, "jstar", "--anchor", str(path), "--delta", "0.1")
        assert code == 1 and out == "" and "not valid JSON" in err


class TestImport:
    def test_import_leaves_multiprocessing_unloaded(self):
        # the worker pool is the only user of multiprocessing and is made on first use
        src = str(Path(ewm.__file__).resolve().parents[1])
        probe = ("import sys, ewm.cli; sys.exit(int(any(name in sys.modules for name in "
                 "('multiprocessing', 'concurrent.futures'))))")
        env = dict(os.environ, PYTHONPATH=src)
        assert subprocess.run([sys.executable, "-c", probe], env=env).returncode == 0


H = (("-h", "--help"), False, argparse.SUPPRESS, None, None)
ANCHOR = [(("--anchor",), False, None, None, None), (("--anchor-file",), False, None, None, None),
          (("--delta",), True, None, float, None)]
OUT = (("--out",), False, None, None, None)
# parser -> its actions in order, as (option strings, required, default, type, choices); the
# --help text holds the same facts, but argparse wraps it at the terminal's width
PARSER_SHAPE = {
    "ewm": [H, (("command",), True, None, None, ("jstar", "maxmin2", "sweep-tau",
                                                  "calibrate-null", "generate", "detect",
                                                  "decompose", "audit"))],
    "jstar": [H, *ANCHOR, OUT],
    "maxmin2": [H, (("--p",), True, None, float, None), (("--delta",), True, None, float, None),
                (("--grid",), False, 256, int, None), (("--refinements",), False, 4, int, None),
                (("--trace",), False, None, None, None), OUT],
    "sweep-tau": [H, *ANCHOR, (("--alphas",), True, None, None, None),
                  (("--trials",), False, 10_000, int, None), (("--seed",), False, 0, int, None),
                  (("--policy",), False, "fixed:0,1", None, None),
                  (("--horizon-cap",), False, None, int, None),
                  (("--threads",), False, None, int, None), OUT],
    "calibrate-null": [H, *ANCHOR, (("--alphas",), True, None, None, None),
                       (("--trials",), False, 10_000, int, None),
                       (("--horizon",), False, None, int, None),
                       (("--q-null",), False, None, None, None),
                       (("--seed",), False, 0, int, None), OUT],
    "generate": [H, *ANCHOR, (("--pair",), False, None, None, None),
                 (("--target",), False, None, None, None), (("--steps",), True, None, int, None),
                 (("--seed",), False, 0, int, None), OUT],
    "detect": [H, *ANCHOR, (("--alpha",), True, None, float, None),
               (("--method",), False, "evalue", None, ("evalue", "baseline")),
               (("--stream",), True, None, None, None), (("--budget",), False, None, int, None),
               OUT],
    "decompose": [H, *ANCHOR, (("--target",), True, None, None, None), OUT],
    "audit": [H, *ANCHOR, (("--perturbations",), False, 200, int, None),
              (("--magnitude",), False, 0.05, float, None),
              (("--max-cycle-len",), False, None, int, None), (("--seed",), False, 0, int, None),
              OUT],
}


def parser_shape(parser):
    return [(tuple(a.option_strings) or (a.dest,), a.required, a.default, a.type,
             None if a.choices is None else tuple(a.choices)) for a in parser._actions]


class TestParserShape:
    def test_every_parser_keeps_its_options_in_order(self):
        parser = build_parser()
        subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        shapes = {"ewm": parser_shape(parser),
                  **{name: parser_shape(sub) for name, sub in subs.choices.items()}}
        assert shapes == PARSER_SHAPE

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()


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
        assert not (tmp_path / "s.csv").exists()  # checked before the file is opened

    @pytest.mark.parametrize("case", sorted(BAD_COUNTS))
    def test_bad_count_is_a_typed_error(self, case):
        argv, threads_env, message = BAD_COUNTS[case]
        code, err = run_isolated(argv, threads_env)
        assert code == 1 and message in err and "Traceback" not in err

    @pytest.mark.parametrize("case", sorted(BAD_TOKENS))
    def test_bad_token_is_a_typed_error(self, case):
        argv, message = BAD_TOKENS[case]
        code, err = run_isolated(argv)
        assert code == 1 and message in err and "Traceback" not in err

    def test_out_of_memory_is_a_typed_error(self, capsys, monkeypatch):
        def exhausted(config, threads=1):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr(ewm.simulation, "estimate_stopping", exhausted)
        code, out, err = run(capsys, *SWEEP, "--threads", "1")
        assert code == 1 and out == "" and "Traceback" not in err
        assert err.startswith("ewm: error: out of memory: Unable to allocate")

    def test_subnormal_alpha_is_a_typed_error(self, capsys, tmp_path):
        # 1/alpha overflows to inf, which once gave an "undecided" report
        # with an Infinity threshold
        stream = tmp_path / "stream.csv"
        run(capsys, "generate", *FAIR, "--pair", "0,1", "--steps", "5000", "--out", str(stream))
        code, out, err = run(capsys, "detect", *FAIR, "--alpha", "1e-320",
                             "--stream", str(stream))
        assert code == 1 and out == "" and "Traceback" not in err
        assert err.startswith("ewm: error: alpha must lie in (0, 1)")

    @pytest.mark.parametrize("argv", SUBNORMAL_JSTAR.values(), ids=SUBNORMAL_JSTAR.keys())
    def test_subnormal_jstar_is_a_typed_error(self, capsys, argv):
        # log(1/alpha) / J* and the diagonal scores overflow to inf, which once
        # traced back at int() or printed a non-JSON Infinity
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and "Traceback" not in err
        assert err.startswith("ewm: error: ")

    @pytest.mark.parametrize("argv", TINY_DELTA.values(), ids=TINY_DELTA.keys())
    def test_underflowing_delta_is_a_typed_error(self, capsys, argv):
        # log(delta / (2(n-1))) once traced back with a math domain error
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and "Traceback" not in err
        assert err.startswith("ewm: error: delta ") and "too small" in err

    def test_missing_stream_file(self, capsys):
        code, _, _ = run(capsys, "detect", "--anchor", "[0.5,0.5]", "--delta", "0.1",
                         "--alpha", "0.02", "--stream", "/nonexistent/stream.csv")
        assert code == 1


class TestDetectReadsLazily:
    """Rows are read in blocks of 128, 256, ...: only up to the block holding
    the stopping step, and never past ``--budget``."""

    @staticmethod
    def detect(capsys, stream, method, *extra):
        return run(capsys, "detect", *FAIR, "--alpha", "0.02", "--method", method,
                   "--stream", str(stream), *extra)

    def test_budget_leaves_later_rows_unread(self, capsys, tmp_path):
        stream = tmp_path / "stream.csv"
        stream.write_text("step,v,s\n" + "".join(f"{t},0,1\n" for t in range(10)) + "10,a,1\n")
        for method in ("evalue", "baseline"):
            code, out, _ = self.detect(capsys, stream, method, "--budget", "10")
            assert code == 0
            assert json.loads(out)["decision"] == "undecided" and json.loads(out)["steps"] == 10
            code, _, err = self.detect(capsys, stream, method)
            assert code == 1 and "non-integer stream row" in err

    def test_budget_beyond_sys_maxsize(self, capsys, tmp_path):
        stream = tmp_path / "stream.csv"
        stream.write_text("step,v,s\n" + "".join(f"{t},0,1\n" for t in range(10)))
        for method in ("evalue", "baseline"):
            code, out, _ = self.detect(capsys, stream, method, "--budget", str(2**64))
            assert code == 0 and json.loads(out)["steps"] == 10

    def test_malformed_row_before_the_budget_fails(self, capsys, tmp_path):
        stream = tmp_path / "stream.csv"
        stream.write_text("step,v,s\n0,0,1\n1,0\n" + "".join(f"{t},0,1\n" for t in range(2, 20)))
        for method in ("evalue", "baseline"):
            code, out, err = self.detect(capsys, stream, method, "--budget", "10")
            assert code == 1 and out == "" and "malformed stream row" in err

    def test_rows_past_the_stopping_block_are_unread(self, capsys, tmp_path):
        # both detectors reject within the first block of 128 rows
        rows = [f"{t},0,0\n" for t in range(200)]
        for bad_at, code_expected in ((150, 0), (100, 1)):
            stream = tmp_path / f"stream-{bad_at}.csv"
            stream.write_text("step,v,s\n" + "".join(rows[:bad_at]) + f"{bad_at},0,x\n"
                              + "".join(rows[bad_at + 1:]))
            for method in ("evalue", "baseline"):
                code, out, err = self.detect(capsys, stream, method)
                assert code == code_expected and "Traceback" not in err
                if code == 0:
                    assert json.loads(out)["stop_step"] <= 128


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
            pairs = list(ewm.read_stream_csv(fh))
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

    def test_generate_streams_in_chunks(self, capsys, tmp_path):
        # one pair past a whole chunk: the second chunk continues the stream;
        # two whole chunks end the last written block exactly at the file's end
        w = ewm.extreme_coupling(ewm.make_neighborhood(ewm.make_distribution([0.4, 0.3, 0.3]),
                                                       0.1), ewm.ExtremePair(2, 0))
        for steps in (ewm.coupling._BLOCK_CELLS + 1, 2 * ewm.coupling._BLOCK_CELLS):
            stream = tmp_path / "stream.csv"
            code, _, _ = run(capsys, "generate", *THREE, "--pair", "2,0", "--steps", str(steps),
                             "--seed", "5", "--out", str(stream))
            assert code == 0
            one_shot = ewm.sample_stream(w, steps, ewm.trial_rng(ewm.mix64(5)))
            with open(stream, newline="") as fh:
                assert np.array_equal(np.array(list(ewm.read_stream_csv(fh))), one_shot)
            rows = stream.read_text().splitlines()[1:]
            assert [int(row.split(",")[0]) for row in rows] == list(range(steps))

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

    def test_tiny_rate_with_a_cap_runs(self, capsys):
        # finite scores, but 1.25 log(1/alpha) / J* overflows: the chunk is
        # clamped before int() and every trial is censored at the cap
        code, out, err = run(capsys, "sweep-tau", "--anchor", "[1,7e-309]", "--delta", "7e-310",
                             "--alphas", "5.7e-309", "--trials", "2", "--horizon-cap", "100")
        assert code == 0 and err == ""
        assert out.splitlines()[1].startswith("5.7e-309,709.75832756,100,0,")
        assert out.splitlines()[1].endswith(",2")


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

    def test_a_failed_saddle_check_fails_the_audit(self, capsys, monkeypatch):
        monkeypatch.setattr(ewm.oracles, "jstar", lambda spec: ewm.jstar(spec) - 0.01)
        code, out, _ = run(capsys, "audit", *THREE, "--perturbations", "1", "--magnitude", "0")
        payload = json.loads(out)
        assert code == 1 and payload["saddle_ok"] is False and payload["audit_pass"] is False
        assert payload["null_ok"] is True and payload["cycle_condition"] is True



# -- fuzzing the command line ------------------------------------------------
# Every value is drawn from a bounded set, so that no case allocates much or
# runs long: steps <= 200, trials <= 20, horizon <= 2,000, grid <= 128,
# perturbations <= 5, at most 4 alphas, and never more than one worker.  Each
# field is malformed or an edge value one time in six, so most cases get past
# the first check and reach the deeper ones.

STREAMS = {
    "good": (Path(__file__).parent / "golden" / "generate-pair.csv").read_text(),
    "binary": "step,v,s\n" + "".join(f"{t},{t % 2},{t % 3 % 2}\n" for t in range(150)),
    "letter": "step,v,s\n0,a,1\n",
    "outside": "step,v,s\n0,7,1\n",
    "negative": "step,v,s\n0,-1,0\n",
    "short": "step,v,s\n0,1\n",
    "huge": "step,v,s\n0,99999999999999999999999,0\n",
    "header-only": "step,v,s\n",
    "no-header": "0,1,1\n",
    "empty": "",
}
BAD_REALS = ["0", "-1", "1", "2", "nan", "inf", "-inf", "1e-300", "1e308", "abc", ""]
# (good values, malformed or edge values) per kind of field
ANCHORS = (["[0.5,0.5]", "[0.4,0.3,0.3]", "[0.25,0.25,0.25,0.25]", "[0.2,0.8]",
            "[0.15,0.15,0.14,0.14,0.14,0.14,0.14]"],
           ["[0.5,0.6]", '["a",0.5]', "[1]", "[]", "[[0.5,0.5]]", "[-0.5,1.5]", "[0.5,NaN]",
            "{", "abc", ""])
DELTAS = (["0.1", "0.05", "0.02"], [*BAD_REALS, "0.3"])
ALPHA = (["0.05", "1e-6", "1e-30"], BAD_REALS)
ALPHAS = (["0.05", "1e-2,1e-120", "0.1,0.05,0.02", "log:1e-2:1e-60:4"],
          ["log:1e-2:1e-60:1", "log:a:b:3", "log:0.5:2:3", "log:1e-2", "nan", "inf", "0", "1",
           "", ",", "0.1,x"])
POLICIES = (["fixed:0,1", "fixed:1,0", "roundrobin", "random", "greedy"],
            ["fixed:0,0", "fixed:5,0", "fixed:-1,0", "fixed:a", "fixed:0,1,2", "bogus"])
TARGETS = (["[0.42,0.3,0.28]", "[0.55,0.45]", "[0.26,0.24,0.25,0.25]"],
           ["[0.5,0.3,0.2]", "[0.8,0.2]", "[1,2]", '["x"]', "nope"])
PAIRS = (["0,1", "2,0"], ["0,0", "9,0", "-1,0", "a,b", "1"])
SEEDS = (["0", "7", "-1", "18446744073709551616"], ["abc", ""])
THREADS_ENV = [None, "1", "abc", "", "0", "-2", "2.5"]


def field(kind):
    good, bad = kind
    return st.tuples(st.integers(0, 5), st.sampled_from(good), st.sampled_from(bad)).map(
        lambda t: t[2] if t[0] == 0 else t[1])


def counts(top: int):
    return field(([str(k) for k in range(1, top + 1)], ["0", "-1", "-2", "abc", "1.5", ""]))


@st.composite
def argvs(draw):
    """One argv for any of the eight subcommands; ``STREAMS`` stands for the
    directory of the stream files."""
    def flags(**kinds):  # --flag value for each keyword, in order
        return [a for name, kind in kinds.items()
                for a in (f"--{name.replace('_', '-')}", draw(kind))]

    def maybe(**kinds):
        return flags(**kinds) if draw(st.booleans()) else []

    command = draw(st.sampled_from(["jstar", "maxmin2", "sweep-tau", "calibrate-null",
                                    "generate", "detect", "decompose", "audit"]))
    if command == "maxmin2":
        return [command, *flags(p=field((["0.3", "0.5", "0.6"], BAD_REALS)),
                                delta=field(DELTAS), refinements=counts(4),
                                grid=field(([str(g) for g in range(64, 129)], ["63", "0", "x"]))),
                *maybe(trace=st.just("STREAMS/trace.csv"))]
    anchor = flags(anchor=field(ANCHORS)) if draw(st.integers(0, 9)) else []
    argv = [command, *anchor, *flags(delta=field(DELTAS))]
    if command == "sweep-tau":
        argv += flags(alphas=field(ALPHAS), trials=counts(20), policy=field(POLICIES),
                      horizon_cap=counts(2000), seed=field(SEEDS))
        argv += maybe(threads=st.sampled_from(["-4", "0", "1", "x"]))
    elif command == "calibrate-null":
        argv += flags(alphas=field(ALPHAS), trials=counts(20), horizon=counts(2000),
                      seed=field(SEEDS))
        argv += maybe(q_null=field(TARGETS))
    elif command == "generate":
        argv += flags(steps=counts(200), seed=field(SEEDS))
        argv += draw(st.sampled_from([flags(pair=field(PAIRS)), flags(target=field(TARGETS)),
                                      [], flags(pair=field(PAIRS), target=field(TARGETS))]))
    elif command == "detect":
        name = draw(field((["good", "binary"], [*STREAMS][2:] + ["missing"])))
        argv += flags(alpha=field(ALPHA), method=field((["evalue", "baseline"], ["other"])))
        argv += ["--stream", f"STREAMS/{name}.csv", *maybe(budget=counts(200))]
    elif command == "decompose":
        argv += flags(target=field(TARGETS))
    elif command == "audit":
        argv += flags(perturbations=counts(5), seed=field(SEEDS),
                      magnitude=field((["0.05", "0", "0.2"], BAD_REALS)))
        argv += maybe(max_cycle_len=counts(6))
    return argv


@pytest.fixture(scope="module")
def stream_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("streams")
    for name, text in STREAMS.items():
        (directory / f"{name}.csv").write_text(text)
    return directory


def _fuzz_examples(test):
    """Every hand-found case, as an explicit example of the fuzz test."""
    cases = [(argv, env) for argv, env, _ in BAD_COUNTS.values()] + [
        (["detect", *FAIR, "--alpha", "0.02", "--stream", "STREAMS/letter.csv"], None),
        (["detect", *FAIR, "--alpha", "0.02", "--stream", "STREAMS/binary.csv",
          "--budget", "18446744073709551616"], None),
        (["detect", *FAIR, "--alpha", "0.02", "--method", "baseline",
          "--stream", "STREAMS/outside.csv"], None),
        (["jstar", "--anchor", '["a",0.5]', "--delta", "0.1"], None),
        (["generate", *FAIR, "--pair", "0,1", "--steps", "-1"], None),
        ([*SWEEP[:-1], "18446744073709551616"], None),
        (["sweep-tau", *FAIR, "--alphas", "1e-320", "--trials", "2"], None),
        (["calibrate-null", *FAIR, "--alphas", "1e-320", "--trials", "2"], None),
        *((argv, None) for argv in SUBNORMAL_JSTAR.values()),
        *((argv, None) for argv in TINY_DELTA.values()),
    ]
    for argv, env in cases:
        test = example(argv=argv, threads_env=env)(test)
    return test


class TestFuzz:
    @settings(max_examples=300)
    @_fuzz_examples
    @given(argv=argvs(), threads_env=st.sampled_from(THREADS_ENV))
    def test_any_argv_exits_cleanly(self, stream_dir, argv, threads_env):
        argv = [a.replace("STREAMS", str(stream_dir)) for a in argv]
        code, err = run_isolated(argv, threads_env)
        assert code in (0, 1, 2)
        assert "Traceback" not in err


# Bytes that end any stream file: undecodable UTF-8, a NUL in a field, fields past csv's
# 131,072-character limit (one of them an unclosed quote), and an int past str's digit limit.
POISON = (b"\xff", b"\xc3(", b"\xed\xa0\x80", b"\xe2\x82(", b"0,\x00,1\n",
          b"0,0," + b"7" * 140_000 + b"\n", b'0,"' + b"1" * 140_000, b"0," + b"9" * 5000 + b",1\n")


class TestStreamBytes:
    @pytest.fixture(scope="class")
    def stream(self, tmp_path_factory):
        return tmp_path_factory.mktemp("bytes") / "stream.csv"

    @settings(max_examples=120)
    @given(poison=st.sampled_from(POISON), in_header=st.booleans(),
           plain=st.sampled_from([0, 5, 127, 128, 300]), end=st.sampled_from([b"\n", b"\r\n"]),
           tail=st.binary(max_size=40), method=st.sampled_from(["evalue", "baseline"]))
    def test_bad_bytes_end_in_one_error_line(self, stream, poison, in_header, plain, end, tail,
                                             method):
        # (0, 1) rows never stop either detector, so the poison is always read
        rows = b"".join(b"%d,0,1" % t + end for t in range(plain))
        head = b"step,v," + poison if in_header else b"step,v,s" + end + rows + poison
        stream.write_bytes(head + tail)
        code, err = run_isolated(["detect", *FAIR, "--alpha", "1e-30", "--method", method,
                                  "--stream", str(stream)])
        assert code == 1 and "Traceback" not in err and len(err) < 300
        assert err.startswith("ewm: error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("row,phrase", [("0," + "9" * 5000 + ",1", "non-integer stream row"),
                                            ("0,1,2," + "9" * 5000, "malformed stream row")],
                             ids=["non-integer", "malformed"])
    def test_row_messages_are_bounded(self, capsys, tmp_path, row, phrase):
        stream = tmp_path / "stream.csv"
        stream.write_text(f"step,v,s\n{row}\n")
        for method in ("evalue", "baseline"):
            code, out, err = run(capsys, "detect", *FAIR, "--alpha", "0.02", "--method", method,
                                 "--stream", str(stream))
            assert code == 1 and out == "" and phrase in err and len(err) < 200


# Pieces of JSON text, some refused by json.loads (a lone surrogate, an int past 4,300 digits,
# 2,000 nested brackets, a cut string) and some by the weight checks behind it (an int past
# the float range, a long string, which the message once echoed in full).
JSON_PIECES = ("[", "]", "{}", ",", '"', "0.5", "0.25", "-0.5", "1e400", "NaN", "true", "null",
               "\ud800", "\x00", " ", "1" * 4000, "1" * 5000, "[" * 2000, '"' + "a" * 400 + '"')
JSON_SITES = {  # "--flag=TEXT", so a text that starts with "-" is not read as a flag
    "anchor": ["jstar", "--anchor=TEXT", "--delta", "0.1"],
    "anchor-file": ["jstar", "--anchor-file", "FILE", "--delta", "0.1"],
    "target": ["decompose", *FAIR, "--target=TEXT"],
    "q-null": ["calibrate-null", *FAIR, "--alphas", "0.05", "--trials", "2", "--horizon", "3",
               "--q-null=TEXT"],
    "detector": None,
}


class TestJsonInputs:
    @pytest.fixture(scope="class")
    def json_file(self, tmp_path_factory):
        return tmp_path_factory.mktemp("json") / "weights.json"

    @pytest.mark.parametrize("payload", ["[" * 50_000, "[1" + "0" * 5000 + "]", "[0.5,"],
                             ids=["deep", "digits", "syntax"])
    def test_unparsable_json_is_a_typed_error(self, capsys, payload):
        for argv in (["jstar", "--anchor", payload, "--delta", "0.1"],
                     ["decompose", *FAIR, "--target", payload]):
            code, out, err = run(capsys, *argv)
            assert code == 1 and out == "" and "Traceback" not in err
            assert err.startswith("ewm: error: not valid JSON") and len(err) < 300

    def test_anchor_file_bytes(self, capsys, tmp_path):
        # the bytes go to json.loads: not UTF-8 is refused, a BOM or UTF-16 is decoded
        path = tmp_path / "anchor.json"
        for data, code_expected in ((b"\xff", 1), (b"[0.5,\xff0.5]", 1),
                                    (b"\xef\xbb\xbf[0.5, 0.5]", 0),
                                    ("[0.5, 0.5]".encode("utf-16"), 0)):
            path.write_bytes(data)
            code, _, err = run(capsys, "jstar", "--anchor-file", str(path), "--delta", "0.1")
            assert code == code_expected and "Traceback" not in err

    @settings(max_examples=200)
    @example(pieces=["[", "1" * 4000, ",", "0.5", "]"], site="anchor")  # once a raw OverflowError
    @given(pieces=st.lists(st.sampled_from(JSON_PIECES), max_size=10),
           site=st.sampled_from(sorted(JSON_SITES)))
    def test_any_json_text_ends_cleanly(self, json_file, pieces, site):
        text = "".join(pieces)
        if site == "detector":
            try:
                ewm.detector_from_json(text)
            except FormatError as exc:
                assert len(str(exc)) < 300
            return
        json_file.write_bytes(text.encode("utf-8", "surrogatepass"))
        argv = [a.replace("TEXT", text).replace("FILE", str(json_file)) for a in JSON_SITES[site]]
        code, err = run_isolated(argv)
        assert code in (0, 1) and "Traceback" not in err
        if code:
            assert err.startswith("ewm: error: ") and err.count("\n") == 1 and len(err) < 300
