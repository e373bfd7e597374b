import argparse
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ewm
from ewm.cli import build_parser, main, parse_alpha_grid
from ewm.errors import FormatError, TooLargeError

from conftest import needs_vmhwm, peak_growth_mib, run_fresh


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


FAIR = ["--anchor", "[0.5,0.5]", "--delta", "0.1"]
THREE = ["--anchor", "[0.4,0.3,0.3]", "--delta", "0.1"]
SWEEP = ["sweep-tau", *FAIR, "--alphas", "0.01", "--trials", "2", "--horizon-cap", "50"]
# Each stream file, in the stream_dir directory, that "STREAMS/<name>.csv" names in an argv
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


@pytest.fixture(scope="module")
def stream_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("streams")
    for name, text in STREAMS.items():
        (directory / f"{name}.csv").write_text(text)
    return directory


# a valid neighborhood whose J* (about 5.5e-318) is subnormal and whose scores overflow
SUBNORMAL = ["--anchor", "[1,1e-320]", "--delta", "5e-321"]
SUBNORMAL_SWEEP = ["sweep-tau", *SUBNORMAL, "--alphas", "0.01", "--trials", "2"]
NO_HORIZON = "ewm: error: J* = 5.522676e-318 is too small for a default horizon"
DETECT = ["detect", *FAIR, "--alpha", "0.02", "--stream"]
# group -> {case: (argv, exit code, stderr fragment)}: each input the CLI refuses.  It exits with
# that code, prints nothing to stdout and no traceback, and its last stderr line starts "ewm: "
# and holds the fragment; only a usage error (exit code 2) prints the usage first.
TYPED_ERRORS = {
    "unknown subcommand": {"": (["frobnicate"], 2, "invalid choice: 'frobnicate'")},
    "unknown flag": {"": (["jstar", *FAIR, "--nope"], 2, "unrecognized arguments: --nope")},
    "runtime": {"": (["jstar", "--anchor", "[0.5,0.6]", "--delta", "0.1"], 1,
                     "ewm: error: weights sum to 1.1")},
    "non-integer row": {m: ([*DETECT, "STREAMS/letter.csv", "--method", m], 1,
                            "ewm: error: non-integer stream row") for m in ("evalue", "baseline")},
    "outside vocabulary": {m: ([*DETECT, "STREAMS/outside.csv", "--method", m], 1,
                               "out of range for n=2") for m in ("evalue", "baseline")},
    "non-numeric weight": {"": (["jstar", "--anchor", '["a",0.5]', "--delta", "0.1"], 1,
                                "weights must be numbers")},
    # checked before the --out file is opened
    "negative steps": {"": (["generate", *FAIR, "--pair", "0,1", "--steps", "-1", "--out",
                             "STREAMS/negative-steps.csv"], 1, "steps must be >= 0")},
    # 1/alpha overflows to inf, which once gave an "undecided" report with an Infinity threshold
    "subnormal alpha": {"": (["detect", *FAIR, "--alpha", "1e-320", "--stream",
                              "STREAMS/binary.csv"], 1, "ewm: error: alpha must lie in (0, 1)")},
    "missing stream": {"": ([*DETECT, "STREAMS/missing.csv"], 1, "ewm: io error: [Errno 2]")},
    # counts that were once masked or clamped, and magnitudes that once overflowed
    "bad count": {
        "horizon-0": (["calibrate-null", *FAIR, "--alphas", "0.05", "--trials", "10",
                       "--horizon", "0"], 1, "horizon must be >= 1"),
        "max-cycle-len-0": (["audit", *THREE, "--perturbations", "1", "--max-cycle-len", "0"], 1,
                            "cycle length cap must be >= 2"),
        "threads-negative": ([*SWEEP, "--threads", "-4"], 1, "threads must be >= 1"),
        "threads-0": ([*SWEEP, "--threads", "0"], 1, "threads must be >= 1"),
        "grid-1025": (["maxmin2", "--anchor", "[0.3,0.7]", "--delta", "0.1", "--grid", "1025"], 1,
                      "grid must lie in 64..1024"),
        "alphas-count-10001": (["sweep-tau", *FAIR, "--alphas", "log:0.1:0.01:10001",
                                "--trials", "2"], 1, "grid count must lie in 2..10000"),
        **{f"magnitude-{m}": (["audit", *THREE, "--perturbations", "1", "--magnitude", m], 1,
                              "magnitude") for m in ("inf", "nan", "1e308")},
    },
    # each malformed token the parsers refuse
    "bad token": {
        "log-grid-number": (["sweep-tau", *FAIR, "--alphas", "log:1e-2:x:4", "--trials", "2"], 1,
                            "malformed grid token"),
        "empty-alphas": (["sweep-tau", *FAIR, "--alphas", " , ", "--trials", "2"], 1,
                         "empty alpha list"),
        "pair-three-fields": (["generate", *FAIR, "--pair", "0,1,2", "--steps", "3"], 1,
                              "expected 'gain,loss'"),
        "pair-non-integer": (["generate", *FAIR, "--pair", "0,x", "--steps", "3"], 1,
                             "malformed pair"),
        "unknown-policy": ([*SWEEP, "--policy", "sneaky"], 1, "unknown policy"),
        # JSON strings and null are not weights; the strings once passed as floats
        "anchor-strings": (["jstar", "--anchor", '["0.5","0.5"]', "--delta", "0.1"], 1,
                           "weights must be numbers"),
        "anchor-null": (["jstar", "--anchor", "null", "--delta", "0.1"], 1,
                        "weights must be numbers"),
    },
    # log(1/alpha) / J* and the diagonal scores overflow to inf, which once traced back at int()
    # or printed a non-JSON Infinity
    "subnormal J*": {
        "fixed-capped": ([*SUBNORMAL_SWEEP, "--horizon-cap", "1000"], 1,
                         "ewm: error: scores must be finite"),
        "fixed": (SUBNORMAL_SWEEP, 1, NO_HORIZON),
        "roundrobin": ([*SUBNORMAL_SWEEP, "--policy", "roundrobin"], 1, NO_HORIZON),
        "calibrate-null": (["calibrate-null", *SUBNORMAL, "--alphas", "0.01", "--trials", "2"], 1,
                           NO_HORIZON),
        "jstar": (["jstar", *SUBNORMAL], 1, "ewm: error: report holds an infinite value"),
    },
    # deltas so small that the off-diagonal mass delta / (2(n-1)) underflows to 0, whose log
    # once traced back with a math domain error
    "tiny delta": {
        "jstar-fair": (["jstar", "--anchor", "[0.5,0.5]", "--delta", "5e-324"], 1,
                       "ewm: error: delta 5e-324 is too small"),
        "sweep-fair": (["sweep-tau", "--anchor", "[0.5,0.5]", "--delta", "5e-324", "--alphas",
                        "0.01", "--trials", "2"], 1, "ewm: error: delta 5e-324 is too small"),
        "jstar-subnormal-anchor": (["jstar", "--anchor", "[1,1e-323]", "--delta", "5e-324"], 1,
                                   "ewm: error: delta 5e-324 is too small"),
        "jstar-three": (["jstar", "--anchor", "[0.4,0.3,0.3]", "--delta", "1e-323"], 1,
                        "ewm: error: delta 1e-323 is too small"),
    },
}


def typed_errors(stream_dir, group, *cases):
    """Run ``cases`` of ``group`` in :data:`TYPED_ERRORS` (none given: each of its cases)."""
    rows = TYPED_ERRORS[group]
    for argv, code, fragment in [rows[case] for case in cases or rows]:
        got, out, err = run_isolated([a.replace("STREAMS", str(stream_dir)) for a in argv])
        *usage, line = err.splitlines()
        assert (got, out, bool(usage)) == (code, "", code == 2) and "Traceback" not in err, argv
        assert line.startswith("ewm: ") and fragment in line, argv


def run_isolated(argv):
    """``main(argv)`` with stdout and stderr captured, for tests that cannot take ``capsys``;
    returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


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
        for token, shown in (("0.5,2.0", "2.0"), ("log:0.5:2:3", "2.0"), ("1e-320", "1e-320")):
            with pytest.raises(FormatError) as info:  # detect --alpha's text, as a grid's error
                parse_alpha_grid(token)
            assert type(info.value) is FormatError
            assert str(info.value) == f"alpha must lie in (0, 1) with 1/alpha finite, got {shown}"


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

    def test_anchor_reads_no_path(self, capsys, tmp_path):
        # a file is read only through --anchor-file
        path = tmp_path / "a.json"
        path.write_text("[0.5, 0.5]")
        code, out, err = run(capsys, "jstar", "--anchor", str(path), "--delta", "0.1")
        assert code == 1 and out == "" and "not valid JSON" in err


class TestImport:
    def test_import_leaves_multiprocessing_unloaded(self):
        # the worker pool is the only user of multiprocessing and is made on first use
        probe = ("import sys, ewm.cli; sys.exit(int(any(name in sys.modules for name in "
                 "('multiprocessing', 'concurrent.futures'))))")
        assert run_fresh(probe).returncode == 0


H = (("-h", "--help"), False, argparse.SUPPRESS, None, None, ())
ANCHOR = [(("--anchor",), False, None, None, None, ("--anchor-file",)),
          (("--anchor-file",), False, None, None, None, ("--anchor",)),
          (("--delta",), True, None, float, None, ())]
OUT = (("--out",), False, None, None, None, ())
# parser -> its actions in order, as (option strings, required, default, type, choices, the
# options of the other members of its mutually exclusive group); the --help text holds the
# same facts, but argparse wraps it at the terminal's width
PARSER_SHAPE = {
    "ewm": [H, (("command",), True, None, None, ("jstar", "maxmin2", "sweep-tau",
                                                  "calibrate-null", "generate", "detect",
                                                  "decompose", "audit"), ())],
    "jstar": [H, *ANCHOR, OUT],
    "maxmin2": [H, *ANCHOR, (("--grid",), False, 256, int, None, ()),
                (("--refinements",), False, 4, int, None, ()),
                (("--trace",), False, None, None, None, ()), OUT],
    "sweep-tau": [H, *ANCHOR, (("--alphas",), True, None, None, None, ()),
                  (("--trials",), False, 10_000, int, None, ()),
                  (("--seed",), False, 0, int, None, ()),
                  (("--policy",), False, "fixed:0,1", None, None, ()),
                  (("--horizon-cap",), False, None, int, None, ()),
                  (("--threads",), False, 1, int, None, ()), OUT],
    "calibrate-null": [H, *ANCHOR, (("--alphas",), True, None, None, None, ()),
                       (("--trials",), False, 10_000, int, None, ()),
                       (("--horizon",), False, None, int, None, ()),
                       (("--q-null",), False, None, None, None, ()),
                       (("--seed",), False, 0, int, None, ()), OUT],
    "generate": [H, *ANCHOR, (("--pair",), False, None, None, None, ("--target",)),
                 (("--target",), False, None, None, None, ("--pair",)),
                 (("--steps",), True, None, int, None, ()),
                 (("--seed",), False, 0, int, None, ()), OUT],
    "detect": [H, *ANCHOR, (("--alpha",), True, None, float, None, ()),
               (("--method",), False, "evalue", None, ("evalue", "baseline"), ()),
               (("--stream",), True, None, None, None, ()),
               (("--budget",), False, None, int, None, ()), OUT],
    "decompose": [H, *ANCHOR, (("--target",), True, None, None, None, ()), OUT],
    "audit": [H, *ANCHOR, (("--perturbations",), False, 200, int, None, ()),
              (("--magnitude",), False, 0.05, float, None, ()),
              (("--max-cycle-len",), False, None, int, None, ()),
              (("--seed",), False, 0, int, None, ()), OUT],
}


def parser_shape(parser):
    def others(a):  # the options a mutually exclusive group holds besides a's
        return tuple(o for group in parser._mutually_exclusive_groups if a in group._group_actions
                     for b in group._group_actions if b is not a for o in b.option_strings)

    return [(tuple(a.option_strings) or (a.dest,), a.required, a.default, a.type,
             None if a.choices is None else tuple(a.choices), others(a)) for a in parser._actions]


# subcommand -> its flags besides the anchor's, each run kept small in case it runs
REST = {
    "jstar": [],
    "maxmin2": ["--grid", "64", "--refinements", "1"],
    "sweep-tau": ["--alphas", "0.01", "--trials", "2", "--horizon-cap", "50"],
    "calibrate-null": ["--alphas", "0.05", "--trials", "2", "--horizon", "3"],
    "generate": ["--pair", "0,1", "--steps", "3"],
    "detect": ["--alpha", "0.02",
               "--stream", str(Path(__file__).parent / "golden" / "generate-pair.csv")],
    "decompose": ["--target", "[0.55,0.45]"],
    "audit": ["--perturbations", "1"],
}


class TestParserShape:
    def test_every_parser_keeps_its_options_in_order(self):
        parser = build_parser()
        subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        shapes = {"ewm": parser_shape(parser),
                  **{name: parser_shape(sub) for name, sub in subs.choices.items()}}
        assert shapes == PARSER_SHAPE

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()


class TestOneSource:
    """One anchor source for every subcommand and one target for generate: giving neither or
    both is a usage error, before anything is read or run."""

    @pytest.mark.parametrize("command", sorted(REST))
    @pytest.mark.parametrize("given", ["neither", "both"])
    def test_anchor_comes_from_exactly_one_flag(self, capsys, tmp_path, command, given):
        path = tmp_path / "anchor.json"
        path.write_text("[0.5, 0.5]")
        anchor = {"neither": [], "both": ["--anchor", "[0.5,0.5]", "--anchor-file", str(path)]}
        code, out, err = run(capsys, command, *anchor[given], "--delta", "0.1", *REST[command])
        assert (code, out) == (2, "") and "--anchor-file" in err

    @pytest.mark.parametrize("target", [[], ["--pair", "0,1", "--target", "[0.55,0.45]"]],
                             ids=["neither", "both"])
    def test_generate_target_comes_from_exactly_one_flag(self, capsys, target):
        code, out, err = run(capsys, "generate", *FAIR, *target, "--steps", "3")
        assert (code, out) == (2, "") and "--target" in err


class TestErrors:
    """Each test runs its group of :data:`TYPED_ERRORS`."""

    def test_unknown_subcommand_usage_error(self, stream_dir):
        typed_errors(stream_dir, "unknown subcommand")

    def test_unknown_flag_usage_error(self, stream_dir):
        typed_errors(stream_dir, "unknown flag")

    def test_runtime_error_exit_one(self, stream_dir):
        typed_errors(stream_dir, "runtime")

    def test_non_integer_stream_row(self, stream_dir):
        typed_errors(stream_dir, "non-integer row")

    def test_symbol_outside_vocabulary(self, stream_dir):
        typed_errors(stream_dir, "outside vocabulary")

    def test_non_numeric_anchor_weight(self, stream_dir):
        typed_errors(stream_dir, "non-numeric weight")

    def test_negative_steps(self, stream_dir):
        typed_errors(stream_dir, "negative steps")
        assert not (stream_dir / "negative-steps.csv").exists()

    @pytest.mark.parametrize("case", sorted(TYPED_ERRORS["bad count"]))
    def test_bad_count_is_a_typed_error(self, stream_dir, case):
        typed_errors(stream_dir, "bad count", case)

    @pytest.mark.parametrize("case", sorted(TYPED_ERRORS["bad token"]))
    def test_bad_token_is_a_typed_error(self, stream_dir, case):
        typed_errors(stream_dir, "bad token", case)

    def test_out_of_memory_is_a_typed_error(self, capsys, monkeypatch):
        def exhausted(config, threads=1):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr(ewm.simulation, "estimate_stopping", exhausted)
        code, out, err = run(capsys, *SWEEP, "--threads", "1")
        assert code == 1 and out == "" and "Traceback" not in err
        assert err.startswith("ewm: error: out of memory: Unable to allocate")

    def test_subnormal_alpha_is_a_typed_error(self, stream_dir):
        typed_errors(stream_dir, "subnormal alpha")

    @pytest.mark.parametrize("case", TYPED_ERRORS["subnormal J*"])
    def test_subnormal_jstar_is_a_typed_error(self, stream_dir, case):
        typed_errors(stream_dir, "subnormal J*", case)

    @pytest.mark.parametrize("case", TYPED_ERRORS["tiny delta"])
    def test_underflowing_delta_is_a_typed_error(self, stream_dir, case):
        typed_errors(stream_dir, "tiny delta", case)

    def test_missing_stream_file(self, stream_dir):
        typed_errors(stream_dir, "missing stream")

    def test_files_are_utf8_whatever_the_locale(self, stream_dir):
        # under an ASCII locale a UTF-8 row once read as "unreadable stream file ... 'ascii' codec"
        (stream := stream_dir / "accent.csv").write_text("step,v,s\n1,\u00e9,1\n", "utf-8")
        out = stream_dir / "jstar.json"
        for argv, code, fragment in (([*DETECT, str(stream)], 1, "non-integer stream row"),
                                     (["jstar", *THREE, "--out", str(out)], 0, "")):
            done = run_fresh("import sys; from ewm.cli import main; sys.exit(main(sys.argv[1:]))",
                             *argv, env={"PYTHONUTF8": "0", "LC_ALL": "C"})
            assert done.returncode == code and fragment in done.stderr, done.stderr
        assert out.read_bytes() == (Path(__file__).parent / "golden" / "jstar.json").read_bytes()


# name -> (n, argv after the neighborhood): a subcommand whose dense table is one past the
# 2**22-cell budget: an n x n score table or vertex joint at n = 2,049, and every vertex's
# joint, n (n - 1) n**2 cells, at n = 46 for the adaptive policies
PAST_BUDGET = {
    "detect-evalue": (2049, ["detect", "--alpha", "0.05", "--method", "evalue", "--stream"]),
    "calibrate-null": (2049, ["calibrate-null", "--alphas", "0.05", "--trials", "10",
                              "--horizon", "10"]),
    "generate": (2049, ["generate", "--pair", "0,1", "--steps", "10"]),
    "generate-target": (2049, ["generate", "--target", json.dumps([1.1 / 2049, 0.9 / 2049]
                                                                  + [1 / 2049] * 2047),
                               "--steps", "10"]),
    "audit": (2049, ["audit", "--perturbations", "1"]),
    "sweep-tau-fixed": (2049, ["sweep-tau", "--alphas", "0.05", "--trials", "2",
                               "--policy", "fixed:0,1", "--horizon-cap", "10"]),
    **{f"sweep-tau-{policy}": (46, ["sweep-tau", "--alphas", "0.05", "--trials", "2",
                                    "--policy", policy, "--horizon-cap", "10"])
       for policy in ("roundrobin", "random", "greedy")},
}


class TestDenseBudget:
    def test_the_budget_is_2_to_the_22_cells(self):
        ewm.simplex._dense(2**22, "a table")
        with pytest.raises(TooLargeError, match="a table needs 4,194,305 cells"):
            ewm.simplex._dense(2**22 + 1, "a table")

    @needs_vmhwm
    @pytest.mark.parametrize("case", PAST_BUDGET)
    def test_a_table_past_the_budget_is_refused_before_it_is_allocated(self, tmp_path, case):
        # one table past the budget holds at least 32 MiB; the refused run's peak RSS grows
        # by far less than that over the interpreter's after import
        n, argv = PAST_BUDGET[case]
        (anchor := tmp_path / "anchor.json").write_text(json.dumps([1.0 / n] * n))
        (stream := tmp_path / "stream.csv").write_text("step,v,s\n0,0,1\n")
        argv = [argv[0], "--anchor-file", str(anchor), "--delta", str(0.5 / n), *argv[1:]]
        argv += [str(stream)] if argv[-1] == "--stream" else []
        growth_mib, done = peak_growth_mib("import sys\nfrom ewm.cli import run_command", "",
                                           "print(run_command(sys.argv[1:]))", *argv)
        assert done.stdout.split()[-2] == "1" and growth_mib < 8.0  # after any output of a run
        assert done.stderr.startswith("ewm: error: ") and "Traceback" not in done.stderr
        assert "cells, over the budget of 4,194,304" in done.stderr


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
        code, out, _ = run(capsys, "maxmin2", *FAIR, "--grid", "64", "--refinements", "2",
                           "--trace", str(trace))
        assert code == 0
        payload = json.loads(out)
        assert payload["abs_error"] <= 1e-4
        lines = trace.read_text().splitlines()
        assert lines[0] == "refinement,r00,r11,objective"
        assert len(lines) == 3

    @pytest.mark.parametrize("anchor, delta, message", [
        ("[0.4,0.3,0.3]", "0.1", "the two-token solver needs n = 2"),
        ("[0.3,0.7]", "0.5", "min anchor weight 0.3 must exceed delta 0.5"),
    ], ids=["three-symbols", "delta-past-the-anchor"])
    def test_bad_neighborhood_is_a_typed_error(self, capsys, anchor, delta, message):
        code, out, err = run(capsys, "maxmin2", "--anchor", anchor, "--delta", delta)
        assert code == 1 and out == "" and message in err


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

    @pytest.mark.parametrize("flags, environ, threads",
                             [([], False, 1), (["--threads", "2"], False, 2), ([], True, 1)],
                             ids=["default", "flag", "environment-ignored"])
    def test_threads_come_from_the_flag_alone(self, capsys, monkeypatch, flags, environ,
                                              threads):
        # environ: an EWM_<OPTION> variable named after each sweep-tau option, set to junk
        seen = []

        def record_threads(config, threads):
            seen.append(threads)
            return []

        monkeypatch.setattr(ewm.simulation, "estimate_stopping", record_threads)
        for options, *_ in PARSER_SHAPE["sweep-tau"] if environ else []:
            monkeypatch.setenv("EWM_" + options[-1].lstrip("-").replace("-", "_").upper(), "abc")
        code, _, err = run(capsys, *SWEEP, *flags)
        assert (code, err, seen) == (0, "", [threads])

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
    anchor = flags(anchor=field(ANCHORS)) if draw(st.integers(0, 9)) else []
    argv = [command, *anchor, *flags(delta=field(DELTAS))]
    if command == "maxmin2":
        argv += flags(refinements=counts(4),
                      grid=field(([str(g) for g in range(64, 129)], ["63", "0", "x"])))
        argv += maybe(trace=st.just("STREAMS/trace.csv"))
    elif command == "sweep-tau":
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


def _fuzz_examples(test):
    """Every hand-found case, as an explicit example of the fuzz test."""
    cases = [argv for rows in TYPED_ERRORS.values() for argv, _, _ in rows.values()] + [
        ["detect", *FAIR, "--alpha", "0.02", "--stream", "STREAMS/binary.csv",
         "--budget", "18446744073709551616"],
        ["jstar", *FAIR, "--anchor-file", "STREAMS/good.csv"],
        ["generate", *FAIR, "--pair", "0,1", "--target", "[0.55,0.45]", "--steps", "3"],
        [*SWEEP[:-1], "18446744073709551616"],
        ["sweep-tau", *FAIR, "--alphas", "1e-320", "--trials", "2"],
        ["calibrate-null", *FAIR, "--alphas", "1e-320", "--trials", "2"],
    ]
    for argv in cases:
        test = example(argv=argv)(test)
    return test


class TestFuzz:
    @settings(max_examples=300)
    @_fuzz_examples
    @given(argv=argvs())
    def test_any_argv_exits_cleanly(self, stream_dir, argv):
        argv = [a.replace("STREAMS", str(stream_dir)) for a in argv]
        code, _, err = run_isolated(argv)
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
        code, _, err = run_isolated(["detect", *FAIR, "--alpha", "1e-30", "--method", method,
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
        code, _, err = run_isolated(argv)
        assert code in (0, 1) and "Traceback" not in err
        if code:
            assert err.startswith("ewm: error: ") and err.count("\n") == 1 and len(err) < 300
