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
from ewm.cli import main, parse_alpha_grid
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
    **{f"magnitude-{m}": (["audit", *THREE, "--perturbations", "1", "--magnitude", m], None,
                          "magnitude") for m in ("inf", "nan", "1e308")},
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

    @pytest.mark.parametrize("case", sorted(BAD_COUNTS))
    def test_bad_count_is_a_typed_error(self, case):
        argv, threads_env, message = BAD_COUNTS[case]
        code, err = run_isolated(argv, threads_env)
        assert code == 1 and message in err and "Traceback" not in err

    def test_out_of_memory_is_a_typed_error(self, capsys, monkeypatch):
        def exhausted(config, threads=1):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr(ewm.simulation, "estimate_stopping", exhausted)
        code, out, err = run(capsys, *SWEEP, "--threads", "1")
        assert code == 1 and out == "" and "Traceback" not in err
        assert err.startswith("ewm: error: out of memory: Unable to allocate")

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
                assert np.array_equal(np.array(ewm.read_stream_csv(fh)), one_shot)
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
        (["detect", *FAIR, "--alpha", "0.02", "--method", "baseline",
          "--stream", "STREAMS/outside.csv"], None),
        (["jstar", "--anchor", '["a",0.5]', "--delta", "0.1"], None),
        (["generate", *FAIR, "--pair", "0,1", "--steps", "-1"], None),
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
