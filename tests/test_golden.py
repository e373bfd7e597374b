"""Byte-for-byte golden outputs of reduced-size CLI runs, kept in tests/golden/.

``GOLDENS`` is the one place a golden's command is written, as the argv that prints it.  Each
runs in-process and in a fresh interpreter started as ``python -m ewm.cli`` starts, every
``sweep-tau`` entry at ``--threads 1`` and ``2``, as any worker count must reproduce a sweep's
table.  An entry written before a change to
the path it runs pins that the path kept its bytes.  The one input no entry writes,
``detect-null-stream.csv``, holds 4,000 pairs drawn independently from the anchor by

    rng = np.random.default_rng(20)
    v, s = rng.choice(3, size=(2, 4000), p=[0.4, 0.3, 0.3])

and written with ``ewm.coupling.write_stream_csv``.  The greedy sweeps must also come out
unchanged where ``sum`` compensates its float rounding, as Python 3.12's does.
"""

import argparse
import builtins
import math
import re
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from ewm.cli import build_parser, main
from ewm.coupling import write_stream_csv

from conftest import run_fresh

GOLDEN = Path(__file__).parent / "golden"
NULL_STREAM = GOLDEN / "detect-null-stream.csv"
STREAM = str(GOLDEN / "generate-pair.csv")  # the watermarked stream both detect goldens read
TRACE = "maxmin2-trace.csv"  # maxmin2's --trace, written to the working directory
SUM = builtins.sum  # kept for compensated_sum, which stands in for it
ANCHORS = {"n2": "[0.5,0.5]", "n4": "[0.25,0.25,0.25,0.25]"}
FAIR = ["--anchor", ANCHORS["n2"], "--delta", "0.1"]
ANCHOR3 = ["--anchor", "[0.4,0.3,0.3]", "--delta", "0.1"]
SWEEP = ["sweep-tau", "--delta", "0.1", "--seed", "0"]
FIXED = [*SWEEP, "--alphas", "log:1e-2:1e-60:4", "--trials", "50"]
NOISY = ["sweep-tau", "--anchor", "[0.85,0.15]", "--delta", "0.14", "--alphas", "log:1e-3:1e-6:4",
         "--trials", "400", "--seed", "0", "--horizon-cap", "150"]  # a weak, noisy drift
CALIBRATE = ["calibrate-null", *FAIR, "--alphas", "0.1,0.05,0.02", "--trials", "500", "--seed", "1"]
SHIFTED = ["calibrate-null", *FAIR, "--q-null", "[0.55,0.45]"]
GENERATE = ["generate", *ANCHOR3, "--steps", "400", "--seed", "7"]
DETECT = ["detect", *ANCHOR3, "--alpha", "1e-30", "--stream", STREAM]
DETECT_NULL = ["detect", *ANCHOR3, "--alpha", "0.02", "--stream", str(NULL_STREAM)]
GOLDENS = {
    # roundrobin and random run the block engine, random at three Philox words per two steps,
    # both vertex draws from the first word's low then high half; the block engine hands each
    # trial whose block holds a draw numpy rejects to the stepwise loop.  greedy runs the one
    # step loop of the stepwise engine, which places each trial at word 0 through the one
    # Philox reader, until every vertex is played and its last window steps all chose one
    # vertex, which it then plays for good; the block engine continues it with its wealth
    **{f"sweep-tau-{tag}-{policy}.csv": [*SWEEP, "--anchor", anchor, "--alphas", "1e-2,1e-120",
                                          "--trials", "4", "--policy", policy]
       for tag, anchor in ANCHORS.items() for policy in ("roundrobin", "random", "greedy")},
    # the adaptive sweep whose greedy trials run longest before absorption
    "sweep-tau-n4-greedy-deep.csv": [*SWEEP, "--anchor", ANCHORS["n4"], "--trials", "8",
                                     "--alphas", "1e-120,1e-300", "--policy", "greedy"],
    # 161 to 358 of each alpha's 400 trials are absorbed and handed to the block engine, 3 to 29
    # of them then censored at the cap; written before the stepwise engine made the hand-off
    "sweep-tau-greedy-noisy.csv": [*NOISY, "--policy", "greedy"],
    # the tables pin the bulk paths from random words to coupling cells: the block engine and
    # calibrate-null read raw 64-bit Philox words, and generate makes its uniforms back into words
    "sweep-tau-fixed-fair.csv": [*FIXED, "--anchor", ANCHORS["n2"], "--policy", "fixed:0,1"],
    # CDF entry 0.2 marks guide bucket 819
    "sweep-tau-fixed-skew.csv": [*FIXED, "--anchor", "[0.2,0.8]", "--policy", "fixed:0,1"],
    # written before the bulk paths read words
    "sweep-tau-fixed-n4.csv": [*FIXED, "--anchor", ANCHORS["n4"], "--policy", "fixed:0,3"],
    # about 12% of trials outlast their first chunk and the cap censors some; written before
    # the block engine read in passes
    "sweep-tau-fixed-noisy.csv": [*NOISY, "--policy", "fixed:0,1"],
    "calibrate-null-anchor.csv": CALIBRATE,
    "calibrate-null-shifted.csv": [*CALIBRATE, "--q-null", "[0.55,0.45]", "--horizon", "2000"],
    # rows longer than one 16,384-cell sub-block, so each is read in column chunks that carry
    # the wealth; written before the bulk paths read words
    "calibrate-null-subblocks.csv": [*SHIFTED, "--alphas", "0.05", "--trials", "40",
                                     "--horizon", "20000", "--seed", "2"],
    # 3-symbol rows of three column chunks, almost all of which stop before the third, as they
    # can no longer cross; written before calibrate-null pruned its rows
    "calibrate-null-pruned.csv": ["calibrate-null", *ANCHOR3, "--q-null", "[0.45,0.25,0.3]",
                                  "--alphas", "0.1,0.02", "--trials", "300", "--horizon", "3000",
                                  "--seed", "4"],
    # rows of 1,025 steps, which the null drift reads in a first chunk of 530 (529 at alpha
    # 0.02) and, for the rows still live, a second of the rest; written before the one Philox
    # reader built its own state
    "calibrate-null-chunk-edge.csv": [*SHIFTED, "--alphas", "0.05,0.02", "--trials", "4000",
                                      "--horizon", "1025", "--seed", "5"],
    # a wide ball, whose null drift (-0.049 against a top log score of 3.9) stops a row too late
    # for a shorter read to pay: whole rows one step past a 16,384-cell sub-block, in two equal
    # reads of 8,193 and 8,192 steps; written before calibrate-null sized its reads from the drift
    "calibrate-null-drift-edge.csv": ["calibrate-null", "--anchor", "[0.02,0.98]", "--delta",
                                      "0.0196", "--q-null", "[0.0102,0.9898]", "--alphas",
                                      "0.2,0.05", "--trials", "400", "--horizon", "16385",
                                      "--seed", "6"],
    "generate-pair.csv": [*GENERATE, "--pair", "0,1"],  # also DETECT's watermarked stream
    "generate-target.csv": [*GENERATE, "--target", "[0.43,0.32,0.25]"],
    "jstar.json": ["jstar", *ANCHOR3],  # the closed-form rate
    "maxmin2.json": ["maxmin2", "--anchor", "[0.3,0.7]", "--delta", "0.1", "--grid", "64",
                     "--refinements", "3", "--trace", TRACE],  # the two-token solver
    "detect-evalue.json": [*DETECT, "--method", "evalue"],
    "detect-baseline.json": [*DETECT, "--method", "baseline"],
    # neither detector decides on the null stream, so both read its six blocks; written before
    # the baseline screened its tails
    "detect-evalue-null.json": [*DETECT_NULL, "--method", "evalue"],
    "detect-baseline-null.json": [*DETECT_NULL, "--method", "baseline"],
    # the null stream's match rate, 0.3425, is well above this anchor's 0.25, so the baseline
    # decides, in the third block at alpha 0.02 (530 at 0.03): its schedule moves the bytes
    "detect-baseline-null-n4.json": ["detect", "--anchor", ANCHORS["n4"], "--delta", "0.1",
                                     "--alpha", "0.02", "--method", "baseline",
                                     "--stream", str(NULL_STREAM)],
    "decompose.json": ["decompose", *ANCHOR3, "--target", "[0.42,0.3,0.28]"],  # vertex weights
    "audit.json": ["audit", *ANCHOR3, "--perturbations", "4", "--seed", "3"],
}
THREADS = [["--threads", "1"], ["--threads", "2"]]  # a sweep's two runs
RUNS = [pytest.param(name, [*argv, *more], id="-".join([Path(name).stem, *more[1:]]))
        for name, argv in GOLDENS.items() for more in (THREADS if argv[0] == "sweep-tau" else [[]])]


def assert_goldens(directory, name, argv):
    """``name``, and the trace if ``argv`` writes one, in ``directory`` equal their goldens."""
    for written in [name, *[a for a in argv if a == TRACE]]:
        assert (directory / written).read_bytes() == (GOLDEN / written).read_bytes(), written


@pytest.mark.parametrize("name, argv", RUNS)
def test_run_matches_golden(tmp_path, monkeypatch, name, argv):
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--out", name]) == 0
    assert_goldens(tmp_path, name, argv)


@pytest.fixture(scope="module")
def fresh(request, tmp_path_factory):
    """``{id: future of (directory, process)}``: a fresh interpreter for each selected run."""
    probe = ("import sys, runpy; sys.modules['scipy'] = None; "  # as `python -m ewm.cli` starts
             "runpy.run_module('ewm.cli', run_name='__main__', alter_sys=True)")

    def run(argv, directory):  # scipy, a test-only reference, is blocked
        return directory, run_fresh(probe, *argv, cwd=directory, text=False)

    ids = {item.callspec.id for item in request.session.items
           if item.originalname == "test_fresh_process_matches_golden"}
    with ThreadPoolExecutor(2) as pool:  # two at a time, after the in-process runs' forks
        yield {p.id: pool.submit(run, p.values[1], tmp_path_factory.mktemp(p.id))
               for p in RUNS if p.id in ids}


@pytest.mark.parametrize("name, argv", RUNS)
def test_fresh_process_matches_golden(request, fresh, name, argv):
    directory, done = fresh[request.node.callspec.id].result()
    assert done.returncode == 0, done.stderr.decode()
    (directory / name).write_bytes(done.stdout)
    assert_goldens(directory, name, argv)


# (first line, pattern, replacement): ``STREAM`` rewritten line by line from that line on, as
# `sed` would; each variant holds the same pairs, so both detectors must print the same bytes
STREAM_VARIANTS = {
    "crlf": (0, "$", "\r"),  # plain rows still, so one parse per block
    "space": (1, ",", ", "),  # rows only the csv path reads
    "quoted": (1, r",(\d*)$", r',"\1"'),  # the csv path too
}


@pytest.mark.parametrize("variant", sorted(STREAM_VARIANTS))
@pytest.mark.parametrize("name", ["detect-evalue.json", "detect-baseline.json"],
                         ids=["evalue", "baseline"])
def test_detect_on_a_rewritten_stream_matches_golden(tmp_path, monkeypatch, name, variant):
    start, pattern, replacement = STREAM_VARIANTS[variant]
    lines = Path(STREAM).read_text().splitlines()
    stream = tmp_path / f"{variant}.csv"
    stream.write_bytes("".join((line if i < start else re.sub(pattern, replacement, line)) + "\n"
                               for i, line in enumerate(lines)).encode())
    monkeypatch.chdir(tmp_path)
    argv = [str(stream) if a == STREAM else a for a in GOLDENS[name]]
    assert main([*argv, "--out", name]) == 0
    assert_goldens(tmp_path, name, argv)


def test_goldens_cover_every_golden_file_and_subcommand():
    assert {path.name for path in GOLDEN.iterdir()} == {*GOLDENS, TRACE, NULL_STREAM.name}
    subs = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert {argv[0] for argv in GOLDENS.values()} == set(subs.choices)


def compensated_sum(iterable, /, start=0):
    """Builtin ``sum`` as Python 3.12 computes it over floats: Neumaier's compensated
    summation.  Anything else is summed as before."""
    items = list(iterable)
    if not items or type(start) not in (int, float) or any(type(x) is not float for x in items):
        return SUM(items, start)
    total, compensation = float(start), 0.0
    for x in items:
        t = total + x
        compensation += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + compensation if compensation and math.isfinite(compensation) else total


@pytest.mark.parametrize("name", [pytest.param(name, id=Path(name).stem)
                                  for name, argv in GOLDENS.items() if "greedy" in argv])
def test_greedy_sweep_bytes_do_not_depend_on_the_python_sum(tmp_path, monkeypatch, name):
    # Python 3.12's sum rounds some window means one ulp off a left fold, which flips a tie
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    monkeypatch.chdir(tmp_path)
    assert main([*GOLDENS[name], "--threads", "1", "--out", name]) == 0
    assert_goldens(tmp_path, name, GOLDENS[name])


def test_null_stream_is_the_documented_draw(tmp_path):
    rng = np.random.default_rng(20)
    v, s = rng.choice(3, size=(2, 4000), p=[0.4, 0.3, 0.3])
    with open(tmp_path / "null.csv", "w", newline="") as fh:
        write_stream_csv(fh, zip(v.tolist(), s.tolist()))
    assert (tmp_path / "null.csv").read_bytes() == NULL_STREAM.read_bytes()
