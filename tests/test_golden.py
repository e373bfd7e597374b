"""Byte-for-byte golden outputs of reduced-size CLI runs, kept in tests/golden/.

The adaptive sweep-tau tables were written with

    ewm sweep-tau --anchor ANCHOR --delta 0.1 --alphas 1e-2,1e-120 --trials 4 \
        --seed 0 --policy POLICY --threads 1 --out tests/golden/sweep-tau-TAG-POLICY.csv

for the adaptive policies on a 2- and a 4-symbol anchor, and ``sweep-tau-n4-greedy-deep.csv``
the same way from ``DEEP_GREEDY``, the adaptive sweep whose greedy trials run longest before
absorption.  ``roundrobin`` and
``random`` run the block engine: ``random`` reads three Philox words per two
steps, the vertex draws of both from the low then the high half of the first
word, and the block engine hands each trial whose block holds a draw numpy rejects
to the stepwise loop.  ``greedy`` runs the one step loop of the stepwise engine, which
places each trial at word 0 through the one Philox reader, until every vertex is played
and its last ``window`` steps all chose one vertex, which it then plays for good; the
stepwise engine hands it to the block engine, which continues it from there with its
wealth.  The fixed-pair tables
``sweep-tau-fixed-TAG.csv`` were written the same way from each ``FIXED_RUNS`` entry; on the
weak, noisy drift of ``noisy`` about 12% of trials outlast their first chunk and its cap
censors some, and it was written before the block engine read in passes.
``sweep-tau-greedy-noisy.csv`` is that drift under ``greedy`` (``GREEDY_RUNS``): 161 to 358 of
each alpha's 400 trials are absorbed and handed to the block engine, and 3 to 29 of those are
then censored at the cap; it was written before the stepwise engine made the hand-off
itself.  Each entry of
``RUNS`` with ``ewm ARGV --out tests/golden/NAME.csv`` for a table (``NAME.json``
for a report), with ``--trace tests/golden/NAME-trace.csv`` in place of
``TRACE``.  The tables cover the paths that map random words to coupling cells in
bulk: the fixed-pair sweep, calibrate-null and generate.  The block engine and
calibrate-null read raw 64-bit Philox words, and generate makes its generator's
uniforms back into words; ``calibrate-null-subblocks`` has rows longer than one
16,384-cell sub-block, so each is read in column chunks that carry the wealth, and
``calibrate-null-pruned`` has 3-symbol rows of three column chunks, almost all of which stop
before the third, as they can no longer cross; ``calibrate-null-chunk-edge`` has rows one step
past their first 1,024-step chunk, so each row still live reads a one-word second chunk.  The
``fixed-n4`` and ``calibrate-null-subblocks`` tables were written before the bulk paths read
words, ``calibrate-null-pruned`` before calibrate-null pruned its rows, and
``calibrate-null-chunk-edge`` before the one Philox reader built its own state, so they pin
that those paths kept their bytes.  The reports cover
the closed-form rate, the two-token solver, both detectors on the committed
``generate-pair.csv`` stream and on ``detect-null-stream.csv``, the vertex decomposition and
the audit.  That null stream holds 4,000 pairs, drawn independently from the anchor by

    rng = np.random.default_rng(20)
    v, s = rng.choice(3, size=(2, 4000), p=[0.4, 0.3, 0.3])

and written with ``ewm.coupling.write_stream_csv``; neither detector decides on it, so both
read its six blocks, and its reports were written before the baseline screened its tails.
Any worker count must reproduce the sweep tables, and the greedy ones must also come out
unchanged where ``sum`` compensates its float rounding, as Python 3.12's does.
"""

import builtins
import math
from pathlib import Path

import numpy as np
import pytest

from ewm.cli import main
from ewm.coupling import write_stream_csv

GOLDEN = Path(__file__).parent / "golden"
SUM = builtins.sum  # kept for compensated_sum, which stands in for it
ANCHORS = {"n2": "[0.5,0.5]", "n4": "[0.25,0.25,0.25,0.25]"}

DEEP_GREEDY = ["sweep-tau", "--anchor", ANCHORS["n4"], "--delta", "0.1", "--alphas",
               "1e-120,1e-300", "--trials", "8", "--seed", "0", "--policy", "greedy"]
NOISY = ["--anchor", "[0.85,0.15]", "--delta", "0.14", "--alphas", "log:1e-3:1e-6:4",
         "--trials", "400", "--seed", "0", "--horizon-cap", "150"]
GREEDY_RUNS = {"sweep-tau-n4-greedy-deep": DEEP_GREEDY,
               "sweep-tau-n2-greedy": ["sweep-tau", "--anchor", ANCHORS["n2"], "--delta", "0.1",
                                       "--alphas", "1e-2,1e-120", "--trials", "4", "--seed", "0",
                                       "--policy", "greedy"],
               "sweep-tau-greedy-noisy": ["sweep-tau", *NOISY, "--policy", "greedy"]}
FIXED_SWEEP = ["--delta", "0.1", "--alphas", "log:1e-2:1e-60:4", "--trials", "50",
               "--seed", "0"]
FIXED_RUNS = {"fair": ["--anchor", "[0.5,0.5]", *FIXED_SWEEP, "--policy", "fixed:0,1"],
              "skew": ["--anchor", "[0.2,0.8]", *FIXED_SWEEP, "--policy", "fixed:0,1"],
              "n4": ["--anchor", ANCHORS["n4"], *FIXED_SWEEP, "--policy", "fixed:0,3"],
              "noisy": [*NOISY, "--policy", "fixed:0,1"]}
CALIBRATE = ["calibrate-null", "--anchor", "[0.5,0.5]", "--delta", "0.1",
             "--alphas", "0.1,0.05,0.02", "--trials", "500", "--seed", "1"]
ANCHOR3 = ["--anchor", "[0.4,0.3,0.3]", "--delta", "0.1"]
GENERATE = ["generate", *ANCHOR3, "--steps", "400", "--seed", "7"]
DETECT = ["detect", *ANCHOR3, "--alpha", "1e-30", "--stream", str(GOLDEN / "generate-pair.csv")]
DETECT_NULL = ["detect", *ANCHOR3, "--alpha", "0.02",
               "--stream", str(GOLDEN / "detect-null-stream.csv")]
RUNS = {
    "calibrate-null-anchor": CALIBRATE,
    "calibrate-null-shifted": [*CALIBRATE, "--q-null", "[0.55,0.45]", "--horizon", "2000"],
    "calibrate-null-subblocks": ["calibrate-null", "--anchor", "[0.5,0.5]", "--delta", "0.1",
                                 "--alphas", "0.05", "--trials", "40", "--horizon", "20000",
                                 "--q-null", "[0.55,0.45]", "--seed", "2"],
    "calibrate-null-pruned": ["calibrate-null", *ANCHOR3, "--alphas", "0.1,0.02", "--trials", "300",
                              "--horizon", "3000", "--q-null", "[0.45,0.25,0.3]", "--seed", "4"],
    "calibrate-null-chunk-edge": ["calibrate-null", "--anchor", "[0.5,0.5]", "--delta", "0.1",
                                  "--alphas", "0.05,0.02", "--trials", "4000", "--horizon", "1025",
                                  "--q-null", "[0.55,0.45]", "--seed", "5"],
    "generate-pair": [*GENERATE, "--pair", "0,1"],
    "generate-target": [*GENERATE, "--target", "[0.43,0.32,0.25]"],
    "jstar": ["jstar", *ANCHOR3],
    "maxmin2": ["maxmin2", "--p", "0.3", "--delta", "0.1", "--grid", "64",
                "--refinements", "3", "--trace", "TRACE"],
    "detect-evalue": [*DETECT, "--method", "evalue"],
    "detect-baseline": [*DETECT, "--method", "baseline"],
    "detect-evalue-null": [*DETECT_NULL, "--method", "evalue"],
    "detect-baseline-null": [*DETECT_NULL, "--method", "baseline"],
    "decompose": ["decompose", *ANCHOR3, "--target", "[0.42,0.3,0.28]"],
    "audit": ["audit", *ANCHOR3, "--perturbations", "4", "--seed", "3"],
}
TABLES = {"calibrate-null", "generate"}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("policy", ["roundrobin", "random", "greedy"])
@pytest.mark.parametrize("tag", sorted(ANCHORS))
def test_sweep_tau_matches_golden(tmp_path, tag, policy, threads):
    out = tmp_path / "tau.csv"
    code = main(["sweep-tau", "--anchor", ANCHORS[tag], "--delta", "0.1",
                 "--alphas", "1e-2,1e-120", "--trials", "4", "--seed", "0",
                 "--policy", policy, "--threads", str(threads), "--out", str(out)])
    assert code == 0
    assert out.read_bytes() == (GOLDEN / f"sweep-tau-{tag}-{policy}.csv").read_bytes()


@pytest.mark.parametrize("threads", [1, 2])
def test_deep_greedy_sweep_matches_golden(tmp_path, threads):
    out = tmp_path / "tau.csv"
    assert main([*DEEP_GREEDY, "--threads", str(threads), "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "sweep-tau-n4-greedy-deep.csv").read_bytes()


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


@pytest.mark.parametrize("name", sorted(GREEDY_RUNS))
def test_greedy_sweep_bytes_do_not_depend_on_the_python_sum(tmp_path, monkeypatch, name):
    # Python 3.12's sum rounds some window means one ulp off a left fold, which flips a tie
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    out = tmp_path / "tau.csv"
    assert main([*GREEDY_RUNS[name], "--threads", "1", "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_matches_golden(tmp_path, name):
    suffix = ".csv" if RUNS[name][0] in TABLES else ".json"
    out, trace = tmp_path / f"out{suffix}", tmp_path / "trace.csv"
    argv = [str(trace) if a == "TRACE" else a for a in RUNS[name]]
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}{suffix}").read_bytes()
    if "TRACE" in RUNS[name]:
        assert trace.read_bytes() == (GOLDEN / f"{name}-trace.csv").read_bytes()


def test_null_stream_is_the_documented_draw(tmp_path):
    rng = np.random.default_rng(20)
    v, s = rng.choice(3, size=(2, 4000), p=[0.4, 0.3, 0.3])
    with open(tmp_path / "null.csv", "w", newline="") as fh:
        write_stream_csv(fh, zip(v.tolist(), s.tolist()))
    assert (tmp_path / "null.csv").read_bytes() == (GOLDEN / "detect-null-stream.csv").read_bytes()


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("tag", sorted(FIXED_RUNS))
def test_fixed_sweep_matches_golden(tmp_path, tag, threads):
    out = tmp_path / "tau.csv"
    code = main(["sweep-tau", *FIXED_RUNS[tag], "--threads", str(threads), "--out", str(out)])
    assert code == 0
    assert out.read_bytes() == (GOLDEN / f"sweep-tau-fixed-{tag}.csv").read_bytes()
