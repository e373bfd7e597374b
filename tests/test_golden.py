"""Byte-for-byte golden outputs of reduced-size CLI runs, kept in tests/golden/.

The adaptive sweep-tau tables were written with

    ewm sweep-tau --anchor ANCHOR --delta 0.1 --alphas 1e-2,1e-120 --trials 4 \
        --seed 0 --policy POLICY --threads 1 --out tests/golden/sweep-tau-TAG-POLICY.csv

for the adaptive policies on a 2- and a 4-symbol anchor, and ``sweep-tau-n4-greedy-deep.csv``
the same way from ``DEEP_GREEDY``, the adaptive sweep whose greedy trials run longest before
absorption.  ``roundrobin`` and
``random`` run the block engine: ``random`` reads three Philox words per two
steps, the vertex draws of both from the low then the high half of the first
word, and a trial whose block holds a draw numpy rejects is re-run by the
stepwise loop.  ``greedy`` runs the stepwise loop until every vertex is played
and its last ``window`` steps all chose one vertex, which it then plays for good;
the block engine continues it from there with its wealth.  The fixed-pair tables
``sweep-tau-fixed-TAG.csv`` were written the same way from ``FIXED_SWEEP`` and
the ``FIXED_ANCHORS``, and each entry of
``RUNS`` with ``ewm ARGV --out tests/golden/NAME.csv`` for a table (``NAME.json``
for a report), with ``--trace tests/golden/NAME-trace.csv`` in place of
``TRACE``.  The tables cover the paths that map uniforms to coupling cells in
bulk: the fixed-pair sweep, calibrate-null and generate; the reports cover the
closed-form rate, the two-token solver, both detectors on the committed
``generate-pair.csv`` stream, the vertex decomposition and the audit.  Any
worker count must reproduce the sweep tables.
"""

from pathlib import Path

import pytest

from ewm.cli import main

GOLDEN = Path(__file__).parent / "golden"
ANCHORS = {"n2": "[0.5,0.5]", "n4": "[0.25,0.25,0.25,0.25]"}

DEEP_GREEDY = ["sweep-tau", "--anchor", ANCHORS["n4"], "--delta", "0.1", "--alphas",
               "1e-120,1e-300", "--trials", "8", "--seed", "0", "--policy", "greedy"]
FIXED_ANCHORS = {"fair": "[0.5,0.5]", "skew": "[0.2,0.8]"}
FIXED_SWEEP = ["--delta", "0.1", "--alphas", "log:1e-2:1e-60:4", "--trials", "50",
               "--seed", "0", "--policy", "fixed:0,1"]
CALIBRATE = ["calibrate-null", "--anchor", "[0.5,0.5]", "--delta", "0.1",
             "--alphas", "0.1,0.05,0.02", "--trials", "500", "--seed", "1"]
ANCHOR3 = ["--anchor", "[0.4,0.3,0.3]", "--delta", "0.1"]
GENERATE = ["generate", *ANCHOR3, "--steps", "400", "--seed", "7"]
DETECT = ["detect", *ANCHOR3, "--alpha", "1e-30", "--stream", str(GOLDEN / "generate-pair.csv")]
RUNS = {
    "calibrate-null-anchor": CALIBRATE,
    "calibrate-null-shifted": [*CALIBRATE, "--q-null", "[0.55,0.45]", "--horizon", "2000"],
    "generate-pair": [*GENERATE, "--pair", "0,1"],
    "generate-target": [*GENERATE, "--target", "[0.43,0.32,0.25]"],
    "jstar": ["jstar", *ANCHOR3],
    "maxmin2": ["maxmin2", "--p", "0.3", "--delta", "0.1", "--grid", "64",
                "--refinements", "3", "--trace", "TRACE"],
    "detect-evalue": [*DETECT, "--method", "evalue"],
    "detect-baseline": [*DETECT, "--method", "baseline"],
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


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_matches_golden(tmp_path, name):
    suffix = ".csv" if RUNS[name][0] in TABLES else ".json"
    out, trace = tmp_path / f"out{suffix}", tmp_path / "trace.csv"
    argv = [str(trace) if a == "TRACE" else a for a in RUNS[name]]
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}{suffix}").read_bytes()
    if "TRACE" in RUNS[name]:
        assert trace.read_bytes() == (GOLDEN / f"{name}-trace.csv").read_bytes()


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("tag", sorted(FIXED_ANCHORS))
def test_fixed_sweep_matches_golden(tmp_path, tag, threads):
    out = tmp_path / "tau.csv"
    code = main(["sweep-tau", "--anchor", FIXED_ANCHORS[tag], *FIXED_SWEEP,
                 "--threads", str(threads), "--out", str(out)])
    assert code == 0
    assert out.read_bytes() == (GOLDEN / f"sweep-tau-fixed-{tag}.csv").read_bytes()
