"""Byte-for-byte golden outputs of reduced-size CLI runs, kept in tests/golden/.

The sweep-tau tables were written with

    ewm sweep-tau --anchor ANCHOR --delta 0.1 --alphas 1e-2,1e-120 --trials 4 \
        --seed 0 --policy POLICY --threads 1 --out tests/golden/sweep-tau-TAG-POLICY.csv

for the adaptive policies, which run the stepwise loop, on a 2- and a 4-symbol
anchor.  Any worker count must reproduce them.
"""

from pathlib import Path

import pytest

from ewm.cli import main

GOLDEN = Path(__file__).parent / "golden"
ANCHORS = {"n2": "[0.5,0.5]", "n4": "[0.25,0.25,0.25,0.25]"}


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
