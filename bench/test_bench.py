"""Tests of the benchmark itself:  python3 -m pytest bench"""

import json

import pytest

import harness
import layers
import run
import workloads

SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text())


def _units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("name", workloads.NAMES)
def test_smoke_run_is_correct_and_reports_every_end_to_end_metric(name):
    result = run.run_workload(name, seed=11, seconds=0.0, trace=False, smoke=True)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= harness.MIN_PASSES
    assert {k: m["unit"] for k, m in result["metrics"].items()} == _units("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_smoke_run_reports_every_per_layer_metric():
    result = run.run_workload("calibrate-null", seed=11, seconds=0.0, trace=True, smoke=True)
    assert result["correct"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == _units("per_layer")
    assert result["detail"]["seed_contract_identical"]
    trace = harness.ROOT / ".bench_work" / "trace" / "calibrate-null-seed11"
    assert (trace / "spans.jsonl").stat().st_size > 0
    assert (trace / "self_time.csv").read_text().startswith("layer,spans,self_s,share\n")


def test_benchmark_json_names_the_four_workloads_and_maps_every_layer_metric():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in SPEC["end_to_end"])
    assert set(layers.MOVES) == set(_units("per_layer"))


def test_tail_percentile_needs_ten_samples_beyond_it():
    with pytest.raises(ValueError):
        harness.percentile(list(range(999)), 99)
    assert harness.percentile(list(range(1000)), 99) == pytest.approx(989.01)
    assert harness.percentile([3.0], 50) == 3.0
    with pytest.raises(ValueError):
        harness.percentile(list(range(19)), 50.1)


def test_output_corrupted_in_the_checker_counts_as_failed_and_timing_goes_on():
    def corrupt(stdout: str) -> str:
        return stdout.replace('"rejected"', '"undecided"')

    result = run.run_workload("detect", seed=11, seconds=0.0, trace=False, smoke=True,
                              corrupt=corrupt)
    watermarked = workloads.SMOKE["wm_streams"] * 2  # both methods reject every one
    assert not result["correct"]
    assert result["failed"] == watermarked * harness.MIN_PASSES
    assert result["attempted"] > result["failed"]
    assert set(result["metrics"]) == set(_units("end_to_end"))


def test_checker_rejects_a_flipped_byte(tmp_path):
    calls = workloads.build("calibrate-null", 11, tmp_path, workloads.SMOKE)
    cli = run._import_ewm_cli()
    good = harness.run_pass(cli.run_command, calls)
    assert all(r.ok for r in good)
    text = calls[0].out.read_text()
    with pytest.raises(workloads.CheckFailed):
        calls[0].check(text.replace(",", ";", 1))
    with pytest.raises(workloads.CheckFailed):
        calls[0].check(text[:-1])
