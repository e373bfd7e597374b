"""The ewm benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--seed N --seconds S --trace 0|1]

Run from the root of a source checkout; the package is imported from
``src/``.  Inputs are generated from ``--seed`` before timing.  The workload's
pass of CLI calls then runs in a closed loop (one client, one call at a time,
``ewm.cli.run_command`` in-process) for ``--seconds``, and every output is
checked.  With ``--trace 0`` the last line of stdout is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics,
and the span file, self-time table and tracing overhead are written under
``.bench_work/trace/``.  ``--workload all`` runs each workload in a fresh
interpreter and prints one table.  Metric names, units and bounds are listed
in BENCHMARK.json.

Times are scaled to the host's fast CPU speed (see hostspeed.py); the result
file under ``.bench_work/results/`` keeps the unscaled times, every call's
sample and the provenance of the run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import harness
import layers
import workloads
from harness import ROOT, SRC, percentile

WORK = ROOT / ".bench_work"
SETUP_PROBES = 3
DETECT_MIN_CALLS = 1000  # p99 of detect calls needs ten samples beyond it
SEED_CONTRACT_REPEATS = 3


def _import_ewm_cli():
    sys.path.insert(0, str(SRC))
    from ewm import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"ewm was imported from {cli.__file__}, not from {SRC}")
    return cli


def _pct(values, q):
    """A percentile with its sample count, or None where the helper refuses it."""
    try:
        return {"value": harness.percentile(values, q), "samples": len(values)}
    except ValueError:
        return None


def end_to_end(name: str, loop: harness.Loop, setup: list) -> tuple[dict, dict]:
    latencies = [r.latency_s for r in loop.results]
    metrics = {
        "setup_s": (statistics.median(scaled for _, scaled in setup), "s"),
        "wall_s": (loop.pass_total("scaled_latency_s"), "s"),
        "cpu_s": (loop.pass_total("scaled_cpu_s"), "s"),
        "peak_rss_mb": (harness.peak_rss_mb(), "MB"),
        "typical_call_ms": (1e3 * statistics.median(loop.per_call().values()), "ms"),
        "heaviest_call_ms": (1e3 * max(loop.per_call().values()), "ms"),
        "evalue_steps_per_s": (loop.steps_per_s(("simulated", "scanned_evalue")), "1/s"),
    }
    details = {
        "fail_ratio": len(loop.failures) / loop.attempted,
        "samples": {"setup_s": len(setup), "passes": loop.passes, "calls": len(latencies)},
        "setup_probes_s": [raw for raw, _ in setup],
        "calls": [[r.call.label, r.latency_s, r.cpu_s, r.host_s] for r in loop.results],
        "unscaled": {"wall_s": loop.pass_total("latency_s"), "cpu_s": loop.pass_total("cpu_s"),
                     "host_snippet_s": percentile([r.host_s for r in loop.results], 50)},
    }
    if name == "detect":  # every call is one detect call: the issue's decision latency
        details["decide_p50_ms"] = _pct([1e3 * x for x in latencies], 50)
        details["decide_p99_ms"] = _pct([1e3 * x for x in latencies], 99)
        details["baseline_steps_per_s"] = loop.steps_per_s(("scanned_baseline",))
    return metrics, details


def per_layer(name, seed, calls, cli, work, seconds, reference, smoke) -> tuple:
    """The traced run: untraced and traced halves, direct layer timings, the
    child-process probe and the seed-contract check."""
    untraced = harness.closed_loop(cli.run_command, calls, seconds / 2, reference=reference)
    tracer = layers.Tracer()
    with tracer.installed():
        traced = harness.closed_loop(tracer.wrap("cli.run_command", cli.run_command), calls,
                                     seconds / 2, reference=reference)
    overhead = traced.pass_total() - untraced.pass_total()
    tracer.write(WORK / "trace" / f"{name}-seed{seed}", overhead)

    metrics, samples = layers.measure(seed, work, smoke)
    size = workloads.SMOKE if smoke else workloads.FULL
    probe = harness.layer_probe(size["cal_long_trials"], size["cal_long_horizon"], seed)
    metrics["simulation.calibrate_rss_delta_mb"] = probe["calibrate_rss_delta_mb"]
    metrics["cli.import_s"] = probe["import_s"]
    metrics["cli.import_scipy_s"] = probe["import_scipy_s"]
    contract_call = workloads.build("sweep-fixed", seed, work / "contract", size)[1]
    repeats = 1 if smoke else SEED_CONTRACT_REPEATS
    same, efficiency, workers = layers.seed_contract(cli.run_command, contract_call, work, repeats)
    metrics["simulation.pool_efficiency"] = efficiency
    samples["simulation.pool_efficiency"] = {"workers": workers, "repeats": repeats}

    counts = untraced.pass_counts()
    metrics["simulation.steps_simulated"] = counts.get("simulated", 0)
    metrics["simulation.censored"] = counts.get("censored", 0)
    metrics["detection.steps_scanned.evalue"] = counts.get("scanned_evalue", 0)
    metrics["detection.steps_scanned.baseline"] = counts.get("scanned_baseline", 0)
    metrics["trace.overhead_s"] = overhead
    failures = untraced.failures + traced.failures
    if not same:
        failures.append(harness.CallResult(contract_call, 0.0, 0.0, False,
                                           "sweep-fixed output differs between 1 and "
                                           f"{workers} workers"))
    attempted = untraced.attempted + traced.attempted + 1
    detail = {"samples": samples, "moves": layers.MOVES, "self_time": tracer.self_times(),
              "spans": len(tracer.spans),
              "wall_s": {"untraced": untraced.pass_total(), "traced": traced.pass_total()},
              "seed_contract_identical": same,
              "failures": [f"{r.call.label}: {r.reason}" for r in failures[:10]]}
    return metrics, detail, attempted, len(failures)


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False,
                 corrupt=None) -> dict:
    """One benchmark run; returns the result object (last line of stdout)."""
    load = os.getloadavg()
    work = WORK / f"{name}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    size = workloads.SMOKE if smoke else workloads.FULL
    calls = workloads.build(name, seed, work, size)
    reference = None
    if seed == workloads.DEFAULT_SEED and not smoke:
        reference = workloads.load_reference().get(name, {})
    setup = [] if trace else [harness.setup_probe() for _ in range(1 if smoke else SETUP_PROBES)]
    cli = _import_ewm_cli()
    harness.run_pass(cli.run_command, calls)  # warm-up, untimed and uncounted

    if trace:
        values, detail, attempted, failed = per_layer(name, seed, calls, cli, work, seconds,
                                                      reference, smoke)
        units = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    else:
        min_calls = DETECT_MIN_CALLS if name == "detect" and not smoke else 0
        loop = harness.closed_loop(cli.run_command, calls, seconds, min_calls, reference, corrupt)
        values, detail = end_to_end(name, loop, setup)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
        attempted, failed = loop.attempted, len(loop.failures)
        detail["failures"] = [f"{r.call.label}: {r.reason}" for r in loop.failures[:10]]
    detail["provenance"] = harness.provenance(seed, load)
    detail["reference_checked"] = reference is not None
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    out = WORK / "results" / f"{name}-seed{seed}-trace{int(trace)}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"workload": name, **result, "detail": detail}, indent=2) + "\n")
    return {**result, "detail": detail}


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def print_table(name: str, result: dict) -> None:
    detail = result.get("detail", {})
    print(f"# {name}: correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}")
    for key, metric in result["metrics"].items():
        print(f"  {key:<46} {metric['value']:>16.6g} {metric['unit']}")
    for key in ("fail_ratio", "decide_p50_ms", "decide_p99_ms", "baseline_steps_per_s",
                "samples", "failures"):
        if detail.get(key) not in (None, []):
            print(f"  {key}: {json.dumps(detail[key])}")


def run_all(args) -> int:
    """Each workload in a fresh interpreter, one after the other."""
    worst = 0
    for name in workloads.NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(f"# {name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            worst = proc.returncode
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["detail"] = json.loads((WORK / "results" /
                                       f"{name}-seed{args.seed}-trace{args.trace}.json")
                                      .read_text())["detail"]
        print_table(name, result)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.NAMES, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ewm" / "__init__.py").is_file():
        print(f"bench: no ewm sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    args.seconds = args.seconds or float(_spec()["run_seconds"])
    if args.workload == "all":
        return run_all(args)
    start = time.perf_counter()
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_table(args.workload, result)
    print(f"# elapsed {time.perf_counter() - start:.1f}s")
    result.pop("detail")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
