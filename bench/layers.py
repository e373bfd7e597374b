"""Per-layer measurements: spans around calls into ewm's modules, and direct
timings of the per-trial and per-step functions on a stated sample of units.

The layers are ewm's modules: ``simulation``, ``coupling``, ``detection``,
``evalue``, ``simplex`` and ``cli``.  ``oracles`` is not measured: no workload
reaches it and no speed claim rests on it.  Every span is recorded from this
file by swapping a module attribute for a timing wrapper; ewm itself is not
edited, and the wrappers return what the wrapped function returns.
"""

from __future__ import annotations

import importlib
import io
import itertools
import json
import os
import statistics
import time
from contextlib import contextmanager, redirect_stdout
from pathlib import Path

import numpy as np

import workloads
from harness import HostSpeed, percentile

# Per-layer metric -> the end-to-end metric and workload it should move.
MOVES = {
    "simulation.trial_rng_us": "wall_s, cpu_s on sweep-fixed; none on sweep-adaptive, detect",
    "simulation.fixed_trial_us": "wall_s, cpu_s on sweep-fixed; none on sweep-adaptive, detect",
    "simulation.fixed_ns_per_step": "wall_s, cpu_s on sweep-fixed; none on sweep-adaptive, detect",
    "simulation.generic_us_per_step.roundrobin": "wall_s on sweep-adaptive",
    "simulation.generic_us_per_step.random": "wall_s on sweep-adaptive",
    "simulation.generic_us_per_step.greedy": "wall_s, heaviest_call_ms on sweep-adaptive",
    "simulation.choose_pair_greedy_us.T1000": "wall_s, heaviest_call_ms on sweep-adaptive",
    "simplex.enumerate_extremes_us.n2": "wall_s on sweep-adaptive",
    "simplex.enumerate_extremes_us.n4": "wall_s on sweep-adaptive",
    "coupling.sample_pair_us": "wall_s on sweep-adaptive",
    "detection.observe_us": "evalue_steps_per_s on detect; wall_s on sweep-adaptive",
    "detection.batch_detect_us_per_step": "evalue_steps_per_s on detect; wall_s on sweep-adaptive",
    "detection.baseline_observe_us": "heaviest_call_ms, wall_s on detect",
    "detection.baseline_batch_detect_us_per_step": "heaviest_call_ms, wall_s on detect",
    "coupling.read_stream_csv_ns_per_row": "typical_call_ms on detect",
    "evalue.optimal_evalue_us": "typical_call_ms on detect",
    "cli.detect_overhead_ms": "typical_call_ms on detect",
    "simulation.calibrate_ns_per_cell": "wall_s, heaviest_call_ms on calibrate-null",
    "simulation.calibrate_rss_delta_mb": "peak_rss_mb on calibrate-null",
    "cli.import_s": "setup_s on every workload",
    "cli.import_scipy_s": "setup_s on every workload",
    "simulation.pool_efficiency": "none gated: the end-to-end sweeps run on one worker",
    "simulation.steps_simulated": "exact count: equal work on both sides of a comparison",
    "simulation.censored": "exact count: equal work on both sides of a comparison",
    "detection.steps_scanned.evalue": "exact count: equal work on both sides of a comparison",
    "detection.steps_scanned.baseline": "exact count: equal work on both sides of a comparison",
    "trace.overhead_s": "none: traced minus untraced wall_s of this workload",
}

# Module attribute -> layer.  Only calls made a bounded number of times per
# CLI call are wrapped; per-step and per-trial functions are timed directly
# by measure() instead, so tracing does not multiply their cost.
TRACED = {
    "ewm.cli": {
        "make_distribution": "simplex", "make_neighborhood": "simplex",
        "jstar": "evalue", "optimal_evalue": "evalue",
        "read_stream_csv": "coupling",
        "batch_detect": "detection", "baseline_batch_detect": "detection",
        "worst_null_match_prob": "detection", "report_to_dict": "detection",
    },
    "ewm.simulation": {
        "estimate_stopping": "simulation", "calibrate_null": "simulation",
        "write_sweep_csv": "simulation", "write_calibration_csv": "simulation",
        "optimal_evalue": "evalue", "jstar": "evalue", "extreme_coupling": "coupling",
    },
}


class Tracer:
    """Spans kept in memory: (id, parent id, call id, name, start ns, end ns).
    Spans under one ``cli.run_command`` share its call id."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._calls = itertools.count()
        self._call = -1

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            span = next(self._ids)
            parent = self._stack[-1] if self._stack else None
            if parent is None:
                self._call = next(self._calls)
            self._stack.append(span)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans.append((span, parent, self._call, name, start, end))

        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for module_name, names in TRACED.items():
                module = importlib.import_module(module_name)
                for attr, layer in names.items():
                    saved.append((module, attr, getattr(module, attr)))
                    setattr(module, attr, self.wrap(f"{layer}.{attr}", saved[-1][2]))
            yield
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)

    def self_times(self) -> dict:
        """Layer -> {"spans", "self_s"}: each span's duration minus the time
        its child spans cover, summed per layer."""
        child_ns: dict = {}
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                child_ns[parent] = child_ns.get(parent, 0) + end - start
        table: dict = {}
        for span, _, _, name, start, end in self.spans:
            row = table.setdefault(name.split(".")[0], {"spans": 0, "self_s": 0.0})
            row["spans"] += 1
            row["self_s"] += (end - start - child_ns.get(span, 0)) / 1e9
        return table

    def write(self, directory: Path, overhead_s: float) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        t0 = min((s[4] for s in self.spans), default=0)
        with open(directory / "spans.jsonl", "w") as fh:
            for span, parent, call, name, start, end in self.spans:
                fh.write(json.dumps({"id": span, "parent": parent, "call": call, "name": name,
                                     "start_ns": start - t0, "end_ns": end - t0}) + "\n")
        table = self.self_times()
        total = sum(row["self_s"] for row in table.values()) or 1.0
        with open(directory / "self_time.csv", "w") as fh:
            fh.write("layer,spans,self_s,share\n")
            for layer, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
                fh.write(f"{layer},{row['spans']},{row['self_s']:.6f},"
                         f"{row['self_s'] / total:.4f}\n")
        (directory / "overhead.json").write_text(json.dumps({"overhead_s": overhead_s}) + "\n")


# -- direct timings -----------------------------------------------------------------

def _per_call_s(host, fn, blocks: int, block: int) -> float:
    """Lower quartile over ``blocks`` of the mean scaled time of ``block``
    back-to-back calls."""
    samples = []
    for _ in range(blocks):
        start = time.perf_counter()
        for _ in range(block):
            fn()
        samples.append(host.scaled_s(start, time.perf_counter()) / block)
    return percentile(samples, 25)


def _timed(host, fn):
    """(seconds, value) of one call; scaled to the host's fast speed if a
    HostSpeed is given."""
    start = time.perf_counter()
    value = fn()
    end = time.perf_counter()
    return (host.scaled_s(start, end) if host else end - start), value


def _spec(ewm, anchor, delta):
    return ewm.make_neighborhood(ewm.make_distribution(anchor), delta)


def measure(seed: int, work: Path, smoke: bool = False) -> tuple[dict, dict]:
    """Direct per-unit timings at the workloads' inputs, scaled to the host's
    fast speed like the end-to-end times.  Returns (metrics, samples): the
    value of each per-layer metric and the units behind it."""
    with HostSpeed() as host:
        return _measure(host, seed, work, smoke)


def _measure(host, seed: int, work: Path, smoke: bool) -> tuple[dict, dict]:
    import ewm
    from ewm import cli, simulation

    scale = 1 if smoke else 10
    size = workloads.SMOKE if smoke else workloads.FULL
    m: dict = {}
    n: dict = {}

    def per_unit(key, fn, blocks, block=1, units=1, factor=1e6):
        """Scaled time per unit, where one call of ``fn`` does ``units`` units."""
        m[key] = factor * _per_call_s(host, fn, blocks, block) / units
        n[key] = blocks * block * units

    def trials(key, configs, per_step_factor):
        """Time run_trial on each (config, alpha, alpha index, trial index)."""
        times, steps = [], 0
        for config, alpha, ai, t in configs:
            dt, rec = _timed(host, lambda: ewm.run_trial(config, alpha, ai, t))
            times.append(dt)
            steps += rec.steps_run
        m[key] = per_step_factor * sum(times) / steps
        n[key] = steps
        return times

    # simulation: per-trial RNG set-up and the fixed-pair fast path (sweep-fixed)
    seeds = [ewm.trial_seed(seed, 0, t) for t in range(100)]
    per_unit("simulation.trial_rng_us", lambda: [ewm.trial_rng(s) for s in seeds],
             blocks=2 * scale, units=len(seeds))
    grid = tuple(workloads.alpha_grid(size["fixed_alphas"]))
    fixed = [ewm.ExperimentConfig(spec=_spec(ewm, [p, 1 - p], workloads.SWEEP_DELTA),
                                  alphas=grid, trials=1, policy=ewm.FixedPair(0, 1),
                                  base_seed=seed) for p in workloads.FIXED_ANCHORS]
    times = trials("simulation.fixed_ns_per_step",
                   [(c, a, ai, t) for c in fixed for ai, a in enumerate(grid)
                    for t in range(max(1, scale // 3))], 1e9)
    m["simulation.fixed_trial_us"] = 1e6 * percentile(times, 50)
    n["simulation.fixed_trial_us"] = len(times)

    # simulation: the stepwise generic path (sweep-adaptive), alpha = 1e-120
    specs = [_spec(ewm, a, workloads.SWEEP_DELTA) for a in workloads.ADAPTIVE_ANCHORS]
    policies = {"roundrobin": ewm.RoundRobin(), "random": ewm.RandomPair(),
                "greedy": ewm.HistoryGreedy()}
    for name, policy in policies.items():
        configs = [ewm.ExperimentConfig(spec=spec, alphas=(1e-120,), trials=1, policy=policy,
                                        base_seed=seed) for spec in specs]
        trials(f"simulation.generic_us_per_step.{name}",
               [(c, 1e-120, 0, t) for c in configs for t in range(max(1, scale // 2))], 1e6)
    spec4 = specs[1]
    logs = np.log(ewm.optimal_evalue(spec4).scores)
    rng = np.random.default_rng([seed, 9])
    history = []
    for step in range(1000):
        v, s = (int(x) for x in rng.integers(4, size=2))
        history.append(simulation.StepOutcome(step % 12, v, s, float(logs[v, s])))
    ewm_rng = ewm.trial_rng(seed)
    per_unit("simulation.choose_pair_greedy_us.T1000",
             lambda: simulation.choose_pair(ewm.HistoryGreedy(), 1000, history, spec4, ewm_rng),
             blocks=2 * scale, block=10)

    # simplex and coupling: per-step helpers of the generic path
    for spec in specs:
        per_unit(f"simplex.enumerate_extremes_us.n{spec.n}",
                 lambda: ewm.enumerate_extremes(spec), blocks=2 * scale, block=100)
    w = ewm.extreme_coupling(specs[0], ewm.ExtremePair(0, 1))
    per_unit("coupling.sample_pair_us", lambda: ewm.sample_pair(w, ewm_rng),
             blocks=2 * scale, block=100)

    # detection, coupling and evalue on a criterion-9 null stream (detect)
    dspec = _spec(ewm, workloads.DETECT_ANCHOR, workloads.DETECT_DELTA)
    e = ewm.optimal_evalue(dspec)
    alpha = workloads.DETECT_ALPHA
    pbar = ewm.worst_null_match_prob(dspec)
    null = workloads.null_stream(np.random.default_rng([seed, 10]), 400 * scale)
    pairs = [(int(v), int(s)) for v, s in null]
    stream_file = work / "layer-null.csv"
    workloads.write_stream(stream_file, null)

    def observe_all():
        state = ewm.init_detector(e, alpha)
        for v, s in pairs:
            state = ewm.observe(state, e, v, s)

    def baseline_observe_200():
        state = ewm.init_baseline(alpha, pbar)
        for v, s in pairs[:200]:
            state = ewm.baseline_observe(state, v, s)

    def read_stream():
        with open(stream_file, newline="") as fh:
            return ewm.read_stream_csv(fh)

    per_unit("detection.observe_us", observe_all, blocks=3, units=len(pairs))
    per_unit("detection.batch_detect_us_per_step",
             lambda: ewm.batch_detect(e, alpha, pairs, len(pairs)), blocks=3, units=len(pairs))
    per_unit("detection.baseline_observe_us", baseline_observe_200, blocks=scale, units=200)
    per_unit("detection.baseline_batch_detect_us_per_step",
             lambda: ewm.baseline_batch_detect(alpha, pbar, pairs, len(pairs)),
             blocks=3, units=len(pairs))
    per_unit("coupling.read_stream_csv_ns_per_row", read_stream, blocks=5, units=len(pairs),
             factor=1e9)
    per_unit("evalue.optimal_evalue_us", lambda: ewm.optimal_evalue(dspec),
             blocks=2 * scale, block=100)
    one_row = work / "layer-one-row.csv"
    workloads.write_stream(one_row, null[:1])
    argv = ["detect", "--anchor", json.dumps(workloads.DETECT_ANCHOR), "--delta",
            str(workloads.DETECT_DELTA), "--alpha", str(alpha), "--stream", str(one_row)]

    def detect_one_row():
        with redirect_stdout(io.StringIO()):
            if cli.run_command(argv) != 0:
                raise RuntimeError("detect on a one-row stream failed")

    per_unit("cli.detect_overhead_ms", detect_one_row, blocks=5 * scale, factor=1e3)

    # simulation: the bulk null calibration kernel (calibrate-null)
    n_trials, horizon = size["cal_long_trials"], size["cal_long_horizon"]
    cspec = _spec(ewm, workloads.CAL_ANCHOR, workloads.CAL_DELTA)
    q_null = ewm.make_distribution(workloads.CAL_LONG_NULL)
    per_unit("simulation.calibrate_ns_per_cell",
             lambda: ewm.calibrate_null(cspec, workloads.CAL_LONG_ALPHA, n_trials, horizon,
                                        q_null, ewm.trial_rng(seed)),
             blocks=3, units=n_trials * horizon, factor=1e9)
    return m, n


def seed_contract(run_command, call, work: Path, repeats: int) -> tuple[bool, float, int]:
    """Run one sweep-fixed call at 1 worker and at nproc workers.  Returns
    (outputs byte-identical, pool efficiency, workers), where efficiency is
    wall(1 worker) / (k * wall(k workers))."""
    workers = os.cpu_count() or 1
    walls: dict = {1: [], workers: []}
    outputs: dict = {}
    i = call.argv.index("--threads")
    for _ in range(repeats):
        for k in walls:
            out = work / f"contract-{k}.csv"
            argv = call.argv[:i] + ["--threads", str(k)] + call.argv[i + 2:]
            argv[argv.index("--out") + 1] = str(out)
            with redirect_stdout(io.StringIO()):
                dt, code = _timed(None, lambda: run_command(argv))
            walls[k].append(dt)
            outputs.setdefault(k, set()).add(out.read_bytes() if code == 0 else b"")
    same = len(outputs[1] | outputs[workers]) == 1 and b"" not in outputs[1]
    eff = statistics.median(walls[1]) / (workers * statistics.median(walls[workers]))
    return same, eff, workers
