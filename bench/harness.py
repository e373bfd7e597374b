"""Closed-loop timing of workload passes, percentiles, probes and provenance."""

from __future__ import annotations

import io
import json
import os
import platform
import resource
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from hostspeed import HOST_NOMINAL_S, HostSpeed
from workloads import CheckFailed, digest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PROBE = Path(__file__).resolve().parent / "probe.py"
MIN_PASSES = 3
HARD_CAP_S = 120.0  # a run stops timing here even if it has not met its sample minimums
TAIL_MIN_BEYOND = 10
def percentile(values, q: float) -> float:
    """The q-th percentile (linear interpolation).  A tail percentile (q > 50)
    needs at least ten samples beyond it, or it is refused with ValueError."""
    if not values:
        raise ValueError("no samples")
    beyond = len(values) * (100.0 - q) / 100.0
    if q > 50.0 and beyond < TAIL_MIN_BEYOND:
        raise ValueError(f"p{q:g} of {len(values)} samples leaves {beyond:g} beyond it; "
                         f"need {TAIL_MIN_BEYOND}")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def cpu_seconds() -> float:
    """User plus system CPU of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """The larger ru_maxrss (KiB on Linux) of this process and its children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


@dataclass
class CallResult:
    call: object
    latency_s: float
    cpu_s: float
    ok: bool = True
    reason: str = ""
    counts: dict = field(default_factory=dict)
    digest: str = ""
    host_s: float = HOST_NOMINAL_S  # HostSpeed.snippet_s() during this call

    @property
    def scaled_latency_s(self) -> float:
        return self.latency_s * HOST_NOMINAL_S / self.host_s

    @property
    def scaled_cpu_s(self) -> float:
        return self.cpu_s * HOST_NOMINAL_S / self.host_s


@dataclass
class Loop:
    """What a closed loop over passes measured.  Times are summarised per call
    of the pass, as that call's lower quartile across the run: the host only
    ever adds delay, so the lower quartile tracks a call's own cost best."""

    results: list = field(default_factory=list)
    passes: int = 0

    @property
    def attempted(self) -> int:
        return len(self.results)

    @property
    def failures(self) -> list:
        return [r for r in self.results if not r.ok]

    def per_call(self, attr: str = "scaled_latency_s") -> dict:
        """Call label -> lower quartile of ``attr`` over the run."""
        by_label: dict = {}
        for r in self.results:
            by_label.setdefault(r.call.label, []).append(getattr(r, attr))
        return {label: percentile(v, 25) for label, v in by_label.items()}

    def pass_total(self, attr: str = "scaled_latency_s") -> float:
        """One pass, as the sum of its calls' lower quartiles."""
        return sum(self.per_call(attr).values())

    def counts(self) -> dict:
        """Call label -> exact work counts of its first checked output."""
        out: dict = {}
        for r in self.results:
            if r.ok:
                out.setdefault(r.call.label, r.counts)
        return out

    def pass_counts(self) -> dict:
        total: dict = {}
        for counts in self.counts().values():
            for key, value in counts.items():
                total[key] = total.get(key, 0) + value
        return total

    def steps_per_s(self, keys) -> float:
        """Steps counted under ``keys`` per second of the calls that make them."""
        latency = self.per_call()
        steps = busy = 0.0
        for label, counts in self.counts().items():
            n = sum(counts.get(k, 0) for k in keys)
            if n:
                steps += n
                busy += latency[label]
        return steps / busy if busy else 0.0


def check_output(result: CallResult, stdout: str, reference: dict | None) -> None:
    """Fill ``result`` from the call's output; a failed check never raises."""
    call = result.call
    try:
        if call.out is not None:
            if stdout:
                raise CheckFailed("stdout must be empty when --out is given")
            text = call.out.read_text()
        else:
            text = stdout
        result.digest = digest(text)
        if reference is not None and reference.get(call.label) != result.digest:
            raise CheckFailed("output bytes differ from the reference digest")
        result.counts = call.check(text)
    except Exception as exc:  # any checker error is a failed call, never an aborted run
        result.ok, result.reason = False, f"{type(exc).__name__}: {exc}"


def run_pass(run_command, calls, reference: dict | None = None, corrupt=None,
             host: HostSpeed | None = None) -> list:
    """Run every call once, then check all outputs; returns CallResults.

    ``corrupt`` (tests only) rewrites captured stdout before it is checked."""
    captured = []
    for call in calls:
        out, err = io.StringIO(), io.StringIO()
        cpu, start = cpu_seconds(), time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = run_command(list(call.argv))
        except Exception as exc:  # a crash inside ewm is a failed call, not a failed run
            code, err = None, io.StringIO(f"{type(exc).__name__}: {exc}")
        end = time.perf_counter()
        captured.append((CallResult(call, end - start, cpu_seconds() - cpu), code,
                         out.getvalue(), err.getvalue(), start, end))
    for result, *_, start, end in captured:
        if host is not None:
            result.host_s = host.snippet_s(start, end)
    results = []
    for result, code, stdout, stderr, *_ in captured:
        if code != 0:
            result.ok, result.reason = False, f"exit {code}: {stderr.strip()[:200]}"
        else:
            check_output(result, corrupt(stdout) if corrupt else stdout, reference)
        results.append(result)
    return results


def closed_loop(run_command, calls, seconds: float, min_calls: int = 0,
                reference: dict | None = None, corrupt=None) -> Loop:
    """Repeat the pass until ``seconds`` have elapsed, at least MIN_PASSES
    passes ran and at least ``min_calls`` calls were made."""
    loop = Loop()
    start = time.perf_counter()
    with HostSpeed() as host:
        while True:
            loop.results.extend(run_pass(run_command, calls, reference, corrupt, host))
            loop.passes += 1
            elapsed = time.perf_counter() - start
            if elapsed >= HARD_CAP_S or (elapsed >= seconds and loop.passes >= MIN_PASSES
                                         and loop.attempted >= min_calls):
                return loop


def setup_probe() -> tuple[float, float]:
    """Seconds from spawning a fresh interpreter until ``ewm.cli`` is imported,
    unscaled and scaled by the host speed the child sampled meanwhile."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, str(PROBE), "setup", str(SRC)],
                          stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline().split()
        elapsed = time.perf_counter() - start
        child.wait(timeout=60)
    if len(line) != 2 or line[0] != "ready" or child.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {child.returncode})")
    return elapsed, elapsed * HOST_NOMINAL_S / float(line[1])


def layer_probe(trials: int, horizon: int, seed: int) -> dict:
    """Import cost (``-X importtime``) and calibrate_null's memory high-water,
    measured in a fresh interpreter so neither is hidden by this process."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", str(PROBE), "layers", str(SRC),
         str(trials), str(horizon), str(seed)],
        capture_output=True, text=True, timeout=120, check=True)
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    scipy_us = 0
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3:
            name = parts[2].strip()
            if name.split(".")[0] == "scipy":
                scipy_us += int(parts[0].split(":")[1])
    report["import_scipy_s"] = scipy_us / 1e6
    return report


def git_state() -> dict:
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        dirty = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, capture_output=True,
                               text=True, timeout=10)
    except OSError:
        return {"revision": None, "dirty": None}
    if rev.returncode != 0:
        return {"revision": None, "dirty": None}  # not a git checkout
    return {"revision": rev.stdout.strip(), "dirty": bool(dirty.stdout.strip())}


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int, load_at_start) -> dict:
    import numpy
    import scipy

    return {
        **git_state(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "loadavg_at_start": list(load_at_start),
        "seed": seed,
    }
