"""The four benchmark workloads: their inputs, their CLI calls and their checks.

A workload is a fixed list of ``ewm`` CLI calls, one *pass*, built from the
benchmark seed before any timing starts.  The harness repeats the pass in a
closed loop (one client, one call at a time).  Every call has a checker that
parses its stdout or ``--out`` bytes and raises :class:`CheckFailed` when a
property the paper guarantees does not hold.  The checkers recompute what
they need from the closed forms in the README (score table, J*, worst null
match probability), never from ``ewm`` itself, so a defect in the package
cannot vouch for its own output.

Why these four: they are the traffic the acceptance criteria and the README
CLI examples generate.  ``sweep-fixed`` is the vectorized fixed-pair fast
path, ``sweep-adaptive`` the stepwise generic path behind the same entry
point, ``detect`` the only path through the stream reader and both
detectors, and ``calibrate-null`` the only bulk path that runs every trial to
its horizon.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.stats import binom

NAMES = ("sweep-fixed", "sweep-adaptive", "detect", "calibrate-null")
DEFAULT_SEED = 0
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

# Sizes of one pass.  SMOKE keeps every check meaningful (the tail-ratio
# check keeps its 500 trials; only the alpha grid is shorter) at a fraction
# of the cost, for the benchmark's own tests.
FULL = {
    "fixed_alphas": "log:1e-2:1e-120:30", "fixed_trials": 500,
    "adaptive_trials": 8, "adaptive_alphas": "1e-120,1e-300",
    "cal_trials": 10_000, "cal_long_trials": 400, "cal_long_horizon": 10_000,
    "wm_streams": 48, "wm_steps": 600, "null_streams": 2, "null_steps": 4000,
}
SMOKE = {
    "fixed_alphas": "log:1e-2:1e-120:3", "fixed_trials": 500,
    "adaptive_trials": 2, "adaptive_alphas": "1e-120",
    "cal_trials": 1000, "cal_long_trials": 40, "cal_long_horizon": 10_000,
    "wm_streams": 3, "wm_steps": 600, "null_streams": 1, "null_steps": 400,
}

FIXED_ANCHORS = (0.2, 0.5, 0.75)
ADAPTIVE_ANCHORS = ([0.5, 0.5], [0.25, 0.25, 0.25, 0.25])
POLICIES = ("roundrobin", "random", "greedy")
SWEEP_DELTA = 0.1
# criterion 9: fair coin, delta 0.3, alpha 0.02, vertex (gain 0, loss 1)
DETECT_ANCHOR, DETECT_DELTA, DETECT_ALPHA = [0.5, 0.5], 0.3, 0.02
CAL_ANCHOR, CAL_DELTA, CAL_ALPHAS = [0.5, 0.5], 0.1, (0.1, 0.05, 0.02)
CAL_LONG_ALPHA, CAL_LONG_NULL = 0.05, [0.55, 0.45]  # the vertex (0, 1) of the ball

SWEEP_HEADER = "alpha,log_inv_alpha,mean_tau,std_err,ratio,censored_count"
CAL_HEADER = "alpha,trials,horizon,false_positives,rate"


class CheckFailed(Exception):
    """An output that breaks a property the benchmark checks."""


@dataclass
class Call:
    """One CLI invocation of a pass and the check of its output.

    ``check`` takes the output text (stdout, or the ``out`` file when the
    call writes one) and returns exact work counts.
    """

    label: str
    argv: list[str]
    check: Callable[[str], dict]
    out: Path | None = None


# -- closed forms (README), independent of ewm ----------------------------------

def closed_jstar(anchor, delta: float) -> float:
    p0 = np.asarray(anchor, dtype=np.float64)
    h = delta / 2.0
    return float(-(p0 * np.log(p0)).sum() + (1 - h) * math.log(1 - h)
                 + h * math.log(h / (p0.size - 1)))


def closed_scores(anchor, delta: float) -> np.ndarray:
    p0 = np.asarray(anchor, dtype=np.float64)
    h = delta / 2.0
    table = np.full((p0.size, p0.size), h / (p0.size - 1))
    np.fill_diagonal(table, 1 - h)
    return table / p0[np.newaxis, :]


def closed_match_prob(anchor, delta: float) -> float:
    p0 = np.asarray(anchor, dtype=np.float64)
    return float(p0 @ p0 + delta / 2.0 * (p0.max() - p0.min()))


def alpha_grid(token: str) -> list[float]:
    if token.startswith("log:"):
        _, start, end, count = token.split(":")
        return list(np.geomspace(float(start), float(end), int(count)))
    return [float(a) for a in token.split(",")]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text()) if REFERENCE_FILE.is_file() else {}


# -- output parsing ---------------------------------------------------------------

def _require(ok: bool, reason: str) -> None:
    if not ok:
        raise CheckFailed(reason)


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def _csv_rows(text: str, header: str) -> list[list[float]]:
    _require(text.endswith("\n") and "\r" not in text, "CSV must end in LF with LF endings")
    lines = text[:-1].split("\n")
    _require(lines[0] == header, f"bad CSV header {lines[0]!r}")
    try:
        return [[float(x) for x in line.split(",")] for line in lines[1:]]
    except ValueError as exc:
        raise CheckFailed(f"non-numeric CSV cell: {exc}") from exc


# -- sweep-tau ----------------------------------------------------------------------

def _sweep_check(anchor, alphas, trials, noise_sigmas):
    """Rows match the alpha grid, nothing is censored and the ratio is at
    least 0.98/J*.  By Wald's identity E[tau] >= log(1/alpha)/J*, so the
    bound fails only by Monte Carlo noise; ``noise_sigmas`` widens it by that
    many standard errors for workloads with few trials per row."""
    floor = 0.98 / closed_jstar(anchor, SWEEP_DELTA)

    def check(text: str) -> dict:
        rows = _csv_rows(text, SWEEP_HEADER)
        _require(len(rows) == len(alphas), f"{len(rows)} rows for {len(alphas)} alphas")
        steps = censored = 0
        for (alpha, log_inv, mean_tau, std_err, ratio, cens), want in zip(rows, alphas):
            _require(_close(alpha, want, 1e-11), f"alpha {alpha!r} != {want!r}")
            _require(_close(log_inv, math.log(1 / want), 1e-11), f"log_inv_alpha {log_inv!r}")
            _require(_close(ratio, mean_tau / log_inv, 1e-10), f"ratio {ratio!r} != mean/log")
            _require(std_err >= 0.0, f"negative std_err {std_err!r}")
            _require(cens == 0, f"{int(cens)} censored trials at alpha={alpha:g}")
            steps += round(mean_tau * trials)
            censored += int(cens)
        tail = rows if noise_sigmas else rows[-1:]
        for alpha, log_inv, _, std_err, ratio, _ in tail:
            slack = noise_sigmas * std_err / log_inv
            _require(ratio + slack >= floor,
                     f"ratio {ratio:.5g} below 0.98/J* = {floor:.5g} at alpha={alpha:g}")
        return {"simulated": steps, "censored": censored}

    return check


def _sweep_calls(size: dict, seed: int, work: Path, adaptive: bool) -> list[Call]:
    calls = []
    if adaptive:
        alphas = alpha_grid(size["adaptive_alphas"])
        for anchor in ADAPTIVE_ANCHORS:
            for policy in POLICIES:
                argv = ["sweep-tau", "--anchor", json.dumps(anchor), "--delta", str(SWEEP_DELTA),
                        "--alphas", size["adaptive_alphas"],
                        "--trials", str(size["adaptive_trials"]),
                        "--seed", str(seed), "--policy", policy, "--threads", "1"]
                calls.append(Call(f"n{len(anchor)}-{policy}", argv,
                                  _sweep_check(anchor, alphas, size["adaptive_trials"], 6.0)))
        return calls
    alphas = alpha_grid(size["fixed_alphas"])
    for p in FIXED_ANCHORS:
        anchor = [p, round(1 - p, 12)]
        out = work / f"tau-p{p}.csv"
        argv = ["sweep-tau", "--anchor", json.dumps(anchor), "--delta", str(SWEEP_DELTA),
                "--alphas", size["fixed_alphas"], "--trials", str(size["fixed_trials"]),
                "--seed", str(seed), "--policy", "fixed:0,1", "--threads", "1", "--out", str(out)]
        calls.append(Call(f"p{p}", argv, _sweep_check(anchor, alphas, size["fixed_trials"], 0.0),
                          out=out))
    return calls


# -- calibrate-null ---------------------------------------------------------------

def _calibration_check(alphas, trials, horizons):
    def check(text: str) -> dict:
        rows = _csv_rows(text, CAL_HEADER)
        _require(len(rows) == len(alphas), f"{len(rows)} rows for {len(alphas)} alphas")
        cells = 0
        for (alpha, n, horizon, fp, rate), want, want_h in zip(rows, alphas, horizons):
            _require(_close(alpha, want, 1e-11), f"alpha {alpha!r} != {want!r}")
            _require(n == trials and horizon == want_h, f"trials/horizon {n:g}/{horizon:g}")
            _require(0 <= fp <= trials and fp == round(rate * trials), f"false positives {fp!r}")
            bound = want + 3.0 * math.sqrt(want * (1 - want) / trials)
            _require(rate <= bound, f"rate {rate:g} above alpha + 3 sigma = {bound:g}")
            cells += int(n) * int(horizon)
        return {"simulated": cells}

    return check


def _calibration_calls(size: dict, seed: int, work: Path) -> list[Call]:
    j = closed_jstar(CAL_ANCHOR, CAL_DELTA)
    horizons = [math.ceil(5.0 * math.log(1.0 / a) / j) for a in CAL_ALPHAS]
    common = ["calibrate-null", "--anchor", json.dumps(CAL_ANCHOR), "--delta", str(CAL_DELTA),
              "--seed", str(seed)]
    readme, long = work / "cal.csv", work / "cal-long.csv"
    n, n_long, h_long = size["cal_trials"], size["cal_long_trials"], size["cal_long_horizon"]
    return [
        Call("readme", common + ["--alphas", ",".join(map(str, CAL_ALPHAS)), "--trials", str(n),
                                 "--out", str(readme)],
             _calibration_check(CAL_ALPHAS, n, horizons), out=readme),
        Call("long-vertex", common + ["--alphas", str(CAL_LONG_ALPHA), "--trials", str(n_long),
                                      "--horizon", str(h_long),
                                      "--q-null", json.dumps(CAL_LONG_NULL), "--out", str(long)],
             _calibration_check((CAL_LONG_ALPHA,), n_long, (h_long,)), out=long),
    ]


# -- detect -----------------------------------------------------------------------

def expected_detection(pairs: np.ndarray) -> dict:
    """Both detectors' reports on one stream, computed with numpy and scipy.

    Wealth is the running sum of log scores; the baseline rejects at the
    first k with binom.sf(matches - 1, k, pbar) < alpha / (k (k + 1))."""
    v, s = pairs[:, 0], pairs[:, 1]
    threshold = math.log(1.0 / DETECT_ALPHA)
    wealth = np.cumsum(np.log(closed_scores(DETECT_ANCHOR, DETECT_DELTA))[v, s])
    hit = np.flatnonzero(wealth >= threshold)
    k = np.arange(1, len(pairs) + 1)
    p_k = binom.sf(np.cumsum(v == s) - 1, k, closed_match_prob(DETECT_ANCHOR, DETECT_DELTA))
    base_hit = np.flatnonzero(p_k < DETECT_ALPHA / (k * (k + 1)))

    def report(hits, wealth_at, thr):
        stop = int(hits[0]) + 1 if hits.size else None
        steps = stop or len(pairs)
        return {"decision": "rejected" if stop else "undecided", "stop_step": stop,
                "wealth": wealth_at(steps), "threshold": thr, "steps": steps}

    return {"evalue": report(hit, lambda n: float(wealth[n - 1]), threshold),
            "baseline": report(base_hit, lambda n: None, None)}


def _detect_check(expected: dict, method: str, watermarked: bool):
    want = expected[method]

    def check(text: str) -> dict:
        try:
            got = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CheckFailed(f"detect output is not JSON: {exc}") from exc
        _require(got.get("method") == method, f"method {got.get('method')!r}")
        if watermarked:
            _require(got.get("decision") == "rejected", f"watermarked stream {got.get('decision')}")
        for key in ("decision", "stop_step", "steps"):
            _require(got.get(key) == want[key], f"{key} {got.get(key)!r} != {want[key]!r}")
        for key in ("wealth", "threshold"):
            if want[key] is None:
                _require(got.get(key) is None, f"{key} {got.get(key)!r} should be null")
            else:
                _require(isinstance(got.get(key), float) and _close(got[key], want[key]),
                         f"{key} {got.get(key)!r} != {want[key]!r}")
        return {f"scanned_{method}": int(got["steps"])}

    return check


def null_stream(rng: np.random.Generator, steps: int) -> np.ndarray:
    """v and s drawn independently from the anchor, redrawn until neither
    detector decides, so a detector scans the whole stream."""
    p0 = np.asarray(DETECT_ANCHOR)
    while True:
        pairs = np.column_stack([rng.choice(p0.size, steps, p=p0) for _ in "vs"])
        if all(r["decision"] == "undecided" for r in expected_detection(pairs).values()):
            return pairs


def write_stream(path: Path, pairs: np.ndarray) -> None:
    rows = "".join(f"{i},{v},{s}\n" for i, (v, s) in enumerate(pairs.tolist()))
    path.write_text("step,v,s\n" + rows)


def _detect_calls(size: dict, seed: int, work: Path) -> list[Call]:
    """Mostly criterion-9 watermarked streams, plus null streams on which
    neither detector decides, so every null call scans to the end.  With 2 of
    50 streams null, null baseline calls are the slowest 2% of calls: the
    median lands on watermarked calls, the 99th percentile on null ones."""
    rng = np.random.default_rng([seed, 3])
    p0 = np.asarray(DETECT_ANCHOR)
    joint = np.diag(p0)
    joint[1, 1] -= DETECT_DELTA / 2  # vertex coupling: delta/2 of mass from (1,1) to (0,1)
    joint[0, 1] += DETECT_DELTA / 2
    cdf = np.cumsum(joint.ravel())
    streams = []
    for i in range(size["wm_streams"]):
        idx = np.minimum(np.searchsorted(cdf, rng.random(size["wm_steps"]), side="right"), 3)
        pairs = np.column_stack(np.divmod(idx, 2))
        streams.append((f"wm{i:02d}", pairs, expected_detection(pairs), True))
    for i in range(size["null_streams"]):
        pairs = null_stream(rng, size["null_steps"])
        streams.append((f"null{i}", pairs, expected_detection(pairs), False))
    calls = []
    for name, pairs, exp, watermarked in streams:
        path = work / f"{name}.csv"
        write_stream(path, pairs)
        for method in ("evalue", "baseline"):
            argv = ["detect", "--anchor", json.dumps(DETECT_ANCHOR), "--delta", str(DETECT_DELTA),
                    "--alpha", str(DETECT_ALPHA), "--method", method, "--stream", str(path)]
            calls.append(Call(f"{name}-{method}", argv, _detect_check(exp, method, watermarked)))
    return calls


def build(name: str, seed: int, work: Path, size: dict = FULL) -> list[Call]:
    """The calls of one pass of workload ``name``; writes its input files to ``work``."""
    work.mkdir(parents=True, exist_ok=True)
    if name == "sweep-fixed":
        return _sweep_calls(size, seed, work, adaptive=False)
    if name == "sweep-adaptive":
        return _sweep_calls(size, seed, work, adaptive=True)
    if name == "detect":
        return _detect_calls(size, seed, work)
    if name == "calibrate-null":
        return _calibration_calls(size, seed, work)
    raise ValueError(f"unknown workload {name!r}")
