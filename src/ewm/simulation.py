"""Adversary/generator process and Monte Carlo stopping-time estimation.

At each step an adversary picks a vertex target inside the neighborhood, the
generator responds with the vertex coupling (its best response under the
optimal score table), a pair (v, s) is drawn from it, and the detector's
wealth advances by ``log e(v, s)``.  The trial stops at the first threshold
crossing or at a horizon cap.

Reproducibility contract
------------------------
Each trial owns an independent counter-based random stream (Philox) keyed by

    trial_seed = mix64( base_seed XOR (alpha_index * 0x9E3779B97F4A7C15)
                                  XOR trial_index )

where ``mix64`` is the splitmix64 finalizer (xor-shift/multiply avalanche).
Trials are therefore embarrassingly parallel, and results are identical for
any worker count or scheduling order.  Two engines run the trials; both take
``(spec, policy, alpha, cap, seeds)`` and return each seed's stop step (-1
when censored) and final wealth.  Fixed-target trials take the vectorized
fast path: one Philox per work unit is re-keyed for each trial by assigning
its state, the trials' chunks are drawn row by row into one matrix, and a
trial that has not crossed carries its wealth into its next chunk.  A guide
table over 4,096 equal buckets of [0, 1) maps each matrix to its cells' log
scores in one pass, with the comparisons of ``searchsorted``, so every uniform
lands in the cell the stepwise loop's ``bisect_right`` gives it.  Every other
trial runs the stepwise loop.  There, ``FixedPair``, ``RoundRobin`` and
``HistoryGreedy`` draw exactly one uniform per step and take them in chunks,
while ``RandomPair`` draws its vertex (``integers``) and then its uniform
(``random``) at every step.  Chunked and one-at-a-time draws coincide, so both
paths consume each trial's stream exactly as a loop drawing one value at a
time would.  ``calibrate_null`` reads a :func:`trial_rng` generator in bounded
sub-blocks; per ``4_000_000 // horizon`` streams: all outcomes, then all seeds, row-major.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_right
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import cycle, repeat

import numpy as np

from .coupling import _BLOCK_CELLS, _cell_lookup, extreme_coupling
from .detection import _check_alpha, _first_crossing
from .errors import BadParamsError
from .evalue import EValueTable, jstar, optimal_evalue
from .simplex import (
    ExtremePair,
    NeighborhoodSpec,
    VocabDistribution,
    _check_inside,
    _check_pair,
    enumerate_extremes,
)

_MASK64 = (1 << 64) - 1
_ALPHA_STRIDE = 0x9E3779B97F4A7C15  # golden-ratio odd constant
_STEP_CHUNK = 1_024  # uniforms per draw of the stepwise loop's one-draw policies


def mix64(x: int) -> int:
    """Splitmix64 finalizer: a fixed 64-bit avalanche permutation."""
    x &= _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


def trial_seed(base_seed: int, alpha_index: int, trial_index: int) -> int:
    """Order-independent per-trial seed derivation."""
    return mix64(base_seed ^ ((alpha_index * _ALPHA_STRIDE) & _MASK64) ^ trial_index)


def trial_rng(seed: int) -> np.random.Generator:
    """Counter-based generator for one trial; deterministic across platforms."""
    return np.random.Generator(np.random.Philox(key=seed))


def _philox_at(gen: np.random.Generator, state: dict, pos: int) -> np.random.Generator:
    """``gen`` placed at 64-bit word ``pos`` (mod 2**258) of the Philox stream keyed by
    ``state``; a stream read in order stands at word ``4 * counter - 4 + buffer_pos``."""
    state["state"]["counter"] = (pos >> 2 & _MASK64, pos >> 66 & _MASK64,
                                 pos >> 130 & _MASK64, pos >> 194 & _MASK64)
    state["buffer_pos"] = 4
    gen.bit_generator.state = state
    if pos % 4:
        gen.bit_generator.random_raw(pos % 4)
    return gen


# -- adversary policies ---------------------------------------------------------
# Every policy emits vertices of the neighborhood, so each per-step target is
# admissible by construction.


@dataclass(frozen=True)
class FixedPair:
    """Play one vertex forever (the worst-case stationary adversary)."""

    gain: int
    loss: int


@dataclass(frozen=True)
class RoundRobin:
    """Cycle through all vertices in lexicographic order."""


@dataclass(frozen=True)
class RandomPair:
    """Pick a vertex uniformly at random each step."""


@dataclass(frozen=True)
class HistoryGreedy:
    """Play the vertex whose recent realized log score was smallest.

    Unplayed vertices are tried first in lexicographic order; afterwards the
    vertex with the lowest mean log score over the last ``window`` steps is
    chosen, ties broken lexicographically.  Under the optimal score table all
    vertices share the same expected log score, so no choice lowers the drift.
    """

    window: int = 32

    def __post_init__(self):
        if self.window < 1:
            raise BadParamsError(f"greedy window must be >= 1, got {self.window}")


AdversaryPolicy = FixedPair | RoundRobin | RandomPair | HistoryGreedy


@dataclass(frozen=True)
class StepOutcome:
    pair_index: int
    v: int
    s: int
    log_e: float


@dataclass(frozen=True)
class TrialRecord:
    """One simulated detection run; ``stop_step`` is None when censored."""

    stop_step: int | None
    final_wealth: float
    steps_run: int
    seed: int


@dataclass(frozen=True)
class SweepRow:
    alpha: float
    log_inv_alpha: float
    mean_tau: float
    std_err: float
    ratio: float
    censored_count: int


@dataclass(frozen=True)
class ExperimentConfig:
    spec: NeighborhoodSpec
    alphas: tuple[float, ...]
    trials: int
    policy: AdversaryPolicy
    horizon_cap: int | None = None  # None: ceil(10 * log(1/alpha) / jstar) per alpha
    base_seed: int = 0

    def __post_init__(self):
        if not self.alphas:
            raise BadParamsError("need at least one alpha")
        for a in self.alphas:
            _check_alpha(a)
        if self.trials < 1:
            raise BadParamsError(f"trials must be >= 1, got {self.trials}")
        if self.horizon_cap is not None and self.horizon_cap < 1:
            raise BadParamsError(f"horizon cap must be >= 1, got {self.horizon_cap}")
        if isinstance(self.policy, FixedPair):
            _check_pair(self.spec, ExtremePair(self.policy.gain, self.policy.loss))


def choose_pair(
    policy: AdversaryPolicy,
    step: int,
    history: list[StepOutcome],
    spec: NeighborhoodSpec,
    rng: np.random.Generator,
) -> ExtremePair:
    """The adversary's vertex for this step."""
    if isinstance(policy, FixedPair):
        return ExtremePair(policy.gain, policy.loss)
    pairs = enumerate_extremes(spec)
    if isinstance(policy, RoundRobin):
        return pairs[step % len(pairs)]
    if isinstance(policy, RandomPair):
        return pairs[int(rng.integers(len(pairs)))]
    if isinstance(policy, HistoryGreedy):
        greedy = _GreedyWindow(len(pairs), policy.window,
                               {rec.pair_index for rec in history})
        for rec in history[-policy.window:]:
            greedy.push(rec.pair_index, rec.log_e)
        return pairs[greedy.choose()]
    raise BadParamsError(f"unknown policy {policy!r}")


class _GreedyWindow:
    """``HistoryGreedy``'s state and its one rule.  ``recent[i]`` holds vertex
    i's log scores within the last ``window`` steps, oldest first, and
    ``order`` the vertices of those steps; ``played`` is every vertex played."""

    def __init__(self, m: int, window: int, played: set[int]):
        self.recent: list[deque[float]] = [deque() for _ in range(m)]
        self.order: deque[int] = deque()
        self.window = window
        self.played = played

    def push(self, idx: int, log_e: float) -> None:
        if len(self.order) == self.window:
            self.recent[self.order.popleft()].popleft()
        self.order.append(idx)
        self.recent[idx].append(log_e)
        self.played.add(idx)

    def choose(self) -> int:
        """The first unplayed vertex, else the first with the lowest mean recent
        log score, summed oldest first; a vertex outside the window counts as
        +inf."""
        if len(self.played) < len(self.recent):
            return next(i for i in range(len(self.recent)) if i not in self.played)
        best_idx, best_mean = 0, math.inf
        for idx, scores in enumerate(self.recent):
            if scores:
                mean = sum(scores) / len(scores)
                if mean < best_mean:
                    best_idx, best_mean = idx, mean
        return best_idx


def default_horizon(spec: NeighborhoodSpec, alpha: float) -> int:
    """Cap generous enough that censoring is negligible under steady drift."""
    return int(math.ceil(10.0 * math.log(1.0 / alpha) / jstar(spec)))


def _uniforms(rng: np.random.Generator, count: int):
    """``count`` uniforms drawn in chunks; the same values as ``count`` calls
    of ``rng.random()``."""
    for lo in range(0, count, _STEP_CHUNK):
        yield from rng.random(min(_STEP_CHUNK, count - lo)).tolist()


def _run_stepwise(
    spec: NeighborhoodSpec, policy: AdversaryPolicy, alpha: float, cap: int, seeds: list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """The stepwise loop, one scalar step at a time, for every policy: stop
    steps (-1 when censored) and final wealth, one per seed.  Each vertex's
    CDF over its coupling's row-major joint (lexicographic vertex order) drops
    its last entry, so a uniform beyond every other entry lands in the last
    cell, exactly like ``searchsorted(side="right")`` clamped to the last cell."""
    log_flat = optimal_evalue(spec).log_scores.ravel().tolist()
    pairs = enumerate_extremes(spec)
    cdfs = [extreme_coupling(spec, pair).cdf[:-1].tolist() for pair in pairs]
    m = len(cdfs)
    threshold = math.log(1.0 / alpha)
    stops = np.full(len(seeds), -1, dtype=np.int64)
    wealth = np.empty(len(seeds))
    for t, seed in enumerate(seeds):
        rng = trial_rng(seed)
        uniforms = _uniforms(rng, cap)  # a generator: nothing is drawn until it is read
        greedy = None
        if isinstance(policy, FixedPair):
            indices = repeat(pairs.index(ExtremePair(policy.gain, policy.loss)))
        elif isinstance(policy, RoundRobin):
            indices = cycle(range(m))
        elif isinstance(policy, HistoryGreedy):
            greedy = _GreedyWindow(m, policy.window, set())
            indices = iter(greedy.choose, None)
        elif isinstance(policy, RandomPair):  # the vertex, then the uniform, each step
            indices = iter(lambda: int(rng.integers(m)), None)
            uniforms = iter(rng.random, None)
        else:
            raise BadParamsError(f"unknown policy {policy!r}")
        total = 0.0
        for step, idx in zip(range(1, cap + 1), indices):
            log_e = log_flat[bisect_right(cdfs[idx], next(uniforms))]
            total += log_e
            if total >= threshold:
                stops[t] = step
                break
            if greedy is not None:
                greedy.push(idx, log_e)
        wealth[t] = total
    return stops, wealth


def _run_fixed(
    spec: NeighborhoodSpec, policy: FixedPair, alpha: float, cap: int, seeds: list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Fast path for a constant coupling: stop steps (-1 when censored) and
    final wealth, one per seed.  Trials run in blocks of one chunk's draws per
    row, rows that have not crossed carry their wealth into the next chunk.
    A chunk is about 1.25 expected stopping times in whole Philox blocks.
    Uniforms map straight to their cells' log scores through one guide-table
    lookup (:func:`~ewm.coupling._cell_lookup`), built once per call."""
    w = extreme_coupling(spec, ExtremePair(policy.gain, policy.loss))
    log_e = _cell_lookup(w.cdf, optimal_evalue(spec).log_scores.ravel())
    threshold = math.log(1.0 / alpha)
    chunk = 4 * max(16, (int(1.25 * threshold / jstar(spec)) + 19) // 4)
    state = (gen := trial_rng(0)).bit_generator.state  # re-keyed for every row

    stops = np.full(len(seeds), -1, dtype=np.int64)
    wealth = np.empty(len(seeds))
    rows = max(1, _BLOCK_CELLS // min(chunk, cap))
    for lo in range(0, len(seeds), rows):
        live = np.arange(lo, min(lo + rows, len(seeds)))  # trials not yet crossed
        steps = 0
        while live.size and steps < cap:
            u = np.empty((live.size, min(chunk, cap - steps)))
            for row, t in zip(u, live):
                state["state"]["key"][0] = seeds[t]
                _philox_at(gen, state, steps).random(out=row)
            hit, cum = _first_crossing(log_e(u), threshold, wealth[live] if steps else 0.0)
            wealth[live] = cum[np.arange(live.size), hit]  # column -1 when nothing crossed
            stops[live[hit >= 0]] = steps + hit[hit >= 0] + 1
            live = live[hit < 0]
            steps += u.shape[1]
    return stops, wealth


def _cap(config: ExperimentConfig, alpha: float) -> int:
    """Every trial's horizon at ``alpha``."""
    return config.horizon_cap or default_horizon(config.spec, alpha)


def _run_trials(
    config: ExperimentConfig, alpha: float, cap: int, seeds: list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """The one policy dispatch, between the fixed-pair fast path and the stepwise loop."""
    run = _run_fixed if isinstance(config.policy, FixedPair) else _run_stepwise
    return run(config.spec, config.policy, alpha, cap, seeds)


def run_trial(
    config: ExperimentConfig, alpha: float, alpha_index: int, trial_index: int
) -> TrialRecord:
    """Simulate one detection run with its deterministically derived seed."""
    _check_alpha(alpha)
    seed = trial_seed(config.base_seed, alpha_index, trial_index)
    cap = _cap(config, alpha)
    stops, wealth = _run_trials(config, alpha, cap, [seed])
    stop = int(stops[0]) if stops[0] > 0 else None
    return TrialRecord(stop_step=stop, final_wealth=float(wealth[0]), steps_run=stop or cap,
                       seed=seed)


def _sweep_task(args) -> tuple[int, int, np.ndarray]:
    """One (alpha, trial-range) work unit; returns stop steps, -1 = censored."""
    config, alpha, alpha_index, lo, hi = args
    seeds = [trial_seed(config.base_seed, alpha_index, t) for t in range(lo, hi)]
    return alpha_index, lo, _run_trials(config, alpha, _cap(config, alpha), seeds)[0]


def estimate_stopping(config: ExperimentConfig, threads: int = 1) -> list[SweepRow]:
    """Monte Carlo stopping-time table, one row per alpha.

    Censored trials are counted at the horizon cap and reported in
    ``censored_count``.  The ratio column ``mean_tau / log(1/alpha)``
    converges to ``1 / jstar`` as alpha tends to zero.  At most one worker
    process runs per CPU; the rows never depend on the worker count.
    """
    if threads < 1:
        raise BadParamsError(f"threads must be >= 1, got {threads}")
    workers = min(threads, os.cpu_count() or 1)
    step = math.ceil(config.trials / workers)
    tasks = []
    for ai, alpha in enumerate(config.alphas):
        for lo in range(0, config.trials, step):
            tasks.append((config, alpha, ai, lo, min(lo + step, config.trials)))
    results = np.empty((len(config.alphas), config.trials), dtype=np.int64)
    if workers == 1:
        outputs = map(_sweep_task, tasks)
    else:
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            outputs = list(pool.map(_sweep_task, tasks))
    for ai, lo, taus in outputs:
        results[ai][lo:lo + taus.size] = taus
    rows = []
    for ai, alpha in enumerate(config.alphas):
        taus = results[ai]
        censored = int(np.sum(taus < 0))
        filled = np.where(taus < 0, _cap(config, alpha), taus).astype(np.float64)
        log_inv = math.log(1.0 / alpha)
        mean = float(filled.mean())
        std_err = float(filled.std(ddof=1) / math.sqrt(filled.size)) if filled.size > 1 else 0.0
        rows.append(
            SweepRow(
                alpha=alpha,
                log_inv_alpha=log_inv,
                mean_tau=mean,
                std_err=std_err,
                ratio=mean / log_inv,
                censored_count=censored,
            )
        )
    return rows


def calibrate_null(
    spec: NeighborhoodSpec,
    alpha: float,
    trials: int,
    horizon: int,
    q_null: VocabDistribution,
    rng: np.random.Generator,
    e: EValueTable | None = None,
) -> float:
    """Fraction of independent null streams whose wealth ever crosses.

    Outcomes are drawn from ``q_null`` and seeds independently from the
    anchor, which is exactly the null the score table must guard against;
    the returned rate must stay at or below alpha up to Monte Carlo noise.
    ``rng`` must be a Philox generator (:func:`trial_rng`), left just past the
    draws: per block of ``4_000_000 // horizon`` streams (at least one), all
    outcomes, then all seeds, row-major, read in bounded ``_BLOCK_CELLS`` sub-blocks.
    """
    _check_alpha(alpha)
    if trials < 1 or horizon < 1:
        raise BadParamsError("trials and horizon must be >= 1")
    _check_inside(spec, q_null)
    if not isinstance(bitgen := rng.bit_generator, np.random.Philox):
        raise BadParamsError(f"calibrate_null takes a Philox generator, got {type(bitgen).__name__}")
    log_flat = (e if e is not None else optimal_evalue(spec)).log_scores.ravel()
    threshold = math.log(1.0 / alpha)
    row = _cell_lookup(np.cumsum(q_null.weights), np.arange(spec.n) * spec.n)
    col = _cell_lookup(np.cumsum(spec.anchor.weights), np.arange(spec.n))
    state, seeds, seed_state = bitgen.state, trial_rng(0), bitgen.state
    pos = 4 * int.from_bytes(state["state"]["counter"].astype("<u8"), "little")
    pos += state["buffer_pos"] - 4
    block, hits = max(1, 4_000_000 // horizon), 0
    rows, width = max(1, _BLOCK_CELLS // horizon), min(horizon, _BLOCK_CELLS)
    for lo in range(0, trials, block):
        b = min(block, trials - lo)
        _philox_at(rng, state, pos)
        _philox_at(seeds, seed_state, pos + b * horizon)
        pos += 2 * b * horizon
        for r in range(0, b, rows):
            wealth, crossed = 0.0, False
            for c in range(0, horizon, width):
                cell = row(rng.random((min(rows, b - r), min(width, horizon - c))))
                cell += col(seeds.random(cell.shape))
                hit, cum = _first_crossing(log_flat[cell], threshold, wealth)
                wealth, crossed = cum[:, -1], crossed | (hit >= 0)
            hits += int(np.count_nonzero(crossed))
    _philox_at(rng, state, pos)
    return hits / trials


# -- CSV emission ---------------------------------------------------------------

def write_sweep_csv(fh, rows: list[SweepRow]) -> None:
    """Columns: alpha,log_inv_alpha,mean_tau,std_err,ratio,censored_count."""
    fh.write("alpha,log_inv_alpha,mean_tau,std_err,ratio,censored_count\n")
    for r in rows:
        fh.write(
            f"{r.alpha:.12g},{r.log_inv_alpha:.12g},{r.mean_tau:.12g},"
            f"{r.std_err:.12g},{r.ratio:.12g},{r.censored_count}\n"
        )


def write_calibration_csv(fh, rows) -> None:
    """Columns: alpha,trials,horizon,false_positives,rate."""
    fh.write("alpha,trials,horizon,false_positives,rate\n")
    for alpha, trials, horizon, fp, rate in rows:
        fh.write(f"{alpha:.12g},{trials},{horizon},{fp},{rate:.12g}\n")
