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
Trials are therefore embarrassingly parallel, and results are identical for any worker
count or scheduling order.  Two engines return each seed's stop step (-1 when censored) and
final wealth.  The block engine reads each live trial's next raw 64-bit Philox words (per row,
one key written into a state template of plain Python ints, one state assignment and one
``random_raw``), maps them to log scores through one guide table per vertex (a mark in each
bucket that straddles a CDF entry) and carries the wealth of trials not yet crossed.
``FixedPair`` and ``RoundRobin`` (vertex ``step % m``) read one word per step.  ``RandomPair``
draws its vertex (``integers(m)``) then its uniform: word 3j gives the vertex draws of steps
2j and 2j + 1 from its low then high 32 bits, as Lemire's ``(x * m) >> 32``, and words 3j + 1
and 3j + 2 their uniforms.  A draw numpy rejects, ``(x * m) mod 2**32 < (2**32 - m) mod m``
(never for a power-of-two m) shifts that layout, so a trial whose block holds one reruns stepwise.
``HistoryGreedy`` runs stepwise, one re-keyed Philox drawing 128 uniforms at a time as read
and each window's mean re-summed (oldest first) only once a step touches it, until absorbed:
every vertex played and the last ``window`` steps all on one vertex A, which every later step
then chooses, so the block engine continues it as ``FixedPair(A)`` at word = steps taken, with
its wealth.  Both engines consume each stream exactly as drawing one value at a time would.
``calibrate_null`` reads raw words of a :func:`trial_rng` generator, as ``random`` consumes
them, in bounded sub-blocks; per ``4_000_000 // horizon`` streams: all outcomes, then all
seeds, row-major.  A word ``w`` reads as ``Generator.random``'s ``(w >> 11) * 2**-53``.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_right
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .coupling import _BLOCK_CELLS, _cell_lookup, _vertex_joints
from .coupling import extreme_coupling  # noqa: F401 -- a name the benchmark tracer wraps
from .detection import _check_alpha, _first_crossing
from .errors import BadParamsError
from .evalue import EValueTable, jstar, optimal_evalue
from .simplex import (
    ExtremePair,
    NeighborhoodSpec,
    VocabDistribution,
    _check_inside,
    _check_pair,
    _count,
    _real,
    enumerate_extremes,
)

_MASK64 = (1 << 64) - 1
_ALPHA_STRIDE = 0x9E3779B97F4A7C15  # golden-ratio odd constant
_STEP_CHUNK = 128  # uniforms per draw of the stepwise loop's HistoryGreedy
_TABLE: dict = {}  # the last (spec, FixedPair or None) and its table; a spec hashes by identity


def mix64(x: int) -> int:
    """Splitmix64 finalizer: a fixed 64-bit avalanche permutation, also elementwise on a
    uint64 array, whose products wrap mod 2**64."""
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


def _trial_seeds(base_seed: int, alpha_index: int, lo: int, hi: int) -> list[int]:
    """``[trial_seed(base_seed, alpha_index, t) for t in range(lo, hi)]`` in one uint64 pass."""
    key = (base_seed ^ alpha_index * _ALPHA_STRIDE) & _MASK64
    return mix64(np.arange(lo, hi, dtype=np.uint64) ^ np.uint64(key)).tolist()


def trial_rng(seed: int) -> np.random.Generator:
    """Counter-based generator for one trial, keyed by a count below 2**128; cross-platform."""
    return np.random.Generator(np.random.Philox(key=_count(seed, "seed", 0, 2**128 - 1)))


def _philox_at(bitgen: np.random.Philox, key: int, pos: int = 0, **half) -> dict:
    """Place ``bitgen`` at 64-bit word ``pos`` (mod 2**258) of the Philox stream keyed by ``key``
    (below 2**128), no 32-bit half kept unless ``half`` gives ``has_uint32`` and ``uinteger``;
    return the state assigned, a template of plain Python ints (numpy's setter takes it in well
    under half the time of the arrays ``bit_generator.state`` returns) to re-key in place.  A
    stream read in order stands at word ``4 * counter - 4 + buffer_pos``."""
    state = {"bit_generator": "Philox", "state": {"counter": tuple(
        pos >> shift & _MASK64 for shift in (2, 66, 130, 194)), "key": (key & _MASK64, key >> 64)},
        "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0, **half}
    bitgen.state = state
    if pos % 4:
        bitgen.random_raw(pos % 4)
    return state


# -- adversary policies ---------------------------------------------------------
# Every policy emits vertices of the neighborhood, so each per-step target is
# admissible by construction.


# Play one vertex forever (the worst-case stationary adversary): the vertex is the policy.
FixedPair = ExtremePair


@dataclass(frozen=True)
class RoundRobin:
    """Cycle through all vertices in lexicographic order."""


@dataclass(frozen=True)
class RandomPair:
    """Pick a vertex uniformly at random each step."""


@dataclass(frozen=True)
class HistoryGreedy:
    """Play the vertex whose recent realized log score was smallest.

    Unplayed vertices are tried first in lexicographic order; afterwards the vertex with
    the lowest mean log score over the last ``window`` steps (a count) is chosen, ties
    broken lexicographically.  Once all are played and the window holds one vertex, no
    other has a mean, so that one is played for good (absorbed).  Under the optimal
    score table every vertex drifts at J*, so no choice lowers the drift.
    """

    window: int = 32

    def __post_init__(self):
        object.__setattr__(self, "window", _count(self.window, "greedy window"))


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
    alphas: tuple[float, ...]  # any iterable, read once; kept as the floats _check_alpha gives
    trials: int
    policy: AdversaryPolicy
    horizon_cap: int | None = None  # None: ceil(10 * log(1/alpha) / jstar) per alpha
    base_seed: int = 0  # a count of any sign, kept as a Python int

    def __post_init__(self):
        alphas = tuple(map(_check_alpha, self.alphas)) if np.iterable(self.alphas) else ()
        if not alphas:
            raise BadParamsError(f"need an iterable of at least one alpha, got {self.alphas!r}")
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "base_seed", _count(self.base_seed, "base seed", -math.inf))
        object.__setattr__(self, "trials", _count(self.trials, "trials"))
        if self.horizon_cap is not None:
            object.__setattr__(self, "horizon_cap", _count(self.horizon_cap, "horizon cap"))
        if isinstance(self.policy, FixedPair):
            _check_pair(self.spec, self.policy)


def choose_pair(
    policy: AdversaryPolicy,
    step: int,
    history: list[StepOutcome],
    spec: NeighborhoodSpec,
    rng: np.random.Generator,
) -> ExtremePair:
    """The adversary's vertex for this step."""
    if isinstance(policy, FixedPair):
        return policy
    pairs = enumerate_extremes(spec)
    if isinstance(policy, RoundRobin):
        return pairs[step % len(pairs)]
    if isinstance(policy, RandomPair):
        return pairs[int(rng.integers(len(pairs)))]
    if isinstance(policy, HistoryGreedy):
        greedy = _GreedyWindow(len(pairs), policy.window, {rec.pair_index for rec in history})
        for rec in history[-policy.window:]:
            greedy.push(rec.pair_index, rec.log_e)
        return pairs[greedy.choose()]
    raise BadParamsError(f"unknown policy {policy!r}")


class _GreedyWindow:
    """``HistoryGreedy``'s state and its one rule.  ``recent[i]`` holds vertex i's log scores of
    the last ``window`` steps, oldest first, ``means[i]`` their mean unless i is ``touched``,
    ``order`` those steps' vertices, ``played`` every one played; ``push`` is True once absorbed."""

    def __init__(self, m: int, window: int, played: set[int]):
        self.recent: list[deque[float]] = [deque() for _ in range(m)]
        self.means, self.touched = [math.inf] * m, set()
        self.order: deque[int] = deque()
        self.window, self.played = window, played

    def push(self, idx: int, log_e: float) -> bool:
        if len(self.order) == self.window:
            self.touched.add(old := self.order.popleft())
            self.recent[old].popleft()
        self.order.append(idx)
        self.recent[idx].append(log_e)
        self.touched.add(idx)
        self.played.add(idx)
        return len(self.recent[idx]) == self.window and len(self.played) == len(self.recent)

    def choose(self) -> int:
        """The first unplayed vertex, else the first with the lowest mean recent log score,
        summed oldest first; a vertex outside the window counts as +inf.  Only the windows
        touched since the last call are re-summed: the others hold the same scores."""
        if len(self.played) < len(self.recent):
            return next(i for i in range(len(self.recent)) if i not in self.played)
        for idx in self.touched:
            scores = self.recent[idx]
            self.means[idx] = sum(scores) / len(scores) if scores else math.inf
        self.touched.clear()
        return self.means.index(min(self.means))


def default_horizon(spec: NeighborhoodSpec, alpha: float, factor: float = 10.0) -> int:
    """``ceil(factor * log(1/alpha) / J*)``, a :func:`_real` factor > 0; 10 keeps censoring rare."""
    alpha, factor = _check_alpha(alpha), _real(factor, "factor")
    if not factor > 0.0:
        raise BadParamsError(f"factor must be > 0, got {factor!r}")
    nats, rate = math.log(1.0 / alpha), jstar(spec)
    if math.isfinite(steps := factor * nats / rate):
        return math.ceil(steps)
    if math.isfinite(10.0 * nats / rate):  # the default factor fits: this one overflows
        raise BadParamsError(f"factor = {factor!r} overflows the horizon at J* = {rate!r}")
    raise BadParamsError(f"J* = {rate!r} is too small for a default horizon; give one")


def _vertex_table(spec: NeighborhoodSpec, pair: ExtremePair | None = None) -> tuple:
    """``pair``'s, else every vertex's (lexicographic) :func:`_cell_lookup`, flat log scores
    and CDFs less their last entry (a uniform past the rest lands in the last cell, as the
    lookup's does) as lists, and J*; the last key's is kept, so a sweep builds one per process."""
    if (key := (spec, pair)) not in _TABLE:
        pairs = [pair] if pair is not None else enumerate_extremes(spec)
        cdfs = np.cumsum(_vertex_joints(spec, pairs).reshape(len(pairs), -1), axis=1)
        log_flat = optimal_evalue(spec).log_scores.ravel()
        _TABLE.clear()
        _TABLE[key] = (_cell_lookup(cdfs, log_flat), log_flat.tolist(), cdfs[:, :-1].tolist(),
                       jstar(spec))
    return _TABLE[key]


def _run_stepwise(
    spec: NeighborhoodSpec, policy: AdversaryPolicy, alpha: float, cap: int, seeds: list[int]
) -> tuple[np.ndarray, np.ndarray, list[tuple[int, int, int]]]:
    """The stepwise loop, one scalar step at a time, for ``HistoryGreedy`` and rejecting
    ``RandomPair`` trials: stop steps (-1 when censored or absorbed) and wealth, one per seed,
    and ``(row, steps, vertex)`` of each greedy trial absorbed first, for :func:`_run_blocks`."""
    _, log_flat, cdfs, _ = _vertex_table(spec)
    m, threshold = len(cdfs), math.log(1.0 / alpha)
    stops, wealth, absorbed = np.full(len(seeds), -1, dtype=np.int64), np.empty(len(seeds)), []
    rng = np.random.Generator(bitgen := np.random.Philox(key=0))
    state = _philox_at(bitgen, 0)  # re-keyed for every trial
    for t, seed in enumerate(seeds):
        state["state"]["key"] = seed, 0  # word 0 of the trial's stream; seeds are 64-bit
        bitgen.state = state
        greedy = isinstance(policy, HistoryGreedy) and _GreedyWindow(m, policy.window, set())
        if greedy:
            indices = iter(greedy.choose, None)  # uniforms are drawn in chunks as read
            uniforms = (u for lo in range(0, cap, _STEP_CHUNK)
                        for u in rng.random(min(_STEP_CHUNK, cap - lo)).tolist())
        elif isinstance(policy, RandomPair):  # the vertex, then the uniform, each step
            indices = iter(lambda: int(rng.integers(m)), None)
            uniforms = iter(rng.random, None)
        else:
            raise BadParamsError(f"unknown policy {policy!r}")
        total = 0.0
        for step, idx, u in zip(range(1, cap + 1), indices, uniforms):  # vertex, then uniform
            log_e = log_flat[bisect_right(cdfs[idx], u)]
            total += log_e
            if total >= threshold:
                stops[t] = step
                break
            if greedy and greedy.push(idx, log_e):
                absorbed.append((t, step, idx))
                break
        wealth[t] = total
    return stops, wealth, absorbed


def _random_steps(raw: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``RandomPair``'s vertices and uniform words from rows of raw words, three per two steps
    (the layout of the module docstring), and the rows holding a draw numpy rejects."""
    words = raw.reshape(len(raw), -1, 3)
    x = np.stack((words[..., 0] & np.uint64(2**32 - 1), words[..., 0] >> np.uint64(32)), -1)
    x *= np.uint64(m)  # below 2**64: m = n * (n - 1) < 2**32 for any table that fits
    rejected = ((x & np.uint64(2**32 - 1)) < (2**32 - m) % m).any(axis=(1, 2))
    vertex = (x >> np.uint64(32)).astype(np.intp).reshape(len(raw), -1)
    return vertex, words[..., 1:].reshape(len(raw), -1), rejected


def _run_blocks(
    spec: NeighborhoodSpec, policy: AdversaryPolicy, alpha: float, cap: int, seeds: list[int],
    start=0, carry=0.0, vertex=None,
) -> tuple[np.ndarray, np.ndarray]:
    """The block engine: stop steps (-1 when censored) and final wealth, one per seed, of
    ``FixedPair``, ``RoundRobin``, ``RandomPair`` or, given ``vertex``, absorbed ``HistoryGreedy``
    trials ``start`` steps in with wealth ``carry`` (arrays, one per row) that play that vertex
    (an :func:`enumerate_extremes` index) to ``cap``.  A block is one chunk per row, about
    1.25 expected stops in whole Philox blocks and at most ``_BLOCK_CELLS`` steps."""
    if vertex is None and not isinstance(policy, (FixedPair, RoundRobin, RandomPair)):
        raise BadParamsError(f"unknown policy {policy!r}")
    lookup, _, cdfs, rate = _vertex_table(spec, policy if isinstance(policy, FixedPair) else None)
    m, random, threshold = len(cdfs), isinstance(policy, RandomPair), math.log(1.0 / alpha)
    expected = min(1.25 * threshold / rate, _BLOCK_CELLS)  # inf for a subnormal J*
    chunk = min(_BLOCK_CELLS, 4 * max(16, (int(expected) + 19) // 4))
    state = _philox_at(bitgen := np.random.Philox(key=0), 0)  # re-keyed for every row
    raw, placed, rekey, keys = bitgen.random_raw, None, state["state"], [(s, 0) for s in seeds]

    stops, wealth, redo = np.full(len(seeds), -1, dtype=np.int64), np.zeros(len(seeds)) + carry, []
    start = np.zeros(len(seeds), dtype=np.int64) + start  # per row
    horizon = min(cap, 2**62) - start  # per row, in int64; no trial runs 2**62 steps
    rows = max(1, _BLOCK_CELLS // min(chunk, cap))
    for lo in range(0, len(seeds), rows):
        live, steps = lo + np.flatnonzero(horizon[lo:lo + rows] > 0), 0
        while live.size:  # trials not yet crossed or censored
            left = horizon[live] - steps  # steps to each row's horizon
            k = min(chunk, int(left.max()))
            # RandomPair reads whole word triples: k rounded up to even, and steps is even
            width, at = (3 * ((k + 1) // 2), 3 * steps // 2) if random else (k, steps)
            block = []
            for t, pos in zip(live.tolist(), (start[live] + at).tolist()):
                if pos != placed:  # rows share a word unless absorbed greedy trials differ
                    rekey["counter"], skip = ((placed := pos) >> 2, 0, 0, 0), pos % 4  # < 2**63
                rekey["key"] = keys[t]
                bitgen.state = state
                block.append(raw(width + skip)[skip:] if skip else raw(width))
            words = np.concatenate(block).reshape(live.size, width)
            if random:
                pick, words, rejected = _random_steps(words, m)
                redo += live[rejected].tolist()  # re-run stepwise at the end
                live, left, pick, words = (live[~rejected], left[~rejected], pick[~rejected, :k],
                                           words[~rejected, :k])
            else:
                pick = (vertex[live, np.newaxis] if vertex is not None  # one vertex per row
                        else np.arange(steps, steps + k) % m if m > 1 else None)
            hit, cum = _first_crossing(lookup(words, pick), threshold, wealth[live])
            crossed = (hit >= 0) & (hit < left)  # a crossing past the horizon is censored
            last = np.where(crossed, hit, np.minimum(left, k) - 1)  # each row's last step read
            wealth[live] = cum.ravel()[np.arange(0, cum.size, k) + last]
            done = live[crossed]
            stops[done] = start[done] + hit[crossed] + (steps + 1)
            live = live[~crossed & (left > k)]
            steps += k
    if redo:
        stops[redo], wealth[redo] = _run_stepwise(spec, policy, alpha, cap,
                                                  [seeds[t] for t in redo])[:2]
    return stops, wealth


def _cap(config: ExperimentConfig, alpha: float) -> int:
    """Every trial's horizon at ``alpha``."""
    return config.horizon_cap or default_horizon(config.spec, alpha)


def _run_trials(
    config: ExperimentConfig, alpha: float, cap: int, seeds: list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """The one policy dispatch: ``HistoryGreedy``, which reads its history, runs stepwise
    until its window holds one vertex, then in blocks like every other policy."""
    spec, policy = config.spec, config.policy
    if not isinstance(policy, HistoryGreedy):
        return _run_blocks(spec, policy, alpha, cap, seeds)
    stops, wealth, absorbed = _run_stepwise(spec, policy, alpha, cap, seeds)
    rows, start, vertex = np.array(absorbed, dtype=np.int64).reshape(-1, 3).T
    stops[rows], wealth[rows] = _run_blocks(spec, policy, alpha, cap, [seeds[t] for t in rows],
                                            start, wealth[rows], vertex)
    return stops, wealth


def run_trial(
    config: ExperimentConfig, alpha: float, alpha_index: int, trial_index: int
) -> TrialRecord:
    """Simulate one detection run with its deterministically derived seed."""
    alpha = _check_alpha(alpha)
    seed = trial_seed(config.base_seed, alpha_index, trial_index)
    cap = _cap(config, alpha)
    stops, wealth = _run_trials(config, alpha, cap, [seed])
    stop = int(stops[0]) if stops[0] > 0 else None
    return TrialRecord(stop_step=stop, final_wealth=float(wealth[0]), steps_run=stop or cap,
                       seed=seed)


def _sweep_task(args) -> np.ndarray:
    """One (alpha, horizon, trial-range) work unit; returns stop steps, -1 = censored."""
    config, alpha, cap, alpha_index, lo, hi = args
    return _run_trials(config, alpha, cap, _trial_seeds(config.base_seed, alpha_index, lo, hi))[0]


def estimate_stopping(config: ExperimentConfig, threads: int = 1) -> list[SweepRow]:
    """Monte Carlo stopping-time table, one row per alpha.

    Censored trials are counted at the horizon cap and reported in
    ``censored_count``.  The ratio column ``mean_tau / log(1/alpha)``
    converges to ``1 / jstar`` as alpha tends to zero.  ``threads`` (a count) worker
    processes run, at most one per CPU; the rows never depend on the worker count.
    Each row is reduced as its work units arrive, so one alpha's trials are held.
    """
    workers = min(_count(threads, "threads"), os.cpu_count() or 1)
    step = math.ceil(config.trials / workers)
    caps, tasks = [_cap(config, alpha) for alpha in config.alphas], []
    for ai, (alpha, cap) in enumerate(zip(config.alphas, caps)):
        for lo in range(0, config.trials, step):
            tasks.append((config, alpha, cap, ai, lo, min(lo + step, config.trials)))
    pool = ProcessPoolExecutor(max_workers=min(workers, len(tasks))) if workers > 1 else None
    with pool or nullcontext():
        outputs = (pool.map if pool else map)(_sweep_task, tasks)  # in task order
        rows, units = [], len(tasks) // len(config.alphas)
        for alpha, cap in zip(config.alphas, caps):
            taus = np.concatenate(list(islice(outputs, units)))
            censored = int(np.sum(taus < 0))
            filled = np.where(taus < 0, float(cap), taus)
            log_inv = math.log(1.0 / alpha)
            mean = float(filled.mean())
            std_err = float(filled.std(ddof=1) / math.sqrt(filled.size)) if filled.size > 1 else 0.0
            rows.append(SweepRow(alpha=alpha, log_inv_alpha=log_inv, mean_tau=mean,
                                 std_err=std_err, ratio=mean / log_inv, censored_count=censored))
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
    the returned rate must stay at or below alpha up to Monte Carlo noise.  ``trials`` and
    ``horizon`` are counts; ``rng`` is a Philox generator (:func:`trial_rng`), left just past the
    draws: per block of ``4_000_000 // horizon`` streams (at least one), all
    outcomes, then all seeds, row-major, read in bounded ``_BLOCK_CELLS`` sub-blocks.
    """
    alpha = _check_alpha(alpha)
    trials, horizon = _count(trials, "trials"), _count(horizon, "horizon")
    _check_inside(spec, q_null)
    if not isinstance(bitgen := rng.bit_generator, np.random.Philox):
        raise BadParamsError(f"calibrate_null takes a Philox generator, got {type(bitgen).__name__}")
    log_flat = (e if e is not None else optimal_evalue(spec)).log_scores.ravel()
    threshold = math.log(1.0 / alpha)
    row = _cell_lookup(np.cumsum(q_null.weights)[np.newaxis], np.arange(spec.n) * spec.n)
    col = _cell_lookup(np.cumsum(spec.anchor.weights)[np.newaxis], np.arange(spec.n))
    now, seeds = bitgen.state, np.random.Philox(key=0)  # the caller's, of numpy arrays
    key, ctr = (int.from_bytes(now["state"][f].astype("<u8"), "little") for f in ("key", "counter"))
    half, pos = {f: now[f] for f in ("has_uint32", "uinteger")}, 4 * ctr + now["buffer_pos"] - 4
    block, hits = max(1, 4_000_000 // horizon), 0
    rows, width = max(1, _BLOCK_CELLS // horizon), min(horizon, _BLOCK_CELLS)
    for lo in range(0, trials, block):
        b = min(block, trials - lo)
        _philox_at(bitgen, key, pos)
        _philox_at(seeds, key, pos + b * horizon)
        pos += 2 * b * horizon
        for r in range(0, b, rows):
            wealth, crossed = 0.0, False
            for c in range(0, horizon, width):
                cell = row(bitgen.random_raw((min(rows, b - r), min(width, horizon - c))))
                cell += col(seeds.random_raw(cell.shape))
                hit, cum = _first_crossing(log_flat[cell], threshold, wealth)
                wealth, crossed = cum[:, -1], crossed | (hit >= 0)
            hits += int(np.count_nonzero(crossed))
    _philox_at(bitgen, key, pos, **half)  # the caller's kept 32-bit half, as found
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
