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
final wealth.  The block engine reads in passes: one ``_read`` call per group of live trials
reads each trial's next chunk of raw 64-bit Philox words, one guide table per vertex (a mark in
each bucket that straddles a CDF entry) maps them to log scores, and the wealth of the trials
not yet crossed or censored is carried, all together, into the next pass.
``FixedPair`` and ``RoundRobin`` (vertex ``step % m``) read one word per step.  ``RandomPair``
draws its vertex (``integers(m)``) then its uniform: word 3j gives the vertex draws of steps
2j and 2j + 1 from its low then high 32 bits, as Lemire's ``(x * m) >> 32``, and words 3j + 1
and 3j + 2 their uniforms.  A draw numpy rejects, ``(x * m) mod 2**32 < (2**32 - m) mod m``
(never for a power-of-two m) shifts that layout, so the block engine hands such a trial to the
stepwise engine: one step loop, placed by ``_read`` at word 0 of each trial's stream, that also
runs ``HistoryGreedy``, 128 uniforms drawn at a time as read, each window's sum a left fold kept up
to date as steps arrive (so the same bits on any Python), until absorbed: every vertex played and
the last ``window`` steps all on one vertex A, which every later step then chooses, so it hands the
trial to the block engine, which continues it as ``FixedPair(A)`` at word = steps taken with its
wealth.  Both engines consume each stream exactly as drawing one value at a time would.
``calibrate_null`` reads, through ``_read``, raw words of a :func:`trial_rng` generator, as
``random`` consumes them; per ``4_000_000 // horizon`` streams: all outcomes, then all seeds,
row-major, each row at its own words in reads sized from the null drift, until it crosses or
no longer can.  A word ``w`` reads as ``Generator.random``'s ``(w >> 11) * 2**-53``.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_right
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import chain, islice, repeat
from operator import add

import numpy as np

from .coupling import _BLOCK_CELLS, _cell_lookup, _vertex_joints
from .coupling import extreme_coupling  # noqa: F401 -- a name the benchmark tracer wraps
from .detection import _check_alpha, _first_crossing
from .errors import BadParamsError
from .evalue import jstar, optimal_evalue
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
_UNIT_TRIALS = 2**16  # trials per sweep work unit at most, so its seed lists stay bounded
_PAIR_CELLS = 256  # cells read and folded (15.5 ns each) in one placement pair (3.4-4.2 us)


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
    """Order-independent per-trial seed derivation; a base seed of any sign, indices >= 0."""
    base_seed = _count(base_seed, "base seed", -math.inf)
    alpha_index = _count(alpha_index, "alpha index", 0)
    trial_index = _count(trial_index, "trial index", 0)
    return mix64(base_seed ^ ((alpha_index * _ALPHA_STRIDE) & _MASK64) ^ trial_index)


def _trial_seeds(base_seed: int, alpha_index: int, lo: int, hi: int) -> list[int]:
    """``[trial_seed(base_seed, alpha_index, t) for t in range(lo, hi)]`` in one uint64 pass."""
    key = (base_seed ^ alpha_index * _ALPHA_STRIDE) & _MASK64
    return mix64(np.arange(lo, hi, dtype=np.uint64) ^ np.uint64(key)).tolist()


def trial_rng(seed: int) -> np.random.Generator:
    """Counter-based generator for one trial, keyed by a count below 2**128; cross-platform."""
    return np.random.Generator(np.random.Philox(key=_count(seed, "seed", 0, 2**128 - 1)))


def _read(bitgen: np.random.Philox, keys, words, width: int, **half) -> np.ndarray:
    """The one reader: row i holds ``width`` raw words from 64-bit word ``words[i]`` (mod 2**258)
    of the Philox stream keyed ``keys[i]``, a pair of 64-bit words.  Each row writes its key, and
    the counter at which a stream read in order stands at that word (as it stands at word
    ``4 * counter - 4 + buffer_pos``), into a state of plain Python ints built once per call
    (numpy's setter takes it in well under half the time of the arrays ``bit_generator.state``
    returns), no 32-bit half kept unless ``half`` gives ``has_uint32`` and ``uinteger``, assigns it
    and reads past ``word % 4`` words; consecutive rows at one word are placed once."""
    state = {"bit_generator": "Philox", "state": (rekey := {}), "buffer": (0, 0, 0, 0),
             "buffer_pos": 4, "has_uint32": 0, "uinteger": 0, **half}
    rows, placed, raw = [], None, bitgen.random_raw
    for key, pos in zip(keys, words):
        if pos != placed:
            rekey["counter"] = (pos >> 2 & _MASK64, pos >> 66 & _MASK64, pos >> 130 & _MASK64,
                                pos >> 194 & _MASK64)
            skip, placed = pos % 4, pos
        rekey["key"] = key
        bitgen.state = state
        rows.append(raw(width + skip)[skip:] if skip else raw(width))
    return (np.concatenate(rows) if len(rows) > 1 else rows[0]).reshape(len(rows), width)


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
        if not isinstance(self.policy, AdversaryPolicy):
            raise BadParamsError(f"unknown policy {self.policy!r}")
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
        greedy, idx = _GreedyWindow(len(pairs), policy.window, {r.pair_index for r in history}), 0
        for rec in history[-policy.window:]:  # the window replayed, with every vertex played
            idx = greedy.push(rec.pair_index, rec.log_e)
        return pairs[history[-1].pair_index if idx is None else idx]  # None: absorbed
    raise BadParamsError(f"unknown policy {policy!r}")


class _GreedyWindow:
    """``HistoryGreedy``'s state and its one rule, one :meth:`push` per step: ``recent[i]`` holds
    vertex i's scores among the last ``window`` steps (``order``), oldest first, ``sums[i]`` their
    left fold from 0.0 (the bits of a full re-sum); the vertices in ``played`` count as played."""

    def __init__(self, m: int, window: int, played=()):
        self.recent: list[deque[float]] = [deque() for _ in range(m)]
        self.sums, self.means, self.order = [0.0] * m, [math.inf] * m, deque()
        self.window, self.unplayed = window, set(range(m)).difference(played)

    def push(self, idx: int, log_e: float) -> int | None:
        """Take a step on vertex ``idx``: the next vertex (the first unplayed, else the first with
        the lowest mean recent log score, +inf outside the window), or None once absorbed."""
        (scores := self.recent[idx]).append(log_e)
        self.sums[idx] += log_e  # an append extends its vertex's fold
        self.order.append(idx)
        if len(self.order) > self.window:  # refold the oldest step's vertex, after any append
            (held := self.recent[old := self.order.popleft()]).popleft()
            self.sums[old] = reduce(add, held, 0.0)
            self.means[old] = self.sums[old] / len(held) if held else math.inf
        self.means[idx] = self.sums[idx] / len(scores)
        self.unplayed.discard(idx)
        if self.unplayed:
            return min(self.unplayed)
        return None if len(scores) == self.window else self.means.index(min(self.means))


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


@lru_cache(maxsize=1)
def _vertex_table(spec: NeighborhoodSpec, pair: ExtremePair | None) -> tuple:
    """``pair``'s, else (None) every vertex's (lexicographic) :func:`_cell_lookup`, count, J* and
    (None only) the step loop's flat log scores and CDFs less their last entry (a uniform past it
    lands in the last cell) as lists; the last call's is kept for a sweep (arguments positional)."""
    joints = _vertex_joints(spec, [pair] if pair is not None else None)
    cdfs = np.cumsum(joints.reshape(len(joints), -1), axis=1)
    log_flat = optimal_evalue(spec).log_scores.ravel()
    lists = (log_flat.tolist(), cdfs[:, :-1].tolist()) if pair is None else None
    return _cell_lookup(cdfs, log_flat), len(cdfs), jstar(spec), lists


def _run_stepwise(
    spec: NeighborhoodSpec, policy: AdversaryPolicy, alpha: float, cap: int, seeds: list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """The one step loop of ``HistoryGreedy`` and rejecting ``RandomPair`` trials: stop steps (-1
    when censored) and final wealth, one per seed.  :func:`_read` places each trial at word 0, each
    step plays the vertex ``push`` gave, and absorbed greedy trials go on in :func:`_run_blocks`."""
    _, m, _, (log_flat, cdfs) = _vertex_table(spec, None)
    threshold, greedy = math.log(1.0 / alpha), isinstance(policy, HistoryGreedy)
    stops, wealth, absorbed = np.full(len(seeds), -1, dtype=np.int64), np.empty(len(seeds)), []
    rng = np.random.Generator(bitgen := np.random.Philox(key=0))  # placed at each trial's word 0
    draw = lambda *_: int(rng.integers(m))  # noqa: E731 -- RandomPair's push: the next vertex
    chunks = iter(lambda: rng.random(_STEP_CHUNK).tolist(), None)  # greedy's uniforms, as read
    for t, seed in enumerate(seeds):
        _read(bitgen, [(seed, 0)], [0], 0)  # seeds are 64-bit
        push, idx = (_GreedyWindow(m, policy.window).push, 0) if greedy else (draw, draw())
        uniforms = chain.from_iterable(chunks) if greedy else iter(rng.random, None)
        total = 0.0
        for step, u in zip(range(1, cap + 1), uniforms):
            log_e = log_flat[bisect_right(cdfs[idx], u)]
            total += log_e
            if total >= threshold:
                stops[t] = step
                break
            if (after := push(idx, log_e)) is None:
                absorbed.append((t, step, idx))
                break
            idx = after
        wealth[t] = total
    rows, start, vertex = np.array(absorbed, dtype=np.int64).reshape(-1, 3).T
    stops[rows], wealth[rows] = _run_blocks(spec, policy, alpha, cap, [seeds[t] for t in rows],
                                            start, wealth[rows], vertex)
    return stops, wealth


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
    (an :func:`enumerate_extremes` index) to ``cap``.  A pass reads one chunk (about 1.25
    expected stops in whole Philox blocks, at most ``_BLOCK_CELLS`` steps) of each live row, in
    blocks of at most ``_BLOCK_CELLS`` cells; the rows left run on together in the next pass."""
    lookup, m, rate, _ = _vertex_table(spec, policy if isinstance(policy, FixedPair) else None)
    random, threshold = isinstance(policy, RandomPair), math.log(1.0 / alpha)
    expected = min(1.25 * threshold / rate, _BLOCK_CELLS)  # inf for a subnormal J*
    chunk = min(_BLOCK_CELLS, 4 * max(16, (int(expected) + 19) // 4))
    bitgen = np.random.Philox(key=0)  # re-keyed for every row
    keys = [(s, 0) for s in seeds]

    stops, wealth, redo = np.full(len(seeds), -1, dtype=np.int64), np.zeros(len(seeds)) + carry, []
    start = np.zeros(len(seeds), dtype=np.int64) + start  # per row
    horizon = min(cap, 2**62) - start  # per row, in int64; no trial runs 2**62 steps
    rows, live, steps = max(1, _BLOCK_CELLS // min(chunk, cap)), np.flatnonzero(horizon > 0), 0
    while live.size:  # a pass: the next k steps of every trial not yet crossed or censored
        k = min(chunk, int(horizon[live].max()) - steps)
        # RandomPair reads whole word triples: k rounded up to even, and steps is even
        width, at = (3 * ((k + 1) // 2), 3 * steps // 2) if random else (k, steps)
        going = []  # the trials that run on into the next pass
        for group in (live[lo:lo + rows] for lo in range(0, live.size, rows)):
            left = horizon[group] - steps  # steps to each row's horizon
            words = _read(bitgen, [keys[t] for t in group.tolist()],
                          (start[group] + at).tolist(), width)  # one word unless greedy rows differ
            if random:
                pick, words, rejected = _random_steps(words, m)
                redo += group[rejected].tolist()  # re-run stepwise at the end
                group, left, pick, words = (group[~rejected], left[~rejected], pick[~rejected, :k],
                                            words[~rejected, :k])
            else:
                pick = (vertex[group, np.newaxis] if vertex is not None  # one vertex per row
                        else np.arange(steps, steps + k) % m if m > 1 else None)
            hit, cum = _first_crossing(lookup(words, pick), threshold, wealth[group])
            crossed = (hit >= 0) & (hit < left)  # a crossing past the horizon is censored
            last = np.where(crossed, hit, np.minimum(left, k) - 1)  # each row's last step read
            wealth[group] = cum.ravel()[np.arange(0, cum.size, k) + last]
            done = group[crossed]
            stops[done] = start[done] + hit[crossed] + (steps + 1)
            going.append(group[~crossed & (left > k)])
        live, steps = np.concatenate(going), steps + k
    if redo:
        stops[redo], wealth[redo] = _run_stepwise(spec, policy, alpha, cap,
                                                  [seeds[t] for t in redo])
    return stops, wealth


def _cap(config: ExperimentConfig, alpha: float) -> int:
    """Every trial's horizon at ``alpha``."""
    return config.horizon_cap or default_horizon(config.spec, alpha)


def _run_trials(
    config: ExperimentConfig, alpha: float, cap: int, seeds: list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """The one policy dispatch: ``HistoryGreedy``, which reads its history, starts in the
    stepwise loop, which hands it to the block engine once absorbed; the rest run in blocks."""
    run = _run_stepwise if isinstance(config.policy, HistoryGreedy) else _run_blocks
    return run(config.spec, config.policy, alpha, cap, seeds)


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
    converges to ``1 / jstar`` as alpha tends to zero.  ``threads`` (a count) worker processes
    run, at most one per CPU; the rows never depend on the worker count.  Each row is reduced as
    its work units (``_UNIT_TRIALS`` trials at most) arrive, so one alpha's stops are held.
    """
    workers = min(_count(threads, "threads"), os.cpu_count() or 1)
    step = min(math.ceil(config.trials / workers), _UNIT_TRIALS)
    caps, tasks = [_cap(config, alpha) for alpha in config.alphas], []
    for ai, (alpha, cap) in enumerate(zip(config.alphas, caps)):
        for lo in range(0, config.trials, step):
            tasks.append((config, alpha, cap, ai, lo, min(lo + step, config.trials)))
    if workers > 1:  # the only user of multiprocessing, which takes long to import
        from concurrent.futures import ProcessPoolExecutor
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


def _may_cross(wealth: np.ndarray, left: int, top: float, threshold: float) -> np.ndarray:
    """Whether each wealth may still meet ``threshold`` in ``left`` steps of log scores at most
    ``top >= 0``.  Rounding is monotone, so no later wealth exceeds the left fold of ``wealth`` and
    ``left`` copies of ``top``, which is within ``2u left S`` of ``wealth + left top`` (u = 2**-53,
    S = |wealth| + left top; (1 + u)**left <= 2).  The test adds ``g S``, g = 16u left <= 1/2, whose
    excess covers its own six roundings (10u S); |wealth| is a factor so that -inf stays -inf."""
    g = 2**-49 * left
    return (wealth * (1.0 + g * np.sign(wealth)) + left * top * (1.0 + g) >= threshold) | (g > 0.5)


def _null_reads(log_flat: np.ndarray, q_null, anchor, alpha: float, horizon: int) -> tuple:
    """:func:`calibrate_null`'s threshold, top log score (at least 0) and steps per equal read."""
    threshold, top, w = math.log(1.0 / alpha), max(float(log_flat.max()), 0.0), horizon
    log_flat, mass = log_flat[(m := np.outer(q_null.weights, anchor.weights).ravel()) > 0], m[m > 0]
    if -math.inf < (d := float(mass @ log_flat)) < top:  # the null drift, else whole rows
        stop = max(1.0, (horizon * top - threshold) / (top - d))  # past it, the drift cannot cross
        want = stop + 4.0 * math.sqrt(stop * (mass @ (log_flat - d) ** 2)) / (top - d)  # + 4 sigma
        w = horizon if horizon - want <= _PAIR_CELLS else math.ceil(want)  # stop early if it pays
    return threshold, top, -(-w // -(-w // _BLOCK_CELLS))  # reads of _BLOCK_CELLS steps at most


def calibrate_null(spec: NeighborhoodSpec, alpha: float, trials: int, horizon: int,
                   q_null: VocabDistribution, rng: np.random.Generator) -> float:
    """Fraction of independent null streams whose wealth ever crosses.

    Outcomes are drawn from ``q_null`` and seeds independently from the anchor, which is exactly
    the null the score table must guard against; the returned rate must stay at or below alpha up
    to Monte Carlo noise.  ``trials`` and ``horizon`` are counts; ``rng`` is a Philox generator
    (:func:`trial_rng`), left just past the draws: per block of ``4_000_000 // horizon`` streams
    (at least one), all outcomes, then all seeds, row-major, each row at its own words in reads
    of :func:`_null_reads` steps, until it crosses or :func:`_may_cross` says it cannot.
    """
    alpha = _check_alpha(alpha)
    trials, horizon = _count(trials, "trials"), _count(horizon, "horizon")
    _check_inside(spec, q_null)
    if not isinstance(bitgen := rng.bit_generator, np.random.Philox):
        raise BadParamsError(f"calibrate_null takes a Philox generator, got {type(bitgen).__name__}")
    log_flat = optimal_evalue(spec).log_scores.ravel()
    threshold, top, chunk = _null_reads(log_flat, q_null, spec.anchor, alpha, horizon)
    row = _cell_lookup(np.cumsum(q_null.weights)[np.newaxis], np.arange(spec.n) * spec.n)
    col = _cell_lookup(np.cumsum(spec.anchor.weights)[np.newaxis], np.arange(spec.n))
    now, reader = bitgen.state, np.random.Philox(key=0)  # the caller's, of numpy arrays
    key, ctr = (int.from_bytes(now["state"][f].astype("<u8"), "little") for f in ("key", "counter"))
    half, pos = {f: now[f] for f in ("has_uint32", "uinteger")}, 4 * ctr + now["buffer_pos"] - 4
    key = key & _MASK64, key >> 64  # a pair, as _read takes keys

    block, hits = max(1, 4_000_000 // horizon), 0
    for lo in range(0, trials if _may_cross(np.zeros(1), horizon, top, threshold)[0] else 0, block):
        b, at = min(block, trials - lo), pos + 2 * lo * horizon  # the block's first word
        for r in range(0, b, rows := _BLOCK_CELLS // chunk):
            live, wealth = np.arange(r, min(r + rows, b)), 0.0
            for c in range(0, horizon, chunk):
                k = min(chunk, horizon - c)
                # whole rows (then all live) in one read, else k words of each live row
                starts, width = ([r], k * live.size) if k == horizon else (live.tolist(), k)
                first = [at + c + t * horizon for t in starts]  # outcomes; seeds b rows on
                cell = row(_read(reader, repeat(key), first, width))
                cell += col(_read(reader, repeat(key), [w + b * horizon for w in first], width))
                hit, cum = _first_crossing(log_flat[cell.reshape(-1, k)], threshold, wealth)
                hits += int(np.count_nonzero(crossed := hit >= 0))
                keep = ~crossed & _may_cross(cum[:, -1], horizon - c - k, top, threshold)
                if not (live := live[keep]).size:
                    break
                wealth = cum[keep, -1]
    _read(bitgen, [key], [pos + 2 * trials * horizon], 0, **half)  # the caller's 32-bit half kept
    return hits / trials


# -- CSV emission ---------------------------------------------------------------

def _write_csv(fh, header: str, rows) -> None:
    """The one table format: ``header``, then rows; floats to 12 significant digits, ints as is."""
    fh.write(f"{header}\n")
    for row in rows:
        fh.write(",".join([format(x, ".12g" if isinstance(x, float) else "") for x in row]) + "\n")


def write_sweep_csv(fh, rows: list[SweepRow]) -> None:
    """Columns: alpha,log_inv_alpha,mean_tau,std_err,ratio,censored_count."""
    header = "alpha,log_inv_alpha,mean_tau,std_err,ratio,censored_count"
    _write_csv(fh, header, [vars(r).values() for r in rows])  # each row's fields, in order


def write_calibration_csv(fh, rows) -> None:
    """Columns: alpha,trials,horizon,false_positives,rate."""
    _write_csv(fh, "alpha,trials,horizon,false_positives,rate", rows)
