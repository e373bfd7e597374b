"""Anytime-valid sequential detection.

The detector accumulates wealth ``W_n = sum_t log e(v_t, s_t)`` and rejects at
the first step where ``W_n >= log(1/alpha)``.  Because the running product of
valid one-step scores is a nonnegative supermartingale under every admissible
null, the time-uniform (Ville) bound makes this stopping rule valid at level
``alpha`` no matter when or whether monitoring stops.  Wealth is kept in log
space only; the raw product would overflow within a few hundred steps.

A match-count baseline is included for comparisons: it counts steps with
``v == s``, computes an exact binomial upper tail against the worst-case null
match probability, and rejects on the schedule ``alpha / (k (k+1))`` whose sum
telescopes to ``alpha``, preserving anytime validity for p-value tests.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import (
    AlreadyStoppedError,
    BadAlphaError,
    BadParamsError,
    EmptyStreamError,
    FormatError,
    IndexOutOfRangeError,
)
from .evalue import EValueTable
from .simplex import NeighborhoodSpec


@dataclass(frozen=True)
class DetectorState:
    """Wealth-process detector; a single-writer value updated functionally."""

    wealth: float
    steps: int
    alpha: float
    rejected_at: int | None = None

    @property
    def threshold(self) -> float:
        return math.log(1.0 / self.alpha)

    @property
    def running(self) -> bool:
        return self.rejected_at is None


@dataclass(frozen=True)
class BaselineState:
    """Match-count baseline with Bonferroni-style rejection schedule."""

    matches: int
    steps: int
    alpha: float
    null_match_prob: float
    rejected_at: int | None = None

    @property
    def running(self) -> bool:
        return self.rejected_at is None


@dataclass(frozen=True)
class DetectionReport:
    decision: str  # "rejected" or "undecided"
    stop_step: int | None
    wealth: float
    threshold: float
    steps: int


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not (0.0 < alpha < 1.0):
        raise BadAlphaError(f"alpha must lie in (0, 1), got {alpha!r}")
    return alpha


def init_detector(e: EValueTable, alpha: float) -> DetectorState:
    """Fresh state: zero wealth, zero steps, running."""
    del e  # the table travels alongside the state; nothing to precompute
    return DetectorState(wealth=0.0, steps=0, alpha=_check_alpha(alpha))


def observe(state: DetectorState, e: EValueTable, v: int, s: int) -> DetectorState:
    """Fold one (outcome, seed) pair into the wealth process."""
    if not state.running:
        raise AlreadyStoppedError(f"detector rejected at step {state.rejected_at}")
    if not (0 <= v < e.n and 0 <= s < e.n):
        raise IndexOutOfRangeError(f"pair ({v}, {s}) out of range for n={e.n}")
    wealth = state.wealth + float(e.log_scores[v, s])
    steps = state.steps + 1
    rejected_at = steps if wealth >= state.threshold else None
    return replace(state, wealth=wealth, steps=steps, rejected_at=rejected_at)


def worst_null_match_prob(spec: NeighborhoodSpec) -> float:
    """Largest P(v == s) over all nulls in the neighborhood.

    ``sum_v q(v) p0(v)`` is linear in q; its supremum over the ball moves
    ``delta/2`` of mass onto the anchor's argmax from its argmin.
    """
    p0 = spec.anchor.weights
    return float(p0 @ p0 + spec.delta / 2.0 * (p0.max() - p0.min()))


def init_baseline(alpha: float, null_match_prob: float) -> BaselineState:
    pbar = float(null_match_prob)
    if not (0.0 < pbar <= 1.0):
        raise BadParamsError(f"null match probability must lie in (0, 1], got {pbar!r}")
    return BaselineState(matches=0, steps=0, alpha=_check_alpha(alpha), null_match_prob=pbar)


def _binom_sf(x, k, p):
    """Exact binomial upper tail; scipy is imported on first use, so the package
    and its CLI import without it."""
    from scipy.stats import binom

    return binom.sf(x, k, p)


def baseline_observe(state: BaselineState, v: int, s: int) -> BaselineState:
    """Exact binomial upper tail on the match count vs the rejection schedule."""
    if not state.running:
        raise AlreadyStoppedError(f"baseline rejected at step {state.rejected_at}")
    matches = state.matches + (1 if v == s else 0)
    k = state.steps + 1
    p_k = float(_binom_sf(matches - 1, k, state.null_match_prob))
    rejected_at = k if p_k < state.alpha / (k * (k + 1)) else None
    return replace(state, matches=matches, steps=k, rejected_at=rejected_at)


def _first_crossing(inc: np.ndarray, boundary, carry=0.0) -> tuple[np.ndarray, np.ndarray]:
    """First column per row of ``inc`` (per-step increments, overwritten by
    their running sums) whose sum meets ``boundary``, -1 where none does, and
    the sums.  ``carry`` is folded into the first column, so the left-to-right
    ``cumsum`` rounds exactly like a stepwise fold continued from it."""
    inc[:, 0] += carry
    cum = np.cumsum(inc, axis=1, out=inc)
    met = cum >= boundary
    first = met.argmax(axis=1)
    first[~met[np.arange(met.shape[0]), first]] = -1
    return first, cum


def _batch_detect(stream, budget, n, increments, boundary, threshold=math.nan) -> DetectionReport:
    """The one body of both batch detectors: the first crossing of
    ``increments(v, s, done)`` (a block's per-step statistics after ``done``
    steps) over ``boundary`` within ``budget`` pairs.  Blocks start at 128
    pairs and double, so the work tracks the stopping step rather than the
    stream length.  A pair outside ``range(n)`` raises when it falls at or
    before the stopping step, as in a stepwise fold.  A NaN ``threshold``
    reports NaN wealth."""
    if budget < 1:
        raise BadParamsError(f"budget must be >= 1, got {budget}")
    pairs = list(stream)[:budget]
    if not pairs:
        raise EmptyStreamError("stream holds no observations")
    done, width, total, stop = 0, 128, 0.0, None
    while done < len(pairs):
        try:
            v, s = np.array(pairs[done:done + width], dtype=np.int64).T
        except OverflowError as exc:
            raise IndexOutOfRangeError(f"stream index beyond 64 bits: {exc}") from exc
        bad = np.zeros(v.size, dtype=bool) if n is None else (v < 0) | (v >= n) | (s < 0) | (s >= n)
        size = int(bad.argmax()) if bad.any() else v.size
        if size:
            hit, cum = _first_crossing(increments(v[:size], s[:size], done)[np.newaxis],
                                       boundary, total)
            total = float(cum[0, hit[0]])  # the last column when nothing crossed
            if hit[0] >= 0:
                stop = done + int(hit[0]) + 1
                break
        if size < v.size:
            raise IndexOutOfRangeError(f"pair ({v[size]}, {s[size]}) out of range for n={n}")
        done, width = done + v.size, 2 * width
    wealth = math.nan if math.isnan(threshold) else total
    return DetectionReport("undecided" if stop is None else "rejected", stop, wealth,
                           threshold, stop or done)


def batch_detect(e: EValueTable, alpha: float, stream, budget: int) -> DetectionReport:
    """Fold :func:`observe` over up to ``budget`` pairs, one array pass per block."""
    threshold = init_detector(e, alpha).threshold
    return _batch_detect(stream, budget, e.n, lambda v, s, done: e.log_scores[v, s],
                         threshold, threshold)


def baseline_batch_detect(
    alpha: float, null_match_prob: float, stream, budget: int, n: int | None = None
) -> DetectionReport:
    """Fold :func:`baseline_observe` over up to ``budget`` pairs, with each
    block's tails in one array call; wealth is reported as NaN.  With ``n``,
    symbols outside the vocabulary raise as in :func:`batch_detect`."""
    state = init_baseline(alpha, null_match_prob)
    matches = 0  # carried from block to block

    def below_schedule(v, s, done):  # the running count of such steps crosses 1 at the first
        nonlocal matches
        m = matches + np.cumsum(v == s)
        matches = int(m[-1])
        k = np.arange(done + 1, done + v.size + 1)
        p_k = _binom_sf(m - 1, k, state.null_match_prob)
        return (p_k < state.alpha / (k * (k + 1))).astype(np.float64)

    return _batch_detect(stream, budget, n, below_schedule, 1.0)


# -- JSON wire formats --------------------------------------------------------

def detector_to_json(state: DetectorState) -> str:
    """Strict JSON; a non-finite wealth (after a zero score) has no encoding."""
    if not math.isfinite(state.wealth):
        raise FormatError(f"wealth {state.wealth!r} is not finite")
    return json.dumps(
        {
            "wealth": state.wealth,
            "steps": state.steps,
            "alpha": state.alpha,
            "status": "running" if state.running else "rejected",
            "rejected_at": state.rejected_at,
        },
        allow_nan=False,
    )


def _json_number(value, kind: type):
    """``value`` as ``kind`` if it is a JSON number of that kind (a float field
    also takes an integer); ``int()`` and ``float()`` would also take ``true``
    or ``"3"``, and ``int()`` would truncate 2.7."""
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else int):
        raise TypeError(f"expected a JSON {kind.__name__}, got {value!r}")
    return kind(value)


def detector_from_json(text: str) -> DetectorState:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}") from exc
    try:
        state = DetectorState(
            wealth=_json_number(payload["wealth"], float),
            steps=_json_number(payload["steps"], int),
            alpha=_check_alpha(_json_number(payload["alpha"], float)),
            rejected_at=(None if payload.get("rejected_at") is None
                         else _json_number(payload["rejected_at"], int)),
        )
    except (KeyError, TypeError, OverflowError) as exc:
        raise FormatError(f"malformed detector state: {exc}") from exc
    if not math.isfinite(state.wealth):
        raise FormatError(f"wealth {state.wealth!r} is not finite")
    if state.steps < 0:
        raise FormatError(f"steps must be >= 0, got {state.steps}")
    if state.rejected_at is not None and not 1 <= state.rejected_at <= state.steps:
        raise FormatError(f"rejected_at {state.rejected_at} outside 1..{state.steps}")
    if state.running and state.wealth >= state.threshold:
        raise FormatError(f"wealth {state.wealth!r} meets the threshold but nothing rejected")
    return state


def report_to_dict(report: DetectionReport) -> dict:
    return asdict(report)
