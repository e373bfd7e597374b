"""Anytime-valid sequential detection.

The detector accumulates wealth ``W_n = sum_t log e(v_t, s_t)`` and rejects at
the first step where ``W_n >= log(1/alpha)``.  Because the running product of
valid one-step scores is a nonnegative supermartingale under every admissible
null, the time-uniform (Ville) bound makes this stopping rule valid at level
``alpha`` no matter when or whether monitoring stops, and the batch detectors
read a stream only as far as the block holding the stopping step.  Wealth is
kept in log space only; the raw product would overflow in a few hundred steps.

A match-count baseline is included for comparisons: it counts steps with
``v == s``, computes an exact binomial upper tail against the worst-case null
match probability, and rejects on the schedule ``alpha / (k (k+1))`` whose sum
telescopes to ``alpha``, preserving anytime validity for p-value tests.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass, replace
from itertools import islice

import numpy as np

from .coupling import _StreamRows
from .errors import (
    AlreadyStoppedError,
    BadAlphaError,
    BadParamsError,
    EmptyStreamError,
    FormatError,
    IndexOutOfRangeError,
)
from .evalue import EValueTable
from .simplex import NeighborhoodSpec, _count, _indices, _real


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
    """A :func:`_real` ``alpha`` in (0, 1) with ``1/alpha``, so ``log(1/alpha)``, finite."""
    alpha = _real(alpha, "alpha", BadAlphaError)
    if not (0.0 < alpha < 1.0 and math.isfinite(1.0 / alpha)):
        raise BadAlphaError(f"alpha must lie in (0, 1) with 1/alpha finite, got {alpha!r}")
    return alpha


def init_detector(e: EValueTable, alpha: float) -> DetectorState:
    """Fresh state: zero wealth, zero steps, running."""
    del e  # the table travels alongside the state; nothing to precompute
    return DetectorState(wealth=0.0, steps=0, alpha=_check_alpha(alpha))


def observe(state: DetectorState, e: EValueTable, v: int, s: int) -> DetectorState:
    """Fold one (outcome, seed) pair of vocabulary indices below ``e.n`` into the wealth."""
    if not state.running:
        raise AlreadyStoppedError(f"detector rejected at step {state.rejected_at}")
    v, s = _indices((v, s), e.n, IndexOutOfRangeError)
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
    """Fresh state; alpha and the null match probability are :func:`_real` floats."""
    pbar = _real(null_match_prob, "null match probability")
    if not (0.0 < pbar <= 1.0):
        raise BadParamsError(f"null match probability must lie in (0, 1], got {pbar!r}")
    return BaselineState(matches=0, steps=0, alpha=_check_alpha(alpha), null_match_prob=pbar)


def _binom_sf(x, k, p):
    """Exact binomial upper tail; scipy is imported on first use, so the package
    and its CLI import without it."""
    from scipy.stats import binom

    return binom.sf(x, k, p)


def baseline_observe(state: BaselineState, v: int, s: int) -> BaselineState:
    """Exact binomial upper tail on the match count vs the rejection schedule; ``v``
    and ``s`` are vocabulary indices, of any size, as no ``n`` is at hand."""
    if not state.running:
        raise AlreadyStoppedError(f"baseline rejected at step {state.rejected_at}")
    v, s = _indices((v, s), None, IndexOutOfRangeError)
    matches = state.matches + (1 if v == s else 0)
    k = state.steps + 1
    p_k = float(_binom_sf(matches - 1, k, state.null_match_prob))
    rejected_at = k if p_k < state.alpha / (k * (k + 1)) else None
    return replace(state, matches=matches, steps=k, rejected_at=rejected_at)


def _first_crossing(inc: np.ndarray, boundary, carry=0.0) -> tuple[np.ndarray, np.ndarray]:
    """First column per row of ``inc`` (per-step log scores, overwritten by
    their running sums) whose wealth meets ``boundary``, -1 where none does, and
    the sums.  ``carry`` is folded into the first column, so the left-to-right
    ``cumsum`` rounds exactly like a stepwise fold continued from it."""
    inc[:, 0] += carry
    cum = np.cumsum(inc, axis=1, out=inc)
    met = cum >= boundary
    first = met.argmax(axis=1)
    first[~met[np.arange(met.shape[0]), first]] = -1
    return first, cum


def _blocks(stream, budget, n):
    """``(done, v, s)``: up to ``budget`` pairs of ``stream`` (a count, None: all) in blocks of
    128, 256, ... after ``done``, each read when asked for (a stream file's in one parse).  A pair
    that is not two vocabulary indices below ``n`` (None: of any size) raises once the caller
    reads past the pairs before it, as in a fold; a valid block costs a conversion and a test."""
    left = sys.maxsize if budget is None else min(_count(budget, "budget"), sys.maxsize)
    take = (stream.take if isinstance(stream, _StreamRows)
            else lambda k, pairs=iter(stream): list(islice(pairs, k)))
    done, width = 0, 128
    while len(block := take(min(width, left - done))):
        try:
            a = np.asarray(block)
        except ValueError:  # ragged
            a = np.empty(0)
        if not (a.dtype.kind in "iu" and a.shape[1:] == (2,)
                and a.min() >= 0 and (n is None or a.max() < n)):
            # the scalar rule names the first bad pair; with no n, an index past 64 bits is valid
            good, dtype = [], np.int64 if n is not None else object
            try:
                for pair in block:
                    good.append(_indices(pair, n, IndexOutOfRangeError, 2))
            except IndexOutOfRangeError:
                if good:
                    yield done, *np.array(good, dtype=dtype).T
                raise
            a = np.array(good, dtype=dtype)
        v, s = a.T
        yield done, v, s
        done, width = done + v.size, 2 * width
    if not done:
        raise EmptyStreamError("stream holds no observations")


def batch_detect(e: EValueTable, alpha: float, stream, budget: int | None) -> DetectionReport:
    """Fold :func:`observe` over up to ``budget`` pairs (None: all), one array pass per block."""
    threshold = init_detector(e, alpha).threshold
    wealth, steps = 0.0, 0
    for done, v, s in _blocks(stream, budget, e.n):
        hit, cum = _first_crossing(e.log_scores[v, s][np.newaxis], threshold, wealth)
        wealth = float(cum[0, hit[0]])  # the last column when nothing crossed
        if hit[0] >= 0:
            stop = done + int(hit[0]) + 1
            return DetectionReport("rejected", stop, wealth, threshold, stop)
        steps = done + v.size
    return DetectionReport("undecided", None, wealth, threshold, steps)


def baseline_batch_detect(
    alpha: float, null_match_prob: float, stream, budget: int | None, n: int | None = None
) -> DetectionReport:
    """Fold :func:`baseline_observe` over up to ``budget`` pairs, with each
    block's tails in one array call; wealth is reported as NaN.  Without ``n``,
    only the indices' type and sign are checked, as in :func:`baseline_observe`."""
    state = init_baseline(alpha, null_match_prob)
    matches, steps = 0, 0
    for done, v, s in _blocks(stream, budget, n):
        m = matches + np.cumsum(v == s)
        k = np.arange(done + 1, done + v.size + 1)
        below = _binom_sf(m - 1, k, state.null_match_prob) < state.alpha / (k * (k + 1))
        if below.any():
            stop = done + int(below.argmax()) + 1
            return DetectionReport("rejected", stop, math.nan, math.nan, stop)
        matches, steps = int(m[-1]), done + v.size
    return DetectionReport("undecided", None, math.nan, math.nan, steps)


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


def _parse_json(text: str | bytes):
    """``json.loads(text)``; bad syntax or bytes, a huge int or too deep a nest: FormatError."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"not valid JSON: {exc}") from None


def detector_from_json(text: str) -> DetectorState:
    payload = _parse_json(text)
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
