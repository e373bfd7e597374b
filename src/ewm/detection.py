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
telescopes to ``alpha``, preserving anytime validity for p-value tests.  Both
baseline forms decide each step by one exact rule: a step at or below the null mean
is skipped (its tail is at least 1/2), a numpy bracket on the log tail decides most
others, and a scalar saddle-point tail decides the few the bracket leaves open.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, replace
from itertools import islice

import numpy as np

from .coupling import _BLOCK_CELLS, _StreamRows
from .errors import (
    AlreadyStoppedError,
    BadAlphaError,
    BadParamsError,
    EmptyStreamError,
    FormatError,
    IndexOutOfRangeError,
)
from .evalue import EValueTable
from .simplex import NeighborhoodSpec, _ball_sup, _count, _indices, _real


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


def _check_alpha(alpha: float, error: type[Exception] = BadAlphaError) -> float:
    """A :func:`_real` ``alpha`` in (0, 1) with ``1/alpha``, so ``log(1/alpha)``, finite;
    else ``error``."""
    alpha = _real(alpha, "alpha", error)
    if not (0.0 < alpha < 1.0 and math.isfinite(1.0 / alpha)):
        raise error(f"alpha must lie in (0, 1) with 1/alpha finite, got {alpha!r}")
    return alpha


def init_detector(e: EValueTable, alpha: float) -> DetectorState:
    """Fresh state: zero wealth, zero steps, running."""
    del e  # the table travels alongside the state; nothing to precompute
    return DetectorState(wealth=0.0, steps=0, alpha=_check_alpha(alpha))


def _state_at(wealth: float, steps: int, alpha: float) -> DetectorState:
    """The one stop rule: a state rejected at ``steps`` iff its ``wealth`` meets the threshold."""
    state = DetectorState(wealth, steps, alpha)
    return replace(state, rejected_at=steps) if wealth >= state.threshold else state


def observe(state: DetectorState, e: EValueTable, v: int, s: int) -> DetectorState:
    """Fold one (outcome, seed) pair of vocabulary indices below ``e.n`` into the wealth."""
    if not state.running:
        raise AlreadyStoppedError(f"detector rejected at step {state.rejected_at}")
    v, s = _indices((v, s), e.n, IndexOutOfRangeError)
    return _state_at(state.wealth + float(e.log_scores[v, s]), state.steps + 1, state.alpha)


def worst_null_match_prob(spec: NeighborhoodSpec) -> float:
    """Largest P(v == s) over all nulls in the neighborhood: the supremum of
    ``sum_v q(v) p0(v)`` over the ball."""
    return _ball_sup(spec, spec.anchor.weights)


def init_baseline(alpha: float, null_match_prob: float) -> BaselineState:
    """Fresh state; alpha and the null match probability are :func:`_real` floats."""
    pbar = _real(null_match_prob, "null match probability")
    if not (0.0 < pbar <= 1.0):
        raise BadParamsError(f"null match probability must lie in (0, 1], got {pbar!r}")
    return BaselineState(matches=0, steps=0, alpha=_check_alpha(alpha), null_match_prob=pbar)


_FIRST_BLOCK = 128  # _blocks' first width
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _schedule(alpha: float, k):
    """``alpha / (k (k + 1))``, ``k`` an int or int64 array: one rounding of the exact product
    (for ``k < 2**53``), never an int64 product's wrap."""
    return alpha / (k * (k + 1.0))


def _stirlerr(n: int) -> float:
    """Loader's ``stirlerr``: ``log n! - (n + 1/2) log n + n - log sqrt(2 pi)`` for ``n >= 1``."""
    if n < 16:
        return math.lgamma(n + 1.0) - (n + 0.5) * math.log(n) + n - _LOG_SQRT_2PI
    nn = n * n
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / (1188 * nn)) / nn) / nn) / nn) / n


def _bd0(x: int, M: float, d: float) -> float:
    """Loader's ``x log(x / M) + M - x``, ``d = x - M``; its series near ``M`` cancels nothing."""
    if abs(d) >= 0.1 * (s := x + M):
        return x * (math.log(x) - math.log(M)) - d
    total, term, v, j = d * d / s, 2 * x * d / s, (d / s) ** 2, 3
    while (nxt := total + (term := term * v) / j) != total:
        total, j = nxt, j + 2
    return total


def _log_tail(m: int, k: int, p: float) -> float:
    """``log P(Binomial(k, p) >= m)``, ``k p < m <= k``: Loader's saddle-point log mass plus
    ``log(m (1 - p) / CF)``, CF DiDonato & Morris's fraction for ``I_p(m, k - m + 1)`` by modified
    Lentz; its terms are positive, so nothing cancels, and it ends by ``k - m + 1`` of them."""
    num, den = p.as_integer_ratio()
    d = (m * den - k * num) / den  # m - k p, rounded once
    b, q, c = k - m + 1, 1.0 - p, d + 1.0 - p  # c = 1 + m - (k + 1) p > 0
    log_mass = k * math.log(p) if m == k else (
        _stirlerr(k) - _stirlerr(m) - _stirlerr(k - m) - _bd0(m, k * p, d)
        - _bd0(k - m, k * q, -d) + 0.5 * math.log(k / (m * (k - m))) - _LOG_SQRT_2PI)
    cf = big = c * m / (m + 1)
    small, n, step = 0.0, 0, 0.0
    while abs(step - 1.0) > 2**-50:
        n += 1
        alpha = (m + n - 1) * (k + n) * n * (b - n) * p * p / (m + 2 * n - 1) ** 2
        beta = n + n * (b - n) * p / (m + 2 * n - 1) + (m + n) * (c + n * (1 + q)) / (m + 2 * n + 1)
        small, big = 1.0 / (beta + alpha * small), beta + alpha / big
        cf *= (step := big * small)
    return log_mass + math.log(m * q / cf)


def _rejections(m: np.ndarray, k: np.ndarray, p: float, alpha: float) -> np.ndarray:
    """The baseline's one rule: the first step of ``k`` (ascending; ``m`` matches), as an array
    of at most one, whose tail ``P(Binomial(k, p) >= m)`` is below the schedule.  At ``m <= k p``
    it is at least 1/2, a median being floor or ceil of ``k p`` (Kaas & Buhrman); a sound bracket
    on the log tail decides most other steps at once, and :func:`_log_tail` those it leaves."""
    near = (m > k * p) & ((bound := _schedule(alpha, k)) > 0.0)
    log_bound, k, m = np.log(bound[near]), k[near], m[near]
    if not k.size:
        return k
    # Stirling's log mass with Robbins' 0 < stirlerr(n) < 1/(12 n), and up to 1/(1 - r) times
    # it, r = P(X = m + 1) / P(X = m) > each later ratio; each end widened for its rounding
    log_p, log_q, j = math.log(p), math.log1p(-p), k - m
    h = np.maximum(j, 1.0)
    t = k / (m * h)  # 1/m + 1/j for j > 0
    log_mass = (0.5 * np.log(t) - _LOG_SQRT_2PI * (j > 0)  # at j = 0: log p**k, exactly
                - m * (np.log(m / k) - log_p) - j * (np.log(h / k) - log_q))
    slack = 2**-44 * (k[-1] + 1000.0) * (1.0 - log_p - log_q)
    hi = log_mass + (1.0 / (12.0 * k) + slack) - np.log1p(-j * p / ((m + 1.0) * (1.0 - p)))
    for i in np.flatnonzero(log_mass - (t / 12.0 + slack) < log_bound):  # lo < bound
        if hi[i] < log_bound[i] or _log_tail(int(m[i]), int(k[i]), p) < log_bound[i]:
            return k[i:i + 1]
    return k[:0]


def baseline_observe(state: BaselineState, v: int, s: int) -> BaselineState:
    """:func:`baseline_batch_detect`'s rule at one step; ``v`` and ``s`` are vocabulary
    indices, of any size, as no ``n`` is at hand."""
    if not state.running:
        raise AlreadyStoppedError(f"baseline rejected at step {state.rejected_at}")
    v, s = _indices((v, s), None, IndexOutOfRangeError)
    matches, k = state.matches + (1 if v == s else 0), state.steps + 1
    rejects = _rejections(np.array([matches]), np.array([k]), state.null_match_prob, state.alpha)
    return replace(state, matches=matches, steps=k, rejected_at=k if rejects.size else None)


def _first_crossing(inc: np.ndarray, boundary, carry=0.0) -> tuple[np.ndarray, np.ndarray]:
    """First column per row of ``inc`` (per-step log scores, overwritten by
    their running sums) whose wealth meets ``boundary``, -1 where none does, and
    the sums.  ``carry`` is folded into the first column, so the left-to-right
    ``cumsum`` rounds exactly like a stepwise fold continued from it."""
    inc[:, 0] += carry
    cum = np.cumsum(inc, axis=1, out=inc)
    met = cum >= boundary
    first = met.argmax(axis=1)
    first[~met.ravel()[np.arange(0, met.size, met.shape[1]) + first]] = -1  # row starts + first
    return first, cum


def _blocks(stream, budget, n):
    """``(done, v, s)``: up to ``budget`` pairs of ``stream`` (a count, None: all) in blocks of
    128, 256, ... up to ``_BLOCK_CELLS`` after ``done``, each read when asked for (a file's in
    one parse, an array's as one slice).  A pair that is not two vocabulary indices below ``n``
    (None: of any size) raises once the caller reads past the pairs before it, as in a fold; a
    valid block costs a conversion and a test."""
    left = sys.maxsize if budget is None else min(_count(budget, "budget"), sys.maxsize)
    take = (stream.take if isinstance(stream, _StreamRows)
            else (lambda k: stream[done:done + k]) if isinstance(stream, np.ndarray) and stream.ndim
            else lambda k, pairs=iter(stream): list(islice(pairs, k)))
    done, width = 0, _FIRST_BLOCK
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
        done, width = done + v.size, min(2 * width, _BLOCK_CELLS)
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
    """Fold :func:`baseline_observe` over up to ``budget`` pairs, each block decided
    by one :func:`_rejections` call; wealth is reported as NaN.  Without ``n``,
    only the indices' type and sign are checked, as in :func:`baseline_observe`."""
    state = init_baseline(alpha, null_match_prob)
    matches, steps = 0, 0
    for done, v, s in _blocks(stream, budget, n):
        m = matches + np.cumsum(v == s)
        matches, steps = int(m[-1]), done + v.size
        stops = _rejections(m, np.arange(done + 1, steps + 1), state.null_match_prob, state.alpha)
        if stops.size:
            return DetectionReport("rejected", int(stops[0]), math.nan, math.nan, int(stops[0]))
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


def _parse_json(text: str | bytes):
    """``json.loads(text)``; bad syntax, bytes or type, a huge int, too deep a nest: FormatError."""
    try:
        return json.loads(text)
    except (TypeError, ValueError, RecursionError) as exc:
        raise FormatError(f"not valid JSON: {exc}") from None


def detector_from_json(text: str) -> DetectorState:
    """The state :func:`detector_to_json` writes: JSON numbers of each field's kind (not ``true``,
    ``"3"`` or 2.7 for a count), and the stop and status :func:`_state_at` derives from them."""
    payload = _parse_json(text)
    try:
        fields = [payload[f] for f in ("wealth", "steps", "alpha")] + [payload.get("rejected_at")]
    except (KeyError, TypeError) as exc:
        raise FormatError(f"malformed detector state: {exc}") from exc
    if any(isinstance(value, bool) for value in fields):
        raise FormatError("malformed detector state: a field holds true or false")
    wealth, steps, alpha, rejected_at = fields
    steps = _count(steps, "steps", 0, error=FormatError)
    if rejected_at is not None:
        rejected_at = _count(rejected_at, "rejected_at", error=FormatError)
    state = _state_at(_real(wealth, "wealth", FormatError), steps,
                      _check_alpha(_real(alpha, "alpha", FormatError)))
    status = "running" if state.running else "rejected"
    if (rejected_at, payload.get("status", status)) != (state.rejected_at, status):
        raise FormatError(f"stop or status contradicts wealth {state.wealth!r} at step {steps}")
    return state


def report_to_dict(report: DetectionReport) -> dict:
    """The report's fields in order, as a new shallow dict (``asdict`` deep-copies)."""
    return dict(vars(report))
