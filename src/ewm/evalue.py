"""Worst-case log-optimal score tables.

A score table ``e(v, s) >= 0`` over (outcome, seed) pairs is a valid one-step
detection score for a neighborhood when its expectation is at most 1 under
*every* admissible null: ``sum_{v,s} q(v) p0(s) e(v,s) <= 1`` for all targets
``q`` in the L1 ball.  The expectation ``sum_v q(v) A(v)``, with row normalizers
``A(v) = sum_s p0(s) e(v, s)``, is linear in ``q``, so its supremum over the ball
is attained at the vertex moving ``delta/2`` onto A's argmax from its argmin,
and :func:`null_worst_expectation` audits exactly that supremum,
``p0 @ A + (delta/2)(max A - min A)``.

The unique score table maximizing the worst-case expected log score under the
alternative has the closed form built by :func:`optimal_evalue`::

    e*(v, s) = (1 - delta/2) / p0(s)          if v == s
             = delta / (2 (n-1) p0(s))        otherwise

Its row normalizers ``A(v)`` all equal 1, so the kernel
``r(v, s) = p0(s) e(v, s) / A(v)`` is row-stochastic with constant diagonal
``1 - delta/2`` and constant off-diagonal ``delta / (2n - 2)``.  The resulting
optimal growth rate is

    jstar = H(p0) + (1 - delta/2) log(1 - delta/2)
                  + (delta/2) log(delta / (2(n-1)))
          = H(p0) - H(1 - delta/2, delta/(2(n-1)), ..., delta/(2(n-1))),

the entropy of the anchor minus the entropy of the induced noise channel.
All logarithms are natural; rates are in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatchError, NegativeWeightError, ZeroRowError
from .simplex import NeighborhoodSpec, _ball_sup, _freeze, _reals, entropy


@dataclass(frozen=True, eq=False)
class EValueTable:
    """Nonnegative score matrix indexed (outcome v, seed s)."""

    scores: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "scores", _freeze(self.scores))

    @property
    def n(self) -> int:
        return self.scores.shape[0]

    @cached_property
    def log_scores(self) -> np.ndarray:
        """``log(scores)``, computed once per table and read-only; a zero score
        gives ``-inf``.  Every wealth increment is read from it."""
        with np.errstate(divide="ignore"):
            return _freeze(np.log(self.scores))


def make_evalue_table(scores) -> EValueTable:
    """Validate a square, nonnegative score matrix of :func:`_reals`."""
    m = _reals(scores, "scores")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"scores must be square, got shape {m.shape}")
    if np.any(m < 0.0):
        raise NegativeWeightError("scores must be nonnegative")
    return EValueTable(m)


def optimal_evalue(spec: NeighborhoodSpec) -> EValueTable:
    """The worst-case log-optimal score table for the given neighborhood.

    Every row normalizer equals 1 exactly:
    ``(1 - delta/2) + (n-1) * delta/(2(n-1)) = 1``.  A score that overflows
    (a subnormal anchor weight) is refused as not finite.
    """
    p0 = spec.anchor.weights
    n = spec.n
    with np.errstate(over="ignore"):
        scores = spec.delta / (2.0 * (n - 1)) / p0[np.newaxis, :] * np.ones((n, n))
        idx = np.arange(n)
        scores[idx, idx] = (1.0 - spec.delta / 2.0) / p0
    return make_evalue_table(scores)


def row_sums(e: EValueTable, spec: NeighborhoodSpec) -> np.ndarray:
    """Row normalizers ``A(v) = sum_s p0(s) e(v, s)``."""
    _check_dims(e, spec)
    return e.scores @ spec.anchor.weights


def null_worst_expectation(e: EValueTable, spec: NeighborhoodSpec) -> float:
    """Largest null expectation of the table over the whole neighborhood, the
    supremum of ``sum_v q(v) A(v)`` over the ball; a table is a valid score iff
    the result is <= 1 (up to 1e-10 slack).
    """
    return _ball_sup(spec, row_sums(e, spec))


def jstar(spec: NeighborhoodSpec) -> float:
    """Closed-form optimal worst-case log growth rate, in nats."""
    d = spec.delta
    n = spec.n
    return (
        entropy(spec.anchor)
        + (1.0 - d / 2.0) * math.log(1.0 - d / 2.0)
        + d / 2.0 * math.log(d / (2.0 * (n - 1)))
    )


def kernel_of(e: EValueTable, spec: NeighborhoodSpec) -> np.ndarray:
    """Row-stochastic kernel ``r(v, s) = p0(s) e(v, s) / A(v)``."""
    a = row_sums(e, spec)
    if np.any(a <= 0.0):
        raise ZeroRowError(f"zero row normalizer at row {int(np.argmin(a))}")
    return spec.anchor.weights[np.newaxis, :] * e.scores / a[:, np.newaxis]


def _check_dims(e: EValueTable, spec: NeighborhoodSpec) -> None:
    if e.n != spec.n:
        raise DimensionMismatchError(f"table is {e.n}x{e.n} but vocabulary has n={spec.n}")

