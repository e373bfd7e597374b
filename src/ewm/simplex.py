"""Probability-simplex primitives.

A finite vocabulary of ``n >= 2`` symbols carries three kinds of objects:

* :class:`VocabDistribution` -- a validated probability vector;
* :class:`NeighborhoodSpec`  -- an anchor distribution ``p0`` together with an
  L1 radius ``delta``, describing the polytope of admissible targets
  ``{q : ||q - p0||_1 <= delta}``;
* :class:`ExtremePair` / :class:`MixtureDecomposition` -- the vertices of that
  polytope and convex combinations of them.

A vertex shifts ``delta/2`` of mass from a *loss* symbol ``b`` onto a *gain*
symbol ``a``: ``q_ab = p0 + (delta/2) * (1_a - 1_b)``.  Because every point of
the ball is a convex combination of vertices (a transportation/circulation
argument), :func:`decompose_target` can express any admissible target as a
mixture over vertices; the construction is a deterministic greedy transport so
the decomposition is reproducible.

Tolerances are centralized here: ``SIMPLEX_ATOL`` for accepting input weight
vectors, ``RECONSTRUCT_ATOL`` for mixture reconstruction, ``EXACT_ATOL`` for
arithmetic identities.

All types are immutable values and all operations are pure functions.
"""

from __future__ import annotations

import operator
from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadParamsError,
    BadWeightsError,
    FormatError,
    InvalidPairError,
    InvalidSpecError,
    LengthMismatchError,
    NegativeWeightError,
    OutsideNeighborhoodError,
    SumNotOneError,
    TooShortError,
)

# Accepted deviation of input weights from unit sum (renormalized inside it).
SIMPLEX_ATOL = 1e-9
# Mixture reconstruction accuracy, L-infinity.
RECONSTRUCT_ATOL = 1e-10
# Arithmetic identities (entropy/growth-rate cross-checks, marginal sums).
EXACT_ATOL = 1e-12


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=np.float64, copy=True)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class VocabDistribution:
    """Probability vector over a vocabulary of size ``n >= 2``.

    Construct through :func:`make_distribution`; direct construction skips
    validation and is reserved for internal callers that guarantee it.
    """

    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "weights", _freeze(self.weights))

    @property
    def n(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True, eq=False)
class NeighborhoodSpec:
    """Anchor distribution plus L1 robustness radius.

    Standing assumption: ``min_v anchor(v) > delta`` and ``0 < delta < 2``,
    so the ball is a strict subset of the simplex and every vertex has
    strictly positive entries.
    """

    anchor: VocabDistribution
    delta: float

    @property
    def n(self) -> int:
        return self.anchor.n


@dataclass(frozen=True)
class ExtremePair:
    """Vertex of the neighborhood: vocabulary indices (:func:`_indices`) gain a != loss b."""

    gain: int
    loss: int

    def __post_init__(self):
        gain, loss = _indices((self.gain, self.loss), None, InvalidPairError)
        if gain == loss:
            raise InvalidPairError(f"gain and loss must differ, got ({gain}, {loss})")
        object.__setattr__(self, "gain", gain)
        object.__setattr__(self, "loss", loss)

    @classmethod
    def _trusted(cls, gain: int, loss: int) -> ExtremePair:
        """The vertex of two distinct Python ints already known to be indices, unchecked."""
        vars(pair := object.__new__(cls)).update(gain=gain, loss=loss)
        return pair


@dataclass(frozen=True, eq=False)
class MixtureDecomposition:
    """Combination of extreme pairs: a nonempty tuple of (:class:`ExtremePair`, weight) terms, the
    weights :func:`_reals`, nonnegative and kept as Python floats; else a BadWeightsError."""

    terms: tuple[tuple[ExtremePair, float], ...]

    def __post_init__(self):  # the sum is the caller's: mixture_coupling needs 1
        terms = self.terms if isinstance(self.terms, (tuple, list)) else [self.terms]
        if not all(isinstance(t, (tuple, list)) and len(t) == 2 and isinstance(t[0], ExtremePair)
                   for t in terms):
            raise BadWeightsError(f"mixture terms must be (pair, weight), got {_shown(self.terms)}")
        if not terms:
            raise BadWeightsError("mixture has no terms")
        weights = _reals([w for _, w in terms], "mixture weights", BadWeightsError)
        if weights.ndim != 1 or (weights < 0.0).any():
            raise BadWeightsError("mixture weights must be nonnegative, one number per term")
        object.__setattr__(self, "terms", tuple(zip([p for p, _ in terms], weights.tolist())))


def make_distribution(weights) -> VocabDistribution:
    """Validate a weight vector and return it as a distribution.

    Weights are :func:`_reals`, nonnegative and sum to 1 within ``SIMPLEX_ATOL``;
    within that slack, they are renormalized to an exact unit sum.
    """
    w = _reals(weights, "weights")
    if w.ndim != 1:
        raise FormatError(f"weights must be one-dimensional, got shape {w.shape}")
    if w.shape[0] < 2:
        raise TooShortError(f"need at least 2 symbols, got {w.shape[0]}")
    if np.any(w < 0.0):
        raise NegativeWeightError(f"negative weight at index {int(np.argmin(w))}")
    total = float(w.sum())
    if abs(total - 1.0) > SIMPLEX_ATOL:
        raise SumNotOneError(f"weights sum to {total!r}, deviation exceeds {SIMPLEX_ATOL}")
    return VocabDistribution(w / total)


def make_neighborhood(anchor: VocabDistribution, delta: float) -> NeighborhoodSpec:
    """Validate a :func:`_real` delta in (0, 2), ``delta/(2(n-1)) > 0``, ``min(anchor) > delta``."""
    delta = _real(delta, "delta", InvalidSpecError)
    if not (0.0 < delta < 2.0):
        raise InvalidSpecError(f"delta must lie in (0, 2), got {delta!r}")
    if not delta / (2.0 * (anchor.n - 1)) > 0.0:
        raise InvalidSpecError(f"delta {delta!r} is too small: delta / (2(n-1)) underflows to 0")
    lo = float(anchor.weights.min())
    if not lo > delta:
        raise InvalidSpecError(f"min anchor weight {lo!r} must exceed delta {delta!r}")
    return NeighborhoodSpec(anchor=anchor, delta=delta)


def entropy(d: VocabDistribution) -> float:
    """Shannon entropy in nats; terms with zero weight contribute zero."""
    w = d.weights
    nz = w[w > 0.0]
    return float(-np.sum(nz * np.log(nz)))


def l1_distance(p: VocabDistribution, q: VocabDistribution) -> float:
    """Sum of absolute coordinate differences."""
    if p.n != q.n:
        raise LengthMismatchError(f"lengths differ: {p.n} vs {q.n}")
    return float(np.abs(p.weights - q.weights).sum())


def extreme_target(spec: NeighborhoodSpec, pair: ExtremePair) -> VocabDistribution:
    """The vertex distribution ``p0 + (delta/2)(1_gain - 1_loss)``."""
    return reconstruct_mixture(spec, MixtureDecomposition(((pair, 1.0),)))


def enumerate_extremes(spec: NeighborhoodSpec) -> list[ExtremePair]:
    """All ``n(n-1)`` vertices in lexicographic (gain, loss) order."""
    n = spec.n
    return [ExtremePair._trusted(a, b) for a in range(n) for b in range(n) if a != b]


def decompose_target(spec: NeighborhoodSpec, q: VocabDistribution) -> MixtureDecomposition:
    """Express an admissible target as a convex combination of vertices.

    The shift ``s = q - p0`` is split into its positive (supply) and negative
    (demand) supports and routed greedily in ascending index order
    (northwest-corner).  Each routed unit of mass ``a_ij`` becomes weight
    ``a_ij * 2/delta`` on the vertex ``(i, j)``.  When the total transported
    mass falls short of ``delta/2`` the remaining weight is padded, split
    equally, on the canceling pair (0,1)/(1,0), whose contributions sum to the
    anchor itself.
    """
    _check_inside(spec, q)
    delta = spec.delta
    shift = q.weights - spec.anchor.weights

    supply = ((i, float(s)) for i, s in enumerate(shift) if s > 0.0)
    demand = ((j, float(-s)) for j, s in enumerate(shift) if s < 0.0)

    weights: dict[tuple[int, int], float] = {}
    moved = 0.0
    (i, left), (j, need) = next(supply, (0, 0.0)), next(demand, (0, 0.0))
    while left > 0.0 and need > 0.0:  # each route empties one side, so no key repeats
        amount = min(left, need)
        weights[(i, j)] = amount * 2.0 / delta
        moved += amount
        left, need = left - amount, need - amount
        if left <= 0.0:
            i, left = next(supply, (0, 0.0))
        if need <= 0.0:
            j, need = next(demand, (0, 0.0))

    pad = 1.0 - 2.0 * moved / delta
    if pad > EXACT_ATOL:  # below that it is rounding dust, not residual mass
        weights[(0, 1)] = weights.get((0, 1), 0.0) + pad / 2.0
        weights[(1, 0)] = weights.get((1, 0), 0.0) + pad / 2.0

    terms = tuple((ExtremePair._trusted(a, b), w) for (a, b), w in sorted(weights.items()))
    return MixtureDecomposition(terms=terms)


def reconstruct_mixture(spec: NeighborhoodSpec, mix: MixtureDecomposition) -> VocabDistribution:
    """Weighted sum of vertex distributions, the weights summing to at most 1; inverse of
    :func:`decompose_target`."""
    if (total := sum(w for _, w in mix.terms)) > 1.0 + EXACT_ATOL:
        raise BadWeightsError(f"mixture weights sum to {total!r}, past 1")
    q, half = spec.anchor.weights.copy(), spec.delta / 2.0
    for pair, w in mix.terms:
        _check_pair(spec, pair)
        q[pair.gain] += w * half
        q[pair.loss] -= w * half
    return VocabDistribution(q)


def _indices(values, n: int | None, error: type[Exception], size: int | None = None):
    """The one vocabulary-index rule: ``values``, a tuple, list or 1-D array (``size`` long,
    if given), as Python ints, each one :func:`operator.index` takes (numpy's too; a bool is
    0/1), nonnegative and below ``n`` when it is known; else ``error``, never a truncated index."""
    try:
        if not isinstance(values, (tuple, list, np.ndarray)):
            raise TypeError
        out = tuple(map(operator.index, values))
    except TypeError:
        raise error(f"indices must be integers, got {values!r}") from None
    if size is not None and len(out) != size:
        raise error(f"expected {size} indices, got {out}")
    if min(out, default=0) < 0 or (n is not None and max(out, default=0) >= n):
        raise error(f"indices {out} out of range for n={n}" if n else f"negative index in {out}")
    return out


def _shown(value) -> str:
    """``repr(value)`` cut to 80 characters; an int past ``str``'s digit limit has none."""
    with suppress(ValueError):
        return text if len(text := repr(value)) <= 80 else f"{text[:77]}..."
    return f"<{type(value).__name__} past the digit limit>"


def _count(value, name: str, low: int = 1, high: int | None = None,
           error: type[Exception] = BadParamsError) -> int:
    """The one count rule: ``value`` as the Python int :func:`operator.index` makes of it
    (numpy's too; a bool is 0/1), at least ``low`` and at most ``high`` when given; else
    ``error`` naming it, never a truncated, parsed or float count."""
    try:
        count = operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {_shown(value)}") from None
    if count < low or high is not None and count > high:
        bound = f"be >= {low}" if high is None else f"lie in {low}..{high}"
        raise error(f"{name} must {bound}, got {_shown(count)}")
    return count


def _real(value, name: str, error: type[Exception] = BadParamsError) -> float:
    """The 0-d case of :func:`_reals`: ``value`` as a Python float; else ``error`` naming it."""
    with suppress(error):
        if (real := _reals(value, name, error)).ndim == 0:
            return float(real)
    raise error(f"{name} must be a finite real number, got {_shown(value)}")


def _reals(values, name: str, error: type[Exception] = FormatError) -> np.ndarray:
    """The one real rule, for arrays and (as :func:`_real`) scalars: ``np.asarray(values)`` of a
    bool, int, uint or float dtype, so not a string, bytes, None, a ragged list or an int past 64
    bits, as a new float64 array, every entry finite; else ``error`` naming it."""
    try:
        if (array := np.asarray(values)).dtype.kind not in "biuf":
            raise TypeError
    except (TypeError, ValueError):  # ValueError: a ragged list
        raise error(f"{name} must be numbers, got {_shown(values)}") from None
    if not np.isfinite(array := array.astype(np.float64)).all():
        raise error(f"{name} must be finite")
    return array


def _check_pair(spec: NeighborhoodSpec, pair: ExtremePair) -> None:
    _indices((pair.gain, pair.loss), spec.n, InvalidPairError)


def _ball_sup(spec: NeighborhoodSpec, f: np.ndarray) -> float:
    """The one supremum over the ball of ``sum_v q(v) f(v)``, at the vertex moving ``delta/2``
    onto f's argmax from its argmin: ``p0 @ f + (delta/2)(max f - min f)``."""
    return float(spec.anchor.weights @ f + spec.delta / 2.0 * (f.max() - f.min()))


def _check_inside(spec: NeighborhoodSpec, q: VocabDistribution) -> None:
    """The one ball-membership test: ``||q - p0||_1 <= delta`` up to ``RECONSTRUCT_ATOL``."""
    dist = l1_distance(q, spec.anchor)
    if dist > spec.delta + RECONSTRUCT_ATOL:
        raise OutsideNeighborhoodError(f"target at L1 distance {dist!r} > delta {spec.delta!r}")
