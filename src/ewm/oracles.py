"""Brute-force verification oracles for the closed-form optimum.

These routines re-derive, at desk scale and by exhaustive enumeration, the
quantities the rest of the package computes in closed form, so the two routes
can be checked against each other to machine precision.

* :func:`path_gain` / :func:`best_path_inner_value` -- the best achievable
  expected log score against a vertex target equals
  ``J0 + (delta/2) * max_P W(P)`` where ``J0 = sum_v p0(v) M(v, v)``, ``M`` is
  the log-score matrix, and ``W(P)`` ranges over the gains of all simple
  directed paths from the gain index to the loss index.  The maximum is found
  by literally enumerating every simple path (complete digraph, n <= 10), so
  no LP solver is involved.
* :func:`cycle_condition_check` -- verifies the diagonal-dominance cycle
  inequality ``sum_i M(c_i, c_i) >= sum_i M(c_i, c_{i+1 mod k})`` over all
  simple directed cycles up to a length cap; this is the hypothesis under
  which single-path optimizers exist.
* :func:`two_token_maxmin` -- an independent numeric solver for the n = 2
  max-min program over row-stochastic kernels, by nested grid search; its
  optimum must agree with the closed-form rate to solver resolution.
* :func:`saddle_check` -- random row-stochastic kernels near the optimal one
  must not beat the closed-form rate in worst-case inner value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .coupling import PathSpec
from .errors import (
    BadParamsError,
    DimensionMismatchError,
    FormatError,
    InvalidPathError,
    TooLargeError,
)
from .evalue import EValueTable, jstar, kernel_of, optimal_evalue
from .simplex import (
    ExtremePair,
    NeighborhoodSpec,
    _check_pair,
    _freeze,
    enumerate_extremes,
)

# Refuse cycle enumerations beyond this many cycles (the full cap at n = 8 fits).
_CYCLE_BUDGET = 100_000
# Exhaustive simple-path enumeration cap.
_MAX_PATH_N = 10
# Path enumeration requires n <= 6 inside the randomized saddle audit.
_MAX_SADDLE_N = 6


@dataclass(frozen=True, eq=False)
class ScoreMatrix:
    """Finite log-score matrix M(v, s); typically the log of a score table."""

    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", _freeze(self.entries))

    @property
    def n(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class TwoTokenSolution:
    """Numeric optimum of the two-token max-min program."""

    value: float
    r00: float
    r11: float
    # one (refinement, r00, r11, objective) row per zoom round
    trace: tuple[tuple[int, float, float, float], ...]


def make_score_matrix(entries) -> ScoreMatrix:
    m = np.asarray(entries, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"score matrix must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise FormatError("score matrix entries must be finite (scores strictly positive)")
    return ScoreMatrix(m)


def log_scores(e: EValueTable) -> ScoreMatrix:
    """Elementwise log of a score table; requires strictly positive scores."""
    if np.any(e.scores <= 0.0):
        raise BadParamsError("log-score matrix needs strictly positive scores")
    return ScoreMatrix(e.log_scores)


def path_gain(m: ScoreMatrix, path: PathSpec) -> float:
    """``W(P) = sum_i ( M(u_i, u_{i+1}) - M(u_{i+1}, u_{i+1}) )``."""
    verts = path.vertices
    if max(verts) >= m.n:
        raise InvalidPathError(f"path vertex {max(verts)} out of range for n={m.n}")
    return _gain(m, verts)


def _gain(m: ScoreMatrix, verts: tuple[int, ...]) -> float:
    """``W`` of the vertex sequence ``verts``; :func:`path_gain` checks its range."""
    total = 0.0
    for u, nxt in zip(verts[:-1], verts[1:]):
        total += float(m.entries[u, nxt]) - float(m.entries[nxt, nxt])
    return total


@lru_cache(maxsize=None)
def _simple_paths(n: int, a: int, b: int) -> tuple[tuple[int, ...], ...]:
    """All simple directed a -> b paths in the complete digraph on n vertices,
    generated (hence returned) in lexicographic vertex order."""
    out: list[tuple[int, ...]] = []
    prefix = [a]
    used = {a}

    def extend() -> None:
        for nxt in range(n):
            if nxt in used:
                continue
            if nxt == b:
                out.append(tuple(prefix) + (b,))
                continue
            prefix.append(nxt)
            used.add(nxt)
            extend()
            used.discard(nxt)
            prefix.pop()

    extend()
    return tuple(out)


def best_path_inner_value(
    m: ScoreMatrix, spec: NeighborhoodSpec, pair: ExtremePair
) -> tuple[float, PathSpec]:
    """Exhaustive inner-problem value for a vertex target.

    Returns ``(J0 + (delta/2) * W*, best path)`` where ``W*`` is the largest
    simple-path gain from the gain index to the loss index and the returned
    path is the lexicographically first maximizer.
    """
    if m.n != spec.n:
        raise DimensionMismatchError(f"matrix is {m.n}x{m.n} but vocabulary has n={spec.n}")
    if spec.n > _MAX_PATH_N:
        raise TooLargeError(f"path enumeration supports n <= {_MAX_PATH_N}, got {spec.n}")
    _check_pair(spec, pair)
    j0 = float(spec.anchor.weights @ np.diag(m.entries))
    best_gain = -math.inf
    best: tuple[int, ...] | None = None
    for verts in _simple_paths(spec.n, pair.gain, pair.loss):
        if (gain := _gain(m, verts)) > best_gain:
            best_gain, best = gain, verts
    assert best is not None
    return j0 + spec.delta / 2.0 * best_gain, PathSpec(best)


def _cycle_count(n: int, max_len: int) -> int:
    total = 0
    for k in range(2, min(max_len, n) + 1):
        total += math.comb(n, k) * math.factorial(k - 1)
    return total


def cycle_condition_check(m: ScoreMatrix, max_cycle_len: int) -> bool:
    """True iff no simple directed cycle up to the cap beats its diagonal.

    Each cycle is enumerated once, anchored at its smallest vertex.  Equality
    counts as satisfied; violations need to exceed 1e-12 to rule out pure
    rounding noise.
    """
    n = m.n
    cap = min(int(max_cycle_len), n)
    if cap < 2:
        raise BadParamsError(f"cycle length cap must be >= 2, got {max_cycle_len}")
    if _cycle_count(n, cap) > _CYCLE_BUDGET:
        raise TooLargeError(
            f"{_cycle_count(n, cap)} cycles exceed the enumeration budget {_CYCLE_BUDGET}"
        )
    ent = m.entries

    def ok_from(start: int) -> bool:
        # cycles anchored at their smallest vertex: later vertices come from
        # {start+1, ..., n-1}, so each directed cycle is visited exactly once
        stack: list[int] = [start]
        used = {start}

        def extend(diag_sum: float, off_sum: float) -> bool:
            last = stack[-1]
            if len(stack) >= 2:
                # close the cycle back to start
                closed_off = off_sum + float(ent[last, start])
                if closed_off > diag_sum + 1e-12:
                    return False
            if len(stack) == cap:
                return True
            for nxt in range(start + 1, n):
                if nxt in used:
                    continue
                stack.append(nxt)
                used.add(nxt)
                good = extend(
                    diag_sum + float(ent[nxt, nxt]),
                    off_sum + float(ent[last, nxt]),
                )
                used.discard(nxt)
                stack.pop()
                if not good:
                    return False
            return True

        return extend(float(ent[start, start]), 0.0)

    return all(ok_from(v) for v in range(n))


def two_token_maxmin(
    p: float, delta: float, grid: int, refinements: int
) -> TwoTokenSolution:
    """Nested grid search for the two-token max-min program.

    Maximizes, over row-stochastic 2x2 kernels parameterized by the diagonal
    ``(r00, r11)`` in (0,1)^2,

        H(p0) + p log r00 + (1-p) log r11
              + (delta/2) * min( log((1-r00)/r11), log((1-r11)/r00) )

    where ``p0 = (p, 1-p)``.  The row-stochastic parameterization pins the
    null expectation at exactly 1, which is where the optimum lives.  Each
    refinement re-grids a window shrunk by a factor ``grid`` around the
    incumbent, evaluating cell centers so the open-interval constraint holds.
    """
    p = float(p)
    delta = float(delta)
    if not (0.0 < p < 1.0):
        raise BadParamsError(f"p must lie in (0, 1), got {p!r}")
    if not (0.0 < delta < 2.0) or min(p, 1.0 - p) <= delta:
        raise BadParamsError(f"need min(p, 1-p) > delta > 0, got p={p!r}, delta={delta!r}")
    if grid < 64:
        raise BadParamsError(f"grid must be >= 64, got {grid}")
    if refinements < 1:
        raise BadParamsError(f"refinements must be >= 1, got {refinements}")

    h = -(p * math.log(p) + (1.0 - p) * math.log(1.0 - p))
    lo = np.array([0.0, 0.0])
    hi = np.array([1.0, 1.0])
    incumbent = (math.nan, math.nan, -math.inf)
    trace: list[tuple[int, float, float, float]] = []
    for round_idx in range(refinements):
        centers0 = lo[0] + (hi[0] - lo[0]) * (np.arange(grid) + 0.5) / grid
        centers1 = lo[1] + (hi[1] - lo[1]) * (np.arange(grid) + 0.5) / grid
        r00, r11 = np.meshgrid(centers0, centers1, indexing="ij")
        obj = (
            h
            + p * np.log(r00)
            + (1.0 - p) * np.log(r11)
            + delta / 2.0 * np.minimum(
                np.log((1.0 - r00) / r11), np.log((1.0 - r11) / r00)
            )
        )
        flat = int(np.argmax(obj))
        i, j = divmod(flat, grid)
        incumbent = (float(centers0[i]), float(centers1[j]), float(obj[i, j]))
        trace.append((round_idx, incumbent[0], incumbent[1], incumbent[2]))
        width = (hi - lo) / grid
        center = np.array(incumbent[:2])
        lo = np.maximum(0.0, center - width / 2.0)
        hi = np.minimum(1.0, center + width / 2.0)
    return TwoTokenSolution(
        value=incumbent[2], r00=incumbent[0], r11=incumbent[1], trace=tuple(trace)
    )


def saddle_check(
    spec: NeighborhoodSpec,
    perturbations: int,
    magnitude: float,
    rng: np.random.Generator,
) -> bool:
    """Randomized local optimality audit of the closed-form kernel.

    Draws row-stochastic kernels within ``magnitude`` (entrywise) of the
    optimal kernel, renormalizes rows, and checks that none achieves a
    worst-case inner value above the closed-form rate (1e-9 slack).  Kernels
    are turned into log-score matrices by dividing each column by the anchor.
    """
    if spec.n > _MAX_SADDLE_N:
        raise TooLargeError(f"saddle audit supports n <= {_MAX_SADDLE_N}, got {spec.n}")
    if perturbations < 0 or not 0.0 <= 2.0 * magnitude < math.inf:  # NaN fails too
        raise BadParamsError("perturbations must be nonnegative, magnitude nonnegative "
                             f"with 2 * magnitude finite; got {perturbations}, {magnitude!r}")
    r_star = kernel_of(optimal_evalue(spec), spec)
    target = jstar(spec)
    pairs = enumerate_extremes(spec)
    p0 = spec.anchor.weights
    for _ in range(perturbations):
        noise = rng.uniform(-magnitude, magnitude, size=(spec.n, spec.n))
        r = np.clip(r_star + noise, 1e-12, None)
        r /= r.sum(axis=1, keepdims=True)
        m = ScoreMatrix(np.log(r / p0[np.newaxis, :]))
        worst = min(best_path_inner_value(m, spec, pair)[0] for pair in pairs)
        if worst > target + 1e-9:
            return False
    return True
