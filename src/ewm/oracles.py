"""Brute-force verification oracles for the closed-form optimum.

These routines re-derive, at desk scale and by exhaustive enumeration, the
quantities the rest of the package computes in closed form, so the two routes
can be checked against each other to machine precision.

* :func:`best_path_inner_value` -- the best achievable expected log score
  against a vertex target equals ``J0 + (delta/2) * max_P W(P)`` where
  ``J0 = sum_v p0(v) M(v, v)``, ``M = log e`` is the cached ``log_scores`` of
  the table ``e`` passed in (every score must be positive), and ``W(P)``, the
  gain ``sum_i ( M(u_i, u_{i+1}) - M(u_{i+1}, u_{i+1}) )``, ranges over all
  simple directed paths from the gain index to the loss index.  The maximum
  is found by enumerating every simple path of the complete digraph
  (n <= 10) with ``itertools.permutations``, so no LP solver is involved.
* :func:`cycle_condition_check` -- verifies the diagonal-dominance cycle
  inequality ``sum_i M(c_i, c_i) >= sum_i M(c_i, c_{i+1 mod k})`` over all
  simple directed cycles up to a length cap, again enumerated by
  ``itertools.permutations``; this is the hypothesis under which single-path
  optimizers exist.
* :func:`two_token_maxmin` -- an independent numeric solver for the n = 2
  max-min program over row-stochastic kernels, by nested grid search; its
  optimum must agree with the closed-form rate to solver resolution.
* :func:`saddle_check` -- random row-stochastic kernels near the optimal one
  must not beat the closed-form rate in worst-case inner value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .coupling import PathSpec
from .errors import BadParamsError, TooLargeError
from .evalue import EValueTable, _check_dims, jstar, kernel_of, optimal_evalue
from .simplex import (ExtremePair, NeighborhoodSpec, _check_pair, _count, _real, entropy,
                      enumerate_extremes)

# Refuse cycle enumerations beyond this many cycles (the full cap at n = 8 fits).
_CYCLE_BUDGET = 100_000
# Exhaustive simple-path enumeration cap.
_MAX_PATH_N = 10
# Path enumeration requires n <= 6 inside the randomized saddle audit.
_MAX_SADDLE_N = 6


@dataclass(frozen=True)
class TwoTokenSolution:
    """Numeric optimum of the two-token max-min program."""

    value: float
    r00: float
    r11: float
    # one (refinement, r00, r11, objective) row per zoom round
    trace: tuple[tuple[int, float, float, float], ...]


def _log_matrix(e: EValueTable) -> list[list[float]]:
    """``M = e.log_scores`` as lists (fast scalar reads); a zero score would give ``-inf``."""
    if np.any(e.scores <= 0.0):
        raise BadParamsError("log-score matrix needs strictly positive scores")
    return e.log_scores.tolist()


def _gain(m: list[list[float]], verts: tuple[int, ...]) -> float:
    """``W`` of the path ``verts``, vocabulary indices below ``len(m)``."""
    total = 0.0
    for u, nxt in zip(verts[:-1], verts[1:]):
        total += m[u][nxt] - m[nxt][nxt]
    return total


def _simple_paths(n: int, a: int, b: int) -> tuple[tuple[int, ...], ...]:
    """All simple directed a -> b paths in the complete digraph on n vertices,
    in lexicographic vertex order; built per call, since at n = 10 one list is about 13 MB."""
    inner = [v for v in range(n) if v not in (a, b)]
    return tuple(sorted((a, *mid, b) for k in range(len(inner) + 1)
                        for mid in permutations(inner, k)))


def _inner_values(e: EValueTable, spec: NeighborhoodSpec, paths) -> list[tuple[float, tuple]]:
    """``(J0 + (delta/2) * W*, best path)`` for each vertex's path list of ``paths``, the log
    matrix and ``J0`` read once for the table; ``W*`` is the largest gain over the list and the
    path its first maximizer (``max`` keeps the first), so lexicographically first on ties."""
    m, j0 = _log_matrix(e), float(spec.anchor.weights @ np.diag(e.log_scores))
    best = [max(vertex_paths, key=lambda verts: _gain(m, verts)) for vertex_paths in paths]
    return [(j0 + spec.delta / 2.0 * _gain(m, verts), verts) for verts in best]


def best_path_inner_value(
    e: EValueTable, spec: NeighborhoodSpec, pair: ExtremePair
) -> tuple[float, PathSpec]:
    """Exhaustive inner-problem value for a vertex target.

    Returns ``(J0 + (delta/2) * W*, best path)`` where ``W*`` is the largest
    simple-path gain from the gain index to the loss index and the returned
    path is the lexicographically first maximizer.
    """
    _check_dims(e, spec)
    if spec.n > _MAX_PATH_N:
        raise TooLargeError(f"path enumeration supports n <= {_MAX_PATH_N}, got {spec.n}")
    _check_pair(spec, pair)
    [(value, best)] = _inner_values(e, spec, [_simple_paths(spec.n, pair.gain, pair.loss)])
    return value, PathSpec(best)


def cycle_condition_check(e: EValueTable, max_cycle_len: int) -> bool:
    """True iff no simple directed cycle up to the cap (a count) beats its diagonal.

    Each cycle is enumerated once, anchored at its smallest vertex.  Equality
    counts as satisfied; violations need to exceed 1e-12 to rule out pure
    rounding noise.
    """
    n = e.n
    cap = min(_count(max_cycle_len, "cycle length cap", 2), n)
    cycles = sum(math.comb(n, k) * math.factorial(k - 1) for k in range(2, cap + 1))
    if cycles > _CYCLE_BUDGET:
        raise TooLargeError(f"{cycles} cycles exceed the enumeration budget {_CYCLE_BUDGET}")
    m = _log_matrix(e)
    # the vertices after the smallest one, start, come from {start+1, ..., n-1}
    for start in range(n):
        for k in range(1, cap):
            for rest in permutations(range(start + 1, n), k):
                diag_sum, off_sum = m[start][start], 0.0
                for u, v in zip((start, *rest), rest):
                    diag_sum += m[v][v]
                    off_sum += m[u][v]
                if off_sum + m[rest[-1]][start] > diag_sum + 1e-12:
                    return False
    return True


def two_token_maxmin(spec: NeighborhoodSpec, grid: int, refinements: int) -> TwoTokenSolution:
    """Nested grid search for the two-token max-min program.

    Maximizes, over row-stochastic 2x2 kernels parameterized by the diagonal
    ``(r00, r11)`` in (0,1)^2,

        H(p0) + p log r00 + q log r11
              + (delta/2) * min( log((1-r00)/r11), log((1-r11)/r00) )

    where ``spec`` holds the anchor ``p0 = (p, q)`` (n = 2) and the radius ``delta``.  The
    row-stochastic parameterization pins the null expectation at exactly 1, where the optimum
    lives.  Each of the ``refinements`` (a count) re-grids a window shrunk by a factor ``grid``
    (a count in 64..1024) around the incumbent, at cell centers so the open-interval constraint
    holds.
    """
    if spec.n != 2:
        raise BadParamsError(f"the two-token solver needs n = 2, got n = {spec.n}")
    grid = _count(grid, "grid", 64, 1024)  # each pass holds several grid x grid arrays
    refinements = _count(refinements, "refinements")

    (p, q), delta, h = spec.anchor.weights.tolist(), spec.delta, entropy(spec.anchor)
    lo = np.array([0.0, 0.0])
    hi = np.array([1.0, 1.0])
    trace: list[tuple[int, float, float, float]] = []
    for round_idx in range(refinements):
        centers = lo[:, np.newaxis] + (hi - lo)[:, np.newaxis] * (np.arange(grid) + 0.5) / grid
        r00, r11 = np.meshgrid(*centers, indexing="ij")
        obj = (
            h
            + p * np.log(r00)
            + q * np.log(r11)
            + delta / 2.0 * np.minimum(
                np.log((1.0 - r00) / r11), np.log((1.0 - r11) / r00)
            )
        )
        i, j = divmod(int(np.argmax(obj)), grid)
        trace.append((round_idx, float(centers[0, i]), float(centers[1, j]), float(obj[i, j])))
        width = (hi - lo) / grid
        center = centers[[0, 1], [i, j]]
        lo = np.maximum(0.0, center - width / 2.0)
        hi = np.minimum(1.0, center + width / 2.0)
    _, r00, r11, value = trace[-1]  # refinements >= 1
    return TwoTokenSolution(value=value, r00=r00, r11=r11, trace=tuple(trace))


def saddle_check(
    spec: NeighborhoodSpec,
    perturbations: int,
    magnitude: float,
    rng: np.random.Generator,
) -> bool:
    """Randomized local optimality audit of the closed-form kernel.

    Draws ``perturbations`` (a count) row-stochastic kernels within ``magnitude`` (a
    :func:`_real` float, entrywise) of the optimal kernel, renormalizes rows, and checks
    that none achieves a worst-case inner value above the closed-form rate (1e-9 slack).
    Kernels are turned into score tables by dividing each column by the anchor.
    """
    if spec.n > _MAX_SADDLE_N:
        raise TooLargeError(f"saddle audit supports n <= {_MAX_SADDLE_N}, got {spec.n}")
    perturbations = _count(perturbations, "perturbations", 0)
    magnitude = _real(magnitude, "magnitude")
    if not 0.0 <= 2.0 * magnitude < math.inf:
        raise BadParamsError(f"magnitude must be >= 0 and 2 * magnitude finite, got {magnitude!r}")
    r_star = kernel_of(optimal_evalue(spec), spec)
    target = jstar(spec)
    # each vertex's paths, built once for this audit and dropped with it
    paths = [_simple_paths(spec.n, pair.gain, pair.loss) for pair in enumerate_extremes(spec)]
    p0 = spec.anchor.weights
    for _ in range(perturbations):
        noise = rng.uniform(-magnitude, magnitude, size=(spec.n, spec.n))
        r = np.clip(r_star + noise, 1e-12, None)
        r /= r.sum(axis=1, keepdims=True)
        e = EValueTable(r / p0[np.newaxis, :])
        worst = min(value for value, _ in _inner_values(e, spec, paths))
        if worst > target + 1e-9:
            return False
    return True
