"""Generator-side couplings with prescribed marginals.

A coupling is a joint distribution ``w`` over (outcome v, seed s) whose row
marginal is the target ``q`` and whose column marginal is the anchor ``p0``.
Sampling (v, s) from ``w`` is distortion-free (the outcome marginal equals the
target exactly) and model-agnostic (the seed marginal is the anchor regardless
of the target).

Three constructions cover every admissible target:

* :func:`path_coupling` -- chain a vertex shift along a simple path of
  vocabulary indices: each hop moves ``delta/2`` of mass from a diagonal cell
  into the cell beside it and keeps the rest of the diagonal at ``p0``.  Under
  the optimal score table every multi-hop chain is strictly worse (each extra
  hop costs ``log(delta/(2n-2)) - log(1 - delta/2) < 0``);
* :func:`extreme_coupling` -- the vertex coupling, which *is* the single-hop
  path (gain, loss): ``delta/2`` moves from (loss, loss) into (gain, loss);
* :func:`mixture_coupling` -- weighted sums of vertex couplings for targets
  decomposed into vertices.

Sampling draws one uniform per step and inverts the CDF of the row-major
flattened joint (:attr:`CouplingMatrix.cdf`), which is exact and reproducible
for a fixed seeded stream.
"""

from __future__ import annotations

import csv
import io
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import cached_property
from itertools import islice

import numpy as np

from .errors import BadParamsError, BadWeightsError, FormatError, InvalidPathError
from .simplex import (
    EXACT_ATOL,
    ExtremePair,
    MixtureDecomposition,
    NeighborhoodSpec,
    VocabDistribution,
    _check_pair,
    _freeze,
    extreme_target,
    reconstruct_mixture,
)

# Entries more negative than this are construction bugs; above it they are
# floating-point cancellation dust and are clamped to zero.
NEG_CLAMP = 1e-14

# Guide-table buckets of [0, 1).  A power of two, so ``u * _GUIDE`` is exact and
# its integer part is the bucket of ``u``; the least and greatest float of
# each bucket are precomputed once.
_GUIDE = 4096
_BUCKET_LOW = np.arange(_GUIDE) / _GUIDE
_BUCKET_HIGH = np.nextafter(_BUCKET_LOW + 1.0 / _GUIDE, 0.0)
_BLOCK_CELLS = 16_384  # uniforms per bounded block: fixed-pair sweep, calibrate_null, generate


@dataclass(frozen=True, eq=False)
class CouplingMatrix:
    """Joint distribution over (outcome, seed) with marginals (target, anchor)."""

    joint: np.ndarray
    target: VocabDistribution
    anchor: VocabDistribution

    def __post_init__(self):
        object.__setattr__(self, "joint", _freeze(self.joint))

    @property
    def n(self) -> int:
        return self.joint.shape[0]

    @cached_property
    def cdf(self) -> np.ndarray:
        """CDF of the row-major flattened joint, computed once per coupling
        and read-only; every sampler inverts it."""
        return _freeze(np.cumsum(self.joint.ravel()))


@dataclass(frozen=True)
class PathSpec:
    """Ordered distinct vocabulary indices u0 ... uK, K >= 1."""

    vertices: tuple[int, ...]

    def __post_init__(self):
        v = tuple(int(x) for x in self.vertices)
        object.__setattr__(self, "vertices", v)
        if len(v) < 2:
            raise InvalidPathError(f"path needs at least 2 vertices, got {len(v)}")
        if len(set(v)) != len(v):
            raise InvalidPathError(f"path vertices must be distinct, got {v}")
        if min(v) < 0:
            raise InvalidPathError(f"path vertices must be nonnegative, got {v}")


def make_coupling(joint, target: VocabDistribution, anchor: VocabDistribution) -> CouplingMatrix:
    """Clamp cancellation dust and enforce the marginal constraints."""
    w = np.array(joint, dtype=np.float64)
    if w.ndim != 2 or w.shape != (target.n, anchor.n) or target.n != anchor.n:
        raise BadWeightsError(f"joint shape {w.shape} incompatible with n={anchor.n}")
    low = float(w.min())
    if low < -NEG_CLAMP:
        raise BadWeightsError(f"joint entry {low!r} below clamp threshold -{NEG_CLAMP}")
    w[w < 0.0] = 0.0
    rows = w.sum(axis=1)
    cols = w.sum(axis=0)
    if float(np.abs(rows - target.weights).max()) > EXACT_ATOL:
        raise BadWeightsError("row marginal does not match the target")
    if float(np.abs(cols - anchor.weights).max()) > EXACT_ATOL:
        raise BadWeightsError("column marginal does not match the anchor")
    if abs(float(w.sum()) - 1.0) > EXACT_ATOL:
        raise BadWeightsError(f"total mass {float(w.sum())!r} differs from 1")
    return CouplingMatrix(joint=w, target=target, anchor=anchor)


def extreme_coupling(spec: NeighborhoodSpec, pair: ExtremePair) -> CouplingMatrix:
    """Optimal coupling for a vertex target: the single-hop path (gain, loss)."""
    _check_pair(spec, pair)
    return path_coupling(spec, PathSpec((pair.gain, pair.loss)))


def mixture_coupling(spec: NeighborhoodSpec, mix: MixtureDecomposition) -> CouplingMatrix:
    """Weight-average of vertex couplings; marginals are (reconstructed q, p0)."""
    if not mix.terms:
        raise BadWeightsError("mixture has no terms")
    if any(w < 0.0 for _, w in mix.terms):
        raise BadWeightsError("mixture weights must be nonnegative")
    if abs(mix.weight_sum() - 1.0) > EXACT_ATOL:
        raise BadWeightsError(f"mixture weights sum to {mix.weight_sum()!r}")
    joint = np.zeros((spec.n, spec.n))
    for pair, w in mix.terms:
        joint += w * extreme_coupling(spec, pair).joint
    return make_coupling(joint, reconstruct_mixture(spec, mix), spec.anchor)


def path_coupling(spec: NeighborhoodSpec, path: PathSpec) -> CouplingMatrix:
    """Chain the vertex shift along a simple path u0 -> ... -> uK.

    Each hop moves ``delta/2`` from (u_{i+1}, u_{i+1}) into (u_i, u_{i+1});
    the column perturbations cancel, so the seed marginal stays the anchor
    while the outcome marginal gains at u0 and loses at uK.
    """
    verts = path.vertices
    if max(verts) >= spec.n:
        raise InvalidPathError(f"path vertex {max(verts)} out of range for n={spec.n}")
    w = np.diag(spec.anchor.weights).astype(np.float64)
    half = spec.delta / 2.0
    for u, nxt in zip(verts[:-1], verts[1:]):
        w[u, nxt] += half
        w[nxt, nxt] -= half
    return make_coupling(w, extreme_target(spec, ExtremePair(verts[0], verts[-1])), spec.anchor)


def sample_pair(w: CouplingMatrix, rng: np.random.Generator) -> tuple[int, int]:
    """One exact draw: invert the CDF of the row-major flattened joint."""
    u = rng.random()
    idx = min(int(np.searchsorted(w.cdf, u, side="right")), w.n * w.n - 1)
    return divmod(idx, w.n)


def _cell_lookup(cdf: np.ndarray, values: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The one vectorized uniform-to-cell map: ``lookup(u)`` is a new array
    equal to ``values[min(searchsorted(cdf, u, side="right"), len(values) - 1)]``
    for a nondecreasing ``cdf``.  Every ``u`` must lie in [0, 1), as the
    draws of ``Generator.random`` do; outside it the bucket is out of range.

    A guide table (indexed search) holds the answer of every bucket of
    ``_GUIDE`` equal parts of [0, 1) whose least and greatest float land in
    the same cell; ``searchsorted`` is monotone, so every float between them
    does too.  Only uniforms in a bucket that straddles a CDF entry are
    searched, with the same comparisons."""
    top = len(values) - 1
    lo = np.minimum(np.searchsorted(cdf, _BUCKET_LOW, side="right"), top)
    hi = np.minimum(np.searchsorted(cdf, _BUCKET_HIGH, side="right"), top)
    guide, straddles = values[lo], lo != hi

    def lookup(u: np.ndarray) -> np.ndarray:
        bucket = (u * _GUIDE).astype(np.intp)
        out = guide[bucket]
        search = straddles[bucket]
        if search.any():
            out[search] = values[np.minimum(np.searchsorted(cdf, u[search], side="right"), top)]
        return out

    return lookup


def _pair_lookup(w: CouplingMatrix, steps: int) -> Callable[[np.ndarray], np.ndarray]:
    """The guide table from uniforms to ``w``'s row-major cells, once ``steps`` is checked."""
    if steps < 0:
        raise BadParamsError(f"steps must be >= 0, got {steps}")
    return _cell_lookup(w.cdf, np.arange(w.n * w.n, dtype=np.int64))


def _draw_pairs(lookup, n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` uniforms of ``rng`` mapped by ``lookup`` to ``(count, 2)`` pairs."""
    return np.stack(np.divmod(lookup(rng.random(count)), n), axis=1)


def _stream_chunks(w: CouplingMatrix, steps: int, rng: np.random.Generator) -> Iterator[np.ndarray]:
    """``steps`` draws, drawn as read in chunks of ``_BLOCK_CELLS`` through one guide table."""
    lookup = _pair_lookup(w, steps)
    return (_draw_pairs(lookup, w.n, min(_BLOCK_CELLS, steps - lo), rng)
            for lo in range(0, steps, _BLOCK_CELLS))


def sample_stream(w: CouplingMatrix, steps: int, rng: np.random.Generator) -> np.ndarray:
    """``steps`` draws at once; consumes the stream exactly like repeated
    :func:`sample_pair`, so chunked and one-at-a-time sampling agree."""
    return _draw_pairs(_pair_lookup(w, steps), w.n, steps, rng)


# -- CSV stream format --------------------------------------------------------

def write_stream_csv(fh: io.TextIOBase, pairs) -> None:
    """Header ``step,v,s`` then one row per draw, 0-based indices, written
    ``_BLOCK_CELLS`` rows at a time."""
    fh.write("step,v,s\n")
    rows = enumerate(pairs)
    while block := "".join(f"{t},{v},{s}\n" for t, (v, s) in islice(rows, _BLOCK_CELLS)):
        fh.write(block)


def read_stream_csv(fh: io.TextIOBase) -> list[tuple[int, int]]:
    reader = csv.reader(fh)
    header = next(reader, None)
    if header is None or [c.strip() for c in header] != ["step", "v", "s"]:
        raise FormatError("stream file must start with header 'step,v,s'")
    out = []
    for row in reader:
        if not row:
            continue
        if len(row) != 3:
            raise FormatError(f"malformed stream row: {row!r}")
        try:
            out.append((int(row[1]), int(row[2])))
        except ValueError as exc:
            raise FormatError(f"non-integer stream row: {row!r}") from exc
    return out
