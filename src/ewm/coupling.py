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
import re
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice

import numpy as np

from .errors import BadWeightsError, FormatError, InvalidPathError
from .simplex import (
    EXACT_ATOL,
    ExtremePair,
    MixtureDecomposition,
    NeighborhoodSpec,
    VocabDistribution,
    _count,
    _dense,
    _freeze,
    _indices,
    _reals,
    _shown,
    enumerate_extremes,
    extreme_target,
    reconstruct_mixture,
)

# Entries more negative than this are construction bugs; above it they are
# floating-point cancellation dust and are clamped to zero.
NEG_CLAMP = 1e-14

# Guide-table buckets of [0, 1).  A power of two, so the bucket of the uniform a 64-bit
# word reads as, ``(w >> 11) * 2**-53``, is the word's top 12 bits.
_GUIDE = 4096
_BLOCK_CELLS = 16_384  # per bounded block: fixed-pair sweep, calibrate_null, generate, detect
_PLAIN_ROWS = re.compile(r"(?:[0-9]{1,18},[0-9]{1,18},[0-9]{1,18}\r?\n)+")  # csv, int() agree


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
    """Ordered distinct vocabulary indices (:func:`~ewm.simplex._indices`) u0 ... uK, K >= 1."""

    vertices: tuple[int, ...]

    def __post_init__(self):
        v = _indices(self.vertices, None, InvalidPathError)
        object.__setattr__(self, "vertices", v)
        if len(v) < 2:
            raise InvalidPathError(f"path needs at least 2 vertices, got {len(v)}")
        if len(set(v)) != len(v):
            raise InvalidPathError(f"path vertices must be distinct, got {v}")


def make_coupling(joint, target: VocabDistribution, anchor: VocabDistribution) -> CouplingMatrix:
    """Check a :func:`~ewm.simplex._reals` joint, clamp its dust and enforce the marginals."""
    w = _reals(joint, "joint", BadWeightsError)
    if w.ndim != 2 or w.shape != (target.n, anchor.n) or target.n != anchor.n:
        raise BadWeightsError(f"joint shape {w.shape} incompatible with n={anchor.n}")
    if (low := float(w.min())) < -NEG_CLAMP:
        raise BadWeightsError(f"joint entry {low!r} below clamp threshold -{NEG_CLAMP}")
    w[w < 0.0] = 0.0
    if float(np.abs(w.sum(axis=1) - target.weights).max()) > EXACT_ATOL:
        raise BadWeightsError("row marginal does not match the target")
    if float(np.abs(w.sum(axis=0) - anchor.weights).max()) > EXACT_ATOL:
        raise BadWeightsError("column marginal does not match the anchor")
    if abs(float(w.sum()) - 1.0) > EXACT_ATOL:
        raise BadWeightsError(f"total mass {float(w.sum())!r} differs from 1")
    return CouplingMatrix(joint=w, target=target, anchor=anchor)


def extreme_coupling(spec: NeighborhoodSpec, pair: ExtremePair) -> CouplingMatrix:
    """Optimal coupling for a vertex target: the single-hop path (gain, loss)."""
    target = extreme_target(spec, pair)  # checks the pair before it indexes the joint
    return make_coupling(_vertex_joints(spec, [pair])[0], target, spec.anchor)


def _vertex_joints(spec: NeighborhoodSpec, pairs: list[ExtremePair] | None) -> np.ndarray:
    """The ``(m, n, n)`` joints of in-range vertices ``pairs`` (None: every vertex, listed once the
    budget allows them), unchecked: ``diag(p0)`` with ``delta/2`` added at (gain, loss) and taken
    from (loss, loss), as :func:`path_coupling`."""
    m = len(pairs) if pairs is not None else spec.n * (spec.n - 1)
    _dense(m * spec.n**2, f"{m:,} vertex joints at n = {spec.n}")
    pairs = pairs if pairs is not None else enumerate_extremes(spec)
    (gain, loss), rows = np.array([(p.gain, p.loss) for p in pairs]).T, np.arange(len(pairs))
    w, half = np.tile(np.diag(spec.anchor.weights), (len(pairs), 1, 1)), spec.delta / 2.0
    w[rows, gain, loss] += half
    w[rows, loss, loss] -= half
    return w


def mixture_coupling(spec: NeighborhoodSpec, mix: MixtureDecomposition) -> CouplingMatrix:
    """Weight-average of vertex couplings, the weights (checked by the mixture) summing to 1;
    marginals are (reconstructed q, p0)."""
    if abs((total := float(np.sum([w for _, w in mix.terms]))) - 1.0) > EXACT_ATOL:
        raise BadWeightsError(f"mixture weights sum to {total!r}")
    target = reconstruct_mixture(spec, mix)  # checks each pair before its cells are indexed
    _dense(spec.n**2, f"a joint at n = {spec.n}")
    diagonal, half = np.zeros(spec.n), spec.delta / 2.0
    for pair, w in mix.terms:  # the vertex joints summed in term order, the same floats cell by
        (term := spec.anchor.weights.copy())[pair.loss] -= half  # cell: each one's diagonal,
        diagonal += w * term
    joint = np.diag(diagonal)
    for pair, w in mix.terms:  # then its one cell off the diagonal
        joint[pair.gain, pair.loss] += w * half
    return make_coupling(joint, target, spec.anchor)


def path_coupling(spec: NeighborhoodSpec, path: PathSpec) -> CouplingMatrix:
    """Chain the vertex shift along a simple path u0 -> ... -> uK.

    Each hop moves ``delta/2`` from (u_{i+1}, u_{i+1}) into (u_i, u_{i+1});
    the column perturbations cancel, so the seed marginal stays the anchor
    while the outcome marginal gains at u0 and loses at uK.
    """
    verts = _indices(path.vertices, spec.n, InvalidPathError)
    w, half = np.diag(spec.anchor.weights), spec.delta / 2.0
    for u, nxt in zip(verts[:-1], verts[1:]):
        w[u, nxt] += half
        w[nxt, nxt] -= half
    return make_coupling(w, extreme_target(spec, ExtremePair(verts[0], verts[-1])), spec.anchor)


def sample_pair(w: CouplingMatrix, rng: np.random.Generator) -> tuple[int, int]:
    """One exact draw: invert the CDF of the row-major flattened joint."""
    u = rng.random()
    idx = min(int(np.searchsorted(w.cdf, u, side="right")), w.n * w.n - 1)
    return divmod(idx, w.n)


def _cell_lookup(cdfs: np.ndarray, values: np.ndarray) -> Callable[..., np.ndarray]:
    """The one vectorized word-to-cell map over a stack of nondecreasing CDFs:
    ``lookup(w, rows=None)`` is a new array equal to ``values[min(searchsorted(cdfs[r], u,
    side="right"), len(values) - 1)]`` for each uint64 word ``w``, read as ``Generator.random``
    reads it, ``u = (w >> 11) * 2**-53``, and its row ``r`` of ``rows`` (broadcast; None: 0).

    A guide table (indexed search) holds, per row and bucket of ``_GUIDE`` equal parts of
    [0, 1) (a word's top 12 bits), the answer of the bucket's least float, or a mark (NaN for
    float values, -1 for int ones) where a CDF entry before the clamp lies inside the bucket:
    bucket ``floor(c * _GUIDE)`` unless that is whole.  ``searchsorted`` is monotone, so every
    float of an unmarked bucket has that answer; only words reading a mark become floats and
    are searched, so a value equal to the mark costs a search, never a wrong cell."""
    top, scaled = len(values) - 1, np.asarray(cdfs) * _GUIDE  # exact, by a power of two
    stack, cells = scaled.shape
    at = np.clip(np.ceil(scaled), 0, _GUIDE).astype(np.intp)  # first bucket with b / G >= c
    widths = np.diff(at, axis=1, prepend=0, append=_GUIDE).ravel()  # buckets per entry count
    guide = np.repeat(np.tile(values[np.minimum(np.arange(cells + 1), top)], stack), widths)
    edge, mark = np.floor(scaled), np.nan if values.dtype.kind == "f" else -1
    row, entry = np.nonzero((edge != scaled) & (edge >= 0) & (edge < _GUIDE)
                            & (np.arange(cells) < top))
    guide[row * _GUIDE + edge[row, entry].astype(np.intp)] = mark
    marked = np.isnan if mark != mark else (lambda out: out == mark)

    def lookup(w: np.ndarray, rows=None) -> np.ndarray:
        cell = (w >> np.uint64(52)).view(np.intp)  # the bucket, then its place in the stack
        if rows is not None:
            cell += rows * _GUIDE
        out = guide.take(cell)
        if (search := np.flatnonzero(marked(out))).size:
            us = (w.take(search) >> np.uint64(11)) * 2.0**-53  # numpy's double of the word
            if rows is None:
                found = np.searchsorted(cdfs[0], us, side="right")
            else:  # one search per row that holds a marked word
                row, found = cell.take(search) // _GUIDE, np.empty(us.size, np.intp)
                for r in np.unique(row):
                    found[row == r] = np.searchsorted(cdfs[r], us[row == r], side="right")
            out.put(search, values[np.minimum(found, top)])
        return out

    return lookup


def _stream_chunks(w: CouplingMatrix, steps: int, rng: np.random.Generator) -> Iterator[np.ndarray]:
    """``steps`` (a count, checked now) draws as int64 (row, column) cells, drawn as read in
    ``_BLOCK_CELLS`` chunks via one guide table: each ``random`` uniform made back into its word."""
    steps = _count(steps, "steps", 0)
    lookup = _cell_lookup(w.cdf[np.newaxis], np.arange(w.n * w.n, dtype=np.int64))
    words = ((rng.random(min(_BLOCK_CELLS, steps - lo)) * 2.0**53).astype(np.uint64)
             << np.uint64(11) for lo in range(0, steps, _BLOCK_CELLS))  # each uniform's, exactly
    return (np.stack(np.divmod(lookup(chunk), w.n), axis=1) for chunk in words)


def sample_stream(w: CouplingMatrix, steps: int, rng: np.random.Generator) -> np.ndarray:
    """``steps`` (a count) draws at once; consumes the stream exactly like repeated
    :func:`sample_pair`, so chunked and one-at-a-time sampling agree."""
    return np.concatenate([*_stream_chunks(w, steps, rng), np.empty((0, 2), np.int64)])


# -- CSV stream format --------------------------------------------------------

def write_stream_csv(fh: io.TextIOBase, pairs) -> None:
    """Header ``step,v,s`` then one row per draw, 0-based indices, written
    ``_BLOCK_CELLS`` rows at a time."""
    fh.write("step,v,s\n")
    rows = enumerate(pairs)
    while block := "".join(f"{t},{v},{s}\n" for t, (v, s) in islice(rows, _BLOCK_CELLS)):
        fh.write(block)


def read_stream_csv(fh: io.TextIOBase) -> Iterable[tuple[int, int]]:
    """The ``(v, s)`` pairs of a stream file, each parsed when read: keep ``fh`` open till then."""
    header = next(_csv_rows(fh), None)
    if header is None or [c.strip() for c in header] != ["step", "v", "s"]:
        raise FormatError("stream file must start with header 'step,v,s'")
    return _StreamRows(fh)


class _StreamRows:
    """A stream file past its header: its pairs, tuples of Python ints, or :meth:`take`'s blocks."""

    def __init__(self, fh):
        self._fh, self._pairs = fh, None  # the csv path, from the first block that is not plain

    def __iter__(self) -> Iterator[tuple[int, int]]:
        self._pairs = self._pairs or _stream_pairs(_csv_rows(self._fh))
        return self._pairs

    def take(self, count: int):
        """The next ``count`` pairs: one int64 ``(k, 2)`` parse while rows are plain, else csv's.
        Rows are matched ``_BLOCK_CELLS`` at a time, as a match keeps state for each row."""
        if self._pairs is None:
            lines = []
            try:
                lines.extend(islice(self._fh, count))
            except UnicodeDecodeError as exc:  # raised once csv has read the rows before it
                self._pairs = _stream_pairs(_csv_rows(lines, exc))
            else:
                if lines and all(_PLAIN_ROWS.fullmatch("".join(lines[i:i + _BLOCK_CELLS]))
                                 for i in range(0, len(lines), _BLOCK_CELLS)):
                    return np.loadtxt(lines, np.int64, comments=None, delimiter=",", ndmin=2)[:, 1:]
                self._fh = chain(lines, self._fh)
        return list(islice(iter(self), count))


def _csv_rows(lines, cut: Exception | None = None) -> Iterator[list[str]]:
    """csv's rows of ``lines``, then ``cut`` raised if given; a csv or decode error: FormatError."""
    try:
        yield from csv.reader(lines)
        if cut is not None:
            raise cut
    except (csv.Error, UnicodeDecodeError) as exc:
        raise FormatError(f"unreadable stream file: {exc}") from None


def _stream_pairs(rows) -> Iterator[tuple[int, int]]:
    for row in filter(None, rows):  # blank lines are skipped
        if len(row) != 3:
            raise FormatError(f"malformed stream row: {_shown(row)}")
        try:
            yield int(row[1]), int(row[2])
        except ValueError as exc:
            raise FormatError(f"non-integer stream row: {_shown(row)}") from exc
