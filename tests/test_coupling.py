import inspect
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ewm
from ewm.coupling import _GUIDE, _cell_lookup, _vertex_joints
from ewm.errors import BadWeightsError, FormatError, InvalidPairError, InvalidPathError
from ewm.simulation import _vertex_table

from conftest import path_gain, random_spec, random_target, spec_of


class TestExtremeCoupling:
    def test_three_symbols(self):
        w = ewm.extreme_coupling(spec_of([0.4, 0.3, 0.3], 0.1), ewm.ExtremePair(0, 2))
        expected = np.array([[0.4, 0.0, 0.05], [0.0, 0.3, 0.0], [0.0, 0.0, 0.25]])
        assert np.allclose(w.joint, expected, atol=1e-15)
        assert np.allclose(w.joint.sum(axis=1), [0.45, 0.3, 0.25], atol=1e-15)

    def test_fair_coin(self):
        w = ewm.extreme_coupling(spec_of([0.5, 0.5], 0.1), ewm.ExtremePair(0, 1))
        assert np.allclose(w.joint, [[0.5, 0.05], [0.0, 0.45]], atol=1e-15)

    def test_vanishing_radius_is_diagonal(self):
        spec = spec_of([0.5, 0.5], 1e-13)
        w = ewm.extreme_coupling(spec, ewm.ExtremePair(0, 1))
        assert np.abs(w.joint - np.diag([0.5, 0.5])).max() < 1e-12

    def test_invalid_pair(self):
        with pytest.raises(InvalidPairError):
            ewm.ExtremePair(1, 1)
        with pytest.raises(InvalidPairError):
            ewm.extreme_coupling(spec_of([0.5, 0.5], 0.1), ewm.ExtremePair(0, 2))

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6))
    def test_vertex_table_equals_the_path_couplings(self, seed, n):
        # one closed-form stack for every vertex, bit for bit the single-hop paths
        spec = random_spec(np.random.default_rng(seed), n=n)
        pairs = ewm.enumerate_extremes(spec)
        paths = [ewm.path_coupling(spec, ewm.PathSpec((p.gain, p.loss))) for p in pairs]
        joints = _vertex_joints(spec, pairs)
        assert joints.tobytes() == np.stack([w.joint for w in paths]).tobytes()
        cdfs = np.stack([w.cdf for w in paths])
        assert np.array(_vertex_table(spec, None)[3][1]).tobytes() == cdfs[:, :-1].tobytes()
        for pair, cdf in zip(pairs, cdfs):
            assert ewm.extreme_coupling(spec, pair).cdf.tobytes() == cdf.tobytes()
        for pair in (ewm.ExtremePair(0, n), ewm.ExtremePair(n, 0), ewm.ExtremePair(n + 3, n)):
            with pytest.raises(InvalidPairError):
                ewm.extreme_coupling(spec, pair)

    # once truncated to the (0, 1) vertex, or a raw TypeError
    @pytest.mark.parametrize("gain, loss", [(0.5, 1), ("1", 0), (-1, 0), (None, 1), (1.0, 0)])
    def test_non_index_is_an_invalid_pair(self, gain, loss):
        with pytest.raises(InvalidPairError):
            ewm.ExtremePair(gain, loss)
        with pytest.raises(InvalidPairError):
            ewm.FixedPair(gain, loss)

    def test_numpy_and_bool_indices_are_python_ints(self):
        pair = ewm.ExtremePair(np.int64(0), True)
        assert pair == ewm.ExtremePair(0, 1)
        assert type(pair.gain) is int and type(pair.loss) is int
        spec = spec_of([0.4, 0.3, 0.3], 0.1)
        assert np.array_equal(ewm.extreme_coupling(spec, pair).joint,
                              ewm.extreme_coupling(spec, ewm.ExtremePair(0, 1)).joint)


class TestMixtureCoupling:
    def test_single_term_degenerates(self):
        spec = spec_of([0.4, 0.3, 0.3], 0.1)
        pair = ewm.ExtremePair(1, 2)
        mix = ewm.MixtureDecomposition(terms=((pair, 1.0),))
        assert np.array_equal(
            ewm.mixture_coupling(spec, mix).joint, ewm.extreme_coupling(spec, pair).joint
        )

    def test_anchor_pad_average(self):
        # equal mixture of the two vertex couplings of a fair coin
        spec = spec_of([0.5, 0.5], 0.1)
        mix = ewm.decompose_target(spec, spec.anchor)
        w = ewm.mixture_coupling(spec, mix)
        assert np.allclose(w.joint, [[0.475, 0.025], [0.025, 0.475]], atol=1e-15)
        assert np.allclose(w.joint.sum(axis=0), [0.5, 0.5], atol=1e-15)
        assert np.allclose(w.joint.sum(axis=1), [0.5, 0.5], atol=1e-15)

    def test_marginals_follow_mixture(self):
        spec = spec_of([0.4, 0.3, 0.3], 0.1)
        mix = ewm.MixtureDecomposition(
            terms=((ewm.ExtremePair(0, 2), 0.6), (ewm.ExtremePair(1, 2), 0.4))
        )
        w = ewm.mixture_coupling(spec, mix)
        assert np.allclose(w.joint.sum(axis=1), [0.43, 0.32, 0.25], atol=1e-14)

    def test_terms_keep_each_pair_and_a_python_float_weight(self):
        mix = ewm.MixtureDecomposition([[PAIR, np.float64(0.25)], (REVERSED, 1)])
        assert mix.terms == ((PAIR, 0.25), (REVERSED, 1.0))
        assert [type(w) for _, w in mix.terms] == [float, float]

    def test_bad_weights(self):
        spec = spec_of([0.5, 0.5], 0.1)
        mix = ewm.MixtureDecomposition(terms=((ewm.ExtremePair(0, 1), 0.7),))
        with pytest.raises(BadWeightsError, match="sum to 0.7"):
            ewm.mixture_coupling(spec, mix)

    def test_mixture_linearity(self):
        rng = np.random.default_rng(10)
        mixes = [(spec := random_spec(rng), ewm.decompose_target(spec, random_target(rng, spec)))
                 for _ in range(20)]
        # 80 terms drawn with repeats from a 12-symbol ball's 132 vertices, and one pair thrice
        pairs = ewm.enumerate_extremes(spec := random_spec(rng, n=12))
        for terms in (zip([pairs[k] for k in rng.integers(len(pairs), size=80)],
                          rng.dirichlet(np.ones(80))),
                      zip([pairs[5], pairs[5], pairs[0], pairs[5]], (0.3, 0.2, 0.1, 0.4))):
            mixes.append((spec, ewm.MixtureDecomposition(tuple(terms))))
        for spec, mix in mixes:
            w = ewm.mixture_coupling(spec, mix)
            manual = sum(
                wt * ewm.extreme_coupling(spec, pair).joint for pair, wt in mix.terms
            )
            assert np.array_equal(w.joint, manual)


HALF = ewm.make_distribution([0.5, 0.5])
TILTED = ewm.make_distribution([0.6, 0.4])
PAIR, REVERSED = ewm.ExtremePair(0, 1), ewm.ExtremePair(1, 0)

# refusal -> (call, message fragment): each check of make_coupling, mixture_coupling and
# MixtureDecomposition that no valid coupling reaches, every one a BadWeightsError
COUPLING_REFUSALS = {
    "joint-shape": (lambda: ewm.make_coupling(np.full((2, 3), 1 / 6), HALF, HALF),
                    "joint shape (2, 3) incompatible with n=2"),
    # marginals (0.5, 0.5) and (0.25, ...) hold; only the vocabulary sizes differ
    "sizes-differ": (lambda: ewm.make_coupling(np.full((2, 4), 1 / 8), HALF,
                                               ewm.make_distribution([0.25] * 4)),
                     "joint shape (2, 4) incompatible with n=4"),
    "below-clamp": (lambda: ewm.make_coupling([[0.5, 1e-13], [-1e-13, 0.5]], HALF, HALF),
                    "below clamp threshold"),
    "row-marginal": (lambda: ewm.make_coupling(np.diag([0.5, 0.5]), TILTED, HALF),
                     "row marginal does not match the target"),
    "column-marginal": (lambda: ewm.make_coupling(np.diag([0.6, 0.4]), TILTED, HALF),
                        "column marginal does not match the anchor"),
    # each marginal is off by 0.9 EXACT_ATOL, within its check; the total is off by 1.8
    "total-mass": (lambda: ewm.make_coupling(np.eye(2) * (0.5 + 0.9 * ewm.EXACT_ATOL), HALF,
                                             HALF), "differs from 1"),
    "no-terms": (lambda: ewm.mixture_coupling(spec_of([0.5, 0.5], 0.1),
                                              ewm.MixtureDecomposition(terms=())),
                 "mixture has no terms"),
    "negative-weight": (lambda: ewm.mixture_coupling(spec_of([0.5, 0.5], 0.1),
                                                     ewm.MixtureDecomposition(
                                                         terms=((PAIR, 1.5), (REVERSED, -0.5)))),
                        "mixture weights must be nonnegative"),
    # the NaN joint and the NaN weight were accepted, and sampled as cell 0; the texts were
    # raw ValueError and TypeError
    "nan-joint": (lambda: ewm.make_coupling(np.full((2, 2), np.nan), HALF, HALF),
                  "joint must be finite"),
    "text-joint": (lambda: ewm.make_coupling("x", HALF, HALF), "joint must be numbers, got 'x'"),
    "nan-weight": (lambda: ewm.mixture_coupling(spec_of([0.5, 0.5], 0.1),
                                                ewm.MixtureDecomposition(
                                                    terms=((PAIR, np.nan), (REVERSED, 1.0)))),
                   "mixture weights must be finite"),
    "text-weight": (lambda: ewm.mixture_coupling(spec_of([0.5, 0.5], 0.1),
                                                 ewm.MixtureDecomposition(
                                                     terms=((PAIR, "a"), (REVERSED, 0.5)))),
                    "mixture weights must be numbers"),
    # the nested weights summed to 1 and then raised a raw TypeError; reconstruct_mixture read
    # its weights unchecked, to [nan nan] and to [0.35 0.65] outside the ball; a tuple for a
    # pair was a raw AttributeError
    "nested-weight": (lambda: ewm.mixture_coupling(spec_of([0.5, 0.5], 0.1),
                                                   ewm.MixtureDecomposition(
                                                       terms=((PAIR, [0.5]), (REVERSED, [0.5])))),
                      "mixture weights must be nonnegative, one number per term"),
    "nan-weight-reconstructed": (lambda: ewm.reconstruct_mixture(
        spec_of([0.5, 0.5], 0.1), ewm.MixtureDecomposition(terms=((PAIR, np.nan),))),
        "mixture weights must be finite"),
    "negative-weight-reconstructed": (lambda: ewm.reconstruct_mixture(
        spec_of([0.5, 0.5], 0.1), ewm.MixtureDecomposition(terms=((PAIR, -3.0),))),
        "mixture weights must be nonnegative"),
    # weights summing past 1 reconstructed to [0.75 0.25], outside the ball
    "weights-past-one-reconstructed": (lambda: ewm.reconstruct_mixture(
        spec_of([0.5, 0.5], 0.1), ewm.MixtureDecomposition(terms=((PAIR, 5.0),))),
        "mixture weights sum to 5.0, past 1"),
    "tuple-pair": (lambda: ewm.mixture_coupling(spec_of([0.5, 0.5], 0.1),
                                                ewm.MixtureDecomposition(terms=(((0, 1), 1.0),))),
                   "mixture terms must be (pair, weight), got (((0, 1), 1.0),)"),
}


class TestCouplingRefusals:
    @pytest.mark.parametrize("refusal", sorted(COUPLING_REFUSALS))
    def test_refused_with_a_typed_error(self, refusal):
        call, fragment = COUPLING_REFUSALS[refusal]
        with pytest.raises(BadWeightsError, match=re.escape(fragment)):
            call()

    def test_dust_within_the_clamp_is_zeroed(self):
        w = ewm.make_coupling([[0.5, 1e-15], [-1e-15, 0.5]], HALF, HALF)
        assert w.joint.min() == 0.0


class TestPathCoupling:
    def test_single_hop_equals_extreme(self):
        spec = spec_of([0.4, 0.3, 0.3], 0.1)
        via_path = ewm.path_coupling(spec, ewm.PathSpec((0, 2)))
        via_pair = ewm.extreme_coupling(spec, ewm.ExtremePair(0, 2))
        assert np.array_equal(via_path.joint, via_pair.joint)

    def test_two_hop(self):
        spec = spec_of([0.4, 0.3, 0.3], 0.1)
        w = ewm.path_coupling(spec, ewm.PathSpec((0, 1, 2)))
        expected = np.array([[0.4, 0.05, 0.0], [0.0, 0.25, 0.05], [0.0, 0.0, 0.25]])
        assert np.allclose(w.joint, expected, atol=1e-15)
        assert np.allclose(w.joint.sum(axis=1), [0.45, 0.3, 0.25], atol=1e-15)

    def test_column_sums_always_anchor(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            spec = random_spec(rng, n_min=3, n_max=6)
            length = int(rng.integers(2, spec.n + 1))
            verts = tuple(int(x) for x in rng.permutation(spec.n)[:length])
            w = ewm.path_coupling(spec, ewm.PathSpec(verts))
            assert np.abs(w.joint.sum(axis=0) - spec.anchor.weights).max() < 1e-12

    def test_repeated_vertex_rejected(self):
        with pytest.raises(InvalidPathError):
            ewm.PathSpec((0, 1, 0))
        with pytest.raises(InvalidPathError):
            ewm.PathSpec((2,))
        with pytest.raises(InvalidPathError):
            ewm.PathSpec((0, -1))  # not the path (0, n - 1)

    @pytest.mark.parametrize("verts", [(0.5, 1), (0, "2"), (0, None), 3])
    def test_non_index_vertex_rejected(self, verts):
        with pytest.raises(InvalidPathError):  # (0.5, 1) was once truncated to (0, 1)
            ewm.PathSpec(verts)

    def test_out_of_range_vertex_rejected(self):
        spec = spec_of([0.4, 0.3, 0.3], 0.1)
        path = ewm.PathSpec((np.int64(0), True, 3))
        assert path.vertices == (0, 1, 3) and all(type(v) is int for v in path.vertices)
        with pytest.raises(InvalidPathError):
            ewm.path_coupling(spec, path)


class TestSampling:
    def test_cdf_is_cached_and_read_only(self):
        w = ewm.extreme_coupling(spec_of([0.4, 0.3, 0.3], 0.1), ewm.ExtremePair(0, 2))
        assert w.cdf is w.cdf
        assert np.array_equal(w.cdf, np.cumsum(w.joint.ravel()))
        with pytest.raises(ValueError):
            w.cdf[0] = 0.0

    def test_diagonal_coupling_always_matches(self):
        spec = spec_of([0.4, 0.3, 0.3], 1e-13)
        w = ewm.extreme_coupling(spec, ewm.ExtremePair(0, 1))
        rng = ewm.trial_rng(1)
        for _ in range(200):
            v, s = ewm.sample_pair(w, rng)
            assert v == s

    def test_point_mass(self):
        target = ewm.make_distribution([1.0, 0.0])
        anchor = ewm.make_distribution([0.0, 1.0])
        w = ewm.make_coupling([[0.0, 1.0], [0.0, 0.0]], target, anchor)
        rng = ewm.trial_rng(2)
        assert all(ewm.sample_pair(w, rng) == (0, 1) for _ in range(50))

    def test_off_diagonal_frequency(self):
        # the delta/2 cell of a vertex coupling shows up at its exact rate
        spec = spec_of([0.5, 0.5], 0.1)
        w = ewm.extreme_coupling(spec, ewm.ExtremePair(0, 1))
        draws = ewm.sample_stream(w, 10**6, ewm.trial_rng(3))
        freq = np.mean((draws[:, 0] == 0) & (draws[:, 1] == 1))
        assert abs(freq - 0.05) < 0.001

    def test_stream_matches_single_draws(self):
        spec = spec_of([0.4, 0.3, 0.3], 0.1)
        w = ewm.extreme_coupling(spec, ewm.ExtremePair(2, 0))
        chunked = ewm.sample_stream(w, 64, ewm.trial_rng(4))
        rng = ewm.trial_rng(4)
        singles = [ewm.sample_pair(w, rng) for _ in range(64)]
        assert [tuple(row) for row in chunked] == singles

    def test_stream_matches_single_draws_of_any_generator(self):
        # MT19937 makes one double of two 32-bit outputs, so its words are never read raw
        spec = spec_of([0.4, 0.3, 0.3], 0.1)
        w = ewm.extreme_coupling(spec, ewm.ExtremePair(2, 0))
        chunked = ewm.sample_stream(w, 300, np.random.Generator(np.random.MT19937(5)))
        rng = np.random.Generator(np.random.MT19937(5))
        singles = [ewm.sample_pair(w, rng) for _ in range(300)]
        assert [tuple(row) for row in chunked] == singles
        assert len(set(singles)) > 3

    def test_same_seed_same_pair(self):
        spec = spec_of([0.4, 0.3, 0.3], 0.1)
        w = ewm.extreme_coupling(spec, ewm.ExtremePair(1, 0))
        assert ewm.sample_pair(w, ewm.trial_rng(5)) == ewm.sample_pair(w, ewm.trial_rng(5))


@st.composite
def joint_cdfs(draw):
    """The CDF of a row-major joint of up to 70 x 70 cells, so past ``_GUIDE``
    cells: random masses, some or most of them zero, a total that may round
    below 1, and some entries moved onto a bucket edge or a float next to one."""
    side = st.integers(1, 70) | st.just(70)
    cells = draw(side) * draw(side)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mass = rng.random(cells)
    mass[rng.random(cells) < draw(st.sampled_from([0.0, 0.5, 0.95]))] = 0.0
    cdf = np.cumsum(mass) / (mass.sum() or 1.0)
    cdf *= draw(st.sampled_from([1.0, 1.0 - 2.0**-53, 1.0 - 1e-9, 0.75]))
    snap = rng.choice(cells, size=draw(st.integers(0, min(cells, 64))), replace=False)
    edges = np.round(cdf[snap] * _GUIDE) / _GUIDE
    cdf[snap] = np.nextafter(edges, edges + rng.integers(-1, 2, snap.size))
    return np.sort(cdf), rng.permutation(cells)


def adversarial_words(cdf):
    """The first and last word of every bucket, and ``floor`` and ``ceil`` of ``c * 2**53``
    for every CDF entry ``c`` below 1, shifted left by 11 with the low 11 bits all 0 and
    all 1, and the first and last word overall."""
    buckets = np.arange(_GUIDE, dtype=np.uint64) << np.uint64(52)
    scaled = np.concatenate([np.floor(cdf * 2.0**53), np.ceil(cdf * 2.0**53)])
    high = scaled[scaled < 2.0**53].astype(np.uint64) << np.uint64(11)
    low = np.concatenate([buckets, high, [0]]).astype(np.uint64)
    ones = np.concatenate([buckets | np.uint64(2**52 - 1), high | np.uint64(2**11 - 1),
                           [2**64 - 1]]).astype(np.uint64)
    return np.concatenate([low, ones])


def clamped_search(cdf, values, words):
    u = (words >> np.uint64(11)) * 2.0**-53  # the uniform Generator.random makes of a word
    return values[np.minimum(np.searchsorted(cdf, u, side="right"), values.size - 1)]


def straddling(cdfs, top):
    """Where a bucket's least and greatest float, ``b / G`` and ``(b + 1) / G`` less a float,
    see different CDF entries (counts clamped at ``top``): the guide's marks, built the long way."""
    def at_most(edge, c):
        return np.searchsorted(np.clip(edge(c * _GUIDE), 0, _GUIDE), np.arange(_GUIDE), "right")
    return np.stack([np.minimum(at_most(np.ceil, c), top) != np.minimum(at_most(np.floor, c), top)
                     for c in cdfs])


def same(got, want):
    return got.dtype == want.dtype and np.array_equal(got, want, equal_nan=True)


class TestCellLookup:
    @settings(max_examples=150, deadline=None)
    @given(joint_cdfs(), st.integers(0, 2**32 - 1), st.sampled_from([-1, np.nan]))
    def test_equals_clamped_searchsorted(self, table, seed, mark):
        cdf, cells = table
        rng = np.random.default_rng(seed)
        # int or float values, a quarter of them equal to the guide's mark for their kind
        values = np.where(rng.random(cells.size) < 0.25, mark, cells if mark == -1 else cells / 3)
        w = np.concatenate([adversarial_words(cdf), rng.bit_generator.random_raw(999)])
        expected = clamped_search(cdf, values, w)
        lookup = _cell_lookup(cdf[np.newaxis], values)
        assert same(lookup(w), expected)
        rows = w[: w.size // 3 * 3].reshape(3, -1)
        assert same(lookup(rows), expected[: rows.size].reshape(rows.shape))
        # a stack of CDFs, each word looked up in the row it names
        stack = np.stack([cdf, cdf**2, np.zeros_like(cdf)])
        which = rng.integers(0, 3, w.size)
        named = np.stack([clamped_search(c, values, w) for c in stack])[which, np.arange(w.size)]
        stacked = _cell_lookup(stack, values)
        assert same(stacked(w, which), named)
        assert same(stacked(rows, which[: rows.size].reshape(rows.shape)),
                    named[: rows.size].reshape(rows.shape))
        for bits in (0, 2**11 - 1, 0x5A5):  # the low 11 bits never reach the uniform
            shifted = w >> np.uint64(11) << np.uint64(11) | np.uint64(bits)
            assert same(lookup(shifted), expected)
            assert same(stacked(shifted, which), named)
        # with no value equal to the mark, the guide marks exactly the straddling buckets
        clean = cells if mark == -1 else cells / 3
        for cdfs in (cdf[np.newaxis], stack):
            guide = inspect.getclosurevars(_cell_lookup(cdfs, clean)).nonlocals["guide"]
            marked = np.isnan(guide) if mark != mark else guide == -1
            expected = straddling(cdfs, cells.size - 1)
            assert np.array_equal(marked.reshape(len(cdfs), _GUIDE), expected)


class TestMarginalGuarantees:
    def test_distortion_free_and_model_agnostic(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            spec = random_spec(rng)
            q = random_target(rng, spec)
            w = ewm.mixture_coupling(spec, ewm.decompose_target(spec, q))
            assert np.abs(w.joint.sum(axis=1) - q.weights).max() < 1e-12
            assert np.abs(w.joint.sum(axis=0) - spec.anchor.weights).max() < 1e-12

    def test_sampled_outcome_marginal(self):
        spec = spec_of([0.4, 0.3, 0.3], 0.1)
        q = ewm.make_distribution([0.43, 0.32, 0.25])
        w = ewm.mixture_coupling(spec, ewm.decompose_target(spec, q))
        draws = ewm.sample_stream(w, 10**5, ewm.trial_rng(6))
        counts = np.bincount(draws[:, 0], minlength=3) / draws.shape[0]
        bands = 4.0 * np.sqrt(q.weights * (1.0 - q.weights) / draws.shape[0])
        assert np.all(np.abs(counts - q.weights) <= bands)


class TestSingleHopDominance:
    def test_multi_hop_paths_lose_under_optimal_scores(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            spec = random_spec(rng, n_min=3, n_max=5)
            e = ewm.optimal_evalue(spec)
            for pair in ewm.enumerate_extremes(spec):
                direct = path_gain(e, (pair.gain, pair.loss))
                mid = next(x for x in range(spec.n) if x not in (pair.gain, pair.loss))
                detour = path_gain(e, (pair.gain, mid, pair.loss))
                assert detour < direct


class TestStreamCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "stream.csv"
        pairs = [(0, 1), (2, 2), (1, 0)]
        with open(path, "w", newline="") as fh:
            ewm.write_stream_csv(fh, pairs)
        with open(path, newline="") as fh:
            assert list(ewm.read_stream_csv(fh)) == pairs
        text = path.read_text()
        assert text.startswith("step,v,s\n")
        assert "\r" not in text

    def test_header_required(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1,2\n")
        with pytest.raises(FormatError):
            with open(path, newline="") as fh:
                ewm.read_stream_csv(fh)
