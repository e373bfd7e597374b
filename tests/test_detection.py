import csv
import io
import math
from fractions import Fraction
from itertools import accumulate

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ewm
from ewm.coupling import _BLOCK_CELLS
from ewm.detection import _blocks, _log_tail, _rejections, _schedule
from ewm.errors import (
    AlreadyStoppedError,
    BadAlphaError,
    BadParamsError,
    EmptyStreamError,
    EwmError,
    FormatError,
    IndexOutOfRangeError,
)
from ewm.simplex import _shown

from conftest import random_spec


def spec_of(weights, delta):
    return ewm.make_neighborhood(ewm.make_distribution(weights), delta)


def fair_table():
    return ewm.optimal_evalue(spec_of([0.5, 0.5], 0.1))


class TestInitDetector:
    def test_threshold_ln_fifty(self):
        state = ewm.init_detector(fair_table(), 0.02)
        assert abs(state.threshold - 3.912023) < 5e-7
        assert state.wealth == 0.0 and state.steps == 0 and state.running

    def test_threshold_tiny_alpha(self):
        state = ewm.init_detector(fair_table(), 1e-120)
        assert abs(state.threshold - 276.3102) < 5e-5

    def test_bad_alpha(self):
        for alpha in (1.5, 0.0, 1.0, -0.1, 1e-320):
            with pytest.raises(BadAlphaError):
                ewm.init_detector(fair_table(), alpha)


class TestObserve:
    def test_diagonal_increment(self):
        e = fair_table()
        state = ewm.observe(ewm.init_detector(e, 0.02), e, 0, 0)
        assert abs(state.wealth - 0.641854) < 5e-7

    def test_off_diagonal_increment(self):
        e = fair_table()
        state = ewm.observe(ewm.init_detector(e, 0.02), e, 0, 1)
        assert abs(state.wealth - (-2.302585)) < 5e-7

    def test_below_threshold_keeps_running(self):
        e = fair_table()
        state = ewm.observe(ewm.init_detector(e, 0.5), e, 0, 0)
        assert state.running  # 0.6419 < ln 2 = 0.6931

    def test_rejects_and_locks(self):
        e = fair_table()
        state = ewm.init_detector(e, 0.5)
        state = ewm.observe(state, e, 0, 0)
        state = ewm.observe(state, e, 1, 1)
        assert state.rejected_at == 2
        with pytest.raises(AlreadyStoppedError):
            ewm.observe(state, e, 0, 0)

    def test_index_out_of_range(self):
        e = fair_table()
        with pytest.raises(IndexOutOfRangeError):
            ewm.observe(ewm.init_detector(e, 0.1), e, 2, 0)

    def test_wealth_recomputes_from_log(self):
        rng = np.random.default_rng(20)
        spec = random_spec(rng)
        e = ewm.optimal_evalue(spec)
        state = ewm.init_detector(e, 1e-9)
        observed = []
        for _ in range(200):
            v = int(rng.integers(spec.n))
            s = int(rng.integers(spec.n))
            if not state.running:
                break
            state = ewm.observe(state, e, v, s)
            observed.append((v, s))
        recomputed = sum(math.log(e.scores[v, s]) for v, s in observed)
        assert abs(state.wealth - recomputed) < 1e-9


class TestWorstNullMatchProb:
    def test_fair_coin(self):
        assert abs(ewm.worst_null_match_prob(spec_of([0.5, 0.5], 0.1)) - 0.5) < 1e-15

    def test_skewed(self):
        assert abs(ewm.worst_null_match_prob(spec_of([0.75, 0.25], 0.1)) - 0.65) < 1e-15

    def test_tiny_radius_approaches_self_match(self):
        spec = spec_of([0.4, 0.3, 0.3], 1e-12)
        p0 = spec.anchor.weights
        assert abs(ewm.worst_null_match_prob(spec) - float(p0 @ p0)) < 1e-12

    def test_equals_the_vertex_maximum_bit_for_bit(self):
        rng = np.random.default_rng(8)
        for _ in range(500):
            spec = random_spec(rng)
            p0 = spec.anchor.weights
            expected = float(p0 @ p0 + spec.delta / 2.0 * (p0.max() - p0.min()))  # once inline
            assert ewm.worst_null_match_prob(spec) == expected
            vertices = [ewm.extreme_target(spec, pair).weights @ p0
                        for pair in ewm.enumerate_extremes(spec)]
            assert abs(expected - max(vertices)) < 1e-12


class TestBaseline:
    def test_single_match_keeps_running(self):
        state = ewm.baseline_observe(ewm.init_baseline(0.05, 0.5), 1, 1)
        assert state.running and state.matches == 1  # p_1 = 0.5 >= 0.025

    def test_ten_straight_matches_still_running(self):
        state = ewm.init_baseline(0.05, 0.5)
        for _ in range(10):
            state = ewm.baseline_observe(state, 0, 0)
        assert state.running  # 2^-10 ~ 9.77e-4 >= 0.05/110 ~ 4.55e-4

    def test_twelve_straight_matches_reject(self):
        state = ewm.init_baseline(0.05, 0.5)
        for _ in range(12):
            state = ewm.baseline_observe(state, 0, 0)
        assert state.rejected_at == 12  # 2^-12 ~ 2.44e-4 < 0.05/156 ~ 3.21e-4
        with pytest.raises(AlreadyStoppedError):
            ewm.baseline_observe(state, 0, 0)

    @pytest.mark.parametrize("pbar", [0.0, -0.25, 1.0 + 1e-12, 2.0])
    def test_null_match_probability_outside_the_unit_interval_refused(self, pbar):
        with pytest.raises(BadParamsError, match=r"must lie in \(0, 1\], got"):
            ewm.init_baseline(0.05, pbar)

    def test_null_match_probability_one_is_accepted(self):
        assert ewm.init_baseline(0.05, 1.0).null_match_prob == 1.0

    def test_schedule_telescopes_to_alpha(self):
        alpha = 0.05
        partial = sum(alpha / (k * (k + 1)) for k in range(1, 10_001))
        assert partial < alpha
        assert abs(partial - alpha * (1.0 - 1.0 / 10_001)) < 1e-15

    def test_null_false_positive_rate_bounded(self):
        # v and s independent with q = p0: rejections must stay below alpha
        from scipy.stats import binom

        spec = spec_of([0.5, 0.5], 0.1)
        pbar = ewm.worst_null_match_prob(spec)
        alpha, trials, horizon = 0.05, 2000, 40
        rng = ewm.trial_rng(55)
        v = (rng.random((trials, horizon)) < 0.5).astype(int)
        s = (rng.random((trials, horizon)) < 0.5).astype(int)
        matches = np.cumsum(v == s, axis=1)
        k = np.arange(1, horizon + 1)
        p_k = binom.sf(matches - 1, k, pbar)
        rejected = np.any(p_k < alpha / (k * (k + 1.0)), axis=1)
        rate = float(rejected.mean())
        assert rate <= alpha + 3.0 * math.sqrt(alpha * (1.0 - alpha) / trials)


class TestBatchDetect:
    def test_diagonal_stream_stops_at_seven(self):
        e = fair_table()
        report = ewm.batch_detect(e, 0.02, [(0, 0)] * 20, 20)
        assert report.decision == "rejected"
        assert report.stop_step == 7  # ceil(3.912 / 0.6419)
        assert report.wealth >= report.threshold

    def test_off_diagonal_stream_undecided(self):
        e = fair_table()
        report = ewm.batch_detect(e, 0.02, [(0, 1)] * 50, 50)
        assert report.decision == "undecided"
        assert report.stop_step is None

    def test_empty_stream(self):
        with pytest.raises(EmptyStreamError):
            ewm.batch_detect(fair_table(), 0.02, [], 5)

    def test_bad_budget(self):
        with pytest.raises(BadParamsError):
            ewm.batch_detect(fair_table(), 0.02, [(0, 0)], 0)

    def test_budget_truncates(self):
        e = fair_table()
        report = ewm.batch_detect(e, 0.02, [(0, 0)] * 20, 3)
        assert report.decision == "undecided" and report.steps == 3

    def test_budget_beyond_sys_maxsize(self):
        pbar = ewm.worst_null_match_prob(spec_of([0.5, 0.5], 0.1))
        report = ewm.batch_detect(fair_table(), 0.02, [(0, 1)] * 20, 2**64)
        assert report.decision == "undecided" and report.steps == 20
        assert ewm.baseline_batch_detect(0.02, pbar, [(0, 1)] * 20, 2**64).steps == 20

    def test_stream_is_read_only_as_far_as_needed(self):
        def pairs(pair, clean):  # fails when read past ``clean`` pairs
            yield from [pair] * clean
            raise AssertionError("read past the budget or the stopping block")

        e = fair_table()
        pbar = ewm.worst_null_match_prob(spec_of([0.5, 0.5], 0.1))
        assert ewm.batch_detect(e, 0.02, pairs((0, 1), 10), 10).steps == 10
        assert ewm.baseline_batch_detect(0.02, pbar, pairs((0, 1), 10), 10, n=2).steps == 10
        # a stop at step 7 ends the reading with the first block of 128 pairs
        assert ewm.batch_detect(e, 0.02, pairs((0, 0), 128), None).stop_step == 7
        report = ewm.batch_detect(e, 0.02, [(0, 1)] * 300, None)  # None: the whole stream
        assert report.decision == "undecided" and report.steps == 300


def fold(alpha, pairs, e=None, pbar=None):
    """Stepwise reference: observe (or baseline_observe) until rejection."""
    if e is not None:
        state, step = ewm.init_detector(e, alpha), lambda st, v, s: ewm.observe(st, e, v, s)
    else:
        state, step = ewm.init_baseline(alpha, pbar), ewm.baseline_observe
    for v, s in pairs:
        state = step(state, v, s)
        if not state.running:
            break
    return state


def checked(pairs, n):
    """``pairs``, raising when a pair is read that is not two vocabulary indices:
    Python or numpy integers (a bool is one), nonnegative and, with ``n``, below it."""
    for v, s in pairs:
        if not all(isinstance(x, (int, np.integer)) and x >= 0 and (n is None or x < n)
                   for x in (v, s)):
            raise IndexOutOfRangeError(f"pair ({v!r}, {s!r}) is not two indices below {n}")
        yield v, s


SPECS = {2: spec_of([0.5, 0.5], 0.3), 3: spec_of([0.4, 0.3, 0.3], 0.2)}


@st.composite
def detection_cases(draw):
    """(n, pairs, budget, alpha): up to 1,100 pairs, so stops and reads cross the
    block edges at 128, 384 and 896, and at times one pair that is not two
    vocabulary indices below n (0.9 and "1" were once truncated or parsed)."""
    n = draw(st.sampled_from([2, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    length = int(rng.integers(0, 1101))
    s = rng.integers(n, size=length)
    # v is set to s at a drawn rate; at 0.45-0.6 the wealth drifts slowly, so stops come late
    rate = rng.uniform(0.45, 0.6) if draw(st.booleans()) else draw(st.floats(0.0, 1.0))
    v = np.where(rng.random(length) < rate, s, rng.integers(n, size=length))
    pairs = list(zip(v.tolist(), s.tolist()))
    if draw(st.integers(0, 2)) == 0:
        bad = draw(st.sampled_from([n, -1, -5, 2**70, 0.9, "1"]))
        pairs.insert(draw(st.integers(0, length)), (bad, 0) if draw(st.booleans()) else (0, bad))
    budget = None if draw(st.booleans()) else int(rng.integers(1, len(pairs) + 4))
    return n, pairs, budget, draw(st.sampled_from([0.5, 0.02, 1e-30]))


def exact_steps(monkeypatch):
    """The list to which each later exact scalar tail, ``_log_tail``, appends its ``(m, k)``."""
    from ewm import detection

    steps = []

    def recording(m, k, p):
        steps.append((m, k))
        return _log_tail(m, k, p)

    monkeypatch.setattr(detection, "_log_tail", recording)
    return steps


class TestBatchMatchesFold:
    SPEC = spec_of([0.5, 0.5], 0.3)  # criterion 9

    def streams(self):
        rng = np.random.default_rng(5)
        w = ewm.extreme_coupling(self.SPEC, ewm.ExtremePair(0, 1))
        marked = [tuple(map(int, p)) for p in ewm.sample_stream(w, 600, ewm.trial_rng(8))]
        null = [tuple(map(int, p)) for p in rng.integers(2, size=(600, 2))]
        return marked, null

    def test_evalue_reports_equal_the_fold(self):
        e = ewm.optimal_evalue(self.SPEC)
        for pairs in self.streams():
            for budget in (len(pairs), 40):
                report = ewm.batch_detect(e, 0.02, pairs, budget)
                state = fold(0.02, pairs[:budget], e=e)
                assert (report.stop_step, report.steps) == (state.rejected_at, state.steps)
                assert report.wealth == state.wealth and report.threshold == state.threshold

    def test_baseline_reports_equal_the_fold(self):
        pbar = ewm.worst_null_match_prob(self.SPEC)
        decisions = set()
        for pairs in self.streams():
            report = ewm.baseline_batch_detect(0.02, pbar, pairs, len(pairs), n=2)
            state = fold(0.02, pairs, pbar=pbar)
            assert (report.stop_step, report.steps) == (state.rejected_at, state.steps)
            assert math.isnan(report.wealth) and math.isnan(report.threshold)
            decisions.add(report.decision)
        assert decisions == {"rejected", "undecided"}

    def test_baseline_fold_hovering_at_the_null_match_rate(self):
        # matches step across k * pbar (0.345) and back, so the fold's screen and tail test
        # alternate; 3 sqrt(k) above it, the baseline rejects
        pbar = ewm.worst_null_match_prob(spec_of([0.4, 0.3, 0.3], 0.1))
        for lift, stop in ((0.0, None), (3.0, 8)):
            pairs, matches = [], 0
            for k in range(1, 2001):
                matches += (hit := matches < k * pbar + lift * math.sqrt(k))
                pairs.append((0, 0) if hit else (0, 1))
            report = ewm.baseline_batch_detect(0.02, pbar, pairs, len(pairs), n=2)
            state = fold(0.02, pairs, pbar=pbar)
            assert (report.stop_step, report.steps) == (state.rejected_at, state.steps)
            assert report.stop_step == stop

    def test_out_of_range_pair_after_the_stop_is_never_read(self):
        e = ewm.optimal_evalue(self.SPEC)
        pbar = ewm.worst_null_match_prob(self.SPEC)
        pairs = [(0, 0)] * 30 + [(0, 7)]
        assert ewm.batch_detect(e, 0.02, pairs, 31).stop_step == fold(0.02, pairs, e=e).rejected_at
        report = ewm.baseline_batch_detect(0.02, pbar, pairs, 31, n=2)
        assert report.stop_step == fold(0.02, pairs, pbar=pbar).rejected_at

    def test_out_of_range_pair_before_the_stop_raises(self):
        e = ewm.optimal_evalue(self.SPEC)
        pbar = ewm.worst_null_match_prob(self.SPEC)
        for pairs in ([(0, 0), (7, 0)] + [(0, 0)] * 30, [(-1, 0)], [(0, 2**70)]):
            with pytest.raises(IndexOutOfRangeError):
                ewm.batch_detect(e, 0.02, pairs, len(pairs))
            with pytest.raises(IndexOutOfRangeError):
                ewm.baseline_batch_detect(0.02, pbar, pairs, len(pairs), n=2)

    def test_reports_equal_the_fold_across_blocks(self):
        # blocks hold 128 pairs, then 256, 512, ...: at alpha 1e-300 both
        # detectors stop after step 1,024 of the marked stream, in its fourth or
        # fifth block, and the null stream runs undecided through six blocks
        e = ewm.optimal_evalue(self.SPEC)
        pbar = ewm.worst_null_match_prob(self.SPEC)
        w = ewm.extreme_coupling(self.SPEC, ewm.ExtremePair(0, 1))
        marked = [tuple(map(int, p)) for p in ewm.sample_stream(w, 4000, ewm.trial_rng(9))]
        null = [tuple(map(int, p)) for p in np.random.default_rng(6).integers(2, size=(4000, 2))]
        for pairs in (marked, null):
            report = ewm.batch_detect(e, 1e-300, pairs, len(pairs))
            state = fold(1e-300, pairs, e=e)
            assert (report.stop_step, report.steps) == (state.rejected_at, state.steps)
            assert report.wealth == state.wealth
            report = ewm.baseline_batch_detect(1e-300, pbar, pairs, len(pairs), n=2)
            state = fold(1e-300, pairs, pbar=pbar)
            assert (report.stop_step, report.steps) == (state.rejected_at, state.steps)
            assert report.decision == ("rejected" if pairs is marked else "undecided")
            assert pairs is null or 1024 < report.stop_step < 3072
        for pairs, raises in ((marked, False), (null, True)):
            pairs = pairs[:3500] + [(0, 5)] + pairs[3500:]
            for detect in (lambda: ewm.batch_detect(e, 1e-300, pairs, len(pairs)),
                           lambda: ewm.baseline_batch_detect(1e-300, pbar, pairs, len(pairs), n=2)):
                if raises:
                    with pytest.raises(IndexOutOfRangeError):
                        detect()
                else:
                    assert detect().decision == "rejected"

    @settings(max_examples=100)
    @example(case=(2, [], None, 0.02))
    @example(case=(2, [(1, 1), (2**70, 2**70)] * 5, None, 0.5))  # without n, a match
    @given(case=detection_cases())
    def test_both_detectors_equal_the_fold_on_any_stream(self, case):
        n, pairs, budget, alpha = case
        e, pbar = ewm.optimal_evalue(SPECS[n]), ewm.worst_null_match_prob(SPECS[n])
        read = pairs[:budget]
        for detect, reference in (
            (lambda: ewm.batch_detect(e, alpha, iter(pairs), budget),
             lambda: fold(alpha, checked(read, n), e=e)),
            (lambda: ewm.baseline_batch_detect(alpha, pbar, iter(pairs), budget, n=n),
             lambda: fold(alpha, checked(read, n), pbar=pbar)),
            (lambda: ewm.baseline_batch_detect(alpha, pbar, iter(pairs), budget),
             lambda: fold(alpha, checked(read, None), pbar=pbar)),
        ):
            try:
                state = reference()
            except IndexOutOfRangeError:  # the fold read the bad pair
                with pytest.raises(IndexOutOfRangeError):
                    detect()
                continue
            if state.steps == 0:
                with pytest.raises(EmptyStreamError):
                    detect()
                continue
            report = detect()
            assert (report.stop_step, report.steps) == (state.rejected_at, state.steps)
            if isinstance(state, ewm.DetectorState):
                assert report.wealth == state.wealth
            else:
                assert math.isnan(report.wealth)

    # each once gave a raw numpy or Python error, a truncated pair, or (without n) a count;
    # a dict once gave its keys, a set its members and bytes their byte values as the pair
    @pytest.mark.parametrize("bad", [(0.9, 1.7), ("1", "2"), (0, 1, 1), 1, None, (-5, -5),
                                     {0: 1, 1: 2}, {0, 1}, b"\x00\x01"],
                             ids=["float", "string", "triple", "scalar", "none", "negative",
                                  "dict", "set", "bytes"])
    @pytest.mark.parametrize("n", [2, None])
    def test_non_index_pair_is_a_typed_error(self, bad, n):
        e = ewm.optimal_evalue(self.SPEC)
        pbar = ewm.worst_null_match_prob(self.SPEC)
        for pairs in ([(0, 1), bad, (0, 1)], [bad] * 12):
            with pytest.raises(IndexOutOfRangeError):
                ewm.baseline_batch_detect(0.02, pbar, pairs, None, n=n)
            if n is not None:
                with pytest.raises(IndexOutOfRangeError):
                    ewm.batch_detect(e, 0.02, pairs, None)

    @pytest.mark.parametrize("v", [0.9, "1", -5, 2])
    def test_non_index_observation_is_a_typed_error(self, v):
        e = ewm.optimal_evalue(self.SPEC)
        with pytest.raises(IndexOutOfRangeError):
            ewm.observe(ewm.init_detector(e, 0.02), e, v, 0)
        if v != 2:  # no n is at hand, so 2 is a valid symbol
            with pytest.raises(IndexOutOfRangeError):
                ewm.baseline_observe(ewm.init_baseline(0.02, 0.5), 0, v)

    def test_numpy_and_bool_indices_equal_the_fold(self):
        e = ewm.optimal_evalue(self.SPEC)
        pbar = ewm.worst_null_match_prob(self.SPEC)
        # True once did a boolean-mask lookup in observe
        for pairs in ([(np.int64(1), True)] * 20, [(True, True)] * 20, [(np.uint8(0), 1)] * 20):
            ints = [(int(v), int(s)) for v, s in pairs]
            state, report = fold(0.02, pairs, e=e), ewm.batch_detect(e, 0.02, pairs, None)
            assert state == fold(0.02, ints, e=e)
            assert (report.stop_step, report.wealth) == (state.rejected_at, state.wealth)
            for n in (2, None):
                report = ewm.baseline_batch_detect(0.02, pbar, pairs, None, n=n)
                assert report.stop_step == fold(0.02, ints, pbar=pbar).rejected_at

    def test_baseline_work_tracks_the_stopping_step(self):
        # a stop in the first block leaves every pair past it unread
        pbar = ewm.worst_null_match_prob(self.SPEC)
        pairs = iter([(0, 0)] * 100_000)
        report = ewm.baseline_batch_detect(0.02, pbar, pairs, 100_000, n=2)
        assert report.stop_step < 100 and sum(1 for _ in pairs) == 100_000 - 128


def baseline_stream(seed, length, rate, big=False):
    """``length`` pairs on two symbols whose ``v`` equals ``s`` at ``rate``; with ``big``, the
    symbols are 0 and 2**70, so every block of the stream holds an index past 64 bits."""
    rng = np.random.default_rng(seed)
    s = rng.integers(2, size=length)
    v = np.where(rng.random(length) < rate, s, 1 - s)
    symbols = (0, 2**70) if big else (0, 1)
    return [(symbols[a], symbols[b]) for a, b in zip(v.tolist(), s.tolist())]


def mp_log_tail(m, k, p, dps=50):
    """``log P(Bin(k, p) >= m)``, ``m >= 1``, by mpmath at ``dps`` digits: the incomplete beta
    ``I_p(m, k - m + 1)`` as a quadrature of its density, which for ``m > k p`` is highest near
    ``p``, over intervals that shrink geometrically towards ``p``."""
    with mpmath.workdps(dps):
        p, a, b = mpmath.mpf(p), mpmath.mpf(m), mpmath.mpf(k - m + 1)
        log_density = lambda t: (a - 1) * mpmath.log(t) + (b - 1) * mpmath.log1p(-t)
        top, width = log_density(p), mpmath.sqrt(p * (1 - p) / k) / 8
        cuts = [p - width * 4**j for j in range(40, -1, -1) if width * 4**j < p]
        area = mpmath.quad(lambda t: mpmath.exp(log_density(t) - top), [0, *cuts, p])
        return top + mpmath.log(area) - mpmath.log(mpmath.beta(a, b))


def unscreened(alpha, pbar, pairs):
    """``(stop_step, steps)`` of the baseline by scipy's tail at every step, against the schedule
    in int64; where that tail is 0 or subnormal, which scipy flushes, by mpmath's."""
    from scipy.stats import binom

    m = np.cumsum([v == s for v, s in pairs])
    k = np.arange(1, len(pairs) + 1)
    tail, bound, tiny = binom.sf(m - 1, k, pbar), alpha / (k * (k + 1)), np.finfo(float).tiny
    for i in np.flatnonzero((tail < bound) | (tail < tiny)):
        if tail[i] >= tiny or mp_log_tail(int(m[i]), int(k[i]), pbar, 30) < math.log(bound[i]):
            return int(k[i]), int(k[i])
    return None, len(pairs)


def exact_tail_ratios(pbar, pairs):
    """Each step's exact tail ``P(Bin(k, pbar) >= m)`` as the integers ``(T(k, m), den**k)``:
    ``T(k, m) = sum_{i >= m} t(k, i)``, ``t(k, i) = C(k, i) a**i b**(k - i)``, ``pbar = a / den``,
    ``b = den - a``.  Pascal's rule gives ``T(k + 1, j) = b T(k, j) + a T(k, j - 1)``, so a match
    takes ``T(k, m)`` to ``den T(k, m) - b t(k, m)`` and a miss to ``den T(k, m) + a t(k, m - 1)``,
    where ``a t(k, m - 1) = t(k, m) b m / (k - m + 1)``.  The term moves with the step, to
    ``t(k + 1, m + 1) = t(k, m) a (k + 1) / (m + 1)`` or ``t(k + 1, m) = t(k, m) b (k + 1) /
    (k + 1 - m)``; every division is exact."""
    a, den = pbar.as_integer_ratio()
    b, total, term, power, m = den - a, 1, 1, 1, 0  # T(0, 0) = t(0, 0) = den**0 = 1
    for k, (v, s) in enumerate(pairs):  # k steps so far
        if v == s:
            total = den * total - b * term
            term, m = term * a * (k + 1) // (m + 1), m + 1
        else:
            total = den * total + term * b * m // (k - m + 1)
            term = term * b * (k + 1) // (k + 1 - m)
        power *= den
        yield total, power


def exact_tails(pbar, pairs):
    """Each step's exact tail, :func:`exact_tail_ratios`, as a :class:`Fraction`."""
    return [Fraction(*ratio) for ratio in exact_tail_ratios(pbar, pairs)]


@st.composite
def screened_cases(draw):
    """(alpha, pbar, pairs, budget, n): match rates at, just above or below ``pbar``, so
    streams cross late or run undecided through several blocks; at alpha 1e-300 past 10,000
    steps, where the schedule is subnormal."""
    alpha = draw(st.sampled_from([0.5, 0.02, 1e-30, 1e-300]))
    pbar = draw(st.sampled_from([1.0, 0.5, 0.345, 0.05]) | st.floats(1e-3, 1.0))
    excess = draw(st.sampled_from([0.0, 0.005, 0.02, 0.05, 0.16, -0.1]))
    length = draw(st.sampled_from([12_000, 16_500] if alpha == 1e-300 else [300, 1000, 4000]))
    n = draw(st.sampled_from([2, None]))
    pairs = baseline_stream(draw(st.integers(0, 2**32 - 1)), length,
                            min(max(pbar + excess, 0.0), 1.0), n is None and draw(st.booleans()))
    budget = draw(st.none() | st.integers(1, length))
    return alpha, pbar, pairs, budget, n


@st.composite
def dyadic_cases(draw):
    """(alpha, p, pairs): ``p = j / 64`` and up to 2,000 pairs matching at, above or below it,
    or always; at alpha 1e-300 and 5.6e-309 the schedule is subnormal from a few steps on."""
    alpha = draw(st.sampled_from([0.5, 0.02, 1e-30, 1e-300, 5.6e-309]))
    p = draw(st.integers(1, 64)) / 64
    rate = min(max(p + draw(st.sampled_from([0.0, 0.05, 0.2, 0.5, 1.0, -0.1])), 0.0), 1.0)
    length = draw(st.sampled_from([2000, 1200]) | st.integers(1, 2000))
    return alpha, p, baseline_stream(draw(st.integers(0, 2**32 - 1)), length, rate)


class TestBaselineScreen:
    """The baseline skips steps at or below the null mean, decides most others by a bracket on
    the log tail and the rest by an exact scalar tail; its reports must be those of every
    step's exact tail."""

    @settings(max_examples=40)
    @example(case=(1e-300, 0.625, [(0, 1)] * 38 + [(0, 0)] * 1697))  # the scipy-flush stream
    @example(case=(5.6e-309, 1 / 64, [(1, 1)] * 200))  # stops at 174
    @example(case=(1e-300, 0.5, baseline_stream(3, 2000, 0.95)))  # stops at 1,452
    @example(case=(1e-30, 22 / 64, baseline_stream(4, 2000, 0.5)))  # stops at 1,605
    # k p = 1e-299 is below the last bit of m = 1, so m - (m - k p) would be 0 in the band
    @example(case=(1.2e-297, 1e-300, [(0, 1)] * 9 + [(0, 0)]))  # stops at 10
    @example(case=(1e-297, 1e-300, [(0, 1)] * 9 + [(0, 0)]))
    @given(case=dyadic_cases())
    def test_first_stop_is_the_first_step_below_in_exact_arithmetic(self, case):
        alpha, p, pairs = case

        def below(k, total, power):  # T / den**k < the schedule's num / den, in integers
            num, den = _schedule(alpha, k).as_integer_ratio()
            return total * den < num * power

        tails = enumerate(exact_tail_ratios(p, pairs), 1)
        stop = next((k for k, (total, power) in tails if below(k, total, power)), None)
        assert ewm.baseline_batch_detect(alpha, p, pairs, None).stop_step == stop
        assert fold(alpha, pairs, pbar=p).rejected_at == stop

    @settings(max_examples=30)
    @example(case=(1e-300, 0.5, baseline_stream(0, 16_000, 0.66), None, 2))  # stops past 13,000
    @example(case=(1e-300, 0.5, baseline_stream(1, 16_000, 0.66, big=True), 13_000, None))
    @example(case=(0.5, 1.0, [(1, 1)] * 1000, None, 2))  # pbar 1: every tail is 1
    @example(case=(0.5, 1.0, baseline_stream(2, 1000, 0.9), 700, None))
    @given(case=screened_cases())
    def test_reports_equal_every_steps_tail(self, case):
        alpha, pbar, pairs, budget, n = case
        read = pairs[:budget]
        report = ewm.baseline_batch_detect(alpha, pbar, pairs, budget, n=n)
        assert (report.stop_step, report.steps) == unscreened(alpha, pbar, read)
        assert report.decision == ("undecided" if report.stop_step is None else "rejected")
        head = read[:400]  # 400 steps reach two screened blocks
        state = fold(alpha, head, pbar=pbar)
        report = ewm.baseline_batch_detect(alpha, pbar, head, None, n=n)
        assert (report.stop_step, report.steps) == (state.rejected_at, state.steps)

    def test_a_null_stream_evaluates_no_exact_tail(self, monkeypatch):
        steps = exact_steps(monkeypatch)
        pbar = ewm.worst_null_match_prob(TestBatchMatchesFold.SPEC)
        null = [tuple(map(int, p)) for p in np.random.default_rng(6).integers(2, size=(4000, 2))]
        report = ewm.baseline_batch_detect(0.02, pbar, null, None, n=2)
        assert report.decision == "undecided" and report.steps == 4000
        assert steps == []  # the median pre-screen and the bracket decide all 4,000 steps
        drift = baseline_stream(1, 4000, 0.56)
        report = ewm.baseline_batch_detect(0.02, pbar, drift, None, n=2)
        assert report.stop_step == unscreened(0.02, pbar, drift)[0]
        # a slow drift lingers near the schedule, and the bracket leaves the steps it
        # straddles to the exact tail, up to the stop and none past it
        assert len(steps) == 51 and max(k for _, k in steps) <= report.stop_step
        # each of them but the stop keeps its tail at or above the schedule: the bracket's
        # point-mass lower end, not its upper end, leaves those steps open
        tails = exact_tails(pbar, drift[:report.stop_step])
        assert all(tails[k - 1] >= _schedule(0.02, k) for _, k in steps if k < report.stop_step)

    def test_the_fold_screens_past_the_first_block(self, monkeypatch):
        steps = exact_steps(monkeypatch)
        pbar = ewm.worst_null_match_prob(TestBatchMatchesFold.SPEC)
        null = [tuple(map(int, p)) for p in np.random.default_rng(6).integers(2, size=(400, 2))]
        state = fold(0.02, null, pbar=pbar)
        assert state.running and state.steps == 400
        assert steps == []  # no step, in the first block or past it, nears the schedule

    def test_fold_equals_the_batch_where_scipy_flushes_a_normal_tail(self):
        # scipy's binom.sf(1507, 1546, 0.625) is 0.0, where the exact tail is 1.96e-248: the
        # fold once rejected at step 1,546 at every alpha here, and the batch, which trusted
        # scipy's tail, at 1,564 at 1e-245
        pairs = [(0, 1)] * 38 + [(0, 0)] * 1697
        tails = exact_tails(0.625, pairs)
        for alpha, stop in ((1e-300, None), (1e-245, 1566), (1e-240, 1540)):
            state = fold(alpha, pairs, pbar=0.625)
            report = ewm.baseline_batch_detect(alpha, 0.625, pairs, None)
            assert (state.rejected_at, state.steps) == (report.stop_step, report.steps)
            assert report.stop_step == stop
            below = (k for k, tail in enumerate(tails, 1) if tail < _schedule(alpha, k))
            assert next(below, None) == stop

    def test_one_schedule_rounds_the_exact_product_once(self):
        # an int64 k (k + 1) wraps from k = 3,037,000,500; both detectors read this bound
        ks = [1, 12, 3_037_000_499, 3_037_000_500, 3_100_000_000]
        for alpha in (0.5, 0.02, 1e-300, 5.6e-309):
            want = [alpha / (k * (k + 1)) for k in ks]
            assert [_schedule(alpha, k) for k in ks] == want
            assert _schedule(alpha, np.array(ks, np.int64)).tolist() == want

    @pytest.mark.parametrize("k, p", [(1735, 0.625), (900, 0.375), (1275, 0.5), (400, 0.125),
                                      (2000, 1.0)])
    def test_screen_keeps_every_step_a_subnormal_bound_rejects(self, k, p):
        # alpha near 1e-308 makes the schedule subnormal from k = 1.  scipy's tail flushed some
        # subnormal tails to 0, and some normal ones too (from m = 1,697 at k = 1,735, a tail
        # of 4.3e-285); the rule must decide every m as its exact tail does
        num, den = p.as_integer_ratio()
        terms = [math.comb(k, i) * num**i * (den - num)**(k - i) for i in range(k + 1)]
        exact = [Fraction(t, den**k) for t in accumulate(reversed(terms))][-2::-1]  # m = 1..k
        for alpha in (1e-308, 5.6e-309):
            bound = _schedule(alpha, k)
            assert bound < np.finfo(float).tiny
            below = [tail < bound for tail in exact]
            rejects = [_rejections(np.array([m]), np.array([k]), p, alpha).size == 1
                       for m in range(1, k + 1)]
            assert rejects == below
            assert any(below) == (p < 1.0)  # at p = 1 every tail is 1

    @pytest.mark.parametrize("k", [2_000, 10**6, 10**9, 10**12])
    def test_the_exact_tail_matches_mpmath_at_large_k(self, k):
        # m sits z standard deviations above the mean; Loader's mass keeps its digits where
        # m log(m / (k p)) and (k - m) log((k - m) / (k q)) nearly cancel
        for p in (0.05, 0.625):
            for z in (0.5, 3, 8, 12):
                m = math.ceil(k * p + z * math.sqrt(k * p * (1 - p)))
                want = mp_log_tail(m, k, p)
                assert abs(_log_tail(m, k, p) - want) <= 1e-10 * abs(want)

    @pytest.mark.parametrize("k", [100, 2_000, 10**6, 3_037_000_500, 2**40])
    def test_the_bracket_decides_as_the_exact_tail(self, monkeypatch, k):
        # every step the bracket decides without an exact tail gets the exact tail's decision;
        # at k = 2**40 the schedule at 1e-300 underflows to 0, which no tail is below
        steps, decided, total = exact_steps(monkeypatch), 0, 0
        for p in (0.05, 0.5, 0.9):
            sd = math.sqrt(k * p * (1 - p))
            ms = sorted({min(k, math.floor(k * p + z * sd) + 1) for z in np.arange(0, 40, 0.1)})
            for alpha in (0.5, 1e-30, 1e-280, 1e-300):
                bound = _schedule(alpha, k)
                log_bound = math.log(bound) if bound else -math.inf
                for m in ms:
                    steps.clear()
                    total += 1
                    rejects = _rejections(np.array([m]), np.array([k]), p, alpha).size == 1
                    if not steps:
                        decided += 1
                        assert rejects == (_log_tail(m, k, p) < log_bound), (m, p, alpha)
        assert decided > 0.9 * total


def text_file(text: str):
    """``text`` as :func:`open` with ``newline=""`` reads a file holding its UTF-8 bytes."""
    return io.TextIOWrapper(io.BytesIO(text.encode()), newline="")


def csv_reader_pairs(text: str):
    """The csv stream reader that block parsing replaced, kept as the reference: csv rows
    and two ``int()`` calls per row, handed to the detectors as a plain iterable, so they
    read it through ``islice``.  Row messages are cut by ``_shown``, as the reader's are."""
    reader = csv.reader(text_file(text))
    header = next(reader, None)
    if header is None or [c.strip() for c in header] != ["step", "v", "s"]:
        raise FormatError("stream file must start with header 'step,v,s'")

    def pairs():
        for row in reader:
            if not row:
                continue
            if len(row) != 3:
                raise FormatError(f"malformed stream row: {_shown(row)}")
            try:
                yield int(row[1]), int(row[2])
            except ValueError as exc:
                raise FormatError(f"non-integer stream row: {_shown(row)}") from exc

    return pairs()


# Rows that are not plain.  csv and int() read the first nine and the last two (a 19-digit
# field, a non-ASCII digit, a blank line and a quoted newline among them); the others are
# refused, or hold a v >= n = 2, two of them past int64.
ODD_ROWS = ("{t}, {v}, {s}", '{t},"{v}",{s}', "{t},+{v},{s}", "{t},-0,{s}", "{t},0_{v},{s}",
            "{t},000000000000000000{v},{s}", "{t},\u0661,{s}", " {t},{v},{s}", "x,{v},{s}",
            "{t},9223372036854775808,{s}", "{t},99999999999999999999,{s}", "{t},2,{s}",
            "{t},{v}", "{t},x,{s}", "{t},{v},{s},", "", '{t},"{v}\n",{s}')
EDGES = (127, 128, 129, 383, 384, 385)  # rows beside the first two block edges
BUDGETS = (None, 1, 127, 128, 129, 1000)


@st.composite
def stream_texts(draw):
    """A stream file's text: plain rows, then odd rows, blank lines and line ends (CRLF, a
    lone CR) put mostly beside a block edge, and at times no final newline or a bad header."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    length = draw(st.sampled_from([0, 1, 130, 390, 420]))
    s = rng.integers(2, size=length)
    rate = draw(st.sampled_from([0.5, 0.95]))  # at 0.95 the e-value detector stops early
    v = np.where(rng.random(length) < rate, s, 1 - s)
    rows = [f"{t},{a},{b}" for t, (a, b) in enumerate(zip(v.tolist(), s.tolist()))]
    ends = ["\n"] * length
    where = st.sampled_from(EDGES) | st.integers(0, 419)
    for at, odd in draw(st.lists(st.tuples(where, st.sampled_from(ODD_ROWS)), max_size=3)):
        if at < length:
            rows[at] = odd.format(t=at, v=v[at], s=s[at])
    for at, end in draw(st.lists(st.tuples(where, st.sampled_from(["\r\n", "\r", "\n\n"])),
                                 max_size=2)):
        if at < length:
            ends[at] = end
    if draw(st.booleans()):
        ends = ["\r\n" if end == "\n" else end for end in ends]
    if length and draw(st.booleans()):
        ends[-1] = ""
    header = draw(st.sampled_from(["step,v,s\n"] * 4 + ["step, v, s\r\n", "v,s\n", ""]))
    return header + "".join(row + end for row, end in zip(rows, ends))


def outcome(run):
    """What ``run()`` returns, or the type and message of the typed error it raises."""
    try:
        return repr(run())  # a repr, so a NaN wealth equals itself
    except EwmError as exc:
        return type(exc), str(exc)


class TestStreamFileBlocks:
    """``read_stream_csv`` parses plain rows a block at a time and hands every other row to
    csv; each detector, and each block it reads, must equal the csv reader's."""

    SPEC = spec_of([0.5, 0.5], 0.3)

    @staticmethod
    def blocks(make, budget):
        out = []
        try:
            for done, v, s in _blocks(make(), budget, 2):
                out.append((done, v.dtype, v.tolist(), s.tolist()))
        except EwmError as exc:
            out.append((type(exc), str(exc)))
        return out

    @settings(max_examples=150)
    @example(text="step,v,s\n" + "".join(f"{t},0,1\n" for t in range(128)) + "\n128,0,1\n")
    @example(text="step,v,s\r\n" + "".join(f"{t},0,1\r\n" for t in range(129)) + "129,9,1")
    @given(text=stream_texts())
    def test_detectors_equal_the_csv_reader(self, text):
        e, pbar = ewm.optimal_evalue(self.SPEC), ewm.worst_null_match_prob(self.SPEC)
        for budget in BUDGETS:
            for detect in (lambda pairs: ewm.batch_detect(e, 1e-6, pairs, budget),
                           lambda pairs: ewm.baseline_batch_detect(1e-6, pbar, pairs, budget, 2)):
                assert (outcome(lambda: detect(ewm.read_stream_csv(text_file(text))))
                        == outcome(lambda: detect(csv_reader_pairs(text))))
            assert (self.blocks(lambda: ewm.read_stream_csv(text_file(text)), budget)
                    == self.blocks(lambda: csv_reader_pairs(text), budget))

    def test_blocks_stop_doubling_at_the_cell_cap(self):
        # 128, 256, ..., 8,192, then 16,384 rows at a time: a long null stream is read in
        # bounded blocks, and both detectors read every row of it, as a scalar fold does
        pairs = np.random.default_rng(4).integers(2, size=(100_000, 2)).tolist()
        text = "step,v,s\n" + "".join(f"{t},{v},{s}\n" for t, (v, s) in enumerate(pairs))
        widths = [v.size for _, v, _ in _blocks(ewm.read_stream_csv(text_file(text)), None, 2)]
        assert widths[:8] == [128 << i for i in range(8)] and max(widths) == _BLOCK_CELLS
        assert sum(widths) == len(pairs)
        e, pbar = ewm.optimal_evalue(self.SPEC), ewm.worst_null_match_prob(self.SPEC)
        log_e = e.log_scores.tolist()  # observe's fold is this left-to-right sum
        path = list(accumulate(log_e[v][s] for v, s in pairs))
        report = ewm.batch_detect(e, 1e-30, ewm.read_stream_csv(text_file(text)), None)
        assert max(path) < report.threshold
        assert (report.stop_step, report.steps, report.wealth) == (None, len(pairs), path[-1])
        rows = ewm.read_stream_csv(text_file(text))
        report = ewm.baseline_batch_detect(1e-30, pbar, rows, None, 2)
        assert (report.decision, report.steps) == ("undecided", len(pairs))

    def test_an_array_a_list_and_a_file_read_alike(self):
        # an int64 array is read a slice per block: its blocks and both reports equal a list's
        # and a file's, and so does the error at a bad pair in the third block (pairs 384-895),
        # which the scalar rule names after the good pairs before it
        e, pbar = ewm.optimal_evalue(self.SPEC), ewm.worst_null_match_prob(self.SPEC)
        good = np.random.default_rng(5).integers(2, size=(20_000, 2))
        bad = good.copy()
        bad[600] = 1, 2
        for pairs in (good, bad):
            text = "step,v,s\n" + "".join(f"{t},{v},{s}\n"
                                          for t, (v, s) in enumerate(pairs.tolist()))
            makes = (lambda: pairs, lambda: list(map(tuple, pairs.tolist())),
                     lambda: ewm.read_stream_csv(text_file(text)))
            for budget in (None, 700):
                runs = [(self.blocks(make, budget),
                         outcome(lambda: ewm.batch_detect(e, 1e-30, make(), budget)),
                         outcome(lambda: ewm.baseline_batch_detect(1e-30, pbar, make(), budget, 2)))
                        for make in makes]
                assert runs[0] == runs[1] == runs[2]
        blocks, report, _ = runs[0]
        assert report == (IndexOutOfRangeError, "indices (1, 2) out of range for n=2")
        assert [b[:2] for b in blocks[2:]] == [(384, np.int64), (IndexOutOfRangeError, report[1])]
        assert len(blocks[2][2]) == 216

    def test_a_block_past_one_match_is_checked_whole(self):
        # a block holds at most _BLOCK_CELLS rows, so its lines are matched in one part, and
        # the bad row is found in the block of rows 49,024-59,999; take(20,000) is matched in
        # two parts
        rows = [f"{t},{t % 2},{t // 2 % 2}" for t in range(60_000)]
        rows[52_640] = '52640,"0",1'
        text = "step,v,s\n" + "\n".join(rows) + "\n"
        assert (self.blocks(lambda: ewm.read_stream_csv(text_file(text)), None)
                == self.blocks(lambda: csv_reader_pairs(text), None))
        assert isinstance(ewm.read_stream_csv(text_file(text)).take(20_000), np.ndarray)

    def test_plain_rows_are_one_int64_array(self):
        rows = ewm.read_stream_csv(text_file("step,v,s\n0,1,0\r\n1,0,1\n2,1, 1\n3,0,0\n"))
        block = rows.take(2)
        assert isinstance(block, np.ndarray) and block.dtype == np.int64
        assert block.tolist() == [[1, 0], [0, 1]]
        assert rows.take(2) == [(1, 1), (0, 0)]  # a space: csv, from this block on
        assert list(rows) == []

    def test_iterating_yields_python_int_tuples(self):
        rows = list(ewm.read_stream_csv(text_file("step,v,s\n0,1,0\n1,0,1\n")))
        assert rows == [(1, 0), (0, 1)] and all(type(x) is int for row in rows for x in row)

    def test_unreadable_bytes_are_a_format_error(self):
        # in the header, in a bulk block and on the csv path (past the first 8 KiB, which the
        # header read decodes), and a field past csv's limit on both sides of the header
        plain = "".join(f"{t},0,1\n" for t in range(2000)).encode()
        for data in (b"step,v,\xff\n0,0,1\n", b"step,v,s\n" + plain + b"2000,0,\xff\n",
                     b"step,v,s\n0, 0,1\n" + plain + b"2000,\xff,1\n",
                     b"step,v,s\n0,0," + b"7" * 140_000 + b"\n",
                     b"step," + b"v" * 140_000 + b",s\n"):
            with pytest.raises(FormatError, match="unreadable stream file"):
                rows = ewm.read_stream_csv(io.TextIOWrapper(io.BytesIO(data), newline=""))
                ewm.batch_detect(fair_table(), 1e-6, rows, None)

    def test_a_bad_row_is_named_before_later_bytes(self):
        # the bytes past the first 8 KiB are decoded only after the malformed row is read
        wide = "".join(f"{'0' * 200}{t},0,1\n" for t in range(50))
        data = f"step,v,s\n0,0,1\n1,0\n{wide}".encode() + b"9,\xff,1\n"
        with pytest.raises(FormatError, match="malformed stream row"):
            rows = ewm.read_stream_csv(io.TextIOWrapper(io.BytesIO(data), newline=""))
            ewm.batch_detect(fair_table(), 1e-6, rows, None)


class TestSerialization:
    def test_round_trip_and_resume(self):
        e = fair_table()
        state = ewm.init_detector(e, 0.02)
        for vs in [(0, 0), (1, 0), (1, 1)]:
            state = ewm.observe(state, e, *vs)
        back = ewm.detector_from_json(ewm.detector_to_json(state))
        assert back == state
        # resuming from the deserialized state continues the same wealth path
        a = ewm.observe(state, e, 0, 0)
        b = ewm.observe(back, e, 0, 0)
        assert a == b

    @example(n=3, alpha=0.02, pairs=[(1, 1)] * 5)  # running for 3 steps, rejected at step 4
    @given(n=st.sampled_from([2, 3]), alpha=st.sampled_from([0.5, 0.02, 1e-30]),
           pairs=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), max_size=80))
    def test_json_round_trips_bit_for_bit(self, n, alpha, pairs):
        e = ewm.optimal_evalue(SPECS[n])
        state = ewm.init_detector(e, alpha)
        states = [state]
        for v, s in pairs:
            if not state.running:
                break
            state = ewm.observe(state, e, v % n, s % n)
            states.append(state)
        for state in states:
            back = ewm.detector_from_json(ewm.detector_to_json(state))
            assert back == state
            assert (back.wealth.hex(), back.alpha.hex()) == (state.wealth.hex(), state.alpha.hex())

    def test_status_field(self):
        e = fair_table()
        state = ewm.init_detector(e, 0.5)
        state = ewm.observe(state, e, 0, 0)
        state = ewm.observe(state, e, 0, 0)
        payload = ewm.detector_to_json(state)
        assert '"status": "rejected"' in payload

    def test_non_finite_wealth_is_not_written(self):
        # a zero score drives the wealth to -inf, which strict JSON cannot hold
        e = ewm.make_evalue_table([[2.0, 0.0], [0.0, 2.0]])
        state = ewm.observe(ewm.init_detector(e, 0.02), e, 0, 1)
        assert state.wealth == -math.inf
        with pytest.raises(FormatError):
            ewm.detector_to_json(state)

    def test_inconsistent_states_are_rejected(self):
        threshold = math.log(50.0)
        for payload in (
            '{"wealth": 0.5, "steps": -4, "alpha": 0.02, "rejected_at": null}',
            '{"wealth": 5.0, "steps": 3, "alpha": 0.02, "rejected_at": 0}',
            '{"wealth": 5.0, "steps": 3, "alpha": 0.02, "rejected_at": 4}',
            '{"wealth": %r, "steps": 3, "alpha": 0.02, "rejected_at": null}' % threshold,
            '{"wealth": 9.0, "steps": 3, "alpha": 0.02, "rejected_at": null}',
            '{"wealth": -Infinity, "steps": 3, "alpha": 0.02, "rejected_at": null}',
            '{"wealth": 0.5, "steps": "3", "alpha": 0.02, "rejected_at": null}',
            '{"wealth": 0.5, "steps": 2.7, "alpha": 0.02, "rejected_at": null}',
            '{"wealth": 0.5, "steps": true, "alpha": 0.02, "rejected_at": null}',
            '{"wealth": 1%s, "steps": 3, "alpha": 0.02, "rejected_at": null}' % ("0" * 400),
            '{"wealth": 5.0, "steps": 3, "alpha": 0.02, "rejected_at": 2.5}',
            '{"wealth": 5.0, "steps": 3, "alpha": 0.02, "rejected_at": 3.0}',
            # a stop its wealth does not imply: below the threshold, or before the last step
            '{"wealth": 0.5, "steps": 3, "alpha": 0.02, "rejected_at": 3}',
            '{"wealth": 5.0, "steps": 9, "alpha": 0.02, "rejected_at": 2}',
            # a status that contradicts the stop
            '{"wealth": 5.0, "steps": 3, "alpha": 0.02, "rejected_at": 3, "status": "running"}',
            '{"wealth": 0.5, "steps": 3, "alpha": 0.02, "rejected_at": null, "status": "rejected"}',
            '{"wealth": 0.5, "steps": 3, "alpha": 0.02, "status": "stopped"}',
            '{"wealth": 5.0, "steps": 3, "alpha": 0.02, "rejected_at": true}',
            '{"wealth": false, "steps": 3, "alpha": 0.02, "rejected_at": null}',
            '{"wealth": 0.5, "steps": 3, "alpha": "0.02", "rejected_at": null}',
            '{"wealth": 0.5, "steps": 3, "alpha": [0.02], "rejected_at": null}',
            '"wealth"',
            '[1, 2]',
        ):
            with pytest.raises(FormatError):
                ewm.detector_from_json(payload)
        state = ewm.detector_from_json(
            '{"wealth": 5.0, "steps": 3, "alpha": 0.02, "rejected_at": 3}')
        assert state.rejected_at == 3 and not state.running
        state = ewm.detector_from_json(
            '{"wealth": 0.5, "steps": 3, "alpha": 0.02, "rejected_at": null, "status": "running"}')
        assert state.running and state.steps == 3

    def test_a_payload_that_is_not_text_is_a_format_error(self):
        for payload in (123, None, 1.5, [1], {"wealth": 0.5}):  # each a raw TypeError before
            with pytest.raises(FormatError, match="not valid JSON"):
                ewm.detector_from_json(payload)

    def test_unparsable_json_is_a_format_error(self):
        # an int past str's digit limit and nesting past the recursion limit were raw errors
        for text in ('{"wealth": 0.5, "steps": 1%s, "alpha": 0.02}' % ("0" * 5000),
                     "[" * 50_000, '{"wealth": 0.5,'):
            with pytest.raises(FormatError, match="not valid JSON"):
                ewm.detector_from_json(text)
