import csv
import io
import math
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ewm
from ewm.coupling import _BLOCK_CELLS
from ewm.detection import _blocks
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

    def test_baseline_work_tracks_the_stopping_step(self, monkeypatch):
        from ewm import detection

        sizes = []
        real = detection._binom_sf

        def counting_sf(x, k, p):
            sizes.append(np.size(k))
            return real(x, k, p)

        monkeypatch.setattr(detection, "_binom_sf", counting_sf)
        pbar = ewm.worst_null_match_prob(self.SPEC)
        pairs = [(0, 0)] * 100_000
        report = ewm.baseline_batch_detect(0.02, pbar, pairs, len(pairs), n=2)
        assert report.stop_step < 100 and sum(sizes) == 128


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

    def test_unparsable_json_is_a_format_error(self):
        # an int past str's digit limit and nesting past the recursion limit were raw errors
        for text in ('{"wealth": 0.5, "steps": 1%s, "alpha": 0.02}' % ("0" * 5000),
                     "[" * 50_000, '{"wealth": 0.5,'):
            with pytest.raises(FormatError, match="not valid JSON"):
                ewm.detector_from_json(text)
