import concurrent.futures
import functools
import io
import itertools
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from bisect import bisect_right
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ewm
from ewm.cli import parse_alpha_grid
from ewm.coupling import _cell_lookup
from ewm.detection import _first_crossing
from ewm.errors import BadParamsError, InvalidPairError, OutsideNeighborhoodError
from ewm.simulation import (
    StepOutcome,
    TrialRecord,
    _GreedyWindow,
    _random_steps,
    _read,
    _run_blocks,
    _run_stepwise,
    _sweep_task,
    _trial_seeds,
    _vertex_table,
    choose_pair,
)


def spec_of(weights, delta):
    return ewm.make_neighborhood(ewm.make_distribution(weights), delta)


FAIR = spec_of([0.5, 0.5], 0.1)
THREE = spec_of([0.4, 0.3, 0.3], 0.2)


class TestSeeding:
    def test_mix64_is_a_permutation_sample(self):
        seen = {ewm.mix64(x) for x in range(1000)}
        assert len(seen) == 1000

    def test_trial_seed_order_independent(self):
        a = ewm.trial_seed(7, 3, 11)
        b = ewm.trial_seed(7, 3, 11)
        assert a == b
        assert ewm.trial_seed(7, 3, 12) != a
        assert ewm.trial_seed(7, 4, 11) != a

    @pytest.mark.parametrize("base", [0, 1, -1, 2**64 - 1, 2**70 + 5, -2**65])
    def test_one_pass_seeds_equal_trial_seed(self, base):
        for ai in (0, 1, 7, 29):
            for lo, hi in ((0, 0), (0, 1), (0, 50), (37, 140), (2**40, 2**40 + 3)):
                expected = [ewm.trial_seed(base, ai, t) for t in range(lo, hi)]
                assert _trial_seeds(base, ai, lo, hi) == expected


def peak_growth_mib(setup: str, small: str, large: str) -> float:
    """How far the statement ``large`` raises the peak RSS (VmHWM, in MiB) of a fresh interpreter
    that has imported ewm and run ``setup``, then ``small``."""
    code = textwrap.dedent("""
        import ewm

        def peak_kib():
            with open("/proc/self/status") as fh:
                return next(int(l.split()[1]) for l in fh if l.startswith("VmHWM:"))
    """) + "\n".join([textwrap.dedent(setup), small, "before = peak_kib()", large,
                      "print((peak_kib() - before) / 1024)"])
    src = str(Path(ewm.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    return float(out.stdout)


def word_position(state):
    """The 64-bit word a sequential reader of ``state``'s stream stands at."""
    counter = sum(int(c) << 64 * i for i, c in enumerate(state["state"]["counter"]))
    return 4 * counter - (4 - state["buffer_pos"])


class TestRekey:
    def test_rekeyed_stream_equals_fresh_stream(self):
        # one bit generator placed row after row, as the engines do, against a fresh Philox
        # read in order; the 64-bit counter carries between 2**64 - 1 and 2**64
        bitgen = np.random.Philox(key=0)
        for key, counter, skip in itertools.product((0, 2**63 + 5, 2**64 - 1),
                                                    (0, 2**64 - 2, 2**64 - 1, 2**64, 2**64 + 1),
                                                    (0, 1, 3)):
            _read(bitgen, [(99, 0)], [0], 0)
            np.random.Generator(bitgen).integers(3)  # another key leaves a half word
            _read(bitgen, [(key, 0)], [4 * counter + skip], 0)
            fresh = np.random.Generator(np.random.Philox(key=key, counter=counter))
            fresh.bit_generator.random_raw(skip)
            placed = np.random.Generator(bitgen)  # 32-bit draws would read a kept half word
            assert np.array_equal(placed.integers(2**32, size=5), fresh.integers(2**32, size=5))
            assert np.array_equal(placed.random(11), fresh.random(11))
            # and placed again at the same word, wherever the last read left it
            _read(bitgen, [(key, 0)], [4 * counter + skip], 0)
            fresh = np.random.Generator(np.random.Philox(key=key, counter=counter))
            fresh.bit_generator.random_raw(skip)
            assert np.array_equal(np.random.Generator(bitgen).random(5), fresh.random(5))

    def test_a_half_word_lasts_one_call(self):
        # a width-0 read given a 32-bit half leaves it for the next 32-bit draw; the next read,
        # given none, keeps none, whether or not that half was drawn
        bitgen, u = np.random.Philox(key=0), 0x9E3779B9
        for drawn in (True, False):
            _read(bitgen, [(5, 0)], [6], 0, has_uint32=1, uinteger=u)
            if drawn:
                assert np.random.Generator(bitgen).integers(2**32) == u
            _read(bitgen, [(5, 0)], [6], 0)
            fresh = np.random.Generator(np.random.Philox(key=5, counter=1))
            fresh.bit_generator.random_raw(2)
            placed = np.random.Generator(bitgen)
            assert np.array_equal(placed.integers(2**32, size=3), fresh.integers(2**32, size=3))

    def test_rekey_to_a_counter_continues_the_stream(self):
        bitgen = np.random.Philox(key=0)
        for seed in (0, 2**64 - 1, 2**64 + 3):
            fresh, key = ewm.trial_rng(seed).random(20), (seed & (2**64 - 1), seed >> 64)
            _read(bitgen, [key], [0], 0)
            np.random.Generator(bitgen).random(3)
            _read(bitgen, [key], [12], 0)
            assert np.array_equal(np.random.Generator(bitgen).random(8), fresh[12:])

    @given(key=st.sampled_from([0, 1, 2**63 + 5, 2**64 - 1]),
           key_hi=st.sampled_from([0, 7, 2**64 - 1]),
           counter=st.sampled_from([0, 2**64 - 2, 2**128 - 1, 2**256 - 2]),
           taken=st.integers(0, 7), offset=st.integers(0, 23))
    def test_positioning_equals_a_sequential_read(self, key, key_hi, counter, taken, offset):
        # the caller's stream may stand mid-buffer, past a 64-bit counter carry
        # or at the 256-bit wrap; the placed copy reads on from word + offset
        words = np.array([key, key_hi], dtype=np.uint64)  # a list would pass through float64
        caller = np.random.Generator(np.random.Philox(key=words, counter=counter))
        caller.random(taken)
        state = caller.bit_generator.state
        assert state["state"]["key"].tolist() == [key, key_hi]
        assert word_position(state) % 2**258 == 4 * counter + taken  # the counter wraps
        placed = np.random.Philox(key=0)
        _read(placed, [(key, key_hi)], [word_position(state) + offset], 0)
        caller.random(offset)
        assert np.array_equal(np.random.Generator(placed).random(9), caller.random(9))
        placed, caller = placed.state, caller.bit_generator.state
        assert placed["buffer_pos"] == caller["buffer_pos"]
        for field in ("counter", "key"):
            assert np.array_equal(placed["state"][field], caller["state"][field])

    @pytest.mark.parametrize("width", [5, 0])
    def test_one_read_equals_a_fresh_stream_per_row(self, width):
        # three keys at word 6 share one placement, whose skip of 2 carries past the first
        # row; one key past the low 64-bit counter word, then at the last word before the wrap
        rows = [((3, 0), 6), ((2**63 + 5, 1), 6), ((2**64 - 1, 7), 6),
                ((11, 2**64 - 1), 2**66 + 3), ((11, 2**64 - 1), 2**258 - 1)]
        bitgen = np.random.Philox(key=0)
        got = _read(bitgen, [key for key, _ in rows], [pos for _, pos in rows], width)
        assert got.shape == (len(rows), width) and got.dtype == np.uint64
        for words, (key, pos) in zip(got, rows):
            fresh = np.random.Philox(key=np.array(key, dtype=np.uint64), counter=pos // 4 % 2**256)
            fresh.random_raw(pos % 4)
            assert np.array_equal(words, fresh.random_raw(width))
        assert np.array_equal(bitgen.random_raw(6), fresh.random_raw(6))  # the last row reads on

    @pytest.mark.parametrize("policy", [ewm.RandomPair(), ewm.HistoryGreedy(window=400)])
    def test_consecutive_stepwise_trials_each_equal_a_fresh_generator(self, monkeypatch, policy):
        # RandomPair draws integers(12) from 32-bit halves, so a trial that stops after an
        # odd number of steps leaves a half word that the next trial must not read; greedy,
        # never absorbed with a window past the cap, leaves a 128-uniform chunk part read
        # and hands the block engine no seeds
        blocks, handed = _run_blocks, []

        def recorded_blocks(spec, policy, alpha, cap, seeds, *carried):
            handed.extend(seeds)
            return blocks(spec, policy, alpha, cap, seeds, *carried)

        monkeypatch.setattr(ewm.simulation, "_run_blocks", recorded_blocks)
        spec = spec_of([0.4, 0.3, 0.18, 0.12], 0.1)
        e, seeds = ewm.optimal_evalue(spec), [ewm.trial_seed(3, 0, t) for t in range(12)]
        stops, wealth = _run_stepwise(spec, policy, 1e-4, 300, seeds)
        records = [reference_fold(spec, e, policy, 1e-4, 300, seed) for seed in seeds]
        assert [(r.stop_step or -1, r.final_wealth) for r in records] == list(zip(stops, wealth))
        assert not handed and any(r.steps_run % 2 for r in records[:-1])


class TestPolicies:
    def test_fixed_pair_constant(self):
        pair = ewm.simulation.choose_pair(ewm.FixedPair(0, 1), 17, [], FAIR, ewm.trial_rng(0))
        assert (pair.gain, pair.loss) == (0, 1)

    def test_round_robin_third_step(self):
        # completed-step count 2 = third step; lexicographic pair list
        spec = spec_of([0.4, 0.3, 0.3], 0.1)
        pair = ewm.simulation.choose_pair(ewm.RoundRobin(), 2, [], spec, ewm.trial_rng(0))
        assert (pair.gain, pair.loss) == (1, 0)

    def test_random_pair_emits_vertices(self):
        spec = spec_of([0.4, 0.3, 0.3], 0.1)
        rng = ewm.trial_rng(1)
        valid = {(p.gain, p.loss) for p in ewm.enumerate_extremes(spec)}
        for step in range(30):
            pair = ewm.simulation.choose_pair(ewm.RandomPair(), step, [], spec, rng)
            assert (pair.gain, pair.loss) in valid

    def test_history_greedy_explores_then_exploits(self):
        spec = spec_of([0.4, 0.3, 0.3], 0.1)
        policy = ewm.HistoryGreedy(window=8)
        rng = ewm.trial_rng(2)
        first = ewm.simulation.choose_pair(policy, 0, [], spec, rng)
        assert (first.gain, first.loss) == (0, 1)
        skipped = ewm.simulation.choose_pair(policy, 1, [StepOutcome(1, 0, 0, 0.0)], spec, rng)
        assert (skipped.gain, skipped.loss) == (0, 1)  # the first unplayed vertex
        history = [
            ewm.simulation.StepOutcome(pair_index=i, v=0, s=0, log_e=float(i))
            for i in range(6)
        ]
        chosen = ewm.simulation.choose_pair(policy, 6, history, spec, rng)
        assert (chosen.gain, chosen.loss) == (0, 1)  # smallest recent log score
        # a window of 2 holds only the last two steps; their tie goes to the
        # lexicographically first vertex, index 3 = (1, 2)
        history += [StepOutcome(5, 0, 0, -1.0), StepOutcome(3, 0, 0, -1.0)]
        chosen = ewm.simulation.choose_pair(ewm.HistoryGreedy(window=2), 8, history, spec, rng)
        assert (chosen.gain, chosen.loss) == (1, 2)

    @settings(max_examples=150)
    @example(m=2, window=1, pushes=[(0, 1.0)] * 3 + [(1, 0.5)] * 3)
    @example(m=12, window=3, pushes=[(i, 0.0) for i in range(12)] + [(11, 0.0)])
    @given(m=st.sampled_from([2, 12]), window=st.integers(1, 40),
           pushes=st.lists(st.tuples(st.integers(0, 11),
                                     st.sampled_from([-1.0, 0.0, 0.25, 0.5, 1.0 / 3.0])
                                     | st.floats(-50.0, 50.0)), max_size=120))
    def test_greedy_window_equals_a_full_re_sum(self, m, window, pushes):
        # exactly tied means, a push that pops from the vertex it appends to (window 1 or a
        # run on one vertex) and pushes past absorption: after every push, the folds kept up
        # to date hold the bits of a full re-sum of the window and choose as it does
        greedy, chosen, scores = _GreedyWindow(m, window), [], []
        for idx, score in pushes:
            after = greedy.push(idx % m, score)
            chosen.append(idx % m)
            scores.append(score)
            recent = list(zip(chosen[-window:], scores[-window:]))
            held = [j for j, _ in recent]
            absorbed = len(set(chosen)) == m and held == [idx % m] * window
            assert (after is None) == absorbed
            assert (idx % m if absorbed else after) == greedy_choice(m, chosen, recent)
            windows = [[x for j, x in recent if j == i] for i in range(m)]
            assert greedy.means == [left_fold(xs) / len(xs) if xs else math.inf for xs in windows]

    def test_greedy_means_are_left_folds(self):
        # a window mean that a compensated sum (Python 3.12's sum) rounds one ulp lower, to
        # 1.0239971230527591: vertex 1's mean, so the tie would then go to vertex 0
        a, b = math.log(0.95 / 0.25), math.log(0.05 / 3 / 0.25)
        greedy, low = _GreedyWindow(2, 14), 1.0239971230527591
        assert greedy.push(1, low) == 0
        for score in [a] * 7 + [b] + [a] * 5:
            after = greedy.push(0, score)
        assert greedy.means == [1.0239971230527594, low] and after == 1

    def test_history_greedy_needs_a_window(self):
        for window in (0, -3):
            with pytest.raises(BadParamsError):
                ewm.HistoryGreedy(window=window)

    def test_best_response_to_chosen_vertex(self):
        spec = spec_of([0.4, 0.3, 0.3], 0.1)
        rng = ewm.trial_rng(3)
        w = ewm.extreme_coupling(
            spec, ewm.simulation.choose_pair(ewm.FixedPair(2, 1), 0, [], spec, rng))
        q = w.target
        v, s = ewm.sample_pair(w, rng)
        expected = ewm.extreme_coupling(spec, ewm.ExtremePair(2, 1))
        assert np.array_equal(w.joint, expected.joint)
        assert np.array_equal(q.weights, expected.target.weights)
        assert 0 <= v < 3 and 0 <= s < 3


def left_fold(xs):
    """``xs`` added oldest first from 0.0, one rounding per addition, as ``sum`` did before
    Python 3.12 compensated it."""
    total = 0.0
    for x in xs:
        total += x
    return total


def greedy_choice(m, chosen, recent):
    """``HistoryGreedy``'s rule re-derived from the whole history: the first unplayed vertex,
    else the first with the lowest mean over the ``recent`` (vertex, score) steps, each
    vertex's scores a :func:`left_fold`; a vertex outside the window has no mean."""
    if unplayed := [i for i in range(m) if i not in chosen]:
        return unplayed[0]
    held = {i: [x for j, x in recent if j == i] for i in range(m)}
    means = {i: left_fold(xs) / len(xs) for i, xs in held.items() if xs}
    return min(means, key=means.get)


def reference_fold(spec, e, policy, alpha, cap, seed):
    """The stepwise loop built from public parts, one draw at a time."""
    rng = ewm.trial_rng(seed)
    state = ewm.init_detector(e, alpha)
    pairs = ewm.enumerate_extremes(spec)
    log_scores = np.log(e.scores)
    history = []
    while state.running and state.steps < cap:
        pair = choose_pair(policy, state.steps, history, spec, rng)
        v, s = ewm.sample_pair(ewm.extreme_coupling(spec, pair), rng)
        state = ewm.observe(state, e, v, s)
        history.append(StepOutcome(pairs.index(pair), v, s, float(log_scores[v, s])))
    return TrialRecord(stop_step=state.rejected_at, final_wealth=state.wealth,
                       steps_run=state.steps, seed=seed)


def engine_record(spec, policy, alpha, cap, seed):
    """One trial of the engine ``_run_trials`` picks for ``policy``, as a ``TrialRecord``."""
    # _run_trials reads the config's spec and policy only, so alpha may be unreachable
    config = ewm.ExperimentConfig(spec=spec, alphas=(0.5,), trials=1, policy=policy)
    stops, wealth = ewm.simulation._run_trials(config, alpha, cap, [seed])
    stop = int(stops[0]) if stops[0] > 0 else None
    return TrialRecord(stop_step=stop, final_wealth=float(wealth[0]), steps_run=stop or cap,
                       seed=seed)


def scalar_fold(spec, policy, alpha, cap, seeds):
    """Stop steps (-1 when censored) and wealth of ``FixedPair`` or ``RoundRobin``, one
    uniform and one Python step at a time."""
    pairs = [policy] if isinstance(policy, ewm.FixedPair) else ewm.enumerate_extremes(spec)
    cdfs = [ewm.extreme_coupling(spec, pair).cdf[:-1].tolist() for pair in pairs]
    log_flat = ewm.optimal_evalue(spec).log_scores.ravel().tolist()
    threshold = math.log(1.0 / alpha)
    stops, wealth = np.full(len(seeds), -1), np.empty(len(seeds))
    for t, seed in enumerate(seeds):
        rng, total = ewm.trial_rng(seed), 0.0
        for step in range(cap):
            if step % 4096 == 0:
                uniforms = iter(rng.random(min(4096, cap - step)).tolist())
            total += log_flat[bisect_right(cdfs[step % len(cdfs)], next(uniforms))]
            if total >= threshold:
                stops[t] = step + 1
                break
        wealth[t] = total
    return stops, wealth


def greedy_fold(spec, window, alpha, cap, seed):
    """``HistoryGreedy``'s wealth after each step up to its stop or ``cap``, one uniform and
    one Python step at a time, and the first step after which every vertex is played and
    the last ``window`` steps all chose one vertex (None if there is none)."""
    pairs = ewm.enumerate_extremes(spec)
    cdfs = [ewm.extreme_coupling(spec, pair).cdf[:-1].tolist() for pair in pairs]
    log_flat = ewm.optimal_evalue(spec).log_scores.ravel().tolist()
    threshold = math.log(1.0 / alpha)
    rng, chosen, scores, path, absorbed = ewm.trial_rng(seed), [], [], [], None
    while len(path) < cap and (not path or path[-1] < threshold):
        idx = greedy_choice(len(pairs), chosen, list(zip(chosen[-window:], scores[-window:])))
        chosen.append(idx)
        scores.append(log_flat[bisect_right(cdfs[idx], rng.random())])
        path.append((path[-1] if path else 0.0) + scores[-1])
        if (absorbed is None and path[-1] < threshold and len(set(chosen)) == len(pairs)
                and len(chosen) >= window and set(chosen[-window:]) == {idx}):
            absorbed = len(path)
    return path, absorbed


class TestRunTrial:
    def test_stepwise_loop_matches_the_reference_fold(self):
        # both engines, through _run_trials; (anchor, alpha, cap, seeds): n=4 has 12
        # vertices, so RandomPair's integers(12) is not a power-of-two draw; the cap of
        # 15 censors; alpha 1e-300 on n=2 takes about 1,400 steps, past 1,024; a window of
        # 300 keeps greedy in the stepwise loop across several 128-uniform chunks
        cases = [([0.5, 0.5], 1e-300, 10**6, (0,)),
                 ([0.5, 0.5], 1e-6, 10**4, (1, 2)),
                 ([0.4, 0.3, 0.3], 1e-20, 10**4, (3, 4)),
                 ([0.4, 0.3, 0.18, 0.12], 1e-20, 10**4, (5, 6)),
                 ([0.4, 0.3, 0.18, 0.12], 1e-20, 15, (7, 8))]
        policies = (ewm.FixedPair(1, 0), ewm.RoundRobin(), ewm.RandomPair(),
                    ewm.HistoryGreedy(window=8), ewm.HistoryGreedy(window=32),
                    ewm.HistoryGreedy(window=300))
        censored = long_runs = 0
        for anchor, alpha, cap, seeds in cases:
            spec = spec_of(anchor, 0.1)
            e = ewm.optimal_evalue(spec)
            for policy in policies:
                for seed in seeds:
                    record = engine_record(spec, policy, alpha, cap, seed)
                    assert record == reference_fold(spec, e, policy, alpha, cap, seed)
                    censored += record.stop_step is None
                    long_runs += record.steps_run > 1_024
        assert censored and long_runs == len(policies)

    def test_deterministic(self):
        config = ewm.ExperimentConfig(
            spec=FAIR, alphas=(1e-6,), trials=5, policy=ewm.FixedPair(0, 1), base_seed=9
        )
        a = [ewm.run_trial(config, 1e-6, 0, t) for t in range(5)]
        b = [ewm.run_trial(config, 1e-6, 0, t) for t in range(5)]
        assert a == b

    def test_fast_path_matches_stepwise_loop(self):
        config = ewm.ExperimentConfig(
            spec=FAIR, alphas=(0.02, 1e-12), trials=8, policy=ewm.FixedPair(0, 1), base_seed=42
        )
        e = ewm.optimal_evalue(FAIR)
        for ai, alpha in enumerate(config.alphas):
            cap = ewm.default_horizon(FAIR, alpha)
            for t in range(config.trials):
                fast = ewm.run_trial(config, alpha, ai, t)
                seed = ewm.trial_seed(42, ai, t)
                assert fast == reference_fold(FAIR, e, config.policy, alpha, cap, seed)

    def test_default_horizon_refuses_an_overflowing_quotient(self):
        spec = spec_of([1.0, 7e-309], 7e-310)  # J* about 4.7e-306, scores finite
        with pytest.raises(BadParamsError) as err:
            ewm.default_horizon(spec, 5.7e-309)
        # the CLI's stderr for a subnormal J*, byte for byte
        assert str(err.value) == ("J* = 4.7174781695518544e-306 is too small for a default "
                                  "horizon; give one")
        with pytest.raises(BadParamsError) as err:  # once blamed J* = 0.4946...
            ewm.default_horizon(FAIR, 0.01, factor=1e308)
        assert str(err.value).startswith("factor = 1e+308 overflows the horizon")
        rate = ewm.jstar(FAIR)
        assert ewm.default_horizon(FAIR, 0.01) == math.ceil(10.0 * math.log(100.0) / rate)
        assert ewm.default_horizon(FAIR, 0.01, factor=5.0) == math.ceil(5.0 * math.log(100.0) / rate)

    def test_loose_alpha_stops_on_first_diagonal_draw(self):
        # threshold log(1/0.9) = 0.105 < log 1.9, so any matching first draw stops
        config = ewm.ExperimentConfig(
            spec=FAIR, alphas=(0.9,), trials=10, policy=ewm.FixedPair(0, 1), base_seed=5
        )
        w = ewm.extreme_coupling(FAIR, ewm.ExtremePair(0, 1))
        for t in range(10):
            v, s = ewm.sample_pair(w, ewm.trial_rng(ewm.trial_seed(5, 0, t)))
            record = ewm.run_trial(config, 0.9, 0, t)
            if v == s:
                assert record.stop_step == 1
            else:
                assert record.stop_step != 1

    def test_horizon_cap_censors(self):
        config = ewm.ExperimentConfig(
            spec=FAIR, alphas=(1e-6,), trials=40, policy=ewm.FixedPair(0, 1),
            horizon_cap=1, base_seed=6,
        )
        w = ewm.extreme_coupling(FAIR, ewm.ExtremePair(0, 1))
        seen_censored = False
        for t in range(40):
            v, s = ewm.sample_pair(w, ewm.trial_rng(ewm.trial_seed(6, 0, t)))
            record = ewm.run_trial(config, 1e-6, 0, t)
            if v != s:
                assert record.stop_step is None and record.steps_run == 1
                seen_censored = True
        assert seen_censored

    def test_crossing_is_first_passage(self):
        config = ewm.ExperimentConfig(
            spec=FAIR, alphas=(1e-4,), trials=6, policy=ewm.FixedPair(0, 1), base_seed=7
        )
        e = ewm.optimal_evalue(FAIR)
        threshold = math.log(1e4)
        w = ewm.extreme_coupling(FAIR, ewm.ExtremePair(0, 1))
        for t in range(6):
            record = ewm.run_trial(config, 1e-4, 0, t)
            draws = ewm.sample_stream(w, record.steps_run, ewm.trial_rng(record.seed))
            wealth = np.cumsum(np.log(e.scores[draws[:, 0], draws[:, 1]]))
            assert record.stop_step == record.steps_run
            assert wealth[-1] >= threshold
            assert np.all(wealth[:-1] < threshold)
            assert abs(wealth[-1] - record.final_wealth) < 1e-9

    def test_generic_policies_run(self):
        for policy in (ewm.RoundRobin(), ewm.RandomPair(), ewm.HistoryGreedy(window=8)):
            config = ewm.ExperimentConfig(
                spec=spec_of([0.4, 0.3, 0.3], 0.1), alphas=(1e-3,), trials=3,
                policy=policy, base_seed=8,
            )
            for t in range(3):
                record = ewm.run_trial(config, 1e-3, 0, t)
                assert record.stop_step is not None

    def test_invalid_fixed_pair(self):
        with pytest.raises(InvalidPairError):
            ewm.ExperimentConfig(
                spec=FAIR, alphas=(0.1,), trials=1, policy=ewm.FixedPair(0, 3), base_seed=0
            )


class TestEstimateStopping:
    @pytest.mark.parametrize("policy", [ewm.FixedPair(0, 1), ewm.RoundRobin(), ewm.RandomPair(),
                                        ewm.HistoryGreedy(), ewm.HistoryGreedy(window=4)],
                             ids=["fixed", "roundrobin", "random", "greedy", "greedy-window4"])
    def test_stop_mean_equals_the_fixed_pair_exact_law(self, monkeypatch, policy):
        # on the fair anchor both vertices match with probability 1 - delta/2 = 0.95 and the table
        # has one match score and one miss score, so the wealth is set by the match count, whatever
        # vertex is played: every predictable policy has the fixed pair's stop law (Wald 1947).
        # E[tau ^ cap] sums P(tau > t) for t < cap, and E[(tau ^ cap)^2] sums (2t + 1) P(tau > t);
        # a stop one step late, or a greedy hand-off that drops its wealth, moves the mean
        sweep, stops = _sweep_task, []

        def recorded_sweep(task):  # one work unit per alpha, with one worker
            stops.append(sweep(task))
            return stops[-1]

        monkeypatch.setattr(ewm.simulation, "_sweep_task", recorded_sweep)
        config = ewm.ExperimentConfig(spec=FAIR, alphas=parse_alpha_grid("log:1e-2:1e-60:4"),
                                      trials=10_000 if isinstance(policy, ewm.FixedPair) else 4_000,
                                      policy=policy)
        for row, taus in zip(ewm.estimate_stopping(config), stops, strict=True):
            cap = ewm.simulation._cap(config, row.alpha)
            survival = fair_sweep_survival(row.alpha, cap)
            assert row.censored_count == 0
            assert (survival[taus - 1] > survival[taus]).all()  # every stop has positive mass
            mean = survival[:-1].sum()
            sd = math.sqrt(((2.0 * np.arange(cap) + 1.0) * survival[:-1]).sum() - mean**2)
            assert abs(row.mean_tau - mean) <= 4.0 * sd / math.sqrt(config.trials)

    def test_thread_count_does_not_change_results(self):
        config = ewm.ExperimentConfig(
            spec=FAIR, alphas=(1e-3, 1e-8), trials=150, policy=ewm.FixedPair(0, 1), base_seed=11
        )
        assert ewm.estimate_stopping(config, threads=1) == ewm.estimate_stopping(config, threads=2)

    @pytest.mark.parametrize("policy", [ewm.FixedPair(0, 1), ewm.RoundRobin()])
    def test_pool_is_no_larger_than_the_task_count(self, monkeypatch, policy):
        # an in-process stand-in for the pool records its size and starts nothing
        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        config = ewm.ExperimentConfig(spec=FAIR, alphas=(1e-3, 1e-6), trials=5,
                                      policy=policy, base_seed=3)
        serial = ewm.estimate_stopping(config, threads=1)
        # 5 trials in ranges of ceil(5 / workers), for each of 2 alphas, with
        # at most one worker per CPU
        for cpus, expected in ((16, [2, 3, 4, 5, 10]), (3, [2, 3, 3, 3, 3])):
            monkeypatch.setattr(os, "cpu_count", lambda n=cpus: n)
            sizes.clear()
            for threads in (2, 3, 4, 5, 5000):
                assert ewm.estimate_stopping(config, threads=threads) == serial
            assert sizes == expected

    @pytest.mark.parametrize("threads", [0, -4])
    def test_threads_must_be_positive(self, threads):
        config = ewm.ExperimentConfig(spec=FAIR, alphas=(1e-3,), trials=2,
                                      policy=ewm.FixedPair(0, 1))
        with pytest.raises(BadParamsError):
            ewm.estimate_stopping(config, threads=threads)

    def test_batched_sweep_matches_stepwise_loop(self):
        # (anchor, delta, pair, alpha, cap, first chunk): on the 2-symbol anchor's
        # weak, noisy drift about 12% of trials outlast their first chunk and
        # continue from their carry; the 5-symbol case has a 25-cell table;
        # both caps censor some trials
        cases = [([0.85, 0.15], 0.14, (0, 1), 1e-5, 120, 104),
                 ([0.6, 0.1, 0.1, 0.1, 0.1], 0.09, (1, 0), 1e-5, 14, None)]
        for anchor, delta, pair, alpha, cap, chunk in cases:
            spec = spec_of(anchor, delta)
            config = ewm.ExperimentConfig(spec=spec, alphas=(alpha,), trials=300,
                                          policy=ewm.FixedPair(*pair), horizon_cap=cap,
                                          base_seed=31)
            seeds = [ewm.trial_seed(31, 0, t) for t in range(300)]
            taus = scalar_fold(spec, config.policy, alpha, cap, seeds)[0]
            assert (taus < 0).any() and (chunk is None or (taus > chunk).any())
            assert np.array_equal(_sweep_task((config, alpha, cap, 0, 0, 300)), taus)
            row = ewm.estimate_stopping(config, threads=1)[0]
            assert ewm.estimate_stopping(config, threads=2) == [row]
            filled = np.where(taus < 0, cap, taus)
            assert row.censored_count == int((taus < 0).sum())
            assert row.mean_tau == float(filled.astype(np.float64).mean())

    def test_trials_outlasting_their_chunk_continue_in_one_pass(self, monkeypatch):
        # the first case above: 300 trials read their first 104 steps in groups of 157 rows,
        # then the 36 of both groups that ran on read their last 16 steps, to the cap, together
        spec, shapes = spec_of([0.85, 0.15], 0.14), []

        def recorded(inc, *args):
            shapes.append(inc.shape)
            return _first_crossing(inc, *args)

        monkeypatch.setattr(ewm.simulation, "_first_crossing", recorded)
        seeds = [ewm.trial_seed(31, 0, t) for t in range(300)]
        stops, wealth = _run_blocks(spec, ewm.FixedPair(0, 1), 1e-5, 120, seeds)
        assert shapes == [(157, 104), (143, 104), (36, 16)]
        expected = scalar_fold(spec, ewm.FixedPair(0, 1), 1e-5, 120, seeds)
        assert np.array_equal(stops, expected[0]) and np.array_equal(wealth, expected[1])

    def test_small_rate_keeps_chunks_bounded(self):
        # J* ~ 7.8e-6: 1.25 expected stopping times would be a 739,000-draw chunk
        spec = spec_of([1 - 1e-6, 1e-6], 9e-7)
        seeds = [ewm.trial_seed(5, 0, t) for t in range(4)]
        tracemalloc.start()
        try:
            _run_blocks(spec, ewm.FixedPair(1, 0), 0.01, ewm.default_horizon(spec, 0.01), seeds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_bounded_chunks_carry_like_the_stepwise_loop(self):
        # every trial runs past 150,000 steps, so its wealth carries across
        # nine or more chunk boundaries
        spec = spec_of([1 - 1e-5, 1e-5], 9e-6)
        cap = ewm.default_horizon(spec, 0.01)
        seeds = [ewm.trial_seed(5, 0, t) for t in range(4)]
        stops, wealth = _run_blocks(spec, ewm.FixedPair(0, 1), 0.01, cap, seeds)
        expected = scalar_fold(spec, ewm.FixedPair(0, 1), 0.01, cap, seeds)
        assert stops.min() > 150_000
        assert np.array_equal(stops, expected[0]) and np.array_equal(wealth, expected[1])

    def test_ratio_tracks_rate(self):
        config = ewm.ExperimentConfig(
            spec=FAIR, alphas=(1e-30,), trials=400, policy=ewm.FixedPair(0, 1), base_seed=12
        )
        row = ewm.estimate_stopping(config)[0]
        assert row.censored_count == 0
        assert abs(row.ratio - 1.0 / ewm.jstar(FAIR)) / (1.0 / ewm.jstar(FAIR)) < 0.05

    def test_rows_are_reduced_as_their_units_arrive(self, monkeypatch):
        # one alpha's stop steps are held at a time, not an alphas x trials table
        task, row, calls, reduced = ewm.simulation._sweep_task, ewm.SweepRow, [], []
        monkeypatch.setattr(ewm.simulation, "_sweep_task",
                            lambda args: calls.append(args) or task(args))
        monkeypatch.setattr(ewm.simulation, "SweepRow",
                            lambda **fields: reduced.append(len(calls)) or row(**fields))
        config = ewm.ExperimentConfig(spec=FAIR, alphas=(1e-2, 1e-3, 1e-4), trials=4,
                                      policy=ewm.FixedPair(0, 1), base_seed=13)
        ewm.estimate_stopping(config, threads=1)
        assert reduced == [1, 2, 3]

    def test_capped_work_units_leave_the_rows_as_they_were(self, monkeypatch):
        # seeds depend only on the alpha and trial index, and units are reduced in task order
        config = ewm.ExperimentConfig(spec=FAIR, alphas=(1e-2, 1e-5), trials=10,
                                      policy=ewm.RandomPair(), base_seed=17)
        uncapped = ewm.estimate_stopping(config, threads=1)
        task, sizes = ewm.simulation._sweep_task, []
        monkeypatch.setattr(ewm.simulation, "_UNIT_TRIALS", 3)
        monkeypatch.setattr(ewm.simulation, "_sweep_task",
                            lambda args: sizes.append(args[5] - args[4]) or task(args))
        assert ewm.estimate_stopping(config, threads=1) == uncapped
        assert sizes == [3, 3, 3, 1] * 2

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs VmHWM")
    def test_memory_does_not_grow_with_the_trials(self):
        # a work unit holds at most 2**16 trials, so its seed lists no longer grow with them
        setup = """
            def sweep(trials):
                spec = ewm.make_neighborhood(ewm.make_distribution([0.5, 0.5]), 0.1)
                config = ewm.ExperimentConfig(spec=spec, alphas=(0.01,), trials=trials,
                                              policy=ewm.FixedPair(0, 1))
                ewm.estimate_stopping(config)
        """
        assert peak_growth_mib(setup, "sweep(10**5)", "sweep(4 * 10**5)") < 20.0

    def test_csv_shape(self):
        config = ewm.ExperimentConfig(
            spec=FAIR, alphas=(0.01, 0.001), trials=20, policy=ewm.FixedPair(0, 1), base_seed=13
        )
        rows = ewm.estimate_stopping(config)
        buf = io.StringIO()
        ewm.simulation.write_sweep_csv(buf, rows)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "alpha,log_inv_alpha,mean_tau,std_err,ratio,censored_count"
        assert len(lines) == 3

    def test_no_policy_beats_the_rate_lower_bound(self):
        # every adversary in the suite needs at least (1 - 2%) / jstar steps
        # per nat of threshold at tiny alpha
        floor = 0.98 / ewm.jstar(FAIR)
        for policy in (ewm.FixedPair(0, 1), ewm.RoundRobin(),
                       ewm.RandomPair(), ewm.HistoryGreedy(window=8)):
            config = ewm.ExperimentConfig(
                spec=FAIR, alphas=(1e-120,), trials=500, policy=policy, base_seed=23
            )
            row = ewm.estimate_stopping(config, threads=2)[0]
            assert row.censored_count == 0
            assert row.ratio >= floor, (policy, row.ratio, floor)


class TestBlockEngine:
    @pytest.mark.parametrize("m", [2, 12])
    def test_random_decode_equals_numpy_draws(self, m):
        # five trials' first 150 words decode to the vertex, then the uniform, of
        # their first 100 steps
        raw = np.stack([ewm.trial_rng(seed).bit_generator.random_raw(150) for seed in range(5)])
        vertex, words, rejected = _random_steps(raw, m)
        assert not rejected.any()
        for seed in range(5):
            twin = ewm.trial_rng(seed)
            expected = [(int(twin.integers(m)), twin.random()) for _ in range(100)]
            uniforms = (words[seed] >> np.uint64(11)) * 2.0**-53
            assert list(zip(vertex[seed].tolist(), uniforms.tolist())) == expected

    def test_random_decode_flags_exactly_the_rejecting_blocks(self):
        # for m = 3 * 2**30 numpy rejects a quarter of its 32-bit draws; a two-step
        # block that none rejects leaves the twin at word 3 with no half-word kept
        m, seeds = 3 * 2**30, range(200)
        raw = np.stack([ewm.trial_rng(seed).bit_generator.random_raw(3) for seed in seeds])
        vertex, words, rejected = _random_steps(raw, m)
        for seed in seeds:
            twin = ewm.trial_rng(seed)
            draws = [(int(twin.integers(m)), twin.random()) for _ in range(2)]
            state = twin.bit_generator.state
            clean = word_position(state) == 3 and not state["has_uint32"]
            assert rejected[seed] == (not clean)
            if clean:
                uniforms = (words[seed] >> np.uint64(11)) * 2.0**-53
                assert list(zip(vertex[seed].tolist(), uniforms.tolist())) == draws
        assert 0 < rejected.sum() < len(seeds)

    def test_a_rejecting_row_is_rerun_by_the_stepwise_loop(self, monkeypatch):
        decode, stepwise, rerun = _random_steps, _run_stepwise, []

        def reject_the_first_row_once(raw, m):
            vertex, u, rejected = decode(raw, m)
            rejected[0] |= not rerun
            return vertex, u, rejected

        def recorded_stepwise(spec, policy, alpha, cap, seeds):
            rerun.extend(seeds)
            return stepwise(spec, policy, alpha, cap, seeds)

        monkeypatch.setattr(ewm.simulation, "_random_steps", reject_the_first_row_once)
        monkeypatch.setattr(ewm.simulation, "_run_stepwise", recorded_stepwise)
        spec = spec_of([0.4, 0.3, 0.18, 0.12], 0.1)
        e, seeds = ewm.optimal_evalue(spec), [ewm.trial_seed(17, 0, t) for t in range(3)]
        config = ewm.ExperimentConfig(spec=spec, alphas=(1e-6,), trials=3,
                                      policy=ewm.RandomPair())
        stops, wealth = ewm.simulation._run_trials(config, 1e-6, 500, seeds)
        assert rerun == seeds[:1]
        for t, seed in enumerate(seeds):
            record = reference_fold(spec, e, ewm.RandomPair(), 1e-6, 500, seed)
            assert (stops[t], wealth[t]) == (record.stop_step or -1, record.final_wealth)

    @pytest.mark.parametrize("policy", [ewm.RoundRobin(), ewm.RandomPair()])
    def test_blocks_carry_like_a_scalar_fold(self, policy):
        # on the weak, noisy drift of [0.85, 0.15] some trials outlast their first
        # 104-step block; the odd cap of 121 censors some and ends on an odd block
        spec = spec_of([0.85, 0.15], 0.14)
        seeds = [ewm.trial_seed(31, 0, t) for t in range(300)]
        stops, wealth = _run_blocks(spec, policy, 1e-5, 121, seeds)
        fold = scalar_fold if isinstance(policy, ewm.RoundRobin) else _run_stepwise
        expected = fold(spec, policy, 1e-5, 121, seeds)
        assert (stops > 104).any() and (stops < 0).any()
        assert np.array_equal(stops, expected[0]) and np.array_equal(wealth, expected[1])

    @pytest.mark.parametrize("window", [1, 2, 8, 32, 121])
    @pytest.mark.parametrize("anchor", [[0.5, 0.5], [0.4, 0.3, 0.3], [0.4, 0.3, 0.18, 0.12]])
    def test_greedy_handoff_equals_a_one_uniform_fold(self, anchor, window):
        # each absorbed trial alone with its horizon one step before, at and one step after
        # its absorption; all trials together at the default horizon and at three shared
        # caps, where trials absorbed at different steps reach the cap inside one block and
        # one that crosses past its horizon there is censored; window 121 outlasts its cap
        # of 120, so nothing is absorbed and the stepwise loop runs every step
        spec, alpha = spec_of(anchor, 0.1), 1e-40
        config = ewm.ExperimentConfig(spec=spec, alphas=(alpha,), trials=1,
                                      policy=ewm.HistoryGreedy(window=window))
        default = 120 if window > 120 else ewm.default_horizon(spec, alpha)
        seeds = [ewm.trial_seed(53, window, t) for t in range(100)]
        folds = {seed: greedy_fold(spec, window, alpha, default, seed) for seed in seeds}
        ends = sorted(len(path) for path, _ in folds.values())
        starts = sorted(a for _, a in folds.values() if a is not None) or [1]
        runs = [(cap, seeds) for cap in (default, starts[50 * len(starts) // 100] + 1,
                                         ends[25], ends[50])]
        for seed, (path, absorbed) in folds.items():
            if absorbed is not None:
                runs += [(cap, [seed]) for cap in (absorbed - 1, absorbed, absorbed + 1)]
        for cap, batch in runs:
            stops, wealth = ewm.simulation._run_trials(config, alpha, cap, batch)
            for seed, stop, total in zip(batch, stops.tolist(), wealth.tolist()):
                path = folds[seed][0][:cap]
                expected = len(path) if path[-1] >= math.log(1.0 / alpha) else -1
                assert (stop, total) == (expected, path[-1]), (seed, cap)
        absorbed = [a for _, a in folds.values() if a is not None]
        handed = [a for seed, (path, a) in folds.items() if a is not None and len(path) > a]
        assert not absorbed if window > 120 else len(handed) >= 10

    def test_the_vertex_table_is_built_once_and_kept_alone(self):
        # one process runs four sweeps, each of which a fresh process reproduces byte
        # for byte; each sweep builds its table once (one miss), spec B's table evicts
        # A's, and A's is rebuilt when it comes back
        code = textwrap.dedent("""
            import io, sys, ewm
            spec = ewm.make_neighborhood(ewm.make_distribution(eval(sys.argv[1])), 0.1)
            policy = ewm.FixedPair(0, 1) if sys.argv[2] == "fixed" else ewm.RoundRobin()
            config = ewm.ExperimentConfig(spec=spec, alphas=(1e-2, 1e-20), trials=20,
                                          policy=policy, base_seed=5)
            ewm.simulation.write_sweep_csv(sys.stdout, ewm.estimate_stopping(config))
        """)
        src = str(Path(ewm.__file__).resolve().parents[1])
        a, b = spec_of([0.4, 0.3, 0.3], 0.1), spec_of([0.25, 0.25, 0.25, 0.25], 0.1)
        _vertex_table.cache_clear()
        for sweeps, (spec, policy) in enumerate(((a, "fixed"), (a, "roundrobin"),
                                                 (b, "roundrobin"), (a, "roundrobin")), 1):
            config = ewm.ExperimentConfig(
                spec=spec, alphas=(1e-2, 1e-20), trials=20, base_seed=5,
                policy=ewm.FixedPair(0, 1) if policy == "fixed" else ewm.RoundRobin())
            buf = io.StringIO()
            ewm.simulation.write_sweep_csv(buf, ewm.estimate_stopping(config))
            argv = [str(spec.anchor.weights.tolist()), policy]
            fresh = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                                   text=True, check=True, env={**os.environ, "PYTHONPATH": src})
            assert buf.getvalue() == fresh.stdout
            info = _vertex_table.cache_info()
            assert (info.misses, info.currsize) == (sweeps, 1)
            _vertex_table(spec, config.policy if policy == "fixed" else None)  # the key kept
            assert _vertex_table.cache_info().misses == sweeps

    def test_config_refuses_an_unknown_policy(self):
        # the one policy check: the engines run whatever policy a config holds
        for policy in ("greedy", None, ewm.ExtremePair):  # a name, nothing, a class
            with pytest.raises(BadParamsError, match="unknown policy"):
                ewm.ExperimentConfig(spec=FAIR, alphas=(0.01,), trials=1, policy=policy)


class TestDriftIdentity:
    def test_fixed_pair_mean_log_score_is_rate(self):
        spec = spec_of([0.2, 0.8], 0.1)
        e = ewm.optimal_evalue(spec)
        w = ewm.extreme_coupling(spec, ewm.ExtremePair(0, 1))
        draws = ewm.sample_stream(w, 10**6, ewm.trial_rng(14))
        incs = np.log(e.scores[draws[:, 0], draws[:, 1]])
        se = incs.std(ddof=1) / math.sqrt(incs.size)
        assert abs(incs.mean() - ewm.jstar(spec)) < 4.0 * se

    def test_adaptive_policies_share_the_drift(self):
        # unreachable threshold and a fixed horizon: no stopping bias in the mean
        spec = spec_of([0.4, 0.3, 0.3], 0.1)
        for policy in (ewm.RoundRobin(), ewm.HistoryGreedy(window=16)):
            record = engine_record(spec, policy, 1e-320, 700, 77)
            assert record.stop_step is None and record.steps_run == 700
            mean = record.final_wealth / record.steps_run
            assert abs(mean - ewm.jstar(spec)) < 0.12  # 4 sd of a 700-step average


class TestWaldIdentity:
    """Every vertex coupling drifts at J*, so ``W_t - J* t`` is a martingale under
    any predictable choice of vertex, and ``E[W_{tau ^ cap}] = J* E[tau ^ cap]``
    (Wald, 1944).  This checks the stop steps and the wealth that both engines
    return against each other; a stop one step late moves the mean by J*."""

    SPEC = spec_of([0.4, 0.3, 0.3], 0.1)

    @pytest.mark.parametrize("cap", [None, 16], ids=["uncapped", "capped"])
    @pytest.mark.parametrize("policy, trials", [(ewm.FixedPair(0, 1), 20_000),
                                                (ewm.RoundRobin(), 3_000),
                                                (ewm.RandomPair(), 3_000),
                                                (ewm.HistoryGreedy(), 3_000)],
                             ids=["fixed", "roundrobin", "random", "greedy"])
    def test_mean_wealth_at_the_stop_is_rate_times_mean_stop(self, policy, trials, cap):
        config = ewm.ExperimentConfig(spec=self.SPEC, alphas=(1e-6,), trials=trials,
                                      policy=policy, horizon_cap=cap, base_seed=41)
        horizon = ewm.simulation._cap(config, 1e-6)
        seeds = [ewm.trial_seed(41, 0, t) for t in range(trials)]
        stops, wealth = ewm.simulation._run_trials(config, 1e-6, horizon, seeds)
        # the default horizon censors nothing; a cap of 16 censors about half
        assert 0.3 < (stops < 0).mean() < 0.7 if cap else not (stops < 0).any()
        d = wealth - ewm.jstar(self.SPEC) * np.where(stops < 0, horizon, stops)
        assert abs(d.mean()) < 4.0 * d.std(ddof=1) / math.sqrt(d.size)


def exact_fair_survival(e, alpha, horizon, match=0.5):
    """``P(tau > t)`` for ``t = 0..horizon`` of a stream on the fair anchor whose steps match
    with probability ``match`` (1/2 under the null) under table ``e``: a step is a match or a
    miss, so the wealth after ``t`` steps is set by the match count, and a DP over counts drops
    the mass that has crossed ``log(1/alpha)``."""
    (hit, miss), (miss2, hit2) = e.log_scores.tolist()
    assert (hit, miss) == (hit2, miss2)
    threshold, alive, survival = math.log(1.0 / alpha), np.ones(1), [1.0]
    for t in range(1, horizon + 1):
        alive = np.append(alive * (1.0 - match), 0.0) + np.append(0.0, alive * match)
        j = np.arange(t + 1)
        crossed = j * hit + (t - j) * miss >= threshold
        survival.append(survival[-1] - float(alive[crossed].sum()))  # no mass crossed, no change
        alive[crossed] = 0.0
    return np.array(survival)


@functools.lru_cache(maxsize=None)
def fair_sweep_survival(alpha, horizon):
    """:func:`exact_fair_survival` of a sweep on the fair anchor, whose steps match with
    probability 0.95, kept for every policy that is held to it."""
    return exact_fair_survival(ewm.optimal_evalue(FAIR), alpha, horizon, 0.95)


def exact_fair_crossing(e, alpha, horizon):
    """Exact chance that a null stream on the fair anchor crosses ``log(1/alpha)`` within
    ``horizon`` steps under table ``e``."""
    return 1.0 - exact_fair_survival(e, alpha, horizon)[-1]


def exact_stop_law(e, alpha, match, horizon):
    """``law[i, j] = P(tau_e = i, tau_b = j)``, ``0 < i, j <= horizon``, and the mass left running
    at ``horizon``, of a stream on the fair anchor whose steps match with probability ``match``:
    ``tau_e`` the detector's stop under table ``e``, ``tau_b`` the baseline's at null match
    probability exactly 1/2.  Both read only the match count m after k steps.  The detector stops
    once ``m hit + (k - m) miss`` meets ``log(1/alpha)``; no reachable (k, m) lies within 1e-9 of
    it, so no summation order moves a stop.  The baseline stops once its tail, an integer count
    over ``2**k``, is below the float ``alpha / (k (k + 1.0))``, compared exactly.  A DP over
    (step, matches) carries the mass with neither stopped, and a row per first stop step."""
    (hit, miss), (miss2, hit2) = e.log_scores.tolist()
    assert (hit, miss) == (hit2, miss2) and hit > miss
    threshold, size = math.log(1.0 / alpha), horizon + 2
    k, m = np.arange(horizon + 1)[:, np.newaxis], np.arange(size)
    wealth = m * hit + (k - m) * miss
    assert np.abs(wealth - threshold)[m <= k].min() > 1e-9
    e_at, b_at = np.sum(wealth < threshold, axis=1), [size] * (horizon + 1)  # least stopping m
    for k in range(1, horizon + 1):
        num, den = (alpha / (k * (k + 1.0))).as_integer_ratio()
        tail, below, term = 0, k + 1, 1  # tail = sum of comb(k, j), j >= below; term the next
        while below and (tail + term) * den < num << k:
            below, tail = below - 1, tail + term
            term = term * below // (k - below + 1)  # comb(k, below - 1)
        b_at[k] = below
    law, both = np.zeros((horizon + 1, horizon + 1)), np.eye(1, size)[0]
    after_e, after_b, e_steps, b_steps = np.zeros((0, size)), np.zeros((0, size)), [], []
    for k in range(1, horizon + 1):
        for mass in (both, after_e, after_b):
            mass[..., 1:k + 1] = mass[..., 1:k + 1] * (1.0 - match) + mass[..., :k] * match
            mass[..., 0] *= 1.0 - match
        te, tb = e_at[k], b_at[k]
        law[e_steps, k] += after_e[:, tb:].sum(axis=1)  # the baseline stops after the detector
        law[k, b_steps] += after_b[:, te:].sum(axis=1)
        after_e[:, tb:], after_b[:, te:] = 0.0, 0.0
        law[k, k] += both[max(te, tb):].sum()
        if te < tb and both[te:tb].any():  # only the detector stops at these counts
            after_e = np.vstack((after_e, np.where((m >= te) & (m < tb), both, 0.0)))
            e_steps.append(k)
        if tb < te and both[tb:te].any():
            after_b = np.vstack((after_b, np.where((m >= tb) & (m < te), both, 0.0)))
            b_steps.append(k)
        both[min(te, tb):] = 0.0
    return law, both.sum() + after_e.sum() + after_b.sum()


class TestExactStopLaw:
    def test_criterion_9_stops_follow_their_exact_law(self):
        # criterion 9's 1,000 seeded streams: the fair anchor at delta 0.3, vertex (0, 1),
        # alpha 0.02, 600 pairs.  A stop one step late leaves the lattice the law lives on
        spec = spec_of([0.5, 0.5], 0.3)
        e, pbar = ewm.optimal_evalue(spec), ewm.worst_null_match_prob(spec)
        w = ewm.extreme_coupling(spec, ewm.ExtremePair(0, 1))
        assert pbar == 0.5 and abs(np.trace(w.joint) - 0.85) < 1e-12
        law, left = exact_stop_law(e, 0.02, float(np.trace(w.joint)), 600)
        assert left < 1e-20 and abs(law.sum() + left - 1.0) < 1e-12
        stops = []
        for t in range(1000):
            stream = ewm.sample_stream(w, 600, ewm.trial_rng(ewm.trial_seed(909, 0, t)))
            stops.append((ewm.batch_detect(e, 0.02, stream, 600).stop_step,
                          ewm.baseline_batch_detect(0.02, pbar, stream, 600).stop_step))
        assert None not in itertools.chain(*stops)
        tau_e, tau_b = np.array(stops).T
        assert (law[tau_e, tau_b] > 0.0).all()
        steps = np.arange(601)
        for taus, p, exact in ((tau_e, law.sum(axis=1), 15.335), (tau_b, law.sum(axis=0), 33.930)):
            mean = steps @ p
            assert round(mean, 3) == exact
            assert abs(taus.mean() - mean) <= 4.0 * math.sqrt((steps - mean) ** 2 @ p / taus.size)


def calibration_z(trials=40_000):
    """Per alpha of criterion 6, ``calibrate_null``'s rate on the anchor null minus the exact
    rate under the optimal table, in standard errors."""
    optimal, zs = ewm.optimal_evalue(FAIR), []
    for ai, (alpha, horizon, rate) in enumerate(((0.1, 24, 0.0745), (0.05, 31, 0.0389),
                                                  (0.02, 40, 0.0125))):
        assert ewm.default_horizon(FAIR, alpha, factor=5.0) == horizon
        exact = exact_fair_crossing(optimal, alpha, horizon)
        assert round(exact, 4) == rate
        got = ewm.calibrate_null(FAIR, alpha, trials, horizon, FAIR.anchor,
                                 ewm.trial_rng(ewm.trial_seed(1, ai, 0)))
        zs.append((got - exact) / math.sqrt(exact * (1.0 - exact) / trials))
    return zs


class TestCalibrateNull:
    def test_rate_equals_the_exact_crossing_law(self):
        assert all(abs(z) <= 4.0 for z in calibration_z())

    def test_exact_gate_rejects_a_slightly_inflated_table(self, monkeypatch):
        # scaled by 1.02, the exact rates (0.0823, 0.0440, 0.0205) stay inside criterion 6's
        # Ville bound, alpha plus 3 standard errors of 10^4 trials; the exact law does not
        scaled = ewm.make_evalue_table(1.02 * ewm.optimal_evalue(FAIR).scores)
        monkeypatch.setattr(ewm.simulation, "optimal_evalue", lambda spec: scaled)
        for alpha in (0.1, 0.05, 0.02):
            horizon = ewm.default_horizon(FAIR, alpha, factor=5.0)
            bound = alpha + 3.0 * math.sqrt(alpha * (1.0 - alpha) / 10_000)
            assert exact_fair_crossing(scaled, alpha, horizon) <= bound
        assert not all(abs(z) <= 4.0 for z in calibration_z())

    def test_rate_bounded_at_anchor(self):
        rate = ewm.calibrate_null(FAIR, 0.05, 4000, 31, FAIR.anchor, ewm.trial_rng(15))
        assert rate <= 0.05 + 3.0 * math.sqrt(0.05 * 0.95 / 4000)

    def test_rate_bounded_at_extreme_target(self):
        q = ewm.extreme_target(FAIR, ewm.ExtremePair(0, 1))
        rate = ewm.calibrate_null(FAIR, 0.05, 4000, 31, q, ewm.trial_rng(16))
        assert rate <= 0.05 + 3.0 * math.sqrt(0.05 * 0.95 / 4000)

    def test_outside_neighborhood_rejected(self):
        with pytest.raises(OutsideNeighborhoodError, match="L1 distance"):
            ewm.calibrate_null(FAIR, 0.05, 100, 10,
                               ewm.make_distribution([0.8, 0.2]), ewm.trial_rng(17))

    def test_inflated_table_is_invalid(self, monkeypatch):
        # doubling the scores breaks the null constraint and the rate blows up
        doubled = ewm.make_evalue_table(2.0 * ewm.optimal_evalue(FAIR).scores)
        monkeypatch.setattr(ewm.simulation, "optimal_evalue", lambda spec: doubled)
        rate = ewm.calibrate_null(FAIR, 0.05, 2000, 31, FAIR.anchor, ewm.trial_rng(18))
        assert rate > 0.25

    def test_bad_params(self):
        with pytest.raises(BadParamsError):
            ewm.calibrate_null(FAIR, 0.05, 0, 10, FAIR.anchor, ewm.trial_rng(19))

    def test_needs_a_philox_generator(self):
        with pytest.raises(BadParamsError, match="Philox"):
            ewm.calibrate_null(FAIR, 0.05, 10, 10, FAIR.anchor, np.random.default_rng(19))

    @pytest.mark.parametrize("block_cells", [7, 1_000, 16_384])
    def test_sub_blocks_match_whole_blocks(self, monkeypatch, block_cells):
        # (spec, alpha, trials, horizon, doubled table): whole rows per sub-block, rows of 3
        # or 20 split into chunks, horizons above 16,384, and with 1,000 cells or more, 4,001 x
        # 1,000 and 2 x 2,000,001 cells that each span two 4M-cell blocks; the doubled table
        # crosses mid-row.  Rows of one column chunk, of one step more and of several chunks
        # are read a row at a time and leave once they can no longer cross; pruning as if the
        # largest log score were the next one down must then change a rate
        chunk = max(1, block_cells // 16)
        cases = [(FAIR, 0.3, 9, 3, True), (FAIR, 0.3, 50, 20, True), (FAIR, 0.05, 30, 31, False),
                 (FAIR, 0.3, 2, 16_390, True), (FAIR, 0.3, 60, chunk, False),
                 (FAIR, 0.3, 60, chunk + 1, False), (FAIR, 0.2, 40, 4 * chunk + 3, False),
                 (THREE, 0.12, 300, 2, False), (THREE, 0.3, 60, chunk + 1, False),
                 (THREE, 0.15, 300, 4 * chunk + 3, False), (THREE, 0.3, 30, 4 * chunk + 3, True)]
        if block_cells >= 1_000:
            cases += [(FAIR, 0.05, 4_001, 1_000, False), (FAIR, 1e-3, 2, 2_000_001, False),
                      (FAIR, 0.3, 3, 40_000, True)]
        monkeypatch.setattr(ewm.simulation, "_BLOCK_CELLS", block_cells)
        may_cross, rates, pruned = ewm.simulation._may_cross, set(), set()
        for spec, alpha, trials, horizon, double in cases:
            q = ewm.extreme_target(spec, ewm.ExtremePair(0, 1))
            optimal = ewm.optimal_evalue(spec)
            e = ewm.make_evalue_table(2.0 * optimal.scores) if double else optimal
            monkeypatch.setattr(ewm.simulation, "optimal_evalue", lambda spec, e=e: e)
            got, want, mutant = ewm.trial_rng(21), ewm.trial_rng(21), ewm.trial_rng(21)
            for twin in (got, want, mutant):  # each stands mid-buffer, a 32-bit half word kept
                twin.random(3)
                twin.integers(2**32)
            rate = ewm.calibrate_null(spec, alpha, trials, horizon, q, got)
            assert rate == whole_block_calibrate(spec, alpha, trials, horizon, q, want, e)
            assert np.array_equal(got.integers(2**32, size=3), want.integers(2**32, size=3))
            assert np.array_equal(got.random(5), want.random(5))
            rates.add(rate)
            if spec is THREE:  # its second-largest log score is one notch below the largest
                second = float(np.unique(e.log_scores)[-2])
                monkeypatch.setattr(ewm.simulation, "_may_cross",
                                    lambda w, left, top, thr: may_cross(w, left, second, thr))
                pruned.add(ewm.calibrate_null(spec, alpha, trials, horizon, q, mutant) != rate)
                monkeypatch.setattr(ewm.simulation, "_may_cross", may_cross)
        assert any(0.0 < r < 1.0 for r in rates)
        assert True in pruned

    def test_a_row_at_minus_infinity_leaves_quietly(self, monkeypatch):
        # a zero score sends the wealth to -inf, which can no longer cross: no inf - inf is taken
        scores = ewm.optimal_evalue(FAIR).scores.copy()
        scores[1, 0] = 0.0
        e = ewm.make_evalue_table(scores)
        monkeypatch.setattr(ewm.simulation, "optimal_evalue", lambda spec: e)
        q = ewm.extreme_target(FAIR, ewm.ExtremePair(0, 1))
        rate = ewm.calibrate_null(FAIR, 0.3, 200, 5_000, q, ewm.trial_rng(3))
        assert rate == whole_block_calibrate(FAIR, 0.3, 200, 5_000, q, ewm.trial_rng(3), e) > 0.0

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs VmHWM")
    def test_memory_does_not_grow_with_the_horizon(self):
        # one stream of 10^7 steps: a whole row would be several 80 MB arrays
        setup = "spec = ewm.make_neighborhood(ewm.make_distribution([0.5, 0.5]), 0.1)"
        run = "ewm.calibrate_null(spec, 0.05, 1, {}, spec.anchor, ewm.trial_rng(0))"
        assert peak_growth_mib(setup, run.format(100), run.format(10**7)) < 32.0


class TestAdaptiveNull:
    # The wealth must be a test supermartingale under every predictable null
    # in the ball, not only a stationary one: each adversary below picks a
    # vertex null from its stream's own past, and the false-positive rate over
    # 10^4 streams of 400 steps must stay at or below alpha + 3 sigma.  Under
    # the optimal table scaled by 1.5 the same adversaries must break that bound.
    SPEC = spec_of([0.5, 0.3, 0.2], 0.15)

    @pytest.mark.parametrize("adversary", ["boundary", "mirror"])
    def test_history_dependent_nulls_keep_the_level(self, adversary):
        e = ewm.optimal_evalue(self.SPEC)
        scaled = ewm.make_evalue_table(1.5 * e.scores)
        for alpha in (0.05, 0.2):
            bound = alpha + 3.0 * math.sqrt(alpha * (1.0 - alpha) / 10_000)
            assert adaptive_null_rate(self.SPEC, e, adversary, alpha) <= bound
            assert adaptive_null_rate(self.SPEC, scaled, adversary, alpha) > bound


def adaptive_null_rate(spec, e, adversary, alpha, streams=10_000, steps=400):
    """Fraction of ``streams`` null streams whose wealth under ``e`` crosses
    log(1/alpha) within ``steps``, each outcome drawn from a vertex target the
    adversary picks from that stream's past, each seed from the anchor.

    ``boundary``: within one largest diagonal jump of the threshold, it moves
    delta/2 onto the symbol with the largest diagonal score (the up vertex,
    taken from the symbol with the smallest); elsewhere it plays the vertex
    with the largest mean log score.  ``mirror``: it plays the up vertex at
    the start and after an increment >= 0, and its reverse after a negative one."""
    opt = ewm.optimal_evalue(spec).log_scores
    pairs = ewm.enumerate_extremes(spec)
    targets = np.array([ewm.extreme_target(spec, p).weights for p in pairs])
    diag = np.diag(opt)
    hi, lo = int(np.argmax(diag)), int(np.argmin(diag))
    up, down = pairs.index(ewm.ExtremePair(hi, lo)), pairs.index(ewm.ExtremePair(lo, hi))
    drift = int(np.argmax(targets @ opt @ spec.anchor.weights))
    cdfs, seed_cdf = np.cumsum(targets, axis=1), np.cumsum(spec.anchor.weights)
    log_e, threshold = e.log_scores, math.log(1.0 / alpha)
    rng = np.random.Generator(np.random.Philox(key=7))
    wealth, last = np.zeros(streams), np.zeros(streams)
    crossed = np.zeros(streams, dtype=bool)
    for _ in range(steps):
        if adversary == "boundary":
            k = np.where(threshold - wealth <= diag[hi], up, drift)
        else:
            k = np.where(last >= 0.0, up, down)
        v = np.minimum((rng.random(streams)[:, None] >= cdfs[k]).sum(axis=1), spec.n - 1)
        s = np.minimum(np.searchsorted(seed_cdf, rng.random(streams), side="right"), spec.n - 1)
        last = log_e[v, s]
        wealth += last
        crossed |= wealth >= threshold
    return float(crossed.mean())


def words_of(u):
    """The 64-bit words, low 11 bits 0, that ``Generator.random`` reads as the uniforms ``u``."""
    return (u * 2.0**53).astype(np.uint64) << np.uint64(11)


def whole_block_calibrate(spec, alpha, trials, horizon, q_null, rng, e):
    """``calibrate_null``'s draws and rate under table ``e`` as two whole matrices per block
    of ``4_000_000 // horizon`` streams: all outcomes, then all seeds."""
    log_flat = e.log_scores.ravel()
    threshold = math.log(1.0 / alpha)
    row = _cell_lookup(np.cumsum(q_null.weights)[np.newaxis], np.arange(spec.n) * spec.n)
    col = _cell_lookup(np.cumsum(spec.anchor.weights)[np.newaxis], np.arange(spec.n))
    hits = 0
    block = max(1, min(trials, 4_000_000 // max(1, horizon)))
    done = 0
    while done < trials:
        b = min(block, trials - done)
        cell = row(words_of(rng.random((b, horizon))))  # drawn as Generator.random does
        cell += col(words_of(rng.random((b, horizon))))
        hit, _ = _first_crossing(log_flat[cell], threshold)
        hits += int(np.count_nonzero(hit >= 0))
        done += b
    return hits / trials
