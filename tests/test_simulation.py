import io
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import ewm
from ewm.coupling import _cell_lookup
from ewm.detection import _first_crossing
from ewm.errors import BadParamsError, InvalidPairError, OutsideNeighborhoodError
from ewm.simulation import (
    _STEP_CHUNK,
    StepOutcome,
    TrialRecord,
    _philox_at,
    _run_stepwise,
    _sweep_task,
    choose_pair,
)


def spec_of(weights, delta):
    return ewm.make_neighborhood(ewm.make_distribution(weights), delta)


FAIR = spec_of([0.5, 0.5], 0.1)


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


def word_position(state):
    """The 64-bit word a sequential reader of ``state``'s stream stands at."""
    counter = sum(int(c) << 64 * i for i, c in enumerate(state["state"]["counter"]))
    return 4 * counter - (4 - state["buffer_pos"])


class TestRekey:
    def test_rekeyed_stream_equals_fresh_stream(self):
        gen = ewm.trial_rng(0)
        state = gen.bit_generator.state
        for seed in (0, 1, 2**63 + 5, 2**64 - 1):
            state["state"]["key"][0] = 99
            _philox_at(gen, state, 0)
            gen.random(7)  # another key first draws an odd number of values
            state["state"]["key"][0] = seed
            _philox_at(gen, state, 0)
            assert np.array_equal(gen.random(11), ewm.trial_rng(seed).random(11))

    def test_rekey_to_a_counter_continues_the_stream(self):
        gen = ewm.trial_rng(0)
        state = gen.bit_generator.state
        for seed in (0, 2**64 - 1):
            fresh = ewm.trial_rng(seed).random(20)
            state["state"]["key"][0] = seed
            _philox_at(gen, state, 0)
            gen.random(3)
            _philox_at(gen, state, 12)
            assert np.array_equal(gen.random(8), fresh[12:])

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
        placed = ewm.trial_rng(0)
        _philox_at(placed, state, word_position(state) + offset)
        caller.random(offset)
        assert np.array_equal(placed.random(9), caller.random(9))
        placed, caller = placed.bit_generator.state, caller.bit_generator.state
        assert placed["buffer_pos"] == caller["buffer_pos"]
        for field in ("counter", "key"):
            assert np.array_equal(placed["state"][field], caller["state"][field])


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


def stepwise_record(spec, policy, alpha, cap, seed):
    """One trial of the stepwise loop as a ``TrialRecord``."""
    stops, wealth = _run_stepwise(spec, policy, alpha, cap, [seed])
    stop = int(stops[0]) if stops[0] > 0 else None
    return TrialRecord(stop_step=stop, final_wealth=float(wealth[0]), steps_run=stop or cap,
                       seed=seed)


class TestRunTrial:
    def test_stepwise_loop_matches_the_reference_fold(self):
        # (anchor, alpha, cap, seeds): n=4 has 12 vertices, so RandomPair's
        # integers(12) is not a power-of-two draw; the cap of 15 censors;
        # alpha 1e-300 on n=2 takes about 1,400 steps, more than one chunk
        cases = [([0.5, 0.5], 1e-300, 10**6, (0,)),
                 ([0.5, 0.5], 1e-6, 10**4, (1, 2)),
                 ([0.4, 0.3, 0.3], 1e-20, 10**4, (3, 4)),
                 ([0.4, 0.3, 0.18, 0.12], 1e-20, 10**4, (5, 6)),
                 ([0.4, 0.3, 0.18, 0.12], 1e-20, 15, (7, 8))]
        policies = (ewm.FixedPair(1, 0), ewm.RoundRobin(), ewm.RandomPair(),
                    ewm.HistoryGreedy(window=8), ewm.HistoryGreedy(window=32))
        censored = long_runs = 0
        for anchor, alpha, cap, seeds in cases:
            spec = spec_of(anchor, 0.1)
            e = ewm.optimal_evalue(spec)
            for policy in policies:
                for seed in seeds:
                    record = stepwise_record(spec, policy, alpha, cap, seed)
                    assert record == reference_fold(spec, e, policy, alpha, cap, seed)
                    censored += record.stop_step is None
                    long_runs += record.steps_run > _STEP_CHUNK
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
        for ai, alpha in enumerate(config.alphas):
            cap = ewm.default_horizon(FAIR, alpha)
            for t in range(config.trials):
                fast = ewm.run_trial(config, alpha, ai, t)
                slow = stepwise_record(FAIR, config.policy, alpha, cap, ewm.trial_seed(42, ai, t))
                assert fast == slow

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

        monkeypatch.setattr(ewm.simulation, "ProcessPoolExecutor", InProcessPool)
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
            taus = _run_stepwise(spec, config.policy, alpha, cap, seeds)[0]
            assert (taus < 0).any() and (chunk is None or (taus > chunk).any())
            assert np.array_equal(_sweep_task((config, alpha, 0, 0, 300))[2], taus)
            row = ewm.estimate_stopping(config, threads=1)[0]
            assert ewm.estimate_stopping(config, threads=2) == [row]
            filled = np.where(taus < 0, cap, taus)
            assert row.censored_count == int((taus < 0).sum())
            assert row.mean_tau == float(filled.astype(np.float64).mean())

    def test_ratio_tracks_rate(self):
        config = ewm.ExperimentConfig(
            spec=FAIR, alphas=(1e-30,), trials=400, policy=ewm.FixedPair(0, 1), base_seed=12
        )
        row = ewm.estimate_stopping(config)[0]
        assert row.censored_count == 0
        assert abs(row.ratio - 1.0 / ewm.jstar(FAIR)) / (1.0 / ewm.jstar(FAIR)) < 0.05

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
            record = stepwise_record(spec, policy, 1e-320, 700, 77)
            assert record.stop_step is None and record.steps_run == 700
            mean = record.final_wealth / record.steps_run
            assert abs(mean - ewm.jstar(spec)) < 0.12  # 4 sd of a 700-step average


class TestCalibrateNull:
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

    def test_inflated_table_is_invalid(self):
        # doubling the scores breaks the null constraint and the rate blows up
        doubled = ewm.make_evalue_table(2.0 * ewm.optimal_evalue(FAIR).scores)
        rate = ewm.calibrate_null(FAIR, 0.05, 2000, 31, FAIR.anchor,
                                  ewm.trial_rng(18), e=doubled)
        assert rate > 0.25

    def test_bad_params(self):
        with pytest.raises(BadParamsError):
            ewm.calibrate_null(FAIR, 0.05, 0, 10, FAIR.anchor, ewm.trial_rng(19))

    def test_needs_a_philox_generator(self):
        with pytest.raises(BadParamsError, match="Philox"):
            ewm.calibrate_null(FAIR, 0.05, 10, 10, FAIR.anchor, np.random.default_rng(19))

    @pytest.mark.parametrize("block_cells", [7, 1_000, 16_384])
    def test_sub_blocks_match_whole_blocks(self, monkeypatch, block_cells):
        # (alpha, trials, horizon, doubled table): whole rows per sub-block,
        # rows of 3 or 20 split into chunks of 7, horizons above 16,384, and
        # with 1,000 cells or more, 4,001 x 1,000 and 2 x 2,000,001 cells that
        # each span two 4M-cell blocks; the doubled table crosses mid-row
        cases = [(0.3, 9, 3, True), (0.3, 50, 20, True), (0.05, 30, 31, False),
                 (0.3, 2, 16_390, True)]
        if block_cells >= 1_000:
            cases += [(0.05, 4_001, 1_000, False), (1e-3, 2, 2_000_001, False),
                      (0.3, 3, 40_000, True)]
        monkeypatch.setattr(ewm.simulation, "_BLOCK_CELLS", block_cells)
        q = ewm.extreme_target(FAIR, ewm.ExtremePair(0, 1))
        doubled = ewm.make_evalue_table(2.0 * ewm.optimal_evalue(FAIR).scores)
        rates = set()
        for alpha, trials, horizon, double in cases:
            e = doubled if double else None
            got, want = ewm.trial_rng(21), ewm.trial_rng(21)
            got.random(3)  # both stand mid-buffer
            want.random(3)
            rate = ewm.calibrate_null(FAIR, alpha, trials, horizon, q, got, e=e)
            assert rate == whole_block_calibrate(FAIR, alpha, trials, horizon, q, want, e)
            assert np.array_equal(got.random(5), want.random(5))
            rates.add(rate)
        assert any(0.0 < r < 1.0 for r in rates)

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs VmHWM")
    def test_memory_does_not_grow_with_the_horizon(self):
        # one stream of 10^7 steps: a whole row would be several 80 MB arrays
        code = textwrap.dedent("""
            import ewm

            def peak_kib():
                with open("/proc/self/status") as fh:
                    return next(int(l.split()[1]) for l in fh if l.startswith("VmHWM:"))

            spec = ewm.make_neighborhood(ewm.make_distribution([0.5, 0.5]), 0.1)
            ewm.calibrate_null(spec, 0.05, 1, 100, spec.anchor, ewm.trial_rng(0))
            before = peak_kib()
            ewm.calibrate_null(spec, 0.05, 1, 10**7, spec.anchor, ewm.trial_rng(0))
            print((peak_kib() - before) / 1024)
        """)
        src = str(Path(ewm.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src})
        assert float(out.stdout) < 32.0


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


def whole_block_calibrate(spec, alpha, trials, horizon, q_null, rng, e=None):
    """``calibrate_null``'s draws and rate as two whole matrices per block of
    ``4_000_000 // horizon`` streams: all outcomes, then all seeds."""
    log_flat = (e if e is not None else ewm.optimal_evalue(spec)).log_scores.ravel()
    threshold = math.log(1.0 / alpha)
    row = _cell_lookup(np.cumsum(q_null.weights), np.arange(spec.n) * spec.n)
    col = _cell_lookup(np.cumsum(spec.anchor.weights), np.arange(spec.n))
    hits = 0
    block = max(1, min(trials, 4_000_000 // max(1, horizon)))
    done = 0
    while done < trials:
        b = min(block, trials - done)
        cell = row(rng.random((b, horizon)))
        cell += col(rng.random((b, horizon)))
        hit, _ = _first_crossing(log_flat[cell], threshold)
        hits += int(np.count_nonzero(hit >= 0))
        done += b
    return hits / trials
