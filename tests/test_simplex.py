import math
import re
from fractions import Fraction

import numpy as np
import pytest

import ewm
from ewm.coupling import _stream_chunks
from ewm.errors import (
    BadAlphaError,
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
from ewm.simplex import _count, _real, _reals

from conftest import noise_profile, random_spec, random_target, spec_of


class TestMakeDistribution:
    def test_uniform(self):
        d = ewm.make_distribution([0.5, 0.5])
        assert d.n == 2
        assert d.weights.tolist() == [0.5, 0.5]

    def test_bernoulli_family(self):
        d = ewm.make_distribution([0.2, 0.8])
        assert math.isclose(sum(d.weights.tolist()), 1.0)

    def test_sum_not_one(self):
        with pytest.raises(SumNotOneError):
            ewm.make_distribution([0.5, 0.6])

    def test_negative_weight(self):
        with pytest.raises(NegativeWeightError):
            ewm.make_distribution([1.1, -0.1])

    def test_too_short(self):
        with pytest.raises(TooShortError):
            ewm.make_distribution([1.0])

    def test_a_non_finite_entry_is_reported_first(self):
        # [nan] is also too short, and [[nan, 0.5]] also two-dimensional: both were reported so
        for weights in ([math.nan], [[math.nan, 0.5]], math.inf):
            with pytest.raises(FormatError, match="^weights must be finite$"):
                ewm.make_distribution(weights)

    def test_renormalizes_within_slack(self):
        d = ewm.make_distribution([0.5, 0.5 + 4e-10])
        assert float(d.weights.sum()) == 1.0

    def test_weights_read_only(self):
        d = ewm.make_distribution([0.5, 0.5])
        with pytest.raises(ValueError):
            d.weights[0] = 0.9


class TestEntropy:
    def test_fair_coin(self):
        assert abs(ewm.entropy(ewm.make_distribution([0.5, 0.5])) - 0.693147) < 5e-7

    def test_point_mass(self):
        assert ewm.entropy(ewm.make_distribution([1.0, 0.0])) == 0.0

    def test_three_symbols(self):
        d = ewm.make_distribution([0.4, 0.3, 0.3])
        assert abs(ewm.entropy(d) - 1.088900) < 5e-7

    def test_permutation_invariant_and_uniform_max(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            w = rng.dirichlet(np.ones(n))
            d = ewm.make_distribution(w)
            perm = rng.permutation(n)
            shuffled = ewm.make_distribution(w[perm])
            assert abs(ewm.entropy(d) - ewm.entropy(shuffled)) < 1e-12
            assert ewm.entropy(d) <= math.log(n) + 1e-12


class TestL1Distance:
    def test_identity(self):
        d = ewm.make_distribution([0.3, 0.7])
        assert ewm.l1_distance(d, d) == 0.0

    def test_two_symbols(self):
        a = ewm.make_distribution([0.5, 0.5])
        b = ewm.make_distribution([0.55, 0.45])
        assert abs(ewm.l1_distance(a, b) - 0.1) < 1e-12

    def test_three_symbols(self):
        a = ewm.make_distribution([0.4, 0.3, 0.3])
        b = ewm.make_distribution([0.45, 0.3, 0.25])
        assert abs(ewm.l1_distance(a, b) - 0.1) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            ewm.l1_distance(ewm.make_distribution([0.5, 0.5]),
                            ewm.make_distribution([0.4, 0.3, 0.3]))


class TestNeighborhood:
    def test_delta_must_be_small(self):
        with pytest.raises(InvalidSpecError):
            spec_of([0.5, 0.5], 0.5)  # min anchor not > delta

    def test_delta_range(self):
        with pytest.raises(InvalidSpecError):
            spec_of([0.5, 0.5], 0.0)

    def test_off_diagonal_mass_must_not_underflow(self):
        # delta / (2(n-1)) rounds to 0 for these subnormal deltas
        for weights, delta in (([0.5, 0.5], 5e-324), ([1.0, 1e-323], 5e-324),
                               ([0.4, 0.3, 0.3], 1e-323)):
            with pytest.raises(InvalidSpecError, match="too small"):
                spec_of(weights, delta)
        assert spec_of([0.5, 0.5], 1e-323).delta == 1e-323


class TestEnumerateExtremes:
    def test_two_symbols(self):
        spec = spec_of([0.5, 0.5], 0.1)
        pairs = ewm.enumerate_extremes(spec)
        assert [(p.gain, p.loss) for p in pairs] == [(0, 1), (1, 0)]

    def test_counts(self):
        assert len(ewm.enumerate_extremes(spec_of([0.4, 0.3, 0.3], 0.1))) == 6
        assert len(ewm.enumerate_extremes(spec_of([0.25, 0.25, 0.25, 0.25], 0.1))) == 12

    def test_first_is_lexicographic(self):
        pairs = ewm.enumerate_extremes(spec_of([0.4, 0.3, 0.3], 0.1))
        assert (pairs[0].gain, pairs[0].loss) == (0, 1)

    def test_vertices_realize_radius(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            spec = random_spec(rng)
            for pair in ewm.enumerate_extremes(spec):
                q = ewm.extreme_target(spec, pair)
                assert abs(ewm.l1_distance(q, spec.anchor) - spec.delta) < 1e-12


def reference_decompose(spec, q):
    """The northwest-corner loop ``decompose_target`` once ran, with a guard against
    zero-mass routes and a running sum per (gain, loss) key, as its ``(pair, weight)`` terms."""
    shift = q.weights - spec.anchor.weights
    supply = [(i, float(shift[i])) for i in range(spec.n) if shift[i] > 0.0]
    demand = [(j, float(-shift[j])) for j in range(spec.n) if shift[j] < 0.0]
    weights, moved, di = {}, 0.0, 0
    remaining_demand = demand[di][1] if demand else 0.0
    for i, si in supply:
        left = si
        while left > 0.0 and di < len(demand):
            amount = min(left, remaining_demand)
            if amount > 0.0:
                key = (i, demand[di][0])
                weights[key] = weights.get(key, 0.0) + amount * 2.0 / spec.delta
                moved += amount
                left -= amount
                remaining_demand -= amount
            if remaining_demand <= 0.0:
                di += 1
                remaining_demand = demand[di][1] if di < len(demand) else 0.0
    pad = 1.0 - 2.0 * moved / spec.delta
    if pad > ewm.EXACT_ATOL:
        weights[(0, 1)] = weights.get((0, 1), 0.0) + pad / 2.0
        weights[(1, 0)] = weights.get((1, 0), 0.0) + pad / 2.0
    return [(key, w) for key, w in sorted(weights.items()) if w > 0.0]


class TestDecomposeTarget:
    def test_terms_equal_the_reference_loop(self):
        rng = np.random.default_rng(0)
        for _ in range(2000):
            spec = random_spec(rng)
            vertices = [ewm.extreme_target(spec, pair) for pair in ewm.enumerate_extremes(spec)]
            for q in (random_target(rng, spec), spec.anchor, *vertices[:4]):
                got = [((p.gain, p.loss), w) for p, w in ewm.decompose_target(spec, q).terms]
                assert got == reference_decompose(spec, q)  # float-identical, same order


    def test_full_transport(self):
        spec = spec_of([0.4, 0.3, 0.3], 0.1)
        mix = ewm.decompose_target(spec, ewm.make_distribution([0.43, 0.32, 0.25]))
        got = {(p.gain, p.loss): w for p, w in mix.terms}
        assert set(got) == {(0, 2), (1, 2)}
        assert abs(got[(0, 2)] - 0.6) < 1e-12
        assert abs(got[(1, 2)] - 0.4) < 1e-12

    def test_anchor_goes_to_pad(self):
        spec = spec_of([0.4, 0.3, 0.3], 0.1)
        mix = ewm.decompose_target(spec, spec.anchor)
        got = {(p.gain, p.loss): w for p, w in mix.terms}
        assert got == {(0, 1): 0.5, (1, 0): 0.5}

    def test_partial_transport_pads_residual(self):
        spec = spec_of([0.4, 0.3, 0.3], 0.1)
        mix = ewm.decompose_target(spec, ewm.make_distribution([0.42, 0.30, 0.28]))
        got = {(p.gain, p.loss): w for p, w in mix.terms}
        assert set(got) == {(0, 2), (0, 1), (1, 0)}
        assert abs(got[(0, 2)] - 0.4) < 1e-12
        assert abs(got[(0, 1)] - 0.3) < 1e-12
        assert abs(got[(1, 0)] - 0.3) < 1e-12

    def test_outside_neighborhood(self):
        spec = spec_of([0.4, 0.3, 0.3], 0.1)
        with pytest.raises(OutsideNeighborhoodError):
            ewm.decompose_target(spec, ewm.make_distribution([0.5, 0.3, 0.2]))

    def test_reconstruction_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            spec = random_spec(rng)
            q = random_target(rng, spec)
            mix = ewm.decompose_target(spec, q)
            weights = [w for _, w in mix.terms]
            assert all(w >= 0.0 for w in weights)
            assert abs(sum(weights) - 1.0) < 1e-12
            back = ewm.reconstruct_mixture(spec, mix)
            assert float(np.abs(back.weights - q.weights).max()) < 1e-10

    def test_reconstruction_refuses_a_vertex_outside_the_vocabulary(self):
        # index 5 at n = 2 was a raw IndexError, and -1 would have shifted the last symbol
        for pair in (ewm.ExtremePair(0, 5), ewm.ExtremePair._trusted(0, -1)):
            mix = ewm.MixtureDecomposition(((ewm.ExtremePair(1, 0), 0.5), (pair, 0.5)))
            with pytest.raises(InvalidPairError, match="out of range for n=2|negative index"):
                ewm.reconstruct_mixture(spec_of([0.5, 0.5], 0.1), mix)


class TestNoiseProfile:
    def test_two_symbols(self):
        nu = noise_profile(2, 0.1)
        assert np.allclose(nu.weights, [0.95, 0.05], atol=1e-15)

    def test_three_symbols(self):
        nu = noise_profile(3, 0.1)
        assert np.allclose(nu.weights, [0.95, 0.025, 0.025], atol=1e-15)

    def test_vanishing_radius_limit(self):
        nu = noise_profile(2, 1e-12)
        assert ewm.entropy(nu) < 1e-10

    def test_entropy_increases_up_to_uniform(self):
        # H(nu_delta) runs from 0 to log(n) as delta sweeps (0, 2(n-1)/n),
        # equivalently the growth rate jstar strictly decreases in delta.
        for n in (2, 3, 5):
            top = 2.0 * (n - 1) / n
            grid = np.linspace(0.05 * top, 0.95 * top, 25)
            values = [ewm.entropy(noise_profile(n, d)) for d in grid]
            assert all(b > a for a, b in zip(values, values[1:]))



FAIR = spec_of([0.5, 0.5], 0.1)
THREE = spec_of([0.4, 0.3, 0.3], 0.1)
FAIR_PAIR = ewm.extreme_coupling(FAIR, ewm.FixedPair(0, 1))
# its 2-cycles keep the condition and its 3-cycle 0 -> 1 -> 2 -> 0 breaks it
CYCLE_TABLE = ewm.make_evalue_table(np.exp([[0, 0.5, -1], [-1, 0, 0.5], [0.5, -1, 0]]))


def _sweep(**fields):
    return ewm.ExperimentConfig(spec=FAIR, policy=ewm.FixedPair(0, 1),
                                **{"alphas": (0.01,), "trials": 4, "horizon_cap": 50, **fields})


# site -> (call with the count k, the name its error gives, low, high, a valid k): every
# count in the package; each once took 2.5 or "3", truncated it, or raised a raw error
COUNT_SITES = {
    "greedy-window": (lambda k: ewm.HistoryGreedy(window=k).window, "greedy window", 1, None, 3),
    "sweep-trials": (lambda k: _sweep(trials=k).trials, "trials", 1, None, 3),
    "sweep-horizon-cap": (lambda k: _sweep(horizon_cap=k).horizon_cap, "horizon cap", 1, None, 3),
    "sweep-threads": (lambda k: ewm.estimate_stopping(_sweep(), threads=k), "threads", 1, None, 2),
    "calibrate-trials": (lambda k: ewm.calibrate_null(FAIR, 0.05, k, 20, FAIR.anchor,
                                                      ewm.trial_rng(1)), "trials", 1, None, 3),
    "calibrate-horizon": (lambda k: ewm.calibrate_null(FAIR, 0.05, 3, k, FAIR.anchor,
                                                       ewm.trial_rng(1)), "horizon", 1, None, 3),
    "detect-budget": (lambda k: ewm.batch_detect(ewm.optimal_evalue(FAIR), 1e-9, [(0, 1)] * 9, k),
                      "budget", 1, None, 3),
    "sample-stream-steps": (lambda k: ewm.sample_stream(FAIR_PAIR, k, ewm.trial_rng(2)).tolist(),
                            "steps", 0, None, 3),
    "generate-steps": (lambda k: [c.tolist() for c in _stream_chunks(FAIR_PAIR, k,
                                                                     ewm.trial_rng(2))],
                       "steps", 0, None, 3),
    "cycle-cap": (lambda k: ewm.cycle_condition_check(CYCLE_TABLE, k), "cycle length cap",
                  2, None, 3),
    "maxmin-grid": (lambda k: ewm.two_token_maxmin(FAIR, k, 1), "grid", 64, 1024, 64),
    "maxmin-refinements": (lambda k: ewm.two_token_maxmin(FAIR, 64, k), "refinements", 1, None,
                           2),
    "saddle-perturbations": (lambda k: ewm.saddle_check(THREE, k, 0.05, ewm.trial_rng(3)),
                             "perturbations", 0, None, 2),
    "trial-rng-seed": (lambda k: ewm.trial_rng(k).random(), "seed", 0, 2**128 - 1, 3),
    "sweep-base-seed": (lambda k: _sweep(base_seed=k).base_seed, "base seed", -math.inf, None, 3),
    "trial-seed-base": (lambda k: ewm.trial_seed(k, 0, 0), "base seed", -math.inf, None, 3),
    "trial-seed-alpha-index": (lambda k: ewm.trial_seed(0, k, 0), "alpha index", 0, None, 3),
    "trial-seed-trial-index": (lambda k: ewm.trial_seed(0, 0, k), "trial index", 0, None, 3),
    "count-rule": (lambda k: _count(k, "x", 0, 5), "x", 0, 5, 3),  # 10**5000 once raised its repr
}


def _outcome(call, k):
    """``repr`` of the call's result (it tells np.int64(3) from 3), or its error."""
    try:
        return repr(call(k))
    except BadParamsError as exc:
        return f"BadParamsError: {exc}"


class TestCountRule:
    @pytest.mark.parametrize("site", sorted(COUNT_SITES))
    def test_count_is_an_int_in_bounds(self, site):
        call, name, low, high, k = COUNT_SITES[site]
        beyond = [] if high is None else [high + 1, float(low), 10**5000]
        for bad in (2.5, "3", low - 1, *beyond, *([] if low == -math.inf else [-10**5000])):
            with pytest.raises(BadParamsError, match=re.escape(name)):
                call(bad)
        assert _outcome(call, np.int64(k)) == _outcome(call, k)
        assert _outcome(call, True) == _outcome(call, 1)

    def test_cycle_cap_counts_the_three_cycle(self):
        assert ewm.cycle_condition_check(CYCLE_TABLE, 2)
        assert not ewm.cycle_condition_check(CYCLE_TABLE, 3)
        with pytest.raises(BadParamsError, match="cycle length cap must be an integer"):
            ewm.cycle_condition_check(CYCLE_TABLE, 2.7)  # once truncated to 2: True

    def test_seed_ranges(self):
        # trial_rng(2.5) once drew trial_rng(2)'s stream and trial_rng(-1) raised numpy's
        # ValueError (both in COUNT_SITES); the largest Philox key and a negative base seed,
        # which trial_seed masks to 64 bits, stay valid
        ewm.trial_rng(2**128 - 1)
        assert _sweep(base_seed=-1).base_seed == -1


# site -> (call with the real x, its error, the name the error gives, a valid x): every real
# parameter of the package; each once parsed "0.05", raised a raw error for None or a string,
# or checked a value and then ran on the unchecked original
REAL_SITES = {
    "detector-alpha": (lambda x: ewm.init_detector(ewm.optimal_evalue(FAIR), x).alpha,
                       BadAlphaError, "alpha", 0.5),
    "baseline-alpha": (lambda x: ewm.init_baseline(x, 0.5).alpha, BadAlphaError, "alpha", 0.5),
    "baseline-null-match": (lambda x: ewm.init_baseline(0.05, x).null_match_prob,
                            BadParamsError, "null match probability", 0.5),
    "neighborhood-delta": (lambda x: ewm.make_neighborhood(FAIR.anchor, x).delta,
                           InvalidSpecError, "delta", 0.1),
    "saddle-magnitude": (lambda x: ewm.saddle_check(THREE, 2, x, ewm.trial_rng(3)),
                         BadParamsError, "magnitude", 0.05),
    "horizon-alpha": (lambda x: ewm.default_horizon(FAIR, x), BadAlphaError, "alpha", 0.01),
    "horizon-factor": (lambda x: ewm.default_horizon(FAIR, 0.01, factor=x), BadParamsError,
                       "factor", 5),
    "sweep-alphas": (lambda x: _sweep(alphas=(x,)).alphas, BadAlphaError, "alpha", 0.1),
    "calibrate-alpha": (lambda x: ewm.calibrate_null(FAIR, x, 3, 20, FAIR.anchor,
                                                     ewm.trial_rng(1)), BadAlphaError, "alpha",
                        0.05),
    "run-trial-alpha": (lambda x: ewm.run_trial(_sweep(), x, 0, 0), BadAlphaError, "alpha", 0.5),
    "real-rule": (lambda x: _real(x, "x"), BadParamsError, "x", 0.5),
}


class TestRealRule:
    @pytest.mark.parametrize("site", sorted(REAL_SITES))
    def test_real_is_a_finite_number(self, site):
        call, error, name, x = REAL_SITES[site]
        # 10**5000 has no repr: str refuses ints past 4,300 digits; a Fraction, like an int
        # past 64 bits, is no numpy number
        for bad in ("0.05", None, math.nan, math.inf, 10**400, 10**5000, 2**64, Fraction(1, 20)):
            with pytest.raises(error, match=f"^{re.escape(name)} must be a finite real number"):
                call(bad)
        assert _outcome(call, np.float64(x)) == _outcome(call, x)

    @pytest.mark.parametrize("call, error, name", [
        pytest.param(lambda: ewm.default_horizon(FAIR, 2.0), BadAlphaError, "alpha",
                     id="horizon-alpha-2"),  # once -14
        pytest.param(lambda: ewm.default_horizon(FAIR, 0.01, factor=-1), BadParamsError,
                     "factor", id="horizon-factor-negative"),  # once -9
        pytest.param(lambda: ewm.default_horizon(FAIR, 0.01, factor=0), BadParamsError,
                     "factor", id="horizon-factor-0"),  # once 0
        pytest.param(lambda: _sweep(alphas=0.1), BadParamsError, "alpha",
                     id="sweep-alphas-bare-number"),  # once a raw TypeError
    ])
    def test_out_of_range_is_refused(self, call, error, name):
        with pytest.raises(error, match=name):
            call()

    def test_each_caller_keeps_the_float_it_checked(self):
        config = _sweep(alphas=(np.float64(0.1), 1e-3))
        assert config.alphas == (0.1, 1e-3) and type(config.alphas[0]) is float
        assert _sweep(alphas=iter([0.1, 0.2])).alphas == (0.1, 0.2)  # read once
        assert ewm.default_horizon(FAIR, 0.01, factor=5) == ewm.default_horizon(FAIR, 0.01, 5.0)


HALF = FAIR.anchor
PAIR, REVERSED = ewm.ExtremePair(0, 1), ewm.ExtremePair(1, 0)

# site -> (call with the entry x, its error, the name the error gives, a valid x): every
# real-valued array of the package; a NaN joint or mixture weight was once accepted (sampled
# as cell 0), and "a" in a joint, a weight or a score table was a raw error
ARRAY_SITES = {
    "distribution-weights": (lambda x: ewm.make_distribution([x, 0.5]).weights, FormatError,
                             "weights", 0.5),
    "score-table": (lambda x: ewm.make_evalue_table([[x, 1.0], [1.0, 1.0]]).scores, FormatError,
                    "scores", 1.0),
    "coupling-joint": (lambda x: ewm.make_coupling([[0.4, x], [0.1, 0.4]], HALF, HALF).joint,
                       BadWeightsError, "joint", 0.1),
    "mixture-weights": (lambda x: ewm.mixture_coupling(FAIR, ewm.MixtureDecomposition(
        ((PAIR, x), (REVERSED, 0.5)))).joint, BadWeightsError, "mixture weights", 0.5),
    "array-rule": (lambda x: _reals([x, 0.5], "x"), FormatError, "x", 0.5),
}


class TestRealArrayRule:
    @pytest.mark.parametrize("site", sorted(ARRAY_SITES))
    def test_every_entry_is_a_finite_number(self, site):
        call, error, name, x = ARRAY_SITES[site]
        # 10**400 and 10**5000 are past 64 bits (the second has no repr either), a nested
        # entry is ragged, and a numeric string, bytes and None are not numbers: numpy would
        # convert "0.5" and b"1", and read None as NaN
        for bad, rule in (("a", "numbers"), ("0.5", "numbers"), (b"1", "numbers"),
                          ([0.5, 0.5], "numbers"), (10**400, "numbers"), (10**5000, "numbers"),
                          (None, "numbers"), (math.nan, "finite"), (math.inf, "finite"),
                          (-math.inf, "finite")):
            with pytest.raises(error, match=f"^{re.escape(name)} must be {rule}"):
                call(bad)
        assert np.array_equal(call(np.float64(x)), call(x))

    def test_the_array_is_a_new_float64_array(self):
        given = np.array([0.25, 0.75])
        got = _reals(given, "x")
        assert got.dtype == np.float64 and got is not given and np.array_equal(got, given)
        got[0] = 1.0
        assert given[0] == 0.25
