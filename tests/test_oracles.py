import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ewm
from ewm import oracles
from ewm.errors import BadParamsError, TooLargeError

from conftest import path_gain, random_spec, spec_of


def table_of_logs(m):
    """The score table whose log-score matrix is ``m``."""
    return ewm.make_evalue_table(np.exp(m))


# -- reference enumerations: the recursive depth-first walkers the oracles
# -- once used, kept to pin the permutation-based enumeration to them

def reference_simple_paths(n, a, b):
    out = []
    prefix = [a]
    used = {a}

    def extend():
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


def reference_cycle_check(ent, cap):
    n = ent.shape[0]
    cap = min(cap, n)

    def ok_from(start):
        stack = [start]
        used = {start}

        def extend(diag_sum, off_sum):
            last = stack[-1]
            if len(stack) >= 2:
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
                good = extend(diag_sum + float(ent[nxt, nxt]), off_sum + float(ent[last, nxt]))
                used.discard(nxt)
                stack.pop()
                if not good:
                    return False
            return True

        return extend(float(ent[start, start]), 0.0)

    return all(ok_from(v) for v in range(n))


@st.composite
def near_tie_logs(draw, n_max):
    """A log-score matrix ``M(i, j) = (d_i + d_j) / 2 + scale * z_ij`` with
    ``d`` of magnitude 1e-13 to 1: every cycle's off-diagonal sum is its
    diagonal sum plus ``scale`` times a sum of ``z``, so at small scales the
    verdict rests on the 1e-12 slack."""
    n = draw(st.integers(2, n_max))
    size = draw(st.sampled_from([1e-13, 1e-9, 1e-6, 1e-3, 1.0]))
    d = size * np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)))
    z = np.array(draw(st.lists(st.sampled_from([-1.0, -0.5, 0.0, 0.25, 0.5, 1.0]),
                               min_size=n * n, max_size=n * n))).reshape(n, n)
    scale = draw(st.sampled_from([1e-13, 3e-13, 1e-12, 3e-12, 1e-9, 1e-6, 1e-3, 1.0]))
    return (d[:, np.newaxis] + d[np.newaxis, :]) / 2.0 + scale * z


@st.composite
def rounding_tie_logs(draw, n_max):
    """One directed cycle whose off-diagonal sum exceeds its diagonal sum by
    1e-12, give or take a few units in the last place; every other cycle falls
    short by about 1.  The verdict then turns on how each sum rounds."""
    n = draw(st.integers(2, n_max))
    cycle = draw(st.permutations(range(n)))[:draw(st.integers(2, n))]
    d = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)))
    m = (d[:, np.newaxis] + d[np.newaxis, :]) / 2.0 - 1.0
    np.fill_diagonal(m, d)
    t = (1e-12 + draw(st.integers(-4, 4)) * 1e-16) / len(cycle)
    for u, v in zip(cycle, cycle[1:] + cycle[:1]):
        m[u, v] = (d[u] + d[v]) / 2.0 + t
    return m


class TestEnumerationMatchesReference:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_simple_paths_same_tuples_same_order(self, n):
        for a in range(n):
            for b in range(n):
                if a != b:
                    assert oracles._simple_paths(n, a, b) == reference_simple_paths(n, a, b)

    @given(m=near_tie_logs(n_max=8))
    def test_cycle_verdicts_match_for_every_cap(self, m):
        e = table_of_logs(m)
        for cap in range(2, e.n + 1):
            assert ewm.cycle_condition_check(e, cap) == reference_cycle_check(e.log_scores, cap)

    @settings(max_examples=400)
    @given(m=rounding_tie_logs(n_max=6))
    def test_cycle_verdicts_match_at_rounding_ties(self, m):
        e = table_of_logs(m)
        for cap in range(2, e.n + 1):
            assert ewm.cycle_condition_check(e, cap) == reference_cycle_check(e.log_scores, cap)

    @given(data=st.data())
    def test_best_path_is_the_first_maximizer(self, data):
        # small integer logs tie many paths: the first one in walker order wins
        n = data.draw(st.integers(2, 6))
        m = np.array(data.draw(st.lists(st.integers(-2, 2), min_size=n * n, max_size=n * n)),
                     dtype=np.float64).reshape(n, n)
        gain, loss = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                                        unique=True))
        spec = spec_of(np.full(n, 1.0 / n), 0.5 / n)
        e = table_of_logs(m)
        value, path = ewm.best_path_inner_value(e, spec, ewm.ExtremePair(gain, loss))
        ent = e.log_scores
        best_gain, best = -math.inf, None
        for verts in reference_simple_paths(n, gain, loss):
            g = 0.0
            for u, v in zip(verts[:-1], verts[1:]):
                g += float(ent[u, v]) - float(ent[v, v])
            if g > best_gain:
                best_gain, best = g, verts
        assert path.vertices == best
        j0 = float(spec.anchor.weights @ np.diag(ent))
        assert value == j0 + spec.delta / 2.0 * best_gain


class TestPathGain:
    def test_single_hop(self):
        spec = spec_of([0.4, 0.3, 0.3], 0.1)
        gain = path_gain(ewm.optimal_evalue(spec), (0, 2))
        assert abs(gain - (-3.637586)) < 5e-7  # log(0.025 / 0.95); anchor cancels

    def test_two_hop_doubles(self):
        spec = spec_of([0.4, 0.3, 0.3], 0.1)
        e = ewm.optimal_evalue(spec)
        one = path_gain(e, (0, 2))
        two = path_gain(e, (0, 1, 2))
        assert abs(two - 2.0 * one) < 1e-12

    def test_equal_entries_gain_zero(self):
        e = table_of_logs([[0.3, 0.7], [0.1, 0.7]])
        assert path_gain(e, (0, 1)) == 0.0

    def test_zero_score_refused(self):
        e = ewm.make_evalue_table([[1.0, 0.0], [1.0, 1.0]])
        with pytest.raises(BadParamsError, match="strictly positive"):
            ewm.cycle_condition_check(e, 2)


class TestBestPathInnerValue:
    def test_three_symbols_single_hop_optimal(self):
        spec = spec_of([0.4, 0.3, 0.3], 0.1)
        value, path = ewm.best_path_inner_value(
            ewm.optimal_evalue(spec), spec, ewm.ExtremePair(0, 2)
        )
        assert abs(value - 0.855727) < 5e-7
        assert abs(value - ewm.jstar(spec)) < 1e-12
        assert path.vertices == (0, 2)

    def test_two_symbols(self):
        spec = spec_of([0.5, 0.5], 0.1)
        value, path = ewm.best_path_inner_value(
            ewm.optimal_evalue(spec), spec, ewm.ExtremePair(1, 0)
        )
        assert abs(value - 0.494632) < 5e-7
        assert path.vertices == (1, 0)

    def test_constructed_bonus_forces_detour(self):
        spec = spec_of([0.4, 0.3, 0.3], 0.1)
        m = np.array(ewm.optimal_evalue(spec).log_scores)
        m[0, 1] += 10.0
        m[1, 2] += 10.0
        value, path = ewm.best_path_inner_value(
            table_of_logs(m), spec, ewm.ExtremePair(0, 2)
        )
        assert path.vertices == (0, 1, 2)

    def test_too_large(self):
        w = np.full(11, 1.0 / 11)
        spec = ewm.make_neighborhood(ewm.make_distribution(w), 0.01)
        with pytest.raises(TooLargeError):
            ewm.best_path_inner_value(
                table_of_logs(np.zeros((11, 11))), spec, ewm.ExtremePair(0, 1)
            )

    def test_inner_value_uniform_across_pairs(self):
        rng = np.random.default_rng(30)
        for _ in range(10):
            spec = random_spec(rng, n_min=2, n_max=5)
            e = ewm.optimal_evalue(spec)
            j = ewm.jstar(spec)
            for pair in ewm.enumerate_extremes(spec):
                value, path = ewm.best_path_inner_value(e, spec, pair)
                assert abs(value - j) < 1e-12
                assert len(path.vertices) == 2  # single hop always wins under e*

    def test_agrees_with_coupling_log_score(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            spec = random_spec(rng, n_min=2, n_max=5)
            e = ewm.optimal_evalue(spec)
            log_e = np.log(e.scores)
            for pair in ewm.enumerate_extremes(spec):
                w = ewm.extreme_coupling(spec, pair)
                mask = w.joint > 0.0
                analytic = float(np.sum(w.joint[mask] * log_e[mask]))
                enumerated, _ = ewm.best_path_inner_value(e, spec, pair)
                assert abs(analytic - enumerated) < 1e-12

    def test_path_lists_are_not_retained(self):
        # a process-wide cache of them once kept 11.4 MB alive after these 56 calls
        spec = spec_of(np.full(8, 1 / 8), 0.05)
        e = ewm.optimal_evalue(spec)
        ewm.best_path_inner_value(e, spec, ewm.ExtremePair(0, 1))  # first-call allocations
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for pair in ewm.enumerate_extremes(spec):
                ewm.best_path_inner_value(e, spec, pair)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 1_000_000


class TestCycleCondition:
    def test_optimal_scores_satisfy(self):
        rng = np.random.default_rng(32)
        for _ in range(10):
            spec = random_spec(rng, n_min=2, n_max=6)
            assert ewm.cycle_condition_check(ewm.optimal_evalue(spec), spec.n)

    def test_zero_matrix_equalities_pass(self):
        assert ewm.cycle_condition_check(table_of_logs(np.zeros((3, 3))), 3)

    def test_two_cycle_violation(self):
        e = table_of_logs([[0.0, 1.0], [1.0, 0.0]])
        assert not ewm.cycle_condition_check(e, 2)

    def test_longer_cycle_violation_found(self):
        # only the 3-cycle 0 -> 1 -> 2 -> 0 violates; pairwise sums are fine
        m = np.zeros((3, 3))
        m[0, 1] = m[1, 2] = m[2, 0] = 1.0
        m[0, 2] = m[1, 0] = m[2, 1] = -5.0
        assert ewm.cycle_condition_check(table_of_logs(m), 2)
        assert not ewm.cycle_condition_check(table_of_logs(m), 3)

    def test_budget_guard(self):
        with pytest.raises(TooLargeError):
            ewm.cycle_condition_check(table_of_logs(np.zeros((9, 9))), 9)


class TestTwoTokenMaxmin:
    def test_matches_closed_form(self):
        for p in (0.2, 0.5, 0.75):
            spec = spec_of([p, 1.0 - p], 0.01)
            sol = ewm.two_token_maxmin(spec, 256, 4)
            j = ewm.jstar(spec)
            assert abs(sol.value - j) <= 1e-4
            assert abs(sol.r00 - 0.995) < 1e-3
            assert abs(sol.r11 - 0.995) < 1e-3

    def test_convergence_grid(self):
        for p in (0.2, 0.5, 0.75):
            for delta in (0.01, 0.1):
                spec = spec_of([p, 1.0 - p], delta)
                sol = ewm.two_token_maxmin(spec, 128, 3)
                j = ewm.jstar(spec)
                assert abs(sol.value - j) <= 1e-4

    def test_trace_shape(self):
        sol = ewm.two_token_maxmin(spec_of([0.5, 0.5], 0.1), 64, 2)
        assert len(sol.trace) == 2
        assert sol.trace[0][0] == 0 and sol.trace[1][0] == 1
        assert sol.trace[1][3] >= sol.trace[0][3]  # refinement never worsens

    def test_bad_params(self):
        fair = spec_of([0.5, 0.5], 0.01)
        with pytest.raises(BadParamsError, match="needs n = 2, got n = 3"):
            ewm.two_token_maxmin(spec_of([0.4, 0.3, 0.3], 0.01), 256, 4)
        with pytest.raises(BadParamsError):
            ewm.two_token_maxmin(fair, 32, 4)
        with pytest.raises(BadParamsError):
            ewm.two_token_maxmin(fair, 1025, 4)
        with pytest.raises(BadParamsError):
            ewm.two_token_maxmin(fair, 256, 0)


class TestSaddleCheck:
    def test_no_perturbation_beats_optimum(self):
        spec = spec_of([0.5, 0.5], 0.1)
        assert ewm.saddle_check(spec, 200, 0.05, ewm.trial_rng(100))

    def test_zero_magnitude_trivially_true(self):
        spec = spec_of([0.4, 0.3, 0.3], 0.1)
        assert ewm.saddle_check(spec, 5, 0.0, ewm.trial_rng(101))

    def test_a_kernel_above_the_target_fails(self, monkeypatch):
        # 0.01 below the closed form, the target is beaten by the optimal kernel itself
        spec = spec_of([0.4, 0.3, 0.3], 0.1)
        monkeypatch.setattr(oracles, "jstar", lambda spec: ewm.jstar(spec) - 0.01)
        assert not ewm.saddle_check(spec, 1, 0.0, ewm.trial_rng(101))

    @pytest.mark.parametrize("magnitude", [-0.1, math.nan, math.inf, 1e308])
    def test_magnitude_must_be_nonnegative_with_finite_width(self, magnitude):
        spec = spec_of([0.4, 0.3, 0.3], 0.1)
        with pytest.raises(BadParamsError):
            ewm.saddle_check(spec, 5, magnitude, ewm.trial_rng(101))

    def test_too_large(self):
        w = np.full(7, 1.0 / 7)
        spec = ewm.make_neighborhood(ewm.make_distribution(w), 0.01)
        with pytest.raises(TooLargeError):
            ewm.saddle_check(spec, 1, 0.05, ewm.trial_rng(102))

    def test_infeasible_scaling_is_not_a_counterexample(self):
        # scaling a row-stochastic kernel by 1.1 inflates the inner value past
        # the optimum, which is exactly why the audit renormalizes rows: such
        # kernels violate the unit null expectation and are out of bounds
        spec = spec_of([0.5, 0.5], 0.1)
        rstar = ewm.kernel_of(ewm.optimal_evalue(spec), spec)
        e = ewm.make_evalue_table(1.1 * rstar / spec.anchor.weights)
        worst = min(
            ewm.best_path_inner_value(e, spec, pair)[0]
            for pair in ewm.enumerate_extremes(spec)
        )
        assert worst > ewm.jstar(spec) + 1e-9
