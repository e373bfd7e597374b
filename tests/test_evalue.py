import re

import numpy as np
import pytest

import ewm
from ewm.errors import DimensionMismatchError, FormatError, NegativeWeightError, ZeroRowError

from conftest import noise_profile, random_spec


def spec_of(weights, delta):
    return ewm.make_neighborhood(ewm.make_distribution(weights), delta)


class TestOptimalEvalue:
    def test_fair_coin(self):
        e = ewm.optimal_evalue(spec_of([0.5, 0.5], 0.1))
        assert np.allclose(e.scores, [[1.9, 0.1], [0.1, 1.9]], atol=1e-15)

    def test_three_symbols(self):
        e = ewm.optimal_evalue(spec_of([0.4, 0.3, 0.3], 0.1))
        diag = np.diag(e.scores)
        assert np.allclose(diag, [2.375, 0.95 / 0.3, 0.95 / 0.3], atol=1e-12)
        # off-diagonal entries depend on the seed column only
        assert abs(e.scores[1, 0] - 0.0625) < 1e-12
        assert abs(e.scores[0, 1] - 0.025 / 0.3) < 1e-12
        assert abs(e.scores[0, 2] - 0.025 / 0.3) < 1e-12

    def test_log_scores_are_cached_and_read_only(self):
        e = ewm.make_evalue_table([[2.0, 0.0], [0.5, 1.0]])
        assert e.log_scores is e.log_scores
        assert np.array_equal(e.log_scores, [[np.log(2.0), -np.inf], [np.log(0.5), 0.0]])
        with pytest.raises(ValueError):
            e.log_scores[0, 0] = 0.0

    @pytest.mark.parametrize("scores, error, fragment", [
        (np.ones((2, 3)), DimensionMismatchError, "scores must be square, got shape (2, 3)"),
        (np.ones(4), DimensionMismatchError, "scores must be square, got shape (4,)"),
        ([[1.0, -0.5], [0.5, 1.0]], NegativeWeightError, "scores must be nonnegative"),
        ("x", FormatError, "scores must be numbers, got 'x'"),  # both were raw ValueErrors
        ([[1.0, "a"], [0.5, 1.0]], FormatError, "scores must be numbers"),
    ])
    def test_malformed_tables_refused(self, scores, error, fragment):
        with pytest.raises(error, match=re.escape(fragment)):
            ewm.make_evalue_table(scores)

    def test_overflowing_scores_refused(self):
        # 0.95 / 1e-320 overflows; at 7e-309 every score is still finite
        with pytest.raises(FormatError, match="scores must be finite"):
            ewm.optimal_evalue(spec_of([1.0, 1e-320], 5e-321))
        assert np.isfinite(ewm.optimal_evalue(spec_of([1.0, 7e-309], 7e-310)).scores).all()

    def test_unit_row_sums(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            spec = random_spec(rng)
            a = ewm.row_sums(ewm.optimal_evalue(spec), spec)
            assert float(np.abs(a - 1.0).max()) < 1e-12


def reference_null_worst(e, spec):
    """The largest ``base + (delta/2)(A[a] - A[b])`` over vertices ``a != b``, from the n x n
    difference matrix ``null_worst_expectation`` once maximized."""
    a = ewm.row_sums(e, spec)
    diff = a[:, np.newaxis] - a[np.newaxis, :]
    np.fill_diagonal(diff, -np.inf)
    return float(spec.anchor.weights @ a) + spec.delta / 2.0 * float(diff.max())


class TestNullWorstExpectation:
    def test_equals_the_largest_vertex_value_bit_for_bit(self):
        # rounding is monotone, so the largest rounded A[a] - A[b] is the rounded max - min
        rng = np.random.default_rng(6)
        for _ in range(1000):
            spec = random_spec(rng)
            n = spec.n
            for scores in (ewm.optimal_evalue(spec).scores, np.exp(rng.normal(size=(n, n))),
                           rng.integers(1, 3, size=(n, n)), np.ones((n, n))):  # ties, flat A
                e = ewm.make_evalue_table(scores)
                worst = ewm.null_worst_expectation(e, spec)
                assert worst == reference_null_worst(e, spec)
                vertices = [ewm.extreme_target(spec, p).weights @ ewm.row_sums(e, spec)
                            for p in ewm.enumerate_extremes(spec)]
                assert abs(worst - max(vertices)) <= 1e-12 * max(1.0, abs(worst))

    def test_optimal_is_exactly_one(self):
        spec = spec_of([0.4, 0.3, 0.3], 0.1)
        assert abs(ewm.null_worst_expectation(ewm.optimal_evalue(spec), spec) - 1.0) < 1e-10

    def test_scaling_is_linear(self):
        spec = spec_of([0.4, 0.3, 0.3], 0.1)
        e = ewm.optimal_evalue(spec)
        doubled = ewm.make_evalue_table(2.0 * e.scores)
        assert abs(ewm.null_worst_expectation(doubled, spec) - 2.0) < 1e-10

    def test_all_ones_table(self):
        spec = spec_of([0.4, 0.3, 0.3], 0.1)
        ones = ewm.make_evalue_table(np.ones((3, 3)))
        assert abs(ewm.null_worst_expectation(ones, spec) - 1.0) < 1e-12

    def test_dimension_mismatch(self):
        spec = spec_of([0.5, 0.5], 0.1)
        with pytest.raises(DimensionMismatchError):
            ewm.null_worst_expectation(ewm.make_evalue_table(np.ones((3, 3))), spec)

    def test_expected_one_step_value_under_any_null(self):
        # E_q[e*] = sum_v q(v) A(v) = 1 for every target in the ball
        rng = np.random.default_rng(4)
        from conftest import random_target
        for _ in range(30):
            spec = random_spec(rng)
            a = ewm.row_sums(ewm.optimal_evalue(spec), spec)
            q = random_target(rng, spec)
            assert abs(float(q.weights @ a) - 1.0) < 1e-12


class TestJstar:
    def test_fair_coin(self):
        assert abs(ewm.jstar(spec_of([0.5, 0.5], 0.1)) - 0.494632) < 5e-7

    def test_skewed_small_radius(self):
        assert abs(ewm.jstar(spec_of([0.2, 0.8], 0.01)) - 0.468923) < 5e-7

    def test_three_symbols(self):
        assert abs(ewm.jstar(spec_of([0.4, 0.3, 0.3], 0.1)) - 0.855727) < 5e-7

    def test_channel_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            spec = random_spec(rng)
            lhs = ewm.jstar(spec)
            rhs = ewm.entropy(spec.anchor) - ewm.entropy(noise_profile(spec.n, spec.delta))
            assert abs(lhs - rhs) < 1e-12


class TestKernel:
    def test_optimal_kernel_structure(self):
        spec = spec_of([0.5, 0.5], 0.1)
        r = ewm.kernel_of(ewm.optimal_evalue(spec), spec)
        assert np.allclose(r, [[0.95, 0.05], [0.05, 0.95]], atol=1e-15)

    def test_all_ones_gives_anchor_rows(self):
        spec = spec_of([0.4, 0.3, 0.3], 0.1)
        r = ewm.kernel_of(ewm.make_evalue_table(np.ones((3, 3))), spec)
        assert np.allclose(r, np.tile(spec.anchor.weights, (3, 1)), atol=1e-15)

    def test_scale_invariant(self):
        spec = spec_of([0.4, 0.3, 0.3], 0.1)
        e = ewm.optimal_evalue(spec)
        r1 = ewm.kernel_of(e, spec)
        r2 = ewm.kernel_of(ewm.make_evalue_table(2.0 * e.scores), spec)
        assert float(np.abs(r1 - r2).max()) < 1e-15

    def test_zero_row(self):
        spec = spec_of([0.5, 0.5], 0.1)
        scores = np.array([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ZeroRowError):
            ewm.kernel_of(ewm.make_evalue_table(scores), spec)

    def test_diagonal_dominance(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            spec = random_spec(rng)
            r = ewm.kernel_of(ewm.optimal_evalue(spec), spec)
            diag = np.diag(r).copy()
            off = r[~np.eye(spec.n, dtype=bool)]
            assert np.abs(diag - (1.0 - spec.delta / 2.0)).max() < 1e-12
            assert np.abs(off - spec.delta / (2.0 * (spec.n - 1))).max() < 1e-12
            assert diag.min() > off.max()

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            spec = random_spec(rng)
            scores = rng.uniform(0.1, 3.0, size=(spec.n, spec.n))
            r = ewm.kernel_of(ewm.make_evalue_table(scores), spec)
            assert np.abs(r.sum(axis=1) - 1.0).max() < 1e-12


class TestGrowthIdentity:
    def test_coupling_log_score_equals_rate(self):
        # sum_{v,s} w*(v,s) log e*(v,s) == jstar for every vertex coupling
        rng = np.random.default_rng(8)
        for _ in range(30):
            spec = random_spec(rng)
            e = ewm.optimal_evalue(spec)
            log_e = np.log(e.scores)
            j = ewm.jstar(spec)
            for pair in ewm.enumerate_extremes(spec):
                w = ewm.extreme_coupling(spec, pair)
                mask = w.joint > 0.0
                value = float(np.sum(w.joint[mask] * log_e[mask]))
                assert abs(value - j) < 1e-12

