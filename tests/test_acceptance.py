"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Tolerances and budgets are pinned here, not
configurable: closed-form identities at 1e-12, the null audit at 1e-10, the
two-token solver at 1e-4, the stopping-time ratio at 2% relative with 10^4
trials, calibration at alpha + 3 binomial sigmas.
"""

import math
import os
import time

import numpy as np
from scipy.stats import binom

import ewm
from ewm.cli import parse_alpha_grid

from conftest import noise_profile, random_spec, random_target, spec_of

_THREADS = min(os.cpu_count() or 1, 8)


def _gate(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_closed_form_cross_checks():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        spec = random_spec(rng, n_min=2, n_max=8)
        gap = abs(
            ewm.jstar(spec)
            - (ewm.entropy(spec.anchor) - ewm.entropy(noise_profile(spec.n, spec.delta)))
        )
        worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    _gate(
        "criterion 1 (rate = entropy deficit, 100 specs)",
        worst <= 1e-12 and elapsed < 1.0,
        f"max |jstar - (H(p0)-H(nu))| = {worst:.2e}, runtime {elapsed:.2f}s",
    )


def test_criterion_2_null_audit():
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    worst = 0.0
    scaled_fails = True
    for _ in range(100):
        spec = random_spec(rng, n_min=2, n_max=8)
        e = ewm.optimal_evalue(spec)
        worst = max(worst, abs(ewm.null_worst_expectation(e, spec) - 1.0))
        inflated = ewm.make_evalue_table(1.01 * e.scores)
        scaled_fails &= ewm.null_worst_expectation(inflated, spec) > 1.0 + 1e-10
    elapsed = time.perf_counter() - start
    _gate(
        "criterion 2 (null audit exact at optimum, 1.01x rejected)",
        worst <= 1e-10 and scaled_fails and elapsed < 1.0,
        f"max |E_worst - 1| = {worst:.2e}, inflated table fails: {scaled_fails}, "
        f"runtime {elapsed:.2f}s",
    )


def test_criterion_3_two_token_solver():
    start = time.perf_counter()
    gaps = {}
    for p in (0.2, 0.5, 0.75):
        spec = spec_of([p, 1.0 - p], 0.01)
        sol = ewm.two_token_maxmin(spec, 256, 4)
        gaps[p] = abs(sol.value - ewm.jstar(spec))
    elapsed = time.perf_counter() - start
    ok = max(gaps.values()) <= 1e-4 and elapsed < 10.0
    _gate(
        "criterion 3 (two-token grid solver meets closed form)",
        ok,
        "max |J_numeric - jstar| = " + ", ".join(f"p={p}: {g:.2e}" for p, g in gaps.items())
        + f"; runtime {elapsed:.2f}s",
    )


def test_criterion_4_saddle_audit():
    start = time.perf_counter()
    anchors = {
        2: spec_of([0.35, 0.65], 0.2),
        3: spec_of([0.4, 0.3, 0.3], 0.1),
        4: spec_of([0.3, 0.25, 0.25, 0.2], 0.15),
    }
    saddle_ok = True
    for n, spec in anchors.items():
        saddle_ok &= ewm.saddle_check(spec, 200, 0.05, ewm.trial_rng(1000 + n))
    # inner values of the optimal scores are identical across every vertex
    rng = np.random.default_rng(104)
    spread = 0.0
    for _ in range(25):
        spec = random_spec(rng, n_min=2, n_max=4)
        e = ewm.optimal_evalue(spec)
        values = [
            ewm.best_path_inner_value(e, spec, pair)[0]
            for pair in ewm.enumerate_extremes(spec)
        ]
        spread = max(spread, max(values) - min(values))
    elapsed = time.perf_counter() - start
    _gate(
        "criterion 4 (saddle audit, n in {2,3,4}, 200 kernels each)",
        saddle_ok and spread <= 1e-12 and elapsed < 30.0,
        f"no perturbed kernel beats jstar: {saddle_ok}, max inner-value spread "
        f"{spread:.2e}, runtime {elapsed:.2f}s",
    )


def test_criterion_5_stopping_time_sweep():
    start = time.perf_counter()
    alphas = tuple(parse_alpha_grid("log:1e-2:1e-120:30"))
    details = []
    ok = True
    for p in (0.2, 0.5, 0.75):
        spec = spec_of([p, 1.0 - p], 0.1)
        inv_j = 1.0 / ewm.jstar(spec)
        config = ewm.ExperimentConfig(
            spec=spec, alphas=alphas, trials=10_000,
            policy=ewm.FixedPair(0, 1), base_seed=20_260_810,
        )
        rows = ewm.estimate_stopping(config, threads=_THREADS)
        assert all(r.censored_count == 0 for r in rows)
        tail = rows[-1]
        rel = abs(tail.ratio - inv_j) / inv_j
        # monotone decrease toward 1/jstar within sampling noise (4 sigma)
        monotone = True
        for a, b in zip(rows, rows[1:]):
            noise = 4.0 * math.hypot(
                a.std_err / a.log_inv_alpha, b.std_err / b.log_inv_alpha
            )
            if b.ratio > a.ratio + noise + 1e-3:
                monotone = False
        above = tail.ratio >= (1.0 - 0.02) * inv_j
        ok &= rel <= 0.02 and monotone and above
        details.append(f"p={p}: ratio={tail.ratio:.4f}, 1/J*={inv_j:.4f}, rel={rel:.4%}, "
                       f"monotone={monotone}")
    elapsed = time.perf_counter() - start
    _gate(
        "criterion 5 (stopping-time sweep, 30 alphas x 10^4 trials)",
        ok and elapsed < 300.0,
        "; ".join(details) + f"; runtime {elapsed:.1f}s with {_THREADS} workers",
    )


def test_criterion_6_ville_calibration():
    start = time.perf_counter()
    spec = spec_of([0.5, 0.5], 0.1)
    j = ewm.jstar(spec)
    trials = 10_000
    details = []
    ok = True
    for k, alpha in enumerate((0.1, 0.05, 0.02)):
        horizon = math.ceil(5.0 * math.log(1.0 / alpha) / j)
        rate = ewm.calibrate_null(
            spec, alpha, trials, horizon, spec.anchor, ewm.trial_rng(600 + k)
        )
        bound = alpha + 3.0 * math.sqrt(alpha * (1.0 - alpha) / trials)
        ok &= rate <= bound
        details.append(f"alpha={alpha}: rate={rate:.4f} <= {bound:.4f}")
    elapsed = time.perf_counter() - start
    _gate(
        "criterion 6 (Ville calibration, 10^4 null streams)",
        ok and elapsed < 120.0,
        "; ".join(details) + f"; runtime {elapsed:.1f}s",
    )


def test_criterion_7_coupling_correctness():
    rng = np.random.default_rng(107)
    worst_row = worst_col = 0.0
    for _ in range(1000):
        spec = random_spec(rng, n_min=2, n_max=8)
        q = random_target(rng, spec)
        w = ewm.mixture_coupling(spec, ewm.decompose_target(spec, q))
        worst_row = max(worst_row, float(np.abs(w.joint.sum(axis=1) - q.weights).max()))
        worst_col = max(
            worst_col, float(np.abs(w.joint.sum(axis=0) - spec.anchor.weights).max())
        )
    # empirical outcome frequencies on representative couplings, 10^5 draws
    cases = [
        ewm.extreme_coupling(spec_of([0.5, 0.5], 0.1), ewm.ExtremePair(0, 1)),
        ewm.extreme_coupling(spec_of([0.2, 0.35, 0.45], 0.15), ewm.ExtremePair(2, 0)),
        ewm.mixture_coupling(
            spec_of([0.4, 0.3, 0.3], 0.1),
            ewm.decompose_target(
                spec_of([0.4, 0.3, 0.3], 0.1), ewm.make_distribution([0.43, 0.32, 0.25])
            ),
        ),
    ]
    bands_ok = True
    for k, w in enumerate(cases):
        draws = ewm.sample_stream(w, 10**5, ewm.trial_rng(700 + k))
        freq = np.bincount(draws[:, 0], minlength=w.n) / draws.shape[0]
        q = w.target.weights
        band = 4.0 * np.sqrt(q * (1.0 - q) / draws.shape[0])
        bands_ok &= bool(np.all(np.abs(freq - q) <= band))
    _gate(
        "criterion 7 (coupling marginals exact, sampling distortion-free)",
        worst_row <= 1e-12 and worst_col <= 1e-12 and bands_ok,
        f"max row gap {worst_row:.2e}, max col gap {worst_col:.2e}, "
        f"10^5-draw frequencies within 4 sigma: {bands_ok}",
    )


def test_criterion_8_growth_identity():
    rng = np.random.default_rng(108)
    worst = 0.0
    for _ in range(100):
        spec = random_spec(rng, n_min=2, n_max=8)
        e = ewm.optimal_evalue(spec)
        log_e = np.log(e.scores)
        j = ewm.jstar(spec)
        for pair in ewm.enumerate_extremes(spec):
            w = ewm.extreme_coupling(spec, pair)
            mask = w.joint > 0.0
            worst = max(worst, abs(float(np.sum(w.joint[mask] * log_e[mask])) - j))
    _gate(
        "criterion 8 (sum w* log e* = jstar on every vertex)",
        worst <= 1e-12,
        f"max |sum - jstar| = {worst:.2e} over 100 specs x all pairs",
    )


def test_criterion_9_baseline_comparison():
    spec = spec_of([0.5, 0.5], 0.3)
    alpha = 0.02
    e = ewm.optimal_evalue(spec)
    pbar = ewm.worst_null_match_prob(spec)
    w = ewm.extreme_coupling(spec, ewm.ExtremePair(0, 1))
    trials = 1000
    budget = 600
    tau_e = np.empty(trials, dtype=np.int64)
    tau_b = np.empty(trials, dtype=np.int64)
    for t in range(trials):
        stream = ewm.sample_stream(w, budget, ewm.trial_rng(ewm.trial_seed(909, 0, t)))
        re = ewm.batch_detect(e, alpha, stream, budget)
        rb = ewm.baseline_batch_detect(alpha, pbar, stream, budget)
        assert re.decision == "rejected" and rb.decision == "rejected"
        tau_e[t] = re.stop_step
        tau_b[t] = rb.stop_step
    n_plus = int(np.sum(tau_e < tau_b))
    n_minus = int(np.sum(tau_e > tau_b))
    p_sign = float(binom.sf(n_plus - 1, n_plus + n_minus, 0.5))
    ok = tau_e.mean() < tau_b.mean() and p_sign < 0.01
    _gate(
        "criterion 9 (sequential score detector beats binomial baseline)",
        ok,
        f"mean stop {tau_e.mean():.2f} vs {tau_b.mean():.2f}, "
        f"sign test n+={n_plus}, n-={n_minus}, p={p_sign:.3g}",
    )
