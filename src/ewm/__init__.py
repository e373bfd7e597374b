"""E-value watermarking toolkit.

Construction of the worst-case log-optimal score table for targets inside an
L1 neighborhood of an anchor distribution, distortion-free generator
couplings, anytime-valid sequential detection with early stopping, and
brute-force oracles plus Monte Carlo simulation that verify the closed forms.
"""

from . import errors
from .coupling import (
    CouplingMatrix,
    PathSpec,
    extreme_coupling,
    make_coupling,
    mixture_coupling,
    path_coupling,
    read_stream_csv,
    sample_pair,
    sample_stream,
    write_stream_csv,
)
from .detection import (
    BaselineState,
    DetectionReport,
    DetectorState,
    baseline_batch_detect,
    baseline_observe,
    batch_detect,
    detector_from_json,
    detector_to_json,
    init_baseline,
    init_detector,
    observe,
    worst_null_match_prob,
)
from .evalue import (
    EValueTable,
    jstar,
    kernel_of,
    make_evalue_table,
    null_worst_expectation,
    optimal_evalue,
    row_sums,
)
from .oracles import (
    TwoTokenSolution,
    best_path_inner_value,
    cycle_condition_check,
    saddle_check,
    two_token_maxmin,
)
from .simplex import (
    EXACT_ATOL,
    RECONSTRUCT_ATOL,
    SIMPLEX_ATOL,
    ExtremePair,
    MixtureDecomposition,
    NeighborhoodSpec,
    VocabDistribution,
    decompose_target,
    entropy,
    enumerate_extremes,
    extreme_target,
    l1_distance,
    make_distribution,
    make_neighborhood,
    reconstruct_mixture,
)
from .simulation import (
    AdversaryPolicy,
    ExperimentConfig,
    FixedPair,
    HistoryGreedy,
    RandomPair,
    RoundRobin,
    SweepRow,
    TrialRecord,
    calibrate_null,
    default_horizon,
    estimate_stopping,
    mix64,
    run_trial,
    trial_rng,
    trial_seed,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
