"""Command-line front end.

One subcommand per artifact: ``jstar`` (closed-form rate), ``maxmin2``
(two-token numeric solver), ``sweep-tau`` (stopping-time table),
``calibrate-null`` (false-positive rate under the null), ``generate`` /
``detect`` (stream emission and sequential detection), ``decompose``
(target into vertex mixture) and ``audit`` (null constraint + cycle +
saddle checks).

Reports are JSON objects on stdout unless ``--out`` is given; tables are CSV
with a mandatory header, ``.`` decimal separator and LF line endings.  All
numeric output is printed with 12 significant digits, so identical flags and
seeds reproduce byte-identical files.  Exit codes: 0 success, 2 usage error,
1 runtime error (including a failed audit).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import simulation
from .coupling import (
    _stream_chunks,
    extreme_coupling,
    mixture_coupling,
    read_stream_csv,
    write_stream_csv,
)
from .detection import (
    baseline_batch_detect,
    batch_detect,
    report_to_dict,
    worst_null_match_prob,
)
from .errors import EwmError, FormatError
from .evalue import jstar, null_worst_expectation, optimal_evalue
from .oracles import cycle_condition_check, log_scores, saddle_check, two_token_maxmin
from .simplex import (
    ExtremePair,
    NeighborhoodSpec,
    decompose_target,
    entropy,
    make_distribution,
    make_neighborhood,
)


def _fmt(x) -> object:
    """Round floats to 12 significant digits for stable, readable reports."""
    if isinstance(x, float):
        if math.isnan(x):
            return None
        return float(f"{x:.12g}")
    return x


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps({k: _fmt(v) for k, v in payload.items()}, indent=2) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _write_table(out: str | None, write, rows) -> None:
    if out:
        with open(out, "w", newline="") as fh:
            write(fh, rows)
    else:
        write(sys.stdout, rows)


def parse_alpha_grid(token: str) -> list[float]:
    """``log:<start>:<end>:<count>`` for a geometric grid, or a comma list."""
    token = token.strip()
    if token.startswith("log:"):
        parts = token.split(":")
        if len(parts) != 4:
            raise FormatError(f"expected log:<start>:<end>:<count>, got {token!r}")
        try:
            start, end = float(parts[1]), float(parts[2])
            count = int(parts[3])
        except ValueError as exc:
            raise FormatError(f"malformed grid token {token!r}: {exc}") from exc
        if count < 2:
            raise FormatError(f"grid count must be >= 2, got {count}")
        if not (0.0 < start < 1.0 and 0.0 < end < 1.0):
            raise FormatError("grid endpoints must lie in (0, 1)")
        grid = np.exp(np.linspace(math.log(start), math.log(end), count))
        grid[0], grid[-1] = start, end  # endpoints exact, not exp(log(x))
        return [float(a) for a in grid]
    try:
        values = [float(tok) for tok in token.split(",") if tok.strip()]
    except ValueError as exc:
        raise FormatError(f"malformed alpha list {token!r}: {exc}") from exc
    if not values:
        raise FormatError("empty alpha list")
    for a in values:
        if not (0.0 < a < 1.0):
            raise FormatError(f"alpha {a!r} outside (0, 1)")
    return values


def _parse_json_weights(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"not valid JSON: {exc}") from exc


def _resolve_anchor(args) -> NeighborhoodSpec:
    if args.anchor is not None:
        payload = args.anchor  # inline wins over --anchor-file
        # convenience: a non-JSON value naming an existing file is read from disk
        if not payload.lstrip().startswith("[") and Path(payload).is_file():
            payload = Path(payload).read_text()
    elif args.anchor_file is not None:
        payload = Path(args.anchor_file).read_text()
    else:
        raise FormatError("provide --anchor or --anchor-file")
    return make_neighborhood(make_distribution(_parse_json_weights(payload)), args.delta)


def _add_anchor_flags(sub) -> None:
    sub.add_argument("--anchor", help="inline JSON array of anchor weights")
    sub.add_argument("--anchor-file", help="path to a JSON array of anchor weights")
    sub.add_argument("--delta", type=float, required=True, help="L1 radius")


def _default_threads() -> int:
    value = os.environ.get("EWM_THREADS", "1")
    try:
        return int(value)
    except ValueError as exc:
        raise FormatError(f"EWM_THREADS must be an integer, got {value!r}") from exc


def _parse_pair(token: str) -> ExtremePair:
    parts = token.split(",")
    if len(parts) != 2:
        raise FormatError(f"expected 'gain,loss', got {token!r}")
    try:
        return ExtremePair(int(parts[0]), int(parts[1]))
    except ValueError as exc:
        raise FormatError(f"malformed pair {token!r}: {exc}") from exc


def _cmd_jstar(args) -> int:
    spec = _resolve_anchor(args)
    j = jstar(spec)
    _emit(
        {"n": spec.n, "delta": spec.delta, "entropy": entropy(spec.anchor),
         "jstar": j, "inv_jstar": 1.0 / j},
        args.out,
    )
    return 0


def _cmd_maxmin2(args) -> int:
    sol = two_token_maxmin(args.p, args.delta, args.grid, args.refinements)
    spec = make_neighborhood(make_distribution([args.p, 1.0 - args.p]), args.delta)
    j = jstar(spec)
    if args.trace:
        with open(args.trace, "w", newline="") as fh:
            fh.write("refinement,r00,r11,objective\n")
            for ref, r00, r11, obj in sol.trace:
                fh.write(f"{ref},{r00:.12g},{r11:.12g},{obj:.12g}\n")
    _emit(
        {"j_numeric": sol.value, "r00": sol.r00, "r11": sol.r11,
         "jstar": j, "abs_error": abs(sol.value - j)},
        args.out,
    )
    return 0


def _parse_policy(token: str) -> simulation.AdversaryPolicy:
    token = token.strip()
    if token.startswith("fixed:"):
        pair = _parse_pair(token[len("fixed:"):])
        return simulation.FixedPair(pair.gain, pair.loss)
    if token == "roundrobin":
        return simulation.RoundRobin()
    if token == "random":
        return simulation.RandomPair()
    if token == "greedy":
        return simulation.HistoryGreedy()
    raise FormatError(f"unknown policy {token!r}")


def _cmd_sweep_tau(args) -> int:
    spec = _resolve_anchor(args)
    alphas = parse_alpha_grid(args.alphas)
    config = simulation.ExperimentConfig(
        spec=spec,
        alphas=tuple(alphas),
        trials=args.trials,
        policy=_parse_policy(args.policy),
        horizon_cap=args.horizon_cap,
        base_seed=args.seed,
    )
    threads = _default_threads() if args.threads is None else args.threads
    rows = simulation.estimate_stopping(config, threads=threads)
    _write_table(args.out, simulation.write_sweep_csv, rows)
    return 0


def _cmd_calibrate_null(args) -> int:
    spec = _resolve_anchor(args)
    alphas = parse_alpha_grid(args.alphas)
    q_null = make_distribution(_parse_json_weights(args.q_null)) if args.q_null else spec.anchor
    rows = []
    for ai, alpha in enumerate(alphas):
        horizon = args.horizon
        if horizon is None:
            horizon = max(1, math.ceil(5.0 * math.log(1.0 / alpha) / jstar(spec)))
        rng = simulation.trial_rng(simulation.trial_seed(args.seed, ai, 0))
        rate = simulation.calibrate_null(spec, alpha, args.trials, horizon, q_null, rng)
        rows.append((alpha, args.trials, horizon, round(rate * args.trials), rate))
    _write_table(args.out, simulation.write_calibration_csv, rows)
    return 0


def _cmd_generate(args) -> int:
    spec = _resolve_anchor(args)
    if (args.pair is None) == (args.target is None):
        raise FormatError("provide exactly one of --pair or --target")
    if args.pair is not None:
        w = extreme_coupling(spec, _parse_pair(args.pair))
    else:
        q = make_distribution(_parse_json_weights(args.target))
        w = mixture_coupling(spec, decompose_target(spec, q))
    rng = simulation.trial_rng(simulation.mix64(args.seed))
    draws = (pair for chunk in _stream_chunks(w, args.steps, rng) for pair in chunk.tolist())
    _write_table(args.out, write_stream_csv, draws)
    return 0


def _cmd_detect(args) -> int:
    spec = _resolve_anchor(args)
    with open(args.stream, newline="") as fh:
        stream = read_stream_csv(fh)
    budget = args.budget if args.budget is not None else max(1, len(stream))
    if args.method == "evalue":
        report = batch_detect(optimal_evalue(spec), args.alpha, stream, budget)
    else:
        report = baseline_batch_detect(
            args.alpha, worst_null_match_prob(spec), stream, budget, n=spec.n
        )
    payload = report_to_dict(report)
    payload["method"] = args.method
    _emit(payload, args.out)
    return 0


def _cmd_decompose(args) -> int:
    spec = _resolve_anchor(args)
    q = make_distribution(_parse_json_weights(args.target))
    mix = decompose_target(spec, q)
    payload = {
        "terms": [
            {"gain": pair.gain, "loss": pair.loss, "weight": _fmt(weight)}
            for pair, weight in mix.terms
        ]
    }
    _emit(payload, args.out)
    return 0


def _cmd_audit(args) -> int:
    spec = _resolve_anchor(args)
    e = optimal_evalue(spec)
    worst = null_worst_expectation(e, spec)
    null_ok = worst <= 1.0 + 1e-10
    cap = spec.n if args.max_cycle_len is None else args.max_cycle_len
    cycles_ok = cycle_condition_check(log_scores(e), cap)
    rng = simulation.trial_rng(simulation.mix64(args.seed))
    saddle_ok = saddle_check(spec, args.perturbations, args.magnitude, rng)
    passed = null_ok and cycles_ok and saddle_ok
    _emit(
        {"jstar": jstar(spec), "null_worst_expectation": worst, "null_ok": null_ok,
         "cycle_condition": cycles_ok, "saddle_ok": saddle_ok, "audit_pass": passed},
        args.out,
    )
    return 0 if passed else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use; no default depends
    on the environment, which the commands read when they run."""
    parser = argparse.ArgumentParser(
        prog="ewm",
        description="Worst-case log-optimal watermark scores, couplings, and anytime-valid detection.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("jstar", help="closed-form optimal growth rate")
    _add_anchor_flags(p)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_jstar)

    p = subs.add_parser("maxmin2", help="two-token max-min grid solver")
    p.add_argument("--p", type=float, required=True, help="anchor weight of symbol 0")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--grid", type=int, default=256)
    p.add_argument("--refinements", type=int, default=4)
    p.add_argument("--trace", help="CSV trace of incumbents per refinement")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_maxmin2)

    p = subs.add_parser("sweep-tau", help="Monte Carlo stopping-time table")
    _add_anchor_flags(p)
    p.add_argument("--alphas", required=True, help="log:<start>:<end>:<count> or comma list")
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--policy", default="fixed:0,1")
    p.add_argument("--horizon-cap", type=int, default=None)
    p.add_argument("--threads", type=int, default=None, help="default: $EWM_THREADS or 1")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sweep_tau)

    p = subs.add_parser("calibrate-null", help="false-positive rate under the null")
    _add_anchor_flags(p)
    p.add_argument("--alphas", required=True)
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--horizon", type=int, default=None,
                   help="default: ceil(5 log(1/alpha) / jstar)")
    p.add_argument("--q-null", help="inline JSON target (default: the anchor)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_calibrate_null)

    p = subs.add_parser("generate", help="sample a watermarked stream to CSV")
    _add_anchor_flags(p)
    p.add_argument("--pair", help="vertex target as 'gain,loss'")
    p.add_argument("--target", help="inline JSON target distribution")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_generate)

    p = subs.add_parser("detect", help="run sequential detection over a stream")
    _add_anchor_flags(p)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--method", choices=["evalue", "baseline"], default="evalue")
    p.add_argument("--stream", required=True, help="CSV stream with header step,v,s")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_detect)

    p = subs.add_parser("decompose", help="decompose a target into vertex weights")
    _add_anchor_flags(p)
    p.add_argument("--target", required=True, help="inline JSON target distribution")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_decompose)

    p = subs.add_parser("audit", help="null-constraint, cycle, and saddle checks")
    _add_anchor_flags(p)
    p.add_argument("--perturbations", type=int, default=200)
    p.add_argument("--magnitude", type=float, default=0.05)
    p.add_argument("--max-cycle-len", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_audit)

    return parser


def run_command(argv: list[str]) -> int:
    """Dispatch one invocation; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except EwmError as exc:
        print(f"ewm: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"ewm: io error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"ewm: error: out of memory: {exc}", file=sys.stderr)
        return 1


def main(argv: list[str] | None = None) -> int:
    return run_command(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
