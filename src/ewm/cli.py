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
    _check_alpha,
    _parse_json,
    baseline_batch_detect,
    batch_detect,
    report_to_dict,
    worst_null_match_prob,
)
from .errors import EwmError, FormatError
from .evalue import jstar, null_worst_expectation, optimal_evalue
from .oracles import cycle_condition_check, saddle_check, two_token_maxmin
from .simplex import (
    ExtremePair,
    NeighborhoodSpec,
    _count,
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
    report = {k: _fmt(v) for k, v in payload.items()}
    try:
        text = json.dumps(report, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:  # strict JSON: inv_jstar is infinite at a subnormal J*
        raise FormatError(f"report holds an infinite value: {report}") from exc
    _write(out, lambda fh: fh.write(text))


def _write(out: str | None, write, *args) -> None:
    """The one writer: ``write(fh, *args)`` to the UTF-8 file ``out``, LF line endings, or stdout."""
    if out:
        with open(out, "w", newline="", encoding="utf-8") as fh:
            write(fh, *args)
    else:
        write(sys.stdout, *args)


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
        _count(count, "grid count", 2, 10_000, FormatError)  # 333x the paper's 30 points, 40 B each
        start, end = _check_alpha(start, FormatError), _check_alpha(end, FormatError)
        grid = np.exp(np.linspace(math.log(start), math.log(end), count))
        grid[0], grid[-1] = start, end  # endpoints exact, not exp(log(x))
        return [float(a) for a in grid]
    try:
        values = [float(tok) for tok in token.split(",") if tok.strip()]
    except ValueError as exc:
        raise FormatError(f"malformed alpha list {token!r}: {exc}") from exc
    if not values:
        raise FormatError("empty alpha list")
    return [_check_alpha(a, FormatError) for a in values]


def _resolve_anchor(args) -> NeighborhoodSpec:
    # JSON's bytes from a file: UTF-8, -16 or -32
    payload = args.anchor if args.anchor_file is None else Path(args.anchor_file).read_bytes()
    return make_neighborhood(make_distribution(_parse_json(payload)), args.delta)


def _parse_pair(token: str) -> ExtremePair:
    parts = token.split(",")
    if len(parts) != 2:
        raise FormatError(f"expected 'gain,loss', got {token!r}")
    try:
        return ExtremePair(int(parts[0]), int(parts[1]))
    except ValueError as exc:
        raise FormatError(f"malformed pair {token!r}: {exc}") from exc


def _cmd_jstar(args, spec: NeighborhoodSpec) -> int:
    j = jstar(spec)
    _emit(
        {"n": spec.n, "delta": spec.delta, "entropy": entropy(spec.anchor),
         "jstar": j, "inv_jstar": 1.0 / j},
        args.out,
    )
    return 0


def _cmd_maxmin2(args, spec: NeighborhoodSpec) -> int:
    sol = two_token_maxmin(spec, args.grid, args.refinements)
    j = jstar(spec)
    if args.trace:
        _write(args.trace, simulation._write_csv, "refinement,r00,r11,objective", sol.trace)
    _emit(
        {"j_numeric": sol.value, "r00": sol.r00, "r11": sol.r11,
         "jstar": j, "abs_error": abs(sol.value - j)},
        args.out,
    )
    return 0


def _parse_policy(token: str) -> simulation.AdversaryPolicy:
    token = token.strip()
    if token.startswith("fixed:"):
        return _parse_pair(token[len("fixed:"):])
    if token == "roundrobin":
        return simulation.RoundRobin()
    if token == "random":
        return simulation.RandomPair()
    if token == "greedy":
        return simulation.HistoryGreedy()
    raise FormatError(f"unknown policy {token!r}")


def _cmd_sweep_tau(args, spec: NeighborhoodSpec) -> int:
    config = simulation.ExperimentConfig(
        spec=spec,
        alphas=parse_alpha_grid(args.alphas),
        trials=args.trials,
        policy=_parse_policy(args.policy),
        horizon_cap=args.horizon_cap,
        base_seed=args.seed,
    )
    rows = simulation.estimate_stopping(config, threads=args.threads)
    _write(args.out, simulation.write_sweep_csv, rows)
    return 0


def _cmd_calibrate_null(args, spec: NeighborhoodSpec) -> int:
    alphas = parse_alpha_grid(args.alphas)
    q_null = make_distribution(_parse_json(args.q_null)) if args.q_null else spec.anchor
    rows = []
    for ai, alpha in enumerate(alphas):
        horizon = args.horizon
        if horizon is None:
            horizon = simulation.default_horizon(spec, alpha, factor=5.0)
        rng = simulation.trial_rng(simulation.trial_seed(args.seed, ai, 0))
        rate = simulation.calibrate_null(spec, alpha, args.trials, horizon, q_null, rng)
        rows.append((alpha, args.trials, horizon, round(rate * args.trials), rate))
    _write(args.out, simulation.write_calibration_csv, rows)
    return 0


def _cmd_generate(args, spec: NeighborhoodSpec) -> int:
    if args.pair is not None:
        w = extreme_coupling(spec, _parse_pair(args.pair))
    else:
        q = make_distribution(_parse_json(args.target))
        w = mixture_coupling(spec, decompose_target(spec, q))
    rng = simulation.trial_rng(simulation.mix64(args.seed))
    draws = (pair for chunk in _stream_chunks(w, args.steps, rng) for pair in chunk.tolist())
    _write(args.out, write_stream_csv, draws)
    return 0


def _cmd_detect(args, spec: NeighborhoodSpec) -> int:
    with open(args.stream, newline="", encoding="utf-8") as fh:  # read as far as the detector goes
        stream = read_stream_csv(fh)
        if args.method == "evalue":
            report = batch_detect(optimal_evalue(spec), args.alpha, stream, args.budget)
        else:
            report = baseline_batch_detect(
                args.alpha, worst_null_match_prob(spec), stream, args.budget, n=spec.n
            )
    payload = report_to_dict(report)
    payload["method"] = args.method
    _emit(payload, args.out)
    return 0


def _cmd_decompose(args, spec: NeighborhoodSpec) -> int:
    q = make_distribution(_parse_json(args.target))
    mix = decompose_target(spec, q)
    payload = {
        "terms": [
            {"gain": pair.gain, "loss": pair.loss, "weight": _fmt(weight)}
            for pair, weight in mix.terms
        ]
    }
    _emit(payload, args.out)
    return 0


def _cmd_audit(args, spec: NeighborhoodSpec) -> int:
    e = optimal_evalue(spec)
    worst = null_worst_expectation(e, spec)
    null_ok = worst <= 1.0 + 1e-10
    cap = spec.n if args.max_cycle_len is None else args.max_cycle_len
    cycles_ok = cycle_condition_check(e, cap)
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
    """The one parser of the process, built on first use."""
    parser = argparse.ArgumentParser(
        prog="ewm",
        description="Worst-case log-optimal watermark scores, couplings, and anytime-valid detection.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    def sub(name, func, help) -> argparse.ArgumentParser:
        p = subs.add_parser(name, help=help)
        anchor = p.add_mutually_exclusive_group(required=True)
        anchor.add_argument("--anchor", help="inline JSON array of anchor weights")
        anchor.add_argument("--anchor-file", help="path to a JSON array of anchor weights")
        p.add_argument("--delta", type=float, required=True, help="L1 radius")
        # resolved when run_command calls func, so a bad anchor is its typed error too
        p.set_defaults(func=lambda args: func(args, _resolve_anchor(args)))
        return p

    sub("jstar", _cmd_jstar, "closed-form optimal growth rate")

    p = sub("maxmin2", _cmd_maxmin2, "two-token max-min grid solver (n = 2)")
    p.add_argument("--grid", type=int, default=256)
    p.add_argument("--refinements", type=int, default=4)
    p.add_argument("--trace", help="CSV trace of incumbents per refinement")

    p = sub("sweep-tau", _cmd_sweep_tau, "Monte Carlo stopping-time table")
    p.add_argument("--alphas", required=True, help="log:<start>:<end>:<count> or comma list")
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--policy", default="fixed:0,1")
    p.add_argument("--horizon-cap", type=int, default=None)
    p.add_argument("--threads", type=int, default=1, help="worker processes")

    p = sub("calibrate-null", _cmd_calibrate_null, "false-positive rate under the null")
    p.add_argument("--alphas", required=True)
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--horizon", type=int, default=None,
                   help="default: ceil(5 log(1/alpha) / jstar)")
    p.add_argument("--q-null", help="inline JSON target (default: the anchor)")
    p.add_argument("--seed", type=int, default=0)

    p = sub("generate", _cmd_generate, "sample a watermarked stream to CSV")
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--pair", help="vertex target as 'gain,loss'")
    target.add_argument("--target", help="inline JSON target distribution")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)

    p = sub("detect", _cmd_detect, "run sequential detection over a stream")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--method", choices=["evalue", "baseline"], default="evalue")
    p.add_argument("--stream", required=True, help="CSV stream with header step,v,s")
    p.add_argument("--budget", type=int, default=None)

    p = sub("decompose", _cmd_decompose, "decompose a target into vertex weights")
    p.add_argument("--target", required=True, help="inline JSON target distribution")

    p = sub("audit", _cmd_audit, "null-constraint, cycle, and saddle checks")
    p.add_argument("--perturbations", type=int, default=200)
    p.add_argument("--magnitude", type=float, default=0.05)
    p.add_argument("--max-cycle-len", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)

    for p in subs.choices.values():
        p.add_argument("--out")
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
