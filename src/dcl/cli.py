"""Command-line front end: one process runs one experiment and writes one report."""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import sys
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .coloring import parse_color_measure
from .harness import (
    ExperimentConfig,
    RunResult,
    _refuse_unread,
    _within,
    recorded,
    run_annealed_clt,
    run_annealed_lln,
    run_cluster_clt,
    run_quenched_clt,
    run_quenched_lln,
    run_weighted_lln_check,
)
from .lattice import BoxTooLargeError, build_box
from .percolation import (
    PROXY_BOUNDARY_LARGEST,
    PROXY_RULES,
    default_window_margin,
    estimate_functionals,
    map_labelings,
    square_sums,
)
from .rng import check_seed, derive_rng
from .stats import summarize
from .theory import SampledLaw, gamma_law

SEED_ENV_VAR = "DCL_SEED"

EXIT_PASS = 0
EXIT_ERROR = 1
EXIT_TEST_FAILURE = 2

MODES = ("annealed", "quenched")

# glibc's mallopt parameters (malloc.h) and the values a run sets them to.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_BYTES = 32 << 20
_TRIM_THRESHOLD_BYTES = 1 << 30


class UsageError(ValueError):
    """Bad flags or flag values.  Maps to exit status 1, never 2."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; 2 is reserved here for
    # failed statistical checks, so surface parse problems as exceptions.
    def error(self, message: str) -> None:
        raise UsageError(message)


@dataclass(frozen=True)
class CliInvocation:
    """A validated command line, ready to execute: run(config), or run(options) without a config."""

    subcommand: str
    run: Callable[..., RunResult]
    config: ExperimentConfig | None
    options: dict
    out_path: Path | None
    out_format: str


def _probability(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"{value} is outside [0, 1]")
    return value


def _positive(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"{value} is not a positive integer")
    return value


def _add_run_flags(sub: argparse.ArgumentParser) -> None:
    """The seed and output flags every subcommand takes."""
    sub.add_argument("--seed", type=int, default=None, help=f"master seed (default ${SEED_ENV_VAR} or 0)")
    sub.add_argument("--out", default=None, help="report path (default stdout)")
    sub.add_argument(
        "--format",
        choices=("json", "csv"),
        default="json",
        help="json writes the report only; csv additionally dumps per-sample files",
    )


def _add_lattice_flags(sub: argparse.ArgumentParser, *, with_colors: bool, with_margin: bool = True) -> None:
    sub.add_argument("--dim", type=_positive, default=2, help="lattice dimension d")
    sub.add_argument(
        "--radius",
        type=_positive,
        action="append",
        required=True,
        help="box radius n; only lln --mode quenched (nested windows) and "
        "cluster-clt (box sizes) take it more than once",
    )
    sub.add_argument("--p", type=_probability, required=True, help="edge density in [0, 1]")
    if with_colors:
        sub.add_argument(
            "--nu",
            default="two-point:-1,1,0.5",
            help="color measure: two-point:a,b,alpha | gaussian:mean,variance | "
            "discrete:v1:w1,v2:w2,...",
        )
    if with_margin:
        sub.add_argument("--margin", type=int, default=None, help="inner-window margin (default 4 ln side)")
    sub.add_argument(
        "--proxy",
        choices=sorted(PROXY_RULES),
        default=PROXY_BOUNDARY_LARGEST,
        help="stand-in rule for the infinite cluster",
    )
    sub.add_argument("--workers", type=_positive, default=1, help="worker processes (Linux); never changes results")
    _add_run_flags(sub)


def _build_parser() -> _Parser:
    parser = _Parser(prog="dcl", description=__doc__)
    subs = parser.add_subparsers(dest="subcommand", required=True)

    est = subs.add_parser("estimate", help="Monte Carlo cluster functionals of one (d, n, p)")
    _add_lattice_flags(est, with_colors=False)
    est.add_argument("--replicates", type=_positive, default=100, help="independent configurations")

    lln = subs.add_parser("lln", help="law of large numbers for the color average")
    _add_lattice_flags(lln, with_colors=True)
    lln.add_argument("--mode", choices=MODES, required=True)
    lln.add_argument("--graph-replicates", type=_positive, default=100)

    clt = subs.add_parser("clt", help="fluctuations of the centered color sum")
    _add_lattice_flags(clt, with_colors=True)
    clt.add_argument("--mode", choices=MODES, required=True)
    clt.add_argument("--graph-replicates", type=_positive, default=100)
    clt.add_argument("--color-replicates", type=_positive, help="--mode quenched only (default 1000)")
    clt.add_argument(
        "--regime",
        choices=("subcritical", "supercritical"),
        default=None,
        help="--mode annealed only, and required there",
    )

    cc = subs.add_parser("cluster-clt", help="fluctuations of the stand-in cluster volume")
    _add_lattice_flags(cc, with_colors=False, with_margin=False)
    cc.add_argument("--graph-replicates", type=_positive, default=100)

    wl = subs.add_parser("weighted-lln", help="cluster-size-weighted color averages")
    _add_lattice_flags(wl, with_colors=True)
    wl.add_argument("--graph-replicates", type=_positive, default=100)

    gs = subs.add_parser("gamma-sample", help="draw from the annealed fluctuation limit law")
    gs.add_argument("--nu", required=True, help="color measure (same grammar as lln/clt)")
    gs.add_argument("--chi-f", type=float, default=1.0, help="finite-cluster mean size")
    gs.add_argument("--sigma-p2", type=float, default=0.5, help="cluster-volume variance density")
    gs.add_argument("--samples", type=_positive, default=100_000)
    _add_run_flags(gs)

    ci = subs.add_parser("check-identity", help="exact per-site vs per-cluster square-sum equality")
    ci.add_argument("--dim", type=_positive, default=2)
    ci.add_argument("--radius", type=_positive, action="append", default=None)
    ci.add_argument(
        "--p",
        type=_probability,
        action="append",
        default=None,
        help="edge density; repeatable (default 0.2 0.5 0.8)",
    )
    ci.add_argument("--configs", type=_positive, default=1000, help="configurations per density")
    ci.add_argument(
        "--proxy", choices=sorted(PROXY_RULES), default=PROXY_BOUNDARY_LARGEST
    )
    ci.add_argument("--margin", type=int, default=None)
    _add_run_flags(ci)

    return parser


def _resolve_seed(seed: int | None) -> int:
    source = "--seed"
    if seed is None:
        raw = os.environ.get(SEED_ENV_VAR)
        if raw is None:
            return 0
        source = f"${SEED_ENV_VAR}"
        try:
            seed = int(raw)
        except ValueError:
            raise UsageError(f"{source} must be an integer, got {raw!r}") from None
    try:
        return check_seed(seed)
    except ValueError as exc:
        raise UsageError(f"{source}: {exc}") from None


def _parse_nu(text: str):
    try:
        return parse_color_measure(text)
    except ValueError as exc:
        raise UsageError(f"--nu: {exc}") from None


def parse_invocation(argv: list[str]) -> CliInvocation:
    """Validate argv into a CliInvocation; raises UsageError on bad input."""
    args = _build_parser().parse_args(argv)
    sub = args.subcommand
    mode = getattr(args, "mode", None)
    experiment = sub if mode is None else f"{mode}-{sub}"
    out_path = Path(args.out) if args.out is not None else None
    if args.format == "csv" and out_path is None:
        raise UsageError("--format csv needs --out to name the dump files")

    if sub == "gamma-sample":
        options = {
            "nu": _parse_nu(args.nu),
            "chi_f": args.chi_f,
            "sigma_p2": args.sigma_p2,
            "samples": args.samples,
            "master_seed": _resolve_seed(args.seed),
        }
        # The law refuses what its run could not use: a negative or non-finite
        # --chi-f or --sigma-p2, or component variances that overflow.
        try:
            gamma_law(options["chi_f"], options["sigma_p2"], options["nu"])
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        return CliInvocation(sub, _RUNS[experiment], None, options, out_path, args.format)

    if sub == "check-identity":
        radii, p_values = args.radius or [16], args.p or [0.2, 0.5, 0.8]
        if len(set(radii)) < len(radii) or len(set(p_values)) < len(p_values):
            raise UsageError(f"--radius and --p values must be distinct, got {radii} and {p_values}")
        if args.margin is not None and not 0 <= args.margin <= min(radii):
            raise UsageError(f"--margin must lie in [0, {min(radii)}], got {args.margin}")
        options = {
            "d": args.dim,
            "radii": radii,
            "p_values": p_values,
            "configs": args.configs,
            "master_seed": _resolve_seed(args.seed),
            "proxy_rule": args.proxy,
            "margin": args.margin,
        }
        return CliInvocation(sub, _RUNS[experiment], None, options, out_path, args.format)

    # Only quenched clt reads --color-replicates; it defaults to 1000 colorings.
    color_replicates = getattr(args, "color_replicates", None) or (1000 if experiment == "quenched-clt" else 1)

    try:
        config = ExperimentConfig(
            d=args.dim,
            radii=args.radius,
            p=args.p,
            nu=_parse_nu(args.nu) if hasattr(args, "nu") else None,
            graph_replicates=getattr(args, "graph_replicates", None) or getattr(args, "replicates", 100),
            color_replicates=color_replicates,
            master_seed=_resolve_seed(args.seed),
            margin=getattr(args, "margin", None),
            proxy_rule=args.proxy,
            regime=getattr(args, "regime", None),
            workers=args.workers,
        )
        _refuse_unread(config, experiment)
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc)) from None
    return CliInvocation(sub, _RUNS[experiment], config, {}, out_path, args.format)


def _json_ready(value):
    """Recursively coerce a report object into JSON-safe primitives."""
    if hasattr(value, "to_dict"):  # laws, color measures, test reports
        return _json_ready(value.to_dict())
    if isinstance(value, dict):
        return {str(k): _json_ready(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_ready(v) for v in value]
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if hasattr(value, "item"):  # numpy scalar
        return _json_ready(value.item())
    return str(value)


def _report(result: RunResult, config: dict) -> dict:
    """The one report layout every subcommand writes."""
    return {
        "config": {"experiment": result.experiment, **config},
        "estimates": result.estimates,
        "predictions": result.predictions,
        "tests": result.tests,
        "seeds": result.seeds,
        "timing": result.timing,
    }


def _emit(report: dict, samples: dict[str, list[float]], invocation: CliInvocation) -> None:
    text = json.dumps(_json_ready(report), indent=2, sort_keys=True) + "\n"
    if invocation.out_path is None:
        sys.stdout.write(text)
    else:
        invocation.out_path.parent.mkdir(parents=True, exist_ok=True)
        invocation.out_path.write_text(text)
    if invocation.out_format != "csv":
        return
    stem = invocation.out_path.with_suffix("")
    for name, values in sorted(samples.items()):
        dump = Path(f"{stem}_{name}.csv")
        # repr round-trips doubles exactly, so re-reading the dump reproduces
        # every summary statistic bit for bit. One repr per distinct bit
        # pattern, not per distinct value, so -0.0 keeps its own text; a
        # lattice of atomic sums takes few patterns.
        bits, rows = np.unique(np.asarray(values, dtype=np.float64).view(np.int64), return_inverse=True)
        text = [repr(value) for value in bits.view(np.float64).tolist()]
        lines = [f"index,{name} (dimensionless)"]
        lines.extend(f"{i},{text[j]}" for i, j in enumerate(rows.tolist()))
        dump.write_text("\n".join(lines) + "\n")


@recorded
def _run_estimate(config: ExperimentConfig) -> RunResult:
    _refuse_unread(config, "estimate")
    lattice = build_box(config.d, config.n_max)
    estimates = estimate_functionals(
        lattice,
        config.p,
        config.graph_replicates,
        config.master_seed,
        margin=config.margin,
        proxy_rule=config.proxy_rule,
        workers=config.workers,
    )
    return RunResult(experiment="estimate", estimates=asdict(estimates))


@recorded
def _run_gamma_sample(opts: dict) -> RunResult:
    nu = opts["nu"]
    sampler = SampledLaw(opts["chi_f"], opts["sigma_p2"], nu)
    law = gamma_law(opts["chi_f"], opts["sigma_p2"], nu)
    draws = sampler.sample(derive_rng(opts["master_seed"], "gamma-sample"), opts["samples"])
    return RunResult(
        experiment="gamma-sample",
        estimates={"draw_summary": summarize(draws).to_dict()},
        predictions={"gamma": law},
        samples={"gamma_draw": draws.tolist()},
    )


@recorded
def _run_check_identity(opts: dict) -> RunResult:
    tests = []
    counts: dict[str, dict[str, int]] = {}
    lattices = [build_box(opts["d"], radius) for radius in opts["radii"]]
    boxes = [(lattice, p) for lattice in lattices for p in opts["p_values"]]

    def observe(start: int, stack) -> dict:
        # The two square-sum routes are compared copy by copy.
        margin = opts["margin"] if opts["margin"] is not None else default_window_margin(stack.lattice)
        return {"differs": np.not_equal(*square_sums(stack, margin))}

    columns = map_labelings(
        [(lattice, p, f"identity:{lattice.n}:{p!r}") for lattice, p in boxes],
        opts["master_seed"],
        opts["configs"],
        observe,
        proxy_rule=opts["proxy_rule"],
    )
    for (lattice, p), box in zip(boxes, columns):
        violations = int(np.count_nonzero(box["differs"]))
        counts[f"n={lattice.n},p={p!r}"] = {"configs": opts["configs"], "violations": violations}
        tests.append(
            _within(
                float(violations),
                0.0,
                f"identity: per-site vs per-cluster square sums on {opts['configs']} "
                f"configs at n={lattice.n}, p={p!r}",
            )
        )
    return RunResult(experiment="check-identity", estimates=counts, tests=tests)


# The run behind each experiment: a subcommand, prefixed by its --mode where it has one.
_RUNS = {
    "estimate": _run_estimate,
    "gamma-sample": _run_gamma_sample,
    "check-identity": _run_check_identity,
    "quenched-lln": run_quenched_lln,
    "annealed-lln": run_annealed_lln,
    "quenched-clt": run_quenched_clt,
    "annealed-clt": run_annealed_clt,
    "cluster-clt": run_cluster_clt,
    "weighted-lln": run_weighted_lln_check,
}


def execute(invocation: CliInvocation) -> int:
    """Run the experiment behind a parsed invocation; returns the exit status."""
    if invocation.config is None:
        result, config = invocation.run(invocation.options), invocation.options
    else:
        result = invocation.run(invocation.config)
        config = invocation.config.to_dict(result.experiment)
    _emit(_report(result, config), result.samples, invocation)
    return EXIT_PASS if result.passed() else EXIT_TEST_FAILURE


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    # One line naming the warning, without the source file and line that
    # warnings.showwarning adds, so that stderr does not move with the code.
    print(f"warning: {category.__name__}: {message}", file=sys.stderr)


def _keep_freed_heap() -> None:
    """Have glibc's allocator keep freed heap memory for reuse; elsewhere, do nothing.

    A run frees and reallocates arrays of the same few sizes once per
    replicate. By default glibc maps blocks past a threshold that adapts
    upwards from 128 KiB as fresh pages and trims the heap top past twice
    that, so each replicate faults those pages in again. Setting either
    threshold turns the adaptation off, so both are set: blocks up to 32 MiB
    come from the heap, and the heap is trimmed only past 1 GiB free.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        invocation = parse_invocation(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    _keep_freed_heap()
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            return execute(invocation)
    except (UsageError, BoxTooLargeError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:  # noqa: BLE001 - boundary: report and set status
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
