"""Byte-identity gate for CLI reports: run a fixed invocation list against one source tree.

Usage:

    python tools/report_gate.py SRC_ROOT OUT_DIR

Each invocation in INVOCATIONS runs twice in a fresh process with
PYTHONPATH=SRC_ROOT/src: once with --format json and once with --format
csv, each with --out inside OUT_DIR/<name>/<format>/. The report is
rewritten without its timing block, the one part that differs between
identical runs. Next to it the gate keeps the CSV dumps, stdout, stderr
(with SRC_ROOT replaced by the literal SRC_ROOT) and the exit code. Two
trees written from two checkouts then compare with a plain

    diff -r OUT_A OUT_B

A change that must keep every report byte-identical shows no difference.

An invocation named BASE-w<k> whose BASE is also listed is BASE's twin: the
same argv run with --workers k, whose tree must equal BASE's. The twins'
names print with

    python tools/report_gate.py --twins

so that, after a gate run into OUT_DIR, each compares with
diff -r OUT_DIR/BASE OUT_DIR/BASE-w<k>.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SEED = "17"
FORMATS = ("json", "csv")
# Each run is a fresh interpreter that calls the CLI's main, as the dcl script does.
_RUNNER = "import sys; from dcl.cli import main; sys.exit(main(sys.argv[1:]))"

_ANNEALED = ["clt", "--mode", "annealed"]
_QUENCHED = ["clt", "--mode", "quenched"]

# name -> argv without --seed, --out and --format, which the gate appends.
INVOCATIONS: dict[str, list[str]] = {
    # The four benchmark workloads, tiny-box at both of its densities.
    "bench-annealed-d2": _ANNEALED + [
        "--regime", "supercritical", "--dim", "2", "--radius", "128", "--p", "0.7",
        "--nu", "two-point:-1,1,0.5", "--graph-replicates", "40", "--color-replicates", "1",
        "--margin", "23", "--proxy", "boundary-largest", "--workers", "1",
    ],
    # Its --workers 2 twin: 40 boxes of 66049 sites, one per stack, labeled in worker processes.
    "bench-annealed-d2-w2": _ANNEALED + [
        "--regime", "supercritical", "--dim", "2", "--radius", "128", "--p", "0.7",
        "--nu", "two-point:-1,1,0.5", "--graph-replicates", "40", "--color-replicates", "1",
        "--margin", "23", "--proxy", "boundary-largest", "--workers", "2",
    ],
    "bench-quenched-colors": _QUENCHED + [
        "--dim", "2", "--radius", "64", "--p", "0.3", "--nu", "two-point:-1,1,0.5",
        "--color-replicates", "10000", "--graph-replicates", "1", "--margin", "20",
        "--proxy", "boundary-largest", "--workers", "1",
    ],
    # Its --workers 2 twin: 40 chunks of colorings, one stream color-chunk:i
    # each, drawn in worker processes.
    "bench-quenched-colors-w2": _QUENCHED + [
        "--dim", "2", "--radius", "64", "--p", "0.3", "--nu", "two-point:-1,1,0.5",
        "--color-replicates", "10000", "--graph-replicates", "1", "--margin", "20",
        "--proxy", "boundary-largest", "--workers", "2",
    ],
    "bench-tiny-p0.3": [
        "estimate", "--dim", "2", "--radius", "1", "--p", "0.3", "--replicates", "5000",
        "--margin", "0", "--proxy", "disabled", "--workers", "1",
    ],
    "bench-tiny-p0.7": [
        "estimate", "--dim", "2", "--radius", "1", "--p", "0.7", "--replicates", "5000",
        "--margin", "0", "--proxy", "disabled", "--workers", "1",
    ],
    # Its --workers 2 twin: 5000 replicates are three stacks of 3x3 boxes,
    # whose short streams are drawn in numpy arrays in the worker processes.
    "bench-tiny-p0.7-w2": [
        "estimate", "--dim", "2", "--radius", "1", "--p", "0.7", "--replicates", "5000",
        "--margin", "0", "--proxy", "disabled", "--workers", "2",
    ],
    "bench-threads-d3": [
        "cluster-clt", "--dim", "3", "--radius", "12", "--radius", "20", "--p", "0.4",
        "--graph-replicates", "30", "--proxy", "boundary-largest", "--workers", "2",
    ],
    # estimate at the smallest and a large dimension, both stand-in rules.
    "estimate-d1": ["estimate", "--dim", "1", "--radius", "300", "--p", "0.9", "--replicates", "40"],
    "estimate-d4-largest": [
        "estimate", "--dim", "4", "--radius", "3", "--p", "0.3", "--replicates", "20",
        "--proxy", "boundary-largest",
    ],
    "estimate-d4-disabled": [
        "estimate", "--dim", "4", "--radius", "3", "--p", "0.3", "--replicates", "20",
        "--proxy", "disabled",
    ],
    # Full 27-site stacks: every edge open, the last copy's last edge on each axis too.
    "estimate-d3-full-stack": ["estimate", "--dim", "3", "--radius", "1", "--p", "1.0", "--replicates", "1000"],
    "lln-quenched": [
        "lln", "--mode", "quenched", "--radius", "8", "--radius", "16", "--radius", "32",
        "--p", "0.7", "--graph-replicates", "5",
    ],
    # The margin applies to the radius-8 box; radius 4 is a window inside it.
    "lln-quenched-wide-margin": [
        "lln", "--mode", "quenched", "--radius", "4", "--radius", "8", "--margin", "6",
        "--p", "0.7", "--graph-replicates", "5",
    ],
    # No stand-in: the quenched graph's colors and decomposition read no proxy cluster.
    "lln-quenched-no-stand-in": [
        "lln", "--mode", "quenched", "--radius", "8", "--radius", "16", "--p", "0.3",
        "--proxy", "disabled", "--nu", "gaussian:0.5,2", "--graph-replicates", "3",
    ],
    # Quenched windows outside d=2: nested windows of a 3D box, a 1D window
    # that is the whole box, and a 3D window of 5^3 sites. Both clt entries
    # exit 2 on checks that windows this small miss: the mean-cluster-size
    # target in both, the Gaussian KS in 1D, and in 3D the 5% exact-variance
    # band, which 500 colorings (an SE of ~6%) cannot hold.
    "lln-quenched-d3": [
        "lln", "--mode", "quenched", "--dim", "3", "--radius", "2", "--radius", "4", "--radius", "6",
        "--margin", "1", "--p", "0.4", "--graph-replicates", "5",
    ],
    # Discrete colors drawn by color_clusters for the quenched graph; the
    # zero-weight atom repeats a threshold.
    "lln-quenched-discrete": [
        "lln", "--mode", "quenched", "--radius", "8", "--radius", "16", "--p", "0.7",
        "--nu", "discrete:-1:0.2,0:0,2:0.8", "--graph-replicates", "5",
    ],
    "clt-quenched-d1-margin0": _QUENCHED + [
        "--dim", "1", "--radius", "40", "--margin", "0", "--p", "0.8", "--color-replicates", "500",
        "--graph-replicates", "5",
    ],
    "clt-quenched-d3": _QUENCHED + [
        "--dim", "3", "--radius", "5", "--margin", "3", "--p", "0.15", "--color-replicates", "500",
        "--graph-replicates", "5",
    ],
    "lln-annealed": ["lln", "--mode", "annealed", "--radius", "16", "--p", "0.7", "--graph-replicates", "60"],
    # --workers 2 twins of lln-annealed and clt-annealed-mixture: 60 graphs are 4 stacks at n=16.
    "lln-annealed-w2": [
        "lln", "--mode", "annealed", "--radius", "16", "--p", "0.7", "--graph-replicates", "60",
        "--workers", "2",
    ],
    "weighted-lln": ["weighted-lln", "--radius", "16", "--p", "0.3", "--graph-replicates", "40"],
    # Colored replicates with no stand-in: every copy's z is 0 and all its clusters are finite.
    "weighted-lln-no-stand-in": [
        "weighted-lln", "--radius", "8", "--p", "0.3", "--proxy", "disabled", "--nu", "gaussian:0.5,2",
        "--graph-replicates", "40",
    ],
    # Three live atoms, two thresholds per colored copy.
    "weighted-lln-discrete": [
        "weighted-lln", "--radius", "16", "--p", "0.7", "--nu", "discrete:-1:0.2,0:0.3,2:0.5",
        "--graph-replicates", "40",
    ],
    "check-identity-d3": [
        "check-identity", "--dim", "3", "--radius", "1", "--radius", "2", "--radius", "4",
        "--p", "0.3", "--p", "0.7", "--configs", "200",
    ],
    "clt-quenched-gaussian": _QUENCHED + [
        "--radius", "16", "--p", "0.3", "--nu", "gaussian:0,2", "--color-replicates", "1500",
        "--graph-replicates", "3",
    ],
    "clt-quenched-gaussian-w3": _QUENCHED + [
        "--radius", "16", "--p", "0.3", "--nu", "gaussian:0,2", "--color-replicates", "1500",
        "--graph-replicates", "3", "--workers", "3",
    ],
    "cluster-clt": [
        "cluster-clt", "--radius", "8", "--radius", "16", "--p", "0.7", "--graph-replicates", "60",
    ],
    "cluster-clt-w2": [
        "cluster-clt", "--radius", "8", "--radius", "16", "--p", "0.7",
        "--graph-replicates", "60", "--workers", "2",
    ],
    # Three boxes in one engine call, 19 stacks: 1 at n=4, 4 at n=8 and 14 at n=16.
    # The -w3 twin drains them from one queue on three processes. Exit 2: the
    # small boxes' volume variance is far from n=16's (drift 0.60 from n=4 to 8).
    "cluster-clt-three-radii": [
        "cluster-clt", "--radius", "4", "--radius", "8", "--radius", "16", "--p", "0.7",
        "--graph-replicates", "200",
    ],
    "cluster-clt-three-radii-w3": [
        "cluster-clt", "--radius", "4", "--radius", "8", "--radius", "16", "--p", "0.7",
        "--graph-replicates", "200", "--workers", "3",
    ],
    # Gaussian and three-atom colors through the annealed, quenched and gamma paths.
    "lln-annealed-gaussian": [
        "lln", "--mode", "annealed", "--radius", "16", "--p", "0.7", "--nu", "gaussian:0,1",
        "--graph-replicates", "60",
    ],
    "lln-annealed-discrete": [
        "lln", "--mode", "annealed", "--radius", "16", "--p", "0.7",
        "--nu", "discrete:-1:0.2,0:0,2:0.8", "--graph-replicates", "60",
    ],
    # Three live atoms: the annealed limit is a FiniteDiscrete law.
    "lln-annealed-discrete-live3": [
        "lln", "--mode", "annealed", "--radius", "16", "--p", "0.7",
        "--nu", "discrete:-1:0.2,0:0.3,2:0.5", "--graph-replicates", "60",
    ],
    # Below p_c the default stand-in is a finite boundary cluster, so theta_box
    # is a finite-size artifact; the two atoms m +- theta_box sit closer than
    # the averages spread, most averages land in no bin, and the TV check fails.
    "lln-annealed-subcritical": [
        "lln", "--mode", "annealed", "--radius", "16", "--p", "0.3", "--graph-replicates", "60",
    ],
    "clt-quenched-discrete": _QUENCHED + [
        "--radius", "16", "--p", "0.3", "--nu", "discrete:-1:0.2,0:0,2:0.8",
        "--color-replicates", "1500", "--graph-replicates", "3",
    ],
    "clt-quenched-discrete-w2": _QUENCHED + [
        "--radius", "16", "--p", "0.3", "--nu", "discrete:-1:0.2,0:0,2:0.8",
        "--color-replicates", "1500", "--graph-replicates", "3", "--workers", "2",
    ],
    # Three live atoms, two thresholds per coloring, and its --workers 2 twin.
    "clt-quenched-live3": _QUENCHED + [
        "--radius", "16", "--margin", "4", "--p", "0.3", "--nu", "discrete:-1:0.2,0:0.3,2.5:0.5",
        "--color-replicates", "1500", "--graph-replicates", "3",
    ],
    "clt-quenched-live3-w2": _QUENCHED + [
        "--radius", "16", "--margin", "4", "--p", "0.3", "--nu", "discrete:-1:0.2,0:0.3,2.5:0.5",
        "--color-replicates", "1500", "--graph-replicates", "3", "--workers", "2",
    ],
    # Non-dyadic colors, so their sums round: the twin shows the summation
    # order of the coloring blocks does not follow the worker count. At
    # margin 4 the window reads ~400 cluster ids, so a 256-coloring chunk
    # is several blocks of 2**15 // 400 colorings, the last one partial.
    "clt-quenched-alpha03": _QUENCHED + [
        "--radius", "16", "--margin", "4", "--p", "0.3", "--nu", "two-point:-1,1,0.3",
        "--color-replicates", "1500", "--graph-replicates", "3",
    ],
    "clt-quenched-alpha03-w2": _QUENCHED + [
        "--radius", "16", "--margin", "4", "--p", "0.3", "--nu", "two-point:-1,1,0.3",
        "--color-replicates", "1500", "--graph-replicates", "3", "--workers", "2",
    ],
    "clt-annealed-mixture": _ANNEALED + [
        "--regime", "supercritical", "--radius", "16", "--p", "0.7", "--nu", "two-point:-1,1,0.3",
        "--graph-replicates", "60",
    ],
    "clt-annealed-mixture-w2": _ANNEALED + [
        "--regime", "supercritical", "--radius", "16", "--p", "0.7", "--nu", "two-point:-1,1,0.3",
        "--graph-replicates", "60", "--workers", "2",
    ],
    # A zero-weight atom and two equal-weight atoms: gamma is one Gaussian.
    "clt-annealed-zero-weight-atom": _ANNEALED + [
        "--regime", "supercritical", "--radius", "16", "--p", "0.7", "--nu", "discrete:-1:0.5,1:0.5,3:0",
        "--graph-replicates", "60",
    ],
    "clt-annealed-equal-weights": _ANNEALED + [
        "--regime", "supercritical", "--radius", "16", "--p", "0.7", "--nu", "two-point:-0.369,4.36,0.5",
        "--graph-replicates", "60",
    ],
    # Gaussian colors: gamma is a Gaussian scale mixture on quadrature nodes.
    "clt-annealed-gaussian": _ANNEALED + [
        "--regime", "supercritical", "--radius", "16", "--p", "0.7", "--nu", "gaussian:1,0.5",
        "--graph-replicates", "60",
    ],
    "clt-annealed-subcritical-discrete": _ANNEALED + [
        "--regime", "subcritical", "--radius", "16", "--p", "0.2", "--nu", "discrete:-1:0.2,0:0.3,2:0.5",
        "--graph-replicates", "60",
    ],
    "gamma-two-point": ["gamma-sample", "--nu", "two-point:-1,1,0.3", "--samples", "2000"],
    "gamma-discrete": [
        "gamma-sample", "--nu", "discrete:-1:0.2,0:0,2:0.8", "--chi-f", "2.0", "--sigma-p2", "0.25",
        "--samples", "2000",
    ],
    "gamma-gaussian": ["gamma-sample", "--nu", "gaussian:1,0.5", "--samples", "2000"],
    # chi_f = 0: the mixture's components have no common Gaussian part.
    "gamma-gaussian-chi0": ["gamma-sample", "--nu", "gaussian:1,0.5", "--chi-f", "0", "--samples", "2000"],
    "gamma-equal-weights": ["gamma-sample", "--nu", "two-point:-0.369,4.36,0.5", "--samples", "2000"],
    # Degenerate branches: each check that reads max |statistic| or a point mass.
    "clt-quenched-point-mass": _QUENCHED + [
        "--radius", "8", "--p", "0.3", "--nu", "two-point:3,3,0.7", "--color-replicates", "50",
    ],
    # One live atom after two dead ones: the statistics must still be exactly
    # zero. Margin 2 leaves a 13x13 window; the default margin leaves 1 site.
    "clt-quenched-point-mass-dead-atoms": _QUENCHED + [
        "--radius", "8", "--margin", "2", "--p", "0.3", "--nu", "discrete:0.1:0,0.2:0,0.7:1",
        "--color-replicates", "50",
    ],
    "clt-quenched-empty-graph": _QUENCHED + [
        "--radius", "16", "--p", "0.0", "--nu", "gaussian:0,2", "--color-replicates", "500",
        "--proxy", "disabled",
    ],
    # The stand-in covers the window: no cluster is read, yet all 50 color streams are listed.
    "clt-quenched-full-proxy": _QUENCHED + ["--radius", "4", "--p", "1.0", "--color-replicates", "50"],
    "clt-quenched-one-coloring": _QUENCHED + [
        "--radius", "8", "--p", "0.3", "--color-replicates", "1", "--graph-replicates", "2",
    ],
    "weighted-lln-full-lattice": ["weighted-lln", "--radius", "4", "--p", "1.0", "--graph-replicates", "5"],
    # A point-mass color law: every weighted average is m up to rounding, an exact check.
    "weighted-lln-point-mass": [
        "weighted-lln", "--radius", "6", "--p", "0.0", "--proxy", "disabled",
        "--nu", "two-point:0.1,0.1,0.5", "--graph-replicates", "5",
    ],
    "cluster-clt-degenerate": [
        "cluster-clt", "--radius", "2", "--radius", "4", "--p", "1.0", "--graph-replicates", "5",
    ],
    "clt-annealed-point-mass": _ANNEALED + [
        "--regime", "supercritical", "--radius", "8", "--p", "0.7", "--nu", "discrete:2.5:1",
        "--graph-replicates", "6",
    ],
    "clt-annealed-regime-mismatch": _ANNEALED + [
        "--regime", "supercritical", "--radius", "8", "--p", "0.1", "--graph-replicates", "6",
    ],
    # No stand-in, yet a cluster spans the box in every replicate: the
    # declared subcritical regime is refused.
    "clt-annealed-subcritical-disabled": _ANNEALED + [
        "--regime", "subcritical", "--proxy", "disabled", "--radius", "16", "--p", "0.7",
        "--graph-replicates", "60",
    ],
    # p = 0.5 is critical in d=2: the run warns on stderr.
    "lln-quenched-near-critical": [
        "lln", "--mode", "quenched", "--radius", "8", "--p", "0.5", "--graph-replicates", "3",
    ],
}


def twins() -> dict[str, str]:
    """{twin: base} for every invocation BASE-w<k> that repeats a listed BASE with --workers k."""
    pairs = {}
    for name in INVOCATIONS:
        base, _, workers = name.rpartition("-w")
        if base in INVOCATIONS and workers.isdigit():
            pairs[name] = base
    return pairs


def gate_argv(argv: list[str], out: Path, out_format: str) -> list[str]:
    """The full command line the gate runs for one invocation and format."""
    return [*argv, "--seed", SEED, "--out", str(out), "--format", out_format]


def run_one(src_root: Path, base: list[str], out_format: str, out_dir: Path) -> int:
    """Run one invocation in one format and store what it left in out_dir."""
    out_dir.mkdir(parents=True)
    report = out_dir.resolve() / "report.json"
    argv = gate_argv(base, report, out_format)
    env = {**os.environ, "PYTHONPATH": str(src_root / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", _RUNNER, *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    (out_dir / "stdout.txt").write_text(proc.stdout)
    (out_dir / "stderr.txt").write_text(proc.stderr.replace(str(src_root), "SRC_ROOT"))
    (out_dir / "exit_code.txt").write_text(f"{proc.returncode}\n")
    if report.is_file():
        data = json.loads(report.read_text())
        data.pop("timing", None)
        report.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return proc.returncode


def main(argv: list[str]) -> int:
    if argv == ["--twins"]:
        print("\n".join(twins()))
        return 0
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    src_root, out_root = Path(argv[0]).resolve(), Path(argv[1])
    if not (src_root / "src" / "dcl" / "cli.py").is_file():
        print(f"report_gate: no src/dcl/cli.py under {src_root}", file=sys.stderr)
        return 1
    if out_root.exists() and any(out_root.iterdir()):
        print(f"report_gate: {out_root} is not empty", file=sys.stderr)
        return 1
    for name, base in INVOCATIONS.items():
        codes = [run_one(src_root, base, fmt, out_root / name / fmt) for fmt in FORMATS]
        print(f"{name}: exit {' '.join(map(str, codes))}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
