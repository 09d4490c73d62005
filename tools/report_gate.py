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
    "bench-quenched-colors": _QUENCHED + [
        "--dim", "2", "--radius", "64", "--p", "0.3", "--nu", "two-point:-1,1,0.5",
        "--color-replicates", "10000", "--graph-replicates", "1", "--margin", "20",
        "--proxy", "boundary-largest", "--workers", "1",
    ],
    "bench-tiny-p0.3": [
        "estimate", "--dim", "2", "--radius", "1", "--p", "0.3", "--replicates", "5000",
        "--margin", "0", "--proxy", "disabled", "--workers", "1",
    ],
    "bench-tiny-p0.7": [
        "estimate", "--dim", "2", "--radius", "1", "--p", "0.7", "--replicates", "5000",
        "--margin", "0", "--proxy", "disabled", "--workers", "1",
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
    "lln-quenched": [
        "lln", "--mode", "quenched", "--radius", "8", "--radius", "16", "--radius", "32",
        "--p", "0.7", "--graph-replicates", "5",
    ],
    "lln-annealed": ["lln", "--mode", "annealed", "--radius", "16", "--p", "0.7", "--graph-replicates", "60"],
    "weighted-lln": ["weighted-lln", "--radius", "16", "--p", "0.3", "--graph-replicates", "40"],
    "check-identity-d3": [
        "check-identity", "--dim", "3", "--radius", "1", "--radius", "2", "--radius", "4",
        "--p", "0.3", "--p", "0.7", "--configs", "200",
    ],
    "clt-quenched-gaussian-w3": _QUENCHED + [
        "--radius", "16", "--p", "0.3", "--nu", "gaussian:0,2", "--color-replicates", "1500",
        "--graph-replicates", "3", "--workers", "3",
    ],
    "cluster-clt-w2": [
        "cluster-clt", "--radius", "8", "--radius", "16", "--p", "0.7",
        "--graph-replicates", "60", "--workers", "2",
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
    "clt-quenched-discrete-w2": _QUENCHED + [
        "--radius", "16", "--p", "0.3", "--nu", "discrete:-1:0.2,0:0,2:0.8",
        "--color-replicates", "1500", "--graph-replicates", "3", "--workers", "2",
    ],
    "clt-annealed-mixture": _ANNEALED + [
        "--regime", "supercritical", "--radius", "16", "--p", "0.7", "--nu", "two-point:-1,1,0.3",
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
    # Degenerate branches: each check that reads max |statistic| or a point mass.
    "clt-quenched-point-mass": _QUENCHED + [
        "--radius", "8", "--p", "0.3", "--nu", "two-point:3,3,0.7", "--color-replicates", "50",
    ],
    "clt-quenched-empty-graph": _QUENCHED + [
        "--radius", "16", "--p", "0.0", "--nu", "gaussian:0,2", "--color-replicates", "500",
        "--proxy", "disabled",
    ],
    "clt-quenched-one-coloring": _QUENCHED + [
        "--radius", "8", "--p", "0.3", "--color-replicates", "1", "--graph-replicates", "2",
    ],
    "weighted-lln-full-lattice": ["weighted-lln", "--radius", "4", "--p", "1.0", "--graph-replicates", "5"],
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
    # p = 0.5 is critical in d=2: the run warns on stderr.
    "lln-quenched-near-critical": [
        "lln", "--mode", "quenched", "--radius", "8", "--p", "0.5", "--graph-replicates", "3",
    ],
}


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
