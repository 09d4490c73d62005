"""End-to-end and per-layer benchmark for ``dcl``.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout that holds ``src/dcl``. Each experiment is a fresh
Python process (``perfbench/worker.py``) that calls ``dcl.cli.main(argv)``
with every flag that changes the work pinned. A round runs each of the
workload's invocations once; rounds repeat until the next would end after
``--seconds``. Outputs are then checked against figures computed apart from
``dcl`` (``perfbench/reference.py``).

With ``--trace 0`` the last stdout line carries the end-to-end metrics, with
``--trace 1`` the per-layer ones, from rounds that alternate an untraced and
a traced pass. A JSON record of the machine, the argv, every sample and every
failure precedes that line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
WORK_ROOT = ROOT / ".bench_build" / "perfbench"
WORKER = HERE / "worker.py"
EXPERIMENT_TIMEOUT_S = 150

from reference import enumerate_box, load_reference, within  # noqa: E402  (script dir is on sys.path)
from spans import LABEL_LAYER, LAYERS  # noqa: E402

# Replicate counts are the acceptance-board sizes scaled so that a round
# takes 1-2.5 s on a 2-CPU x86 VM: annealed-d2 200 -> 40, tiny-box 20000 ->
# 5000 per density, threads-d3 100 -> 30. quenched-colors keeps its 10000.
ANNEALED_REPLICATES = 40
TINY_REPLICATES = 5000
THREADS_REPLICATES = 30
TINY_DENSITIES = ("0.3", "0.7")
THREADS_RADII = (12, 20)
SIGMA_BOUND = 4.0  # standard errors allowed between a report and its reference
SPREAD_BOUND = 5.0  # reference standard deviations allowed for one graph's value
KS_TOLERANCE = 1e-9
# The speed probe's time (worker.speed_probe) on a 2-CPU x86 VM (Xeon, 2.0 GHz,
# Python 3.11.7, numpy 2.4.6) at its fastest: times are rescaled to this speed.
PROBE_REFERENCE_S = 0.1

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "rng.derive_rng.calls": "count",
    f"{LABEL_LAYER}.calls": "count",
    f"{LABEL_LAYER}.sites_per_s": "1/s",
    "bench.trace_overhead_s": "s",
}


def annealed_argv(seed: int, out: str) -> list[str]:
    return [
        "clt", "--mode", "annealed", "--regime", "supercritical",
        "--dim", "2", "--radius", "128", "--p", "0.7", "--nu", "two-point:-1,1,0.5",
        "--graph-replicates", str(ANNEALED_REPLICATES), "--color-replicates", "1",
        "--margin", "23", "--proxy", "boundary-largest", "--workers", "1",
        "--seed", str(seed), "--out", out, "--format", "json",
    ]  # fmt: skip


def quenched_argv(seed: int, out: str) -> list[str]:
    return [
        "clt", "--mode", "quenched",
        "--dim", "2", "--radius", "64", "--p", "0.3", "--nu", "two-point:-1,1,0.5",
        "--color-replicates", "10000", "--graph-replicates", "1",
        "--margin", "20", "--proxy", "boundary-largest", "--workers", "1",
        "--seed", str(seed), "--out", out, "--format", "csv",
    ]  # fmt: skip


def tiny_argv(p: str) -> Callable[[int, str], list[str]]:
    # p = 0.5 is exactly critical in d=2, so the densities stay away from it.
    def argv(seed: int, out: str) -> list[str]:
        return [
            "estimate", "--dim", "2", "--radius", "1", "--p", p,
            "--replicates", str(TINY_REPLICATES), "--margin", "0", "--proxy", "disabled",
            "--workers", "1", "--seed", str(seed), "--out", out, "--format", "json",
        ]  # fmt: skip

    return argv


def threads_argv(seed: int, out: str, workers: int = 2) -> list[str]:
    # cluster-clt reads no margin, so none is given.
    return [
        "cluster-clt", "--dim", "3", *(f for r in THREADS_RADII for f in ("--radius", str(r))), "--p", "0.4",
        "--graph-replicates", str(THREADS_REPLICATES), "--proxy", "boundary-largest",
        "--workers", str(workers), "--seed", str(seed), "--out", out, "--format", "json",
    ]  # fmt: skip


@dataclass
class Experiment:
    label: str
    argv: list[str]
    traced: bool
    round: int
    status: int | None = None
    setup_s: float | None = None
    run_s: float | None = None
    peak_rss_mb: float | None = None
    probe_s: float | None = None
    layers: dict | None = None
    report: dict | None = None
    stderr: str = ""
    failure: str | None = None

    @property
    def out(self) -> Path:
        return Path(self.argv[self.argv.index("--out") + 1])


@dataclass
class Runner:
    workdir: Path
    env: dict
    count: int = 0

    def run(self, label: str, argv_of: Callable[[int, str], list[str]], seed: int, traced: bool, rnd: int) -> Experiment:
        self.count += 1
        out = self.workdir / f"{label}-{self.count}.json"
        exp = Experiment(label, argv_of(seed, str(out)), traced, rnd)
        result_path = self.workdir / f"result-{self.count}.json"
        cmd = [sys.executable, str(WORKER), str(result_path), "1" if traced else "0", "--", *exp.argv]
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=EXPERIMENT_TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            exp.failure = f"timed out after {EXPERIMENT_TIMEOUT_S} s"
            return exp
        exp.stderr = proc.stderr
        if proc.returncode != 0 or not result_path.exists():
            exp.failure = f"worker exit status {proc.returncode}: {proc.stderr.strip()[-300:]}"
            return exp
        result = json.loads(result_path.read_text())
        exp.status = result["status"]
        exp.setup_s, exp.run_s, exp.peak_rss_mb = result["setup_s"], result["run_s"], result["peak_rss_mb"]
        exp.probe_s = result["probe_s"]
        exp.layers = result.get("layers")
        # Status 2 means a statistical check in the report said "fail"; the
        # report is complete and is checked like any other.
        if exp.status not in (0, 2):
            exp.failure = f"dcl exit status {exp.status}: {proc.stderr.strip()[-300:]}"
        elif not exp.out.exists():
            exp.failure = "no report written"
        else:
            exp.report = json.loads(exp.out.read_text())
        return exp


def canonical(report: dict) -> str:
    """The report as dcl writes it, with the timing block removed."""
    return json.dumps({k: v for k, v in report.items() if k != "timing"}, indent=2, sort_keys=True)


def report_test(report: dict, prefix: str) -> dict:
    matches = [t for t in report["tests"] if t["context"].startswith(prefix)]
    if len(matches) != 1:
        raise KeyError(f"expected one test starting {prefix!r}, found {len(matches)}")
    return matches[0]


def check_against(name: str, value: float, figure: dict, replicates: int) -> list[str]:
    """Mean of `replicates` draws vs the reference mean, SEs from the reference spread."""
    se = figure["sd"] * math.sqrt(1.0 / replicates + 1.0 / figure["count"])
    if within(value, figure["mean"], se, SIGMA_BOUND):
        return []
    return [f"{name} = {value!r} is more than {SIGMA_BOUND} SE ({se:.3g}) from the reference {figure['mean']!r}"]


def check_annealed(exps: dict[str, Experiment], runner: Runner, seed: int) -> list[str]:
    report = exps["clt"].report
    ref = load_reference()["d2-n128-p0.7"]
    est = report["estimates"]
    return check_against(
        "percolation.kappa_hat", est["percolation"]["kappa_hat"], ref["kappa"], ANNEALED_REPLICATES
    ) + check_against("theta_pooled_box", est["theta_pooled_box"], ref["theta_box"], ANNEALED_REPLICATES)


def check_quenched(exps: dict[str, Experiment], runner: Runner, seed: int) -> list[str]:
    from scipy import stats

    exp = exps["clt"]
    report = exp.report
    est = report["estimates"]
    reasons = []
    dump = exp.out.with_name(f"{exp.out.stem}_statistic.csv")
    values = [float(line.split(",")[1]) for line in dump.read_text().splitlines()[1:]]
    if len(values) != report["config"]["color_replicates"]:
        reasons.append(f"{dump.name} holds {len(values)} values, not {report['config']['color_replicates']}")
    ks = float(stats.kstest(values, "norm", args=(0.0, math.sqrt(est["variance_exact_target"]))).statistic)
    reported = report_test(report, "quenched-clt: KS against the exact-variance Gaussian")["statistic"]
    if not abs(ks - reported) <= KS_TOLERANCE:
        reasons.append(f"KS statistic {reported!r} but scipy.stats.kstest gives {ks!r}")
    ref = load_reference()["d2-n64-p0.3"]["square_sum_density"]
    ssd = est["square_sum_density_graph"]
    if not within(ssd, ref["mean"], ref["sd"], SPREAD_BOUND):
        reasons.append(
            f"square_sum_density_graph = {ssd!r} outside reference {ref['mean']:.4g} +- {SPREAD_BOUND} sd ({ref['sd']:.3g})"
        )
    return reasons


def check_tiny(exps: dict[str, Experiment], runner: Runner, seed: int) -> list[str]:
    reasons = []
    for p in TINY_DENSITIES:
        estimates = exps[f"estimate-p{p}"].report["estimates"]
        exact = enumerate_box(2, 1, float(p))
        for key, name in (("kappa_hat", "k"), ("square_sum_density", "square_sum")):
            value = estimates[key] * exact["sites"]
            se = math.sqrt(exact[f"{name}_var"] / TINY_REPLICATES)
            if not within(value, exact[f"{name}_mean"], se, SIGMA_BOUND):
                reasons.append(
                    f"p={p}: {key}*9 = {value!r} is more than {SIGMA_BOUND} SE ({se:.3g}) "
                    f"from the enumerated mean {exact[f'{name}_mean']!r}"
                )
    return reasons


def check_threads(exps: dict[str, Experiment], runner: Runner, seed: int) -> list[str]:
    exp = exps["cluster-clt"]
    reasons = []
    single = runner.run("cluster-clt-workers-1", lambda s, out: threads_argv(s, out, workers=1), seed, False, -1)
    if single.report is None:
        reasons.append(f"--workers 1 run produced no report: {single.failure}")
    elif canonical(single.report) != canonical(exp.report):
        reasons.append("report differs from the --workers 1 report with timing removed")
    refs = load_reference()
    for radius in THREADS_RADII:
        theta = exp.report["estimates"]["per_radius"][str(radius)]["theta_box"]
        ref = refs[f"d3-n{radius}-p0.4"]["theta_box"]
        reasons += check_against(f"per_radius[{radius}].theta_box", theta, ref, THREADS_REPLICATES)
    return reasons


@dataclass(frozen=True)
class Workload:
    why: str
    invocations: dict[str, Callable[[int, str], list[str]]]
    check: Callable[[dict[str, Experiment], Runner, int], list[str]]


WORKLOADS = {
    "annealed-d2": Workload(
        "large 2D boxes in one single-threaded replicate loop; the labeler takes ~90% of the time",
        {"clt": annealed_argv},
        check_annealed,
    ),
    "quenched-colors": Workload(
        "10000 colorings of one graph; color sampling and stream derivation dominate, the labeler runs twice",
        {"clt": quenched_argv},
        check_quenched,
    ),
    "tiny-box": Workload(
        "3x3 boxes at p=0.3 and p=0.7; the fixed cost per replicate dominates",
        {f"estimate-p{p}": tiny_argv(p) for p in TINY_DENSITIES},
        check_tiny,
    ),
    "threads-d3": Workload(
        "3D boxes labeled on two threads; the only workload where --workers matters",
        {"cluster-clt": threads_argv},
        check_threads,
    ),
}


@dataclass
class Outcome:
    experiments: list[Experiment] = field(default_factory=list)
    reasons: list[str] = field(default_factory=list)


def run_workload(workload: Workload, seed: int, seconds: float, traced: bool, runner: Runner) -> Outcome:
    outcome = Outcome()
    passes = (False, True) if traced else (False,)
    start = time.perf_counter()
    rounds = 0
    while True:
        for trace_pass in passes:
            for label, argv_of in workload.invocations.items():
                outcome.experiments.append(runner.run(label, argv_of, seed, trace_pass, rounds))
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed * (rounds + 1) / rounds > seconds:
            break

    first: dict[str, Experiment] = {}
    for exp in outcome.experiments:
        if exp.report is None:
            continue
        ref = first.setdefault(exp.label, exp)
        if canonical(exp.report) != canonical(ref.report):
            outcome.reasons.append(
                f"{exp.label} round {exp.round}: report differs from round {ref.round} with timing removed"
            )
    if len(first) == len(workload.invocations):
        try:
            outcome.reasons += workload.check(first, runner, seed)
        except (KeyError, ValueError, OSError) as exc:
            outcome.reasons.append(f"check could not read the outputs: {exc!r}")
    return outcome


def median_of(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def rescaled_times(exps: list[Experiment], traced: bool) -> dict[str, float]:
    """Mean set-up and run time of one pass, rescaled to the probe's reference speed.

    Slow episodes on a shared host last from seconds to minutes and stretch
    an experiment and the speed probe that follows it alike, so the ratio
    of their means moves much less between runs than either time does
    (figures in README.md). ``slowdown`` is the run's mean probe time over
    ``PROBE_REFERENCE_S``. ``run_s`` adds the means of the workload's
    invocations.
    """
    done = [e for e in exps if e.traced == traced and e.failure is None]
    if not done:
        return {"setup_s": float("nan"), "run_s": float("nan"), "slowdown": float("nan")}
    slowdown = statistics.fmean(e.probe_s for e in done) / PROBE_REFERENCE_S
    runs: dict[str, list[float]] = {}
    for exp in done:
        runs.setdefault(exp.label, []).append(exp.run_s)
    return {
        "setup_s": statistics.fmean(e.setup_s for e in done) / slowdown,
        "run_s": sum(statistics.fmean(v) for v in runs.values()) / slowdown,
        "slowdown": slowdown,
    }


def round_values(exps: list[Experiment], traced: bool, value: Callable[[list[Experiment]], float]) -> list[float]:
    """One value per round whose experiments of this pass all completed."""
    by_round: dict[int, list[Experiment]] = {}
    for exp in exps:
        if exp.traced == traced:
            by_round.setdefault(exp.round, []).append(exp)
    return [value(group) for group in by_round.values() if all(e.failure is None for e in group)]


def end_to_end_samples(exps: list[Experiment]) -> dict[str, list[float]]:
    """Unscaled samples of the untraced pass, kept in the record."""
    return {
        "setup_s": [e.setup_s for e in exps if not e.traced and e.failure is None],
        "run_s": round_values(exps, False, lambda g: sum(e.run_s for e in g)),
        "peak_rss_mb": round_values(exps, False, lambda g: max(e.peak_rss_mb for e in g)),
        "probe_s": [e.probe_s for e in exps if not e.traced and e.failure is None],
    }


def end_to_end_metrics(exps: list[Experiment]) -> dict[str, float]:
    times = rescaled_times(exps, False)
    return {
        "setup_s": times["setup_s"],
        "run_s": times["run_s"],
        "peak_rss_mb": median_of(end_to_end_samples(exps)["peak_rss_mb"]),
    }


def per_layer_metrics(exps: list[Experiment]) -> dict[str, float]:
    def traced_median(value: Callable[[list[Experiment]], float]) -> float:
        return median_of(round_values(exps, True, value))

    def total(layer: str, key: str) -> Callable[[list[Experiment]], float]:
        return lambda group: sum(e.layers[layer][key] for e in group)

    out = {f"{layer}.self_s": traced_median(total(layer, "self_s")) for layer in LAYERS}
    out["rng.derive_rng.calls"] = traced_median(total("rng.derive_rng", "calls"))
    out[f"{LABEL_LAYER}.calls"] = traced_median(total(LABEL_LAYER, "calls"))
    sites, busy = total(LABEL_LAYER, "work"), total(LABEL_LAYER, "self_s")
    out[f"{LABEL_LAYER}.sites_per_s"] = traced_median(lambda group: sites(group) / busy(group))
    out["bench.trace_overhead_s"] = rescaled_times(exps, True)["run_s"] - rescaled_times(exps, False)["run_s"]
    return out


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SOURCE / "dcl").rglob("*.py")):
        h.update(path.relative_to(SOURCE).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() or None


def machine_facts() -> dict:
    import numpy
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SOURCE / "dcl" / "cli.py").is_file():
        print(f"perfbench: no dcl sources under {SOURCE}; run from a checkout of the repository", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SOURCE), env.get("PYTHONPATH")]))
    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        # Untimed: compiles bytecode and warms the file cache, which users
        # pay once per install rather than once per experiment.
        subprocess.run([sys.executable, "-c", "import dcl.cli"], cwd=ROOT, env=env, check=True, timeout=60)
        runner = Runner(workdir, env)
        outcome = run_workload(workload, args.seed, args.seconds, bool(args.trace), runner)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    exps = outcome.experiments
    failures = [f"{e.label} round {e.round}: {e.failure}" for e in exps if e.failure]
    verdicts: dict[str, int] = {}
    for exp in exps:
        for test in (exp.report or {}).get("tests", []):
            if test["decision"] != "pass":
                verdicts[test["context"]] = verdicts.get(test["context"], 0) + 1
    warnings = sorted({line for e in exps for line in e.stderr.splitlines() if line.strip()})

    if args.trace:
        metrics, units = per_layer_metrics(exps), PER_LAYER
    else:
        metrics, units = end_to_end_metrics(exps), END_TO_END
    record = {
        "workload": args.workload,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "machine": machine_facts(),
        "argv": {e.label: e.argv for e in exps if e.round == 0 and not e.traced},
        "attempted": len(exps),
        "failed": len(failures),
        "failures": failures,
        "check_failures": outcome.reasons,
        "statistical_verdicts_failed": verdicts,
        "warnings": warnings,
        "slowdown": rescaled_times(exps, False)["slowdown"],
        "summary": {
            name: {"n": len(v), "best": min(v), "median": statistics.median(v), "worst": max(v)}
            for name, v in end_to_end_samples(exps).items()
            if v
        },
        "samples": [
            {k: getattr(e, k) for k in ("label", "round", "traced", "status", "setup_s", "run_s", "peak_rss_mb", "probe_s")}
            for e in exps
        ],
    }
    print(json.dumps(record, indent=1))
    unmeasured = sorted(name for name, value in metrics.items() if not math.isfinite(value))
    if unmeasured:
        print(f"perfbench: no completed round measured {', '.join(unmeasured)}", file=sys.stderr)
        return 1
    result = {
        "correct": not outcome.reasons,
        "attempted": len(exps),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
