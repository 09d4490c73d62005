"""Experiment harnesses tying configurations, colorings, and limit laws together.

Each run_* function executes one experiment design end to end: it samples
what the design calls for, computes the observable, builds the predicted
limit law from estimated functionals, and attaches test reports. Results
are bit-identical for a fixed config regardless of worker count because
every replicate draws from its own derived stream.

Four shared rules live in one function each: _box (near-critical warning,
largest box, window margin), _within (pass iff value <= bound; NaN fails),
theory.centered_gaussian (zero variance is a point mass, never N(0, 0)) and
percolation.stand_in_volume (the whole-box theta_box and sigma_p2).

ExperimentConfig holds only what a caller sets and a run reads; RUN_READS
says which run reads what, for each report's config and for _refuse_unread,
which the CLI calls at parse time too. Decision bands are module constants,
printed in each check's context; every KS check runs at stats.DEFAULT_LEVEL.
"""

from __future__ import annotations

import functools
import math
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Callable, Sequence

import numpy as np

from .coloring import ColorMeasure, centered_sums, color_clusters, parse_color_measure
from .lattice import BoxLattice, build_box, inner_window
from .percolation import (
    PROXY_BOUNDARY_LARGEST,
    PROXY_DISABLED,
    PROXY_RULES,
    ClusterLabeling,
    LabelingStack,
    PercolationEstimates,
    default_window_margin,
    label_clusters,
    labeling_functionals,
    map_labelings,
    map_ordered,
    pool_functionals,
    sample_config,
    square_sum_density,
    stand_in_volume,
    warn_if_near_critical,
)
from .rng import check_seed, derive_rng, derive_streams, stream_log
from .stats import (
    TestReport,
    exact_check_report,
    ks_one_sample,
    ks_one_sample_gaussian,
    summarize,
    tv_distance_discrete,
)
from .theory import (
    REGIME_SUPERCRITICAL,
    REGIMES,
    GaussianLaw,
    LimitLaw,
    PointMass,
    centered_gaussian,
    gamma_law,
    lln_limit_law,
)

# Colorings per derive_streams call, and per task on the worker pool, in
# the quenched-clt coloring loop.
_COLOR_CHUNK = 256
# Draws per block of that loop: a chunk is drawn in blocks of
# max(1, _COLOR_BLOCK_VALUES // read ids) colorings, small enough to stay in
# cache (coloring.centered_sums). An atomic law's sums come from exact
# integer counts, so they do not depend on a coloring's place in its block.
# A Gaussian block takes one matrix-vector product, whose BLAS summation
# order may; blocks start at multiples of the row count within a chunk, so
# that place never depends on the worker count.
_COLOR_BLOCK_VALUES = 2**15

# Exact identities are allowed this much accumulated float rounding.
_EXACT_TOL = 1e-9

# Fixed decision bands; each check prints its band in its context.
_TV_TOLERANCE = 0.1
_ATOM_TOLERANCE = 0.02
_VARIANCE_RTOL = 0.05
_VARIANCE_RTOL_ASYMPTOTIC = 0.15


class RegimeMismatchError(RuntimeError):
    """The declared regime contradicts what the sampled configurations show."""


# What each run that takes an ExperimentConfig reads of it, by experiment
# name, besides d, p, graph_replicates, master_seed, proxy_rule, workers and
# its largest radius. Its report's config echoes what it reads but workers,
# and _refuse_unread refuses the rest away from their defaults. A run that
# lists radii reads every radius.
RUN_READS = {
    "estimate": ("margin",),
    "quenched-lln": ("nu", "margin", "radii"),
    "annealed-lln": ("nu", "margin"),
    "quenched-clt": ("nu", "margin", "color_replicates"),
    "annealed-clt": ("nu", "margin", "regime"),
    "cluster-clt": ("ratio_rtol", "radii"),
    "weighted-lln": ("nu", "margin", "ratio_rtol"),
}


@dataclass
class ExperimentConfig:
    """Resolved description of one experiment; RUN_READS says which run reads what.

    The quenched law-of-large-numbers run reads radii as nested observation
    windows inside the largest box, the cluster fluctuation run as separate
    box sizes. Only the quenched fluctuation run reads color_replicates;
    every other run draws one coloring per graph. Runs that color nothing
    leave nu None.
    """

    d: int
    radii: Sequence[int]
    p: float
    nu: ColorMeasure | None = None
    graph_replicates: int = 1
    color_replicates: int = 1
    master_seed: int = 0
    margin: int | None = None
    proxy_rule: str = PROXY_BOUNDARY_LARGEST
    regime: str | None = None
    workers: int = 1
    ratio_rtol: float = 0.15

    def __post_init__(self) -> None:
        if isinstance(self.radii, int):
            self.radii = (self.radii,)
        radii = tuple(int(r) for r in self.radii)
        if not radii or any(r < 1 for r in radii):
            raise ValueError(f"radii must be positive integers, got {self.radii!r}")
        if list(radii) != sorted(set(radii)):
            raise ValueError(f"radii must be strictly increasing, got {self.radii!r}")
        self.radii = radii
        if isinstance(self.nu, str):
            self.nu = parse_color_measure(self.nu)
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {self.p}")
        if self.graph_replicates < 1 or self.color_replicates < 1:
            raise ValueError("replicate counts must be >= 1")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.proxy_rule not in PROXY_RULES:
            raise ValueError(f"proxy rule must be one of {PROXY_RULES}, got {self.proxy_rule!r}")
        if self.regime is not None and self.regime not in REGIMES:
            raise ValueError(f"regime must be one of {REGIMES}, got {self.regime!r}")
        if self.margin is not None:
            if self.margin < 0:
                raise ValueError(f"margin must be >= 0, got {self.margin}")
            if self.margin > min(self.radii):
                raise ValueError(
                    f"margin {self.margin} exceeds the smallest radius {min(self.radii)}"
                )
        check_seed(self.master_seed)

    @property
    def n_max(self) -> int:
        return max(self.radii)

    def margin_for(self, lattice: BoxLattice) -> int:
        if self.margin is not None:
            return min(self.margin, lattice.n)
        return default_window_margin(lattice)

    def to_dict(self, experiment: str) -> dict:
        """The report's config: the experiment name and the fields that run reads but workers."""
        names = ("d", "p", "graph_replicates", "master_seed", "proxy_rule", *RUN_READS[experiment])
        out = {name: getattr(self, name) for name in names}
        out.update(experiment=experiment, radii=list(self.radii))
        if out.get("nu") is not None:
            out["nu"] = self.nu.to_dict()
        return out


@dataclass
class RunResult:
    """Everything one run produced; the recorded wrapper fills in seeds and timing."""

    experiment: str
    estimates: dict
    seeds: dict = field(default_factory=dict)
    predictions: dict[str, LimitLaw] = field(default_factory=dict)
    tests: list[TestReport] = field(default_factory=list)
    timing: dict = field(default_factory=dict)
    samples: dict[str, list[float]] = field(default_factory=dict)

    def passed(self) -> bool:
        return all(t.passed for t in self.tests)


def recorded(run: Callable[..., RunResult]) -> Callable[..., RunResult]:
    """Wrap a run so that its result records the wall time it took and the streams it drew.

    seeds lists each role rng.stream_log counted, in first-derivation order,
    under the run's one master seed; none, or several, raises.
    """

    @functools.wraps(run)
    def recorded_run(*args, **kwargs) -> RunResult:
        t0 = time.perf_counter()
        with stream_log() as log:
            result = run(*args, **kwargs)
        result.timing = {"wall_seconds": time.perf_counter() - t0}
        master_seeds = list(dict.fromkeys(seed for seed, _ in log))
        if len(master_seeds) != 1:
            raise RuntimeError(
                f"{run.__name__} must derive its streams from one master seed, saw {master_seeds}"
            )
        result.seeds = {
            "master_seed": master_seeds[0],
            "streams": [{"role": role, "count": count} for (_, role), count in log.items()],
        }
        return result

    return recorded_run


def _refuse_unread(config: ExperimentConfig, experiment: str) -> None:
    """Refuse settings the run named experiment does not read or cannot use, before it samples."""
    reads = RUN_READS[experiment]
    for name, default in (("color_replicates", 1), ("regime", None)):
        value = getattr(config, name)
        if name not in reads and value != default:
            raise ValueError(f"this run reads no {name}, got {value!r}")
    if "regime" in reads and config.regime is None:
        raise ValueError(f"{experiment} needs an explicit regime")
    if len(config.radii) > 1 and "radii" not in reads:
        raise ValueError(f"{experiment} runs one box: give one radius, got {list(config.radii)}")
    if config.regime == REGIME_SUPERCRITICAL and config.proxy_rule == PROXY_DISABLED:
        raise ValueError(f"supercritical needs a stand-in spanning the box; proxy rule {PROXY_DISABLED!r} picks none")


def _box(config: ExperimentConfig, experiment: str) -> tuple[BoxLattice, int]:
    """The largest box and its margin, for a run that colors clusters: nu is required."""
    if config.nu is None:
        raise ValueError("this run colors clusters: give a color measure nu")
    _refuse_unread(config, experiment)
    warn_if_near_critical(config.d, config.p)
    lattice = build_box(config.d, config.n_max)
    return lattice, config.margin_for(lattice)


def _within(value: float, bound: float, context: str) -> TestReport:
    """Deterministic check that value <= bound; a NaN value fails."""
    return exact_check_report(value <= bound, value, context)


def _quenched_graph(
    config: ExperimentConfig, lattice: BoxLattice, margin: int
) -> tuple[ClusterLabeling, PercolationEstimates]:
    """The one graph of a quenched run, plus functionals from separate graphs."""
    labeling = label_clusters(
        sample_config(lattice, config.p, config.master_seed, "graph:0"), config.proxy_rule
    )
    columns = map_labelings(
        lattice,
        config.p,
        config.master_seed,
        "estimate-graph",
        config.graph_replicates,
        lambda start, stack: labeling_functionals(stack, margin),
        proxy_rule=config.proxy_rule,
        workers=config.workers,
    )
    return labeling, pool_functionals(columns, lattice, margin, config.proxy_rule)


def _colored_replicates(
    config: ExperimentConfig, lattice: BoxLattice, margin: int
) -> tuple[dict[str, np.ndarray], PercolationEstimates]:
    """Independent (graph:i, color:i) pairs as columns, plus pooled functionals.

    Besides the labeling_functionals columns, each copy has its full-box
    color sum, the stand-in color z (0 without one), the color sum and the
    exact square sum of its finite cluster sizes, and whether its stand-in
    spans the box: holds a site on both faces orthogonal to the first axis.
    """
    seed = config.master_seed

    def observe(start: int, stack: LabelingStack) -> dict:
        color_sum, finite_color_sum, z = np.empty((3, stack.copies))
        for c, rng in enumerate(derive_streams(seed, "color", start, stack.copies)):
            labeling = stack.view(c)
            field_ = color_clusters(labeling, config.nu, rng)
            color_sum[c] = np.dot(labeling.cluster_sizes, field_.cluster_color)
            finite_color_sum[c] = np.dot(labeling.finite_sizes(), field_.cluster_color)
            z[c] = field_.z
        faces = stack.stack_id.reshape(stack.copies, lattice.side, -1)
        proxy = stack.proxy[:, None]
        return {
            **labeling_functionals(stack, margin),
            "color_sum": color_sum,
            "finite_color_sum": finite_color_sum,
            "z": z,
            "finite_square_sum": np.add.reduceat(stack.cluster_sizes**2, stack.first)
            - stack.proxy_sites**2,
            "spans": (faces[:, 0] == proxy).any(axis=1) & (faces[:, -1] == proxy).any(axis=1),
        }

    columns = map_labelings(
        lattice,
        config.p,
        seed,
        "graph",
        config.graph_replicates,
        observe,
        proxy_rule=config.proxy_rule,
        workers=config.workers,
    )
    return columns, pool_functionals(columns, lattice, margin, config.proxy_rule)


@recorded
def run_quenched_lln(config: ExperimentConfig) -> RunResult:
    """One graph, one coloring: color averages over nested windows.

    Checks the exact finite-volume decomposition of the full-box color sum
    into finite-cluster contributions plus the stand-in cluster term, and
    reports the terminal deviation of the average from its predicted limit.
    """
    lattice, margin = _box(config, "quenched-lln")
    labeling, est = _quenched_graph(config, lattice, margin)
    field_ = color_clusters(labeling, config.nu, derive_rng(config.master_seed, "color:0"))

    trajectory = []
    for radius in config.radii:
        window = inner_window(lattice, lattice.n - radius)
        trajectory.append(float(field_.values(window).mean()))

    m = config.nu.mean
    z = field_.z
    target = (1.0 - est.theta_hat) * m + est.theta_hat * z
    m_n = trajectory[-1]
    deviation = abs(m_n - target)

    # Exact decomposition: the site-by-site sum must match the per-cluster
    # weighted sum plus the stand-in cluster contribution.
    all_sites = np.arange(lattice.site_count, dtype=np.int64)
    lhs = float(field_.values(all_sites).sum())
    rhs = float(np.dot(labeling.finite_sizes(), field_.cluster_color)) + z * labeling.proxy_site_count()
    decomposition_err = abs(lhs - rhs)
    tests = [
        _within(
            decomposition_err,
            _EXACT_TOL * max(1.0, abs(lhs)),
            "quenched-lln: exact decomposition of the full-box color sum",
        )
    ]

    return RunResult(
        experiment="quenched-lln",
        estimates={
            "percolation": asdict(est),
            "m_n": m_n,
            "z": z,
            "predicted_limit": target,
            "deviation": deviation,
            "decomposition_error": decomposition_err,
        },
        predictions={"lln-limit": PointMass(value=target)},
        tests=tests,
        samples={
            "window_radius": [float(r) for r in config.radii],
            "m_k": [float(v) for v in trajectory],
        },
    )


def _atom_bin_tolerance(law: LimitLaw, sample_sd: float) -> float:
    """Binning half-width for comparing noisy averages against law atoms.

    Multi-atom laws use just under half the smallest atom gap so nearest-atom
    assignment is unambiguous; a single atom uses the larger of the location
    tolerance and a few sample standard deviations, so finite-volume noise
    around the atom still bins onto it.
    """
    pairs = law.atoms()
    values = sorted(v for v, _ in pairs)
    if len(values) < 2:
        return max(_ATOM_TOLERANCE, 5.0 * sample_sd)
    min_gap = min(b - a for a, b in zip(values, values[1:]))
    return 0.4999 * min_gap


@recorded
def run_annealed_lln(config: ExperimentConfig) -> RunResult:
    """Independent (graph, coloring) pairs: the law of the color average.

    The empirical law of the full-box average is compared against the
    predicted limit built from the pooled occupied-volume fraction: by total
    variation for atomic predictions, otherwise by one-sample KS against the
    Gaussian limit's exact CDF.
    """
    lattice, margin = _box(config, "annealed-lln")
    columns, est = _colored_replicates(config, lattice, margin)
    m_samples = columns["color_sum"] / lattice.site_count
    theta_box, _ = stand_in_volume(columns["proxy_sites"], lattice.site_count)

    prediction = lln_limit_law(config.nu, theta_box)
    tests: list[TestReport] = []
    estimates: dict = {
        "percolation": asdict(est),
        "theta_pooled_box": theta_box,
        "statistic_summary": summarize(m_samples).to_dict(),
    }

    if prediction.atoms() is not None:
        sample_sd = float(m_samples.std(ddof=1)) if m_samples.shape[0] >= 2 else 0.0
        tol = _atom_bin_tolerance(prediction, sample_sd)
        tv = tv_distance_discrete(Counter(m_samples.tolist()), prediction, tol=tol)
        tests.append(
            _within(
                tv,
                _TV_TOLERANCE,
                f"annealed-lln: TV distance to lln-limit atoms vs tolerance {_TV_TOLERANCE}",
            )
        )
        locations = {}
        for atom in (float(v) for v, _ in prediction.atoms()):
            near = m_samples[np.abs(m_samples - atom) <= tol]
            if near.shape[0] > 0:
                locations[atom] = float(near.mean())
        max_dev = max((abs(loc - atom) for atom, loc in locations.items()), default=float("nan"))
        estimates["atom_locations"] = locations
        tests.append(
            _within(
                max_dev,
                _ATOM_TOLERANCE,
                f"annealed-lln: empirical atom location error vs tolerance {_ATOM_TOLERANCE}",
            )
        )
    else:
        tests.append(
            ks_one_sample_gaussian(
                m_samples,
                prediction.mean,
                prediction.variance,
                context="annealed-lln: KS of color averages against the lln-limit Gaussian",
            )
        )

    return RunResult(
        experiment="annealed-lln",
        estimates=estimates,
        predictions={"lln-limit": prediction},
        tests=tests,
        samples={"m_n": [float(v) for v in m_samples]},
    )


@recorded
def run_quenched_clt(config: ExperimentConfig) -> RunResult:
    """One graph, many colorings: fluctuations of the windowed finite-part sum.

    The statistic is the window sum of (color - m) over sites outside the
    stand-in cluster, scaled by the square root of the window size. For a
    fixed graph its variance is exactly sigma2 times the windowed square-sum
    density, which is the sharp check; the mean-cluster-size form is the
    asymptotic check.
    """
    lattice, margin = _box(config, "quenched-clt")
    sigma2 = config.nu.variance

    labeling, est = _quenched_graph(config, lattice, margin)
    window = inner_window(lattice, margin)
    labels_w = labeling.cluster_id[window]
    piece = np.bincount(labels_w, minlength=labeling.k_n).astype(np.float64)
    if labeling.infinite_proxy is not None:
        piece[labeling.infinite_proxy] = 0.0
    scale = math.sqrt(window.shape[0])

    # The statistic reads only ids lo..hi-1, the span of the clusters with a
    # piece; at p=1 the stand-in covers the window and the span is empty.
    read = np.flatnonzero(piece)
    lo, hi = (int(read[0]), int(read[-1]) + 1) if read.size else (0, 0)
    weights = piece[lo:hi]
    rows = max(1, _COLOR_BLOCK_VALUES // max(hi - lo, 1))
    starts = range(0, config.color_replicates, _COLOR_CHUNK)

    def chunk(k: int) -> np.ndarray:
        count = min(_COLOR_CHUNK, config.color_replicates - starts[k])
        streams = derive_streams(config.master_seed, "color", starts[k], count)
        return centered_sums(config.nu, streams, lo, weights, rows, np.empty(count)) / scale

    stats = np.concatenate(map_ordered(chunk, len(starts), config.workers))

    ssd = square_sum_density(labeling, margin)
    variance_exact = sigma2 * ssd
    variance_asymptotic = est.chi_f_hat * sigma2
    summary = summarize(stats)

    prediction = centered_gaussian(variance_exact)
    tests: list[TestReport] = []
    if isinstance(prediction, PointMass):
        tests.append(
            _within(
                float(np.abs(stats).max(initial=0.0)),
                0.0,
                "quenched-clt: degenerate target requires identically zero statistics",
            )
        )
    else:
        tests.append(
            _within(
                abs(summary.variance - variance_exact) / variance_exact,
                _VARIANCE_RTOL,
                f"quenched-clt: sample variance vs exact target, rtol {_VARIANCE_RTOL}",
            )
        )
        if variance_asymptotic > 0.0:
            tests.append(
                _within(
                    abs(summary.variance - variance_asymptotic) / variance_asymptotic,
                    _VARIANCE_RTOL_ASYMPTOTIC,
                    "quenched-clt: sample variance vs mean-cluster-size target, "
                    f"rtol {_VARIANCE_RTOL_ASYMPTOTIC}",
                )
            )
        tests.append(
            ks_one_sample_gaussian(
                stats,
                0.0,
                variance_exact,
                context="quenched-clt: KS against the exact-variance Gaussian",
            )
        )
        tests.append(
            _within(
                abs(summary.mean),
                4.0 * summary.se_mean,
                "quenched-clt: statistic mean within 4 standard errors of 0",
            )
        )

    return RunResult(
        experiment="quenched-clt",
        estimates={
            "percolation": asdict(est),
            "variance_exact_target": variance_exact,
            "variance_asymptotic_target": variance_asymptotic,
            "square_sum_density_graph": ssd,
            "statistic_summary": summary.to_dict(),
        },
        predictions={"quenched-clt": prediction},
        tests=tests,
        samples={"statistic": [float(v) for v in stats]},
    )


@recorded
def run_annealed_clt(config: ExperimentConfig) -> RunResult:
    """Independent pairs: fluctuations of the centered full-box color sum.

    Q subtracts the pooled-density centering, so its law is compared against
    gamma from the declared regime by one-sample KS against gamma's exact
    CDF; a point-mass gamma requires Q to be identically zero.
    """
    lattice, margin = _box(config, "annealed-clt")
    reps = config.graph_replicates
    m = config.nu.mean
    sigma2 = config.nu.variance
    n_sites = lattice.site_count

    columns, est = _colored_replicates(config, lattice, margin)

    # A supercritical box is spanned by its stand-in in most replicates, a
    # subcritical one in few.
    spanning = int(np.count_nonzero(columns["spans"]))
    if (spanning > reps / 2) != (config.regime == REGIME_SUPERCRITICAL):
        raise RegimeMismatchError(
            f"{config.regime} declared but {spanning}/{reps} replicates have a "
            "stand-in cluster spanning the box"
        )

    theta_box, sigma_p2_batch = stand_in_volume(columns["proxy_sites"], n_sites)

    # Centering written as m + theta (z - m): algebraically the same as
    # (1-theta) m + theta z, but exactly zero under a point-mass measure.
    z = columns["z"]
    q = (columns["color_sum"] - (m + theta_box * (z - m)) * n_sites) / math.sqrt(n_sites)

    closed = gamma_law(config.regime, est.chi_f_hat, sigma2, sigma_p2_batch, config.nu)
    summary = summarize(q)

    tests: list[TestReport] = []
    if isinstance(closed, PointMass):
        tests.append(
            _within(
                float(np.abs(q).max(initial=0.0)),
                _EXACT_TOL,
                "annealed-clt: degenerate gamma requires identically zero statistics",
            )
        )
    elif isinstance(closed, GaussianLaw):
        tests.append(
            ks_one_sample_gaussian(
                q,
                closed.mean,
                closed.variance,
                context="annealed-clt: KS against the closed-form Gaussian gamma",
            )
        )
    else:
        tests.append(
            ks_one_sample(
                q,
                closed.cdf,
                context="annealed-clt: KS against the closed-form Gaussian mixture gamma",
            )
        )

    return RunResult(
        experiment="annealed-clt",
        estimates={
            "percolation": asdict(est),
            "theta_pooled_box": theta_box,
            "sigma_p2_batch": sigma_p2_batch,
            "statistic_summary": summary.to_dict(),
        },
        predictions={"gamma": closed},
        tests=tests,
        samples={"q_n": [float(v) for v in q]},
    )


@recorded
def run_cluster_clt(config: ExperimentConfig) -> RunResult:
    """Fluctuations of the stand-in cluster volume across box sizes.

    Each radius gets its own batch; centering uses that batch's pooled
    density, which makes the statistic average zero by construction. The
    Gaussian reference variance comes from the largest radius.
    """
    _refuse_unread(config, "cluster-clt")
    warn_if_near_critical(config.d, config.p)
    per_radius: dict[int, dict] = {}
    stats_by_radius: dict[int, np.ndarray] = {}
    for radius in config.radii:
        lattice = build_box(config.d, radius)
        n_sites = lattice.site_count
        counts = map_labelings(
            lattice,
            config.p,
            config.master_seed,
            f"graph:{radius}",
            config.graph_replicates,
            lambda start, stack: {"proxy_sites": stack.proxy_sites},
            proxy_rule=config.proxy_rule,
            workers=config.workers,
        )["proxy_sites"].astype(np.float64)
        theta_box, sigma_p2 = stand_in_volume(counts, n_sites)
        statistic = (counts - counts.mean()) / math.sqrt(n_sites)
        per_radius[radius] = {"theta_box": theta_box, "sigma_p2": sigma_p2}
        stats_by_radius[radius] = statistic

    ref_radius = config.radii[-1]
    sigma_p2_ref = per_radius[ref_radius]["sigma_p2"]
    prediction = centered_gaussian(sigma_p2_ref)
    tests: list[TestReport] = []
    if isinstance(prediction, PointMass):
        tests.append(
            _within(
                float(np.abs(np.concatenate(list(stats_by_radius.values()))).max(initial=0.0)),
                0.0,
                "cluster-clt: degenerate volume fluctuations are identically zero",
            )
        )
    else:
        for radius in config.radii:
            stats_r = stats_by_radius[radius]
            tests.append(
                _within(
                    abs(float(stats_r.mean())),
                    _EXACT_TOL,
                    f"cluster-clt[n={radius}]: pooled centering gives exactly zero mean",
                )
            )
            tests.append(
                ks_one_sample_gaussian(
                    stats_r,
                    0.0,
                    sigma_p2_ref,
                    context=f"cluster-clt[n={radius}]: KS against N(0, sigma_p2 at n={ref_radius})",
                )
            )
        for lo, hi in zip(config.radii, config.radii[1:]):
            a, b = per_radius[lo]["sigma_p2"], per_radius[hi]["sigma_p2"]
            drift = abs(a - b) / max(abs(a), abs(b))
            tests.append(
                _within(
                    drift,
                    config.ratio_rtol,
                    f"cluster-clt: sigma_p2 stability between n={lo} and "
                    f"n={hi} within {config.ratio_rtol:g} (prediction cluster-clt)",
                )
            )

    return RunResult(
        experiment="cluster-clt",
        estimates={
            "per_radius": {str(r): per_radius[r] for r in config.radii},
            "sigma_p2_reference": sigma_p2_ref,
            "reference_radius": ref_radius,
        },
        predictions={"cluster-clt": prediction},
        tests=tests,
        samples={f"statistic_n{r}": s.tolist() for r, s in stats_by_radius.items()},
    )


@recorded
def run_weighted_lln_check(config: ExperimentConfig) -> RunResult:
    """Cluster-size-weighted color averages and their variance condition.

    The weighted average of finite-cluster colors should approach m, and the
    summability condition ratio (sum of squared weights times cluster count
    over squared weight sum) should approach chi_f kappa / (1 - theta)^2.
    Replicates whose configuration has no finite cluster are skipped with a
    diagnostic instead of dividing by zero.
    """
    lattice, margin = _box(config, "weighted-lln")
    m = config.nu.mean
    sigma2 = config.nu.variance

    columns, est = _colored_replicates(config, lattice, margin)
    # The weights are the finite cluster sizes; replicates without any are skipped.
    active = lattice.site_count - columns["proxy_sites"] > 0
    count = int(np.count_nonzero(active))
    skipped = config.graph_replicates - count
    weight_sum = lattice.site_count - columns["proxy_sites"][active]
    square_sum = columns["finite_square_sum"][active].astype(np.float64)
    tests: list[TestReport] = []
    estimates: dict = {"percolation": asdict(est), "skipped_replicates": skipped}
    predictions: dict[str, LimitLaw] = {"weighted-average-limit": PointMass(value=m)}
    samples: dict[str, list[float]] = {}

    if count == 0:
        tests.append(
            exact_check_report(
                True,
                float(skipped),
                "weighted-lln: every configuration merged into the stand-in cluster; "
                "check skipped",
            )
        )
    else:
        averages = columns["finite_color_sum"][active] / weight_sum
        ratios = square_sum * columns["k_n"][active] / weight_sum**2
        ratio_mean = float(ratios.mean())
        denom = (1.0 - est.theta_hat) ** 2
        predicted_ratio = est.chi_f_hat * est.kappa_hat / denom if denom > 0.0 else float("inf")
        estimates["condition_ratio_mean"] = ratio_mean
        estimates["condition_ratio_predicted"] = predicted_ratio
        estimates["weighted_average_summary"] = summarize(averages).to_dict()
        samples["weighted_average"] = [float(v) for v in averages]
        samples["condition_ratio"] = [float(v) for v in ratios]

        if math.isfinite(predicted_ratio) and predicted_ratio > 0.0:
            tests.append(
                _within(
                    abs(ratio_mean - predicted_ratio) / predicted_ratio,
                    config.ratio_rtol,
                    f"weighted-lln: condition ratio vs chi_f kappa / (1-theta)^2, "
                    f"rtol {config.ratio_rtol}",
                )
            )
        if count >= 2:
            se = float(averages.std(ddof=1)) / math.sqrt(count)
        else:
            # Single graph: the conditional standard error of the weighted
            # average is sqrt(sigma2 sum w^2) / sum w.
            se = math.sqrt(sigma2 * square_sum[0]) / float(weight_sum[0])
        tests.append(
            _within(
                abs(float(averages.mean()) - m),
                3.0 * se,
                "weighted-lln: weighted color average within 3 standard errors of m",
            )
        )

    return RunResult(
        experiment="weighted-lln",
        estimates=estimates,
        predictions=predictions,
        tests=tests,
        samples=samples,
    )
