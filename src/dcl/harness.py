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

ExperimentConfig holds only what a caller sets and a run reads. The
decision bands are module constants, printed in each check's context, and
every KS check runs at stats.DEFAULT_LEVEL.
"""

from __future__ import annotations

import functools
import math
import time
from collections import Counter
from dataclasses import asdict, dataclass, field, fields
from typing import Callable, Sequence

import numpy as np

from .coloring import ColorMeasure, color_clusters, parse_color_measure
from .lattice import BoxLattice, build_box, inner_window
from .percolation import (
    PROXY_BOUNDARY_LARGEST,
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
from .rng import check_seed, derive_rng, derive_streams
from .stats import (
    TestReport,
    exact_check_report,
    ks_one_sample,
    ks_one_sample_gaussian,
    ks_two_sample,
    summarize,
    tv_distance_discrete,
)
from .theory import (
    REGIME_SUPERCRITICAL,
    REGIMES,
    GaussianLaw,
    GaussianMixture,
    LimitLaw,
    PointMass,
    centered_gaussian,
    gamma_law,
    gamma_sampler,
    lln_limit_law,
)

# Colorings per derive_streams call, and per task on the worker pool, in
# the quenched-clt coloring loop.
_COLOR_CHUNK = 256

# Exact identities are allowed this much accumulated float rounding.
_EXACT_TOL = 1e-9

# Fixed decision bands; each check prints its band in its context.
_TV_TOLERANCE = 0.1
_ATOM_TOLERANCE = 0.02
_VARIANCE_RTOL = 0.05
_VARIANCE_RTOL_ASYMPTOTIC = 0.15
# gamma-sampler draws the annealed-clt statistic is compared against.
_REFERENCE_DRAWS = 100_000


class RegimeMismatchError(RuntimeError):
    """The declared regime contradicts what the sampled configurations show."""


@dataclass
class ExperimentConfig:
    """Resolved description of one experiment.

    radii may hold several box radii: the quenched law-of-large-numbers run
    reads them as nested observation windows inside the largest box, the
    cluster fluctuation run as separate box sizes, and every other run uses
    the largest one. Only the quenched fluctuation run reads color_replicates;
    every other run draws one coloring per graph. Only the annealed
    fluctuation run reads regime.
    """

    d: int
    radii: Sequence[int]
    p: float
    nu: ColorMeasure
    graph_replicates: int = 1
    color_replicates: int = 1
    master_seed: int = 0
    margin: int | None = None
    proxy_rule: str = PROXY_BOUNDARY_LARGEST
    regime: str | None = None
    workers: int = 1
    lln_tolerance: float | None = None
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

    def to_dict(self) -> dict:
        # The worker count is deliberately left out: reports must not depend
        # on how the run was scheduled.
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "workers"}
        out["radii"] = list(self.radii)
        out["nu"] = self.nu.to_dict()
        return out


@dataclass
class RunResult:
    """Everything one run produced; config is None when no ExperimentConfig describes the run."""

    experiment: str
    config: ExperimentConfig | None
    estimates: dict
    seeds: dict
    predictions: dict[str, LimitLaw] = field(default_factory=dict)
    tests: list[TestReport] = field(default_factory=list)
    timing: dict = field(default_factory=dict)
    samples: dict[str, list[float]] = field(default_factory=dict)

    def passed(self) -> bool:
        return all(t.passed for t in self.tests)


def timed(run: Callable[..., RunResult]) -> Callable[..., RunResult]:
    """Wrap a run so that its result records the wall time the run took."""

    @functools.wraps(run)
    def timed_run(*args, **kwargs) -> RunResult:
        t0 = time.perf_counter()
        result = run(*args, **kwargs)
        result.timing = {"wall_seconds": time.perf_counter() - t0}
        return result

    return timed_run


def seed_audit(master_seed: int, streams: list[tuple[str, int]]) -> dict:
    """The seeds block of a report: each stream role drawn and how often."""
    return {
        "master_seed": master_seed,
        "streams": [{"role": role, "count": count} for role, count in streams],
    }


def _box(config: ExperimentConfig) -> tuple[BoxLattice, int]:
    """Warn near the critical point, then build the largest box and take its margin."""
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


@timed
def run_quenched_lln(config: ExperimentConfig) -> RunResult:
    """One graph, one coloring: color averages over nested windows.

    Checks the exact finite-volume decomposition of the full-box color sum
    into finite-cluster contributions plus the stand-in cluster term, and
    reports the terminal deviation of the average from its predicted limit.
    """
    lattice, margin = _box(config)
    seed = config.master_seed

    labeling, est = _quenched_graph(config, lattice, margin)
    field_ = color_clusters(labeling, config.nu, derive_rng(seed, "color:0"))

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
    if config.lln_tolerance is not None:
        tests.append(
            _within(
                deviation,
                config.lln_tolerance,
                f"quenched-lln: terminal deviation vs tolerance {config.lln_tolerance}",
            )
        )

    return RunResult(
        experiment="quenched-lln",
        config=config,
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
        seeds=seed_audit(
            seed,
            [("graph", 1), ("color", 1), ("estimate-graph", config.graph_replicates)],
        ),
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


@timed
def run_annealed_lln(config: ExperimentConfig) -> RunResult:
    """Independent (graph, coloring) pairs: the law of the color average.

    The empirical law of the full-box average is compared against the
    predicted limit built from the pooled occupied-volume fraction: by total
    variation for atomic predictions, otherwise by one-sample KS against the
    Gaussian limit's exact CDF.
    """
    lattice, margin = _box(config)
    seed = config.master_seed
    reps = config.graph_replicates

    columns, est = _colored_replicates(config, lattice, margin)
    m_samples = columns["color_sum"] / lattice.site_count
    theta_box, _ = stand_in_volume(columns["proxy_sites"], lattice.site_count)

    prediction = lln_limit_law(config.nu, theta_box)
    tests: list[TestReport] = []
    streams = [("graph", reps), ("color", reps)]
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
        config=config,
        estimates=estimates,
        predictions={"lln-limit": prediction},
        tests=tests,
        seeds=seed_audit(seed, streams),
        samples={"m_n": [float(v) for v in m_samples]},
    )


@timed
def run_quenched_clt(config: ExperimentConfig) -> RunResult:
    """One graph, many colorings: fluctuations of the windowed finite-part sum.

    The statistic is the window sum of (color - m) over sites outside the
    stand-in cluster, scaled by the square root of the window size. For a
    fixed graph its variance is exactly sigma2 times the windowed square-sum
    density, which is the sharp check; the mean-cluster-size form is the
    asymptotic check.
    """
    lattice, margin = _box(config)
    seed = config.master_seed
    m = config.nu.mean
    sigma2 = config.nu.variance

    labeling, est = _quenched_graph(config, lattice, margin)
    window = inner_window(lattice, margin)
    labels_w = labeling.cluster_id[window]
    piece = np.bincount(labels_w, minlength=labeling.k_n).astype(np.float64)
    if labeling.infinite_proxy is not None:
        piece[labeling.infinite_proxy] = 0.0
    scale = math.sqrt(window.shape[0])

    starts = range(0, config.color_replicates, _COLOR_CHUNK)

    def chunk(k: int) -> np.ndarray:
        count = min(_COLOR_CHUNK, config.color_replicates - starts[k])
        colors = (
            color_clusters(labeling, config.nu, rng).cluster_color
            for rng in derive_streams(seed, "color", starts[k], count)
        )
        return np.array([float(np.dot(piece, c - m)) / scale for c in colors])

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
        config=config,
        estimates={
            "percolation": asdict(est),
            "variance_exact_target": variance_exact,
            "variance_asymptotic_target": variance_asymptotic,
            "square_sum_density_graph": ssd,
            "statistic_summary": summary.to_dict(),
        },
        predictions={"quenched-clt": prediction},
        tests=tests,
        seeds=seed_audit(
            seed,
            [
                ("graph", 1),
                ("color", config.color_replicates),
                ("estimate-graph", config.graph_replicates),
            ],
        ),
        samples={"statistic": [float(v) for v in stats]},
    )


@timed
def run_annealed_clt(config: ExperimentConfig) -> RunResult:
    """Independent pairs: fluctuations of the centered full-box color sum.

    Q subtracts the pooled-density centering, so its law is compared against
    gamma from the declared regime, both through the gamma sampler and, when
    a closed form exists, by one-sample KS against that form's exact CDF.
    """
    if config.regime is None:
        raise ValueError("annealed fluctuation runs need an explicit regime")
    lattice, margin = _box(config)
    seed = config.master_seed
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
    sampler = gamma_sampler(est.chi_f_hat, sigma_p2_batch, config.nu)
    summary = summarize(q)

    tests: list[TestReport] = []
    streams = [("graph", reps), ("color", reps)]
    if isinstance(closed, PointMass):
        tests.append(
            _within(
                float(np.abs(q).max(initial=0.0)),
                _EXACT_TOL,
                "annealed-clt: degenerate gamma requires identically zero statistics",
            )
        )
    else:
        reference = sampler.sample(derive_rng(seed, "gamma-sampler"), _REFERENCE_DRAWS)
        streams.append(("gamma-sampler", 1))
        tests.append(
            ks_two_sample(
                q,
                reference,
                context="annealed-clt: KS against the gamma sampler (prediction gamma-sampler)",
            )
        )
        if isinstance(closed, GaussianLaw):
            tests.append(
                ks_one_sample_gaussian(
                    q,
                    closed.mean,
                    closed.variance,
                    context="annealed-clt: KS against the closed-form Gaussian gamma",
                )
            )
        elif isinstance(closed, GaussianMixture):
            tests.append(
                ks_one_sample(
                    q,
                    closed.cdf,
                    context="annealed-clt: KS against the closed-form Gaussian mixture gamma",
                )
            )

    return RunResult(
        experiment="annealed-clt",
        config=config,
        estimates={
            "percolation": asdict(est),
            "theta_pooled_box": theta_box,
            "sigma_p2_batch": sigma_p2_batch,
            "statistic_summary": summary.to_dict(),
        },
        predictions={"gamma": closed, "gamma-sampler": sampler},
        tests=tests,
        seeds=seed_audit(seed, streams),
        samples={"q_n": [float(v) for v in q]},
    )


@timed
def run_cluster_clt(config: ExperimentConfig) -> RunResult:
    """Fluctuations of the stand-in cluster volume across box sizes.

    Each radius gets its own batch; centering uses that batch's pooled
    density, which makes the statistic average zero by construction. The
    Gaussian reference variance comes from the largest radius.
    """
    warn_if_near_critical(config.d, config.p)
    seed = config.master_seed
    reps = config.graph_replicates

    per_radius: dict[int, dict] = {}
    stats_by_radius: dict[int, np.ndarray] = {}
    for radius in config.radii:
        lattice = build_box(config.d, radius)
        n_sites = lattice.site_count
        counts = map_labelings(
            lattice,
            config.p,
            seed,
            f"graph:{radius}",
            reps,
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
        config=config,
        estimates={
            "per_radius": {str(r): per_radius[r] for r in config.radii},
            "sigma_p2_reference": sigma_p2_ref,
            "reference_radius": ref_radius,
        },
        predictions={"cluster-clt": prediction},
        tests=tests,
        seeds=seed_audit(seed, [(f"graph:{r}", reps) for r in config.radii]),
        samples={f"statistic_n{r}": s.tolist() for r, s in stats_by_radius.items()},
    )


@timed
def run_weighted_lln_check(config: ExperimentConfig) -> RunResult:
    """Cluster-size-weighted color averages and their variance condition.

    The weighted average of finite-cluster colors should approach m, and the
    summability condition ratio (sum of squared weights times cluster count
    over squared weight sum) should approach chi_f kappa / (1 - theta)^2.
    Replicates whose configuration has no finite cluster are skipped with a
    diagnostic instead of dividing by zero.
    """
    lattice, margin = _box(config)
    seed = config.master_seed
    reps = config.graph_replicates
    m = config.nu.mean
    sigma2 = config.nu.variance

    columns, est = _colored_replicates(config, lattice, margin)
    # The weights are the finite cluster sizes; replicates without any are skipped.
    active = lattice.site_count - columns["proxy_sites"] > 0
    count = int(np.count_nonzero(active))
    skipped = reps - count
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
        config=config,
        estimates=estimates,
        predictions=predictions,
        tests=tests,
        seeds=seed_audit(seed, [("graph", reps), ("color", reps)]),
        samples=samples,
    )
