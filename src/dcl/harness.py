"""Experiment harnesses tying configurations, colorings, and limit laws together.

Each run_* function executes one experiment design end to end: it samples
what the design calls for, computes the observable, builds the predicted
limit law from estimated functionals, and attaches test reports. Results
are bit-identical for a fixed config regardless of worker count because
every replicate and every chunk of colorings draws from its own derived stream.
Replicates go through the percolation.map_labelings engine; a quenched
run's colorings are one coloring.centered_sums call, which draws them in
chunks, one stream color-chunk:{i} per chunk, across workers.

Six shared rules live in one function each: _box (near-critical warning,
largest box, window margin), _within (pass iff value <= bound; NaN fails),
_identically_zero (a point mass: max |values| <= tol), _color_copies (copy c
from stream color:{start + c}, stand-in split off), theory.centered_gaussian
(zero variance is a point mass, never N(0, 0)) and percolation.stand_in_volume
(the whole-box theta_box and sigma_p2).

ExperimentConfig holds only what a caller sets and a run reads; RUN_READS
says which run reads what, for each report's config and for _refuse_unread,
which the CLI calls at parse time too. Decision bands are module constants,
printed in each check's context; every KS check runs at stats.DEFAULT_LEVEL.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import MISSING, asdict, dataclass, field, fields
from typing import Callable, Iterator, Sequence

import numpy as np

from .coloring import ColorMeasure, centered_sums, color_clusters, parse_color_measure
from .lattice import BoxLattice, build_box, window_values
from .percolation import (
    PROXY_BOUNDARY_LARGEST,
    PROXY_DISABLED,
    PROXY_RULES,
    LabelingStack,
    PercolationEstimates,
    checked_square_sum,
    default_window_margin,
    label_clusters,
    labeling_functionals,
    map_labelings,
    pool_functionals,
    sample_config,
    stand_in_volume,
    warn_if_near_critical,
    window_pieces,
)
from .rng import check_seed, derive_streams, stream_log
from .stats import (
    TestReport,
    exact_check_report,
    ks_one_sample,
    ks_one_sample_gaussian,
    nearest_atoms,
    summarize,
    tv_distance_discrete,
)
from .theory import (
    GaussianLaw,
    LimitLaw,
    PointMass,
    centered_gaussian,
    gamma_law,
    lln_limit_law,
)

# Exact identities are allowed this much accumulated float rounding.
_EXACT_TOL = 1e-9

# Fixed decision bands; each check prints its band in its context.
_TV_TOLERANCE = 0.1
_ATOM_TOLERANCE = 0.02
_VARIANCE_RTOL = 0.05
_VARIANCE_RTOL_ASYMPTOTIC = 0.15


# The regime annealed clt declares; it is checked against the sample, and
# gamma does not read it.
REGIME_SUBCRITICAL = "subcritical"
REGIME_SUPERCRITICAL = "supercritical"
REGIMES = (REGIME_SUBCRITICAL, REGIME_SUPERCRITICAL)


class RegimeMismatchError(RuntimeError):
    """The declared regime contradicts what the sampled configurations show."""


# What each run that takes an ExperimentConfig reads of it, by experiment
# name, besides _READ_BY_EVERY_RUN and its largest radius. Its report's
# config echoes what it reads but workers, and _refuse_unread refuses every
# other optional field away from its dataclass default. A run that lists
# radii reads every radius.
_READ_BY_EVERY_RUN = ("d", "p", "graph_replicates", "master_seed", "proxy_rule", "workers")
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
        # The margin trims the largest box; smaller radii are windows inside it.
        if self.margin is not None and not 0 <= self.margin <= self.n_max:
            raise ValueError(f"margin must lie in [0, {self.n_max}], got {self.margin}")
        check_seed(self.master_seed)

    @property
    def n_max(self) -> int:
        return max(self.radii)

    def to_dict(self, experiment: str) -> dict:
        """The report's config: the experiment name and the fields that run reads but workers."""
        names = (*(name for name in _READ_BY_EVERY_RUN if name != "workers"), *RUN_READS[experiment])
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
    for setting in fields(config):
        if setting.name in _READ_BY_EVERY_RUN or setting.name in reads or setting.default is MISSING:
            continue
        value = getattr(config, setting.name)
        if value != setting.default:
            raise ValueError(f"this run reads no {setting.name}, got {value!r}")
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
    return lattice, default_window_margin(lattice) if config.margin is None else config.margin


def _within(value: float, bound: float, context: str) -> TestReport:
    """Deterministic check that value <= bound; a NaN value fails."""
    return exact_check_report(value <= bound, value, context)


def _identically_zero(values: np.ndarray, tol: float, context: str) -> TestReport:
    """The check of a point-mass prediction: max |values| <= tol; a NaN fails, no values pass."""
    return _within(float(np.abs(values).max(initial=0.0)), tol, context)


def _color_copies(
    nu: ColorMeasure, seed: int, start: int, stack: LabelingStack
) -> Iterator[tuple[np.ndarray, np.ndarray, float]]:
    """Per copy c: colors from stream color:{start + c}, sizes with the stand-in's set to 0, its color z or 0.0."""
    for c, rng in enumerate(derive_streams(seed, "color", start, stack.copies)):
        first, k_n = int(stack.first[c]), int(stack.k_n[c])
        colors = color_clusters(k_n, nu, rng)
        finite = stack.cluster_sizes[first : first + k_n].copy()
        z = 0.0
        if stack.proxy[c] >= 0:
            stand_in = stack.proxy[c] - first
            finite[stand_in] = 0
            z = float(colors[stand_in])
        yield colors, finite, z


def _quenched_graph(
    config: ExperimentConfig, lattice: BoxLattice, margin: int
) -> tuple[LabelingStack, PercolationEstimates]:
    """The one graph of a quenched run, a stack of one copy, plus functionals from separate graphs."""
    graph = label_clusters(sample_config(lattice, config.p, config.master_seed), config.proxy_rule)
    (columns,) = map_labelings(
        [(lattice, config.p, "estimate-graph")],
        config.master_seed,
        config.graph_replicates,
        lambda start, stack: labeling_functionals(stack, margin),
        proxy_rule=config.proxy_rule,
        workers=config.workers,
    )
    return graph, pool_functionals(columns, lattice, margin, config.proxy_rule)


def _colored_replicates(
    config: ExperimentConfig, lattice: BoxLattice, margin: int
) -> tuple[dict[str, np.ndarray], PercolationEstimates]:
    """Independent (graph:i, color:i) pairs as columns, plus pooled functionals.

    Besides the labeling_functionals columns, each copy has its full-box
    color sum, the stand-in color z (0 without one), the color sum and the
    exact square sum of its finite cluster sizes, and whether a cluster
    spans the box: holds a site on both faces orthogonal to the first axis.
    That test reads no stand-in, so it holds under every proxy rule.
    """
    def observe(start: int, stack: LabelingStack) -> dict:
        color_sum, finite_color_sum, z = np.zeros((3, stack.copies))
        for c, (colors, finite, z[c]) in enumerate(_color_copies(config.nu, config.master_seed, start, stack)):
            first = int(stack.first[c])
            color_sum[c] = np.dot(stack.cluster_sizes[first : first + finite.shape[0]], colors)
            finite_color_sum[c] = np.dot(finite, colors)
        faces = stack.stack_id.reshape(stack.copies, lattice.side, -1)
        near, far = np.zeros((2, stack.cluster_sizes.shape[0]), dtype=bool)
        near[faces[:, 0]] = True
        far[faces[:, -1]] = True
        return {
            **labeling_functionals(stack, margin),
            "color_sum": color_sum,
            "finite_color_sum": finite_color_sum,
            "z": z,
            "finite_square_sum": np.add.reduceat(stack.cluster_sizes**2, stack.first)
            - stack.proxy_sites**2,
            "spans": np.logical_or.reduceat(near & far, stack.first),
        }

    (columns,) = map_labelings(
        [(lattice, config.p, "graph")],
        config.master_seed,
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
    graph, est = _quenched_graph(config, lattice, margin)
    ids = graph.stack_id[0]
    ((colors, finite, z),) = _color_copies(config.nu, config.master_seed, 0, graph)

    trajectory = [float(colors[window_values(ids, lattice, lattice.n - radius)].mean()) for radius in config.radii]

    target = (1.0 - est.theta_hat) * config.nu.mean + est.theta_hat * z
    m_n = trajectory[-1]

    # Exact decomposition: the site-by-site sum must match the per-cluster
    # weighted sum plus the stand-in cluster contribution.
    lhs = float(colors[ids].sum())
    rhs = float(np.dot(finite, colors)) + z * int(graph.proxy_sites[0])
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
            "deviation": abs(m_n - target),
            "decomposition_error": decomposition_err,
        },
        predictions={"lln-limit": PointMass(value=target)},
        tests=tests,
        samples={
            "window_radius": [float(r) for r in config.radii],
            "m_k": trajectory,
        },
    )


@recorded
def run_annealed_lln(config: ExperimentConfig) -> RunResult:
    """Independent (graph, coloring) pairs: the law of the color average.

    The empirical law of the full-box average is compared against the
    predicted limit built from the pooled occupied-volume fraction: by total
    variation for atomic predictions, otherwise by one-sample KS against the
    Gaussian limit's exact CDF. An atomic check bins the averages once
    (stats.nearest_atoms); the bin counts give the TV distance and each
    atom's location is the mean of its bin.
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

    pairs = prediction.atoms()
    if pairs is not None:
        values, weights = zip(*pairs)
        # Bins are just under half the smallest atom gap wide, so the nearest
        # atom is unambiguous. A single atom takes the larger of the location
        # tolerance and 5 sample SDs, so finite-volume noise still bins onto it.
        if len(values) > 1:
            tol = 0.4999 * float(np.diff(np.sort(values)).min())
        else:
            sample_sd = float(m_samples.std(ddof=1)) if m_samples.shape[0] >= 2 else 0.0
            tol = max(_ATOM_TOLERANCE, 5.0 * sample_sd)
        bins = nearest_atoms(m_samples, values, tol)
        tv = tv_distance_discrete(bins, weights)
        tests.append(
            _within(
                tv,
                _TV_TOLERANCE,
                f"annealed-lln: TV distance to lln-limit atoms vs tolerance {_TV_TOLERANCE}",
            )
        )
        locations = {v: float(m_samples[bins == k].mean()) for k, v in enumerate(values) if np.any(bins == k)}
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
        samples={"m_n": m_samples.tolist()},
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

    graph, est = _quenched_graph(config, lattice, margin)
    labels, piece = window_pieces(graph, margin)
    ssd = float(checked_square_sum(graph, labels, piece)[0] / labels.shape[1])
    scale = math.sqrt(labels.shape[1])
    stats = centered_sums(config.nu, config.master_seed, "color-chunk", config.color_replicates, piece, config.workers) / scale

    variance_exact = sigma2 * ssd
    variance_asymptotic = est.chi_f_hat * sigma2
    summary = summarize(stats)

    prediction = centered_gaussian(variance_exact)
    tests: list[TestReport] = []
    if isinstance(prediction, PointMass):
        tests.append(
            _identically_zero(stats, 0.0, "quenched-clt: degenerate target requires identically zero statistics")
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
        samples={"statistic": stats.tolist()},
    )


@recorded
def run_annealed_clt(config: ExperimentConfig) -> RunResult:
    """Independent pairs: fluctuations of the centered full-box color sum.

    Q subtracts the pooled-density centering, so its law is compared against
    gamma by one-sample KS against gamma's exact CDF; a point-mass gamma
    requires Q to be identically zero. gamma is gamma_law(chi_f, sigma_p2,
    nu) on either side of p_c. The declared regime does not change it: it is
    checked against the share of replicates that a cluster spans.
    """
    lattice, margin = _box(config, "annealed-clt")
    reps = config.graph_replicates
    m = config.nu.mean
    n_sites = lattice.site_count

    columns, est = _colored_replicates(config, lattice, margin)

    # A cluster spans a supercritical box in most replicates, a subcritical
    # one in few.
    spanning = int(np.count_nonzero(columns["spans"]))
    if (spanning > reps / 2) != (config.regime == REGIME_SUPERCRITICAL):
        raise RegimeMismatchError(
            f"{config.regime} declared but {spanning}/{reps} replicates have a "
            "cluster spanning the box"
        )

    theta_box, sigma_p2_batch = stand_in_volume(columns["proxy_sites"], n_sites)

    # Centering written as m + theta (z - m): algebraically the same as
    # (1-theta) m + theta z, but exactly zero under a point-mass measure.
    z = columns["z"]
    q = (columns["color_sum"] - (m + theta_box * (z - m)) * n_sites) / math.sqrt(n_sites)

    closed = gamma_law(est.chi_f_hat, sigma_p2_batch, config.nu)
    summary = summarize(q)

    tests: list[TestReport] = []
    if isinstance(closed, PointMass):
        tests.append(
            _identically_zero(q, _EXACT_TOL, "annealed-clt: degenerate gamma requires identically zero statistics")
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
            "spanning_fraction": spanning / reps,
            "statistic_summary": summary.to_dict(),
        },
        predictions={"gamma": closed},
        tests=tests,
        samples={"q_n": q.tolist()},
    )


@recorded
def run_cluster_clt(config: ExperimentConfig) -> RunResult:
    """Fluctuations of the stand-in cluster volume across box sizes.

    Each radius gets its own batch, and one map_labelings call labels them
    all, so a run forks its workers once. Centering uses each batch's pooled
    density, which makes the statistic average zero by construction. The
    Gaussian reference variance comes from the largest radius.
    """
    _refuse_unread(config, "cluster-clt")
    warn_if_near_critical(config.d, config.p)
    per_radius: dict[int, dict] = {}
    stats_by_radius: dict[int, np.ndarray] = {}
    lattices = [build_box(config.d, radius) for radius in config.radii]
    boxes = map_labelings(
        [(lattice, config.p, f"graph:{radius}") for lattice, radius in zip(lattices, config.radii)],
        config.master_seed,
        config.graph_replicates,
        lambda start, stack: {"proxy_sites": stack.proxy_sites},
        proxy_rule=config.proxy_rule,
        workers=config.workers,
    )
    for radius, lattice, columns in zip(config.radii, lattices, boxes):
        n_sites = lattice.site_count
        counts = columns["proxy_sites"].astype(np.float64)
        theta_box, sigma_p2 = stand_in_volume(counts, n_sites)
        per_radius[radius] = {"theta_box": theta_box, "sigma_p2": sigma_p2}
        stats_by_radius[radius] = (counts - counts.mean()) / math.sqrt(n_sites)

    ref_radius = config.radii[-1]
    sigma_p2_ref = per_radius[ref_radius]["sigma_p2"]
    prediction = centered_gaussian(sigma_p2_ref)
    tests: list[TestReport] = []
    if isinstance(prediction, PointMass):
        tests.append(
            _identically_zero(
                np.concatenate(list(stats_by_radius.values())),
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
        samples["weighted_average"] = averages.tolist()
        samples["condition_ratio"] = ratios.tolist()

        if math.isfinite(predicted_ratio) and predicted_ratio > 0.0:
            tests.append(
                _within(
                    abs(ratio_mean - predicted_ratio) / predicted_ratio,
                    config.ratio_rtol,
                    f"weighted-lln: condition ratio vs chi_f kappa / (1-theta)^2, "
                    f"rtol {config.ratio_rtol}",
                )
            )
        if sigma2 == 0.0:
            # Point-mass colors: every weighted average is m up to rounding,
            # and both standard errors below are 0, so the check is exact.
            bound, band = _EXACT_TOL * max(1.0, abs(m)), "equals m, an exact check for point-mass colors"
        else:
            if count >= 2:
                se = float(averages.std(ddof=1)) / math.sqrt(count)
            else:
                # Single graph: the conditional standard error of the weighted
                # average is sqrt(sigma2 sum w^2) / sum w.
                se = math.sqrt(sigma2 * square_sum[0]) / float(weight_sum[0])
            bound, band = 3.0 * se, "within 3 standard errors of m"
        tests.append(
            _within(abs(float(averages.mean()) - m), bound, f"weighted-lln: weighted color average {band}")
        )

    return RunResult(
        experiment="weighted-lln",
        estimates=estimates,
        predictions=predictions,
        tests=tests,
        samples=samples,
    )
