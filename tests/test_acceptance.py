"""End-to-end acceptance runs.

Every test here finishes by recording one line on the acceptance board that
conftest prints after the run, then asserting that same outcome. Tolerances
are the shipped defaults unless a test says otherwise, and every run is
pinned to a fixed master seed so the suite is deterministic.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from dcl.cli import main
from dcl.coloring import GaussianLaw, TwoPoint, color_clusters
from dcl.harness import (
    ExperimentConfig,
    run_annealed_clt,
    run_annealed_lln,
    run_cluster_clt,
    run_quenched_clt,
    run_weighted_lln_check,
)
from dcl.lattice import build_box
from dcl.percolation import (
    PROXY_BOUNDARY_LARGEST,
    PROXY_DISABLED,
    EdgeConfig,
    default_window_margin,
    estimate_functionals,
    label_clusters,
    labeling_functionals,
    map_labelings,
    pool_functionals,
    sample_config,
    square_sums,
)
from dcl.rng import derive_rng, derive_streams
from dcl.stats import summarize
from dcl.theory import PointMass, SampledLaw
from oracles import enumerate_box, prime_moment, scale_mixture_excess_kurtosis, site_index

pytestmark = pytest.mark.acceptance

SEED = 42


def test_square_sum_identity(criterion):
    """Per-site and per-cluster square sums agree exactly, config by config."""
    lattice = build_box(2, 16)
    margins = (0, default_window_margin(lattice))
    densities = (0.2, 0.5, 0.8)
    violations = 0
    checked = 0
    for p in densities:
        for i in range(1000):
            config = sample_config(lattice, p, SEED, f"acc1:{p!r}", i)
            # alternate the stand-in rule so both exclusion paths are exercised
            rule = PROXY_BOUNDARY_LARGEST if i % 2 else PROXY_DISABLED
            labeling = label_clusters(config, rule)
            for margin in margins:
                (per_site,), (per_cluster,) = square_sums(labeling, margin)
                checked += 1
                if per_site != per_cluster:
                    violations += 1
    detail = f"{checked} integer comparisons over p in {densities}, {violations} violations"
    assert criterion(1, "windowed square-sum identity", violations == 0, detail)


def test_degenerate_parameters_are_exact(criterion):
    """p in {0, 1} and point-mass colors hit their closed forms exactly."""
    lattice = build_box(2, 16)
    checks: list[bool] = []

    empty = estimate_functionals(lattice, 0.0, 40, SEED, proxy_rule=PROXY_DISABLED)
    checks += [empty.theta_hat == 0.0, empty.chi_f_hat == 1.0, empty.kappa_hat == 1.0]

    full = estimate_functionals(lattice, 1.0, 40, SEED)
    checks += [
        full.theta_hat == 1.0,
        full.chi_f_hat == 0.0,
        full.kappa_hat == 1.0 / lattice.site_count,
    ]

    # one shared color collapses every fluctuation statistic to exactly zero
    point = "discrete:2.5:1"
    quenched = run_quenched_clt(
        ExperimentConfig(
            d=2, radii=16, p=0.3, nu=point,
            color_replicates=100, master_seed=11,
        )
    )
    annealed_runs = [
        run_annealed_clt(
            ExperimentConfig(
                d=2, radii=16, p=0.2, nu=point,
                regime="subcritical", proxy_rule=PROXY_DISABLED,
                graph_replicates=30, master_seed=11,
            )
        ),
        run_annealed_clt(
            ExperimentConfig(
                d=2, radii=16, p=0.7, nu=point,
                regime="supercritical", graph_replicates=30, master_seed=11,
            )
        ),
    ]
    for res in [quenched, *annealed_runs]:
        checks.append(any(law == PointMass(value=0.0) for law in res.predictions.values()))
        checks.append(res.passed())
        checks.append(all(v == 0.0 for vs in res.samples.values() for v in vs))

    ok = all(checks)
    detail = (
        f"p=0 gives (0, 1, 1); p=1 gives (1, 0, 1/{lattice.site_count}); "
        "point-mass color fluctuations vanish identically"
    )
    assert criterion(2, "degenerate parameters are exact", ok, detail)


def test_tiny_box_enumeration_agreement(criterion):
    """Exhaustive enumeration pins tiny boxes; simulation must land on it."""
    # three sites on a line, four edge configs, done by hand
    hand = enumerate_box(1, 1, Fraction(1, 2))
    assert hand["mean_per_site_cluster_size"] == Fraction(11, 6)

    line = build_box(1, 1)
    total = Fraction(0)
    for bits in range(4):
        # One copy of line sites 0, 1, 2: edges 0-1 and 1-2 step up from sites 0 and 1.
        edges = np.array([[[bits & 1], [bits & 2], [0]]], dtype=bool)
        config = EdgeConfig(lattice=line, open=edges)
        labeling = label_clusters(config, PROXY_DISABLED)
        (per_site,), (per_cluster,) = square_sums(labeling, 0)
        assert per_site == per_cluster
        total += Fraction(int(per_site), 4)
    assert total / line.site_count == Fraction(11, 6)

    # d=2, 3x3 box: 4096 configs enumerated exactly, then 10^5 simulations
    # through the replicate engine, replicate i on stream f"acc3:{p!r}:{i}".
    # kappa and the square-sum density are per-site means over the whole box
    # (margin 0), so times site_count they are the mean k_n and square sum.
    lattice = build_box(2, 1)
    scale = lattice.site_count
    worst = 0.0
    ok = True
    reps = 100_000
    for p in (Fraction(3, 10), Fraction(1, 2)):
        exact = enumerate_box(2, 1, p)
        # Each p on a role of its own, so the two densities draw independent graphs.
        (columns,) = map_labelings(
            [(lattice, float(p), f"acc3:{p!r}")], SEED, reps,
            lambda start, stack: labeling_functionals(stack, 0), proxy_rule=PROXY_DISABLED,
        )
        est = pool_functionals(columns, lattice, 0, PROXY_DISABLED)
        series = (
            (est.kappa_hat, est.kappa_se, "mean_k"),
            (est.square_sum_density, est.square_sum_se, "mean_square_sum"),
        )
        for mean, se, key in series:
            pull = abs(mean * scale - float(exact[key])) / (se * scale)
            worst = max(worst, pull)
            ok = ok and pull < 3.0
    detail = f"line box exact at 11/6; worst simulation pull {worst:.2f} se (limit 3)"
    assert criterion(3, "tiny-box enumeration agreement", ok, detail)


def test_quenched_fluctuation_normality(criterion):
    res = run_quenched_clt(
        ExperimentConfig(
            d=2, radii=64, p=0.3, nu="two-point:-1,1,0.5",
            color_replicates=10_000, master_seed=SEED,
        )
    )
    ks = next(t for t in res.tests if "KS" in t.context)
    npass = sum(t.decision == "pass" for t in res.tests)
    detail = f"{npass}/{len(res.tests)} checks pass, KS p={ks.p_value:.3f}"
    assert criterion(4, "quenched fluctuation normality", res.passed(), detail)


def test_annealed_empirical_law(criterion):
    res = run_annealed_lln(
        ExperimentConfig(
            d=2, radii=128, p=0.7, nu="two-point:-1,1,0.7",
            graph_replicates=200, master_seed=SEED,
        )
    )
    tv, atom = res.tests[0].statistic, res.tests[1].statistic
    detail = f"tv distance {tv:.4f} (limit 0.1), worst atom error {atom:.4f} (limit 0.02)"
    assert criterion(5, "annealed empirical law", res.passed(), detail)


def test_cluster_count_normality_at_fixed_size():
    """Companion to the stability test: at one box size the count is Gaussian."""
    res = run_cluster_clt(
        ExperimentConfig(
            d=2, radii=64, p=0.7, graph_replicates=500, master_seed=SEED,
        )
    )
    assert res.passed(), [t.context for t in res.tests if t.decision != "pass"]


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason=(
        "the box-count variance estimator carries a surface-term bias of order "
        "1/n, so its value drifts by more than 20% between radii 32 and 64"
    ),
)
def test_cluster_variance_stability(criterion):
    res = run_cluster_clt(
        ExperimentConfig(
            d=2, radii=(32, 64), p=0.7, graph_replicates=500, master_seed=SEED, ratio_rtol=0.20,
        )
    )
    stability = next(t for t in res.tests if "stability" in t.context)
    reference_ks = next(t for t in res.tests if "KS" in t.context and "[n=64]" in t.context)
    ok = stability.decision == "pass"
    detail = (
        f"fixed-size KS p={reference_ks.p_value:.3f} passes, but the variance "
        f"drift between radii 32 and 64 is {stability.statistic:.3f} (band 0.20)"
    )
    # record the honest FAIL line before the assert trips the expected failure
    assert criterion(6, "cluster variance stability", ok, detail)


def test_limit_kurtosis_separation(criterion):
    """Symmetric two-point colors give a Gaussian limit; skewed ones do not."""
    n = 1_000_000
    se = math.sqrt(24.0 / n)

    symmetric = TwoPoint(a=-1.0, b=1.0, alpha=0.5)
    draws = SampledLaw(1.0, 0.5, symmetric).sample(derive_rng(SEED, "acc7:sym"), n)
    kurt_sym = summarize(draws).excess_kurtosis

    skewed = TwoPoint(a=-1.0, b=1.0, alpha=0.3)
    draws = SampledLaw(1.0, 0.5, skewed).sample(derive_rng(SEED, "acc7:skew"), n)
    kurt_skew = summarize(draws).excess_kurtosis
    # x + y (z - m) given z is N(0, chi_f sigma2 + sigma_p2 (z - m)^2), chi_f = 1, sigma_p2 = 0.5
    atoms = ((-1.0, 0.7), (1.0, 0.3))
    m = math.fsum(v * w for v, w in atoms)
    sigma2 = math.fsum(w * (v - m) ** 2 for v, w in atoms)
    closed = scale_mixture_excess_kurtosis((w, sigma2 + 0.5 * (v - m) ** 2) for v, w in atoms)

    ok = (
        abs(kurt_sym) < 0.05
        and abs(kurt_skew) > 5.0 * se
        and abs(kurt_skew - closed) < 3.0 * se
    )
    detail = (
        f"symmetric kurtosis {kurt_sym:+.4f}; skewed {kurt_skew:.4f} "
        f"vs closed form {closed:.4f} at se {se:.4f}"
    )
    assert criterion(7, "limit kurtosis separation", ok, detail)


def test_prime_moment_agreement(criterion):
    """Moment formula for y (z - m) against direct simulation, three orders."""
    n = 300_000
    sigma_p2 = 0.5
    worst = 0.0
    ok = True
    cases = [
        ("two-point", TwoPoint(-1.0, 1.0, 0.5), {"atoms": ((-1.0, 0.5), (1.0, 0.5))}),
        ("gaussian", GaussianLaw(0.0, 1.0), {"variance": 1.0}),
    ]
    for tag, nu, law in cases:
        rng = derive_rng(SEED, f"acc8:{tag}")
        y = rng.normal(0.0, math.sqrt(sigma_p2), n)
        z = np.asarray(nu.sample(rng, n))
        draws = y * (z - nu.mean)
        for k in (1, 2, 3):
            powers = draws ** (2 * k)
            se = powers.std(ddof=1) / math.sqrt(n)
            pull = abs(powers.mean() - prime_moment(k, sigma_p2, **law)) / se
            worst = max(worst, pull)
            ok = ok and pull < 4.0
    detail = f"orders 2, 4, 6 for two color laws; worst pull {worst:.2f} se (limit 4)"
    assert criterion(8, "prime-moment agreement", ok, detail)


def test_adjacent_site_covariance(criterion):
    """Cov(X_0, X_1) = sigma2 P(0 connected to 1) on the three-site line."""
    line = build_box(1, 1)
    origin = site_index(1, 1, (0,))
    neighbor = site_index(1, 1, (1,))
    reps = 100_000
    ok = True
    details = []
    for alpha, p in ((0.5, 0.3), (0.3, 0.6)):
        nu = TwoPoint(a=-1.0, b=1.0, alpha=alpha)
        mean, variance = nu.mean, nu.variance

        def observe(start, stack):
            products = np.empty(stack.copies)
            streams = derive_streams(SEED, f"acc9-color:{alpha!r}:{p!r}", start, stack.copies)
            for c, rng in enumerate(streams):
                colors = color_clusters(int(stack.k_n[c]), nu, rng)
                x0, x1 = colors[stack.stack_id[c, [origin, neighbor]] - stack.first[c]]
                products[c] = (x0 - mean) * (x1 - mean)
            return {"products": products}

        # Configuration i is drawn from the stream f"acc9:{alpha!r}:{p!r}:{i}".
        (columns,) = map_labelings(
            [(line, p, f"acc9:{alpha!r}:{p!r}")], SEED, reps, observe, proxy_rule=PROXY_DISABLED
        )
        products = columns["products"]
        predicted = variance * p
        se = products.std(ddof=1) / math.sqrt(reps)
        gap = abs(products.mean() - predicted)
        ok = ok and gap < 3.0 * se
        details.append(f"alpha={alpha}, p={p}: gap {gap:.4f} vs 3 se {3 * se:.4f}")
    assert criterion(9, "adjacent-site covariance", ok, "; ".join(details))


def test_size_weighted_conditional_limit(criterion):
    res = run_weighted_lln_check(
        ExperimentConfig(
            d=2, radii=64, p=0.3, nu="two-point:-1,1,0.5",
            graph_replicates=100, master_seed=SEED,
        )
    )
    ratio = res.estimates["condition_ratio_mean"]
    predicted = res.estimates["condition_ratio_predicted"]
    detail = f"condition ratio {ratio:.3f} vs predicted {predicted:.3f}"
    assert criterion(10, "size-weighted conditional limit", res.passed(), detail)


def test_worker_count_determinism(criterion, tmp_path):
    """The report is byte-identical whatever the worker count."""
    reports = []
    for workers in (1, 8):
        out = tmp_path / f"workers{workers}.json"
        code = main(
            [
                "lln", "--mode", "annealed", "--radius", "16", "--p", "0.7",
                "--nu", "two-point:-1,1,0.7", "--graph-replicates", "30",
                "--seed", "5", "--workers", str(workers), "--out", str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        payload.pop("timing")
        reports.append(json.dumps(payload, sort_keys=True))
    ok = reports[0] == reports[1]
    assert criterion(11, "worker-count determinism", ok, "1 worker vs 8 workers")
