"""End-to-end experiment runs: predictions, checks, and determinism."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from dcl.coloring import FiniteDiscrete, color_clusters
from dcl.harness import (
    _COLOR_CHUNK,
    ExperimentConfig,
    RegimeMismatchError,
    RunResult,
    _colored_replicates,
    run_annealed_clt,
    run_annealed_lln,
    run_cluster_clt,
    run_quenched_clt,
    run_quenched_lln,
    run_weighted_lln_check,
)
from dcl.lattice import build_box, inner_window
from dcl.percolation import (
    PROXY_BOUNDARY_LARGEST,
    PROXY_DISABLED,
    NearCriticalWarning,
    label_clusters,
    map_labelings,
    sample_config,
    stand_in_volume,
)
from dcl.rng import derive_rng, derive_streams
from dcl.stats import TestReport
from dcl.theory import GaussianLaw, GaussianMixture, PointMass, TwoPointLaw


def test_config_validation():
    good = dict(d=2, radii=(8, 16), p=0.5, nu="two-point:-1,1,0.5")
    ExperimentConfig(**good)
    with pytest.raises(ValueError):
        ExperimentConfig(**{**good, "radii": ()})
    with pytest.raises(ValueError):
        ExperimentConfig(**{**good, "radii": (0, 4)})
    with pytest.raises(ValueError):
        ExperimentConfig(**{**good, "radii": (16, 8)})
    with pytest.raises(ValueError):
        ExperimentConfig(**{**good, "radii": (8, 8)})
    with pytest.raises(ValueError):
        ExperimentConfig(**{**good, "p": 1.5})
    with pytest.raises(ValueError):
        ExperimentConfig(**{**good, "p": -0.1})
    with pytest.raises(ValueError):
        ExperimentConfig(**good, graph_replicates=0)
    with pytest.raises(ValueError):
        ExperimentConfig(**good, color_replicates=0)
    with pytest.raises(ValueError):
        ExperimentConfig(**good, workers=0)
    with pytest.raises(ValueError):
        ExperimentConfig(**good, proxy_rule="biggest")
    with pytest.raises(ValueError):
        ExperimentConfig(**good, regime="critical")
    with pytest.raises(ValueError):
        ExperimentConfig(**good, margin=-1)
    with pytest.raises(ValueError):
        ExperimentConfig(**good, margin=9)  # exceeds the smallest radius
    with pytest.raises(ValueError, match="signed 128-bit range"):
        ExperimentConfig(**good, master_seed=2**127)


def test_config_promotes_and_parses():
    cfg = ExperimentConfig(d=2, radii=16, p=0.3, nu="two-point:-1,1,0.5")
    assert cfg.radii == (16,)
    assert cfg.n_max == 16
    assert cfg.nu.mean == 0.0
    multi = ExperimentConfig(d=2, radii=[4, 8, 32], p=0.3, nu="gaussian:1,2")
    assert multi.n_max == 32


def test_config_to_dict_excludes_plumbing():
    cfg = ExperimentConfig(d=2, radii=16, p=0.3, nu="two-point:-1,1,0.5", workers=8)
    d = cfg.to_dict()
    assert "workers" not in d
    assert d["d"] == 2 and d["radii"] == [16] and d["master_seed"] == 0
    assert d["nu"] == cfg.nu.to_dict()
    # identical science flags, different plumbing: same dict
    other = ExperimentConfig(d=2, radii=16, p=0.3, nu="two-point:-1,1,0.5")
    assert other.to_dict() == d


def test_quenched_lln_point_mass_colors():
    # a point mass forces every cluster to the same color, so each window
    # average and the predicted limit are that color exactly
    cfg = ExperimentConfig(
        d=2, radii=(4, 8, 16), p=0.6, nu="two-point:2.5,2.5,0.4",
        graph_replicates=10, master_seed=6,
    )
    res = run_quenched_lln(cfg)
    assert res.passed()
    assert res.samples["m_k"] == [2.5, 2.5, 2.5]
    assert res.estimates["z"] == 2.5
    assert res.estimates["deviation"] == 0.0
    assert res.estimates["decomposition_error"] == 0.0
    assert res.predictions["lln-limit"] == PointMass(value=2.5)


def test_quenched_lln_trajectory_and_reports():
    cfg = ExperimentConfig(
        d=2, radii=(8, 16, 32), p=0.7, nu="two-point:-1,1,0.7",
        graph_replicates=30, master_seed=9, lln_tolerance=0.2,
    )
    res = run_quenched_lln(cfg)
    assert res.passed()
    assert len(res.tests) == 2  # decomposition plus the tolerance check
    assert res.samples["window_radius"] == [8.0, 16.0, 32.0]
    m_n = res.samples["m_k"][-1]
    assert res.estimates["m_n"] == m_n
    assert res.estimates["deviation"] == pytest.approx(
        abs(m_n - res.estimates["predicted_limit"])
    )
    assert res.seeds["master_seed"] == 9
    roles = {s["role"]: s["count"] for s in res.seeds["streams"]}
    assert roles == {"graph": 1, "color": 1, "estimate-graph": 30}


def test_annealed_lln_two_point_supercritical():
    cfg = ExperimentConfig(
        d=2, radii=32, p=0.7, nu="two-point:-1,1,0.7",
        graph_replicates=100, master_seed=7,
    )
    res = run_annealed_lln(cfg)
    assert res.passed()
    assert isinstance(res.predictions["lln-limit"], TwoPointLaw)
    assert len(res.samples["m_n"]) == 100
    assert len(res.estimates["atom_locations"]) == 2
    contexts = [t.context for t in res.tests]
    assert any("TV distance" in c for c in contexts)
    assert any("atom location" in c for c in contexts)


def test_annealed_lln_subcritical_point_mass_prediction():
    # with the stand-in rule off, a subcritical box pools theta = 0 and the
    # prediction collapses to the color mean
    cfg = ExperimentConfig(
        d=2, radii=32, p=0.2, nu="two-point:-1,1,0.3",
        graph_replicates=100, master_seed=3, proxy_rule="disabled",
    )
    res = run_annealed_lln(cfg)
    assert res.passed()
    assert res.estimates["theta_pooled_box"] == 0.0
    assert res.predictions["lln-limit"] == PointMass(value=pytest.approx(-0.4))
    assert list(res.estimates["atom_locations"]) == [pytest.approx(-0.4)]


def test_annealed_lln_gaussian_colors_uses_sampler_ks():
    cfg = ExperimentConfig(
        d=2, radii=32, p=0.7, nu="gaussian:0,1",
        graph_replicates=100, master_seed=11,
    )
    res = run_annealed_lln(cfg)
    assert res.passed()
    assert isinstance(res.predictions["lln-limit"], GaussianLaw)
    assert len(res.tests) == 1
    # one-sample KS against the limit's exact CDF: no reference draws
    assert "lln-limit Gaussian" in res.tests[0].context
    assert {s["role"] for s in res.seeds["streams"]} == {"graph", "color"}


def test_annealed_lln_tv_band_is_exact_at_its_edge():
    # 60 replicates: summed in floats, the empirical masses gave a TV an ulp
    # above the 0.1 band; hits counted exactly give 0.1 and pass
    cfg = ExperimentConfig(
        d=2, radii=16, p=0.7, nu="discrete:-1:0.2,0:0.3,2:0.5",
        graph_replicates=60, master_seed=107,
    )
    res = run_annealed_lln(cfg)
    tv = res.tests[0]
    assert "TV distance" in tv.context
    assert tv.statistic == 0.1
    assert res.passed()


def test_annealed_lln_full_lattice_hits_atoms_exactly():
    # p=1 merges the box into the stand-in cluster, so each replicate's
    # average is exactly its color draw
    cfg = ExperimentConfig(
        d=2, radii=4, p=1.0, nu="two-point:-1,1,0.3",
        graph_replicates=200, master_seed=5,
    )
    res = run_annealed_lln(cfg)
    assert res.passed()
    assert res.estimates["theta_pooled_box"] == 1.0
    assert set(res.samples["m_n"]) == {-1.0, 1.0}
    freq_hi = sum(1 for v in res.samples["m_n"] if v == 1.0) / 200.0
    assert freq_hi == pytest.approx(0.3, abs=0.1)


def test_annealed_lln_discrete_colors_check_atoms():
    # p=1 merges the box into the stand-in cluster, so theta is 1, the limit
    # is nu itself and each replicate's average is exactly its color draw
    cfg = ExperimentConfig(
        d=2, radii=4, p=1.0, nu="discrete:-1:0.2,0:0.3,2:0.5",
        graph_replicates=200, master_seed=5,
    )
    res = run_annealed_lln(cfg)
    assert res.passed()
    assert res.predictions["lln-limit"] == FiniteDiscrete(((-1.0, 0.2), (0.0, 0.3), (2.0, 0.5)))
    assert set(res.samples["m_n"]) == {-1.0, 0.0, 2.0}
    assert res.estimates["atom_locations"] == {-1.0: -1.0, 0.0: 0.0, 2.0: 2.0}
    contexts = [t.context for t in res.tests]
    assert len(contexts) == 2
    assert "TV distance" in contexts[0] and "atom location" in contexts[1]
    assert "reference" not in {s["role"] for s in res.seeds["streams"]}


def test_quenched_clt_empty_graph_gaussian_colors():
    # p=0: every cluster is one site, the windowed square-sum density is 1,
    # and both variance targets equal the color variance exactly
    cfg = ExperimentConfig(
        d=2, radii=16, p=0.0, nu="gaussian:0,2",
        color_replicates=2000, master_seed=42, proxy_rule="disabled",
    )
    res = run_quenched_clt(cfg)
    assert res.passed()
    assert len(res.tests) == 4
    assert res.estimates["square_sum_density_graph"] == 1.0
    assert res.estimates["variance_exact_target"] == 2.0
    assert res.estimates["variance_asymptotic_target"] == 2.0
    assert res.predictions["quenched-clt"] == GaussianLaw(mean=0.0, variance=2.0)


def test_quenched_clt_point_mass_colors_degenerate():
    cfg = ExperimentConfig(
        d=2, radii=8, p=0.3, nu="two-point:3,3,0.7",
        color_replicates=50, master_seed=1,
    )
    res = run_quenched_clt(cfg)
    assert res.passed()
    assert res.estimates["variance_exact_target"] == 0.0
    assert all(v == 0.0 for v in res.samples["statistic"])
    assert res.predictions["quenched-clt"] == PointMass(value=0.0)
    assert len(res.tests) == 1


@pytest.mark.parametrize(
    "run,nu,extra,roles",
    [
        # atomic lln-limit: compared by TV distance, no reference draws
        (run_annealed_lln, "two-point:-1,1,0.7", {}, {"graph", "color"}),
        # continuous lln-limit: KS against its exact CDF, nothing sampled
        (run_annealed_lln, "gaussian:0,1", {}, {"graph", "color"}),
        # point-mass gamma: exact zero check, nothing sampled
        (run_annealed_clt, "discrete:2.5:1", {"regime": "supercritical"}, {"graph", "color"}),
        # Gaussian gamma: sampler draws only
        (run_annealed_clt, "two-point:-1,1,0.5", {"regime": "supercritical"},
         {"graph", "color", "gamma-sampler"}),
        # Gaussian-mixture gamma: sampler draws; the mixture is checked by its exact CDF
        (run_annealed_clt, "two-point:-1,1,0.3", {"regime": "supercritical"},
         {"graph", "color", "gamma-sampler"}),
    ],
)
def test_seed_audit_lists_only_drawn_streams(run, nu, extra, roles):
    cfg = ExperimentConfig(
        d=2, radii=8, p=0.7, nu=nu, graph_replicates=6,
        master_seed=3, **extra,
    )
    res = run(cfg)
    assert {s["role"] for s in res.seeds["streams"]} == roles


def test_annealed_clt_requires_regime():
    cfg = ExperimentConfig(
        d=2, radii=8, p=0.2, nu="two-point:-1,1,0.5",
        graph_replicates=5, master_seed=1,
    )
    with pytest.raises(ValueError, match="regime"):
        run_annealed_clt(cfg)


def test_annealed_clt_detects_regime_mismatch():
    # declaring supercritical while the stand-in rule is off can never see
    # a stand-in cluster, which the run must refuse to gloss over
    cfg = ExperimentConfig(
        d=2, radii=16, p=0.7, nu="two-point:-1,1,0.5",
        graph_replicates=10, master_seed=1,
        proxy_rule="disabled", regime="supercritical",
    )
    with pytest.raises(RegimeMismatchError):
        run_annealed_clt(cfg)


@pytest.mark.parametrize(
    "regime,p,spanning",
    [("supercritical", 0.1, 0), ("subcritical", 0.7, 20)],
)
def test_annealed_clt_rejects_contradicted_regime(regime, p, spanning):
    # The default stand-in rule always finds a boundary cluster, so only
    # spanning tells the regimes apart: at p=0.1 no stand-in crosses a
    # 33x33 box, at p=0.7 every one does.
    cfg = ExperimentConfig(
        d=2, radii=16, p=p, nu="two-point:-1,1,0.5",
        graph_replicates=20, master_seed=19, regime=regime,
    )
    with pytest.raises(RegimeMismatchError, match=rf"^{regime} declared but {spanning}/20 replicates"):
        run_annealed_clt(cfg)


@pytest.mark.parametrize("d,n,count", [(2, 1, 1850), (2, 5, 6), (1, 3, 60), (3, 1, 50)])
def test_colored_replicate_columns_match_one_copy_recompute(d, n, count):
    # A 3x3 box stacks 1820 copies per labeler call, so 1850 replicates take
    # two stacks and the second starts at replicate 1820; the first and last
    # 40 replicates are checked.
    lattice = build_box(d, n)
    for p in (0.0, 0.45, 0.8, 1.0):
        for rule in (PROXY_BOUNDARY_LARGEST, PROXY_DISABLED):
            cfg = ExperimentConfig(
                d=d, radii=n, p=p, nu="gaussian:0.5,2", graph_replicates=count,
                master_seed=3, proxy_rule=rule,
            )
            columns, _ = _colored_replicates(cfg, lattice, 0)
            for r in (r for r in range(count) if r < 40 or r >= count - 40):
                labeling = label_clusters(sample_config(lattice, p, 3, f"graph:{r}"), rule)
                colors = color_clusters(labeling, cfg.nu, derive_rng(3, f"color:{r}")).cluster_color
                ids = labeling.cluster_id.tolist()
                proxy = labeling.infinite_proxy
                finite = [i for i in ids if i != proxy]
                sizes = [ids.count(k) for k in range(labeling.k_n) if k != proxy]
                faces = {lattice.site_of(x)[0] for x, i in enumerate(ids) if i == proxy}
                assert columns["color_sum"][r] == pytest.approx(math.fsum(colors[ids]), abs=1e-9)
                assert columns["finite_color_sum"][r] == pytest.approx(
                    math.fsum(colors[finite]), abs=1e-9
                )
                assert columns["z"][r] == (colors[proxy] if proxy is not None else 0.0)
                assert columns["finite_square_sum"][r] == sum(s * s for s in sizes)
                assert columns["spans"][r] == ({-n, n} <= faces), (p, rule, r)


def test_annealed_clt_subcritical_gaussian_route():
    cfg = ExperimentConfig(
        d=2, radii=32, p=0.2, nu="two-point:-1,1,0.5",
        graph_replicates=200, master_seed=2,
        proxy_rule="disabled", regime="subcritical",
    )
    res = run_annealed_clt(cfg)
    assert res.passed()
    assert res.estimates["theta_pooled_box"] == 0.0
    assert res.estimates["sigma_p2_batch"] == 0.0
    assert isinstance(res.predictions["gamma"], GaussianLaw)
    contexts = [t.context for t in res.tests]
    assert any("gamma sampler" in c for c in contexts)
    assert any("Gaussian gamma" in c for c in contexts)


def test_annealed_clt_supercritical_mixture_route():
    # asymmetric colors at p above the threshold: gamma is a two-component
    # Gaussian mixture and the run checks both the sampler and the mixture
    cfg = ExperimentConfig(
        d=2, radii=128, p=0.7, nu="two-point:-1,1,0.3",
        graph_replicates=150, master_seed=42,
        regime="supercritical",
    )
    res = run_annealed_clt(cfg)
    assert res.passed()
    assert isinstance(res.predictions["gamma"], GaussianMixture)
    contexts = [t.context for t in res.tests]
    assert any("gamma sampler" in c for c in contexts)
    assert any("mixture" in c for c in contexts)
    assert len(res.samples["q_n"]) == 150


def test_cluster_clt_two_radii():
    cfg = ExperimentConfig(
        d=2, radii=(32, 64), p=0.7, nu="two-point:-1,1,0.5",
        graph_replicates=150, master_seed=42, ratio_rtol=0.6,
    )
    res = run_cluster_clt(cfg)
    assert res.passed()
    assert set(res.estimates["per_radius"]) == {"32", "64"}
    assert res.estimates["reference_radius"] == 64
    assert res.estimates["sigma_p2_reference"] == res.estimates["per_radius"]["64"]["sigma_p2"]
    assert set(res.samples) == {"statistic_n32", "statistic_n64"}
    contexts = [t.context for t in res.tests]
    assert sum("exactly zero mean" in c for c in contexts) == 2
    assert sum("KS against" in c for c in contexts) == 2
    stability = [t for t in res.tests if "stability" in t.context]
    assert len(stability) == 1
    assert stability[0].p_value == 1.0  # an exact bound check: 1.0 on pass, 0.0 on fail
    # centering is exact by construction
    assert abs(np.mean(res.samples["statistic_n32"])) <= 1e-9


def test_cluster_clt_per_radius_is_stand_in_volume():
    cfg = ExperimentConfig(
        d=2, radii=(4, 6), p=0.6, nu="two-point:-1,1,0.5", graph_replicates=9, master_seed=5,
    )
    res = run_cluster_clt(cfg)
    for radius in cfg.radii:
        lattice = build_box(2, radius)
        counts = map_labelings(
            lattice, cfg.p, cfg.master_seed, f"graph:{radius}", cfg.graph_replicates,
            lambda start, stack: {"proxy_sites": stack.proxy_sites},
        )["proxy_sites"].astype(np.float64)
        theta_box, sigma_p2 = stand_in_volume(counts, lattice.site_count)
        assert res.estimates["per_radius"][str(radius)] == {"theta_box": theta_box, "sigma_p2": sigma_p2}


def test_quenched_clt_nan_statistics_fail_their_bounds():
    # One coloring has no sample variance and no standard error: NaN must fail.
    cfg = ExperimentConfig(
        d=2, radii=8, p=0.3, nu="two-point:-1,1,0.5",
        color_replicates=1, master_seed=2,
    )
    res = run_quenched_clt(cfg)
    assert not res.passed()
    checks = {t.context.split(",")[0]: t for t in res.tests if "KS" not in t.context}
    assert set(checks) == {
        "quenched-clt: sample variance vs exact target",
        "quenched-clt: sample variance vs mean-cluster-size target",
        "quenched-clt: statistic mean within 4 standard errors of 0",
    }
    for report in checks.values():
        assert report.decision == "fail" and report.p_value == 0.0
    variance_checks = [t for c, t in checks.items() if "variance" in c]
    assert all(math.isnan(t.statistic) for t in variance_checks)


def test_cluster_clt_degenerate_boxes():
    for p in (0.0, 1.0):
        cfg = ExperimentConfig(
            d=2, radii=(4, 8), p=p, nu="two-point:-1,1,0.5",
            graph_replicates=20, master_seed=3,
        )
        res = run_cluster_clt(cfg)
        assert res.passed()
        assert res.estimates["sigma_p2_reference"] == 0.0
        assert res.predictions["cluster-clt"] == PointMass(value=0.0)
        assert len(res.tests) == 1


def test_weighted_lln_empty_graph_is_exact():
    # all-singleton configs: ratio = (N * N) / N^2 = 1 on both sides, and a
    # point-mass color makes every weighted average that color
    cfg = ExperimentConfig(
        d=2, radii=8, p=0.0, nu="two-point:5,5,0.5",
        graph_replicates=3, master_seed=1, proxy_rule="disabled",
    )
    res = run_weighted_lln_check(cfg)
    assert res.passed()
    assert res.estimates["condition_ratio_mean"] == 1.0
    assert res.estimates["condition_ratio_predicted"] == 1.0
    assert res.samples["weighted_average"] == [5.0, 5.0, 5.0]
    assert res.predictions["weighted-average-limit"] == PointMass(value=5.0)
    assert res.estimates["skipped_replicates"] == 0


def test_weighted_lln_single_replicate_conditional_se():
    cfg = ExperimentConfig(
        d=2, radii=16, p=0.3, nu="two-point:-1,1,0.5",
        graph_replicates=1, master_seed=4,
    )
    res = run_weighted_lln_check(cfg)
    assert res.passed()
    assert len(res.tests) == 2
    assert len(res.samples["weighted_average"]) == 1


def test_weighted_lln_full_lattice_skips_all():
    cfg = ExperimentConfig(
        d=2, radii=8, p=1.0, nu="two-point:-1,1,0.5",
        graph_replicates=5, master_seed=1,
    )
    res = run_weighted_lln_check(cfg)
    assert res.passed()
    assert res.estimates["skipped_replicates"] == 5
    assert len(res.tests) == 1
    assert "skipped" in res.tests[0].context
    assert "weighted_average" not in res.samples


def _comparable(res: RunResult):
    # repr() folds NaN standard errors into comparable text
    return (
        res.samples,
        repr(sorted(res.estimates.items())),
        [(t.decision, t.statistic, t.context) for t in res.tests],
    )


def test_worker_count_does_not_change_results():
    base = dict(
        d=2, radii=16, p=0.2, nu="two-point:-1,1,0.5",
        graph_replicates=40, master_seed=5, proxy_rule="disabled",
        regime="subcritical",
    )
    serial = run_annealed_clt(ExperimentConfig(**base, workers=1))
    threaded = run_annealed_clt(ExperimentConfig(**base, workers=4))
    assert _comparable(serial) == _comparable(threaded)

    base = dict(
        d=2, radii=16, p=0.4, nu="gaussian:0,1",
        color_replicates=200, master_seed=5,
    )
    serial = run_quenched_clt(ExperimentConfig(**base, workers=1))
    threaded = run_quenched_clt(ExperimentConfig(**base, workers=3))
    assert _comparable(serial) == _comparable(threaded)


def test_quenched_clt_color_chunks_match_per_coloring_streams():
    # Two full chunks and a partial one; coloring j comes from f"color:{j}"
    # whichever chunk and worker draws it.
    reps = 2 * _COLOR_CHUNK + 37
    base = dict(
        d=2, radii=6, p=0.4, nu="gaussian:0,1",
        color_replicates=reps, master_seed=11, margin=2,
    )
    stats = run_quenched_clt(ExperimentConfig(**base, workers=1)).samples["statistic"]
    assert len(stats) == reps
    assert stats == run_quenched_clt(ExperimentConfig(**base, workers=3)).samples["statistic"]
    nu = ExperimentConfig(**base).nu
    lattice = build_box(2, 6)
    labeling = label_clusters(sample_config(lattice, 0.4, 11, "graph:0"), PROXY_BOUNDARY_LARGEST)
    ids = labeling.cluster_id[inner_window(lattice, 2)]
    finite = ids[ids != labeling.infinite_proxy]
    assert ids.size == 81 and finite.size > 0
    for j in (0, _COLOR_CHUNK - 1, _COLOR_CHUNK, 2 * _COLOR_CHUNK, reps - 1):
        colors = color_clusters(labeling, nu, derive_rng(11, f"color:{j}")).cluster_color
        assert stats[j] == pytest.approx(math.fsum(colors[finite]) / math.sqrt(ids.size), abs=1e-12)


def test_quenched_clt_discrete_colors_identical_across_workers():
    # Three chunks of colorings share one law, and with it its draw tables,
    # across the pool threads.
    reps = 2 * _COLOR_CHUNK + 37
    base = dict(
        d=2, radii=6, p=0.4, nu="discrete:-1:0.2,0:0,2:0.8",
        color_replicates=reps, master_seed=11, margin=2,
    )
    serial = run_quenched_clt(ExperimentConfig(**base, workers=1)).samples["statistic"]
    assert len(serial) == reps and len(set(serial)) > 1
    assert serial == run_quenched_clt(ExperimentConfig(**base, workers=3)).samples["statistic"]


def test_colored_replicates_identical_across_workers_and_stacks():
    # 1850 replicates of a 3x3 box take two stacks of 1820 and 30 copies.
    lattice = build_box(2, 1)
    base = dict(d=2, radii=1, p=0.45, nu="gaussian:0.5,2", graph_replicates=1850, master_seed=3)
    serial, _ = _colored_replicates(ExperimentConfig(**base, workers=1), lattice, 0)
    threaded, _ = _colored_replicates(ExperimentConfig(**base, workers=3), lattice, 0)
    assert serial.keys() == threaded.keys()
    for name in serial:
        assert np.array_equal(serial[name], threaded[name]), name

    nu = ExperimentConfig(**base).nu

    def observe(start, stack):
        same = [
            np.array_equal(
                color_clusters(stack.view(c), nu, rng).cluster_color,
                color_clusters(stack.view(c), nu, derive_rng(3, f"color:{start + c}")).cluster_color,
            )
            for c, rng in enumerate(derive_streams(3, "color", start, stack.copies))
        ]
        return {"same": np.array(same)}

    same = map_labelings(lattice, 0.45, 3, "graph", 1850, observe, workers=3)["same"]
    assert same.shape == (1850,) and same.all()


def test_harness_warns_near_critical():
    cfg = ExperimentConfig(
        d=2, radii=4, p=0.5, nu="two-point:-1,1,0.5",
        graph_replicates=2, master_seed=1,
    )
    with pytest.warns(NearCriticalWarning):
        run_quenched_lln(cfg)


@pytest.mark.parametrize("run", [run_quenched_lln, run_quenched_clt])
def test_quenched_runs_warn_near_critical_once(run):
    cfg = ExperimentConfig(
        d=2, radii=4, p=0.5, nu="two-point:-1,1,0.5",
        graph_replicates=2, color_replicates=20, master_seed=1,
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run(cfg)
    assert sum(issubclass(w.category, NearCriticalWarning) for w in caught) == 1


def test_runresult_passed_reflects_reports():
    cfg = ExperimentConfig(d=2, radii=4, p=0.3, nu="two-point:-1,1,0.5")
    fail = TestReport(statistic=1.0, p_value=0.0, decision="fail", context="x")
    ok = TestReport(statistic=0.0, p_value=1.0, decision="pass", context="y")
    res = RunResult(
        experiment="t", config=cfg, estimates={},
        predictions={}, tests=[ok, fail], seeds={}, timing={},
    )
    assert not res.passed()
    res.tests = [ok]
    assert res.passed()
