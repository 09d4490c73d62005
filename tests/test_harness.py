"""End-to-end experiment runs: predictions, checks, and determinism."""

from __future__ import annotations

import gc
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from dcl import cli, coloring, harness
from dcl.coloring import _COLOR_BLOCK_VALUES, _COLOR_CHUNK, FiniteDiscrete, centered_sums, color_clusters
from dcl.harness import (
    RUN_READS,
    ExperimentConfig,
    RegimeMismatchError,
    RunResult,
    _colored_replicates,
    recorded,
    run_annealed_clt,
    run_annealed_lln,
    run_cluster_clt,
    run_quenched_clt,
    run_quenched_lln,
    run_weighted_lln_check,
)
from dcl.lattice import build_box
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

from oracles import box_sites, tv_distance_to_atoms, window_sites


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
    with pytest.raises(ValueError, match=r"margin must lie in \[0, 16\], got 17"):
        ExperimentConfig(**good, margin=17)  # exceeds the largest radius
    # The margin trims the radius-16 box; radius 8 is a window inside it.
    for margin in (9, 16):
        assert ExperimentConfig(**good, margin=margin).margin == margin
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
    cfg = ExperimentConfig(d=2, radii=16, p=0.3, nu="two-point:-1,1,0.5", color_replicates=20, workers=8)
    d = cfg.to_dict("quenched-clt")
    assert d == {
        "experiment": "quenched-clt", "d": 2, "radii": [16], "p": 0.3, "nu": cfg.nu.to_dict(),
        "graph_replicates": 1, "color_replicates": 20, "master_seed": 0, "margin": None,
        "proxy_rule": "boundary-largest",
    }  # fmt: skip
    # identical science flags, different plumbing: same dict
    other = ExperimentConfig(d=2, radii=16, p=0.3, nu="two-point:-1,1,0.5", color_replicates=20)
    assert other.to_dict("quenched-clt") == d
    # each run echoes only what it reads
    assert set(cfg.to_dict("estimate")) == set(d) - {"nu", "color_replicates"}
    assert set(cfg.to_dict("cluster-clt")) == set(d) - {"nu", "color_replicates", "margin"} | {"ratio_rtol"}
    assert set(cfg.to_dict("annealed-clt")) == set(d) - {"color_replicates"} | {"regime"}


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
        graph_replicates=30, master_seed=9,
    )
    res = run_quenched_lln(cfg)
    assert res.passed()
    assert len(res.tests) == 1  # the exact decomposition
    assert res.samples["window_radius"] == [8.0, 16.0, 32.0]
    m_n = res.samples["m_k"][-1]
    assert res.estimates["m_n"] == m_n
    assert res.estimates["deviation"] == pytest.approx(
        abs(m_n - res.estimates["predicted_limit"])
    )
    assert res.seeds["master_seed"] == 9
    streams = [(s["role"], s["count"]) for s in res.seeds["streams"]]
    assert streams == [("graph", 1), ("estimate-graph", 30), ("color", 1)]


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


def test_annealed_lln_noisy_atoms_match_a_recomputation():
    # three live atoms at radius 16: the averages scatter around the atoms,
    # so the bins and the locations are recomputed from the sample itself
    cfg = ExperimentConfig(
        d=2, radii=16, p=0.7, nu="discrete:-1:0.2,0:0.3,2:0.5",
        graph_replicates=60, master_seed=17,
    )
    res = run_annealed_lln(cfg)
    assert res.passed()
    m_n = res.samples["m_n"]
    atoms = res.predictions["lln-limit"].atoms()
    values = sorted(v for v, _ in atoms)
    tol = 0.4999 * min(b - a for a, b in zip(values, values[1:]))
    binned = {
        v: [x for x in m_n if min(values, key=lambda u: abs(x - u)) == v and abs(x - v) <= tol]
        for v in values
    }
    assert len(set(m_n)) > 3  # noisy, not on the atoms
    assert res.estimates["atom_locations"] == {v: np.mean(xs) for v, xs in binned.items() if xs}
    tv = next(t for t in res.tests if "TV distance" in t.context)
    assert tv.statistic == float(tv_distance_to_atoms(m_n, atoms, tol))


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
    # margin=2 leaves a 13x13 window; the default margin at radius 8 leaves one site.
    cfg = ExperimentConfig(
        d=2, radii=8, p=0.3, nu="two-point:3,3,0.7",
        color_replicates=50, master_seed=1, margin=2,
    )
    res = run_quenched_clt(cfg)
    assert res.passed()
    assert res.estimates["variance_exact_target"] == 0.0
    assert all(v == 0.0 for v in res.samples["statistic"])
    assert res.predictions["quenched-clt"] == PointMass(value=0.0)
    assert len(res.tests) == 1


@pytest.mark.parametrize(
    "nu", ["discrete:0.1:0,0.2:0,0.7:1", "discrete:-0.3:0,0.1:0,0.7:0,1.9:1"], ids=["dead-2", "dead-3"]
)
def test_quenched_clt_dead_atoms_give_exactly_zero_statistics(nu):
    # One live atom after dead ones: the dead atoms' thresholds are all 0, so
    # every coloring's count of each dead atom is exactly 0 and the point-mass
    # check, max |statistic| == 0, holds with no rounding left over. The
    # window holds 160 sites outside the stand-in, a weight sum at which the
    # telescoped form sum_k (v_k - v_{k-1}) d_k leaves a rounding residue.
    cfg = ExperimentConfig(d=2, radii=8, p=0.3, nu=nu, color_replicates=50, master_seed=1, margin=2)
    res = run_quenched_clt(cfg)
    assert res.predictions["quenched-clt"] == PointMass(value=0.0)
    assert res.samples["statistic"] == [0.0] * 50
    assert res.passed()


_PAIRS = [("graph", 6), ("color", 6)]


@pytest.mark.parametrize(
    "run,nu,extra,roles",
    [
        # atomic lln-limit: compared by TV distance, no reference draws
        (run_annealed_lln, "two-point:-1,1,0.7", {}, _PAIRS),
        # continuous lln-limit: KS against its exact CDF, nothing sampled
        (run_annealed_lln, "gaussian:0,1", {}, _PAIRS),
        # point-mass gamma: exact zero check, nothing sampled
        (run_annealed_clt, "discrete:2.5:1", {"regime": "supercritical"}, _PAIRS),
        # Gaussian gamma: KS against its exact CDF, nothing sampled
        (run_annealed_clt, "two-point:-1,1,0.5", {"regime": "supercritical"}, _PAIRS),
        # Gaussian-mixture gamma: KS against its exact CDF, nothing sampled
        (run_annealed_clt, "two-point:-1,1,0.3", {"regime": "supercritical"}, _PAIRS),
        # quenched: the colored graph graph:0 first, then the estimate
        # graphs, then the colorings color:0, color:1, ...
        (
            run_quenched_clt, "two-point:-1,1,0.7", {"color_replicates": 40},
            [("graph", 1), ("estimate-graph", 6), ("color", 40)],
        ),
        (run_quenched_lln, "two-point:-1,1,0.7", {}, [("graph", 1), ("estimate-graph", 6), ("color", 1)]),
    ],
)
def test_seed_audit_lists_only_drawn_streams(run, nu, extra, roles):
    cfg = ExperimentConfig(
        d=2, radii=8, p=0.7, nu=nu, graph_replicates=6,
        master_seed=3, **extra,
    )
    res = run(cfg)
    assert res.seeds["master_seed"] == 3
    assert [(s["role"], s["count"]) for s in res.seeds["streams"]] == roles


def test_recorded_run_refuses_several_master_seeds():
    @recorded
    def two_seeds() -> RunResult:
        derive_rng(1, "a")
        list(derive_streams(2, "b", 0, 3))
        return RunResult(experiment="t", estimates={})

    with pytest.raises(RuntimeError, match=r"one master seed, saw \[1, 2\]"):
        two_seeds()


def test_recorded_run_refuses_no_streams():
    with pytest.raises(RuntimeError, match=r"saw \[\]"):
        recorded(lambda: RunResult(experiment="t", estimates={}))()


def test_streams_derived_before_a_run_are_not_counted():
    cfg = ExperimentConfig(
        d=2, radii=8, p=0.7, nu="two-point:-1,1,0.7", graph_replicates=6, master_seed=3,
    )
    list(derive_streams(3, "graph", 99, 1))
    list(derive_streams(3, "color", 0, 4))
    first = run_annealed_lln(cfg)
    assert [(s["role"], s["count"]) for s in first.seeds["streams"]] == _PAIRS
    # and one run's count does not carry into the next
    assert run_annealed_lln(cfg).seeds == first.seeds


@pytest.mark.parametrize(
    "run",
    [run_quenched_lln, run_annealed_lln, run_quenched_clt, run_annealed_clt, run_weighted_lln_check],
)
def test_coloring_runs_refuse_a_missing_color_measure(run):
    cfg = ExperimentConfig(d=2, radii=4, p=0.7, graph_replicates=3, regime="supercritical")
    with pytest.raises(ValueError, match="color measure"):
        run(cfg)


_EXPERIMENT = {
    run_quenched_lln: "quenched-lln",
    run_annealed_lln: "annealed-lln",
    run_quenched_clt: "quenched-clt",
    run_annealed_clt: "annealed-clt",
    run_cluster_clt: "cluster-clt",
    run_weighted_lln_check: "weighted-lln",
    cli._run_estimate: "estimate",
}
# Each optional field a run may not read, a value away from its default.
_UNREAD_VALUES = {
    "nu": "two-point:-1,1,0.3",
    "color_replicates": 50,
    "margin": 2,
    "regime": "supercritical",
    "ratio_rtol": 0.3,
}
_UNREAD = {
    name: (value, [run for run, experiment in _EXPERIMENT.items() if name not in RUN_READS[experiment]])
    for name, value in _UNREAD_VALUES.items()
}


def _no_box(*args):
    raise AssertionError("built a box")


@pytest.mark.parametrize(
    "setting,run",
    [(name, run) for name, (_, runs) in _UNREAD.items() for run in runs],
    ids=lambda v: getattr(v, "__name__", v),
)
def test_runs_refuse_settings_they_do_not_read(setting, run, monkeypatch):
    # Refused before the box is built, so before any sampling.
    monkeypatch.setattr(harness, "build_box", _no_box)
    monkeypatch.setattr(cli, "build_box", _no_box)
    reads = RUN_READS[_EXPERIMENT[run]]
    base = dict(d=2, radii=4, p=0.7, graph_replicates=3)
    if "nu" in reads:
        base["nu"] = "two-point:-1,1,0.3"
    if "regime" in reads:
        base["regime"] = "supercritical"
    cfg = ExperimentConfig(**base, **{setting: _UNREAD[setting][0]})
    with pytest.raises(ValueError, match=f"^this run reads no {setting}, got"):
        run(cfg)


def test_annealed_clt_requires_regime():
    cfg = ExperimentConfig(
        d=2, radii=8, p=0.2, nu="two-point:-1,1,0.5",
        graph_replicates=5, master_seed=1,
    )
    with pytest.raises(ValueError, match="regime"):
        run_annealed_clt(cfg)


@pytest.mark.parametrize(
    "run",
    [run_annealed_lln, run_quenched_clt, run_annealed_clt, run_weighted_lln_check, cli._run_estimate],
    ids=lambda run: run.__name__,
)
def test_single_box_runs_refuse_several_radii(run, monkeypatch):
    # A single-box run would read only the largest radius; it refuses the
    # rest before a box is built.
    monkeypatch.setattr(harness, "build_box", _no_box)
    monkeypatch.setattr(cli, "build_box", _no_box)
    base = dict(d=2, radii=(4, 8), p=0.7, graph_replicates=3)
    if run is not cli._run_estimate:
        base["nu"] = "two-point:-1,1,0.3"
    if run is run_annealed_clt:
        base["regime"] = "supercritical"
    with pytest.raises(ValueError, match=r"runs one box: give one radius, got \[4, 8\]$"):
        run(ExperimentConfig(**base))


def test_annealed_clt_refuses_supercritical_without_stand_in(monkeypatch):
    # With the stand-in rule off theta_box = sigma_p2 = 0, so gamma would
    # leave out the giant cluster's term and chi_f would count the giant
    # cluster as finite. A declared supercritical regime is refused before a
    # box is built, not after sampling every graph.
    monkeypatch.setattr(harness, "build_box", _no_box)
    cfg = ExperimentConfig(
        d=2, radii=16, p=0.9, nu="two-point:-1,1,0.5",
        graph_replicates=10, master_seed=1,
        proxy_rule="disabled", regime="supercritical",
    )
    with pytest.raises(ValueError, match="proxy rule 'disabled' picks none"):
        run_annealed_clt(cfg)


@pytest.mark.parametrize(
    "regime,p,spanning,proxy_rule",
    [
        pytest.param("supercritical", 0.1, 0, PROXY_BOUNDARY_LARGEST, id="supercritical-0.1-0"),
        pytest.param("subcritical", 0.7, 20, PROXY_BOUNDARY_LARGEST, id="subcritical-0.7-20"),
        pytest.param("subcritical", 0.7, 20, PROXY_DISABLED, id="subcritical-0.7-20-disabled"),
    ],
)
def test_annealed_clt_rejects_contradicted_regime(regime, p, spanning, proxy_rule):
    # The default stand-in rule always finds a boundary cluster, so only
    # spanning tells the regimes apart: at p=0.1 no cluster crosses a 33x33
    # box, at p=0.7 one does in every replicate, with or without a stand-in.
    cfg = ExperimentConfig(
        d=2, radii=16, p=p, nu="two-point:-1,1,0.5",
        graph_replicates=20, master_seed=19, regime=regime, proxy_rule=proxy_rule,
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
                labeling = label_clusters(sample_config(lattice, p, 3, "graph", r), rule)
                k_n = int(labeling.k_n[0])
                colors = color_clusters(k_n, cfg.nu, derive_rng(3, f"color:{r}"))
                ids = labeling.stack_id[0].tolist()
                proxy = int(labeling.proxy[0]) if labeling.proxy[0] >= 0 else None
                finite = [i for i in ids if i != proxy]
                sizes = [ids.count(k) for k in range(k_n) if k != proxy]
                faces = {k: set() for k in range(k_n)}
                for x, i in zip(box_sites(d, n), ids):
                    faces[i].add(x[0])
                assert columns["color_sum"][r] == pytest.approx(math.fsum(colors[ids]), abs=1e-9)
                assert columns["finite_color_sum"][r] == pytest.approx(
                    math.fsum(colors[finite]), abs=1e-9
                )
                assert columns["z"][r] == (colors[proxy] if proxy is not None else 0.0)
                assert columns["finite_square_sum"][r] == sum(s * s for s in sizes)
                spans = any({-n, n} <= first_coords for first_coords in faces.values())
                assert columns["spans"][r] == spans, (p, rule, r)


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
    assert contexts == ["annealed-clt: KS against the closed-form Gaussian gamma"]


def test_annealed_clt_supercritical_mixture_route():
    # asymmetric colors at p above the threshold: gamma is a two-component
    # Gaussian mixture, checked by one-sample KS against its exact CDF
    cfg = ExperimentConfig(
        d=2, radii=128, p=0.7, nu="two-point:-1,1,0.3",
        graph_replicates=150, master_seed=42,
        regime="supercritical",
    )
    res = run_annealed_clt(cfg)
    assert res.passed()
    assert isinstance(res.predictions["gamma"], GaussianMixture)
    contexts = [t.context for t in res.tests]
    assert contexts == ["annealed-clt: KS against the closed-form Gaussian mixture gamma"]
    assert len(res.samples["q_n"]) == 150


def test_cluster_clt_two_radii():
    cfg = ExperimentConfig(
        d=2, radii=(32, 64), p=0.7, graph_replicates=150, master_seed=42, ratio_rtol=0.6,
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
        d=2, radii=(4, 6), p=0.6, graph_replicates=9, master_seed=5,
    )
    res = run_cluster_clt(cfg)
    for radius in cfg.radii:
        lattice = build_box(2, radius)
        (columns,) = map_labelings(
            [(lattice, cfg.p, f"graph:{radius}")], cfg.master_seed, cfg.graph_replicates,
            lambda start, stack: {"proxy_sites": stack.proxy_sites},
        )
        counts = columns["proxy_sites"].astype(np.float64)
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
            d=2, radii=(4, 8), p=p, graph_replicates=20, master_seed=3,
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


@pytest.mark.parametrize("graphs", [1, 5])
def test_weighted_lln_point_mass_colors_are_an_exact_check(graphs):
    # colors of 0.1 average to 0.1 only up to rounding, and both standard
    # errors are 0, so a 3-SE band of 0 would fail a correct run
    cfg = ExperimentConfig(
        d=2, radii=6, p=0.0, nu="two-point:0.1,0.1,0.5",
        graph_replicates=graphs, master_seed=17, proxy_rule="disabled",
    )
    res = run_weighted_lln_check(cfg)
    assert res.passed()
    check = res.tests[-1]
    assert "exact check for point-mass colors" in check.context
    assert 0.0 < check.statistic <= 1e-9


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
    parallel = run_annealed_clt(ExperimentConfig(**base, workers=4))
    assert _comparable(serial) == _comparable(parallel)

    base = dict(
        d=2, radii=16, p=0.4, nu="gaussian:0,1",
        color_replicates=200, master_seed=5,
    )
    serial = run_quenched_clt(ExperimentConfig(**base, workers=1))
    parallel = run_quenched_clt(ExperimentConfig(**base, workers=3))
    assert _comparable(serial) == _comparable(parallel)


@pytest.mark.parametrize(
    "nu", ["gaussian:0,1", "two-point:-1,1,0.3", "discrete:-1:0.2,0:0.3,2.5:0.5", "two-point:-1,1,0.5"]
)
def test_quenched_clt_color_chunks_match_per_coloring_streams(nu):
    # Two full chunks and a partial one. The window reads ids 11..147 of 175,
    # so a block holds 2**15 // 137 = 239 colorings and each chunk ends in a
    # partial block. Coloring j comes from f"color:{j}" whichever chunk,
    # block and worker draws it. With +-1 colors of mean 0 the sums are
    # exact integers, so they equal the correctly rounded fsum bit for bit.
    reps = 2 * _COLOR_CHUNK + 37
    base = dict(d=2, radii=12, p=0.4, nu=nu, color_replicates=reps, master_seed=11, margin=4)
    stats = run_quenched_clt(ExperimentConfig(**base, workers=1)).samples["statistic"]
    assert len(stats) == reps
    assert stats == run_quenched_clt(ExperimentConfig(**base, workers=3)).samples["statistic"]
    law = ExperimentConfig(**base).nu
    lattice = build_box(2, 12)
    labeling = label_clusters(sample_config(lattice, 0.4, 11), PROXY_BOUNDARY_LARGEST)
    ids = labeling.stack_id[0, window_sites(2, 12, 4)]
    finite = ids[ids != labeling.proxy[0]]
    lo, hi = int(finite.min()), int(finite.max()) + 1
    rows = _COLOR_BLOCK_VALUES // (hi - lo)
    assert (lo, hi, labeling.k_n.tolist()) == (11, 148, [175])
    assert _COLOR_CHUNK % rows and reps % _COLOR_CHUNK < rows
    for j in range(reps):
        colors = color_clusters(175, law, derive_rng(11, f"color:{j}"))
        expected = math.fsum(colors[finite] - law.mean) / math.sqrt(ids.size)
        assert stats[j] == pytest.approx(expected, abs=1e-12)
        if nu == "two-point:-1,1,0.5":
            assert stats[j] == expected


@pytest.mark.parametrize("nu", ["two-point:-1,1,0.3", "discrete:-1:0.2,0:0.3,2.5:0.5"])
def test_quenched_color_loop_allocates_nothing_per_block(nu, monkeypatch):
    # numpy reports its buffers to tracemalloc. Over 1000 read ids a block
    # holds 32 colorings, so one chunk of 256 is drawn in 8 blocks, 32
    # colorings in one, and 2 chunks and 37 more in 3 chunks. Within a chunk
    # the traced peaks differ by the table of d_k and the sums (one float
    # per atom per coloring, and one more), so no block leaves anything
    # behind. Across chunks they differ by the sums of one chunk, kept while
    # the next is drawn, up to the Python objects of the chunk loop (the
    # results list and the chunk offsets above 256), so no chunk leaves its
    # buffers behind. Above the block of uniforms (and one of masks for two
    # or more thresholds), one bool mask of the block, the table, the sums,
    # the read ids and the float weights, it stays under one more bool mask,
    # so no block-sized temporary is made either. The generators are built
    # before tracing starts and stand in for derive_streams' own, and a
    # first call warms numpy up. A float or tuple taken from CPython's free
    # lists is not traced, so what earlier code left there moved the peaks
    # by up to 384 bytes; a full collection empties those lists before
    # each traced call.
    law = ExperimentConfig(d=2, radii=4, p=0.4, nu=nu).nu
    lo, span = 11, 1000
    piece = np.zeros(lo + span, dtype=np.int64)
    piece[lo:] = 1 + np.arange(span) % 3
    rows = _COLOR_BLOCK_VALUES // span
    peaks = []
    for count in (_COLOR_CHUNK, rows, _COLOR_CHUNK, 2 * _COLOR_CHUNK + 37):
        streams = [derive_rng(11, f"color:{j}") for j in range(count)]
        monkeypatch.setattr(
            coloring, "derive_streams", lambda seed, role, start, n, skip: itertools.islice(streams, start, start + n)
        )
        gc.collect()
        tracemalloc.start()
        try:
            centered_sums(law, 11, "color", count, piece)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    atoms = len(law.atoms())
    assert abs(peaks[2] - peaks[1] - 8 * (atoms + 1) * (_COLOR_CHUNK - rows)) <= 64
    assert abs(peaks[3] - peaks[2] - 8 * _COLOR_CHUNK) <= 256
    buffers = (1 + (atoms > 2)) * rows * span * 8 + rows * span + 8 * (atoms + 1) * _COLOR_CHUNK + 8 * (span + piece.size)
    assert buffers < peaks[2] < buffers + rows * span


def test_quenched_clt_empty_read_range_still_counts_every_color_stream():
    # At p=1 the stand-in covers the window, so the statistic reads no
    # cluster: every value is exactly 0, and each coloring's stream is still
    # derived and listed, on every worker.
    cfg = ExperimentConfig(
        d=2, radii=4, p=1.0, nu="two-point:-1,1,0.3", color_replicates=_COLOR_CHUNK + 37, workers=2
    )
    result = run_quenched_clt(cfg)
    assert result.samples["statistic"] == [0.0] * cfg.color_replicates
    assert result.seeds["streams"][-1] == {"role": "color", "count": cfg.color_replicates}
    assert result.passed()


def test_quenched_clt_discrete_colors_identical_across_workers():
    # Three chunks of colorings share one law, and with it its draw tables,
    # across the worker processes.
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
    parallel, _ = _colored_replicates(ExperimentConfig(**base, workers=3), lattice, 0)
    assert serial.keys() == parallel.keys()
    for name in serial:
        assert np.array_equal(serial[name], parallel[name]), name

    nu = ExperimentConfig(**base).nu

    def observe(start, stack):
        same = [
            np.array_equal(
                color_clusters(int(stack.k_n[c]), nu, rng),
                color_clusters(int(stack.k_n[c]), nu, derive_rng(3, f"color:{start + c}")),
            )
            for c, rng in enumerate(derive_streams(3, "color", start, stack.copies))
        ]
        return {"same": np.array(same)}

    (columns,) = map_labelings([(lattice, 0.45, "graph")], 3, 1850, observe, workers=3)
    same = columns["same"]
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
        d=2, radii=4, p=0.5, nu="two-point:-1,1,0.5", graph_replicates=2,
        color_replicates=20 if run is run_quenched_clt else 1, master_seed=1,
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run(cfg)
    assert sum(issubclass(w.category, NearCriticalWarning) for w in caught) == 1


def test_runresult_passed_reflects_reports():
    fail = TestReport(statistic=1.0, p_value=0.0, decision="fail", context="x")
    ok = TestReport(statistic=0.0, p_value=1.0, decision="pass", context="y")
    res = RunResult(
        experiment="t", estimates={},
        predictions={}, tests=[ok, fail], seeds={}, timing={},
    )
    assert not res.passed()
    res.tests = [ok]
    assert res.passed()
