"""Color measures, parsing, and cluster coloring."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcl.coloring import (
    FiniteDiscrete,
    GaussianLaw,
    TwoPoint,
    color_clusters,
    double_factorial_odd,
    moments,
    parse_color_measure,
)
from dcl.lattice import build_box, inner_window
from dcl.percolation import (
    PROXY_BOUNDARY_LARGEST,
    PROXY_DISABLED,
    label_clusters,
    sample_config,
    square_sums,
)
from dcl.rng import derive_rng


def test_two_point_moments():
    nu = TwoPoint(-1.0, 1.0, 0.3)
    assert nu.mean == pytest.approx(-0.4)
    assert nu.variance == pytest.approx(0.3 * 0.7 * 4.0)
    # central even moments: alpha (b-m)^2k + (1-alpha)(a-m)^2k
    m = nu.mean
    for k in (1, 2, 3):
        manual = 0.3 * (1.0 - m) ** (2 * k) + 0.7 * (-1.0 - m) ** (2 * k)
        assert nu.central_even_moment(k) == pytest.approx(manual)


def test_two_point_degenerate_mean_is_exact():
    nu = TwoPoint(0.7, 0.7, 0.3)
    assert nu.mean == 0.7  # bitwise, not just approximately
    assert nu.variance == 0.0
    assert nu.atoms() == ((0.7, 1.0),)


def test_two_point_alpha_bounds():
    assert TwoPoint(-1.0, 1.0, 0.0).variance == 0.0
    assert TwoPoint(-1.0, 1.0, 1.0).mean == 1.0
    with pytest.raises(ValueError):
        TwoPoint(-1.0, 1.0, 1.5)


def test_gaussian_law_central_moments():
    nu = GaussianLaw(2.0, 1.7)
    for k in (1, 2, 3, 4):
        assert nu.central_even_moment(k) == pytest.approx(
            double_factorial_odd(k) * 1.7**k
        )
    with pytest.raises(ValueError):
        GaussianLaw(0.0, -1.0)


def test_gaussian_law_zero_variance_sampling():
    nu = GaussianLaw(3.0, 0.0)
    draws = nu.sample(derive_rng(1, "g"), 5)
    assert (draws == 3.0).all()


def test_finite_discrete_validation_and_moments():
    nu = FiniteDiscrete(((-1.0, 0.25), (0.0, 0.5), (2.0, 0.25)))
    assert nu.mean == pytest.approx(0.25)
    manual_var = 0.25 * (-1.25) ** 2 + 0.5 * 0.25**2 + 0.25 * 1.75**2
    assert nu.variance == pytest.approx(manual_var)
    with pytest.raises(ValueError):
        FiniteDiscrete(((0.0, 0.5), (1.0, 0.6)))
    with pytest.raises(ValueError):
        FiniteDiscrete(((0.0, 0.5), (0.0, 0.5)))
    with pytest.raises(ValueError):
        FiniteDiscrete(())


def test_double_factorial_odd():
    assert [double_factorial_odd(k) for k in range(1, 5)] == [1.0, 3.0, 15.0, 105.0]


def test_moments_helper_consistency():
    for nu in (TwoPoint(-1.0, 1.0, 0.4), GaussianLaw(0.5, 2.0),
               FiniteDiscrete(((0.0, 0.5), (3.0, 0.5)))):
        m, sigma2, central = moments(nu)
        assert m == nu.mean
        assert sigma2 == nu.variance
        assert central(1) == pytest.approx(sigma2)


@pytest.mark.parametrize(
    "text,expected",
    [
        ("two-point:-1,1,0.5", TwoPoint(-1.0, 1.0, 0.5)),
        ("two-point:0,3,0.25", TwoPoint(0.0, 3.0, 0.25)),
        ("gaussian:0,1", GaussianLaw(0.0, 1.0)),
        ("gaussian:-2.5,0.5", GaussianLaw(-2.5, 0.5)),
        ("discrete:-1:0.5,1:0.5", FiniteDiscrete(((-1.0, 0.5), (1.0, 0.5)))),
    ],
)
def test_parse_color_measure(text, expected):
    assert parse_color_measure(text) == expected


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "two-point:1,2",
        "two-point:1,2,3,4",
        "uniform:0,1",
        "gaussian:0",
        "gaussian:0,-1",
        "discrete:",
        "discrete:1:0.4,2:0.4",
        "two-point:a,b,c",
    ],
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_color_measure(bad)


def test_color_clusters_deterministic_and_keyed():
    lat = build_box(2, 5)
    labeling = label_clusters(sample_config(lat, 0.5, 3, "graph:0"), PROXY_BOUNDARY_LARGEST)
    nu = TwoPoint(-1.0, 1.0, 0.5)
    a = color_clusters(labeling, nu, derive_rng(3, "color:0"))
    b = color_clusters(labeling, nu, derive_rng(3, "color:0"))
    c = color_clusters(labeling, nu, derive_rng(3, "color:1"))
    assert (a.cluster_color == b.cluster_color).all()
    assert not (a.cluster_color == c.cluster_color).all()
    assert a.cluster_color.shape == (labeling.k_n,)


def test_z_reads_proxy_color_or_zero():
    lat = build_box(2, 3)
    nu = TwoPoint(0.5, 2.5, 0.5)
    full = label_clusters(sample_config(lat, 1.0, 1, "g"), PROXY_BOUNDARY_LARGEST)
    field = color_clusters(full, nu, derive_rng(1, "c"))
    assert field.z == field.cluster_color[full.infinite_proxy]
    empty = label_clusters(sample_config(lat, 0.0, 1, "g"), PROXY_DISABLED)
    assert color_clusters(empty, nu, derive_rng(1, "c")).z == 0.0


def test_point_mass_colors_every_site():
    lat = build_box(2, 4)
    labeling = label_clusters(sample_config(lat, 0.4, 9, "g"), PROXY_BOUNDARY_LARGEST)
    field = color_clusters(labeling, TwoPoint(2.0, 2.0, 0.3), derive_rng(9, "c"))
    sites = np.arange(lat.site_count, dtype=np.int64)
    assert (field.values(sites) == 2.0).all()


def test_site_color_lookup_matches_labels():
    lat = build_box(2, 3)
    labeling = label_clusters(sample_config(lat, 0.5, 2, "g"), PROXY_DISABLED)
    field = color_clusters(labeling, GaussianLaw(0.0, 1.0), derive_rng(2, "c"))
    for i in (0, lat.origin, lat.site_count - 1):
        assert field.site_color(i) == field.cluster_color[labeling.cluster_id[i]]


def test_windowed_sum_variance_identity_exact_enumeration():
    """Var over colorings of the windowed centered sum is exactly
    sigma2 times the windowed square sum, for any fixed labeling.

    Enumerating all two-point colorings of a small config makes the
    check exact instead of statistical.
    """
    lat = build_box(2, 1)
    config = sample_config(lat, 0.5, seed=12, stream_tag="fixed")
    labeling = label_clusters(config, PROXY_DISABLED)
    window = inner_window(lat, 0)
    nu = TwoPoint(-1.0, 1.0, 0.3)
    m = nu.mean
    per_site, per_cluster = square_sums(labeling, 0)
    assert per_site == per_cluster

    piece = np.bincount(labeling.cluster_id[window], minlength=labeling.k_n)
    total_sq = 0.0
    for assignment in itertools.product((-1.0, 1.0), repeat=labeling.k_n):
        weight = 1.0
        for c in assignment:
            weight *= 0.3 if c == 1.0 else 0.7
        centered = float(np.dot(piece, np.array(assignment) - m))
        total_sq += weight * centered**2
    assert total_sq == pytest.approx(nu.variance * per_site, rel=1e-12)


@given(st.integers(min_value=0, max_value=2**31), st.floats(min_value=0.05, max_value=0.95))
@settings(max_examples=15, deadline=None)
def test_colors_follow_measure(seed, alpha):
    lat = build_box(2, 6)
    labeling = label_clusters(sample_config(lat, 0.2, seed, "g"), PROXY_DISABLED)
    nu = TwoPoint(0.0, 1.0, alpha)
    field = color_clusters(labeling, nu, derive_rng(seed, "c"))
    frac = field.cluster_color.mean()
    se = math.sqrt(alpha * (1 - alpha) / labeling.k_n)
    assert abs(frac - alpha) <= 5 * se + 1e-12
