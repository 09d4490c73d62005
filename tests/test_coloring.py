"""Color measures, parsing, and cluster coloring."""

from __future__ import annotations

import itertools
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dcl.coloring import (
    _COLOR_CHUNK,
    FiniteDiscrete,
    GaussianLaw,
    TwoPoint,
    atom_values,
    centered_sums,
    color_clusters,
    draw_table,
    parse_color_measure,
)
from dcl.harness import ExperimentConfig, run_quenched_lln
from dcl.lattice import build_box
from dcl.percolation import (
    PROXY_BOUNDARY_LARGEST,
    PROXY_DISABLED,
    label_clusters,
    sample_config,
    square_sums,
)
from dcl.rng import derive_rng, stream_log

from oracles import coloring_sum_pmf, multinomial_sums


def test_two_point_moments():
    nu = TwoPoint(-1.0, 1.0, 0.3)
    assert nu.mean == pytest.approx(-0.4)
    assert nu.variance == pytest.approx(0.3 * 0.7 * 4.0)


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


def test_gaussian_law_rejects_negative_variance():
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


def test_a_far_dead_atom_adds_no_variance():
    # Each variance would overflow a float if the dead atom were counted.
    assert TwoPoint(0.0, 1e200, 0.0).variance == 0.0
    assert TwoPoint(1e200, 0.0, 1.0).variance == 0.0
    assert FiniteDiscrete(((0.0, 1.0), (1e200, 0.0))).variance == 0.0


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
        "two-point:nan,1,0.5",
        "two-point:-1,inf,0.5",
        "two-point:-1,1,nan",
        "gaussian:0,nan",
        "gaussian:nan,1",
        "gaussian:-inf,1",
        "gaussian:0,inf",
        "discrete:1:nan,2:nan",
        "discrete:nan:0.5,2:0.5",
        "discrete:1:0.5,inf:0.5",
        "discrete:1:inf,2:-inf",
    ],
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_color_measure(bad)


def test_color_clusters_deterministic_and_keyed():
    lat = build_box(2, 5)
    labeling = label_clusters(sample_config(lat, 0.5, 3), PROXY_BOUNDARY_LARGEST)
    nu = TwoPoint(-1.0, 1.0, 0.5)
    k_n = int(labeling.k_n[0])
    a = color_clusters(k_n, nu, derive_rng(3, "color:0"))
    b = color_clusters(k_n, nu, derive_rng(3, "color:0"))
    c = color_clusters(k_n, nu, derive_rng(3, "color:1"))
    assert (a == b).all()
    assert not (a == c).all()
    assert a.shape == (k_n,)
    assert not a.flags.writeable


def test_z_reads_proxy_color_or_zero():
    # A quenched run's z is the color of its graph's stand-in, and 0 without one.
    lat = build_box(2, 3)
    nu = TwoPoint(0.5, 2.5, 0.5)
    base = dict(d=2, radii=3, nu=nu, graph_replicates=2, master_seed=1)
    full = label_clusters(sample_config(lat, 1.0, 1), PROXY_BOUNDARY_LARGEST)
    colors = color_clusters(int(full.k_n[0]), nu, derive_rng(1, "color:0"))
    z = run_quenched_lln(ExperimentConfig(**base, p=1.0)).estimates["z"]
    assert z == colors[full.proxy[0]]
    empty = label_clusters(sample_config(lat, 0.0, 1), PROXY_DISABLED)
    assert empty.proxy.tolist() == [-1]
    z = run_quenched_lln(ExperimentConfig(**base, p=0.0, proxy_rule=PROXY_DISABLED)).estimates["z"]
    assert z == 0.0


def test_point_mass_colors_every_site():
    lat = build_box(2, 4)
    labeling = label_clusters(sample_config(lat, 0.4, 9, "g"), PROXY_BOUNDARY_LARGEST)
    colors = color_clusters(int(labeling.k_n[0]), TwoPoint(2.0, 2.0, 0.3), derive_rng(9, "c"))
    assert (colors[labeling.stack_id[0]] == 2.0).all()


def test_windowed_sum_variance_identity_exact_enumeration():
    """Var over colorings of the windowed centered sum is exactly
    sigma2 times the windowed square sum, for any fixed labeling.

    Enumerating all two-point colorings of a small config makes the
    check exact instead of statistical.
    """
    lat = build_box(2, 1)
    config = sample_config(lat, 0.5, 12, "fixed")
    labeling = label_clusters(config, PROXY_DISABLED)
    nu = TwoPoint(-1.0, 1.0, 0.3)
    m = nu.mean
    k_n = int(labeling.k_n[0])
    # The window is the whole box, so each cluster's piece is its size.
    piece = np.bincount(labeling.stack_id[0], minlength=k_n)
    square_sum = int(np.dot(piece, piece))
    assert [route.tolist() for route in square_sums(labeling, 0)] == [[square_sum]] * 2

    total_sq = 0.0
    for assignment in itertools.product((-1.0, 1.0), repeat=k_n):
        weight = 1.0
        for c in assignment:
            weight *= 0.3 if c == 1.0 else 0.7
        centered = float(np.dot(piece, np.array(assignment) - m))
        total_sq += weight * centered**2
    assert total_sq == pytest.approx(nu.variance * square_sum, rel=1e-12)


@given(st.integers(min_value=0, max_value=2**31), st.floats(min_value=0.05, max_value=0.95))
@settings(max_examples=15, deadline=None)
def test_colors_follow_measure(seed, alpha):
    lat = build_box(2, 6)
    labeling = label_clusters(sample_config(lat, 0.2, seed, "g"), PROXY_DISABLED)
    nu = TwoPoint(0.0, 1.0, alpha)
    k_n = int(labeling.k_n[0])
    frac = color_clusters(k_n, nu, derive_rng(seed, "c")).mean()
    se = math.sqrt(alpha * (1 - alpha) / k_n)
    assert abs(frac - alpha) <= 5 * se + 1e-12


@pytest.mark.parametrize("count", [0, 1, 2, 7, 255, 256, 300])
def test_atom_index_counts_thresholds_at_or_below(count):
    # atom_values gathers atom i, i the number of thresholds <= u, so a table
    # whose atom i is i returns that count. Sorted thresholds with repeats, as
    # zero-weight atoms give; u hits each threshold exactly, its neighbouring
    # doubles, and both ends of [0, 1). That count is searchsorted's.
    r = np.random.default_rng(count).random(count)
    thresholds = draw_table(np.sort(np.concatenate([r, r[: count // 3]])))
    u = np.concatenate([
        thresholds,
        np.nextafter(thresholds, 0.0),
        np.nextafter(thresholds, 1.0),
        [0.0, np.nextafter(1.0, 0.0)],
    ])
    values = draw_table(np.arange(thresholds.size + 1))
    got = atom_values(values, thresholds, u)
    assert got.tolist() == [float(sum(t <= x for t in thresholds.tolist())) for x in u.tolist()]
    assert got.tolist() == np.searchsorted(thresholds, u, side="right").astype(np.float64).tolist()


SIZES = st.sampled_from([0, 1, 2, 17, 10_000])
SEEDS = st.integers(min_value=0, max_value=2**63)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
SQRT_MAX_FLOAT = math.sqrt(sys.float_info.max)


def _assert_same_draws(got, expected, rng, ref_rng):
    """Bitwise equal float64 draws, and both generators left in one state."""
    expected = np.asarray(expected, dtype=np.float64)
    assert got.dtype == np.float64 and got.shape == expected.shape
    assert (got.view(np.uint64) == expected.view(np.uint64)).all()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@st.composite
def two_point_params(draw):
    values = st.integers(-(2**31), 2**31) if draw(st.booleans()) else FINITE
    a = draw(values)
    b = a if draw(st.booleans()) else draw(values)
    alpha = draw(st.sampled_from([0.0, 1.0]) | st.floats(min_value=0.0, max_value=1.0))
    return a, b, alpha


@given(two_point_params(), SIZES, SEEDS)
@example((-1.0, 1.0, 0.0), 10_000, 1)
@example((-1.0, 1.0, 1.0), 10_000, 1)
@example((0.5, 0.5, 0.3), 1, 2)
@example((-1, 1, 0.3), 10_000, 3)
@settings(max_examples=150, deadline=None)
def test_two_point_draws_match_former_formula(params, size, seed):
    a, b, alpha = params
    try:
        nu = TwoPoint(a, b, alpha)
    except ValueError as exc:
        # alpha (1 - alpha) <= 1/4, so only atoms further apart than sqrt(max float) get here
        assert "variance must be finite" in str(exc) and abs(b - a) > SQRT_MAX_FLOAT
        return
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = nu.sample(rng, size)
    _assert_same_draws(got, np.where(ref_rng.random(size) < alpha, b, a), rng, ref_rng)


@st.composite
def discrete_atoms(draw):
    k = draw(st.integers(min_value=1, max_value=8))
    values = draw(st.lists(FINITE, min_size=k, max_size=k, unique=True))
    raw = draw(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=k, max_size=k))
    zero_at = draw(st.sampled_from([None, 0, k // 2, k - 1]))
    if zero_at is not None:
        raw[zero_at] = 0.0
    assume(math.fsum(raw) > 0.0)
    weights = [x / math.fsum(raw) for x in raw]
    # Move the total off 1 by up to the validation tolerance, keeping weights >= 0.
    top = max(range(k), key=weights.__getitem__)
    weights[top] = max(weights[top] + draw(st.floats(min_value=-1e-12, max_value=1e-12)), 0.0)
    assume(abs(math.fsum(weights) - 1.0) <= 1e-12)
    return tuple(zip(values, weights))


@given(discrete_atoms(), SIZES, SEEDS)
@example(((-1.0, 0.0), (0.0, 0.5), (2.0, 0.5)), 10_000, 1)
@example(((-1.0, 0.5), (0.0, 0.0), (2.0, 0.5)), 10_000, 1)
@example(((-1.0, 0.5), (0.0, 0.5 + 1e-13), (2.0, 0.0)), 10_000, 1)
@example(((3, 1.0),), 0, 1)
@settings(max_examples=150, deadline=None)
def test_discrete_draws_match_former_formula(atoms, size, seed):
    try:
        nu = FiniteDiscrete(atoms)
    except ValueError as exc:
        # a variance past max float needs an atom about sqrt(max float) from the mean
        assert "variance must be finite" in str(exc) and max(abs(v) for v, _ in atoms) > 1e153
        return
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = nu.sample(rng, size)
    values = np.array([v for v, _ in atoms])
    cum = np.cumsum([w for _, w in atoms])
    cum[-1] = 1.0
    expected = values[np.searchsorted(cum, ref_rng.random(size), side="right")]
    _assert_same_draws(got, expected, rng, ref_rng)


@pytest.mark.parametrize(
    "nu",
    [TwoPoint(-1.0, 1.0, 0.3), FiniteDiscrete(((-1.0, 0.2), (0.0, 0.0), (2.0, 0.8)))],
    ids=["two-point", "discrete"],
)
def test_draw_tables_are_read_only(nu):
    tables = [v for v in vars(nu).values() if isinstance(v, np.ndarray)]
    assert len(tables) == 3
    for table in tables:
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 0.0
    assert nu.sample(derive_rng(1, "c"), 3).flags.writeable


_LAWS = pytest.mark.parametrize(
    "nu",
    [
        TwoPoint(-1.0, 1.0, 0.3),
        FiniteDiscrete(((-1.0, 0.2), (0.0, 0.0), (2.0, 0.8))),
        GaussianLaw(0.5, 2.0),
        GaussianLaw(0.5, 0.0),
        TwoPoint(3.0, 3.0, 0.7),
        TwoPoint(-1.0, 1.0, 0.5),
        TwoPoint(-1.0, 1.0, 0.0),
        TwoPoint(-1.0, 1.0, 1.0),
        FiniteDiscrete(((0.1, 0.0), (0.2, 0.0), (0.7, 1.0))),
    ],
    ids=[
        "two-point", "discrete-zero-weight", "gaussian", "gaussian-variance-0", "point-mass",
        "signs", "alpha-0", "alpha-1", "dead-atoms",
    ],
)
_WINDOWS = pytest.mark.parametrize("lo,hi", [(0, 40), (17, 52), (0, 61), (23, 23)], ids=["head", "mid", "all", "empty"])


@_LAWS
@_WINDOWS
def test_color_block_rows_are_slices_of_color_clusters(nu, lo, hi):
    # Each row of a color chunk, one coloring's sum over ids lo..hi-1 of 61
    # with pieces 0..3, has the law of color_clusters' colors on the same
    # slice summed against the pieces: 10,000 of each, and their cumulative
    # distributions, on values rounded to 1e-9 so that one lattice point is
    # one value on both sides, stay within 0.06 of each other. Each empirical
    # law is within 0.03 of the common one except with probability at most
    # 2 exp(-2 * 10000 * 0.03**2) = 2 e^-18 by the DKW bound, so a correct
    # sampler fails with probability below 1e-7. Seeds fixed before the first run.
    piece = np.zeros(61, dtype=np.int64)
    piece[lo:hi] = np.arange(lo, hi) % 4
    count = 10_000
    sums = centered_sums(nu, 13, "color-chunk", count, piece)
    colors = color_clusters(61 * count, nu, derive_rng(13, "clusters")).reshape(count, 61)
    slices = (colors[:, lo:hi] - nu.mean) @ piece[lo:hi]
    if nu.variance == 0.0 or lo == hi:
        assert not sums.any() and not slices.any()
    rows, reference = np.sort(np.round(sums, 9)), np.sort(np.round(slices, 9))
    points = np.union1d(rows, reference)
    gap = np.searchsorted(rows, points, side="right") - np.searchsorted(reference, points, side="right")
    assert np.abs(gap).max() / count <= 0.06


@_LAWS
@_WINDOWS
def test_centered_sums_are_sums_of_per_size_counts(nu, lo, hi):
    # 300 colorings of 61 ids with pieces 0..3 on ids lo..hi-1: a full chunk
    # and a partial one, each drawn from its own stream color-chunk:i. The
    # plain loops redraw each chunk's per-size multinomial counts over the
    # atoms in draw-table order, and sum them with the same float operations
    # in the same order, so the sums agree bit for bit. A zero variance
    # (point mass, dead atoms, empty window) gives +0.0 exactly.
    piece = np.zeros(61, dtype=np.int64)
    piece[lo:hi] = np.arange(lo, hi) % 4
    count = _COLOR_CHUNK + 44
    with stream_log() as log:
        sums = centered_sums(nu, 4, "color-chunk", count, piece)
    assert log == {(4, "color-chunk"): 2}
    expected = []
    for i, start in enumerate(range(0, count, _COLOR_CHUNK)):
        rng = derive_rng(4, f"color-chunk:{i}")
        size = min(_COLOR_CHUNK, count - start)
        if isinstance(nu, GaussianLaw):
            sd = math.sqrt(nu.variance * sum(int(s) ** 2 for s in piece))
            expected += [sd * z for z in rng.standard_normal(size).tolist()] if sd else [0.0] * size
        else:
            expected += multinomial_sums(rng, size, piece.tolist(), _table_atoms(nu), nu.mean)
    assert sums.tobytes() == np.array(expected).tobytes()
    if nu.variance == 0.0 or lo == hi:
        assert not sums.any() and not np.signbit(sums).any()


def _table_atoms(nu) -> list[tuple[float, float]]:
    """nu's (value, weight) atoms in draw-table order: b before a for a two-point law."""
    if isinstance(nu, TwoPoint):
        return [(nu.b, nu.alpha), (nu.a, 1.0 - nu.alpha)]
    return list(nu.atoms_spec)


@pytest.mark.parametrize(
    "nu,atoms",
    [
        (TwoPoint(-1.0, 1.0, 0.3), [(-1, Fraction(7, 10)), (1, Fraction(3, 10))]),
        (
            FiniteDiscrete(((-1.0, 0.2), (0.5, 0.3), (2.0, 0.5))),
            [(-1, Fraction(1, 5)), (Fraction(1, 2), Fraction(3, 10)), (2, Fraction(1, 2))],
        ),
    ],
    ids=["two-point", "three-atom"],
)
def test_centered_sums_follow_the_enumerated_law(nu, atoms):
    # The exact law of sum_j piece[j] (c_j - m) over every coloring of eight
    # ids, two of them with piece 0, against the empirical law of 20,000 sums.
    # Both are step functions on the enumerated support, so the sup distance
    # is the largest gap of their cumulative sums there. By the DKW bound a
    # correct sampler exceeds 0.02 with probability at most
    # 2 exp(-2 * 20000 * 0.02**2) = 2 e^-16, about 2e-7.
    piece = [0, 1, 1, 2, 0, 3, 3, 5]
    pmf = coloring_sum_pmf(piece, atoms)
    m = sum(w * v for v, w in atoms)
    assert sum(pmf.values()) == 1
    assert sum(p * x for x, p in pmf.items()) == 0
    assert sum(p * x * x for x, p in pmf.items()) == sum(w * (v - m) ** 2 for v, w in atoms) * sum(s * s for s in piece)
    # The law's float weights and mean round those of the enumerated one.
    assert (nu.mean, nu.variance) == pytest.approx((m, sum(w * (v - m) ** 2 for v, w in atoms)))
    count = 20_000
    sums = centered_sums(nu, 7, "color-chunk", count, np.array(piece))
    support = np.array([float(x) for x in sorted(pmf)])
    nearest = np.abs(sums[:, None] - support).argmin(axis=1)
    assert np.abs(sums - support[nearest]).max() <= 1e-12
    empirical = np.cumsum(np.bincount(nearest, minlength=support.size)) / count
    exact = np.cumsum([float(pmf[x]) for x in sorted(pmf)])
    assert np.abs(empirical - exact).max() <= 0.02
