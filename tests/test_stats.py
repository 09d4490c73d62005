"""Moment summaries, KS machinery, and discrete TV distance."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dcl.coloring import GaussianLaw, TwoPoint
from dcl.rng import derive_rng
from dcl.stats import (
    TestReport,
    exact_check_report,
    gaussian_cdf,
    kolmogorov_sf,
    ks_one_sample,
    ks_one_sample_gaussian,
    ks_two_sample,
    nearest_atoms,
    summarize,
    tv_distance_discrete,
)
from dcl.theory import GaussianMixture
from oracles import summarize_onepass, tv_distance_to_atoms


def test_summarize_hand_values():
    # worked by hand for x = (1, 2, 4, 8): mean 15/4, s2 115/12,
    # m2 7.1875, m3 12.65625, m4 98.20703125
    s = summarize([1.0, 2.0, 4.0, 8.0])
    assert s.count == 4
    assert s.mean == pytest.approx(3.75)
    assert s.variance == pytest.approx(115.0 / 12.0)
    assert s.skewness == pytest.approx(1.1376243669576889)
    assert s.excess_kurtosis == pytest.approx(0.7576559546313781)
    assert s.se_mean == pytest.approx(math.sqrt((115.0 / 12.0) / 4.0))
    assert s.se_variance == pytest.approx((115.0 / 12.0) * math.sqrt(2.0 / 3.0))


def test_summarize_symmetric_sample_has_zero_skew():
    s = summarize([-2.0, -1.0, 1.0, 2.0])
    assert s.mean == 0.0
    assert s.skewness == pytest.approx(0.0, abs=1e-15)


def test_summarize_edge_cases():
    with pytest.raises(ValueError):
        summarize([])
    single = summarize([4.2])
    assert single.count == 1 and single.mean == 4.2
    assert math.isnan(single.variance) and math.isnan(single.skewness)
    const = summarize([3.0, 3.0, 3.0, 3.0, 3.0])
    assert const.variance == 0.0
    assert math.isnan(const.skewness) and math.isnan(const.excess_kurtosis)
    assert const.se_mean == 0.0
    pair = summarize([0.0, 1.0])
    assert math.isnan(pair.skewness) and math.isnan(pair.excess_kurtosis)
    assert pair.variance == pytest.approx(0.5)
    trio = summarize([0.0, 1.0, 5.0])
    assert not math.isnan(trio.skewness)
    assert math.isnan(trio.excess_kurtosis)


def test_summarize_accepts_arrays_and_iterables():
    arr = np.array([1.0, 2.0, 3.0])
    assert _fields_close(summarize(arr), summarize(iter([1.0, 2.0, 3.0])))


def _fields_close(a, b, scale: float = 1.0) -> bool:
    # shape moments are ill conditioned when the spread is at rounding
    # level relative to the values themselves; skip them there
    well_spread = not math.isnan(a.variance) and a.variance > (1e-7 * scale) ** 2
    for name in ("mean", "variance", "skewness", "excess_kurtosis", "se_mean", "se_variance"):
        if name in ("skewness", "excess_kurtosis") and not well_spread:
            continue
        x, y = getattr(a, name), getattr(b, name)
        if math.isnan(x) != math.isnan(y):
            return False
        if not math.isnan(x) and not math.isclose(x, y, rel_tol=1e-9, abs_tol=1e-9 * scale * scale):
            return False
    return a.count == b.count


@settings(max_examples=120, deadline=None)
@given(st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=1, max_size=200))
@example([0.0, 0.0, 0.0, 2.39e-106])  # m2 * m2 underflows to 0
def test_onepass_matches_twopass(values):
    scale = 1.0 + max(abs(v) for v in values)
    assert _fields_close(summarize(values), summarize_onepass(values), scale)


def test_onepass_far_from_zero():
    # exact variance of the offsets is 157/96; the two-pass keeps full
    # precision under a 1e8 shift while the streaming route loses digits
    # to the running mean (still plenty for its diagnostic role)
    base = [1e8 + v for v in (0.5, 1.25, -0.75, 2.0, -1.5, 0.25)]
    a, b = summarize(base), summarize_onepass(base)
    assert a.variance == pytest.approx(157.0 / 96.0, rel=1e-12)
    assert b.variance == pytest.approx(157.0 / 96.0, rel=1e-6)
    assert a.skewness == pytest.approx(b.skewness, rel=1e-4)


def test_onepass_empty_rejected():
    with pytest.raises(ValueError):
        summarize_onepass([])


def test_kolmogorov_sf_reference_points():
    # classical table entries
    assert kolmogorov_sf(1.36) == pytest.approx(0.049485876755377876, rel=1e-12)
    assert kolmogorov_sf(1.63) == pytest.approx(0.009846364888486529, rel=1e-12)
    assert kolmogorov_sf(0.5) == pytest.approx(0.9639452436648751, rel=1e-12)
    assert kolmogorov_sf(0.0) == 1.0
    assert kolmogorov_sf(-3.0) == 1.0
    assert kolmogorov_sf(10.0) == pytest.approx(0.0, abs=1e-30)


def test_kolmogorov_sf_monotone():
    ys = np.linspace(0.01, 3.0, 50)
    vals = [kolmogorov_sf(float(y)) for y in ys]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert all(0.0 <= v <= 1.0 for v in vals)


def test_gaussian_cdf_reference_points():
    assert gaussian_cdf(0.0, 0.0, 1.0) == pytest.approx(0.5)
    assert gaussian_cdf(1.0, 0.0, 1.0) == pytest.approx(0.8413447460685429, rel=1e-12)
    # location/scale: P(X <= mu + sigma) is the same number
    assert gaussian_cdf(5.0, 3.0, 4.0) == pytest.approx(0.8413447460685429, rel=1e-12)
    arr = gaussian_cdf(np.array([-1.0, 0.0, 1.0]), 0.0, 1.0)
    assert arr.shape == (3,)
    assert arr[0] + arr[2] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        gaussian_cdf(0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        gaussian_cdf(0.0, 0.0, -1.0)


def test_ks_two_sample_hand_case():
    # interleaved triples: empirical CDFs differ by exactly 1/3
    report = ks_two_sample(np.array([1.0, 3.0, 5.0]), np.array([2.0, 4.0, 6.0]))
    assert report.statistic == pytest.approx(1.0 / 3.0)
    expected_p = kolmogorov_sf(math.sqrt(9.0 / 6.0) * (1.0 / 3.0))
    assert report.p_value == pytest.approx(expected_p, rel=1e-12)
    assert report.passed


def test_ks_two_sample_identical_and_disjoint():
    same = np.array([0.3, 1.7, 2.2, 5.0])
    report = ks_two_sample(same, same.copy())
    assert report.statistic == 0.0
    assert report.p_value == 1.0
    apart = ks_two_sample(np.arange(50.0), np.arange(100.0, 150.0))
    assert apart.statistic == 1.0
    assert not apart.passed


def test_ks_two_sample_validation():
    with pytest.raises(ValueError):
        ks_two_sample(np.array([]), np.array([1.0]))


def test_ks_one_sample_gaussian_accepts_matching_law():
    rng = derive_rng(11, "stats-ks")
    x = rng.normal(2.0, 3.0, size=4000)
    report = ks_one_sample_gaussian(x, 2.0, 9.0, context="matching")
    assert report.passed
    assert report.context == "matching"
    assert 0.0 <= report.statistic <= 1.0


def test_ks_one_sample_gaussian_rejects_wrong_mean():
    rng = derive_rng(11, "stats-ks")
    x = rng.normal(0.0, 1.0, size=4000)
    report = ks_one_sample_gaussian(x, 5.0, 1.0)
    assert not report.passed
    assert report.p_value == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        ks_one_sample_gaussian(np.array([]), 0.0, 1.0)


def test_ks_one_sample_gaussian_is_ks_one_sample_on_the_gaussian_cdf():
    x = derive_rng(5, "stats-ks").normal(0.3, 2.0, size=500)
    direct = ks_one_sample(x, lambda t: gaussian_cdf(t, 0.3, 4.0), context="c")
    assert ks_one_sample_gaussian(x, 0.3, 4.0, context="c") == direct


def test_ks_one_sample_level_on_exact_mixture_draws():
    # 400 fixed seeds of 60 exact draws each: at level 0.05 the rejections
    # are Binomial(400, 0.05) up to the asymptotic p-value's conservatism,
    # mean 20 and sd 4.4; the band is 3 sd either side
    # components N(0, 0.78) with weight 0.7 and N(0, 2.38) with weight 0.3
    law = GaussianMixture(0.5, 1.0, TwoPoint(-1.0, 1.0, 0.3))
    rejected = sum(
        ks_one_sample(law.sample(derive_rng(seed, "ks-level"), 60), law.cdf).p_value < 0.05
        for seed in range(400)
    )
    assert 7 <= rejected <= 33


def test_ks_one_sample_rejects_the_single_gaussian_of_equal_variance():
    # chi_f = 0 and standard normal colors: the law of y z, of variance 1
    # and excess kurtosis 6
    law = GaussianMixture(0.0, 1.0, GaussianLaw(0.0, 1.0))
    x = law.sample(derive_rng(9, "ks-power"), 4000)
    assert ks_one_sample(x, law.cdf).passed
    assert not ks_one_sample_gaussian(x, 0.0, 1.0).passed


def test_tv_distance_hand_example():
    # 30/70 split against a fair law: TV = 0.2
    assert tv_distance_discrete(np.repeat([0, 1], [30, 70]), (0.5, 0.5)) == pytest.approx(0.2)
    assert tv_distance_discrete(np.repeat([0, 1], [50, 50]), (0.5, 0.5)) == pytest.approx(0.0)


_SPLITS_OF_60 = [(6, 19, 35), (6, 23, 31), (11, 24, 25)]


@pytest.mark.parametrize("counts", _SPLITS_OF_60)
def test_tv_distance_is_rounded_once(counts):
    # each split of 60 is 0.1 from the law up to the weights' binary
    # rounding; masses of k/60 summed in floats land an ulp or two above it
    pairs = ((-1.0, 0.2), (0.0, 0.3), (2.0, 0.5))
    assert tv_distance_discrete(np.repeat([0, 1, 2], counts), (0.2, 0.3, 0.5)) == 0.1
    assert float(tv_distance_to_atoms(np.repeat([-1.0, 0.0, 2.0], counts), pairs, 0.25)) == 0.1


def test_tv_distance_counts_misses():
    # half the mass sits far from every atom and is fully missed
    bins = nearest_atoms(np.repeat([-1.0, 1.0, 0.5], [25, 25, 50]), (-1.0, 1.0), 1e-9)
    assert bins.tolist() == [0] * 25 + [1] * 25 + [-1] * 50
    assert tv_distance_discrete(bins, (0.5, 0.5)) == pytest.approx(0.5)


def test_tv_distance_tolerance_assignment():
    x = np.full(10, 0.5)
    assert tv_distance_discrete(nearest_atoms(x, (0.0,), 0.6), (1.0,)) == pytest.approx(0.0)
    assert tv_distance_discrete(nearest_atoms(x, (0.0,), 0.1), (1.0,)) == pytest.approx(1.0)


def test_tv_distance_rejects_bad_input():
    with pytest.raises(ValueError):
        nearest_atoms([1.0], (1.0, 1.0 + 1e-12), 1e-9)
    with pytest.raises(ValueError):
        nearest_atoms([0.0], (0.0, 1.0), 0.6)
    with pytest.raises(ValueError):
        nearest_atoms([0.0], (0.0, 1.0), -0.1)
    with pytest.raises(ValueError):
        tv_distance_discrete(np.zeros(0, dtype=np.int64), (0.5, 0.5))
    for bins in ([2], [-2]):
        with pytest.raises(ValueError):
            tv_distance_discrete(bins, (0.5, 0.5))


@st.composite
def _binned_samples(draw):
    """Atoms on a grid of step 1/4, a tolerance below half their smallest gap,
    and samples on, near (up to tol away, both edges included) and far from them."""
    grid = draw(st.lists(st.integers(-12, 12), min_size=1, max_size=4, unique=True))
    values = tuple(sorted(g / 4 for g in grid))
    parts = draw(st.lists(st.integers(0, 9), min_size=len(values), max_size=len(values)))
    weights = tuple(c / sum(parts) if sum(parts) else 1 / len(values) for c in parts)
    gap = min((b - a for a, b in zip(values, values[1:])), default=1.0)
    tol = gap * draw(st.sampled_from([0.0, 0.1, 0.25, 0.4999]))
    on = st.sampled_from(values)
    near = st.tuples(on, st.sampled_from([-1.0, -0.5, 0.5, 1.0])).map(lambda t: t[0] + t[1] * tol)
    far = st.floats(-5.0, 5.0)
    samples = draw(st.lists(st.one_of(on, near, far), min_size=1, max_size=60))
    return values, weights, tol, samples


@given(_binned_samples())
@example(((-1.0, 0.0, 2.0), (0.2, 0.3, 0.5), 0.4999, [-1.0] * 6 + [0.0] * 19 + [2.0] * 35))
@example(((-1.0, 0.0, 2.0), (0.2, 0.3, 0.5), 0.25, [-1.0] * 6 + [0.0] * 23 + [2.0] * 31))
@example(((-1.0, 0.0, 2.0), (0.2, 0.3, 0.5), 0.0, [-1.0] * 11 + [0.0] * 24 + [2.0] * 25))
@settings(max_examples=200, deadline=None)
def test_tv_distance_matches_loop_oracle(case):
    values, weights, tol, samples = case
    tv = tv_distance_discrete(nearest_atoms(np.array(samples), values, tol), weights)
    assert tv == float(tv_distance_to_atoms(samples, zip(values, weights), tol))


def test_exact_check_report_semantics():
    ok = exact_check_report(True, 1e-12, "identity holds")
    assert ok.passed and ok.p_value == 1.0 and ok.decision == "pass"
    bad = exact_check_report(False, 0.3, "identity broken")
    assert not bad.passed and bad.p_value == 0.0 and bad.decision == "fail"
    assert bad.context == "identity broken"


def test_report_dict_round_trips():
    report = TestReport(statistic=0.1, p_value=0.9, decision="pass", context="x")
    assert report.to_dict() == {
        "statistic": 0.1,
        "p_value": 0.9,
        "decision": "pass",
        "context": "x",
    }
    summary = summarize([1.0, 2.0, 3.0, 4.0])
    d = summary.to_dict()
    assert set(d) == {
        "count", "mean", "variance", "skewness",
        "excess_kurtosis", "se_mean", "se_variance",
    }
    assert d["count"] == 4 and d["mean"] == summary.mean
