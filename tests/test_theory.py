"""Closed-form limit laws and their samplers."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dcl.coloring import FiniteDiscrete, GaussianLaw, TwoPoint, double_factorial_odd
from dcl.rng import derive_rng
from dcl.stats import ks_two_sample, summarize
from dcl.theory import (
    REGIME_SUBCRITICAL,
    REGIME_SUPERCRITICAL,
    GaussianMixture,
    PointMass,
    SampledLaw,
    TwoPointLaw,
    centered_gaussian,
    covariance_prediction,
    gamma_law,
    gamma_prime_moment,
    gamma_sampler,
    is_gamma_gaussian,
    lln_limit_law,
    sign_deterministic,
    two_point_magnetization,
)


def weight_at(atoms, location, tol=1e-9):
    """Weight of the atom nearest `location`, which must sit within tol."""
    loc, weight = min(atoms, key=lambda lw: abs(lw[0] - location))
    assert abs(loc - location) < tol
    return weight


def test_lln_limit_point_mass_and_subcritical():
    nu = TwoPoint(-1.0, 1.0, 0.3)
    law = lln_limit_law(nu, 0.0)
    assert law == PointMass(value=nu.mean)
    point = lln_limit_law(TwoPoint(2.0, 2.0, 0.5), 0.7)
    assert point == PointMass(value=2.0)


def test_lln_limit_two_point_atoms():
    alpha, theta = 0.7, 0.4
    law = lln_limit_law(TwoPoint(-1.0, 1.0, alpha), theta)
    assert isinstance(law, TwoPointLaw)
    atoms = law.atoms()
    hi = 2 * alpha * (1 - theta) + 2 * theta - 1
    lo = 2 * alpha * (1 - theta) - 1
    assert weight_at(atoms, hi) == pytest.approx(alpha)
    assert weight_at(atoms, lo) == pytest.approx(1 - alpha)
    # mean is preserved: (1-theta) m + theta m = m
    assert law.mean == pytest.approx(-1.0 + 2 * alpha)


def test_lln_limit_two_point_matches_magnetization_formula():
    for alpha in (0.2, 0.5, 0.9):
        for theta in (0.1, 0.6, 1.0):
            via_lln = lln_limit_law(TwoPoint(-1.0, 1.0, alpha), theta)
            direct = two_point_magnetization(alpha, theta)
            got = sorted(via_lln.atoms())
            want = sorted(direct.atoms())
            assert len(got) == len(want)
            for (loc_g, w_g), (loc_w, w_w) in zip(got, want):
                assert loc_g == pytest.approx(loc_w)
                assert w_g == pytest.approx(w_w)


def test_lln_limit_gaussian():
    law = lln_limit_law(GaussianLaw(1.5, 2.0), 0.6)
    assert law == GaussianLaw(1.5, 0.6**2 * 2.0)


def test_lln_limit_discrete_sampler():
    nu = FiniteDiscrete(((-1.0, 0.25), (0.0, 0.25), (1.0, 0.5)))
    law = lln_limit_law(nu, 0.5)
    assert isinstance(law, SampledLaw)
    draws = law.sample(derive_rng(3, "lln"), 40000)
    # draws are (1-theta) m + theta z, so mean m and variance theta^2 var
    assert draws.mean() == pytest.approx(nu.mean, abs=0.01)
    assert draws.var() == pytest.approx(0.25 * nu.variance, rel=0.05)


def test_two_point_magnetization_degenerate():
    assert two_point_magnetization(0.3, 0.0) == PointMass(value=-0.4)
    assert two_point_magnetization(0.0, 0.5) == PointMass(value=-1.0)
    assert two_point_magnetization(1.0, 0.5) == PointMass(value=1.0)
    full = two_point_magnetization(0.3, 1.0)
    assert weight_at(full.atoms(), 1.0) == pytest.approx(0.3)
    assert weight_at(full.atoms(), -1.0) == pytest.approx(0.7)


def test_sign_deterministic_threshold():
    # max(alpha, 1-alpha)(1-theta) >= 1/2 keeps one atom's sign fixed
    assert sign_deterministic(0.9, 0.4)        # 0.9*0.6 = 0.54
    assert not sign_deterministic(0.6, 0.3)    # 0.6*0.7 = 0.42
    assert sign_deterministic(5.0 / 6.0, 0.4)  # exactly 1/2
    assert sign_deterministic(0.1, 0.4)        # symmetric in alpha


def test_gamma_law_subcritical():
    nu = TwoPoint(-1.0, 1.0, 0.5)
    law = gamma_law(REGIME_SUBCRITICAL, 2.5, nu.variance, 0.4, nu)
    assert law == GaussianLaw(0.0, 2.5 * nu.variance)
    degenerate = gamma_law(REGIME_SUBCRITICAL, 0.0, 0.0, 0.0, TwoPoint(1.0, 1.0, 0.5))
    assert degenerate == PointMass(value=0.0)


def test_gamma_law_supercritical_symmetric_collapses():
    nu = TwoPoint(-1.0, 1.0, 0.5)
    chi_f, sigma_p2 = 2.0, 0.5
    law = gamma_law(REGIME_SUPERCRITICAL, chi_f, nu.variance, sigma_p2, nu)
    assert isinstance(law, GaussianLaw)
    # (z - m)^2 = 1 for both atoms, so the mixture is a single Gaussian
    assert law.variance == pytest.approx(chi_f * nu.variance + sigma_p2)


def test_gamma_law_supercritical_asymmetric_mixture():
    nu = TwoPoint(-1.0, 1.0, 0.3)
    chi_f, sigma_p2 = 2.0, 0.5
    law = gamma_law(REGIME_SUPERCRITICAL, chi_f, nu.variance, sigma_p2, nu)
    assert isinstance(law, GaussianMixture)
    comps = [(w, var) for w, mean, var in law.components]
    m = nu.mean
    assert weight_at(comps, 0.3) == pytest.approx(chi_f * nu.variance + (1 - m) ** 2 * sigma_p2)
    assert weight_at(comps, 0.7) == pytest.approx(chi_f * nu.variance + (-1 - m) ** 2 * sigma_p2)
    assert all(mean == 0.0 for _, mean, _ in law.components)


def test_gamma_law_gaussian_color_sampled():
    nu = GaussianLaw(0.0, 1.0)
    law = gamma_law(REGIME_SUPERCRITICAL, 1.0, 1.0, 0.5, nu)
    assert isinstance(law, SampledLaw)
    assert law.kind == "gamma-supercritical"


def test_is_gamma_gaussian_dichotomy():
    assert is_gamma_gaussian(TwoPoint(-1.0, 1.0, 0.5))
    assert not is_gamma_gaussian(TwoPoint(-1.0, 1.0, 0.3))
    assert is_gamma_gaussian(TwoPoint(3.0, 3.0, 0.2))  # point mass
    assert not is_gamma_gaussian(GaussianLaw(0.0, 1.0))
    assert is_gamma_gaussian(FiniteDiscrete(((-2.0, 0.5), (4.0, 0.5))))
    assert not is_gamma_gaussian(FiniteDiscrete(((-2.0, 0.25), (4.0, 0.75))))
    assert not is_gamma_gaussian(FiniteDiscrete(((-1.0, 0.4), (0.0, 0.2), (1.0, 0.4))))


def test_gaussian_mixture_raw_moments():
    mu, var = 0.7, 1.3
    law = GaussianMixture(components=((1.0, mu, var),))
    assert law.raw_moment(1) == pytest.approx(mu)
    assert law.raw_moment(2) == pytest.approx(var + mu**2)
    assert law.raw_moment(3) == pytest.approx(mu**3 + 3 * mu * var)
    assert law.raw_moment(4) == pytest.approx(mu**4 + 6 * mu**2 * var + 3 * var**2)


def test_gaussian_mixture_excess_kurtosis():
    # Scale mixture of centered Gaussians: kurtosis has a closed form
    # 3 E[V^2]/E[V]^2 - 3 with V the mixed variance.
    w, v1, v2 = 0.3, 2.0, 0.5
    law = GaussianMixture(components=((w, 0.0, v1), (1 - w, 0.0, v2)))
    ev = w * v1 + (1 - w) * v2
    ev2 = w * v1**2 + (1 - w) * v2**2
    assert law.excess_kurtosis() == pytest.approx(3 * ev2 / ev**2 - 3)
    single = GaussianMixture(components=((1.0, 0.0, 1.7),))
    assert single.excess_kurtosis() == pytest.approx(0.0, abs=1e-12)


def test_gaussian_mixture_cdf_and_sampling():
    law = GaussianMixture(components=((0.4, -1.0, 0.5), (0.6, 2.0, 1.5)))
    assert law.cdf(-50.0) == pytest.approx(0.0, abs=1e-12)
    assert law.cdf(50.0) == pytest.approx(1.0, abs=1e-12)
    # at x=0.5 nearly all of component one and little of component two
    assert 0.3 < law.cdf(0.5) < 0.6
    draws = law.sample(derive_rng(8, "mix"), 60000)
    assert draws.mean() == pytest.approx(0.4 * -1.0 + 0.6 * 2.0, abs=0.03)


def test_gamma_sampler_matches_mixture_law():
    nu = TwoPoint(-1.0, 1.0, 0.3)
    chi_f, sigma_p2 = 1.5, 0.6
    law = gamma_law(REGIME_SUPERCRITICAL, chi_f, nu.variance, sigma_p2, nu)
    sampler = gamma_sampler(chi_f, sigma_p2, nu)
    a = sampler.sample(derive_rng(5, "sampler"), 50000)
    b = law.sample(derive_rng(6, "mixture"), 50000)
    report = ks_two_sample(a, b, level=0.01, context="sampler vs mixture")
    assert report.passed, report.to_dict()


def test_gamma_sampler_moments():
    nu = GaussianLaw(0.5, 1.2)
    chi_f, sigma_p2 = 1.0, 0.8
    draws = gamma_sampler(chi_f, sigma_p2, nu).sample(derive_rng(9, "s"), 200000)
    # x + y (z - m): mean 0, variance chi_f sigma2 + sigma_p2 var(nu)
    assert draws.mean() == pytest.approx(0.0, abs=0.02)
    expected_var = chi_f * nu.variance + sigma_p2 * nu.variance
    assert summarize(draws).variance == pytest.approx(expected_var, rel=0.03)


def test_gamma_prime_moments_closed_form():
    sigma_p2 = 0.7
    symmetric = TwoPoint(-1.0, 1.0, 0.5)
    gauss = GaussianLaw(0.0, 1.0)
    for k in (1, 2, 3):
        # symmetric two-point: central 2k-th moment is 1
        assert gamma_prime_moment(k, symmetric, sigma_p2) == pytest.approx(
            double_factorial_odd(k) * sigma_p2**k
        )
        # standard Gaussian: central 2k-th moment is (2k-1)!!
        assert gamma_prime_moment(k, gauss, sigma_p2) == pytest.approx(
            double_factorial_odd(k) ** 2 * sigma_p2**k
        )


def test_gamma_prime_moment_matches_direct_draws():
    sigma_p2 = 0.5
    nu = TwoPoint(-1.0, 1.0, 0.3)
    rng = derive_rng(4, "gamma-prime")
    y = rng.normal(0.0, math.sqrt(sigma_p2), size=300000)
    z = nu.sample(rng, 300000)
    x = y * (z - nu.mean)
    for k in (1, 2, 3):
        empirical = np.mean(x ** (2 * k))
        se = np.std(x ** (2 * k), ddof=1) / math.sqrt(x.shape[0])
        assert abs(empirical - gamma_prime_moment(k, nu, sigma_p2)) <= 4 * se


def test_covariance_prediction():
    assert covariance_prediction(1.2, 0.25) == pytest.approx(0.3)


def test_two_point_law_requires_distinct_atoms():
    with pytest.raises(ValueError):
        TwoPointLaw(atom_pairs=((1.0, 0.5), (1.0, 0.5)))


def test_centered_gaussian_zero_variance_is_a_point_mass():
    assert centered_gaussian(0.0) == PointMass(value=0.0)
    assert centered_gaussian(-0.0) == PointMass(value=0.0)
    assert centered_gaussian(0.25) == GaussianLaw(mean=0.0, variance=0.25)
    assert centered_gaussian(5e-324) == GaussianLaw(mean=0.0, variance=5e-324)


NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("slot", range(3))
def test_gamma_parameters_must_be_finite(bad, slot):
    nu = TwoPoint(-1.0, 1.0, 0.3)
    args = [1.0, 1.0, 0.5]
    args[slot] = bad
    chi_f, sigma2, sigma_p2 = args
    name = ("chi_f", "sigma2", "sigma_p2")[slot]
    for regime in (REGIME_SUBCRITICAL, REGIME_SUPERCRITICAL):
        with pytest.raises(ValueError, match=name):
            gamma_law(regime, chi_f, sigma2, sigma_p2, nu)
    if slot != 1:
        with pytest.raises(ValueError, match=name):
            gamma_sampler(chi_f, sigma_p2, nu)
        with pytest.raises(ValueError, match="sigma_p2"):
            gamma_prime_moment(1, nu, bad)
        with pytest.raises(ValueError, match="sigma2"):
            covariance_prediction(bad, 0.5)


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("slot", range(4))
def test_two_point_law_rejects_non_finite(bad, slot):
    flat = [-1.0, 0.4, 1.0, 0.6]
    flat[slot] = bad
    with pytest.raises(ValueError, match="finite"):
        TwoPointLaw(atom_pairs=((flat[0], flat[1]), (flat[2], flat[3])))


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("slot", range(3))
def test_gaussian_mixture_rejects_non_finite(bad, slot):
    first = [0.5, 0.0, 1.0]
    first[slot] = bad
    with pytest.raises(ValueError, match="finite"):
        GaussianMixture(components=(tuple(first), (0.5, 1.0, 2.0)))


def test_gamma_law_rejects_unknown_regime():
    nu = TwoPoint(-1.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        gamma_law("critical", 1.0, 1.0, 0.5, nu)


SIZES = st.sampled_from([0, 1, 2, 17, 10_000])
SEEDS = st.integers(min_value=0, max_value=2**63)
FINITE = st.floats(min_value=-1e6, max_value=1e6)


def _assert_same_draws(got, expected, rng, ref_rng):
    """Bitwise equal float64 draws, and both generators left in one state."""
    assert got.dtype == np.float64 and got.shape == expected.shape
    assert (got.view(np.uint64) == expected.view(np.uint64)).all()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@given(FINITE, FINITE, st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
       st.floats(-1e-12, 1e-12), SIZES, SEEDS)
@example(-1.0, 1.0, 0.0, 0.0, 10_000, 1)
@example(-1.0, 1.0, 1.0, 0.0, 10_000, 1)
@settings(max_examples=150, deadline=None)
def test_two_point_law_draws_match_former_formula(v1, v2, p1, slack, size, seed):
    assume(v1 != v2)
    p2 = max(1.0 - p1 + slack, 0.0)
    assume(abs(p1 + p2 - 1.0) <= 1e-12)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = TwoPointLaw(((v1, p1), (v2, p2))).sample(rng, size)
    expected = np.where(ref_rng.random(size) < p1, v1, v2)
    _assert_same_draws(got, expected, rng, ref_rng)


@st.composite
def mixture_components(draw):
    k = draw(st.integers(min_value=1, max_value=6))
    raw = draw(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=k, max_size=k))
    zero_at = draw(st.sampled_from([None, 0, k // 2, k - 1]))
    if zero_at is not None:
        raw[zero_at] = 0.0
    assume(math.fsum(raw) > 0.0)
    weights = [x / math.fsum(raw) for x in raw]
    top = max(range(k), key=weights.__getitem__)
    weights[top] = max(weights[top] + draw(st.floats(min_value=-1e-12, max_value=1e-12)), 0.0)
    assume(abs(math.fsum(weights) - 1.0) <= 1e-12)
    means = draw(st.lists(FINITE, min_size=k, max_size=k))
    variances = draw(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=k, max_size=k))
    return tuple(zip(weights, means, variances))


@given(mixture_components(), SIZES, SEEDS)
@example(((0.0, -1.0, 1.0), (0.5, 0.0, 0.0), (0.5, 2.0, 4.0)), 10_000, 1)
@example(((0.5, -1.0, 1.0), (0.0, 0.0, 0.0), (0.5, 2.0, 4.0)), 10_000, 1)
@example(((0.5, -1.0, 1.0), (0.5 + 1e-13, 0.0, 2.0), (0.0, 2.0, 4.0)), 10_000, 1)
@example(((1.0, 3.0, 2.0),), 0, 1)
@settings(max_examples=150, deadline=None)
def test_gaussian_mixture_draws_match_former_formula(components, size, seed):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = GaussianMixture(components).sample(rng, size)
    cum = np.cumsum([w for w, _, _ in components])
    cum[-1] = 1.0
    which = np.searchsorted(cum, ref_rng.random(size), side="right")
    means = np.array([m for _, m, _ in components])
    stds = np.array([math.sqrt(v) for _, _, v in components])
    expected = means[which] + stds[which] * ref_rng.standard_normal(size)
    _assert_same_draws(got, expected, rng, ref_rng)


@pytest.mark.parametrize(
    "law,count",
    [
        (TwoPointLaw(((-1.0, 0.3), (1.0, 0.7))), 2),
        (GaussianMixture(((0.3, 0.0, 1.0), (0.7, 1.0, 2.0))), 3),
    ],
    ids=["two-point-law", "gaussian-mixture"],
)
def test_draw_tables_are_read_only(law, count):
    tables = [v for v in vars(law).values() if isinstance(v, np.ndarray)]
    assert len(tables) == count
    for table in tables:
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 0.0
