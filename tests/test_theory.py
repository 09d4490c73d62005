"""Closed-form limit laws and their samplers."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dcl.coloring import (
    FiniteDiscrete,
    GaussianLaw,
    TwoPoint,
    is_point_mass,
    live_atoms,
    parse_color_measure,
)
from dcl.rng import derive_rng
from dcl.stats import ks_one_sample, summarize
from dcl.theory import (
    REGIME_SUBCRITICAL,
    REGIME_SUPERCRITICAL,
    _HALF_NORMAL_NODES,
    GaussianMixture,
    PointMass,
    SampledLaw,
    TwoPointLaw,
    centered_gaussian,
    gamma_law,
    lln_limit_law,
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
            # the magnetization formula: 2 alpha (1 - theta) + 2 theta - 1 with
            # probability alpha, else 2 alpha (1 - theta) - 1
            hi = 2.0 * alpha * (1.0 - theta) + 2.0 * theta - 1.0
            lo = 2.0 * alpha * (1.0 - theta) - 1.0
            got = sorted(via_lln.atoms())
            want = sorted(((lo, 1.0 - alpha), (hi, alpha)))
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
    assert law == FiniteDiscrete(((-0.375, 0.25), (0.125, 0.25), (0.625, 0.5)))
    draws = law.sample(derive_rng(3, "lln"), 40000)
    # draws are (1-theta) m + theta z, so mean m and variance theta^2 var
    assert draws.mean() == pytest.approx(nu.mean, abs=0.01)
    assert draws.var() == pytest.approx(0.25 * nu.variance, rel=0.05)


def test_two_point_magnetization_degenerate():
    def magnetization(alpha, theta):
        return lln_limit_law(TwoPoint(-1.0, 1.0, alpha), theta)

    assert magnetization(0.3, 0.0) == PointMass(value=pytest.approx(-0.4))
    assert magnetization(0.0, 0.5) == PointMass(value=-1.0)
    assert magnetization(1.0, 0.5) == PointMass(value=1.0)
    full = magnetization(0.3, 1.0)
    assert weight_at(full.atoms(), 1.0) == pytest.approx(0.3)
    assert weight_at(full.atoms(), -1.0) == pytest.approx(0.7)


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


def test_gamma_law_gaussian_color_mixture():
    nu = GaussianLaw(0.0, 1.0)
    law = gamma_law(REGIME_SUPERCRITICAL, 1.0, 1.0, 0.5, nu)
    assert isinstance(law, GaussianMixture)
    assert all(mean == 0.0 for _, mean, _ in law.components)
    # sigma_p2 = 0: every component is N(0, chi_f sigma2)
    assert gamma_law(REGIME_SUPERCRITICAL, 2.0, 1.0, 0.0, nu) == GaussianLaw(0.0, 2.0)
    assert gamma_law(REGIME_SUPERCRITICAL, 0.0, 1.0, 0.0, nu) == PointMass(value=0.0)


def _scale_mixture_cdf(t, a, b):
    """E[Phi(t / sqrt(a + b u^2))] for u ~ N(0, 1), by adaptive quadrature."""
    integrate = pytest.importorskip("scipy.integrate")
    special = pytest.importorskip("scipy.special")

    def integrand(u):
        return 2.0 * special.ndtr(t / math.sqrt(a + b * u * u)) * math.exp(-0.5 * u * u)

    value, _ = integrate.quad(integrand, 0.0, np.inf, epsabs=1e-15, epsrel=1e-13, limit=200)
    return value / math.sqrt(2.0 * math.pi)


@pytest.mark.parametrize(
    "chi_f,sigma_p2", [(0.0, 1.0), (1.0, 1e-6), (1.0, 0.5), (1.0, 5.0), (1.0, 500.0), (1.0, 5e4)]
)
def test_gaussian_color_gamma_matches_quadrature(chi_f, sigma_p2):
    # nu = N(0.3, 1.7): a = chi_f sigma2 and b = sigma_p2 sigma2, so b/a is
    # sigma_p2 / chi_f, and a = 0 needs no special case.
    nu = GaussianLaw(0.3, 1.7)
    a, b = chi_f * nu.variance, sigma_p2 * nu.variance
    law = gamma_law(REGIME_SUPERCRITICAL, chi_f, nu.variance, sigma_p2, nu)
    assert isinstance(law, GaussianMixture)
    assert len(law.components) == 231
    assert math.fsum(w for w, _, _ in law.components) == pytest.approx(1.0, abs=1e-14)
    ts = math.sqrt(a + b) * np.linspace(-4.0, 4.0, 17)
    got = law.cdf(ts)
    for t, f in zip(ts, got):
        assert abs(f - _scale_mixture_cdf(t, a, b)) <= 1e-13, t
    assert law.variance == pytest.approx(a + b, rel=1e-11)
    fourth = math.fsum(w * 3 * v * v for w, _, v in law.components)
    assert fourth == pytest.approx(3 * a * a + 6 * a * b + 9 * b * b, rel=1e-11)


def _gamma_is_gaussian(nu, chi_f=1.0, sigma_p2=0.5):
    """Whether the supercritical gamma is one Gaussian (a point mass included)."""
    law = gamma_law(REGIME_SUPERCRITICAL, chi_f, nu.variance, sigma_p2, nu)
    return isinstance(law, (GaussianLaw, PointMass))


def test_is_gamma_gaussian_dichotomy():
    assert _gamma_is_gaussian(TwoPoint(-1.0, 1.0, 0.5))
    assert not _gamma_is_gaussian(TwoPoint(-1.0, 1.0, 0.3))
    assert _gamma_is_gaussian(TwoPoint(3.0, 3.0, 0.2))  # point mass
    assert not _gamma_is_gaussian(GaussianLaw(0.0, 1.0))
    assert _gamma_is_gaussian(FiniteDiscrete(((-2.0, 0.5), (4.0, 0.5))))
    assert not _gamma_is_gaussian(FiniteDiscrete(((-2.0, 0.25), (4.0, 0.75))))
    assert not _gamma_is_gaussian(FiniteDiscrete(((-1.0, 0.4), (0.0, 0.2), (1.0, 0.4))))


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
    draws = SampledLaw(chi_f, sigma_p2, nu).sample(derive_rng(5, "sampler"), 50000)
    report = ks_one_sample(draws, law.cdf, context="sampler vs mixture")
    assert report.passed, report.to_dict()


def test_gamma_sampler_ks_level_on_gaussian_colors():
    # An exact null: SampledLaw draws against the quadrature CDF of the same
    # law. At level 0.01, P(Bin(200, 0.01) >= 8) is about 0.001.
    nu = GaussianLaw(1.0, 0.5)
    chi_f, sigma_p2 = 0.8, 2.0
    law = gamma_law(REGIME_SUPERCRITICAL, chi_f, nu.variance, sigma_p2, nu)
    sampler = SampledLaw(chi_f, sigma_p2, nu)
    rejections = sum(
        not ks_one_sample(sampler.sample(derive_rng(seed, "level"), 100), law.cdf, 0.01).passed
        for seed in range(200)
    )
    assert rejections <= 7


def test_gamma_sampler_moments():
    nu = GaussianLaw(0.5, 1.2)
    chi_f, sigma_p2 = 1.0, 0.8
    draws = SampledLaw(chi_f, sigma_p2, nu).sample(derive_rng(9, "s"), 200000)
    # x + y (z - m): mean 0, variance chi_f sigma2 + sigma_p2 var(nu)
    assert draws.mean() == pytest.approx(0.0, abs=0.02)
    expected_var = chi_f * nu.variance + sigma_p2 * nu.variance
    assert summarize(draws).variance == pytest.approx(expected_var, rel=0.03)


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
            SampledLaw(chi_f, sigma_p2, nu)


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


# The atoms rule: the former per-type ladders, written out here, against
# the one live_atoms rule that replaced them.

_LADDER_HALF_TOL = 1e-12


def _ladder_is_point_mass(nu):
    if isinstance(nu, TwoPoint):
        return nu.a == nu.b or nu.alpha in (0.0, 1.0)
    if isinstance(nu, GaussianLaw):
        return nu.variance == 0.0
    return sum(1 for _, w in nu.atoms_spec if w > 0.0) <= 1


def _ladder_is_gamma_gaussian(nu):
    if _ladder_is_point_mass(nu):
        return True
    if isinstance(nu, TwoPoint):
        return abs(nu.alpha - 0.5) <= _LADDER_HALF_TOL
    if isinstance(nu, FiniteDiscrete):
        live = [(v, w) for v, w in nu.atoms_spec if w > 0.0]
        return len(live) == 2 and all(abs(w - 0.5) <= _LADDER_HALF_TOL for _, w in live)
    return False


def _ladder_gamma_law(chi_f, sigma2, sigma_p2, nu):
    """The former supercritical gamma_law; None where it had only a sampler."""
    m = nu.mean
    if isinstance(nu, (TwoPoint, FiniteDiscrete)) or (
        isinstance(nu, GaussianLaw) and nu.variance == 0.0
    ):
        pairs = nu.atoms() if not isinstance(nu, GaussianLaw) else ((nu.mean, 1.0),)
        components = tuple((w, 0.0, chi_f * sigma2 + (z - m) ** 2 * sigma_p2) for z, w in pairs)
        variances = {v for _, _, v in components}
        if len(variances) == 1:
            return centered_gaussian(variances.pop())
        return GaussianMixture(components=components)
    return None


_atom_values = st.sampled_from([-1.0, 0.0, 2.5]) | st.floats(-5.0, 5.0)
_unit = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def _finite_discrete(draw):
    values = draw(st.lists(_atom_values, min_size=1, max_size=4, unique=True))
    raw = draw(st.lists(st.integers(0, 3), min_size=len(values), max_size=len(values)))
    assume(sum(raw) > 0)
    return FiniteDiscrete(tuple((v, r / sum(raw)) for v, r in zip(values, raw)))


_color_measures = st.one_of(
    st.builds(TwoPoint, a=_atom_values, b=_atom_values, alpha=_unit),
    _finite_discrete(),
    st.builds(
        GaussianLaw,
        mean=st.floats(-5.0, 5.0),
        variance=st.sampled_from([0.0]) | st.floats(0.0, 4.0),
    ),
)


@settings(max_examples=300, deadline=None)
@given(
    nu=_color_measures,
    chi_f=st.floats(0.0, 10.0),
    sigma_p2=st.sampled_from([0.0]) | st.floats(0.0, 2.0),
)
@example(nu=TwoPoint(1.0, 1.0, 0.3), chi_f=1.0, sigma_p2=0.5)
@example(nu=TwoPoint(-1.0, 1.0, 0.0), chi_f=1.0, sigma_p2=0.5)
@example(nu=TwoPoint(-1.0, 1.0, 1.0), chi_f=1.0, sigma_p2=0.5)
@example(nu=TwoPoint(-1.0, 1.0, 0.5), chi_f=1.0, sigma_p2=0.5)
@example(nu=GaussianLaw(2.0, 0.0), chi_f=1.0, sigma_p2=0.5)
@example(nu=FiniteDiscrete(((-1.0, 0.5), (0.0, 0.0), (3.0, 0.5))), chi_f=1.0, sigma_p2=0.5)
@example(nu=FiniteDiscrete(((-1.0, 0.0), (4.0, 1.0))), chi_f=1.0, sigma_p2=0.5)
# unequal live weights whose variances underflow to one value
@example(
    nu=FiniteDiscrete(((-1.0, 0.0), (0.0, 1 / 3), (8.846117770095046e-300, 2 / 3))),
    chi_f=0.0,
    sigma_p2=0.0,
)
def test_atoms_rule_agrees_with_former_type_ladders(nu, chi_f, sigma_p2):
    assert is_point_mass(nu) == _ladder_is_point_mass(nu)
    # The former Gaussian-gamma predicate took weights within 1e-12 of 1/2
    # as equal; the shape rule in gamma_law compares them exactly, and it
    # also keeps one Gaussian where the live variances agree in floats.
    if not (isinstance(nu, TwoPoint) and 0.0 < abs(nu.alpha - 0.5) <= _LADDER_HALF_TOL):
        live_variances = {
            chi_f * nu.variance + (z - nu.mean) ** 2 * 0.5 for z, _ in live_atoms(nu) or ()
        }
        assert _gamma_is_gaussian(nu, chi_f) == (
            _ladder_is_gamma_gaussian(nu) or len(live_variances) == 1
        )
    law = gamma_law(REGIME_SUPERCRITICAL, chi_f, nu.variance, sigma_p2, nu)
    _assert_former_gamma_law_kept(nu, chi_f, sigma_p2, law)


def _assert_former_gamma_law_kept(nu, chi_f, sigma_p2, law):
    """law is the former ladder's, bit for bit, when nu has no zero-weight atom.

    The former law kept zero-weight atoms as components and decided its
    shape by comparing rounded variances alone. One shape therefore
    differs: two equal-weight atoms whose variances differ in the last bits
    were a two-component mixture and are now one Gaussian with the first
    atom's variance.
    """
    if any(w == 0.0 for _, w in nu.atoms() or ()):
        return
    former = _ladder_gamma_law(chi_f, nu.variance, sigma_p2, nu)
    if former is None:
        return  # Gaussian colors: test_gaussian_color_gamma_matches_quadrature
    if isinstance(former, GaussianMixture) and not isinstance(law, GaussianMixture):
        live = live_atoms(nu)
        assert len(live) == 2 and live[0][1] == live[1][1]
        assert law == centered_gaussian(former.components[0][2])
    else:
        assert law == former
        assert law.to_dict() == former.to_dict()


def _equidistant_from_mean(live):
    """Whether every live atom lies at one distance from the mean, in exact arithmetic."""
    weights = [Fraction(w) for _, w in live]
    mean = sum(w * Fraction(z) for w, (z, _) in zip(weights, live)) / sum(weights)
    return len({abs(Fraction(z) - mean) for z, _ in live}) == 1


@settings(max_examples=300, deadline=None)
@given(
    nu=_color_measures,
    chi_f=st.floats(0.0, 10.0),
    sigma_p2=st.sampled_from([0.0]) | st.floats(0.0, 2.0),
)
# two equal weights whose variances the former law split in the last digit
@example(nu=TwoPoint(-0.369, 4.36, 0.5), chi_f=0.06, sigma_p2=0.05)
# Gaussian colors with chi_f = 0, and with sigma_p2 = 0
@example(nu=GaussianLaw(1.0, 0.5), chi_f=0.0, sigma_p2=0.5)
@example(nu=GaussianLaw(1.0, 0.5), chi_f=1.0, sigma_p2=0.0)
# a zero-weight atom the former law kept as a third component
@example(nu=FiniteDiscrete(((-1.0, 0.5), (1.0, 0.5), (3.0, 0.0))), chi_f=1.0, sigma_p2=0.5)
@example(nu=FiniteDiscrete(((-1.0, 0.25), (0.0, 0.5), (1.0, 0.25))), chi_f=2.0, sigma_p2=0.0)
def test_gamma_law_shape_rule(nu, chi_f, sigma_p2):
    law = gamma_law(REGIME_SUPERCRITICAL, chi_f, nu.variance, sigma_p2, nu)
    live = live_atoms(nu)
    if live is None:
        pairs = [(w, nu.variance * u2) for w, u2 in _HALF_NORMAL_NODES]
    else:
        pairs = [(w, (z - nu.mean) ** 2) for z, w in live]
    variances = [chi_f * nu.variance + d2 * sigma_p2 for _, d2 in pairs]
    # the first pair's component variance, as the mixture would have it
    first = variances[0]
    if (live is not None and _equidistant_from_mean(live)) or len(set(variances)) == 1:
        assert law == centered_gaussian(first)
    else:
        assert len(pairs) >= 2
        assert isinstance(law, GaussianMixture)
        assert [(w, m) for w, m, _ in law.components] == [(w, 0.0) for w, _ in pairs]
        assert law.components[0][2] == first
    _assert_former_gamma_law_kept(nu, chi_f, sigma_p2, law)


@pytest.mark.parametrize(
    "nu,sigma_p2,expected",
    [
        # every variance underflows to 0: the point mass, not N(0, 0) components
        (parse_color_measure("discrete:0:0.3,1e-200:0.7"), 0.5, PointMass(value=0.0)),
        # unequal weights whose variances agree after rounding: one Gaussian
        (TwoPoint(-1.0, 1.0, 0.3), 1e-300, GaussianLaw(mean=0.0, variance=0.84)),
    ],
    ids=["underflow-point-mass", "rounded-equal-variances"],
)
def test_gamma_law_is_one_law_where_variances_agree_in_floats(nu, sigma_p2, expected):
    law = gamma_law(REGIME_SUPERCRITICAL, 1.0, nu.variance, sigma_p2, nu)
    assert law == expected
    assert law == _ladder_gamma_law(1.0, nu.variance, sigma_p2, nu)


@settings(max_examples=300, deadline=None)
@given(nu=st.builds(TwoPoint, a=_atom_values, b=_atom_values, alpha=_unit), theta=_unit)
@example(nu=TwoPoint(-1.0, 1.0, 0.7), theta=0.4)
def test_lln_limit_two_point_is_the_former_two_point_law(nu, theta):
    m = nu.mean
    if theta == 0.0 or _ladder_is_point_mass(nu):
        former = PointMass(value=m)
    else:
        lo = (1.0 - theta) * m + theta * nu.a
        hi = (1.0 - theta) * m + theta * nu.b
        assume(lo != hi)
        former = TwoPointLaw(atom_pairs=((lo, 1.0 - nu.alpha), (hi, nu.alpha)))
    law = lln_limit_law(nu, theta)
    assert type(law) is type(former)
    assert law == former
    assert law.to_dict() == former.to_dict()


@pytest.mark.parametrize("theta", [0.0, 0.3, 1.0])
def test_lln_limit_discrete_and_two_point_colors_agree(theta):
    discrete = lln_limit_law(parse_color_measure("discrete:-1:0.5,1:0.5"), theta)
    two_point = lln_limit_law(parse_color_measure("two-point:-1,1,0.5"), theta)
    assert discrete == two_point
    assert discrete.to_dict() == two_point.to_dict()


def test_lln_limit_drops_zero_weight_atoms():
    nu = FiniteDiscrete(((-1.0, 0.2), (0.0, 0.0), (2.0, 0.8)))
    law = lln_limit_law(nu, 0.5)
    assert isinstance(law, TwoPointLaw)
    assert [w for _, w in law.atoms()] == [0.2, 0.8]
    assert lln_limit_law(GaussianLaw(1.5, 0.0), 0.5) == PointMass(value=1.5)
