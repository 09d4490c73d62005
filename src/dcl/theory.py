"""Closed-form limit laws for the colored-percolation observables.

The laws here are the predicted limits: the law of the spatial color
average, the fluctuation law for quenched sums over finite clusters, the
annealed fluctuation law gamma, and the Gaussian law for occupied-volume
fluctuations. Point masses are represented exactly, never as zero-variance
Gaussians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .coloring import (
    ColorMeasure,
    FiniteDiscrete,
    GaussianLaw,
    TwoPoint,
    _check_finite,
    atom_index,
    atom_thresholds,
    double_factorial_odd,
    draw_table,
    is_discrete,
    is_point_mass,
)
from .stats import gaussian_cdf

REGIME_SUBCRITICAL = "subcritical"
REGIME_SUPERCRITICAL = "supercritical"
REGIMES = (REGIME_SUBCRITICAL, REGIME_SUPERCRITICAL)

_HALF_TOL = 1e-12


@dataclass(frozen=True)
class PointMass:
    """Deterministic law concentrated at one value."""

    value: float

    @property
    def mean(self) -> float:
        return self.value

    @property
    def variance(self) -> float:
        return 0.0

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return np.full(size, self.value)

    def atoms(self) -> tuple[tuple[float, float], ...]:
        return ((self.value, 1.0),)

    def to_dict(self) -> dict:
        return {"type": "point-mass", "value": self.value}


@dataclass(frozen=True)
class TwoPointLaw:
    """Law on two atoms, ((v1, p1), (v2, p2)) with p1 + p2 = 1."""

    atom_pairs: tuple[tuple[float, float], tuple[float, float]]
    _values: np.ndarray = field(init=False, repr=False, compare=False)
    _thresholds: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        (v1, p1), (v2, p2) = self.atom_pairs
        _check_finite("two-point law atoms and probabilities", v1, p1, v2, p2)
        if v1 == v2:
            raise ValueError("two-point law needs distinct atoms; use PointMass")
        if abs(p1 + p2 - 1.0) > _HALF_TOL or p1 < 0.0 or p2 < 0.0:
            raise ValueError(f"atom probabilities must be a distribution, got {p1}, {p2}")
        object.__setattr__(self, "_values", draw_table((v1, v2)))
        object.__setattr__(self, "_thresholds", draw_table((p1,)))

    @property
    def mean(self) -> float:
        return math.fsum(v * p for v, p in self.atom_pairs)

    @property
    def variance(self) -> float:
        m = self.mean
        return math.fsum(p * (v - m) ** 2 for v, p in self.atom_pairs)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """One uniform double u per draw: v1 where u < p1, else v2.

        The atom index is the number of thresholds (p1,) that are <= u,
        gathered from the table (v1, v2).
        """
        return self._values.take(atom_index(rng.random(size), self._thresholds))

    def atoms(self) -> tuple[tuple[float, float], ...]:
        return self.atom_pairs

    def to_dict(self) -> dict:
        return {"type": "two-point-law", "atoms": [[v, p] for v, p in self.atom_pairs]}


@dataclass(frozen=True)
class GaussianMixture:
    """Finite mixture of Gaussians, components ((weight, mean, variance), ...)."""

    components: tuple[tuple[float, float, float], ...]
    _means: np.ndarray = field(init=False, repr=False, compare=False)
    _stds: np.ndarray = field(init=False, repr=False, compare=False)
    _thresholds: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.components:
            raise ValueError("mixture needs at least one component")
        _check_finite("mixture weights, means and variances", *(x for c in self.components for x in c))
        total = math.fsum(w for w, _, _ in self.components)
        if abs(total - 1.0) > _HALF_TOL:
            raise ValueError(f"mixture weights must sum to 1, got {total}")
        if any(w < 0.0 or v < 0.0 for w, _, v in self.components):
            raise ValueError("mixture weights and variances must be non-negative")
        object.__setattr__(self, "_means", draw_table([m for _, m, _ in self.components]))
        object.__setattr__(self, "_stds", draw_table([math.sqrt(v) for _, _, v in self.components]))
        object.__setattr__(self, "_thresholds", atom_thresholds([w for w, _, _ in self.components]))

    @property
    def mean(self) -> float:
        return math.fsum(w * m for w, m, _ in self.components)

    @property
    def variance(self) -> float:
        mean = self.mean
        return math.fsum(w * (v + (m - mean) ** 2) for w, m, v in self.components)

    def raw_moment(self, r: int) -> float:
        """E[X^r] from the exact Gaussian component moments."""
        return math.fsum(w * _gaussian_raw_moment(m, v, r) for w, m, v in self.components)

    def excess_kurtosis(self) -> float:
        mean = self.mean
        var = self.variance
        if var == 0.0:
            raise ValueError("kurtosis undefined for a degenerate mixture")
        m4 = math.fsum(
            w * _gaussian_raw_moment(m - mean, v, 4) for w, m, v in self.components
        )
        return m4 / var**2 - 3.0

    def cdf(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        out = np.zeros_like(x)
        for w, m, v in self.components:
            if v == 0.0:
                out += w * (x >= m)
            else:
                out += w * gaussian_cdf(x, m, v)
        return out

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """One uniform double u, then one standard normal, per draw.

        u picks component i, the number of partial weight sums before the
        last component that are <= u, and the draw is mean_i + std_i times
        the normal.
        """
        which = atom_index(rng.random(size), self._thresholds)
        return self._means.take(which) + self._stds.take(which) * rng.standard_normal(size)

    def to_dict(self) -> dict:
        return {"type": "gaussian-mixture", "components": [[w, m, v] for w, m, v in self.components]}


@dataclass(frozen=True)
class SampledLaw:
    """Law given by a named sampler and its parameters.

    Used where no closed form is exposed; sampling is deterministic given
    the generator passed in, so the law stays reproducible.
    """

    kind: str
    chi_f: float = float("nan")
    sigma_p2: float = float("nan")
    theta: float = float("nan")
    nu: ColorMeasure | None = None

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.nu is None:
            raise ValueError("sampled law needs its color measure")
        if self.kind == "gamma-supercritical":
            m = self.nu.mean
            sigma2 = self.nu.variance
            x = rng.normal(0.0, math.sqrt(self.chi_f * sigma2), size)
            y = rng.normal(0.0, math.sqrt(self.sigma_p2), size)
            z = self.nu.sample(rng, size)
            return x + y * (z - m)
        if self.kind == "lln-color-average":
            m = self.nu.mean
            z = self.nu.sample(rng, size)
            return (1.0 - self.theta) * m + self.theta * z
        raise ValueError(f"unknown sampler kind {self.kind!r}")

    def to_dict(self) -> dict:
        out: dict = {"type": "sampled", "kind": self.kind}
        if not math.isnan(self.chi_f):
            out["chi_f"] = self.chi_f
        if not math.isnan(self.sigma_p2):
            out["sigma_p2"] = self.sigma_p2
        if not math.isnan(self.theta):
            out["theta"] = self.theta
        if self.nu is not None:
            out["nu"] = self.nu.to_dict()
        return out


LimitLaw = Union[PointMass, GaussianLaw, TwoPointLaw, GaussianMixture, SampledLaw]


def _gaussian_raw_moment(mean: float, variance: float, r: int) -> float:
    """E[X^r] for X ~ N(mean, variance), by the standard recursion."""
    if r < 0:
        raise ValueError(f"moment order must be >= 0, got {r}")
    prev2, prev1 = 1.0, mean
    if r == 0:
        return prev2
    if r == 1:
        return prev1
    for order in range(2, r + 1):
        prev2, prev1 = prev1, mean * prev1 + (order - 1) * variance * prev2
    return prev1


def lln_limit_law(nu: ColorMeasure, theta: float) -> LimitLaw:
    """Law of (1 - theta) m + theta Z with Z ~ nu.

    This is the limit of the spatial color average: the finite clusters
    contribute their mean color m, the infinite cluster contributes its own
    single color Z with spatial weight theta.
    """
    _check_theta(theta)
    m = nu.mean
    if theta == 0.0 or is_point_mass(nu):
        return PointMass(value=m)
    if isinstance(nu, TwoPoint):
        lo = (1.0 - theta) * m + theta * nu.a
        hi = (1.0 - theta) * m + theta * nu.b
        return TwoPointLaw(atom_pairs=((lo, 1.0 - nu.alpha), (hi, nu.alpha)))
    if isinstance(nu, GaussianLaw):
        return GaussianLaw(mean=m, variance=theta**2 * nu.variance)
    return SampledLaw(kind="lln-color-average", theta=theta, nu=nu)


def two_point_magnetization(alpha: float, theta: float) -> LimitLaw:
    """Limit law of the color average for nu on {-1, +1} with P(+1) = alpha.

    Takes the value 2 alpha (1 - theta) + 2 theta - 1 with probability alpha
    and 2 alpha (1 - theta) - 1 with probability 1 - alpha; at theta = 0 the
    two coincide and the law degenerates to a point mass.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    _check_theta(theta)
    hi = 2.0 * alpha * (1.0 - theta) + 2.0 * theta - 1.0
    lo = 2.0 * alpha * (1.0 - theta) - 1.0
    if hi == lo or alpha in (0.0, 1.0):
        return PointMass(value=hi if alpha > 0.0 else lo)
    return TwoPointLaw(atom_pairs=((lo, 1.0 - alpha), (hi, alpha)))


def sign_deterministic(alpha: float, theta: float) -> bool:
    """Whether the limiting color average has almost surely constant sign.

    For the {-1, +1} measure the criterion is max(alpha, 1 - alpha)
    (1 - theta) >= 1/2.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    _check_theta(theta)
    return max(alpha, 1.0 - alpha) * (1.0 - theta) >= 0.5


def gamma_sampler(chi_f: float, sigma_p2: float, nu: ColorMeasure) -> SampledLaw:
    """Sampler form of gamma: x + y (z - m) with independent
    x ~ N(0, chi_f sigma2), y ~ N(0, sigma_p2), z ~ nu."""
    _check_nonneg("chi_f", chi_f)
    _check_nonneg("sigma_p2", sigma_p2)
    return SampledLaw(kind="gamma-supercritical", chi_f=chi_f, sigma_p2=sigma_p2, nu=nu)


def gamma_law(
    regime: str, chi_f: float, sigma2: float, sigma_p2: float, nu: ColorMeasure
) -> LimitLaw:
    """Annealed fluctuation law gamma.

    Subcritical: N(0, chi_f sigma2) regardless of nu beyond its variance.
    Supercritical with discrete nu: the mixture over atoms z of
    N(0, chi_f sigma2 + (z - m)^2 sigma_p2); equal-variance components
    collapse to a single Gaussian. Supercritical continuous nu: the sampler
    form (no closed form is exposed).
    """
    if regime not in REGIMES:
        raise ValueError(f"regime must be one of {REGIMES}, got {regime!r}")
    _check_nonneg("chi_f", chi_f)
    _check_nonneg("sigma2", sigma2)
    _check_nonneg("sigma_p2", sigma_p2)
    if regime == REGIME_SUBCRITICAL:
        return centered_gaussian(chi_f * sigma2)
    m = nu.mean
    if is_discrete(nu):
        pairs = nu.atoms() if not isinstance(nu, GaussianLaw) else ((nu.mean, 1.0),)
        components = tuple(
            (w, 0.0, chi_f * sigma2 + (z - m) ** 2 * sigma_p2) for z, w in pairs
        )
        variances = {v for _, _, v in components}
        if len(variances) == 1:
            return centered_gaussian(variances.pop())
        return GaussianMixture(components=components)
    return gamma_sampler(chi_f, sigma_p2, nu)


def centered_gaussian(variance: float) -> LimitLaw:
    """N(0, variance), or the point mass at 0 when variance is not > 0: never N(0, 0)."""
    if variance > 0.0:
        return GaussianLaw(mean=0.0, variance=variance)
    return PointMass(value=0.0)


def is_gamma_gaussian(nu: ColorMeasure) -> bool:
    """Whether gamma is Gaussian for every parameter choice.

    True exactly when nu puts weight 1/2 on each of two atoms; a point mass
    counts as the degenerate case with both atoms equal.
    """
    if is_point_mass(nu):
        return True
    if isinstance(nu, TwoPoint):
        return abs(nu.alpha - 0.5) <= _HALF_TOL
    if isinstance(nu, FiniteDiscrete):
        live = [(v, w) for v, w in nu.atoms_spec if w > 0.0]
        return len(live) == 2 and all(abs(w - 0.5) <= _HALF_TOL for _, w in live)
    return False


def gamma_prime_moment(k: int, nu: ColorMeasure, sigma_p2: float) -> float:
    """2k-th moment of gamma' = y (z - m), y ~ N(0, sigma_p2), z ~ nu.

    Equals (2k)!/(k! 2^k) times the 2k-th central moment of nu times
    sigma_p2^k. Exact integer combinatorics below k = 11, log-gamma above.
    """
    _check_nonneg("sigma_p2", sigma_p2)
    return double_factorial_odd(k) * nu.central_even_moment(k) * sigma_p2**k


def covariance_prediction(sigma2: float, connect_prob: float) -> float:
    """Cov(X_0, X_k) = sigma2 P(k connected to 0) for the annealed field."""
    _check_nonneg("sigma2", sigma2)
    if not 0.0 <= connect_prob <= 1.0:
        raise ValueError(f"connection probability must lie in [0, 1], got {connect_prob}")
    return sigma2 * connect_prob


def _check_theta(theta: float) -> None:
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [0, 1], got {theta}")


def _check_nonneg(name: str, value: float) -> None:
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and >= 0, got {value}")
