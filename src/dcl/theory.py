"""Closed-form limit laws for the colored-percolation observables.

The laws here are the predicted limits: the law of the spatial color
average, the fluctuation law for quenched sums over finite clusters, the
annealed fluctuation law gamma, and the Gaussian law for occupied-volume
fluctuations. Every law has a closed form; point masses are represented
exactly, never as zero-variance Gaussians. gamma is one law on both sides
of p_c: below it the stand-in volume has no variance density, sigma_p2 = 0,
and the same formula gives the subcritical Gaussian.
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
    _WEIGHT_TOL,
    _check_finite,
    atom_thresholds,
    atom_values,
    draw_table,
    is_point_mass,
    live_atoms,
)
from .stats import gaussian_cdf


def _half_normal_nodes() -> tuple[tuple[float, float], ...]:
    """(w_k, u_k^2) pairs with E[g(|u|)] ~ sum_k w_k g(u_k) for u ~ N(0, 1).

    The trapezoid rule with step h = 0.15 in s = log|u|, folded over the
    sign of u: u_k = exp(h k) and w_k = 2 h phi(u_k) u_k (Trefethen &
    Weideman, SIAM Rev. 56, 385, 2014). The nodes of weight >= 1e-15 are
    kept: 231 of them, with weights summing to 1 within 5e-15. A Gaussian
    scale mixture E[Phi(t / sqrt(a + b u^2))] on them is within 1e-14 of
    its integral for every a, b >= 0, a = 0 included.
    """
    h = 0.15
    u = np.exp(h * np.arange(-240, 40))
    w = 2.0 * h * u * np.exp(-0.5 * u**2) / math.sqrt(2.0 * math.pi)
    return tuple((float(wk), float(uk * uk)) for wk, uk in zip(w, u) if wk >= 1e-15)


_HALF_NORMAL_NODES = _half_normal_nodes()


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
        if abs(p1 + p2 - 1.0) > _WEIGHT_TOL or p1 < 0.0 or p2 < 0.0:
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
        return atom_values(self._values, self._thresholds, rng.random(size))

    def atoms(self) -> tuple[tuple[float, float], ...]:
        return self.atom_pairs

    def to_dict(self) -> dict:
        return {"type": "two-point-law", "atoms": [[v, p] for v, p in self.atom_pairs]}


@dataclass(frozen=True)
class GaussianMixture:
    """gamma, the law of x + y (z - m) at any p, written by its parameters.

    x ~ N(0, chi_f sigma2), y ~ N(0, sigma_p2) and z ~ nu are independent,
    with m and sigma2 nu's mean and variance. Given z the law is
    N(0, chi_f sigma2 + (z - m)^2 sigma_p2), and gamma mixes these over z,
    through (weight, (z - m)^2) pairs: the live atoms for atomic nu, and the
    half-normal nodes scaled by sigma2 for Gaussian nu. weights and
    variances list the components in that order. Below p_c, sigma_p2 = 0
    and every component is N(0, chi_f sigma2).
    """

    chi_f: float
    sigma_p2: float
    nu: ColorMeasure
    weights: tuple[float, ...] = field(init=False, repr=False, compare=False)
    variances: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _stds: np.ndarray = field(init=False, repr=False, compare=False)
    _thresholds: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_nonneg("chi_f", self.chi_f)
        _check_nonneg("sigma_p2", self.sigma_p2)
        sigma2 = self.nu.variance
        live = live_atoms(self.nu)
        if live is None:  # Gaussian nu: z - m = sqrt(sigma2) u with u ~ N(0, 1)
            pairs = tuple((w, sigma2 * u2) for w, u2 in _HALF_NORMAL_NODES)
        else:
            m = self.nu.mean
            pairs = tuple((w, (z - m) ** 2) for z, w in live)
        variances = tuple(self.chi_f * sigma2 + d2 * self.sigma_p2 for _, d2 in pairs)
        _check_finite("gamma component variances", *variances)
        object.__setattr__(self, "weights", tuple(w for w, _ in pairs))
        object.__setattr__(self, "variances", variances)
        object.__setattr__(self, "_stds", draw_table([math.sqrt(v) for v in variances]))
        object.__setattr__(self, "_thresholds", atom_thresholds(self.weights))

    def cdf(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        out = np.zeros_like(x)
        for w, v in zip(self.weights, self.variances):
            if v == 0.0:
                out += w * (x >= 0.0)
            else:
                out += w * gaussian_cdf(x, 0.0, v)
        return out

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """One uniform double u, then one standard normal, per draw.

        u picks component i, the number of partial weight sums before the
        last component that are <= u, and the draw is std_i times the normal.
        """
        return atom_values(self._stds, self._thresholds, rng.random(size)) * rng.standard_normal(size)

    def to_dict(self) -> dict:
        return {
            "type": "gaussian-mixture",
            "chi_f": self.chi_f,
            "sigma_p2": self.sigma_p2,
            "nu": self.nu.to_dict(),
            "components": len(self.weights),
        }


@dataclass(frozen=True)
class SampledLaw:
    """Exact sampler of gamma, x + y (z - m).

    x ~ N(0, chi_f sigma2), y ~ N(0, sigma_p2) and z ~ nu are independent.
    gamma_law gives the same law in closed form; sampling is deterministic
    given the generator passed in, so the draws stay reproducible.
    """

    chi_f: float
    sigma_p2: float
    nu: ColorMeasure

    def __post_init__(self) -> None:
        _check_nonneg("chi_f", self.chi_f)
        _check_nonneg("sigma_p2", self.sigma_p2)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        m = self.nu.mean
        sigma2 = self.nu.variance
        x = rng.normal(0.0, math.sqrt(self.chi_f * sigma2), size)
        y = rng.normal(0.0, math.sqrt(self.sigma_p2), size)
        z = self.nu.sample(rng, size)
        return x + y * (z - m)


LimitLaw = Union[PointMass, GaussianLaw, TwoPointLaw, FiniteDiscrete, GaussianMixture]


def lln_limit_law(nu: ColorMeasure, theta: float) -> LimitLaw:
    """Law of (1 - theta) m + theta Z with Z ~ nu.

    This is the limit of the spatial color average: the finite clusters
    contribute their mean color m, the infinite cluster contributes its own
    single color Z with spatial weight theta. For atomic nu it is the image
    of nu's live atoms, a TwoPointLaw for two of them and a FiniteDiscrete
    for more.
    """
    _check_theta(theta)
    m = nu.mean
    if theta == 0.0 or is_point_mass(nu):
        return PointMass(value=m)
    live = live_atoms(nu)
    if live is None:
        return GaussianLaw(mean=m, variance=theta**2 * nu.variance)
    image = tuple(((1.0 - theta) * m + theta * v, w) for v, w in live)
    if len(image) == 2:
        return TwoPointLaw(atom_pairs=image)
    return FiniteDiscrete(atoms_spec=image)


def gamma_law(chi_f: float, sigma_p2: float, nu: ColorMeasure) -> LimitLaw:
    """Annealed fluctuation law gamma, GaussianMixture(chi_f, sigma_p2, nu), for every p.

    It is one Gaussian, with the first component's variance, when two live
    atoms have equal weight (both then lie at one distance from m) or when
    every component has the same variance: sigma_p2 = 0, the subcritical
    limit N(0, chi_f sigma2) with sigma2 nu's variance, or one live atom.
    """
    law = GaussianMixture(chi_f, sigma_p2, nu)
    weights, variances = law.weights, law.variances
    if (len(weights) == 2 and weights[0] == weights[1]) or all(v == variances[0] for v in variances):
        return centered_gaussian(variances[0])
    return law


def centered_gaussian(variance: float) -> LimitLaw:
    """N(0, variance), or the point mass at 0 when variance is not > 0: never N(0, 0)."""
    if variance > 0.0:
        return GaussianLaw(mean=0.0, variance=variance)
    return PointMass(value=0.0)


def _check_theta(theta: float) -> None:
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [0, 1], got {theta}")


def _check_nonneg(name: str, value: float) -> None:
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and >= 0, got {value}")
