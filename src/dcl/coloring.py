"""Color measures and cluster-constant color fields.

A color measure is the single-site law nu. Coloring assigns every cluster
one independent draw from nu; all sites of a cluster share that draw, so
the field is constant on clusters and independent across them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .percolation import ClusterLabeling

_WEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class TwoPoint:
    """Two-atom law: value b with probability alpha, else value a."""

    a: float
    b: float
    alpha: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")

    @property
    def mean(self) -> float:
        if self.a == self.b:
            return self.a
        return (1.0 - self.alpha) * self.a + self.alpha * self.b

    @property
    def variance(self) -> float:
        return self.alpha * (1.0 - self.alpha) * (self.b - self.a) ** 2

    def central_even_moment(self, k: int) -> float:
        _check_moment_order(k)
        m = self.mean
        return (1.0 - self.alpha) * (self.a - m) ** (2 * k) + self.alpha * (self.b - m) ** (2 * k)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return np.where(rng.random(size) < self.alpha, self.b, self.a)

    def atoms(self) -> tuple[tuple[float, float], ...]:
        if self.a == self.b:
            return ((self.a, 1.0),)
        return ((self.a, 1.0 - self.alpha), (self.b, self.alpha))

    def to_dict(self) -> dict:
        return {"type": "two-point", "a": self.a, "b": self.b, "alpha": self.alpha}


@dataclass(frozen=True)
class GaussianLaw:
    """Gaussian law, also reused as a limit-law variant."""

    mean: float
    variance: float

    def __post_init__(self) -> None:
        if self.variance < 0.0:
            raise ValueError(f"variance must be >= 0, got {self.variance}")

    def central_even_moment(self, k: int) -> float:
        _check_moment_order(k)
        return double_factorial_odd(k) * self.variance**k

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.variance == 0.0:
            return np.full(size, self.mean)
        return rng.normal(self.mean, math.sqrt(self.variance), size)

    def to_dict(self) -> dict:
        return {"type": "gaussian", "mean": self.mean, "variance": self.variance}


@dataclass(frozen=True)
class FiniteDiscrete:
    """Finitely supported law given as ((value, weight), ...)."""

    atoms_spec: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.atoms_spec:
            raise ValueError("discrete law needs at least one atom")
        total = math.fsum(w for _, w in self.atoms_spec)
        if abs(total - 1.0) > _WEIGHT_TOL:
            raise ValueError(f"atom weights must sum to 1, got {total}")
        if any(w < 0.0 for _, w in self.atoms_spec):
            raise ValueError("atom weights must be non-negative")
        values = [v for v, _ in self.atoms_spec]
        if len(set(values)) != len(values):
            raise ValueError("atom values must be distinct")

    @property
    def mean(self) -> float:
        return math.fsum(v * w for v, w in self.atoms_spec)

    @property
    def variance(self) -> float:
        m = self.mean
        return math.fsum(w * (v - m) ** 2 for v, w in self.atoms_spec)

    def central_even_moment(self, k: int) -> float:
        _check_moment_order(k)
        m = self.mean
        return math.fsum(w * (v - m) ** (2 * k) for v, w in self.atoms_spec)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        values = np.array([v for v, _ in self.atoms_spec])
        cum = np.cumsum([w for _, w in self.atoms_spec])
        cum[-1] = 1.0
        return values[np.searchsorted(cum, rng.random(size), side="right")]

    def atoms(self) -> tuple[tuple[float, float], ...]:
        return self.atoms_spec

    def to_dict(self) -> dict:
        return {"type": "discrete", "atoms": [[v, w] for v, w in self.atoms_spec]}


ColorMeasure = Union[TwoPoint, GaussianLaw, FiniteDiscrete]


def _check_moment_order(k: int) -> None:
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"moment order must be a positive integer, got {k!r}")


def double_factorial_odd(k: int) -> float:
    """(2k-1)!! = (2k)! / (k! 2^k), exact for small k, log-gamma above."""
    _check_moment_order(k)
    if k <= 10:
        return float(math.factorial(2 * k) // (math.factorial(k) * 2**k))
    return math.exp(math.lgamma(2 * k + 1) - math.lgamma(k + 1) - k * math.log(2.0))


def moments(nu: ColorMeasure) -> tuple[float, float, Callable[[int], float]]:
    """Mean, variance, and the even central moment function of nu."""
    return nu.mean, nu.variance, nu.central_even_moment


def is_point_mass(nu: ColorMeasure) -> bool:
    """Whether nu is concentrated on a single value."""
    if isinstance(nu, TwoPoint):
        return nu.a == nu.b or nu.alpha in (0.0, 1.0)
    if isinstance(nu, GaussianLaw):
        return nu.variance == 0.0
    return sum(1 for _, w in nu.atoms_spec if w > 0.0) <= 1


def is_discrete(nu: ColorMeasure) -> bool:
    return isinstance(nu, (TwoPoint, FiniteDiscrete)) or (
        isinstance(nu, GaussianLaw) and nu.variance == 0.0
    )


def parse_color_measure(text: str) -> ColorMeasure:
    """Parse the config grammar for color measures.

    Accepted forms:
      two-point:a,b,alpha
      gaussian:mean,variance
      discrete:v1:w1,v2:w2,...
    """
    head, sep, body = text.partition(":")
    if not sep:
        raise ValueError(f"malformed color measure {text!r}: missing ':'")
    head = head.strip()
    if head == "two-point":
        parts = body.split(",")
        if len(parts) != 3:
            raise ValueError(f"two-point needs a,b,alpha, got {body!r}")
        a, b, alpha = (float(s) for s in parts)
        return TwoPoint(a=a, b=b, alpha=alpha)
    if head == "gaussian":
        parts = body.split(",")
        if len(parts) != 2:
            raise ValueError(f"gaussian needs mean,variance, got {body!r}")
        mean, variance = (float(s) for s in parts)
        return GaussianLaw(mean=mean, variance=variance)
    if head == "discrete":
        atoms = []
        for chunk in body.split(","):
            pieces = chunk.split(":")
            if len(pieces) != 2:
                raise ValueError(f"discrete atoms are value:weight pairs, got {chunk!r}")
            atoms.append((float(pieces[0]), float(pieces[1])))
        return FiniteDiscrete(atoms_spec=tuple(atoms))
    raise ValueError(f"unknown color measure kind {head!r}")


@dataclass(frozen=True)
class ColorField:
    """Cluster-constant color assignment for one labeling.

    Z is the color of the infinite stand-in cluster, or 0 when the labeling
    has none.
    """

    labeling: ClusterLabeling
    cluster_color: np.ndarray
    z: float

    def site_color(self, site: int) -> float:
        return float(self.cluster_color[self.labeling.cluster_id[site]])

    def values(self, sites: np.ndarray) -> np.ndarray:
        """Colors at the given flat site indices."""
        return self.cluster_color[self.labeling.cluster_id[sites]]


def color_clusters(labeling: ClusterLabeling, nu: ColorMeasure, rng: np.random.Generator) -> ColorField:
    """Draw one color per cluster from nu, taking the draws from rng.

    Draw j goes to the cluster with id j; ids are ordered by smallest site
    index, so the assignment depends only on the labeling and the stream
    rng is on (derive_rng for one coloring, derive_streams for a run of
    them), not on how the labeling was computed.
    """
    colors = np.asarray(nu.sample(rng, labeling.k_n), dtype=np.float64)
    colors.setflags(write=False)
    z = float(colors[labeling.infinite_proxy]) if labeling.infinite_proxy is not None else 0.0
    return ColorField(labeling=labeling, cluster_color=colors, z=z)
