"""Color measures and cluster-constant color fields.

A color measure is the single-site law nu. Coloring assigns every cluster
one independent draw from nu; all sites of a cluster share that draw, so
the field is constant on clusters and independent across them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .percolation import ClusterLabeling

_WEIGHT_TOL = 1e-12


def draw_table(values) -> np.ndarray:
    """Read-only float64 copy of values, built once per law and shared by every draw."""
    table = np.array(values, dtype=np.float64)
    table.setflags(write=False)
    return table


def atom_thresholds(weights) -> np.ndarray:
    """Read-only partial sums of the weights before the last atom.

    These are the thresholds atom_index counts; since a uniform u is < 1,
    the last atom takes the rest of [0, 1) even when the weights sum to 1
    only within a rounding tolerance.
    """
    return draw_table(np.cumsum(weights, dtype=np.float64)[:-1])


def atom_index(u: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Atom index of each uniform in u: the number of thresholds <= it.

    For sorted thresholds this is searchsorted(thresholds, u, side="right"),
    but each threshold costs one comparison over all of u and one add, with
    no branch per element, so a fresh random u is as fast as a fixed one.
    The result indexes a table of atoms through ndarray.take.
    """
    dtype = np.min_scalar_type(thresholds.size)
    if thresholds.size == 0:
        return np.zeros(u.shape, dtype=dtype)
    index = (u >= thresholds[0]).view(np.uint8).astype(dtype, copy=False)
    for t in thresholds[1:]:
        index += (u >= t).view(np.uint8)
    return index


def _check_finite(what: str, *values: float) -> None:
    bad = [v for v in values if not math.isfinite(v)]
    if bad:
        raise ValueError(f"{what} must be finite, got {bad[0]!r}")


@dataclass(frozen=True)
class TwoPoint:
    """Two-atom law: value b with probability alpha, else value a."""

    a: float
    b: float
    alpha: float
    _values: np.ndarray = field(init=False, repr=False, compare=False)
    _thresholds: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_finite("two-point a, b and alpha", self.a, self.b, self.alpha)
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        object.__setattr__(self, "_values", draw_table((self.b, self.a)))
        object.__setattr__(self, "_thresholds", draw_table((self.alpha,)))

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
        """One uniform double u per draw: b where u < alpha, else a.

        The atom index is the number of thresholds (alpha,) that are <= u,
        gathered from the table (b, a).
        """
        return self._values.take(atom_index(rng.random(size), self._thresholds))

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
        _check_finite("gaussian mean and variance", self.mean, self.variance)
        if self.variance < 0.0:
            raise ValueError(f"variance must be >= 0, got {self.variance}")

    def central_even_moment(self, k: int) -> float:
        _check_moment_order(k)
        return double_factorial_odd(k) * self.variance**k

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """One standard normal per draw, none when the variance is 0."""
        if self.variance == 0.0:
            return np.full(size, self.mean)
        return rng.normal(self.mean, math.sqrt(self.variance), size)

    def atoms(self) -> tuple[tuple[float, float], ...] | None:
        """The single atom at the mean when the variance is 0; otherwise no atoms."""
        return ((self.mean, 1.0),) if self.variance == 0.0 else None

    def to_dict(self) -> dict:
        return {"type": "gaussian", "mean": self.mean, "variance": self.variance}


@dataclass(frozen=True)
class FiniteDiscrete:
    """Finitely supported law given as ((value, weight), ...)."""

    atoms_spec: tuple[tuple[float, float], ...]
    _values: np.ndarray = field(init=False, repr=False, compare=False)
    _thresholds: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.atoms_spec:
            raise ValueError("discrete law needs at least one atom")
        _check_finite("atom values and weights", *(x for atom in self.atoms_spec for x in atom))
        total = math.fsum(w for _, w in self.atoms_spec)
        if abs(total - 1.0) > _WEIGHT_TOL:
            raise ValueError(f"atom weights must sum to 1, got {total}")
        if any(w < 0.0 for _, w in self.atoms_spec):
            raise ValueError("atom weights must be non-negative")
        values = [v for v, _ in self.atoms_spec]
        if len(set(values)) != len(values):
            raise ValueError("atom values must be distinct")
        object.__setattr__(self, "_values", draw_table(values))
        object.__setattr__(self, "_thresholds", atom_thresholds([w for _, w in self.atoms_spec]))

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
        """One uniform double u per draw, mapped to atom i of atoms_spec.

        i is the number of partial weight sums before the last atom that
        are <= u.
        """
        return self._values.take(atom_index(rng.random(size), self._thresholds))

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


def live_atoms(nu: ColorMeasure) -> tuple[tuple[float, float], ...] | None:
    """The atoms of nu with positive weight, in nu's order, or None when nu has no atoms.

    Whether nu is atomic is nu.atoms() alone; the point-mass rule, the
    Gaussian-gamma rule and the atomic limit law read it through here.
    """
    atoms = nu.atoms()
    if atoms is None:
        return None
    return tuple((v, w) for v, w in atoms if w > 0.0)


def is_point_mass(nu: ColorMeasure) -> bool:
    """Whether nu is concentrated on a single value."""
    live = live_atoms(nu)
    return live is not None and len(live) <= 1


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
    them), not on how the labeling was computed. The stream is read in one
    call to nu.sample: for an atomic nu, one uniform double u per cluster,
    whose atom index is the number of nu's thresholds <= u; for a Gaussian
    nu, one normal per cluster, none when the variance is 0.
    """
    colors = np.asarray(nu.sample(rng, labeling.k_n), dtype=np.float64)
    colors.setflags(write=False)
    z = float(colors[labeling.infinite_proxy]) if labeling.infinite_proxy is not None else 0.0
    return ColorField(labeling=labeling, cluster_color=colors, z=z)
