"""Color measures and cluster-constant colorings.

A color measure is the single-site law nu. Coloring assigns every cluster
one independent draw from nu, held in a plain array indexed by cluster id.
Site x takes the color of its cluster's id, so the field is constant on
clusters and independent across them. A quenched run's centered sums need
no such array: centered_sums draws them from per-size atom counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .percolation import map_ordered
from .rng import derive_streams

_WEIGHT_TOL = 1e-12

# Colorings per stream, and per task on the worker pool, in centered_sums.
_COLOR_CHUNK = 256


def draw_table(values) -> np.ndarray:
    """Read-only float64 copy of values, built once per law and shared by every draw."""
    table = np.array(values, dtype=np.float64)
    table.setflags(write=False)
    return table


def atom_thresholds(weights) -> np.ndarray:
    """Read-only partial sums of the weights before the last atom.

    These are the thresholds atom_values counts; since a uniform u is < 1,
    the last atom takes the rest of [0, 1) even when the weights sum to 1
    only within a rounding tolerance.
    """
    return draw_table(np.cumsum(weights, dtype=np.float64)[:-1])


def atom_values(values: np.ndarray, thresholds: np.ndarray, u: np.ndarray) -> np.ndarray:
    """values[i] for each uniform in u, i the number of thresholds <= it.

    Every draw from an atomic law maps its uniform here. For sorted
    thresholds i is searchsorted(thresholds, u, side="right"), but each
    threshold costs one comparison over all of u and one add, with no
    branch per element, so a fresh random u is as fast as a fixed one.
    i never leaves [0, values.size), so take's mode="clip" clips nothing;
    it spares take the bounds check of its default mode, which converts and
    buffers the indices and takes about four times as long.
    """
    dtype = np.min_scalar_type(thresholds.size)
    if thresholds.size == 0:
        index = np.zeros(u.shape, dtype=dtype)
    else:  # the first compare's mask is the index itself, with no add
        index = (u >= thresholds[0]).view(np.uint8).astype(dtype, copy=False)
        for t in thresholds[1:]:
            index += (u >= t).view(np.uint8)
    return values.take(index, mode="clip")


def _set_tables(nu, values, weights) -> None:
    """Give an atomic law its draw tables: values, weights and thresholds, in one atom order."""
    object.__setattr__(nu, "_values", draw_table(values))
    object.__setattr__(nu, "_weights", draw_table(weights))
    object.__setattr__(nu, "_thresholds", atom_thresholds(weights))


def _check_finite(what: str, *values: float) -> None:
    bad = [v for v in values if not math.isfinite(v)]
    if bad:
        raise ValueError(f"{what} must be finite, got {bad[0]!r}")


def _check_variance(what: str, nu) -> None:
    """Refuse a law whose finite atoms spread so far that its variance overflows a float."""
    try:
        variance = nu.variance
    except OverflowError:  # float ** overflows with an error, not to inf
        variance = math.inf
    _check_finite(f"{what} variance", variance)


@dataclass(frozen=True)
class TwoPoint:
    """Two-atom law: value b with probability alpha, else value a."""

    a: float
    b: float
    alpha: float
    _values: np.ndarray = field(init=False, repr=False, compare=False)
    _weights: np.ndarray = field(init=False, repr=False, compare=False)
    _thresholds: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_finite("two-point a, b and alpha", self.a, self.b, self.alpha)
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        _check_variance("two-point", self)
        _set_tables(self, (self.b, self.a), (self.alpha, 1.0 - self.alpha))

    @property
    def mean(self) -> float:
        if self.a == self.b:
            return self.a
        return (1.0 - self.alpha) * self.a + self.alpha * self.b

    @property
    def variance(self) -> float:
        if self.alpha in (0.0, 1.0):
            return 0.0  # a point mass, however far its dead atom lies
        return self.alpha * (1.0 - self.alpha) * (self.b - self.a) ** 2

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """One uniform double u per draw: b where u < alpha, else a."""
        return atom_values(self._values, self._thresholds, rng.random(size))

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
    _weights: np.ndarray = field(init=False, repr=False, compare=False)
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
        _check_variance("discrete", self)
        _set_tables(self, values, [w for _, w in self.atoms_spec])

    @property
    def mean(self) -> float:
        return math.fsum(v * w for v, w in self.atoms_spec)

    @property
    def variance(self) -> float:
        m = self.mean
        return math.fsum(w * (v - m) ** 2 for v, w in self.atoms_spec if w > 0.0)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """One uniform double u per draw: atom i of atoms_spec, i the partial weight sums <= u."""
        return atom_values(self._values, self._thresholds, rng.random(size))

    def atoms(self) -> tuple[tuple[float, float], ...]:
        return self.atoms_spec

    def to_dict(self) -> dict:
        return {"type": "discrete", "atoms": [[v, w] for v, w in self.atoms_spec]}


ColorMeasure = Union[TwoPoint, GaussianLaw, FiniteDiscrete]


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


def centered_sums(
    nu: ColorMeasure, seed: int, role: str, count: int, piece: np.ndarray, workers: int = 1
) -> np.ndarray:
    """count draws of sum_j (c_j - m) piece[j], c an independent coloring of the ids from nu.

    m is nu's mean, and piece holds an integer weight per id (window_pieces'
    piece, with each stand-in 0). Given the pieces, a sum depends on its
    coloring only through how many of the n_s ids of each weight s > 0 drew
    each atom, and those counts are independent Multinomial(n_s, weights)
    draws. So an atomic law draws one such count per piece size and atom
    (in draw-table order) and sums B_k = sum_s s counts_sk, exact in int64,
    as B_0 (v_0 - m) + B_1 (v_1 - m) + ... in table order. A dead atom's
    B_k is 0, so a point mass sums to +0.0 exactly. A Gaussian law's sum is
    exactly N(0, sigma^2 sum_j piece[j]**2): one normal per coloring,
    scaled, and +0.0 when that variance is 0.

    Chunk i of _COLOR_CHUNK colorings draws from the one stream
    f"{role}:{i}", whichever worker runs it, so the sums do not depend on
    the worker count.
    """
    sizes, n = np.unique(piece[piece > 0], return_counts=True)
    starts = range(0, count, _COLOR_CHUNK)
    gaussian = isinstance(nu, GaussianLaw)
    if gaussian:
        sd = math.sqrt(nu.variance * float(np.dot(piece, piece)))
    else:
        centered = nu._values - nu.mean

    def chunk(i: int) -> np.ndarray:
        size = min(_COLOR_CHUNK, count - starts[i])
        rng = next(derive_streams(seed, role, i, 1))
        if gaussian:
            return sd * rng.standard_normal(size) if sd else np.zeros(size)
        counts = rng.multinomial(n, nu._weights, size=(size, sizes.size))
        totals = counts.transpose(2, 0, 1) @ sizes
        out = totals[0] * centered[0]
        for total, c in zip(totals[1:], centered[1:]):
            out += total * c
        return out

    return np.concatenate(map_ordered(chunk, len(starts), workers))


def color_clusters(k_n: int, nu: ColorMeasure, rng: np.random.Generator) -> np.ndarray:
    """The read-only colors of cluster ids 0..k_n-1, one draw from nu each, taken from rng.

    Draw j goes to the cluster with id j; ids are ordered by smallest site
    index, so the assignment depends only on the labeling and the stream
    rng is on, not on how the labeling was computed. The draws are nu's own
    sample: for an atomic nu, one uniform double u per cluster, whose atom
    index is the number of nu's thresholds <= u; for a Gaussian nu, one
    normal per cluster, none when the variance is 0.
    """
    colors = nu.sample(rng, k_n)
    colors.setflags(write=False)
    return colors
