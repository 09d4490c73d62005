"""Color measures and cluster-constant colorings.

A color measure is the single-site law nu. Coloring assigns every cluster
one independent draw from nu, held in a plain array indexed by cluster id.
Site x takes the color of its cluster's id, so the field is constant on
clusters and independent across them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .percolation import map_ordered
from .rng import derive_streams

_WEIGHT_TOL = 1e-12

# Colorings per derive_streams call, and per task on the worker pool, in
# centered_sums.
_COLOR_CHUNK = 256
# Draws per block of centered_sums: a chunk is drawn in blocks of
# max(1, _COLOR_BLOCK_VALUES // read ids) colorings, small enough to stay in
# cache. An atomic law's sums come from exact integer counts, so they do not
# depend on a coloring's place in its block. A Gaussian block takes one
# matrix-vector product, whose BLAS summation order may; blocks start at
# multiples of the row count within a chunk, so that place never depends on
# the worker count.
_COLOR_BLOCK_VALUES = 2**15


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


def atom_values(
    values: np.ndarray, thresholds: np.ndarray, u: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """values[i] for each uniform in u, i the number of thresholds <= it; into out when given.

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
    return values.take(index, mode="clip", out=out)


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
    _thresholds: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_finite("two-point a, b and alpha", self.a, self.b, self.alpha)
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        _check_variance("two-point", self)
        object.__setattr__(self, "_values", draw_table((self.b, self.a)))
        object.__setattr__(self, "_thresholds", draw_table((self.alpha,)))

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
        object.__setattr__(self, "_values", draw_table(values))
        object.__setattr__(self, "_thresholds", atom_thresholds([w for _, w in self.atoms_spec]))

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
    """The count sums sum_j (c_j - m) piece[j], c the coloring on stream f"{role}:{i}", i < count.

    c_j is the color color_clusters gives id j from that stream, m is nu's
    mean, and piece holds an integer weight per id (window_pieces' piece,
    with each stand-in 0). Only ids lo..hi-1, from the first to the last
    nonzero weight, are read; the span is empty when every weight is 0.
    Cluster j takes draw j of its stream. A law that reads one uniform per
    draw (TwoPoint, FiniteDiscrete) has its streams seated at draw lo by
    derive_streams, so it pays nothing for the ids before lo. A Gaussian
    law's streams start at draw 0: the ziggurat reads a varying number of
    outputs per normal, so it cannot skip and draws the prefix of hi
    normals. Chunks of _COLOR_CHUNK colorings run on the worker pool, each
    drawn in blocks of max(1, _COLOR_BLOCK_VALUES // (hi - lo)) colorings,
    into buffers allocated once per chunk.

    A Gaussian law colors each block, subtracts m and takes one
    matrix-vector product with the weights. An atomic law builds no colors:
    with thresholds t_1 <= t_2 <= ... (atom_thresholds), d_k = sum_j piece[j]
    1{u_j >= t_k} is one compare and one matrix-vector product per
    threshold, d_0 = sum(piece), and atom k is drawn by clusters of total
    weight B_k = d_k - d_{k+1}. The sum is then sum_k (v_k - m) B_k, taken
    once for all the colorings of a chunk after its last block. Every d_k
    and B_k is an exact integer in float64, in any BLAS summation order, so
    a dead atom has B_k = 0 exactly and the sum of each coloring does not
    depend on its place in its block.
    """
    read = np.flatnonzero(piece)
    lo, hi = (int(read[0]), int(read[-1]) + 1) if read.size else (0, 0)
    weights = piece.astype(np.float64)[lo:hi]
    rows = max(1, _COLOR_BLOCK_VALUES // max(hi - lo, 1))
    starts = range(0, count, _COLOR_CHUNK)
    gaussian = isinstance(nu, GaussianLaw)

    def chunk(i: int) -> np.ndarray:
        size = min(_COLOR_CHUNK, count - starts[i])
        out = np.empty(size)
        streams = derive_streams(seed, role, starts[i], size, 0 if gaussian else lo)
        block = np.empty((min(rows, size), weights.size))
        if gaussian:
            for b in range(0, size, rows):
                part = block[: min(rows, size - b)]
                for row, rng in zip(part, streams):
                    row[:] = nu.sample(rng, lo + row.size)[lo:]
                part -= nu.mean
                np.dot(part, weights, out=out[b : b + part.shape[0]])
            return out
        thresholds = nu._thresholds
        # A compare into a bool buffer and a copy into a float one cost less
        # than one compare with float output. The uniforms are not read after
        # the last compare, so its copy goes over them.
        hit = np.empty(block.shape, dtype=np.bool_)
        above = np.empty_like(block) if thresholds.size > 1 else block
        # Row k holds d_k of every coloring.
        table = np.empty((thresholds.size + 1, size))
        # piece holds integer counts that total at most a window's sites, far
        # below 2**53, so every partial sum is exact and any order gives fsum's.
        table[0] = weights.sum()
        for b in range(0, size, rows):
            n = min(rows, size - b)
            part = block[:n]
            for row, rng in zip(part, streams):
                rng.random(out=row)
            for k, t in enumerate(thresholds, 1):
                mask = part if k == thresholds.size else above[:n]
                np.greater_equal(part, t, out=hit[:n])
                np.copyto(mask, hit[:n])
                np.dot(mask, weights, out=table[k, b : b + n])
        # (v_k - m) B_k, with B_k = d_k past the last threshold, added in table
        # order by elementwise ufuncs rather than BLAS, so no sum depends on its
        # coloring's place.
        centered = nu._values - nu.mean
        for k in range(thresholds.size):
            table[k] -= table[k + 1]
        np.multiply(table[0], centered[0], out=out)
        for term, c in zip(table[1:], centered[1:]):
            term *= c
            out += term
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
