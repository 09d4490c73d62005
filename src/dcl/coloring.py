"""Color measures and cluster-constant color fields.

A color measure is the single-site law nu. Coloring assigns every cluster
one independent draw from nu; all sites of a cluster share that draw, so
the field is constant on clusters and independent across them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Union

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


def atom_values(
    values: np.ndarray, thresholds: np.ndarray, u: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """values[atom_index(u, thresholds)], into out when given.

    atom_index never leaves [0, values.size), so mode="clip" clips nothing;
    it spares take the bounds check of its default mode, which converts and
    buffers the indices and takes about four times as long.
    """
    return values.take(atom_index(u, thresholds), mode="clip", out=out)


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

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """One uniform double u per draw, mapped by from_uniforms."""
        return self.from_uniforms(rng.random(size))

    def from_uniforms(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """b where u < alpha, else a, for each uniform double u (into out if given).

        The atom index is the number of thresholds (alpha,) that are <= u,
        gathered from the table (b, a).
        """
        return atom_values(self._values, self._thresholds, u, out)

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
        object.__setattr__(self, "_values", draw_table(values))
        object.__setattr__(self, "_thresholds", atom_thresholds([w for _, w in self.atoms_spec]))

    @property
    def mean(self) -> float:
        return math.fsum(v * w for v, w in self.atoms_spec)

    @property
    def variance(self) -> float:
        m = self.mean
        return math.fsum(w * (v - m) ** 2 for v, w in self.atoms_spec)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """One uniform double u per draw, mapped by from_uniforms."""
        return self.from_uniforms(rng.random(size))

    def from_uniforms(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Atom i of atoms_spec for each uniform double u (into out if given).

        i is the number of partial weight sums before the last atom that
        are <= u.
        """
        return atom_values(self._values, self._thresholds, u, out)

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


@dataclass(frozen=True)
class ColorField:
    """Cluster-constant color assignment for one labeling.

    Z is the color of the infinite stand-in cluster, or 0 when the labeling
    has none.
    """

    labeling: ClusterLabeling
    cluster_color: np.ndarray
    z: float

    def values(self, sites: np.ndarray) -> np.ndarray:
        """Colors at the given flat site indices."""
        return self.cluster_color[self.labeling.cluster_id[sites]]


def cluster_draws(nu: ColorMeasure, rng: np.random.Generator, lo: int, out: np.ndarray) -> np.ndarray:
    """Fill out with the draws of cluster ids lo..lo+out.size-1 from rng; return out.

    Cluster j takes draw j of its stream, so every coloring reads its draws
    here and a cluster's draw never depends on which ids are read. A law
    that reads one uniform per draw (TwoPoint, FiniteDiscrete) gets those
    uniforms: the reseated PCG64 skips the first lo draws with
    PCG64.advance, in O(log lo) steps. A Gaussian law gets its colors: the
    ziggurat reads a varying number of outputs per normal, so it cannot
    skip and draws the prefix of lo + out.size normals.
    """
    if isinstance(nu, GaussianLaw):
        out[:] = nu.sample(rng, lo + out.size)[lo:]
        return out
    if lo:
        rng.bit_generator.advance(lo)
    return rng.random(out=out)


def centered_sums(
    nu: ColorMeasure,
    streams: Iterable[np.random.Generator],
    lo: int,
    piece: np.ndarray,
    rows: int,
    out: np.ndarray,
) -> np.ndarray:
    """out[i] = sum_j (c_j - m) piece[j] for the coloring c on the i-th stream; return out.

    c_j is the color color_clusters gives id lo + j from that stream, m is
    nu's mean, and piece holds integer weights. The colorings are drawn in
    blocks of rows, into buffers allocated once per call, and exactly
    out.size streams are read, each only before the next is requested, as
    derive_streams requires.

    A Gaussian law colors each block, subtracts m and takes one
    matrix-vector product with piece. An atomic law builds no colors: with
    thresholds t_1 <= t_2 <= ... (atom_thresholds), d_k = sum_j piece[j]
    1{u_j >= t_k} is one compare and one matrix-vector product per
    threshold, d_0 = sum(piece), and atom k is drawn by clusters of total
    weight B_k = d_k - d_{k+1}. The sum is then sum_k (v_k - m) B_k. Every
    d_k and B_k is an exact integer in float64, in any BLAS summation
    order, so a dead atom has B_k = 0 exactly and the sum of each coloring
    does not depend on its place in its block.
    """
    count = out.size
    block = np.empty((min(rows, count), piece.size))
    if isinstance(nu, GaussianLaw):
        for b in range(0, count, rows):
            part = block[: min(rows, count - b)]
            for row, rng in zip(part, streams):
                cluster_draws(nu, rng, lo, row)
            part -= nu.mean
            np.dot(part, piece, out=out[b : b + part.shape[0]])
        return out
    thresholds = nu._thresholds
    centered = (nu._values - nu.mean)[:, None]
    # The uniforms are not read after the last compare, which writes its mask over them.
    above = np.empty_like(block) if thresholds.size > 1 else block
    # Row k holds d_k of the block's colorings; d_0 and the last row, 0, stay fixed.
    weight = np.empty((thresholds.size + 2, block.shape[0]))
    # piece holds integer counts that total at most a window's sites, far
    # below 2**53, so every partial sum is exact and any order gives fsum's.
    weight[0] = piece.sum()
    weight[-1] = 0.0
    terms = np.empty((centered.size, block.shape[0]))
    for b in range(0, count, rows):
        n = min(rows, count - b)
        part = block[:n]
        for row, rng in zip(part, streams):
            cluster_draws(nu, rng, lo, row)
        for k, t in enumerate(thresholds, 1):
            mask = part if k == thresholds.size else above[:n]
            np.greater_equal(part, t, out=mask)
            np.dot(mask, piece, out=weight[k, :n])
        # (v_k - m) B_k, added in table order by elementwise ufuncs rather than
        # BLAS, so no sum depends on its row's place in the block.
        np.subtract(weight[:-1, :n], weight[1:, :n], out=terms[:, :n])
        terms[:, :n] *= centered
        sums = out[b : b + n]
        sums[:] = terms[0, :n]
        for term in terms[1:, :n]:
            sums += term
    return out


def color_clusters(labeling: ClusterLabeling, nu: ColorMeasure, rng: np.random.Generator) -> ColorField:
    """Draw one color per cluster from nu, taking the draws from rng.

    Draw j goes to the cluster with id j; ids are ordered by smallest site
    index, so the assignment depends only on the labeling and the stream
    rng is on (derive_rng for one coloring, derive_streams for a run of
    them), not on how the labeling was computed. The draws are
    cluster_draws from id 0: for an atomic nu, one uniform double u per
    cluster, whose atom index is the number of nu's thresholds <= u; for a
    Gaussian nu, one normal per cluster, none when the variance is 0.
    """
    colors = cluster_draws(nu, rng, 0, np.empty(labeling.k_n))
    if not isinstance(nu, GaussianLaw):
        nu.from_uniforms(colors, out=colors)
    colors.setflags(write=False)
    z = float(colors[labeling.infinite_proxy]) if labeling.infinite_proxy is not None else 0.0
    return ColorField(labeling=labeling, cluster_color=colors, z=z)
