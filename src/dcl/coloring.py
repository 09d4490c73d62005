"""Color measures and cluster-constant colorings.

A color measure is the single-site law nu. Coloring assigns every cluster
one independent draw from nu, held in a plain array indexed by cluster id.
Site x takes the color of its cluster's id, so the field is constant on
clusters and independent across them. A quenched run's centered sums need
no such array: centered_sums draws them from per-size atom counts, and
with two atoms from the exact law of the one count total they read.
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

# Fourier coefficients of a two-atom count total below e^-60 are dropped:
# on a circle of L points they move no cdf entry by more than L e^-60,
# under 1e-20 for any L below 10^6.
_NEGLIGIBLE_LOG_PHI = -60.0


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


def piece_sizes(piece: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The histogram of piece's nonzero entries: the distinct sizes s, increasing, and the count n_s of each.

    Given the pieces, this is all a quenched statistic's law reads: a sum
    over the ids depends on the coloring only through which atom each of
    the n_s ids of each size s drew.
    """
    return np.unique(piece[piece > 0], return_counts=True)


def _fft_length(n: int) -> int:
    """The least 2^a 3^b >= n, a length the FFT takes in radix-2 and radix-3 passes."""
    best = 1 << (n - 1).bit_length()
    power3 = 3
    while power3 < best:
        best = min(best, power3 << (-(-n // power3) - 1).bit_length())
        power3 *= 3
    return best


def _count_total_law(sizes: np.ndarray, n: np.ndarray, p: float) -> tuple[int, np.ndarray]:
    """(lo, cdf) with P(T <= lo + i) = cdf[i] / cdf[-1], for T = sum_s s B_s, B_s ~ Bin(n_s, p) independent.

    T lies within h = ceil(sqrt(21 sum_s s^2 n_s)) of its mean W p, W =
    sum_s s n_s, except with probability 2 e^-42 < 2^-53 (Hoeffding), so the
    law is kept on the window [lo, hi] of the points of [0, W] that are
    within h of floor(W p) or ceil(W p). Folded onto a circle of length
    L >= hi - lo + 1 (_fft_length), its pmf has the discrete Fourier
    transform phi(k) = prod_s (q + p e^(-2 pi i s k / L))^n_s with
    q = 1 - p: one table of log|q + p e^(-2 pi i j / L)| and its angle over
    j < L, summed at (s k) mod L with weights n_s, gives log phi(k), and one
    inverse real FFT the folded pmf. Every log|.| is <= 0, so a k whose
    partial sum falls below _NEGLIGIBLE_LOG_PHI stays there and is dropped
    from the remaining sizes: a few hundred of a large window's thousands
    of k survive the first size. Rounding leaves tiny negative masses; they are clipped
    to 0. With p 0 or 1, or W 0, T is the constant W p: lo is that value
    and cdf is [1.0]. numpy loads np.fft on first use, and only this
    function reaches it, so a run that draws no two-atom coloring does not
    import it.
    """
    total = int(n @ sizes)
    if p in (0.0, 1.0) or total == 0:
        return (total if p == 1.0 else 0), np.ones(1)
    h = math.ceil(math.sqrt(21.0 * float(n @ sizes**2)))
    lo = max(0, math.floor(total * p) - h)
    window = min(total, math.ceil(total * p) + h) - lo + 1
    length = _fft_length(window)
    theta = np.arange(length) * (2.0 * math.pi / length)
    with np.errstate(divide="ignore"):  # |q + p e^(i pi)| = 0 at p = 1/2
        log_abs = 0.5 * np.log1p(-4.0 * p * (1.0 - p) * np.sin(0.5 * theta) ** 2)
    angle = np.arctan2(-p * np.sin(theta), (1.0 - p) + p * np.cos(theta))
    k = np.arange(length // 2 + 1)
    log_modulus, phase = np.zeros(k.size), np.zeros(k.size)
    for s, count in zip(sizes.tolist(), n.tolist()):
        j = s * k % length
        log_modulus += count * log_abs[j]
        phase += count * angle[j]
        live = log_modulus > _NEGLIGIBLE_LOG_PHI
        k, log_modulus, phase = k[live], log_modulus[live], phase[live]
    phi = np.zeros(length // 2 + 1, dtype=np.complex128)
    phi[k] = np.exp(log_modulus) * np.exp(1j * phase)
    folded = np.fft.irfft(phi, n=length)
    return lo, np.cumsum(np.roll(folded, -(lo % length))[:window].clip(0.0))


def centered_sums(
    nu: ColorMeasure, seed: int, role: str, count: int, piece: np.ndarray, workers: int = 1
) -> np.ndarray:
    """count draws of sum_j (c_j - m) piece[j], c an independent coloring of the ids from nu.

    m is nu's mean, and piece holds an integer weight per id (window_pieces'
    piece, with each stand-in 0). Given the pieces, a sum depends on its
    coloring only through how many of the n_s ids of each weight s > 0 drew
    each atom (piece_sizes), and those counts are independent
    Multinomial(n_s, weights) draws. A sum is B_0 (v_0 - m) + B_1 (v_1 - m)
    + ... in draw-table order, B_k = sum_s s counts_sk the total weight that
    drew atom k, exact in int64; a dead atom's B_k is 0, so a point mass
    sums to +0.0 exactly. With three or more atoms in the table, one
    rng.multinomial per size and coloring draws the counts. With two, B_0
    is the one integer T = sum_s s B_s, B_s ~ Bin(n_s, w_0), and B_1 is
    W - T for W = sum_s s n_s: T's exact law is built once per call
    (_count_total_law), and each coloring inverts one uniform u through its
    cdf, T = lo + (the number of cdf entries <= u cdf[-1]). A Gaussian
    law's sum is exactly N(0, sigma^2 sum_j piece[j]**2): one normal per
    coloring, scaled, and +0.0 when that variance is 0.

    Chunk i of _COLOR_CHUNK colorings draws from the one stream
    f"{role}:{i}", whichever worker runs it, so the sums do not depend on
    the worker count.
    """
    sizes, n = piece_sizes(piece)
    starts = range(0, count, _COLOR_CHUNK)
    gaussian = isinstance(nu, GaussianLaw)
    if gaussian:
        sd = math.sqrt(nu.variance * float(np.dot(piece, piece)))
    else:
        centered = nu._values - nu.mean
        if nu._weights.size == 2:
            whole = n @ sizes
            lo, cdf = _count_total_law(sizes, n, float(nu._weights[0]))

    def chunk(i: int) -> np.ndarray:
        size = min(_COLOR_CHUNK, count - starts[i])
        rng = next(derive_streams(seed, role, i, 1))
        if gaussian:
            return sd * rng.standard_normal(size) if sd else np.zeros(size)
        if nu._weights.size == 2:
            index = np.searchsorted(cdf, rng.random(size) * cdf[-1], side="right")
            first = lo + np.minimum(index, cdf.size - 1)
            totals = (first, whole - first)
        else:
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
