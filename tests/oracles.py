"""Reference implementations the tests trust instead of the package.

Everything here is deliberately naive: breadth-first search over explicit
coordinate tuples, exhaustive enumeration of edge configurations, plain
fractions for expectations. No code is shared with the package beyond the
meaning of "box", so agreement between the two is evidence, not tautology.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections import deque
from fractions import Fraction
from typing import Iterable, NamedTuple


def box_sites(d: int, n: int) -> list[tuple[int, ...]]:
    return list(itertools.product(range(-n, n + 1), repeat=d))


def window_sites(d: int, n: int, margin: int) -> list[int]:
    """Row-major indices, in order, of the sites of {-n..n}^d with |x_i| <= n - margin on every axis."""
    return [index for index, site in enumerate(box_sites(d, n)) if all(abs(c) <= n - margin for c in site)]


def site_index(d: int, n: int, coords: tuple[int, ...]) -> int:
    """Row-major index of a site of {-n..n}^d: its place in box_sites(d, n)."""
    index = 0
    for c in coords:
        index = index * (2 * n + 1) + c + n
    return index


def site_coords(d: int, n: int, index: int) -> tuple[int, ...]:
    """The site at a row-major index of {-n..n}^d, the inverse of site_index."""
    coords = []
    for _ in range(d):
        index, digit = divmod(index, 2 * n + 1)
        coords.append(digit - n)
    return tuple(reversed(coords))


def box_edges(d: int, n: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Nearest-neighbor edges of {-n..n}^d as ordered coordinate pairs."""
    edges = []
    for site in box_sites(d, n):
        for axis in range(d):
            if site[axis] < n:
                other = tuple(c + 1 if k == axis else c for k, c in enumerate(site))
                edges.append((site, other))
    return edges


def bfs_clusters(
    sites: list[tuple[int, ...]],
    open_edges: list[tuple[tuple[int, ...], tuple[int, ...]]],
) -> dict[tuple[int, ...], int]:
    """Cluster labels by BFS; labels count up in first-visit order of sites."""
    adjacency: dict[tuple[int, ...], list[tuple[int, ...]]] = {s: [] for s in sites}
    for a, b in open_edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    labels: dict[tuple[int, ...], int] = {}
    next_label = 0
    for start in sites:
        if start in labels:
            continue
        labels[start] = next_label
        queue = deque([start])
        while queue:
            site = queue.popleft()
            for other in adjacency[site]:
                if other not in labels:
                    labels[other] = next_label
                    queue.append(other)
        next_label += 1
    return labels


def site_square_sum(labels: dict[tuple[int, ...], int]) -> int:
    """Sum over sites of own-cluster size; equals the sum of squared sizes."""
    sizes: dict[int, int] = {}
    for label in labels.values():
        sizes[label] = sizes.get(label, 0) + 1
    return sum(sizes[label] for label in labels.values())


def enumerate_box(d: int, n: int, p: Fraction) -> dict[str, Fraction]:
    """Exact expectations over every edge configuration of a small box.

    Returns E[k_n], E[square_sum] (full window, no infinite-cluster proxy),
    and E[per-site mean cluster size]. Cost is 2^edges; keep the box tiny.
    """
    sites = box_sites(d, n)
    edges = box_edges(d, n)
    site_count = len(sites)
    expect_k = Fraction(0)
    expect_square = Fraction(0)
    for mask in range(2 ** len(edges)):
        open_edges = [e for i, e in enumerate(edges) if mask >> i & 1]
        weight = p ** len(open_edges) * (1 - p) ** (len(edges) - len(open_edges))
        labels = bfs_clusters(sites, open_edges)
        expect_k += weight * len(set(labels.values()))
        expect_square += weight * site_square_sum(labels)
    return {
        "site_count": Fraction(site_count),
        "edge_count": Fraction(len(edges)),
        "mean_k": expect_k,
        "mean_square_sum": expect_square,
        "mean_per_site_cluster_size": expect_square / site_count,
    }


def path_graph_square_sums(n: int) -> list[int]:
    """Σ_x |C(x)| for every edge configuration of the path on {-n..n}."""
    sites = box_sites(1, n)
    edges = box_edges(1, n)
    totals = []
    for mask in range(2 ** len(edges)):
        open_edges = [e for i, e in enumerate(edges) if mask >> i & 1]
        totals.append(site_square_sum(bfs_clusters(sites, open_edges)))
    return totals


class Moments(NamedTuple):
    count: int
    mean: float
    variance: float
    skewness: float
    excess_kurtosis: float
    se_mean: float
    se_variance: float


def summarize_onepass(samples: Iterable[float]) -> Moments:
    """Moment summary from running central moments, in one pass.

    Welford's update extended to the third and fourth central moments, then
    the sample skewness G1 and excess kurtosis G2 in the forms of Joanes and
    Gill (1998); a shape moment whose denominator is 0 is NaN.
    """
    n = 0
    mean = m2 = m3 = m4 = 0.0
    for value in samples:
        x = float(value)
        n1 = n
        n += 1
        delta = x - mean
        delta_n = delta / n
        delta_n2 = delta_n * delta_n
        term1 = delta * delta_n * n1
        mean += delta_n
        m4 += term1 * delta_n2 * (n * n - 3 * n + 3) + 6.0 * delta_n2 * m2 - 4.0 * delta_n * m3
        m3 += term1 * delta_n * (n - 2) - 3.0 * delta_n * m2
        m2 += term1
    if n == 0:
        raise ValueError("cannot summarize an empty sample")
    nan = float("nan")
    if n == 1:
        return Moments(1, mean, nan, nan, nan, nan, nan)
    variance = m2 / (n - 1)
    c2, c3, c4 = m2 / n, m3 / n, m4 / n
    skewness = excess_kurtosis = nan
    if n >= 3 and c2**1.5 > 0.0:
        skewness = math.sqrt(n * (n - 1)) / (n - 2) * c3 / c2**1.5
    if n >= 4 and c2 * c2 > 0.0:
        g2 = c4 / (c2 * c2) - 3.0
        excess_kurtosis = (n - 1) / ((n - 2) * (n - 3)) * ((n + 1) * g2 + 6.0)
    se_mean = math.sqrt(variance / n)
    se_variance = variance * math.sqrt(2.0 / (n - 1))
    return Moments(n, mean, variance, skewness, excess_kurtosis, se_mean, se_variance)


def prime_moment(
    k: int,
    sigma_p2: float,
    *,
    atoms: Iterable[tuple[float, float]] | None = None,
    variance: float | None = None,
) -> float:
    """E[(y (z - m))^(2k)] for y ~ N(0, sigma_p2) independent of z, m = E[z].

    y and z - m are independent, so this is (2k-1)!! sigma_p2^k times the
    2k-th central moment of z. z has the given (value, weight) atoms, or is
    Gaussian with the given variance; pass exactly one of the two.
    """
    odd_double_factorial = math.prod(range(1, 2 * k, 2))
    if atoms is None:
        central = odd_double_factorial * variance**k
    else:
        atoms = list(atoms)
        m = math.fsum(v * w for v, w in atoms)
        central = math.fsum(w * (v - m) ** (2 * k) for v, w in atoms)
    return odd_double_factorial * central * sigma_p2**k


def scale_mixture_excess_kurtosis(pairs: Iterable[tuple[float, float]]) -> float:
    """Excess kurtosis of a centered Gaussian scale mixture given as (weight, variance) pairs.

    For X = sqrt(V) u with u ~ N(0, 1) independent of V, E[X^4] = 3 E[V^2]
    and E[X^2] = E[V], so the excess kurtosis is 3 E[V^2] / E[V]^2 - 3.
    """
    pairs = list(pairs)
    ev = math.fsum(w * v for w, v in pairs)
    ev2 = math.fsum(w * v * v for w, v in pairs)
    return 3.0 * ev2 / ev**2 - 3.0


def tv_distance_to_atoms(samples: Iterable[float], atoms: Iterable[tuple[float, float]], tol: float) -> Fraction:
    """Total variation distance between a sample's empirical law and (value, weight) atoms.

    Each sample goes to its nearest atom, by a plain loop over the atoms,
    when that atom lies within tol; otherwise its mass counts as fully
    missed. Distances are the float |x - v| of the data; the masses are
    exact fractions.
    """
    samples, atoms = list(samples), list(atoms)
    hits = [0] * len(atoms)
    missed = 0
    for x in samples:
        best = 0
        for k, (v, _) in enumerate(atoms):
            if abs(x - v) < abs(x - atoms[best][0]):
                best = k
        if abs(x - atoms[best][0]) <= tol:
            hits[best] += 1
        else:
            missed += 1
    n = len(samples)
    misfit = sum(abs(Fraction(h, n) - Fraction(w)) for h, (_, w) in zip(hits, atoms))
    return (misfit + Fraction(missed, n)) / 2


def coloring_sum_pmf(piece: list[int], atoms: list[tuple[Fraction, Fraction]]) -> dict[Fraction, Fraction]:
    """Exact law of sum_j piece[j] (c_j - m) over every coloring of the ids.

    Each id j takes, independently, the value v of an atom (v, w) with
    probability w, and m = sum w v. Every coloring of every id, zero pieces
    included, is enumerated with its exact probability, so the cost is
    len(atoms) ** len(piece): keep both short.
    """
    m = sum(w * v for v, w in atoms)
    pmf: dict[Fraction, Fraction] = {}
    for coloring in itertools.product(atoms, repeat=len(piece)):
        value = sum(s * (v - m) for s, (v, _) in zip(piece, coloring))
        probability = math.prod(w for _, w in coloring)
        pmf[value] = pmf.get(value, Fraction(0)) + probability
    return pmf


def multinomial_sums(rng, count: int, piece: list[int], atoms: list[tuple[float, float]], mean: float) -> list[float]:
    """count sums sum_j (c_j - mean) piece[j], drawn from a numpy Generator by plain loops.

    For each sum in turn, and each distinct nonzero piece size s in
    increasing order, one rng.multinomial(n_s, weights) counts how many of
    the n_s ids of size s drew each atom of atoms = [(value, weight), ...].
    B_k is the total size that drew atom k, and the sum is
    B_0 (v_0 - mean) + B_1 (v_1 - mean) + ..., added left to right.
    """
    sizes = sorted({s for s in piece if s > 0})
    weights = [w for _, w in atoms]
    sums = []
    for _ in range(count):
        totals = [0] * len(atoms)
        for s in sizes:
            for k, drawn in enumerate(rng.multinomial(piece.count(s), weights).tolist()):
                totals[k] += s * drawn
        value = totals[0] * (atoms[0][0] - mean)
        for total, (v, _) in zip(totals[1:], atoms[1:]):
            value += total * (v - mean)
        sums.append(value)
    return sums


def count_total_cdf(piece: list[int], p: float) -> list[float]:
    """F[t] = P(T <= t) for t = 0..W, T = sum_j piece[j] b_j over independent Bernoulli(p) b_j.

    W = sum(piece). T is sum_s s B_s over the distinct nonzero sizes s, with
    B_s ~ Bin(n_s, p) the number of the n_s ids of size s whose b_j is 1.
    Each binomial pmf is built by n_s plain Bernoulli steps, so no power of
    p or 1 - p underflows before its term does, and the pmfs of s B_s are
    convolved in plain loops.
    """
    q = 1.0 - p
    pmf = [1.0]
    for s in sorted({s for s in piece if s > 0}):
        binomial = [1.0]
        for _ in range(piece.count(s)):
            binomial = [q * a + p * b for a, b in zip(binomial + [0.0], [0.0] + binomial)]
        convolved = [0.0] * (len(pmf) + s * (len(binomial) - 1))
        for t, a in enumerate(pmf):
            for k, b in enumerate(binomial):
                convolved[t + s * k] += a * b
        pmf = convolved
    return list(itertools.accumulate(pmf))


def inverted_sums(rng, count: int, piece: list[int], atoms: list[tuple[float, float]], mean: float) -> list[float]:
    """count sums sum_j (c_j - mean) piece[j] over two atoms, one uniform each, by plain loops.

    With atoms = [(v_0, w_0), (v_1, w_1)], T = the total piece that drew v_0
    has the law count_total_cdf(piece, w_0) =: F. For each uniform u of
    rng.random(count), T is the number of F[t] <= u F[W], at most W, and
    the sum is T (v_0 - mean) + (W - T) (v_1 - mean), added left to right.
    """
    cdf = count_total_cdf(piece, atoms[0][1])
    whole = len(cdf) - 1
    sums = []
    for u in rng.random(count).tolist():
        t = min(bisect.bisect_right(cdf, u * cdf[-1]), whole)
        value = t * (atoms[0][0] - mean)
        value += (whole - t) * (atoms[1][0] - mean)
        sums.append(value)
    return sums
