"""Reference implementations the tests trust instead of the package.

Everything here is deliberately naive: breadth-first search over explicit
coordinate tuples, exhaustive enumeration of edge configurations, plain
fractions for expectations. No code is shared with the package beyond the
meaning of "box", so agreement between the two is evidence, not tautology.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from fractions import Fraction
from typing import Iterable, NamedTuple


def box_sites(d: int, n: int) -> list[tuple[int, ...]]:
    return list(itertools.product(range(-n, n + 1), repeat=d))


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
