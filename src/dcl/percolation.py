"""Bernoulli bond configurations and cluster structure on a box.

Each edge of the box is open independently with probability p. Clusters are
the connected components of the open subgraph, labeled by vectorized
min-label hooking so that cluster ids follow each cluster's smallest site. A
boundary-touching largest cluster can be designated as the stand-in for the
infinite cluster; everything measured "finite" excludes that stand-in.

Every experiment draws its configurations through one replicate engine,
map_labelings, and pools the per-configuration functionals in pool_functionals.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .lattice import BoxLattice, inner_window, window_site_count
from .rng import derive_rng

PROXY_BOUNDARY_LARGEST = "boundary-largest"
PROXY_DISABLED = "disabled"
PROXY_RULES = (PROXY_BOUNDARY_LARGEST, PROXY_DISABLED)

# Half-width of the band around the critical point that the limit
# statements exclude.
NEAR_CRITICAL_BAND = 0.02
# Bond percolation thresholds of the cubic lattice: exact at d=2, and
# 0.2488 at d=3 (Lorenz & Ziff, J. Phys. A 31, 8147, 1998).
_CRITICAL_P = {2: 0.5, 3: 0.2488}


class InvariantViolationError(RuntimeError):
    """An identity that must hold exactly failed; indicates a labeling bug."""


class NearCriticalWarning(UserWarning):
    """p falls in the excluded band around the critical point of its dimension."""


def warn_if_near_critical(d: int, p: float) -> None:
    """Warn when (d, p) sits where the limit theorems give no guarantees."""
    p_c = _CRITICAL_P.get(d)
    if p_c is not None and abs(p - p_c) < NEAR_CRITICAL_BAND and p not in (0.0, 1.0):
        warnings.warn(
            f"p={p} is within {NEAR_CRITICAL_BAND} of the d={d} critical point {p_c}; "
            "asymptotic predictions are unreliable here",
            NearCriticalWarning,
            stacklevel=3,
        )


@dataclass(frozen=True)
class EdgeConfig:
    """One sampled bond configuration.

    The open bitset is reproducible from (lattice, p, seed, stream_tag)
    alone, so a config never needs to be stored to be revisited.
    """

    lattice: BoxLattice
    open: np.ndarray = field(repr=False, compare=False)
    p: float
    seed: int
    stream_tag: str


def sample_config(lattice: BoxLattice, p: float, seed: int, stream_tag: str = "graph") -> EdgeConfig:
    """Draw a Bernoulli(p) bond configuration on the given box."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    rng = derive_rng(seed, stream_tag)
    open_edges = rng.random(lattice.edge_count) < p
    open_edges.setflags(write=False)
    return EdgeConfig(lattice=lattice, open=open_edges, p=p, seed=seed, stream_tag=stream_tag)


@dataclass(frozen=True)
class ClusterLabeling:
    """Connected components of one configuration.

    Cluster ids are consecutive integers ordered by each cluster's smallest
    site index, so ids (and anything keyed by them, such as colors) are
    stable under relabeling runs and independent of edge processing order.
    """

    lattice: BoxLattice
    cluster_id: np.ndarray = field(repr=False, compare=False)
    cluster_sizes: np.ndarray = field(repr=False, compare=False)
    boundary_touching: frozenset[int]
    infinite_proxy: int | None
    k_n: int
    proxy_rule: str

    def finite_sizes(self) -> np.ndarray:
        """Cluster sizes with the infinite stand-in zeroed out."""
        sizes = self.cluster_sizes.copy()
        if self.infinite_proxy is not None:
            sizes[self.infinite_proxy] = 0
        return sizes

    def proxy_site_count(self) -> int:
        """Number of box sites in the infinite stand-in (0 if none)."""
        if self.infinite_proxy is None:
            return 0
        return int(self.cluster_sizes[self.infinite_proxy])


def label_clusters(config: EdgeConfig, proxy_rule: str = PROXY_BOUNDARY_LARGEST) -> ClusterLabeling:
    """Label clusters of the open subgraph.

    Min-label hooking: every site starts as its own root; each round, the
    larger root of every open edge whose ends still disagree is hooked to
    the smaller one, then pointer jumping flattens the forest. Roots only
    ever move to smaller sites, so at the fixed point each site's root is
    the smallest site of its cluster, and ranking the roots gives ids in
    smallest-site order. Every open edge is cross-checked to join equal ids.
    """
    if proxy_rule not in PROXY_RULES:
        raise ValueError(f"proxy rule must be one of {PROXY_RULES}, got {proxy_rule!r}")
    lattice = config.lattice
    u = lattice.edge_u[config.open]
    v = lattice.edge_v[config.open]

    sites = np.arange(lattice.site_count, dtype=np.int64)
    # Hooking writes into root in place; sites must stay intact for the root test.
    root = sites.copy()
    while True:
        ru, rv = root[u], root[v]
        if not (ru != rv).any():
            break
        np.minimum.at(root, np.maximum(ru, rv), np.minimum(ru, rv))
        while True:
            jumped = root[root]
            if not (jumped != root).any():
                break
            root = jumped

    # Rank of each root among the roots, which are the clusters' smallest sites.
    rank = (root == sites).cumsum() - 1
    cluster_id = rank[root]
    k_n = int(rank[-1]) + 1
    if (cluster_id[u] != cluster_id[v]).any():
        raise InvariantViolationError("an open edge joins two different cluster ids")

    cluster_sizes = np.bincount(cluster_id, minlength=k_n).astype(np.int64)

    boundary_ids = np.unique(cluster_id[lattice.boundary_sites])
    boundary_touching = frozenset(boundary_ids.tolist())

    infinite_proxy: int | None = None
    if proxy_rule == PROXY_BOUNDARY_LARGEST and boundary_ids.size > 0:
        b_sizes = cluster_sizes[boundary_ids]
        best = boundary_ids[b_sizes == b_sizes.max()].min()
        infinite_proxy = int(best)

    cluster_id.setflags(write=False)
    cluster_sizes.setflags(write=False)

    return ClusterLabeling(
        lattice=lattice,
        cluster_id=cluster_id,
        cluster_sizes=cluster_sizes,
        boundary_touching=boundary_touching,
        infinite_proxy=infinite_proxy,
        k_n=k_n,
        proxy_rule=proxy_rule,
    )


def default_window_margin(lattice: BoxLattice) -> int:
    """Default inner-window margin, ceil(4 ln side), clamped to the radius."""
    if lattice.side == 1:
        return 0
    return min(lattice.n, math.ceil(4.0 * math.log(lattice.side)))


def square_sums(labeling: ClusterLabeling, window_margin: int) -> tuple[int, int]:
    """Both exact integer routes to the windowed square sum.

    Returns (per_site, per_cluster) where per_site sums, over window sites
    outside the infinite stand-in, the size of the site's cluster piece
    inside the window, and per_cluster sums the squared piece sizes over
    finite clusters. The two are equal for any correct labeling.
    """
    window = inner_window(labeling.lattice, window_margin)
    labels = labeling.cluster_id[window]
    if labeling.infinite_proxy is not None:
        labels = labels[labels != labeling.infinite_proxy]
    piece = np.bincount(labels, minlength=labeling.k_n).astype(np.int64)
    per_cluster = int(np.dot(piece, piece))
    per_site = int(piece[labels].sum())
    return per_site, per_cluster


def square_sum_density(labeling: ClusterLabeling, window_margin: int) -> float:
    """Windowed mean of |C'(x) within the window| over window sites.

    Computed by two independent routes that must agree exactly as integers;
    any discrepancy raises rather than returning a number.
    """
    per_site, per_cluster = square_sums(labeling, window_margin)
    if per_site != per_cluster:
        raise InvariantViolationError(
            f"square-sum identity violated: per-site {per_site} != per-cluster {per_cluster}"
        )
    return per_site / window_site_count(labeling.lattice, window_margin)


@dataclass(frozen=True)
class PercolationEstimates:
    """Monte Carlo estimates of the cluster functionals of one (d, n, p)."""

    theta_hat: float
    chi_f_hat: float
    kappa_hat: float
    sigma_p2_hat: float
    square_sum_density: float
    theta_se: float
    chi_f_se: float
    kappa_se: float
    sigma_p2_se: float
    square_sum_se: float
    replicates: int
    margin: int
    proxy_rule: str


def labeling_functionals(labeling: ClusterLabeling, margin: int) -> dict[str, float]:
    """Per-configuration functional values used by the pooled estimators."""
    lattice = labeling.lattice
    window = inner_window(lattice, margin)
    labels_w = labeling.cluster_id[window]
    if labeling.infinite_proxy is not None:
        theta = float(np.count_nonzero(labels_w == labeling.infinite_proxy)) / window.shape[0]
    else:
        theta = 0.0
    chi = float(labeling.finite_sizes()[labels_w].mean())
    kappa = labeling.k_n / lattice.site_count
    ssd = square_sum_density(labeling, margin)
    return {
        "theta": theta,
        "chi_f": chi,
        "kappa": kappa,
        "square_sum_density": ssd,
        "proxy_sites": float(labeling.proxy_site_count()),
        "k_n": float(labeling.k_n),
    }


def map_ordered(fn: Callable[[int], object], count: int, workers: int = 1) -> list:
    """Apply fn to 0..count-1 and return the results in index order.

    With several workers the calls run on a thread pool; the output order,
    and so every reduction over it, does not depend on the scheduling.
    """
    if workers <= 1 or count <= 1:
        return [fn(i) for i in range(count)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, i) for i in range(count)]
        return [fut.result() for fut in futures]


def map_labelings(
    lattice: BoxLattice,
    p: float,
    seed: int,
    role: str,
    count: int,
    observe: Callable[[int, ClusterLabeling], object],
    *,
    proxy_rule: str = PROXY_BOUNDARY_LARGEST,
    workers: int = 1,
) -> list:
    """The replicate engine: sample, label and observe `count` configurations.

    Configuration r is drawn from the stream (seed, f"{role}:{r}") and
    labeled; only observe(r, labeling) is kept, so memory holds one labeling
    per worker rather than one per replicate. Results come back in r order.
    """

    def one(r: int) -> object:
        config = sample_config(lattice, p, seed, f"{role}:{r}")
        return observe(r, label_clusters(config, proxy_rule))

    return map_ordered(one, count, workers)


def pool_functionals(
    rows: list[dict[str, float]], lattice: BoxLattice, margin: int, proxy_rule: str
) -> PercolationEstimates:
    """Pool per-configuration labeling_functionals rows into estimates.

    Means carry the usual standard error. sigma_p2 is the sample variance of
    the stand-in volume over site_count, with the variance-of-variance
    standard error Var(s^2) = m4/R - s^4 (R-3) / (R (R-1)), the empirical
    fourth central moment plugged in. One row gives sigma_p2 = 0 and NaN
    standard errors.
    """
    count = len(rows)
    theta = np.array([row["theta"] for row in rows])
    chi = np.array([row["chi_f"] for row in rows])
    kappa = np.array([row["kappa"] for row in rows])
    ssd = np.array([row["square_sum_density"] for row in rows])
    proxy_sites = np.array([row["proxy_sites"] for row in rows])

    def mean_se(values: np.ndarray) -> float:
        if count < 2:
            return float("nan")
        return float(values.std(ddof=1)) / math.sqrt(count)

    if count >= 2:
        sigma_p2 = float(proxy_sites.var(ddof=1)) / lattice.site_count
        centered = proxy_sites - proxy_sites.mean()
        s2 = float(np.dot(centered, centered)) / (count - 1)
        m4 = float(np.mean(centered**4))
        var_of_var = max(0.0, m4 / count - s2 * s2 * (count - 3) / (count * (count - 1)))
        sigma_p2_se = math.sqrt(var_of_var) / lattice.site_count
    else:
        sigma_p2 = 0.0
        sigma_p2_se = float("nan")

    return PercolationEstimates(
        theta_hat=float(theta.mean()),
        chi_f_hat=float(chi.mean()),
        kappa_hat=float(kappa.mean()),
        sigma_p2_hat=sigma_p2,
        square_sum_density=float(ssd.mean()),
        theta_se=mean_se(theta),
        chi_f_se=mean_se(chi),
        kappa_se=mean_se(kappa),
        sigma_p2_se=sigma_p2_se,
        square_sum_se=mean_se(ssd),
        replicates=count,
        margin=margin,
        proxy_rule=proxy_rule,
    )


def estimate_functionals(
    lattice: BoxLattice,
    p: float,
    replicates: int,
    seed: int,
    margin: int | None = None,
    *,
    proxy_rule: str = PROXY_BOUNDARY_LARGEST,
    stream_role: str = "graph",
) -> PercolationEstimates:
    """Estimate the cluster functionals from independent configurations.

    Replicate r draws its configuration from the stream (seed, stream_role, r),
    so estimates do not depend on scheduling. The infinite-cluster density is
    the window fraction occupied by the stand-in cluster; the finite mean
    cluster size averages full-box cluster sizes over window sites.
    """
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    warn_if_near_critical(lattice.d, p)
    if margin is None:
        margin = default_window_margin(lattice)
    rows = map_labelings(
        lattice,
        p,
        seed,
        stream_role,
        replicates,
        lambda r, labeling: labeling_functionals(labeling, margin),
        proxy_rule=proxy_rule,
    )
    return pool_functionals(rows, lattice, margin, proxy_rule)


def connectivity_profile(
    lattice: BoxLattice,
    p: float,
    offsets: list[tuple[int, ...]],
    replicates: int,
    seed: int,
    *,
    stream_role: str = "graph",
) -> dict[tuple[int, ...], float]:
    """Empirical probability that the origin is connected to origin+offset."""
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    targets = [tuple(offset) for offset in offsets]
    sites = np.array([lattice.index_of(coords) for coords in targets], dtype=np.int64)
    origin = lattice.origin
    joined = map_labelings(
        lattice,
        p,
        seed,
        stream_role,
        replicates,
        lambda r, labeling: labeling.cluster_id[sites] == labeling.cluster_id[origin],
        proxy_rule=PROXY_DISABLED,
    )
    hits = np.sum(joined, axis=0)
    return {coords: int(h) / replicates for coords, h in zip(targets, hits)}
