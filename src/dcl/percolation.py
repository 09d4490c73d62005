"""Bernoulli bond configurations and cluster structure on a box.

Each edge of the box is open independently with probability p. Clusters are
the connected components of the open subgraph, labeled by vectorized
min-label hooking so that cluster ids follow each cluster's smallest site. A
boundary-touching largest cluster can be designated as the stand-in for the
infinite cluster; everything measured "finite" excludes that stand-in.

Every experiment draws its configurations through one replicate engine,
map_labelings, which labels small boxes many copies at a time, and pools the
per-configuration functionals in pool_functionals.
"""

from __future__ import annotations

import contextvars
import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .lattice import BoxLattice, inner_window, window_site_count
from .rng import derive_rng, stream_uniforms

PROXY_BOUNDARY_LARGEST = "boundary-largest"
PROXY_DISABLED = "disabled"
PROXY_RULES = (PROXY_BOUNDARY_LARGEST, PROXY_DISABLED)

# Half-width of the band around the critical point that the limit
# statements exclude.
NEAR_CRITICAL_BAND = 0.02
# Bond percolation thresholds of the cubic lattice: exact at d=2, and
# 0.2488 at d=3 (Lorenz & Ziff, J. Phys. A 31, 8147, 1998).
_CRITICAL_P = {2: 0.5, 3: 0.2488}
# Sites per labeler call when map_labelings stacks copies of a small box.
_STACK_SITES = 2**14


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
    """One sampled bond configuration, or a stack of them on the same box.

    open is the boolean (site_count, d) mask of one configuration's open
    edges (u, axis), False off lattice.has_edge, or (copies, site_count, d)
    for a stack. A stack tagged f"{role}:{a}..{b}" holds the configurations
    of the streams f"{role}:{r}" for r = a..b, one per row. Either way the
    open bits are reproducible from (lattice, p, seed, stream_tag) alone, so
    a config never needs to be stored to be revisited.
    """

    lattice: BoxLattice
    open: np.ndarray = field(repr=False, compare=False)
    p: float
    seed: int
    stream_tag: str


def _check_density(p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")


def _open_mask(lattice: BoxLattice, draws: np.ndarray, p: float) -> np.ndarray:
    """The (..., site_count, d) mask of draws < p, edge k of a row taking its k-th draw."""
    open_edges = np.zeros(draws.shape[:-1] + lattice.has_edge.shape, dtype=bool)
    # A full-shape mask takes numpy's fast boolean-assignment path; [..., has_edge] does not.
    open_edges[np.broadcast_to(lattice.has_edge, open_edges.shape)] = (draws < p).ravel()
    open_edges.setflags(write=False)
    return open_edges


def sample_config(lattice: BoxLattice, p: float, seed: int, stream_tag: str = "graph") -> EdgeConfig:
    """Draw a Bernoulli(p) bond configuration on the given box."""
    _check_density(p)
    draws = derive_rng(seed, stream_tag).random(lattice.edge_count)
    return EdgeConfig(lattice, _open_mask(lattice, draws, p), p, seed, stream_tag)


def _sample_stack(lattice: BoxLattice, p: float, seed: int, role: str, start: int, copies: int) -> EdgeConfig:
    """Configurations start..start+copies-1 of a role, drawn as sample_config draws each."""
    _check_density(p)
    draws = stream_uniforms(seed, role, start, copies, lattice.edge_count)
    return EdgeConfig(lattice, _open_mask(lattice, draws, p), p, seed, f"{role}:{start}..{start + copies - 1}")


@dataclass(frozen=True, eq=False)
class ClusterLabeling:
    """Connected components of one configuration.

    Cluster ids are consecutive integers ordered by each cluster's smallest
    site index, so ids (and anything keyed by them, such as colors) are
    stable under relabeling runs and independent of edge processing order.
    Labelings compare by identity: equal counts do not mean equal clusters.
    """

    lattice: BoxLattice
    cluster_id: np.ndarray = field(repr=False)
    cluster_sizes: np.ndarray = field(repr=False)
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


@dataclass(frozen=True, eq=False)
class LabelingStack:
    """Connected components of a stack of configurations, labeled as one graph.

    Ids run across the whole stack: copy c owns the ids first[c] ..
    first[c] + k_n[c] - 1, in smallest-site order, so its own ids are these
    minus first[c]. stack_id is (copies, site_count) and cluster_sizes is
    indexed by stack id. proxy is each copy's stand-in as a stack id, or -1,
    and proxy_sites its volume, or 0. Stacks compare by identity.
    """

    lattice: BoxLattice
    stack_id: np.ndarray = field(repr=False)
    first: np.ndarray = field(repr=False)
    k_n: np.ndarray = field(repr=False)
    cluster_sizes: np.ndarray = field(repr=False)
    proxy: np.ndarray = field(repr=False)
    proxy_sites: np.ndarray = field(repr=False)
    proxy_rule: str

    @property
    def copies(self) -> int:
        return self.stack_id.shape[0]

    def view(self, c: int) -> ClusterLabeling:
        """Copy c as a ClusterLabeling, with its own ids counting from 0."""
        first = int(self.first[c])
        cluster_id = self.stack_id[c]
        if first:
            cluster_id = cluster_id - first
            cluster_id.setflags(write=False)
        proxy = int(self.proxy[c])
        return ClusterLabeling(
            lattice=self.lattice,
            cluster_id=cluster_id,
            cluster_sizes=self.cluster_sizes[first : first + int(self.k_n[c])],
            infinite_proxy=proxy - first if proxy >= 0 else None,
            k_n=int(self.k_n[c]),
            proxy_rule=self.proxy_rule,
        )


def _as_stack(labeling: ClusterLabeling | LabelingStack) -> LabelingStack:
    """A labeling as a stack: itself, or the one-copy stack over a ClusterLabeling."""
    if isinstance(labeling, LabelingStack):
        return labeling
    proxy = -1 if labeling.infinite_proxy is None else labeling.infinite_proxy
    return LabelingStack(
        lattice=labeling.lattice,
        stack_id=labeling.cluster_id[None, :],
        first=np.zeros(1, dtype=np.int64),
        k_n=np.array([labeling.k_n]),
        cluster_sizes=labeling.cluster_sizes,
        proxy=np.array([proxy]),
        proxy_sites=np.array([labeling.proxy_site_count()]),
        proxy_rule=labeling.proxy_rule,
    )


def label_clusters(config: EdgeConfig, proxy_rule: str = PROXY_BOUNDARY_LARGEST) -> ClusterLabeling | LabelingStack:
    """Label clusters of the open subgraph.

    Min-label hooking (Shiloach and Vishkin, J. Algorithms 3, 57-67, 1982):
    every site starts as its own root. A round takes the axes in turn, and
    for every open edge along the axis whose ends still disagree, hooks the
    larger of the two ends' parents to the smaller one; pointer jumping then
    flattens the forest, and a round that hooks nothing ends the labeling.
    Parents only ever move to smaller sites of the same cluster, so at the
    fixed point each site's root is the smallest site of its cluster, and
    ranking the roots gives ids in smallest-site order. Every open edge is
    cross-checked to join equal ids.

    A round starts from a flat forest, where every parent is a root, and a
    hook writes min(ru, rv) at max(ru, rv), two values read from it. So a
    round writes only to its starting roots, and only their values: every
    other site still points at one of them. After round one, where every
    site is a root and all are jumped to a fixed point, a round jumps only
    the roots that moved, and one gather of every site then flattens the
    whole forest.

    The open edges along an axis of stride s are the set bits of its column
    of the mask, and they join root[:-s] to root[s:] position by position,
    so a round compares those two shifted views, masked by the column, and
    gathers parents only where the ends differ. A (site_count, d) mask gives a
    ClusterLabeling; a stack, (copies, site_count, d), a LabelingStack whose
    copy c holds the sites from c * site_count on. The far faces carry no
    edge, so no edge leaves its copy, and each copy's ids come out as if it
    were labeled alone. Other shapes, and bits off has_edge, raise.
    """
    if proxy_rule not in PROXY_RULES:
        raise ValueError(f"proxy rule must be one of {PROXY_RULES}, got {proxy_rule!r}")
    lattice = config.lattice
    site_count = lattice.site_count
    if config.open.ndim > 3 or config.open.shape[-2:] != lattice.has_edge.shape:
        raise ValueError(f"open mask shape {config.open.shape} is not ([copies,] {site_count}, {lattice.d})")
    if np.any(config.open & ~lattice.has_edge):
        raise ValueError("open mask sets a bit on a far face, where the box has no edge")
    copies = 1 if config.open.ndim == 2 else config.open.shape[0]
    sites = np.arange(copies * site_count, dtype=np.int64)
    # Per axis, its stride s and the open bits of the edges u -> u + s, one
    # per site u that has a site s further on. Each round reads every bit, so
    # the axes' columns are copied out of the (sites, d) mask once, contiguous.
    columns = np.ascontiguousarray(config.open.reshape(-1, lattice.d).T)
    open_along = [(s, columns[axis, : sites.size - s]) for axis, s in enumerate(lattice.strides)]

    # Hooking writes into root in place; sites must stay intact for the root
    # test. spare takes each full gather of root, and the hook's ru, which
    # is dead once its hook is done. Every index is a site, so np.take's
    # mode="clip" never clips; unlike the default, it writes out= unbuffered.
    root = sites.copy()
    spare = np.empty_like(root)
    roots = None  # the roots a round starts from; None in round one, where all are
    while True:
        hooked = False
        for s, open_edges in open_along:
            u = np.flatnonzero((root[:-s] != root[s:]) & open_edges)
            if u.size:
                ru = np.take(root, u, out=spare[: u.size], mode="clip")
                rv = root[s:][u]
                lower = np.minimum(ru, rv)
                np.minimum.at(root, np.maximum(ru, rv, out=ru), lower)
                del u, ru, rv, lower  # off the next axis's peak: 24 bytes per hook
                hooked = True
        if not hooked:
            break
        if roots is None:
            while True:
                np.take(root, root, out=spare, mode="clip")
                if not (spare != root).any():
                    break
                root, spare = spare, root
            roots = np.flatnonzero(root == sites)
        else:
            # The roots that did not move stay roots; the forest of those
            # that did is flattened, and one gather settles every other site.
            kept = root[roots] == roots
            moved = roots[~kept]
            roots = roots[kept]
            while True:
                parent = root[moved]
                grand = root[parent]
                if not (grand != parent).any():
                    break
                root[moved] = grand
            np.take(root, root, out=spare, mode="clip")
            root, spare = spare, root
    if roots is None:
        roots = sites

    # Ids rank the roots, which are the clusters' smallest sites, in site
    # order; spare becomes the table from a root to its id.
    total = roots.size
    spare[roots] = np.arange(total)
    stack_id = np.take(spare, root, mode="clip")
    if any(((stack_id[:-s] != stack_id[s:]) & open_edges).any() for s, open_edges in open_along):
        raise InvariantViolationError("an open edge joins two different cluster ids")

    # Each copy's first site is a root, so its id is the copy's first id.
    first = spare[::site_count].copy()
    k_n = np.diff(first, append=total)
    cluster_sizes = np.bincount(stack_id, minlength=total)
    stack_id = stack_id.reshape(copies, site_count)

    if proxy_rule == PROXY_BOUNDARY_LARGEST:
        # Per copy: the largest boundary cluster, ties to the smallest id.
        boundary = stack_id[:, lattice.boundary_sites]
        b_sizes = cluster_sizes[boundary]
        largest = b_sizes == b_sizes.max(axis=1, keepdims=True)
        proxy = np.where(largest, boundary, total).min(axis=1)
        proxy_sites = cluster_sizes[proxy]
    else:
        proxy = np.full(copies, -1, dtype=np.int64)
        proxy_sites = np.zeros(copies, dtype=np.int64)

    for array in (stack_id, first, k_n, cluster_sizes, proxy, proxy_sites):
        array.setflags(write=False)
    stack = LabelingStack(
        lattice=lattice,
        stack_id=stack_id,
        first=first,
        k_n=k_n,
        cluster_sizes=cluster_sizes,
        proxy=proxy,
        proxy_sites=proxy_sites,
        proxy_rule=proxy_rule,
    )
    return stack if config.open.ndim == 3 else stack.view(0)


def default_window_margin(lattice: BoxLattice) -> int:
    """Default inner-window margin, ceil(4 ln side), clamped to the radius."""
    if lattice.side == 1:
        return 0
    return min(lattice.n, math.ceil(4.0 * math.log(lattice.side)))


def square_sums(labeling: ClusterLabeling | LabelingStack, window_margin: int) -> tuple:
    """Both exact integer routes to the windowed square sum.

    Returns (per_site, per_cluster) where per_site sums, over window sites
    outside the infinite stand-in, the size of the site's cluster piece
    inside the window, and per_cluster sums the squared piece sizes over
    finite clusters. The two are equal for any correct labeling. A stack
    gives one integer array per route, with one entry per copy.
    """
    stack = _as_stack(labeling)
    window = inner_window(stack.lattice, window_margin)
    labels = stack.stack_id[:, window]
    finite = labels != stack.proxy[:, None]
    piece = np.bincount(labels[finite], minlength=stack.cluster_sizes.shape[0])
    per_cluster = np.add.reduceat(piece * piece, stack.first)
    # The stand-in's piece is 0, so its sites add nothing here.
    per_site = piece[labels].sum(axis=1)
    if isinstance(labeling, ClusterLabeling):
        return int(per_site[0]), int(per_cluster[0])
    return per_site, per_cluster


def square_sum_density(labeling: ClusterLabeling | LabelingStack, window_margin: int):
    """Windowed mean of |C'(x) within the window| over window sites.

    Computed by two independent routes that must agree exactly as integers;
    any discrepancy raises rather than returning a number. A stack gives one
    value per copy.
    """
    per_site, per_cluster = square_sums(labeling, window_margin)
    if np.any(per_site != per_cluster):
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


def labeling_functionals(labeling: ClusterLabeling | LabelingStack, margin: int) -> dict:
    """Per-configuration functional values used by the pooled estimators.

    A stack gives float columns with one entry per copy, a ClusterLabeling
    one float each. Every value is an integer count over an integer.
    """
    stack = _as_stack(labeling)
    window = inner_window(stack.lattice, margin)
    labels = stack.stack_id[:, window]
    in_proxy = np.count_nonzero(labels == stack.proxy[:, None], axis=1)
    # Full-box sizes of the window sites' clusters, the stand-in counted as 0.
    finite_mass = stack.cluster_sizes[labels].sum(axis=1) - in_proxy * stack.proxy_sites
    columns = {
        "theta": in_proxy / window.shape[0],
        "chi_f": finite_mass / window.shape[0],
        "kappa": stack.k_n / stack.lattice.site_count,
        "square_sum_density": square_sum_density(stack, margin),
        "proxy_sites": stack.proxy_sites.astype(np.float64),
        "k_n": stack.k_n.astype(np.float64),
    }
    if isinstance(labeling, ClusterLabeling):
        return {name: float(values[0]) for name, values in columns.items()}
    return columns


def map_ordered(fn: Callable[[int], object], count: int, workers: int = 1) -> list:
    """Apply fn to 0..count-1 and return the results in index order.

    With several workers the calls run on a thread pool, each in a copy of
    the caller's context so that a run's stream log sees them; the output
    order, and so every reduction over it, does not depend on the scheduling.
    """
    if workers <= 1 or count <= 1:
        return [fn(i) for i in range(count)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(contextvars.copy_context().run, fn, i) for i in range(count)]
        return [fut.result() for fut in futures]


def map_labelings(
    lattice: BoxLattice,
    p: float,
    seed: int,
    role: str,
    count: int,
    observe: Callable[[int, LabelingStack], dict],
    *,
    proxy_rule: str = PROXY_BOUNDARY_LARGEST,
    workers: int = 1,
) -> dict:
    """The replicate engine: sample, label and observe `count` configurations.

    Configuration r is drawn from the stream (seed, f"{role}:{r}").
    Configurations are labeled in stacks of max(1, _STACK_SITES //
    site_count) copies, one label_clusters call per stack, so small boxes
    share one set of hooking rounds. observe(start, stack) maps the stack
    whose copy 0 is configuration `start` to columns: a dict of arrays with
    one entry per copy. Only the columns are kept, and each comes back
    concatenated in r order whatever the worker count.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    copies = max(1, _STACK_SITES // lattice.site_count)
    starts = range(0, count, copies)

    def one(k: int) -> dict:
        start = starts[k]
        config = _sample_stack(lattice, p, seed, role, start, min(copies, count - start))
        return observe(start, label_clusters(config, proxy_rule))

    parts = map_ordered(one, len(starts), workers)
    return {name: np.concatenate([part[name] for part in parts]) for name in parts[0]}


def stand_in_volume(proxy_sites: np.ndarray, site_count: int) -> tuple[float, float]:
    """(theta_box, sigma_p2): mean and sample variance of the stand-in volume over site_count."""
    theta_box = float(proxy_sites.mean()) / site_count
    sigma_p2 = float(proxy_sites.var(ddof=1)) / site_count if len(proxy_sites) >= 2 else 0.0
    return theta_box, sigma_p2


def pool_functionals(
    columns: dict[str, np.ndarray], lattice: BoxLattice, margin: int, proxy_rule: str
) -> PercolationEstimates:
    """Pool per-configuration labeling_functionals columns into estimates.

    Means carry the usual standard error. sigma_p2 is the sample variance of
    the stand-in volume over site_count, with the variance-of-variance
    standard error Var(s^2) = m4/R - s^4 (R-3) / (R (R-1)), the empirical
    fourth central moment plugged in. One configuration gives sigma_p2 = 0
    and NaN standard errors.
    """
    theta = columns["theta"]
    chi = columns["chi_f"]
    kappa = columns["kappa"]
    ssd = columns["square_sum_density"]
    proxy_sites = columns["proxy_sites"]
    count = len(theta)

    def mean_se(values: np.ndarray) -> float:
        if count < 2:
            return float("nan")
        return float(values.std(ddof=1)) / math.sqrt(count)

    _, sigma_p2 = stand_in_volume(proxy_sites, lattice.site_count)
    if count >= 2:
        centered = proxy_sites - proxy_sites.mean()
        s2 = float(np.dot(centered, centered)) / (count - 1)
        m4 = float(np.mean(centered**4))
        var_of_var = max(0.0, m4 / count - s2 * s2 * (count - 3) / (count * (count - 1)))
        sigma_p2_se = math.sqrt(var_of_var) / lattice.site_count
    else:
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
    workers: int = 1,
) -> PercolationEstimates:
    """Estimate the cluster functionals from independent configurations.

    Replicate r draws its configuration from the stream (seed, f"{stream_role}:{r}"),
    so estimates do not depend on scheduling. The infinite-cluster density is
    the window fraction occupied by the stand-in cluster; the finite mean
    cluster size averages full-box cluster sizes over window sites.
    """
    warn_if_near_critical(lattice.d, p)
    if margin is None:
        margin = default_window_margin(lattice)
    columns = map_labelings(
        lattice,
        p,
        seed,
        stream_role,
        replicates,
        lambda start, stack: labeling_functionals(stack, margin),
        proxy_rule=proxy_rule,
        workers=workers,
    )
    return pool_functionals(columns, lattice, margin, proxy_rule)

