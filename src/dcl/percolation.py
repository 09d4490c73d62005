"""Bernoulli bond configurations and cluster structure on a box.

Each edge of the box is open independently with probability p. Clusters are
the connected components of the open subgraph, labeled by vectorized
min-label hooking so that cluster ids follow each cluster's smallest site.
Every labeling is a LabelingStack, one configuration being a stack of one
copy. A boundary-touching largest cluster can be designated as the stand-in
for the infinite cluster; everything measured "finite" excludes that stand-in.

Every experiment draws its configurations through one replicate engine,
map_labelings, which labels small boxes many copies at a time, and pools the
per-configuration functionals in pool_functionals.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import sys
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .lattice import BoxLattice, inner_window, window_site_count
from .rng import _count, derive_rng, stream_log, stream_uniforms

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


@dataclass(frozen=True, eq=False)
class EdgeConfig:
    """One sampled bond configuration, or a stack of them on the same box.

    open is the boolean (site_count, d) mask of one configuration's open
    edges (u, axis), False off lattice.has_edge, or (copies, site_count, d)
    for a stack. Configs compare by identity.
    """

    lattice: BoxLattice
    open: np.ndarray = field(repr=False)


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
    return EdgeConfig(lattice, _open_mask(lattice, draws, p))


def _sample_stack(lattice: BoxLattice, p: float, seed: int, role: str, start: int, copies: int) -> EdgeConfig:
    """Configurations start..start+copies-1 of a role, drawn as sample_config draws each."""
    _check_density(p)
    draws = stream_uniforms(seed, role, start, copies, lattice.edge_count)
    return EdgeConfig(lattice, _open_mask(lattice, draws, p))


@dataclass(frozen=True, eq=False)
class LabelingStack:
    """Connected components of a stack of configurations, labeled as one graph.

    A single configuration is a stack of one copy. Ids run across the whole
    stack: copy c owns the ids first[c] .. first[c] + k_n[c] - 1, in
    smallest-site order, so its own ids are these minus first[c], and they
    (and anything keyed by them, such as colors) do not depend on how the
    copy was labeled. stack_id is (copies, site_count) and cluster_sizes is
    indexed by stack id, so copy c's sizes are the slice
    cluster_sizes[first[c] : first[c] + k_n[c]]. proxy is each copy's
    stand-in as a stack id, or -1, and proxy_sites its volume, or 0. Stacks
    compare by identity: equal counts do not mean equal clusters.
    """

    lattice: BoxLattice
    stack_id: np.ndarray = field(repr=False)
    first: np.ndarray = field(repr=False)
    k_n: np.ndarray = field(repr=False)
    cluster_sizes: np.ndarray = field(repr=False)
    proxy: np.ndarray = field(repr=False)
    proxy_sites: np.ndarray = field(repr=False)

    @property
    def copies(self) -> int:
        return self.stack_id.shape[0]


def label_clusters(config: EdgeConfig, proxy_rule: str = PROXY_BOUNDARY_LARGEST) -> LabelingStack:
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
    gathers parents only where the ends differ. A stack of masks,
    (copies, site_count, d), is labeled as one graph whose copy c holds the
    sites from c * site_count on, and a (site_count, d) mask as a stack of
    one copy. The far faces carry no edge, so no edge leaves its copy, and
    each copy's ids come out as if it were labeled alone. Other shapes, and
    bits off has_edge, raise.
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
    return LabelingStack(
        lattice=lattice,
        stack_id=stack_id,
        first=first,
        k_n=k_n,
        cluster_sizes=cluster_sizes,
        proxy=proxy,
        proxy_sites=proxy_sites,
    )


def default_window_margin(lattice: BoxLattice) -> int:
    """Default inner-window margin, ceil(4 ln side), clamped to the radius."""
    if lattice.side == 1:
        return 0
    return min(lattice.n, math.ceil(4.0 * math.log(lattice.side)))


def square_sums(stack: LabelingStack, window_margin: int) -> tuple[np.ndarray, np.ndarray]:
    """Both exact integer routes to the windowed square sum, one entry per copy.

    Returns (per_site, per_cluster) where per_site sums, over window sites
    outside the infinite stand-in, the size of the site's cluster piece
    inside the window, and per_cluster sums the squared piece sizes over
    finite clusters. The two are equal for any correct labeling.
    """
    window = inner_window(stack.lattice, window_margin)
    labels = stack.stack_id[:, window]
    finite = labels != stack.proxy[:, None]
    piece = np.bincount(labels[finite], minlength=stack.cluster_sizes.shape[0])
    per_cluster = np.add.reduceat(piece * piece, stack.first)
    # The stand-in's piece is 0, so its sites add nothing here.
    per_site = piece[labels].sum(axis=1)
    return per_site, per_cluster


def square_sum_density(stack: LabelingStack, window_margin: int) -> np.ndarray:
    """Windowed mean of |C'(x) within the window| over window sites, one value per copy.

    Computed by two independent routes that must agree exactly as integers;
    any discrepancy raises rather than returning a number.
    """
    per_site, per_cluster = square_sums(stack, window_margin)
    if np.any(per_site != per_cluster):
        raise InvariantViolationError(
            f"square-sum identity violated: per-site {per_site} != per-cluster {per_cluster}"
        )
    return per_site / window_site_count(stack.lattice, window_margin)


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


def labeling_functionals(stack: LabelingStack, margin: int) -> dict[str, np.ndarray]:
    """Per-configuration functional values used by the pooled estimators.

    Float columns with one entry per copy; every value is an integer count
    over an integer. The window is read once, into each cluster's piece of
    it, and every column comes from the pieces; the square-sum identity of
    square_sums is checked on the way.
    """
    lattice = stack.lattice
    sites = window_site_count(lattice, margin)
    inner = slice(margin, lattice.side - margin)
    boxes = stack.stack_id.reshape((stack.copies,) + (lattice.side,) * lattice.d)
    labels = boxes[(slice(None),) + (inner,) * lattice.d].reshape(stack.copies, sites)
    piece = np.bincount(labels.ravel(), minlength=stack.cluster_sizes.shape[0])
    has_proxy = stack.proxy >= 0
    in_proxy = np.where(has_proxy, piece[stack.proxy], 0)
    # Full-box sizes of the window sites' clusters, the stand-in counted as 0.
    finite_mass = np.add.reduceat(piece * stack.cluster_sizes, stack.first) - in_proxy * stack.proxy_sites
    piece[stack.proxy[has_proxy]] = 0
    per_cluster = np.add.reduceat(piece * piece, stack.first)
    per_site = piece[labels].sum(axis=1)
    if np.any(per_site != per_cluster):
        raise InvariantViolationError(
            f"square-sum identity violated: per-site {per_site} != per-cluster {per_cluster}"
        )
    return {
        "theta": in_proxy / sites,
        "chi_f": finite_mass / sites,
        "kappa": stack.k_n / lattice.site_count,
        "square_sum_density": per_site / sites,
        "proxy_sites": stack.proxy_sites.astype(np.float64),
        "k_n": stack.k_n.astype(np.float64),
    }


def _fork() -> int:
    # Python 3.12+ warns on any fork of a process with other threads, such as
    # a BLAS pool's. This fork is safe: the child runs only task code, leaves
    # by os._exit, and rng re-creates its stream-log lock in the child, so a
    # lock another thread held at the fork cannot deadlock it.
    with warnings.catch_warnings():
        warnings.filterwarnings(
            "ignore", r"This process \(pid=\d+\) is multi-threaded, use of fork\(\)", DeprecationWarning
        )
        return os.fork()


def _run_share(fn: Callable[[int], object], indices: range) -> tuple[list, list, tuple | None]:
    """(results, stream logs, failure) of fn over indices in order, each task in its own stream log.

    The first exception stops the share; failure is (index, exception), or None.
    """
    results, logs = [], []
    for i in indices:
        try:
            with stream_log() as log:
                results.append(fn(i))
        except Exception as exc:
            return results, logs, (i, exc)
        logs.append(log)
    return results, logs, None


def _portable(exc: Exception) -> Exception:
    """exc, if it survives pickling with its type and message; else a RuntimeError naming both."""
    try:
        copy = pickle.loads(pickle.dumps(exc))
        if type(copy) is type(exc) and str(copy) == str(exc):
            return exc
    except Exception:
        pass
    return RuntimeError(f"{type(exc).__name__}: {exc}")


def _child(fn: Callable[[int], object], indices: range, write_fd: int) -> None:
    """Run a forked worker's share, send it down the pipe and exit, never returning."""
    code = 1
    try:
        results, logs, failure = _run_share(fn, indices)
        if failure is not None:
            failure = (failure[0], _portable(failure[1]))
        # Pickled whole before writing: a share that cannot be sent sends nothing.
        data = pickle.dumps((results, logs, failure), protocol=pickle.HIGHEST_PROTOCOL)
        with open(write_fd, "wb") as pipe:
            pipe.write(data)
        code = 0
    finally:
        # No atexit handler runs, and no inherited stdio buffer is flushed twice.
        os._exit(code)


def map_ordered(fn: Callable[[int], object], count: int, workers: int = 1) -> list:
    """Apply fn to 0..count-1 and return the results in index order.

    With several workers on Linux, task i runs on worker i % workers: worker
    0 is this process, and every other worker a forked child that sends its
    results and the streams its tasks derived back down a pipe. Results,
    stream-log counts and their order, and the exception raised (that of
    the lowest failing index) are those of a serial run, whatever the
    worker count. Elsewhere, where forking a numpy process is not safe
    (macOS's Accelerate), the tasks run here in index order.
    """
    workers = min(workers, count)
    if workers <= 1 or not sys.platform.startswith("linux"):
        return [fn(i) for i in range(count)]
    pending = []  # [pid, read end or None once closed] of every child not yet reaped
    try:
        for w in range(1, workers):
            read_fd, write_fd = os.pipe()
            try:
                pid = _fork()
            except BaseException:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                os.close(read_fd)
                for _, fd in pending:
                    os.close(fd)
                _child(fn, range(w, count, workers), write_fd)
            os.close(write_fd)
            pending.append([pid, read_fd])
        shares = [_run_share(fn, range(0, count, workers))]
        while pending:
            child = pending[0]
            with open(child[1], "rb") as pipe:
                child[1] = None
                data = pipe.read()
            _, status = os.waitpid(child[0], 0)
            pending.pop(0)
            if not data:
                code = os.waitstatus_to_exitcode(status)
                raise RuntimeError(f"worker process {child[0]} exited with code {code} before sending its results")
            shares.append(pickle.loads(data))
    finally:
        # Reached with children left only on an error: none may outlive the call.
        for pid, read_fd in pending:
            if read_fd is not None:
                os.close(read_fd)
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.waitpid(pid, 0)
    failures = [share[2] for share in shares if share[2] is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    results, logs = [None] * count, [None] * count
    for w, (share_results, share_logs, _) in enumerate(shares):
        results[w::workers] = share_results
        logs[w::workers] = share_logs
    for log in logs:
        for (master_seed, role), streams in log.items():
            _count(master_seed, role, streams)
    return results


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

