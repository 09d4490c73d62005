"""Bernoulli bond configurations and cluster structure on a box.

Each edge of the box is open independently with probability p. Clusters are
the connected components of the open subgraph, labeled by vectorized
min-label hooking so that cluster ids follow each cluster's smallest site.
Configurations and labelings are stacks, EdgeConfig and LabelingStack, one
configuration being a stack of one copy. A boundary-touching largest
cluster can be designated as the stand-in for the infinite cluster;
everything measured "finite" excludes that stand-in.

Every configuration is drawn by sample_config, configuration r of a role
from the stream (seed, f"{role}:{r}"). Replicates go through one engine,
map_labelings, which labels small boxes many copies at a time, and their
per-configuration functionals are pooled in pool_functionals. The one
colored graph of a quenched run is sample_config's default stack: one copy,
on stream graph:0.
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

from .lattice import BoxLattice, window_values
from .rng import _count, stream_log, stream_uniforms

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
# _count_ids counts runs of equal ids whole when there is at most one run, and
# at most one counted id, per _IDS_PER_RUN ids. Timed against np.bincount on a
# labeler's ids at (d, n, p), with runs per id: (2, 128, 0.7), 0.02, took
# 0.22x; (3, 20, 0.4), 0.14, 0.55x; (3, 12, 0.4), 0.16, 0.89x; (2, 128, 0.5)
# and 1820 copies of a 3x3 box at p = 0.7, both 0.26, 1.03x and 1.54x;
# subcritical boxes, 0.66, 2.2-2.5x.
_IDS_PER_RUN = 4


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
    """A stack of sampled bond configurations on the same box.

    open is the boolean (copies, site_count, d) mask of each copy's open
    edges (u, axis), False off lattice.has_edge. Configs compare by identity.
    """

    lattice: BoxLattice
    open: np.ndarray = field(repr=False)


def sample_config(
    lattice: BoxLattice, p: float, seed: int, role: str = "graph", start: int = 0, copies: int = 1
) -> EdgeConfig:
    """Draw Bernoulli(p) bond configurations start..start+copies-1 of a role, as one stack.

    Copy c draws from the stream (seed, f"{role}:{start + c}"), edge k of
    the (site index, axis) order taking the stream's k-th uniform.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    draws = stream_uniforms(seed, role, start, copies, lattice.edge_count)
    open_edges = np.zeros((copies,) + lattice.has_edge.shape, dtype=bool)
    # A full-shape mask takes numpy's fast boolean-assignment path; [..., has_edge] does not.
    open_edges[np.broadcast_to(lattice.has_edge, open_edges.shape)] = (draws < p).ravel()
    open_edges.setflags(write=False)
    return EdgeConfig(lattice, open_edges)


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
    gathers parents only where the ends differ. Round one's first axis, the
    one of largest stride, needs neither: every site is still a root, so
    each site v has at most one such edge from behind, and its hook sets
    root[v] to v - s, which one subtraction of s times the column does.
    The stack of masks, (copies, site_count, d), is labeled as one graph
    whose copy c holds the sites from c * site_count on. The far faces
    carry no edge, so no edge leaves its copy, and each copy's ids come out
    as if it were labeled alone. Other shapes raise, and so does a bit on a
    far face, the only place has_edge is False: for each axis the check
    reads just row side - 1 of the (-1, side, s) view of its column.

    Cluster sizes are counted by _count_ids, which counts runs of equal ids
    whole: in a supercritical box one cluster holds nearly every site, in
    few long runs.
    """
    if proxy_rule not in PROXY_RULES:
        raise ValueError(f"proxy rule must be one of {PROXY_RULES}, got {proxy_rule!r}")
    lattice = config.lattice
    site_count = lattice.site_count
    if config.open.ndim != 3 or config.open.shape[1:] != lattice.has_edge.shape:
        raise ValueError(f"open mask shape {config.open.shape} is not (copies, {site_count}, {lattice.d})")
    copies = config.open.shape[0]
    sites = np.arange(copies * site_count, dtype=np.int64)
    # Per axis, its stride s and the open bits of the edges u -> u + s, one
    # per site u that has a site s further on. Each round reads every bit, so
    # the axes' columns are copied out of the (sites, d) mask once, contiguous.
    columns = np.ascontiguousarray(config.open.reshape(-1, lattice.d).T)
    # has_edge is False exactly on each axis's far face, row side - 1 of the
    # (-1, side, s) view of its column, so only those rows need reading.
    for axis, s in enumerate(lattice.strides):
        if columns[axis].reshape(-1, lattice.side, s)[:, -1].any():
            raise ValueError("open mask sets a bit on a far face, where the box has no edge")
    open_along = [(s, columns[axis, : sites.size - s]) for axis, s in enumerate(lattice.strides)]

    # Hooking writes into root in place; sites must stay intact for the root
    # test. spare takes each full gather of root, and the hook's ru, which
    # is dead once its hook is done. Every index is a site, so np.take's
    # mode="clip" never clips; unlike the default, it writes out= unbuffered.
    root = sites.copy()
    spare = np.empty_like(root)
    # Round one starts with every site its own root, so along the first axis
    # each site v has at most one edge from behind, and its hook sets root[v]
    # to v - s: a subtraction, with no conflict for np.minimum.at to resolve.
    s, open_edges = open_along[0]
    root[s:] -= np.multiply(open_edges, s, out=spare[: open_edges.size])
    hooked = bool(open_edges.any())
    round_axes = open_along[1:]
    roots = None  # the roots a round starts from; None in round one, where all are
    while True:
        for s, open_edges in round_axes:
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
        hooked, round_axes = False, open_along  # later rounds hook every axis
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
    cluster_sizes = _count_ids(stack_id, total)
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


def _count_ids(ids: np.ndarray, minlength: int) -> np.ndarray:
    """np.bincount(ids, minlength=minlength) as int64, for a flat array of ids >= 0.

    np.bincount adds one id at a time, and where most ids are equal, as over
    a supercritical box whose one cluster holds nearly every site, each add
    waits for the last store to the same count. When the ids form few runs
    of equal values, at most one per _IDS_PER_RUN ids, each run is counted
    whole instead: one compare of neighbours gives the runs' bounds, and
    their lengths are summed per id by a weighted np.bincount, exact since
    every count is below 2**53. When minlength is more than one id per
    _IDS_PER_RUN ids, np.bincount counts them with no compare: ids that each
    form at least one run, as a labeler's do, are then too many runs, and on
    a small window the compare costs more than it saves.
    """
    if minlength * _IDS_PER_RUN <= ids.size:
        change = ids[1:] != ids[:-1]
        runs = np.count_nonzero(change) + 1
        if runs * _IDS_PER_RUN <= ids.size:
            bounds = np.empty(runs + 1, dtype=np.int64)
            bounds[0], bounds[-1] = 0, ids.size
            np.add(np.flatnonzero(change), 1, out=bounds[1:-1])
            counts = np.bincount(ids[bounds[:-1]], weights=np.diff(bounds), minlength=minlength)
            return counts.astype(np.int64)
    return np.bincount(ids, minlength=minlength).astype(np.int64, copy=False)


def default_window_margin(lattice: BoxLattice) -> int:
    """Default inner-window margin, ceil(4 ln side), clamped to the radius."""
    if lattice.side == 1:
        return 0
    return min(lattice.n, math.ceil(4.0 * math.log(lattice.side)))


def window_pieces(stack: LabelingStack, margin: int) -> tuple[np.ndarray, np.ndarray]:
    """(labels, piece): the window's stack ids and each cluster's piece of the window.

    labels is (copies, window sites), the window being the sub-box of radius
    n - margin. piece[i] counts the window sites of stack id i, 0 for each
    copy's stand-in, so every window site outside the stand-in has piece > 0.
    The pieces are counted by _count_ids, run by run where the labels form
    few runs, as in a supercritical window, and by np.bincount otherwise.
    """
    labels = window_values(stack.stack_id, stack.lattice, margin)
    piece = _count_ids(labels.ravel(), stack.cluster_sizes.shape[0])
    piece[stack.proxy[stack.proxy >= 0]] = 0
    return labels, piece


def _square_sum_routes(stack: LabelingStack, labels: np.ndarray, piece: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return piece[labels].sum(axis=1), np.add.reduceat(piece * piece, stack.first)


def square_sums(stack: LabelingStack, window_margin: int) -> tuple[np.ndarray, np.ndarray]:
    """Both exact integer routes to the windowed square sum, one entry per copy.

    Returns (per_site, per_cluster) from the window_pieces of the stack:
    per_site sums, over window sites, the piece of the site's cluster (the
    stand-in's is 0), and per_cluster sums the squared pieces over clusters.
    The two are equal for any correct labeling; checked_square_sum raises
    where they differ, and this returns both so each copy can be compared.
    """
    return _square_sum_routes(stack, *window_pieces(stack, window_margin))


def checked_square_sum(stack: LabelingStack, labels: np.ndarray, piece: np.ndarray) -> np.ndarray:
    """The square sum of the stack's window_pieces, one entry per copy.

    Raises InvariantViolationError unless both square_sums routes agree
    exactly as integers on every copy.
    """
    per_site, per_cluster = _square_sum_routes(stack, labels, piece)
    if np.any(per_site != per_cluster):
        raise InvariantViolationError(
            f"square-sum identity violated: per-site {per_site} != per-cluster {per_cluster}"
        )
    return per_site


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
    over an integer. The window is read once, by window_pieces, and every
    windowed column comes from the pieces: a copy's sites outside the
    stand-in are the sum of its pieces, the full-box sizes of their clusters
    sum piece * size, and the square sum is checked_square_sum's.
    """
    labels, piece = window_pieces(stack, margin)
    sites = labels.shape[1]
    return {
        "theta": (sites - np.add.reduceat(piece, stack.first)) / sites,
        "chi_f": np.add.reduceat(piece * stack.cluster_sizes, stack.first) / sites,
        "kappa": stack.k_n / stack.lattice.site_count,
        "square_sum_density": checked_square_sum(stack, labels, piece) / sites,
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
    Configurations are drawn and labeled in stacks of max(1, _STACK_SITES //
    site_count) copies, one sample_config and one label_clusters call per
    stack, so small boxes share one set of hooking rounds. observe(start,
    stack) maps the stack whose copy 0 is configuration `start` to columns:
    a dict of arrays with one entry per copy. Only the columns are kept, and each comes back
    concatenated in r order whatever the worker count.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    copies = max(1, _STACK_SITES // lattice.site_count)
    starts = range(0, count, copies)

    def one(k: int) -> dict:
        start = starts[k]
        config = sample_config(lattice, p, seed, role, start, min(copies, count - start))
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
    workers: int = 1,
) -> PercolationEstimates:
    """Estimate the cluster functionals from independent configurations.

    Replicate r draws its configuration from the stream (seed, f"graph:{r}"),
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
        "graph",
        replicates,
        lambda start, stack: labeling_functionals(stack, margin),
        proxy_rule=proxy_rule,
        workers=workers,
    )
    return pool_functionals(columns, lattice, margin, proxy_rule)

