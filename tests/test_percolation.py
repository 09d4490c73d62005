"""Cluster labeling, exact square-sum identities, and functional estimators."""

from __future__ import annotations

import dataclasses
import math
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcl import percolation
from dcl.lattice import build_box
from dcl.percolation import (
    _IDS_PER_RUN,
    _STACK_SITES,
    _count_ids,
    NEAR_CRITICAL_BAND,
    PROXY_BOUNDARY_LARGEST,
    PROXY_DISABLED,
    EdgeConfig,
    InvariantViolationError,
    LabelingStack,
    NearCriticalWarning,
    default_window_margin,
    estimate_functionals,
    label_clusters,
    labeling_functionals,
    map_labelings,
    pool_functionals,
    sample_config,
    square_sums,
    stand_in_volume,
    window_pieces,
)
from dcl.rng import SHORT_STREAM_DRAWS, derive_rng, stream_log

from oracles import bfs_clusters, box_sites, enumerate_box, site_index, window_sites


def _oracle_ids(lattice, open_mask):
    """BFS cluster labels, listed in flat site order.

    A set bit (u, axis) of the (site_count, d) mask is the edge from site u
    to its neighbor one step up along axis, found by coordinates.
    """
    sites = box_sites(lattice.d, lattice.n)
    open_edges = []
    for u, axis in np.argwhere(open_mask):
        a = sites[u]
        open_edges.append((a, tuple(c + (k == axis) for k, c in enumerate(a))))
    labels = bfs_clusters(sites, open_edges)
    return [labels[site] for site in sites]


def _config(lattice, *masks):
    """The configuration stacking the given (site_count, d) masks, one copy each."""
    return EdgeConfig(lattice=lattice, open=np.array(masks))


def _fields(stack):
    """The array fields of a stack, by name."""
    return {f.name: getattr(stack, f.name) for f in dataclasses.fields(LabelingStack) if f.name != "lattice"}


def _copy_fields(stack, c):
    """Copy c of a stack, sliced out as the fields of a one-copy stack: its own ids count from 0."""
    first, k_n, proxy = stack.first[c], stack.k_n[c], stack.proxy[c : c + 1]
    return {
        "stack_id": stack.stack_id[c : c + 1] - first,
        "first": stack.first[c : c + 1] - first,
        "k_n": stack.k_n[c : c + 1],
        "cluster_sizes": stack.cluster_sizes[first : first + k_n],
        "proxy": proxy - first if proxy[0] >= 0 else proxy,
        "proxy_sites": stack.proxy_sites[c : c + 1],
    }


def _assert_same_fields(got, want, context=None):
    assert got.keys() == want.keys()
    for name, value in want.items():
        assert got[name].dtype == value.dtype and np.array_equal(got[name], value), (context, name)


def _edge_mask(lattice, bits):
    """Open mask whose k-th edge in (site index, axis) order is open when bits[k] is."""
    mask = np.zeros(lattice.has_edge.shape, dtype=bool)
    mask[lattice.has_edge] = bits
    return mask


def _open_mask(lattice, pairs):
    """Open-edge mask holding exactly the given site pairs."""
    mask = np.zeros(lattice.has_edge.shape, dtype=bool)
    for a, b in pairs:
        u, v = min(a, b), max(a, b)
        mask[u, lattice.strides.index(v - u)] = True
    return mask


def serpentine(lattice):
    """A path through the 2D box: left to right on one row, right to left on the next."""
    s = lattice.side
    pairs = []
    for r in range(s):
        pairs += [(r * s + c, r * s + c + 1) for c in range(s - 1)]
        if r + 1 < s:
            turn = s - 1 if r % 2 == 0 else 0
            pairs.append((r * s + turn, (r + 1) * s + turn))
    return _open_mask(lattice, pairs)


def comb(lattice):
    """Vertical teeth on every other column of the 2D box, joined only by the last row."""
    s = lattice.side
    pairs = [(r * s + c, (r + 1) * s + c) for c in range(0, s, 2) for r in range(s - 1)]
    pairs += [((s - 1) * s + c, (s - 1) * s + c + 1) for c in range(s - 1)]
    return _open_mask(lattice, pairs)


def serpentine_stack(lattice):
    """The serpentine between an all-closed and an all-open copy of the box.

    At n=5 the serpentine leaves round one as chains of trees whose roots
    hook onto each other four levels deep in round two.
    """
    return np.array([np.zeros_like(lattice.has_edge), serpentine(lattice), lattice.has_edge.copy()])


def closed_stack(lattice):
    """Three copies of the box without an open edge."""
    return np.zeros((3,) + lattice.has_edge.shape, dtype=bool)


class _HookCountingNumpy:
    """numpy as the labeler sees it, counting its np.minimum.at hooking calls.

    It stands in for both the module and its minimum ufunc. Round one hooks
    its first axis by a subtraction, so it makes at most d - 1 of these
    calls, and every later round at most d. Every other name is numpy's, so
    the size count (_count_ids) runs under it unchanged.
    """

    def __init__(self):
        self.hooks = 0
        self.minimum = self

    def __getattr__(self, name):
        return getattr(np, name)

    def __call__(self, *args):
        return np.minimum(*args)

    def at(self, *args):
        self.hooks += 1
        np.minimum.at(*args)


@pytest.mark.parametrize(
    "d,n,edges",
    [
        (1, 4, 0.5),
        (2, 4, 0.3),
        (2, 4, 0.7),
        (3, 2, 0.25),
        (4, 2, 0.2),
        (2, 1, serpentine),
        (2, 5, serpentine),
        (2, 1, comb),
        (2, 5, comb),
        (2, 5, serpentine_stack),
        (2, 2, closed_stack),
    ],
)
def test_labels_match_bfs_oracle(d, n, edges, monkeypatch):
    # edges is a density to sample ten configurations at, or a function that
    # builds one open-edge mask, or a stack of them. A round hooks along each
    # axis in turn, round one along its first axis without np.minimum.at, and
    # the first round leaves the serpentine and the comb split into several
    # trees that only a second round joins: the labeler makes more than the
    # d - 1 np.minimum.at calls round one can make. Each copy of a stack is
    # also labeled alone.
    # BFS labels count up in site order, as the package's ids do.
    lat = build_box(d, n)
    if callable(edges):
        stacks = [edges(lat).reshape(-1, *lat.has_edge.shape)]
    else:
        stacks = [sample_config(lat, edges, 11, "g", rep).open for rep in range(10)]
    counting = _HookCountingNumpy()
    monkeypatch.setattr(percolation, "np", counting)
    for stack in stacks:
        labeling = label_clusters(_config(lat, *stack), PROXY_DISABLED)
        assert labeling.copies == len(stack)
        for c, mask in enumerate(stack):
            view = _copy_fields(labeling, c)
            oracle = _oracle_ids(lat, mask)
            assert view["stack_id"][0].tolist() == oracle
            assert view["k_n"][0] == len(set(oracle))
            if len(stack) > 1:
                _assert_same_fields(view, _fields(label_clusters(_config(lat, mask), PROXY_DISABLED)), c)
    if not any(stack.any() for stack in stacks):
        assert counting.hooks == 0
    elif callable(edges):
        assert counting.hooks > d - 1


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [1, 2])
def test_single_edge_joins_its_two_ends(d, n):
    # The first and the last edge of each axis sit at the ends of its shifted
    # views; in the last copy of a stack, the last one ends on the stack's
    # last site.
    lat = build_box(d, n)
    for axis, stride in enumerate(lat.strides):
        on_axis = np.flatnonzero(lat.has_edge[:, axis])
        for u in (on_axis[0], on_axis[-1]):
            stack = np.zeros((3,) + lat.has_edge.shape, dtype=bool)
            stack[-1, u, axis] = True
            lone = label_clusters(_config(lat, stack[-1]), PROXY_DISABLED)
            stacked = label_clusters(_config(lat, *stack), PROXY_DISABLED)
            oracle = _oracle_ids(lat, stack[-1])
            for labeling, c in ((lone, 0), (stacked, 2)):
                ids = _copy_fields(labeling, c)["stack_id"][0]
                assert ids[u] == ids[u + stride], (u, axis)
                assert labeling.k_n[c] == lat.site_count - 1
                assert ids.tolist() == oracle
            assert stacked.k_n.tolist() == [lat.site_count, lat.site_count, lat.site_count - 1]


@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=40, deadline=None)
def test_labeling_properties(d, n, p, seed):
    lat = build_box(d, n)
    config = sample_config(lat, p, seed, "hyp")
    labeling = label_clusters(config, PROXY_BOUNDARY_LARGEST)
    assert labeling.copies == 1 and labeling.first.tolist() == [0]
    ids = labeling.stack_id[0]
    # first-occurrence order: id 0 at site 0, each new id is previous max + 1
    assert ids[0] == 0
    seen_max = -1
    for label in ids.tolist():
        assert label <= seen_max + 1
        seen_max = max(seen_max, label)
    assert seen_max == labeling.k_n[0] - 1
    assert labeling.cluster_sizes.sum() == lat.site_count
    counts = np.bincount(ids, minlength=labeling.k_n[0])
    assert (counts == labeling.cluster_sizes).all()
    if labeling.proxy[0] >= 0:
        assert labeling.proxy[0] in np.unique(ids[lat.boundary_sites])
    # both square-sum routes agree exactly, at every legal margin
    for margin in range(lat.n + 1):
        a, b = square_sums(labeling, margin)
        assert np.array_equal(a, b)


def test_labelings_with_equal_counts_but_different_clusters_differ():
    # On the three-site line, opening either edge gives two clusters and no
    # stand-in; only the cluster ids tell the two labelings apart.
    line = build_box(1, 1)
    left, right = (
        label_clusters(_config(line, _edge_mask(line, bits)), PROXY_DISABLED)
        for bits in ([True, False], [False, True])
    )
    assert left.k_n.tolist() == right.k_n.tolist() == [2]
    assert left.proxy.tolist() == right.proxy.tolist() == [-1]
    assert left != right
    stacked = np.array([_edge_mask(line, [True, False]), _edge_mask(line, [False, True])])
    a = label_clusters(EdgeConfig(line, stacked), PROXY_DISABLED)
    b = label_clusters(EdgeConfig(line, stacked[::-1]), PROXY_DISABLED)
    assert np.array_equal(a.k_n, b.k_n) and np.array_equal(a.proxy, b.proxy)
    assert a != b


@pytest.mark.parametrize("d,n", [(1, 5), (2, 3), (3, 2), (4, 1)])
def test_draws_fill_the_mask_in_site_axis_order(d, n):
    # Edge k of the (site index, axis) order takes the stream's k-th draw, so
    # a configuration, and every report built on it, depends on its stream alone.
    lat = build_box(d, n)
    stack = sample_config(lat, 0.4, 13, "order", 5, 3)
    assert stack.open.shape == (3, *lat.has_edge.shape) and stack.open.dtype == bool
    for c in range(3):
        want = derive_rng(13, f"order:{5 + c}").random(lat.edge_count) < 0.4
        assert np.array_equal(stack.open[c][lat.has_edge], want)
        assert not stack.open[c][~lat.has_edge].any()
    # By default, one copy on stream graph:0: a quenched run's graph.
    with stream_log() as log:
        graph = sample_config(lat, 0.4, 13)
    assert log == {(13, "graph"): 1}
    assert graph.open.shape == (1, *lat.has_edge.shape)
    want = derive_rng(13, "graph:0").random(lat.edge_count) < 0.4
    assert np.array_equal(graph.open[0][lat.has_edge], want)
    assert not graph.open[0][~lat.has_edge].any()


# Boxes whose streams take each path of rng.stream_uniforms: a 3x3 box (12
# draws), lines of exactly SHORT_STREAM_DRAWS and of two more draws, and a
# 5x5x5 box (300 draws).
@pytest.mark.parametrize(
    "d,n", [(2, 1), (1, SHORT_STREAM_DRAWS // 2), (1, SHORT_STREAM_DRAWS // 2 + 1), (3, 2)]
)
def test_stack_equals_its_copies_sampled_alone(d, n):
    # A stack's copies are drawn and labeled as if each were alone.
    lat = build_box(d, n)
    stack = sample_config(lat, 0.5, 21, "side", 8, 4)
    labeled = label_clusters(stack)
    for c in range(4):
        alone = sample_config(lat, 0.5, 21, "side", 8 + c)
        assert np.array_equal(stack.open[c : c + 1], alone.open)
        one = label_clusters(alone)
        assert isinstance(one, LabelingStack) and one.copies == 1
        _assert_same_fields(_copy_fields(labeled, c), _fields(one), c)


# The 3x3 box has 9 sites, 2 axes and 12 edges; (12,) is a per-edge vector.
# (9, 2) is one copy's mask without the copy axis: a configuration is a
# stack, a single one a stack of one copy, and a lone mask is not reshaped.
@pytest.mark.parametrize("shape", [(12,), (18,), (9, 3), (9, 2, 1), (1, 1, 9, 2), (9, 2)])
def test_mask_of_wrong_shape_rejected(shape):
    lat = build_box(2, 1)
    with pytest.raises(ValueError, match=re.escape(f"open mask shape {shape} is not (copies, 9, 2)")):
        label_clusters(EdgeConfig(lat, np.zeros(shape, dtype=bool)))


def test_bit_on_far_face_rejected():
    # On the line {-1, 0, 1} the last site has no edge; a bit there would
    # join copy 0 of a stack to copy 1, or step past a single box.
    line = build_box(1, 1)
    single = np.zeros((3, 1), dtype=bool)
    single[2, 0] = True
    stack = np.zeros((2, 3, 1), dtype=bool)
    stack[0, 2, 0] = True
    for config in (_config(line, single), _config(line, *stack)):
        with pytest.raises(ValueError, match="far face"):
            label_clusters(config)
    square = build_box(2, 1)
    mask = np.zeros((9, 2), dtype=bool)
    mask[site_index(2, 1, (1, -1)), 0] = True
    with pytest.raises(ValueError, match="far face"):
        label_clusters(_config(square, mask))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [0, 1, 2])
def test_every_far_face_bit_is_refused(d, n):
    # The refusal reads only row side - 1 of each axis's (-1, side, s) view,
    # so each bit where has_edge is False is set alone on top of the all-open
    # mask, in a box and in each copy of a stack; without it the mask labels
    # one cluster per copy.
    lat = build_box(d, n)
    stack = np.array([lat.has_edge] * 3)
    assert label_clusters(_config(lat, lat.has_edge.copy())).k_n.tolist() == [1]
    assert label_clusters(_config(lat, *stack)).k_n.tolist() == [1, 1, 1]
    far = np.argwhere(~lat.has_edge)
    assert len(far) == d * lat.side ** (d - 1)
    for u, axis in far:
        lone = lat.has_edge.copy()
        lone[u, axis] = True
        with pytest.raises(ValueError, match="far face"):
            label_clusters(_config(lat, lone))
        for c in range(3):
            stacked = stack.copy()
            stacked[c, u, axis] = True
            with pytest.raises(ValueError, match="far face"):
                label_clusters(_config(lat, *stacked))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("density", [1.0, 0.7])
def test_first_axis_chains_match_bfs_oracle(d, density, monkeypatch):
    # With open edges only along the first axis, round one hooks by a
    # subtraction alone and no np.minimum.at runs. Between two closed copies
    # of a stack, a chain must stop at its copy's last row: the far face
    # carries no edge into the next copy.
    lat = build_box(d, 2)
    chains = np.zeros_like(lat.has_edge)
    chains[:, 0] = lat.has_edge[:, 0] & (np.random.default_rng(3).random(lat.site_count) < density)
    counting = _HookCountingNumpy()
    monkeypatch.setattr(percolation, "np", counting)
    closed = np.zeros_like(chains)
    for masks, c in (([chains], 0), ([closed, chains, closed], 1)):
        labeling = label_clusters(_config(lat, *masks), PROXY_DISABLED)
        for copy, mask in enumerate(masks):
            view = _copy_fields(labeling, copy)
            oracle = _oracle_ids(lat, mask)
            sizes = Counter(oracle)
            assert view["stack_id"][0].tolist() == oracle, copy
            assert view["k_n"][0] == len(sizes)
            assert view["cluster_sizes"].tolist() == [sizes[label] for label in range(len(sizes))]
        assert labeling.k_n[c] == lat.site_count - chains.sum()
    assert counting.hooks == 0


def test_open_fraction_tracks_p():
    lat = build_box(2, 16)
    config = sample_config(lat, 0.3, 5, "frac")
    frac = config.open[0, lat.has_edge].mean()
    assert abs(frac - 0.3) < 4 * math.sqrt(0.3 * 0.7 / lat.edge_count)


def test_coupled_monotonicity_in_p():
    lat = build_box(2, 8)
    ps = [0.1, 0.3, 0.5, 0.7, 0.9]
    configs = [sample_config(lat, p, 3, "mono") for p in ps]
    for lo, hi in zip(configs, configs[1:]):
        assert (hi.open | lo.open == hi.open).all(), "open sets must be nested"
    ks = [int(label_clusters(c, PROXY_DISABLED).k_n[0]) for c in configs]
    assert ks == sorted(ks, reverse=True)


def test_degenerate_p0():
    lat = build_box(2, 3)
    labeling = label_clusters(sample_config(lat, 0.0, 1, "x"), PROXY_DISABLED)
    assert labeling.k_n.tolist() == [lat.site_count]
    assert (labeling.cluster_sizes == 1).all()
    assert labeling.proxy.tolist() == [-1] and labeling.proxy_sites.tolist() == [0]
    assert [route.tolist() for route in square_sums(labeling, 0)] == [[lat.site_count]] * 2
    assert labeling_functionals(labeling, 0)["square_sum_density"].tolist() == [1.0]


def test_degenerate_p1():
    lat = build_box(2, 3)
    labeling = label_clusters(sample_config(lat, 1.0, 1, "x"), PROXY_BOUNDARY_LARGEST)
    assert labeling.k_n.tolist() == [1]
    assert labeling.proxy.tolist() == [0]
    assert labeling.proxy_sites.tolist() == [lat.site_count]
    # the stand-in holds every site, so no finite cluster is left
    assert labeling.cluster_sizes.sum() == labeling.proxy_sites[0]
    assert labeling_functionals(labeling, 0)["square_sum_density"].tolist() == [0.0]
    disabled = label_clusters(sample_config(lat, 1.0, 1, "x"), PROXY_DISABLED)
    assert labeling_functionals(disabled, 0)["square_sum_density"].tolist() == [float(lat.site_count)]


def test_proxy_is_largest_boundary_cluster_smallest_id_ties():
    # Path on {-2..2}: open only the two outer edges, giving boundary
    # clusters {-2,-1} and {1,2} of equal size; the tie goes to the
    # first-seen (smaller) cluster id, the one containing -2.
    lat = build_box(1, 2)
    base = sample_config(lat, 0.0, 1, "x")
    open_mask = base.open.copy()
    open_mask[0, [0, 3], 0] = True
    config = base.__class__(lattice=lat, open=open_mask)
    labeling = label_clusters(config, PROXY_BOUNDARY_LARGEST)
    assert labeling.cluster_sizes[labeling.proxy[0]] == 2
    assert labeling.proxy[0] == labeling.stack_id[0, 0]


def test_square_sum_matches_enumeration_oracle():
    # Exhaustive check on the 3x3 box: every config, full window, no proxy,
    # with exact ids against the BFS oracle.
    lat = build_box(2, 1)
    oracle = enumerate_box(2, 1, Fraction(1, 2))
    total = 0
    k_total = 0
    for mask in range(2**lat.edge_count):
        open_mask = _edge_mask(lat, [(mask >> i) & 1 == 1 for i in range(lat.edge_count)])
        labeling = label_clusters(_config(lat, open_mask), PROXY_DISABLED)
        assert labeling.stack_id[0].tolist() == _oracle_ids(lat, open_mask)
        (a,), (b,) = square_sums(labeling, 0)
        assert a == b
        total += int(a)
        k_total += int(labeling.k_n[0])
    assert Fraction(total, 2**lat.edge_count) == oracle["mean_square_sum"]
    assert Fraction(k_total, 2**lat.edge_count) == oracle["mean_k"]


def test_windowed_square_sum_excludes_proxy():
    lat = build_box(2, 2)
    labeling = label_clusters(sample_config(lat, 1.0, 1, "x"), PROXY_BOUNDARY_LARGEST)
    # single cluster is the proxy, so every windowed square sum is empty
    for margin in range(3):
        assert [route.tolist() for route in square_sums(labeling, margin)] == [[0], [0]]


def test_default_window_margin():
    assert default_window_margin(build_box(2, 0)) == 0
    lat = build_box(2, 32)
    assert default_window_margin(lat) == min(32, math.ceil(4 * math.log(lat.side)))
    tiny = build_box(2, 2)
    assert default_window_margin(tiny) == 2  # clamped to the radius


def test_estimates_p0_exact():
    lat = build_box(2, 4)
    est = estimate_functionals(lat, 0.0, 5, seed=2, proxy_rule=PROXY_DISABLED)
    assert est.theta_hat == 0.0
    assert est.chi_f_hat == 1.0
    assert est.kappa_hat == 1.0
    assert est.square_sum_density == 1.0
    assert est.theta_se == est.chi_f_se == est.kappa_se == 0.0
    assert est.sigma_p2_hat == 0.0  # no stand-in cluster, no volume fluctuation


def test_estimates_p1_exact():
    lat = build_box(2, 4)
    est = estimate_functionals(lat, 1.0, 5, seed=2, proxy_rule=PROXY_BOUNDARY_LARGEST)
    assert est.theta_hat == 1.0
    assert est.chi_f_hat == 0.0
    assert est.kappa_hat == 1.0 / lat.site_count
    assert est.sigma_p2_hat == 0.0


@pytest.mark.parametrize("count", [1, 2, 7])
def test_stand_in_volume_is_the_pooled_sigma_p2(count):
    lat = build_box(2, 5)
    margin = default_window_margin(lat)
    (columns,) = map_labelings(
        [(lat, 0.6, "graph")], 11, count, lambda start, stack: labeling_functionals(stack, margin)
    )
    theta_box, sigma_p2 = stand_in_volume(columns["proxy_sites"], lat.site_count)
    assert sigma_p2 == pool_functionals(columns, lat, margin, PROXY_BOUNDARY_LARGEST).sigma_p2_hat
    assert theta_box == float(columns["proxy_sites"].mean()) / lat.site_count
    if count == 1:
        assert sigma_p2 == 0.0
    else:
        assert sigma_p2 == float(np.var(columns["proxy_sites"], ddof=1)) / lat.site_count


def test_estimator_matches_enumeration_d1():
    # Exact mean per-site cluster size on the path {-2..2}, margin 0.
    oracle = enumerate_box(1, 2, Fraction(1, 2))
    expected = float(oracle["mean_per_site_cluster_size"])
    lat = build_box(1, 2)
    est = estimate_functionals(
        lat, 0.5, 4000, seed=9, margin=0, proxy_rule=PROXY_DISABLED
    )
    assert abs(est.chi_f_hat - expected) <= 3 * est.chi_f_se
    assert abs(est.square_sum_density - expected) <= 3 * est.square_sum_se


def test_estimate_replicate_validation():
    # The engine rejects an empty run; estimate_functionals relies on it.
    lat = build_box(1, 1)
    with pytest.raises(ValueError, match="count must be >= 1"):
        estimate_functionals(lat, 0.5, 0, seed=1)
    for count in (0, -1):
        with pytest.raises(ValueError, match="count must be >= 1"):
            map_labelings([(lat, 0.5, "empty")], 1, count, lambda start, stack: {})


def test_map_labelings_streams_and_worker_count():
    # A 7x7 box takes one stack for 12 replicates; 3x3 boxes stack
    # 16384 // 9 = 1820 copies per labeler call, so 4000 replicates run as
    # three stacks, which three workers label concurrently.
    for n, count in ((3, 12), (1, 4000)):
        lat = build_box(2, n)

        def observe(start, stack):
            return {
                "r": list(range(start, start + stack.copies)),
                "ids": stack.stack_id - stack.first[:, None],
            }

        (serial,) = map_labelings([(lat, 0.45, "eng")], 8, count, observe, workers=1)
        (parallel,) = map_labelings([(lat, 0.45, "eng")], 8, count, observe, workers=3)
        # Every column comes back as one concatenated array.
        assert serial["r"].tolist() == parallel["r"].tolist() == list(range(count))
        for r, ids, ids3 in zip(serial["r"], serial["ids"], parallel["ids"]):
            assert np.array_equal(ids, ids3)
            direct = label_clusters(sample_config(lat, 0.45, 8, "eng", r))
            assert np.array_equal(ids, direct.stack_id[0])


def _stack_copies(lattice):
    return max(1, _STACK_SITES // lattice.site_count)


@pytest.mark.parametrize("d,n", [(1, 1000), (2, 20), (3, 5), (4, 2)])
def test_stacked_views_match_one_copy_labelings(d, n):
    # Three copies past the first stack, so the second stack starts at a
    # replicate index other than 0.
    lat = build_box(d, n)
    count = _stack_copies(lat) + 3
    for p in (0.0, 0.3, 0.6, 1.0):
        for rule in (PROXY_BOUNDARY_LARGEST, PROXY_DISABLED):
            stacks = []

            def keep(start, stack):
                stacks.append(stack)
                return {"start": [start]}

            map_labelings([(lat, p, "view")], 21, count, keep, proxy_rule=rule)
            views = [_copy_fields(stack, c) for stack in stacks for c in range(stack.copies)]
            assert len(views) == count
            for r, view in enumerate(views):
                direct = label_clusters(sample_config(lat, p, 21, "view", r), rule)
                _assert_same_fields(view, _fields(direct), r)
                touching = [np.unique(ids[0, lat.boundary_sites]) for ids in (view["stack_id"], direct.stack_id)]
                assert np.array_equal(*touching), r


def _oracle_functionals(lattice, open_mask, margin, rule):
    """labeling_functionals of one configuration, from BFS labels in plain Python."""
    labels = _oracle_ids(lattice, open_mask)
    coords = box_sites(lattice.d, lattice.n)
    sizes = Counter(labels)
    proxy = None
    if rule == PROXY_BOUNDARY_LARGEST:
        boundary = {label for label, c in zip(labels, coords) if any(abs(x) == lattice.n for x in c)}
        proxy = min(boundary, key=lambda label: (-sizes[label], label))
    window = [label for label, c in zip(labels, coords) if all(abs(x) <= lattice.n - margin for x in c)]
    piece = Counter(label for label in window if label != proxy)
    return {
        "theta": sum(label == proxy for label in window) / len(window),
        "chi_f": sum(sizes[label] for label in window if label != proxy) / len(window),
        "kappa": len(sizes) / lattice.site_count,
        "square_sum_density": sum(piece[label] for label in window if label != proxy) / len(window),
        "proxy_sites": float(sizes[proxy] if proxy is not None else 0),
        "k_n": float(len(sizes)),
    }


@pytest.mark.parametrize("d,n", [(2, 1), (3, 1), (1, 4)])
def test_stacked_functional_columns_match_bfs_oracle(d, n):
    lat = build_box(d, n)
    count = _stack_copies(lat) + 3
    for margin in (0, 1):
        for rule in (PROXY_BOUNDARY_LARGEST, PROXY_DISABLED):
            (columns,) = map_labelings(
                [(lat, 0.5, "cols")],
                4,
                count,
                lambda start, stack: labeling_functionals(stack, margin),
                proxy_rule=rule,
            )
            for r in range(count):
                (mask,) = sample_config(lat, 0.5, 4, "cols", r).open
                want = _oracle_functionals(lat, mask, margin, rule)
                assert {name: float(columns[name][r]) for name in want} == want, r


def test_near_critical_warning_band():
    import warnings

    from dcl.percolation import warn_if_near_critical

    lat = build_box(2, 2)
    with pytest.warns(NearCriticalWarning):
        estimate_functionals(lat, 0.5 + NEAR_CRITICAL_BAND / 2, 2, seed=1)
    with pytest.warns(NearCriticalWarning, match="d=2 critical point 0.5"):
        warn_if_near_critical(2, 0.49)
    for p in (0.2488 - NEAR_CRITICAL_BAND / 2, 0.2488 + NEAR_CRITICAL_BAND / 2):
        with pytest.warns(NearCriticalWarning, match="d=3 critical point 0.2488"):
            warn_if_near_critical(3, p)
    for d, p in ((2, 0.3), (2, 0.5 + 2 * NEAR_CRITICAL_BAND), (2, 0.0), (2, 1.0), (3, 0.49), (3, 0.30)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            warn_if_near_critical(d, p)


def _gathered_functionals(stack, margin):
    """labeling_functionals through the oracle's window indices and a gather per site."""
    lat = stack.lattice
    labels = stack.stack_id[:, window_sites(lat.d, lat.n, margin)]
    sites = (2 * (lat.n - margin) + 1) ** lat.d
    finite = labels != stack.proxy[:, None]
    in_proxy = np.count_nonzero(~finite, axis=1)
    finite_mass = stack.cluster_sizes[labels].sum(axis=1) - in_proxy * stack.proxy_sites
    # Each finite cluster's piece of the window, squared and summed per copy.
    square_sum = np.array(
        [(np.unique(row[keep], return_counts=True)[1] ** 2).sum() for row, keep in zip(labels, finite)]
    )
    return {
        "theta": in_proxy / sites,
        "chi_f": finite_mass / sites,
        "kappa": stack.k_n / stack.lattice.site_count,
        "square_sum_density": square_sum / sites,
        "proxy_sites": stack.proxy_sites.astype(np.float64),
        "k_n": stack.k_n.astype(np.float64),
    }


@pytest.mark.parametrize("d,n,p", [(1, 40, 0.9), (2, 6, 0.3), (2, 9, 0.7), (3, 3, 0.4), (4, 2, 0.3)])
@pytest.mark.parametrize("rule", [PROXY_BOUNDARY_LARGEST, PROXY_DISABLED])
def test_labeling_functionals_match_the_gathered_route_bit_for_bit(d, n, p, rule):
    lat = build_box(d, n)
    stack = label_clusters(sample_config(lat, p, 6, "window", copies=5), rule)
    for margin in range(n + 1):
        got = labeling_functionals(stack, margin)
        want = _gathered_functionals(stack, margin)
        assert list(got) == list(want)
        for name in want:
            assert got[name].dtype == want[name].dtype and got[name].tobytes() == want[name].tobytes(), (name, margin)


def test_labeling_functionals_refuse_a_broken_square_sum_identity():
    lat = build_box(2, 3)
    stack = label_clusters(sample_config(lat, 0.4, 2, "broken", copies=2), PROXY_DISABLED)
    # Copy 0 carries copy 1's ids, which lie outside its own id range.
    ids = np.array(stack.stack_id)
    ids[0] = ids[1]
    broken = dataclasses.replace(stack, stack_id=ids)
    with pytest.raises(InvariantViolationError, match="square-sum identity violated"):
        labeling_functionals(broken, 1)
    # check-identity's route counts the broken copy rather than raising.
    assert np.not_equal(*square_sums(broken, 1))[0]


class _BincountSpy:
    """numpy as percolation sees it, noting for each np.bincount call whether it was weighted."""

    def __init__(self):
        self.weighted = []

    def __getattr__(self, name):
        return getattr(np, name)

    def bincount(self, ids, weights=None, minlength=0):
        self.weighted.append(weights is not None)
        return np.bincount(ids, weights=weights, minlength=minlength)


def _runs(lengths, values):
    """The flat int64 ids holding runs of the given lengths and values, read-only."""
    ids = np.repeat(np.asarray(values, dtype=np.int64), lengths)
    ids.setflags(write=False)
    return ids


def _window_ids(d, n, p):
    """The read-only window labels of a (d, n, p) box at the default margin, and its cluster count."""
    lattice = build_box(d, n)
    stack = label_clusters(sample_config(lattice, p, 0, "window"))
    ids = window_pieces(stack, default_window_margin(lattice))[0].ravel()
    ids.setflags(write=False)
    return ids, stack.cluster_sizes.size


def _count_ids_cases():
    return {
        "one id": (_runs([1], [3]), 5, False),
        # One run, but more than one of the minlength ids per _IDS_PER_RUN ids:
        # np.bincount, with no compare. At one id per _IDS_PER_RUN ids the runs count.
        "one run of too few ids": (_runs([3 * _IDS_PER_RUN - 1], [0]), 3, False),
        "one run at the id switch": (_runs([3 * _IDS_PER_RUN], [0]), 3, True),
        # 1331 ids in ~150 runs, but the box has ~4000 clusters.
        "small window of a (3, 20, 0.4) box": (*_window_ids(3, 20, 0.4), False),
        "all equal": (_runs([1000], [2]), 3, True),
        "alternating": (_runs([1] * 1000, [0, 1] * 500), 2, False),
        "unused trailing ids": (_runs([7, 1, 30, 12], [1, 4, 1, 0]), 9, True),
        # One run per _IDS_PER_RUN ids is the most the run count takes; one more is not.
        "at the switch": (_runs([_IDS_PER_RUN] * 24, [5, 0] * 12), 6, True),
        "past the switch": (_runs([_IDS_PER_RUN] * 23 + [1, _IDS_PER_RUN - 1], [5, 0] * 12 + [5]), 6, False),
        "ids one short of the switch": (_runs([_IDS_PER_RUN] * 23 + [_IDS_PER_RUN - 1], [5, 0] * 12), 6, False),
        "last run of one id": (_runs([24 * _IDS_PER_RUN - 1, 1], [0, 3]), 4, True),
    }


@pytest.mark.parametrize("case", list(_count_ids_cases()))
def test_count_ids_is_bincount(case, monkeypatch):
    # by_runs says whether the case has few enough runs to be counted run by run.
    ids, minlength, by_runs = _count_ids_cases()[case]
    spy = _BincountSpy()
    monkeypatch.setattr(percolation, "np", spy)
    got = _count_ids(ids, minlength)
    want = np.bincount(ids, minlength=minlength)
    assert got.dtype == np.int64 and got.tolist() == want.tolist()
    assert spy.weighted == [by_runs]
    assert not ids.flags.writeable


def test_count_ids_counts_a_stack_copy_by_copy():
    lat = build_box(2, 12)
    stack = label_clusters(sample_config(lat, 0.8, 3, "runs", copies=3))
    ids = stack.stack_id.ravel()
    assert (np.count_nonzero(ids[1:] != ids[:-1]) + 1) * _IDS_PER_RUN <= ids.size
    got = _count_ids(ids, stack.cluster_sizes.size)
    assert got.dtype == np.int64
    assert got.tolist() == np.bincount(ids, minlength=stack.cluster_sizes.size).tolist()
    for c in range(3):
        own = got[stack.first[c] : stack.first[c] + stack.k_n[c]]
        assert own.tolist() == np.bincount(stack.stack_id[c] - stack.first[c]).tolist()


@pytest.mark.parametrize("d,n,p", [(2, 12, 0.8), (3, 5, 0.6)])
@pytest.mark.parametrize("copies", [1, 3])
def test_sizes_and_pieces_of_supercritical_boxes_match_per_site_counts(d, n, p, copies, monkeypatch):
    # One cluster holds most of each box, so the sizes are counted by runs.
    lat = build_box(d, n)
    config = sample_config(lat, p, 5, "supercritical", copies=copies)
    spy = _BincountSpy()
    monkeypatch.setattr(percolation, "np", spy)
    stack = label_clusters(config)
    assert spy.weighted == [True]
    ids = stack.stack_id.ravel().tolist()
    sizes = Counter(ids)
    assert stack.cluster_sizes.tolist() == [sizes[i] for i in range(len(stack.cluster_sizes))]
    for margin in range(n + 1):
        labels, piece = window_pieces(stack, margin)
        window = [row[i] for row in stack.stack_id.tolist() for i in window_sites(d, n, margin)]
        assert labels.ravel().tolist() == window
        pieces = Counter(window)
        for proxy in stack.proxy.tolist():
            pieces[proxy] = 0
        assert piece.dtype == np.int64
        assert piece.tolist() == [pieces[i] for i in range(len(stack.cluster_sizes))], margin
    # The largest window, margin 0, is the whole box: its pieces too are counted by runs.
    assert spy.weighted[1] is True


def test_labeling_functionals_row_keys():
    lat = build_box(2, 4)
    labeling = label_clusters(sample_config(lat, 0.4, 3, "row"), PROXY_BOUNDARY_LARGEST)
    row = labeling_functionals(labeling, margin=1)
    assert set(row) >= {"theta", "chi_f", "kappa", "square_sum_density", "proxy_sites"}
    assert row["kappa"].tolist() == [labeling.k_n[0] / lat.site_count]


def test_estimates_deterministic_in_seed():
    lat = build_box(2, 4)
    a = estimate_functionals(lat, 0.45, 20, seed=3)
    b = estimate_functionals(lat, 0.45, 20, seed=3)
    assert a == b
    c = estimate_functionals(lat, 0.45, 20, seed=4)
    assert c != a
