"""Box geometry: counts, indexing, edges, windows."""

from __future__ import annotations

import itertools
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcl.lattice import (
    _BYTES_PER_SITE,
    _BYTES_PER_SITE_AND_AXIS,
    BoxTooLargeError,
    build_box,
    window_values,
)
from dcl.percolation import label_clusters, sample_config

from oracles import box_edges, box_sites, site_coords, site_index, window_sites


@pytest.mark.parametrize("d,n", [(1, 0), (1, 3), (2, 1), (2, 5), (3, 2), (4, 1)])
def test_site_and_edge_counts(d, n):
    lat = build_box(d, n)
    side = 2 * n + 1
    assert lat.side == side
    assert lat.site_count == side**d
    assert lat.edge_count == d * (2 * n) * side ** (d - 1)
    assert lat.edge_count == len(box_edges(d, n))
    assert lat.has_edge.shape == (lat.site_count, d) and lat.has_edge.dtype == bool
    assert np.count_nonzero(lat.has_edge) == lat.edge_count


def test_origin_is_center():
    lat = build_box(3, 2)
    center = site_index(3, 2, (0, 0, 0))
    assert center == (lat.site_count - 1) // 2
    assert window_values(np.arange(lat.site_count), lat, lat.n).tolist() == [center]


@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=3),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_index_round_trip(d, n, data):
    lat = build_box(d, n)
    coords = tuple(
        data.draw(st.integers(min_value=-n, max_value=n)) for _ in range(d)
    )
    index = site_index(d, n, coords)
    assert index == sum((c + n) * stride for c, stride in zip(coords, lat.strides))
    assert site_coords(d, n, index) == coords


def test_site_enumeration_is_lexicographic():
    lat = build_box(2, 1)
    listed = [site_coords(2, 1, i) for i in range(lat.site_count)]
    assert listed == box_sites(2, 1)


def _edge_pairs(lat):
    """The edges (u, u + strides[axis]) of has_edge, in its row-major order."""
    return [(int(u), int(u) + lat.strides[axis]) for u, axis in np.argwhere(lat.has_edge)]


def test_edges_match_oracle_pairs():
    lat = build_box(2, 2)
    ours = {frozenset((site_coords(2, 2, u), site_coords(2, 2, v))) for u, v in _edge_pairs(lat)}
    oracle = {frozenset(e) for e in box_edges(2, 2)}
    assert ours == oracle


def test_edges_ordered_by_site_then_axis():
    lat = build_box(2, 1)
    expected = []
    for u in range(lat.site_count):
        coords = site_coords(2, 1, u)
        for axis, stride in enumerate(lat.strides):
            if coords[axis] < lat.n:
                expected.append((u, u + int(stride)))
    assert _edge_pairs(lat) == expected


def test_boundary_sites_d2():
    lat = build_box(2, 3)
    side = lat.side
    assert len(lat.boundary_sites) == side**2 - (side - 2) ** 2
    coords = [site_coords(2, 3, int(i)) for i in lat.boundary_sites]
    assert all(max(abs(c) for c in xy) == lat.n for xy in coords)


def test_boundary_of_single_site_box():
    lat = build_box(2, 0)
    assert lat.site_count == 1
    assert list(lat.boundary_sites) == [0]


def test_window_values_match_the_coordinate_oracle():
    for d, n in itertools.product(range(1, 5), range(4)):
        lat = build_box(d, n)
        values = 7 * np.arange(lat.site_count) + 3
        copies = np.stack([values, -values, values + 1])
        for margin in range(n + 1):
            window = window_sites(d, n, margin)
            assert len(window) == (2 * (n - margin) + 1) ** d
            assert window_values(values, lat, margin).tolist() == values[window].tolist(), (d, n, margin)
            assert window_values(copies, lat, margin).tolist() == copies[:, window].tolist(), (d, n, margin)


def test_arrays_are_read_only():
    lat = build_box(2, 2)
    with pytest.raises(ValueError):
        lat.has_edge[0, 0] = False
    with pytest.raises(ValueError):
        lat.boundary_sites[0] = 0


@pytest.mark.parametrize("d,n", [(0, 1), (-1, 1), (1, -1), (1.5, 1), (1, 1.5)])
def test_bad_shapes_rejected(d, n):
    with pytest.raises(ValueError):
        build_box(d, n)


def test_box_beyond_physical_memory_rejected_before_allocating():
    try:
        os.sysconf("SC_PHYS_PAGES")
    except (ValueError, OSError):
        pytest.skip("physical memory size not available")
    # 4194305^2 sites: about 1.8e13, far past any machine's memory but inside
    # the int64 index range, so the memory estimate is what refuses it.
    tracemalloc.start()
    try:
        with pytest.raises(BoxTooLargeError, match=r"needs about [\d.e+]+ GiB .* GiB of physical memory"):
            build_box(2, 2**21)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def _full_box_peak(d, n, p):
    """tracemalloc peak of building the box, then sampling and labeling it at density p."""
    tracemalloc.start()
    try:
        label_clusters(sample_config(build_box(d, n), p, 1))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("d,n", [(1, 100_000), (2, 220), (3, 29), (4, 10)])
def test_memory_bound_covers_building_and_labeling_a_full_box(d, n):
    # Boxes of about 200 k sites. Every edge open is the most hooking and one
    # cluster, counted by runs; every edge closed is one cluster per site,
    # counted by np.bincount; p = 0.5 lies in between. A small warm-up run
    # first keeps one-off allocations out of each peak.
    site_count = (2 * n + 1) ** d
    for p in (0.0, 0.5, 1.0):
        _full_box_peak(d, 1, p)
        assert _full_box_peak(d, n, p) < site_count * (_BYTES_PER_SITE + _BYTES_PER_SITE_AND_AXIS * d), p


def test_bad_margins_rejected():
    lat = build_box(2, 2)
    for margin in (-1, 3, 1.0):
        with pytest.raises(ValueError, match="margin"):
            window_values(np.arange(lat.site_count), lat, margin)
