"""Tests of the benchmark's own reference computations and span accounting.

Run with ``python3 -m pytest perfbench``; none of them imports ``dcl``.
"""

from __future__ import annotations

import sys
import threading
from collections import deque
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from reference import REFERENCES, cluster_observables, edge_shapes, enumerate_box, label_sites, load_reference, simulate
from spans import LABEL_LAYER, RUN_LAYER, Tracer, layer_totals


def test_three_site_line_has_mean_cluster_size_eleven_sixths():
    exact = enumerate_box(1, 1, Fraction(1, 2))
    assert exact["weight_total"] == 1
    assert exact["square_sum_mean"] / exact["sites"] == Fraction(11, 6)
    assert exact["k_mean"] == 2


@pytest.mark.parametrize("p", [Fraction(3, 10), Fraction(7, 10)])
def test_cluster_count_of_a_line_is_sites_minus_open_edges(p):
    exact = enumerate_box(1, 2, p)
    assert exact["k_mean"] == 5 - 4 * p
    assert exact["k_var"] == 4 * p * (1 - p)


def test_tiny_box_extremes():
    closed, full = enumerate_box(2, 1, Fraction(0)), enumerate_box(2, 1, Fraction(1))
    assert (closed["k_mean"], closed["square_sum_mean"], closed["k_var"]) == (9, 9, 0)
    assert (full["k_mean"], full["square_sum_mean"], full["square_sum_var"]) == (1, 81, 0)
    assert closed["edges"] == 12


def test_label_sites_on_a_hand_drawn_box():
    # 3x3 box: (0,0)-(0,1) and (0,1)-(1,1) open, everything else closed.
    axis0, axis1 = (np.zeros(shape, dtype=bool) for shape in edge_shapes(2, 3))
    axis1[0, 0] = True
    axis0[0, 1] = True
    labels, count = label_sites([axis0, axis1])
    assert count == 7
    assert labels.tolist() == [[0, 0, 1], [2, 0, 3], [4, 5, 6]]


def _bfs_labels(open_axes, side, d):
    sites = list(np.ndindex(*(side,) * d))
    labels, next_label = {}, 0
    for start in sites:
        if start in labels:
            continue
        labels[start] = next_label
        queue = deque([start])
        while queue:
            site = queue.popleft()
            for axis in range(d):
                for step in (-1, 1):
                    other = list(site)
                    other[axis] += step
                    other = tuple(other)
                    if not 0 <= other[axis] < side:
                        continue
                    edge = site if step == 1 else other
                    if open_axes[axis][edge] and other not in labels:
                        labels[other] = next_label
                        queue.append(other)
        next_label += 1
    return np.array([labels[s] for s in sites]).reshape((side,) * d), next_label


@pytest.mark.parametrize("d,side,p", [(2, 7, 0.5), (3, 4, 0.3), (2, 6, 0.8)])
def test_label_sites_matches_breadth_first_search(d, side, p):
    rng = np.random.default_rng(7)
    for _ in range(20):
        open_axes = [rng.random(shape) < p for shape in edge_shapes(d, side)]
        labels, count = label_sites(open_axes)
        expected, expected_count = _bfs_labels(open_axes, side, d)
        assert count == expected_count
        assert np.array_equal(labels, expected)


def test_stand_in_ties_go_to_the_first_cluster_and_the_window_excludes_it():
    # Line of 5 sites with edges 0-1 and 3-4 open: clusters {0,1}, {2}, {3,4}.
    labels, count = label_sites([np.array([True, False, False, True])])
    obs = cluster_observables(labels, count, margin=1, proxy=True)
    assert obs["stand_in_sites"] == 2
    # Window is sites 1..3; site 1 belongs to the stand-in.
    assert (obs["square_sum"], obs["window_sites"], obs["k"]) == (2, 3, 3)


def test_simulation_extremes():
    empty = simulate(2, 3, 0.0, 1, 3)
    assert np.all(empty["kappa"] == 1.0) and np.all(empty["theta_box"] == 1 / 49)
    full = simulate(2, 3, 1.0, 1, 3)
    assert np.all(full["kappa"] == 1 / 49) and np.all(full["theta_box"] == 1.0)
    assert np.all(full["square_sum_density"] == 0.0)


def test_cached_reference_matches_its_specification():
    figures = load_reference()
    assert set(figures) == set(REFERENCES)
    for name, (d, n, p, margin, count) in REFERENCES.items():
        fig = figures[name]
        assert (fig["d"], fig["n"], fig["p"], fig["margin"]) == (d, n, p, margin)
        assert fig["kappa"]["count"] == count


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        [RUN_LAYER, 0.0, 10.0, None, 0],
        [LABEL_LAYER, 1.0, 4.0, 0, 5],
        [LABEL_LAYER, 3.0, 6.0, 0, 5],
        ["rng.derive_rng", 1.5, 2.0, 1, 0],
    ]
    totals = layer_totals(spans)
    assert totals[RUN_LAYER]["self_s"] == pytest.approx(5.0)
    assert totals[LABEL_LAYER]["self_s"] == pytest.approx(5.5)
    assert (totals[LABEL_LAYER]["calls"], totals[LABEL_LAYER]["work"]) == (2, 10)
    assert totals["rng.derive_rng"]["self_s"] == pytest.approx(0.5)


def test_span_on_a_pool_thread_takes_the_open_run_span_as_parent():
    tracer = Tracer()
    label = tracer.wrap(LABEL_LAYER, lambda config: None)
    config = SimpleNamespace(lattice=SimpleNamespace(site_count=9))

    def run():
        worker = threading.Thread(target=label, args=(config,))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()

    tracer.wrap(RUN_LAYER, run)()
    (run_index,) = [i for i, s in enumerate(tracer.spans) if s[0] == RUN_LAYER]
    (label_span,) = [s for s in tracer.spans if s[0] == LABEL_LAYER]
    assert label_span[3] == run_index and label_span[4] == 9


def test_concurrent_spans_keep_their_own_parents():
    tracer = Tracer()
    inner = tracer.wrap("rng.derive_rng", lambda: None)
    outer = tracer.wrap("percolation.sample_config", lambda: [inner() for _ in range(5)])

    def pool():
        threads = [threading.Thread(target=lambda: [outer() for _ in range(300)]) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        tracer.wrap(RUN_LAYER, pool)()
    finally:
        sys.setswitchinterval(interval)
    spans = tracer.spans
    assert len(spans) == 1 + 4 * 300 * 6
    for name, start, end, parent, _ in spans:
        if name == "rng.derive_rng":
            p_name, p_start, p_end = spans[parent][:3]
            assert p_name == "percolation.sample_config" and p_start <= start <= end <= p_end
        elif name == "percolation.sample_config":
            assert spans[parent][0] == RUN_LAYER
    assert layer_totals(spans)["rng.derive_rng"]["calls"] == 4 * 300 * 5
