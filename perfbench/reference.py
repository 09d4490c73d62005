"""Reference computations for the benchmark checks, made apart from ``dcl``.

Nothing here imports the package. Clusters are labeled with
``scipy.ndimage.label`` on the doubled grid, where even cells are sites and
an open edge fills the odd cell between its two ends; random edges come from
numpy streams keyed by this file's own seed sequence, not from ``dcl.rng``.

Two kinds of figure come out of it:

* ``enumerate_box`` sums exactly over every edge configuration of a small
  box, giving the means and variances of the cluster count and of the
  cluster-size square sum.
* ``simulate`` draws independent configurations of a larger box; its
  summaries are cached in ``reference.json`` next to this file.

Remake the cache with::

    python3 perfbench/reference.py            # rewrites perfbench/reference.json
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import time
from pathlib import Path

import numpy as np
from scipy import ndimage

REFERENCE_PATH = Path(__file__).with_name("reference.json")
REFERENCE_SEED = 20010327

# name -> (d, n, p, window margin, configurations drawn)
REFERENCES = {
    "d2-n128-p0.7": (2, 128, 0.7, 23, 10000),
    "d2-n64-p0.3": (2, 64, 0.3, 20, 20000),
    "d3-n12-p0.4": (3, 12, 0.4, 0, 10000),
    "d3-n20-p0.4": (3, 20, 0.4, 0, 4000),
}


def edge_shapes(d: int, side: int) -> list[tuple[int, ...]]:
    """Shape of the open-edge array along each axis: one cell per edge x -> x + e_axis."""
    return [tuple(side - 1 if k == axis else side for k in range(d)) for axis in range(d)]


def label_sites(open_axes: list[np.ndarray]) -> tuple[np.ndarray, int]:
    """Cluster label of every site, 0..k-1 in order of each cluster's first site.

    ``open_axes[a]`` marks the open edges along axis ``a``. On the doubled
    grid an edge cell touches only its two end sites under the default
    cross-shaped connectivity, so the grid's components are the clusters.
    Every edge cell comes after its lower site in raster order, so labels
    number clusters by their first site in row-major site order.
    """
    d = len(open_axes)
    side = open_axes[0].shape[0] + 1
    grid = np.zeros((2 * side - 1,) * d, dtype=bool)
    grid[(slice(None, None, 2),) * d] = True
    for axis, open_edges in enumerate(open_axes):
        cells = [slice(None, None, 2)] * d
        cells[axis] = slice(1, None, 2)
        grid[tuple(cells)] = open_edges
    labels, count = ndimage.label(grid)
    return labels[(slice(None, None, 2),) * d] - 1, int(count)


def cluster_observables(site_labels: np.ndarray, count: int, margin: int, proxy: bool) -> dict:
    """Cluster count, stand-in volume and windowed square sum of one labeling.

    The stand-in is the largest cluster touching the box boundary, ties going
    to the smallest label. The square sum adds, over clusters other than the
    stand-in, the squared number of their sites inside the window of the
    given margin.
    """
    d = site_labels.ndim
    side = site_labels.shape[0]
    sizes = np.bincount(site_labels.ravel(), minlength=count)
    stand_in = None
    if proxy:
        faces = [site_labels.take(i, axis=a).ravel() for a in range(d) for i in (0, side - 1)]
        touching = np.unique(np.concatenate(faces))
        stand_in = int(touching[sizes[touching] == sizes[touching].max()].min())
    window = site_labels[(slice(margin, side - margin),) * d]
    piece = np.bincount(window.ravel(), minlength=count)
    if stand_in is not None:
        piece[stand_in] = 0
    return {
        "k": count,
        "sites": site_labels.size,
        "stand_in_sites": int(sizes[stand_in]) if stand_in is not None else 0,
        "square_sum": int(np.dot(piece, piece)),
        "window_sites": window.size,
    }


def enumerate_box(d: int, n: int, p) -> dict:
    """Exact means and variances of k_n and of the full-box square sum.

    Sums over all 2^edges configurations with no stand-in and no margin.
    ``p`` may be a ``fractions.Fraction`` for exact arithmetic.
    """
    side = 2 * n + 1
    shapes = edge_shapes(d, side)
    edges = [(a, idx) for a, shape in enumerate(shapes) for idx in itertools.product(*map(range, shape))]
    moments = {"k": [0, 0], "square_sum": [0, 0]}
    total = 0
    for mask in range(2 ** len(edges)):
        open_axes = [np.zeros(shape, dtype=bool) for shape in shapes]
        opened = 0
        for bit, (axis, idx) in enumerate(edges):
            if mask >> bit & 1:
                open_axes[axis][idx] = True
                opened += 1
        weight = p**opened * (1 - p) ** (len(edges) - opened)
        labels, count = label_sites(open_axes)
        obs = cluster_observables(labels, count, 0, proxy=False)
        total += weight
        for name, acc in moments.items():
            acc[0] += weight * obs[name]
            acc[1] += weight * obs[name] ** 2
    out = {"sites": side**d, "edges": len(edges), "weight_total": total}
    for name, (m1, m2) in moments.items():
        out[f"{name}_mean"] = m1
        out[f"{name}_var"] = m2 - m1 * m1
    return out


def simulate(d: int, n: int, p: float, margin: int, count: int, seed: int = REFERENCE_SEED) -> dict:
    """Per-configuration kappa, stand-in density and square-sum density arrays."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, d, n, round(p * 1000), margin]))
    shapes = edge_shapes(d, 2 * n + 1)
    rows = []
    for _ in range(count):
        labels, k = label_sites([rng.random(shape) < p for shape in shapes])
        obs = cluster_observables(labels, k, margin, proxy=True)
        rows.append(
            (
                obs["k"] / obs["sites"],
                obs["stand_in_sites"] / obs["sites"],
                obs["square_sum"] / obs["window_sites"],
            )
        )
    kappa, theta_box, ssd = np.array(rows).T
    return {"kappa": kappa, "theta_box": theta_box, "square_sum_density": ssd}


def summarize_draws(draws: dict) -> dict:
    return {
        name: {"mean": float(v.mean()), "sd": float(v.std(ddof=1)), "count": int(v.size)}
        for name, v in draws.items()
    }


def make_reference() -> dict:
    out = {"seed": REFERENCE_SEED, "labeler": "scipy.ndimage.label on the doubled grid", "figures": {}}
    for name, (d, n, p, margin, count) in REFERENCES.items():
        t0 = time.perf_counter()
        out["figures"][name] = {
            "d": d, "n": n, "p": p, "margin": margin,
            **summarize_draws(simulate(d, n, p, margin, count)),
        }
        print(f"{name}: {count} configurations in {time.perf_counter() - t0:.1f} s", flush=True)
    return out


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    return json.loads(path.read_text())["figures"]


def within(value: float, mean: float, se: float, k: float) -> bool:
    """|value - mean| <= k standard errors, with se > 0."""
    return math.isfinite(value) and abs(value - mean) <= k * se


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Rewrite the cached reference simulation.")
    parser.add_argument("--out", type=Path, default=REFERENCE_PATH)
    args = parser.parse_args()
    args.out.write_text(json.dumps(make_reference(), indent=2, sort_keys=True) + "\n")
