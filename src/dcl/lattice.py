"""Finite centered boxes of the d-dimensional cubic lattice.

A box of radius n is the vertex set {-n, ..., n}^d with free boundary and
nearest-neighbor edges. Sites are flat indices under row-major (odometer)
encoding of the shifted coordinates; coordinates are derived on demand and
not kept per site. An edge is a site plus the axis it steps along, so the box
stores only a (site, axis) mask of which such steps stay inside it, and the
list of boundary sites.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

# Stay well under int64 so squared partial sums cannot overflow downstream.
_MAX_COUNT = 2**62
# Peak bytes per site to build a box, then sample and label it. tracemalloc
# measured 50, 54, 57 and 61 at d = 1..4 with every edge open on boxes of
# 0.5-1 M sites, and up to 50, 54, 58 and 67 on boxes of 50-200 k. On boxes of
# about 200 k sites at p = 0, 0.5 and 1 it measured 42, 42 and 36 at d = 1;
# 46, 42 and 54 at d = 2; 52, 46 and 57 at d = 3; 63, 55 and 62 at d = 4.
_BYTES_PER_SITE = 48
_BYTES_PER_SITE_AND_AXIS = 6


class BoxTooLargeError(ValueError):
    """The requested box cannot be indexed, or would not fit in memory."""


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the platform does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


@dataclass(frozen=True)
class BoxLattice:
    """Immutable geometry of the box {-n..n}^d.

    The edge (u, axis) joins site u to u + strides[axis]. The read-only
    (site_count, d) mask has_edge is False where that leaves the box, on
    each axis's far face. Edges are enumerated by (site index, axis), the
    row-major order of has_edge, a pure function of (d, n), so edge indices
    mean the same thing across runs, platforms, and worker counts.
    """

    d: int
    n: int
    side: int
    site_count: int
    edge_count: int
    has_edge: np.ndarray = field(repr=False, compare=False)
    boundary_sites: np.ndarray = field(repr=False, compare=False)
    strides: tuple[int, ...] = field(repr=False, compare=False)


def build_box(d: int, n: int) -> BoxLattice:
    """Construct the box lattice of dimension d and radius n.

    Refuses, before allocating anything, boxes whose site count would not
    fit comfortably in an int64 index space, and boxes that would need more
    than the machine's physical memory to build and label once.
    """
    if not isinstance(d, int) or d < 1:
        raise ValueError(f"dimension must be a positive integer, got {d!r}")
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"radius must be a non-negative integer, got {n!r}")
    side = 2 * n + 1
    site_count = side**d
    if site_count > _MAX_COUNT:
        raise BoxTooLargeError(f"box side {side}^{d} exceeds the supported index range")
    needed = site_count * (_BYTES_PER_SITE + _BYTES_PER_SITE_AND_AXIS * d)
    memory = _physical_memory()
    if memory is not None and needed > memory:
        raise BoxTooLargeError(
            f"box side {side}^{d} needs about {needed / 2**30:.3g} GiB to build and label, "
            f"more than the {memory / 2**30:.3g} GiB of physical memory"
        )
    strides = tuple(side ** (d - 1 - axis) for axis in range(d))

    # Along an axis of stride s, site u has coordinate (u // s) % side, so
    # its far face is row side - 1 of the (-1, side, s) view of the sites.
    has_edge = np.ones((site_count, d), dtype=bool)
    on_face = np.zeros(site_count, dtype=bool)
    for axis, stride in enumerate(strides):
        has_edge.reshape(-1, side, stride, d)[:, side - 1, :, axis] = False
        on_face.reshape(-1, side, stride)[:, [0, side - 1]] = True
    boundary_sites = np.flatnonzero(on_face)
    has_edge.setflags(write=False)
    boundary_sites.setflags(write=False)
    return BoxLattice(
        d=d,
        n=n,
        side=side,
        site_count=site_count,
        edge_count=d * (side - 1) * side ** (d - 1),
        has_edge=has_edge,
        boundary_sites=boundary_sites,
        strides=strides,
    )


def window_values(values: np.ndarray, lattice: BoxLattice, margin: int) -> np.ndarray:
    """The entries of a (..., site_count) array on the sub-box of radius n - margin.

    The sub-box is read through the (..., side, ..., side) view of the
    sites, so its entries come out in site order, (..., window sites).
    """
    if not isinstance(margin, int) or margin < 0:
        raise ValueError(f"margin must be a non-negative integer, got {margin!r}")
    if margin > lattice.n:
        raise ValueError(f"margin {margin} exceeds box radius {lattice.n}")
    lead, inner = values.shape[:-1], slice(margin, lattice.side - margin)
    boxes = values.reshape(lead + (lattice.side,) * lattice.d)
    return boxes[(...,) + (inner,) * lattice.d].reshape(lead + ((lattice.side - 2 * margin) ** lattice.d,))
