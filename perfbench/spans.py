"""Spans around the public layer functions of ``dcl``, installed from outside.

``Tracer.install`` replaces each layer function with a wrapper wherever a
``dcl`` module binds it, including dict values such as the CLI's table of
harness runs and class attributes such as the color measures' ``sample``.
Spans stay in memory until ``layer_totals`` reduces them to per-layer
self seconds, call counts and work.
"""

from __future__ import annotations

import sys
import threading
import time

# metric prefix -> (module, attribute path) of every function it covers
LAYERS = {
    "rng.derive_rng": [("dcl.rng", "derive_rng")],
    "lattice.build_box": [("dcl.lattice", "build_box")],
    "percolation.sample_config": [("dcl.percolation", "sample_config")],
    "percolation.label_clusters": [("dcl.percolation", "label_clusters")],
    "percolation.labeling_functionals": [("dcl.percolation", "labeling_functionals")],
    "percolation.square_sums": [("dcl.percolation", "square_sums")],
    "percolation.estimate_functionals": [("dcl.percolation", "estimate_functionals")],
    "coloring.color_clusters": [("dcl.coloring", "color_clusters")],
    "coloring.measure_sample": [
        ("dcl.coloring", f"{cls}.sample") for cls in ("TwoPoint", "GaussianLaw", "FiniteDiscrete")
    ],
    "theory.limit_sample": [
        ("dcl.theory", f"{cls}.sample")
        for cls in ("PointMass", "TwoPointLaw", "GaussianMixture", "SampledLaw")
    ],
    "stats.ks": [("dcl.stats", "ks_two_sample"), ("dcl.stats", "ks_one_sample_gaussian")],
    "stats.gaussian_cdf": [("dcl.stats", "gaussian_cdf")],
    "stats.summarize": [("dcl.stats", "summarize")],
    "harness.run": [
        ("dcl.harness", name)
        for name in (
            "run_quenched_lln",
            "run_annealed_lln",
            "run_quenched_clt",
            "run_annealed_clt",
            "run_cluster_clt",
            "run_weighted_lln_check",
        )
    ],
    "cli.parse": [("dcl.cli", "parse_invocation")],
    "cli.emit": [("dcl.cli", "_emit")],
}

RUN_LAYER = "harness.run"
LABEL_LAYER = "percolation.label_clusters"


def _sites_labeled(args: tuple, kwargs: dict) -> int:
    config = args[0] if args else kwargs["config"]
    return config.lattice.site_count


# Work counted per call, for layers whose rate is reported.
WORK = {LABEL_LAYER: _sites_labeled}


class Tracer:
    """Records (layer, start, end, parent, work) spans; parent stacks are per thread.

    A span opened on a thread with no open span of its own, such as a
    ``--workers`` pool thread, takes the open ``harness.run`` span as parent.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()
        self._append = threading.Lock()
        self._open_run: int | None = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, fn):
        spans = self.spans
        work_of = WORK.get(layer)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._open_run
            work = work_of(args, kwargs) if work_of else 0
            span = [layer, clock(), None, parent, work]
            with self._append:
                index = len(spans)
                spans.append(span)
            stack.append(index)
            is_run = layer == RUN_LAYER
            if is_run:
                outer_run, self._open_run = self._open_run, index
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                if is_run:
                    self._open_run = outer_run

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every layer function in every loaded ``dcl`` module that binds it."""
        modules = [m for name, m in list(sys.modules.items()) if name == "dcl" or name.startswith("dcl.")]
        for layer, targets in LAYERS.items():
            for module_name, path in targets:
                owner = sys.modules[module_name]
                if "." in path:
                    cls_name, attr = path.split(".")
                    cls = getattr(owner, cls_name)
                    setattr(cls, attr, self.wrap(layer, cls.__dict__[attr]))
                    continue
                original = getattr(owner, path)
                wrapper = self.wrap(layer, original)
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, name, wrapper)
                        elif isinstance(value, dict):
                            for key, item in list(value.items()):
                                if item is original:
                                    value[key] = wrapper


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def layer_totals(spans: list[list]) -> dict[str, dict]:
    """Self time is a span's duration minus the time its children cover.

    Children on several threads may overlap; the time they cover is the
    union of their intervals, so a parent waiting on two busy threads has
    no self time while they run.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _ in spans:
        if parent is not None and end is not None:
            children.setdefault(parent, []).append((start, end))
    totals = {layer: {"self_s": 0.0, "calls": 0, "work": 0} for layer in LAYERS}
    for index, (name, start, end, _, work) in enumerate(spans):
        if end is None:
            continue
        entry = totals[name]
        entry["self_s"] += (end - start) - _covered(children.get(index, []), start, end)
        entry["calls"] += 1
        entry["work"] += work
    return totals
