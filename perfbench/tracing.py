"""In-memory span recorder and the layer wrappers of the traced run.

The traced run (``--trace 1``) wraps callables of the program from the
benchmark's own code: each wrapper replaces the name where its caller
looks it up (a module global for functions imported by name, the class
attribute for methods), so nothing under ``src/`` changes.  A *timed*
wrapper records a span — name, start, end, parent — and a *counted*
wrapper only increments a counter, for calls too frequent to span.

Spans are kept in memory and written out as JSON lines at the end.  A
span's self time is its duration minus the time its direct children cover
(children of one single-threaded span never overlap).
"""

from __future__ import annotations

import json
import time
from collections import Counter
from typing import Any, Callable


class Recorder:
    """Spans and counters of one traced run.

    ``active`` gates recording, so the correctness audits that run after
    the measured phase (and call the same wrapped methods) stay out of the
    per-layer numbers.
    """

    def __init__(self) -> None:
        self.active = False
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent index
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------
    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run ``fn(*args, **kwargs)`` inside a span called *name*."""
        if not self.active:
            return fn(*args, **kwargs)
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent)

    # -- patching ----------------------------------------------------------
    def _replace(self, owner: Any, attr: str, wrapper: Callable[..., Any]) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def time(self, owner: Any, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a wrapper that spans every call."""
        original = owner.__dict__[attr]
        record = self.call

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return record(name, original, *args, **kwargs)

        self._replace(owner, attr, wrapper)

    def count(self, owner: Any, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a wrapper that counts every call."""
        original = owner.__dict__[attr]
        recorder = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if recorder.active:
                recorder.counts[name] += 1
            return original(*args, **kwargs)

        self._replace(owner, attr, wrapper)

    def unpatch(self) -> None:
        """Put every replaced attribute back (last patched, first restored)."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- summaries ---------------------------------------------------------
    def durations(self, name: str) -> list[float]:
        """Wall durations (s) of every span called *name*."""
        return [end - start for n, start, end, _p in self.spans if n == name]

    def self_times(self) -> dict[str, float]:
        """Total self time (s) per span name."""
        child_time = [0.0] * len(self.spans)
        for _n, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = {}
        for index, (name, start, end, _p) in enumerate(self.spans):
            totals[name] = totals.get(name, 0.0) + (end - start) - child_time[index]
        return totals

    def total_under(self, names: set[str], parent_name: str) -> float:
        """Total duration (s) of spans in *names* whose parent is *parent_name*."""
        total = 0.0
        for name, start, end, parent in self.spans:
            if name in names and parent >= 0 and self.spans[parent][0] == parent_name:
                total += end - start
        return total

    def write_jsonl(self, path: str) -> None:
        """Write every span (and the counters, as a last line) to *path*."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {"id": index, "name": name, "start": start, "end": end, "parent": parent}
                    )
                    + "\n"
                )
            handle.write(json.dumps({"counts": dict(self.counts)}) + "\n")


def install_layer_wrappers(recorder: Recorder) -> None:
    """Wrap every program callable the per-layer metrics observe.

    Callables the benchmark itself calls (dataset generators, the
    quadtree, ``run_elink``, index and planner builds, ``apply`` and
    ``dispatch``) are spanned at the call site instead, with
    :meth:`Recorder.call`.
    """
    import repro.datasets.death_valley as death_valley
    import repro.datasets.synthetic as synthetic
    import repro.serve.api as serve_api
    import repro.serve.pipeline as serve_pipeline
    import repro.serve.readings as serve_readings
    from repro.core.maintenance import MaintenanceSession
    from repro.features.metrics import EuclideanMetric
    from repro.models.rls import RecursiveLeastSquares
    from repro.queries.planner import QueryPlanner
    from repro.sim.network import Network
    from repro.sim.stats import MessageStats

    recorder.time(synthetic, "random_geometric_topology", "geometry.topology")
    recorder.time(serve_readings, "random_geometric_topology", "geometry.topology")
    recorder.time(death_valley, "scatter_topology", "geometry.topology")
    recorder.time(Network, "shortest_path", "sim.network.shortest_path")
    recorder.count(MessageStats, "charge", "sim.stats.charge.calls")
    recorder.count(MessageStats, "charge_batch", "sim.stats.charge_batch.calls")
    recorder.count(EuclideanMetric, "distance", "features.metrics.distance.calls")
    for op in ("range", "knn", "path"):
        recorder.time(QueryPlanner, op, f"queries.planner.{op}")
    recorder.time(RecursiveLeastSquares, "update", "models.rls.update")
    recorder.time(MaintenanceSession, "update_feature", "core.maintenance.update_feature")
    recorder.time(serve_pipeline, "run_spanning_forest", "baselines.spanning_forest")
    # The query service rebuilds its index and planner through these names.
    recorder.time(serve_api, "build_mtree", "index.mtree.build")
    recorder.time(serve_api, "build_backbone", "index.backbone.build")
    recorder.time(serve_api, "QueryPlanner", "queries.planner.build")
