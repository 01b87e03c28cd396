"""k-nearest-neighbour queries over the distributed index (extension).

"Which k sensors behave most like this model?" is the ranking twin of the
paper's range query, and the M-tree supports it with the classic
best-first search: visit clusters and subtrees in order of their
*optimistic* distance bound ``max(0, d(q, F^R) - R)`` and stop when the
k-th best confirmed distance beats every unvisited bound.  The same
triangle-inequality machinery as §7 does the pruning; communication is
charged per visited backbone edge and cluster-tree edge, exactly like the
range engine, so costs are comparable.

Degraded operation matches the range/path engines: pass ``dead`` (the
crashed node set) and the search answers from the reachable part of the
network with a ``coverage`` fraction instead of crashing — dead backbone
relays cut off their far-side clusters, dead nodes are never ranked, and
an initiator whose own representative died (and was not re-elected) is
answered from its surviving cluster members alone.  ``root_replacements``
lets re-elected representatives stand in for dead roots with a
conservative covering ball.  Every degraded-path loss is recorded in the
per-query ``MessageStats`` ``drops_by_reason`` (``dead_relay`` /
``dead_root`` / ``no_survivors``) and mirrored into the engine's
``queries.drops.<reason>`` metrics counters, so both accounting systems
agree — the same double-entry contract the range engine keeps.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Hashable, Mapping

import networkx as nx
import numpy as np

from repro._validation import require_int_at_least
from repro.core.delta import Clustering
from repro.features.metrics import Metric
from repro.index.backbone import BackboneTree
from repro.index.mtree import MTreeIndex
from repro.obs.metrics import MetricsRegistry
from repro.sim.messages import CATEGORY_QUERY
from repro.sim.stats import MessageStats

#: Drop reasons recorded by the degraded-mode k-NN paths (shared
#: vocabulary with the range engine, so service counters aggregate).
DROP_DEAD_RELAY = "dead_relay"
DROP_DEAD_ROOT = "dead_root"
DROP_NO_SURVIVORS = "no_survivors"


@dataclass
class KnnResult:
    """The k nearest nodes (sorted by distance) plus the cost."""

    neighbors: list[tuple[Hashable, float]]
    messages: int
    nodes_visited: int
    #: Fraction of surviving nodes whose cluster the query could consult
    #: (1.0 unless crashes severed parts of the backbone).
    coverage: float = 1.0
    #: Query deliveries dropped on degraded paths (dead relays/roots);
    #: per-reason detail is mirrored into the engine's metrics registry.
    drops: int = 0


class KnnQueryEngine:
    """Best-first k-NN search over clustering + M-tree + backbone.

    Fault-free by default; ``dead`` / ``root_replacements`` switch on the
    degraded mode described in the module docstring.  A *metrics*
    registry, when supplied, receives ``queries.drops.<reason>`` counters
    that agree with each result's ``drops`` total.
    """

    def __init__(
        self,
        clustering: Clustering,
        features: Mapping[Hashable, np.ndarray],
        metric: Metric,
        mtree: MTreeIndex,
        backbone: BackboneTree,
        *,
        dead: "set[Hashable] | frozenset[Hashable] | None" = None,
        root_replacements: Mapping[Hashable, Hashable] | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        self.clustering = clustering
        self.features = {k: np.asarray(v, dtype=np.float64) for k, v in features.items()}
        self.metric = metric
        self.mtree = mtree
        self.backbone = backbone
        self._metrics = metrics
        self._dead = frozenset(dead) if dead else frozenset()
        self._replacements = dict(root_replacements) if root_replacements else {}
        self._replaced_by = {repl: orig for orig, repl in self._replacements.items()}
        self._dim = int(next(iter(self.features.values())).shape[0])

    def query(self, q: np.ndarray, k: int, initiator: Hashable) -> KnnResult:
        """Return the *k* nodes with smallest feature distance to *q*."""
        require_int_at_least(k, 1, "k")
        q = np.asarray(q, dtype=np.float64)
        stats = MessageStats()
        query_values = self._dim + 1
        counter = itertools.count()  # deterministic heap tie-break
        dead = self._dead

        # Route to the initiator's root first (as in §7.2).
        origin = self.clustering.root_of(initiator)
        if dead and origin in dead and origin not in self._replacements:
            # Unrepaired dead representative: the initiator cannot enter
            # the backbone, so the query ranks the surviving members of
            # its own cluster only.
            return self._local_only(q, k, origin, stats, query_values)
        entry_hops = len(self.clustering.path_to_root(initiator)) - 1
        if entry_hops:
            self._charge(stats, query_values, entry_hops)
            self._charge(stats, 1, entry_hops)
        start = self._replacements.get(origin, origin)

        # Degraded mode: find which backbone roots are still reachable
        # from the start without relaying through a dead node; the rest
        # are uncovered.
        if dead:
            reachable, lost_roots = self._survey_backbone(start, stats)
        else:
            reachable, lost_roots = None, set()

        # Best-first frontier over (bound, kind, payload).  Cluster roots
        # enter with their optimistic bound; expanding a root enqueues its
        # M-tree children; expanding a node confirms its own distance.
        best: list[tuple[float, Hashable]] = []  # max-heap via negation

        def admit(node: Hashable, distance: float) -> None:
            if len(best) < k:
                heapq.heappush(best, (-distance, node))
            elif distance < -best[0][0]:
                heapq.heapreplace(best, (-distance, node))

        def kth_bound() -> float:
            return -best[0][0] if len(best) == k else float("inf")

        frontier: list[tuple[float, int, Hashable]] = []
        for root in self.clustering.roots:
            effective = self._replacements.get(root, root)
            if reachable is not None and effective not in reachable:
                continue  # severed from the backbone: uncovered
            center, r_root = self._routing_ball(effective)
            d = self.metric.distance(q, center)
            bound = max(0.0, d - r_root)
            heapq.heappush(frontier, (bound, next(counter), root))

        visited = 0
        reached_roots = {origin}
        while frontier:
            bound, _, node = heapq.heappop(frontier)
            if bound > kth_bound():
                break  # nothing unvisited can improve the answer
            root = self.clustering.root_of(node)
            if root not in reached_roots:
                reached_roots.add(root)
                target = self._replacements.get(root, root)
                hops = self._backbone_hops(start, target)
                self._charge(stats, query_values, hops)
                self._charge(stats, 1, hops)
            if node != root:
                # Travelling one cluster-tree edge to this node.
                self._charge(stats, query_values, 1)
                self._charge(stats, 1, 1)
            visited += 1
            if not dead or node not in dead:
                admit(node, self.metric.distance(q, self.features[node]))
            for child, (d_pc, r_child) in self.mtree.child_info[node].items():
                # The parent holds its children's routing features (it
                # received them during the bottom-up build), so the tight
                # M-tree bound d(q, F_child^R) - R_child is local.
                d_child = self.metric.distance(q, self.mtree.routing_feature[child])
                child_bound = max(0.0, d_child - r_child)
                if child_bound <= kth_bound():
                    heapq.heappush(frontier, (child_bound, next(counter), child))

        neighbors = sorted(((node, -negative) for negative, node in best), key=lambda kv: (kv[1], repr(kv[0])))
        coverage = self._coverage_after_losses(lost_roots)
        return KnnResult(
            neighbors, stats.total_values, visited, coverage, stats.total_drops
        )

    # ------------------------------------------------------------------
    # Degraded-operation helpers (all no-ops without dead/replacements).
    def _routing_ball(self, root: Hashable) -> tuple[np.ndarray, float]:
        """Pruning ball of *root*, conservative for re-elected roots.

        A replacement's own M-tree entry only covers its subtree, so its
        cluster ball is the dead root's ball enlarged by the feature
        distance between the two — sound by the triangle inequality.
        """
        center = self.mtree.routing_feature[root]
        orig = self._replaced_by.get(root)
        if orig is None:
            return center, self.mtree.covering_radius[root]
        slack = self.metric.distance(center, self.mtree.routing_feature[orig])
        return center, slack + self.mtree.covering_radius[orig]

    def _survey_backbone(
        self, start: Hashable, stats: MessageStats
    ) -> tuple[set[Hashable], set[Hashable]]:
        """(reachable backbone nodes, lost far-side roots) from *start*."""
        lost: set[Hashable] = set()
        seen = {start}
        stack = [start]
        while stack:
            current = stack.pop()
            for neighbor in self.backbone.tree.neighbors(current):
                if neighbor in seen:
                    continue
                seen.add(neighbor)
                if neighbor in self._dead:
                    # The query copy toward this relay is undeliverable.
                    self._drop(stats, DROP_DEAD_RELAY)
                    lost.update(self.backbone.side_roots(current, neighbor))
                    continue
                stack.append(neighbor)
        return seen - lost, lost

    def _alive_total(self) -> int:
        return sum(1 for n in self.clustering.assignment if n not in self._dead)

    def _coverage_after_losses(self, lost_roots: set[Hashable]) -> float:
        if not lost_roots:
            return 1.0
        alive_total = self._alive_total()
        if alive_total == 0:
            return 0.0
        uncovered = 0
        for root in lost_roots:
            orig = self._replaced_by.get(root, root)
            uncovered += sum(
                1 for m in self.clustering.members(orig) if m not in self._dead
            )
        return 1.0 - uncovered / alive_total

    def _local_only(
        self,
        q: np.ndarray,
        k: int,
        origin: Hashable,
        stats: MessageStats,
        query_values: int,
    ) -> KnnResult:
        """Rank only the initiator's own surviving cluster members."""
        self._drop(stats, DROP_DEAD_ROOT)
        alive = [m for m in self.clustering.members(origin) if m not in self._dead]
        for _ in range(max(len(alive) - 1, 0)):
            self._charge(stats, query_values, 1)
            self._charge(stats, 1, 1)
        ranked = sorted(
            ((m, self.metric.distance(q, self.features[m])) for m in alive),
            key=lambda kv: (kv[1], repr(kv[0])),
        )
        alive_total = self._alive_total()
        coverage = len(alive) / alive_total if alive_total else 0.0
        if not alive:
            self._drop(stats, DROP_NO_SURVIVORS)
        return KnnResult(
            ranked[:k], stats.total_values, len(alive), coverage, stats.total_drops
        )

    # ------------------------------------------------------------------
    def _backbone_hops(self, origin: Hashable, root: Hashable) -> int:
        """Hops of the backbone-tree route from *origin* to *root*."""
        if origin == root:
            return 0
        route = nx.shortest_path(self.backbone.tree, origin, root)
        return sum(self.backbone.edge_hops(a, b) for a, b in zip(route, route[1:]))

    @staticmethod
    def _charge(stats: MessageStats, values: int, hops: int) -> None:
        if hops > 0:
            stats.charge("query", CATEGORY_QUERY, values, hops)

    def _drop(self, stats: MessageStats, reason: str) -> None:
        """Record one degraded-path drop in both accounting systems."""
        stats.drop("query", reason)
        if self._metrics is not None:
            self._metrics.counter(f"queries.drops.{reason}").inc()


def brute_force_knn(
    features: Mapping[Hashable, np.ndarray],
    metric: Metric,
    q: np.ndarray,
    k: int,
) -> list[tuple[Hashable, float]]:
    """Ground-truth k-NN for correctness checks."""
    distances = [
        (node, metric.distance(q, feature)) for node, feature in features.items()
    ]
    distances.sort(key=lambda kv: (kv[1], repr(kv[0])))
    return distances[:k]
