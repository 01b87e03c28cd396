"""The degraded-topology view every query path reads.

Range (§7.2), k-NN and path (§7.3) queries and the planner's backbone
plans all answer over the same serving stack — a clustering, its M-tree
and its backbone — possibly degraded by fail-stop crashes: ``dead`` is
the crashed node set and ``root_replacements`` maps a dead cluster root
to the member re-elected in its place (after
:meth:`~repro.index.backbone.BackboneTree.reroute_around` repaired the
backbone).  :class:`TopologyView` states the degraded policy once:

- **Replacement ball.**  A re-elected root prunes with the dead root's
  covering ball enlarged by the feature distance between the two: its own
  M-tree entry only covers its subtree, and the enlargement keeps every
  triangle-inequality exclusion sound.
- **Backbone walk.**  A fan-out crosses backbone edges depth-first from
  its start root and stops at dead relays; the far side of every severed
  edge is *lost*.  One walk, with an optional prune predicate, yields the
  traversed edges, the severed edges, the lost roots and the hop
  distance of every reached root (:class:`BackboneWalk`).
- **Coverage.**  The fraction of surviving nodes whose cluster a query
  could consult: one minus the surviving members of lost clusters over
  all survivors, and 0.0 when nothing survives.
- **Local-only answers.**  An initiator whose root died unreplaced
  cannot enter the backbone; the query floods its cluster's survivors.
- **Double-entry drops.**  Every undeliverable query copy is recorded in
  the per-query :class:`~repro.sim.stats.MessageStats` ``drops_by_reason``
  and, with a metrics registry, in the ``queries.drops.<reason>``
  counter, so the two always agree.

Without dead nodes or replacements every rule is the identity, so the
fault-free costs are the paper's.  Charges follow one convention: a
query travelling a hop carries ``dim+1`` values, and its reply carries
what the caller aggregates (1 value for range, ``k`` for k-NN scans).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Mapping

import numpy as np

from repro.core.delta import Clustering
from repro.features.metrics import Metric
from repro.index.backbone import BackboneTree
from repro.index.mtree import MTreeIndex
from repro.obs.metrics import MetricsRegistry
from repro.sim.messages import CATEGORY_QUERY
from repro.sim.stats import MessageStats

#: Drop reasons of the degraded query paths (one vocabulary, so service
#: counters aggregate across operations).
DROP_DEAD_RELAY = "dead_relay"
DROP_DEAD_ROOT = "dead_root"
DROP_DEAD_ENDPOINT = "dead_endpoint"
DROP_NO_SURVIVORS = "no_survivors"


@dataclass
class BackboneWalk:
    """One depth-first backbone fan-out (see :meth:`TopologyView.walk`)."""

    #: Backbone hops from the start to every reached root, in visit
    #: order (the start first, at 0).
    hops: dict[Hashable, int]
    #: Traversed edges ``(src, dst, hops)``, in visit order.
    edges: list[tuple[Hashable, Hashable, int]]
    #: Sum of the traversed edges' hops.
    total_hops: int
    #: ``(src, dead relay)`` for every edge the walk could not cross.
    severed: list[tuple[Hashable, Hashable]]
    #: Roots on the far sides of the severed edges (dead relays included).
    lost: set[Hashable]


class TopologyView:
    """The serving stack seen through the crashed-node context.

    *backbone* may be omitted by callers that never walk it (path
    queries classify clusters without a fan-out).  *dead* and
    *root_replacements* default empty: the fault-free view.
    """

    def __init__(
        self,
        clustering: Clustering,
        features: Mapping[Hashable, np.ndarray],
        metric: Metric,
        mtree: MTreeIndex,
        backbone: BackboneTree | None = None,
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
        self.dead = frozenset(dead) if dead else frozenset()
        self.replacements = dict(root_replacements) if root_replacements else {}
        self.replaced_by = {repl: orig for orig, repl in self.replacements.items()}
        self.degraded = bool(self.dead or self.replacements)
        self.dim = int(next(iter(self.features.values())).shape[0])
        #: Values a query carries per hop: the feature plus the radius.
        self.query_values = self.dim + 1
        self._metrics = metrics
        self._reach: dict[Hashable, BackboneWalk] = {}

    # ------------------------------------------------------------------
    # roots and members
    def effective(self, root: Hashable) -> Hashable:
        """The backbone node representing cluster *root* (its replacement, if any)."""
        return self.replacements.get(root, root)

    def original(self, node: Hashable) -> Hashable:
        """The cluster root a backbone *node* represents (inverse of :meth:`effective`)."""
        return self.replaced_by.get(node, node)

    def unreachable(self, root: Hashable) -> bool:
        """True when cluster *root* is dead with no re-elected replacement."""
        return root in self.dead and root not in self.replacements

    def alive_members(self, node: Hashable) -> list[Hashable]:
        """Surviving members of the cluster backbone *node* represents."""
        return [m for m in self.clustering.members(self.original(node)) if m not in self.dead]

    def routing_ball(self, node: Hashable) -> tuple[np.ndarray, float]:
        """Pruning ball ``(F, R)`` of backbone *node*, conservative for replacements."""
        center = self.mtree.routing_feature[node]
        orig = self.replaced_by.get(node)
        if orig is None:
            return center, self.mtree.covering_radius[node]
        slack = self.metric.distance(center, self.mtree.routing_feature[orig])
        return center, slack + self.mtree.covering_radius[orig]

    # ------------------------------------------------------------------
    # accounting
    @staticmethod
    def charge(stats: MessageStats, values: int, hops: int) -> None:
        """Charge *values* query values over *hops* hops (no-op for ``hops < 1``)."""
        if hops > 0:
            stats.charge("query", CATEGORY_QUERY, values, hops)

    def round_trip(self, stats: MessageStats, hops: int, up: int = 1) -> None:
        """Charge the query down *hops* hops and an *up*-value reply back."""
        self.charge(stats, self.query_values, hops)
        self.charge(stats, up, hops)

    def drop(self, stats: MessageStats, reason: str) -> None:
        """Record one degraded-path drop in both accounting systems."""
        stats.drop("query", reason)
        if self._metrics is not None:
            self._metrics.counter(f"queries.drops.{reason}").inc()

    # ------------------------------------------------------------------
    # coverage
    def coverage(self, lost: "set[Hashable] | frozenset[Hashable]") -> float:
        """Fraction of survivors outside the *lost* clusters (keyed by backbone node)."""
        if not lost:
            return 1.0
        alive_total = self._alive_total()
        if not alive_total:
            return 0.0
        uncovered = sum(len(self.alive_members(node)) for node in lost)
        return 1.0 - uncovered / alive_total

    def local_only(self, stats: MessageStats, origin: Hashable) -> tuple[list[Hashable], float]:
        """Bookkeeping of a query whose initiator's root *origin* died unreplaced.

        The query floods the cluster's survivors: one round trip per
        surviving member beyond the first, a ``dead_root`` drop (plus
        ``no_survivors`` when nobody is left).  Returns ``(survivors,
        coverage)``; a fully-dead network covers nothing (0.0).
        """
        self.drop(stats, DROP_DEAD_ROOT)
        alive = self.alive_members(origin)
        self.round_trip(stats, len(alive) - 1)
        if not alive:
            self.drop(stats, DROP_NO_SURVIVORS)
        alive_total = self._alive_total()
        return alive, (len(alive) / alive_total if alive_total else 0.0)

    def _alive_total(self) -> int:
        return sum(1 for n in self.clustering.assignment if n not in self.dead)

    # ------------------------------------------------------------------
    # backbone walk
    def walk(
        self,
        start: Hashable,
        prune: Callable[[Hashable, Hashable], bool] | None = None,
    ) -> BackboneWalk:
        """Depth-first fan-out over the backbone from *start*; charges nothing.

        A dead neighbour severs its edge and loses its far side.  Otherwise
        ``prune(src, dst)`` returning True skips *dst*'s whole far side
        without losing it (the query provably has nothing to find there).
        """
        tree = self.backbone.tree
        hops = {start: 0}
        edges: list[tuple[Hashable, Hashable, int]] = []
        severed: list[tuple[Hashable, Hashable]] = []
        lost: set[Hashable] = set()
        seen = {start}
        stack = [start]
        while stack:
            current = stack.pop()
            for neighbor in tree.neighbors(current):
                if neighbor in seen:
                    continue
                seen.add(neighbor)
                if neighbor in self.dead:
                    severed.append((current, neighbor))
                    lost.update(self.backbone.side_roots(current, neighbor))
                    continue
                if prune is not None and prune(current, neighbor):
                    continue
                edge = self.backbone.edge_hops(current, neighbor)
                hops[neighbor] = hops[current] + edge
                edges.append((current, neighbor, edge))
                stack.append(neighbor)
        return BackboneWalk(hops, edges, sum(h for _, _, h in edges), severed, lost)

    def reach(self, start: Hashable) -> BackboneWalk:
        """The unpruned walk from *start*, cached per start: its hop table
        is the backbone route length to every reachable root."""
        walk = self._reach.get(start)
        if walk is None:
            walk = self._reach[start] = self.walk(start)
        return walk

    def drop_severed(self, stats: MessageStats, walk: BackboneWalk) -> None:
        """Record a ``dead_relay`` drop for every edge *walk* could not cross."""
        for _ in walk.severed:
            self.drop(stats, DROP_DEAD_RELAY)

    def charge_walk(self, stats: MessageStats, walk: BackboneWalk, up: int) -> None:
        """Account a fan-out: severed-edge drops, a round trip per traversed edge."""
        self.drop_severed(stats, walk)
        for _, _, hops in walk.edges:
            self.round_trip(stats, hops, up)
