"""Cost-model query planner over the clustered serving stack.

The query layer has three ways to answer any spatial query, with very
different message bills:

- **mtree** — the paper's clustered plan: route to the initiator's root,
  fan out over the backbone with directional-summary pruning, apply
  δ-compactness at each visited root, and descend the distributed M-tree
  only inside boundary clusters (:mod:`repro.queries.range_query`,
  :mod:`repro.queries.knn`, :mod:`repro.queries.path_query`);
- **backbone** — backbone routing without the index: visit *every*
  cluster root over the backbone tree, classify each cluster with its
  root ball alone, and flood the cluster tree of every boundary cluster
  (no M-tree descent).  Cheap when clusters are few and tight, expensive
  when many clusters straddle the query ball;
- **flood** — local flooding: TAG-style distribute-and-collect over a
  network-wide overlay tree for range/k-NN, a safe-region flood for path
  queries.  Cost is independent of selectivity — the right plan only for
  unselective queries on fragmented clusterings.

:class:`QueryPlanner` estimates each plan's message cost per query from
topology and clustering statistics — cluster count and sizes, backbone
depth (total backbone hops), covering radii versus the query radius, the
exact pruned backbone fan-out
(:meth:`~repro.queries.range_query.RangeQueryEngine.fanout_preview`) —
and executes the argmin.  All three backends return the **same answer**
(they are exact under the same triangle-inequality machinery; the planner
additionally canonicalizes path-query routes), so plan choice only moves
cost, never results.  ``explain`` output reports every backend's estimate
next to the chosen plan's actual cost, making the model auditable query
by query.

Results are memoized through :class:`~repro.queries.result_cache.QueryResultCache`
(content-addressed keys via :func:`repro.perf.cache.cache_key`) and
invalidated by the maintenance layer's structure generation — see the
cache module docstring for the staleness contract.  Planning, execution,
and cache traffic emit ``queries.*`` trace events consumed by
``repro trace --queries`` and ``queries.*`` counters in the metrics
registry.

The planner serves the fault-free path by default.  Pass ``dead`` /
``root_replacements`` (the engines' degraded vocabulary) and the cost
model discounts what crashes removed: re-elected roots prune with the
engines' conservative replacement balls, backbone hop terms count only
edges a query can actually traverse (fan-out stops at dead relays, and
their severed far sides contribute no descent cost), per-cluster sizes
count surviving members, and clusters whose representative died
unreplaced are costed as unreachable.  Execution routes through the
engines' own degraded paths, so the planner never plans a route through
a node they would refuse.  The flood backend is unavailable degraded —
its overlay tree routes through dead nodes — so it is never chosen and
cannot be forced.  Cache keys embed the degraded context
(:meth:`~repro.queries.result_cache.QueryResultCache.key`), so a
fault-free cached answer is never served for a degraded query.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Mapping

import networkx as nx
import numpy as np

from repro._validation import require_int_at_least, require_non_negative
from repro.core.delta import Clustering
from repro.features.metrics import Metric
from repro.index.backbone import BackboneTree
from repro.index.mtree import MTreeIndex
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.queries.knn import KnnQueryEngine, KnnResult, brute_force_knn
from repro.queries.path_query import (
    DROP_DEAD_ENDPOINT,
    DROP_DEAD_ROOT,
    PathQueryEngine,
    PathQueryResult,
)
from repro.queries.range_query import DROP_DEAD_RELAY, RangeQueryEngine, RangeQueryResult
from repro.queries.result_cache import QueryResultCache
from repro.queries.tag import TagEngine
from repro.sim.messages import CATEGORY_QUERY
from repro.sim.stats import MessageStats

#: The plan backends, in tie-break preference order (ties go to the
#: earliest entry — the clustered plan, whose constants are best-measured).
PLAN_BACKENDS = ("mtree", "backbone", "flood")

#: Fraction of a boundary cluster's tree edges the M-tree descent is
#: modeled to visit (the descent prunes subtrees; the backbone plan's
#: cluster flood visits every edge).  Calibrated on the seeded scenarios
#: in tests/test_planner.py; explain output exposes the per-query error.
DESCENT_FRACTION = 0.5

#: Same role for the path query's boundary-cluster M-tree drill.
DRILL_FRACTION = 0.5

#: Per-cluster node budget the k-NN best-first search is modeled to
#: confirm inside each visited cluster (it stops at the k-th bound).
KNN_VISIT_PER_CLUSTER = 2


@dataclass(frozen=True)
class QueryPlan:
    """A chosen backend plus the full per-backend estimate table."""

    op: str  # "range" | "knn" | "path"
    backend: str  # the chosen entry of PLAN_BACKENDS
    estimates: Mapping[str, float]  # backend -> estimated value-messages
    reason: str  # "min-cost" | "forced"

    def explain_text(self) -> str:
        """One-line rendering of the estimate table and the choice."""
        ranked = sorted(self.estimates.items(), key=lambda kv: kv[1])
        table = ", ".join(f"{name} est {cost:.0f}" for name, cost in ranked)
        return f"plan {self.op}: {self.backend} ({self.reason}) | {table}"


@dataclass
class PlannedResult:
    """One executed (or cache-served) query with its plan and cost."""

    plan: QueryPlan
    result: Any  # RangeQueryResult | KnnResult | PathQueryResult
    messages: int  # actual network cost of THIS response (0 on cache hits)
    estimated: float  # the chosen backend's estimate
    cached: bool = False

    def explain_text(self) -> str:
        """Estimate-vs-actual rendering for the executed plan."""
        if self.cached:
            return f"{self.plan.explain_text()} | served from cache (0 messages)"
        ratio = self.messages / self.estimated if self.estimated else math.inf
        return (
            f"{self.plan.explain_text()} | actual {self.messages} "
            f"(actual/est {ratio:.2f}x)"
        )


def canonical_answer(op: str, result: Any) -> Any:
    """The backend-independent answer of a query result, for equivalence.

    Range answers are frozen match sets, k-NN answers the ordered
    neighbor list, path answers the route (or None).  Cost fields are
    deliberately excluded — they are exactly what plan choice changes.
    """
    if op == "range":
        return frozenset(result.matches)
    if op == "knn":
        return tuple((node, round(dist, 12)) for node, dist in result.neighbors)
    if op == "path":
        return None if result.path is None else tuple(result.path)
    raise ValueError(f"unknown op {op!r}")


@dataclass
class _Stats:
    """Topology/clustering statistics the cost model reads."""

    n: int
    dim: int
    num_clusters: int
    overlay_edges: int
    total_backbone_hops: int
    mean_degree: float
    sizes: dict[Hashable, int] = field(default_factory=dict)


class QueryPlanner:
    """Plans and executes range/k-NN/path queries (see module docstring).

    Parameters
    ----------
    graph, clustering, features, metric, mtree, backbone:
        The serving structures every engine shares.
    metrics:
        Optional registry for ``queries.*`` counters.
    tracer:
        Optional :class:`~repro.obs.trace.Tracer`; the planner stamps its
        events with a per-planner sequence clock (deterministic).
    emit:
        Alternative event sink ``emit(type, **data)`` — the serving layer
        passes its context emitter so events share the service clock.
        Wins over *tracer* when both are given.
    cache:
        Optional :class:`~repro.queries.result_cache.QueryResultCache`.
        Auto-planned answers are memoized in it; forced-backend runs
        bypass it (their cost is the experiment).
    generation:
        Zero-argument callable returning the current maintenance
        structure generation (e.g. ``lambda: session.generation``); the
        cache sweeps stale entries whenever it advances.  ``None`` pins
        generation 0 (static snapshots).
    dead, root_replacements:
        The degraded-topology context, with the same semantics the
        engines give them (crashed node set; dead root -> re-elected
        representative).  Both default empty: the fault-free cost model
        and execution paths are byte-identical to pre-degraded builds.
    """

    def __init__(
        self,
        graph: nx.Graph,
        clustering: Clustering,
        features: Mapping[Hashable, np.ndarray],
        metric: Metric,
        mtree: MTreeIndex,
        backbone: BackboneTree,
        *,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        emit: Callable[..., None] | None = None,
        cache: QueryResultCache | None = None,
        generation: Callable[[], int] | None = None,
        dead: "set[Hashable] | frozenset[Hashable] | None" = None,
        root_replacements: Mapping[Hashable, Hashable] | None = None,
    ):
        self.graph = graph
        self.clustering = clustering
        self.features = {k: np.asarray(v, dtype=np.float64) for k, v in features.items()}
        self.metric = metric
        self.mtree = mtree
        self.backbone = backbone
        self._metrics = metrics
        self._cache = cache
        self._generation = generation
        self._dead = frozenset(dead) if dead else frozenset()
        self._replacements = dict(root_replacements) if root_replacements else {}
        self._replaced_by = {repl: orig for orig, repl in self._replacements.items()}
        self._degraded = bool(self._dead or self._replacements)
        self._seq = 0
        if emit is not None:
            self._emit_fn = emit
        elif tracer is not None:
            self._emit_fn = self._tracer_emit(tracer)
        else:
            self._emit_fn = None

        self._range_engine = RangeQueryEngine(
            clustering, self.features, metric, mtree, backbone,
            dead=self._dead or None, root_replacements=self._replacements or None,
            metrics=metrics,
        )
        self._knn_engine = KnnQueryEngine(
            clustering, self.features, metric, mtree, backbone,
            dead=self._dead or None, root_replacements=self._replacements or None,
            metrics=metrics,
        )
        self._path_engine = PathQueryEngine(
            graph, clustering, self.features, metric, mtree,
            dead=self._dead or None, metrics=metrics,
        )
        # One overlay for the flood backend; TAG's per-query cost does not
        # depend on where the overlay is rooted (it is always n-1 edges),
        # so a fixed deterministic base station keeps plans comparable.
        base = min(graph.nodes, key=repr)
        self._tag = TagEngine(graph, self.features, metric, base_station=base)

        # Per-cluster sizes over *surviving* members: the degraded cost
        # model's discount, and exactly the fault-free sizes when nothing
        # is dead.
        if self._dead:
            sizes = {
                root: sum(1 for m in clustering.members(root) if m not in self._dead)
                for root in clustering.roots
            }
        else:
            sizes = {root: len(clustering.members(root)) for root in clustering.roots}
        total_hops = sum(
            backbone.edge_hops(a, b) for a, b in backbone.tree.edges
        )
        n = graph.number_of_nodes()
        self.stats = _Stats(
            n=n,
            dim=int(next(iter(self.features.values())).shape[0]),
            num_clusters=clustering.num_clusters,
            overlay_edges=self._tag.tree_edges,
            total_backbone_hops=total_hops,
            mean_degree=(2.0 * graph.number_of_edges() / n) if n else 0.0,
            sizes=sizes,
        )
        self._route_cache: dict[Hashable, dict[Hashable, int]] = {}

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------
    def plan_range(self, q: np.ndarray, radius: float, initiator: Hashable) -> QueryPlan:
        """Estimate every backend for a range query and pick the cheapest."""
        require_non_negative(radius, "radius")
        q = np.asarray(q, dtype=np.float64)
        per_edge = self.stats.dim + 2  # (dim+1) down + 1 aggregate up
        origin = self.clustering.root_of(initiator)
        if self._unreachable_root(origin):
            # Unrepaired dead representative: every clustered backend
            # decays to flooding the initiator's surviving cluster.
            local = per_edge * max(self.stats.sizes.get(origin, 0) - 1, 0)
            return self._choose("range", {
                "mtree": float(local),
                "backbone": float(local),
                "flood": self._flood_cost(self._tag.per_query_cost()),
            })
        entry = len(self.clustering.path_to_root(initiator)) - 1
        classes = self._classify_range(q, radius)
        _hops_reach, reachable = self._backbone_reach(self._effective(origin))
        boundary_all = sum(
            max(self.stats.sizes[r] - 1, 0)
            for r, c in classes.items()
            if c == "boundary" and (reachable is None or self._effective(r) in reachable)
        )
        entry_hops, visited, fanout_hops = self._range_engine.fanout_preview(q, radius, initiator)
        boundary_visited = sum(
            max(self.stats.sizes.get(self._orig_root(r), 0) - 1, 0)
            for r in visited
            if classes.get(self._orig_root(r)) == "boundary"
        )
        estimates = {
            "mtree": per_edge * (entry_hops + fanout_hops)
            + per_edge * boundary_visited * DESCENT_FRACTION,
            "backbone": per_edge * (entry + _hops_reach) + per_edge * boundary_all,
            "flood": self._flood_cost(self._tag.per_query_cost()),
        }
        return self._choose("range", estimates)

    def plan_knn(self, q: np.ndarray, k: int, initiator: Hashable) -> QueryPlan:
        """Estimate every backend for a k-NN query and pick the cheapest."""
        require_int_at_least(k, 1, "k")
        q = np.asarray(q, dtype=np.float64)
        dim = self.stats.dim
        origin = self.clustering.root_of(initiator)
        if self._unreachable_root(origin):
            local = (dim + 2) * max(self.stats.sizes.get(origin, 0) - 1, 0)
            return self._choose("knn", {
                "mtree": float(local),
                "backbone": float(local),
                "flood": self._flood_cost((dim + 1 + k) * self.stats.overlay_edges),
            })
        entry = len(self.clustering.path_to_root(initiator)) - 1
        start = self._effective(origin)
        hops_reach, reachable = self._backbone_reach(start)
        # Only clusters the degraded engines can consult: a live (or
        # re-elected) representative that is not severed behind a dead
        # backbone relay.
        candidates = [
            r
            for r in self.clustering.roots
            if not self._unreachable_root(r)
            and (reachable is None or self._effective(r) in reachable)
        ]
        # Optimistic k-th-distance guess from the closest root ball: every
        # root whose optimistic bound beats it is modeled as visited.
        balls = {r: self._routing_ball(r) for r in candidates}
        d_by_root = {r: self.metric.distance(q, balls[r][0]) for r in candidates}
        best = min(d_by_root, key=lambda r: (d_by_root[r], repr(r)))
        est_kth = d_by_root[best] + balls[best][1]
        routes = self._route_hops_from(start)
        visited = [
            r
            for r in candidates
            if max(0.0, d_by_root[r] - balls[r][1]) <= est_kth
        ]
        per_edge = dim + 2
        mtree_cost = per_edge * entry + sum(
            per_edge * routes.get(self._effective(r), 0)
            + per_edge * min(max(self.stats.sizes[r] - 1, 0), KNN_VISIT_PER_CLUSTER * k)
            for r in visited
        )
        # Cluster-tree edges the backbone scan floods (surviving members
        # of consultable clusters only).
        scan_edges = sum(max(self.stats.sizes[r] - 1, 0) for r in candidates)
        estimates = {
            "mtree": float(mtree_cost),
            "backbone": (dim + 1 + k) * (entry + hops_reach + scan_edges),
            "flood": self._flood_cost((dim + 1 + k) * self.stats.overlay_edges),
        }
        return self._choose("knn", estimates)

    def plan_path(
        self, source: Hashable, destination: Hashable, danger: np.ndarray, gamma: float
    ) -> QueryPlan:
        """Estimate every backend for a safe-path query and pick the cheapest."""
        require_non_negative(gamma, "gamma")
        danger = np.asarray(danger, dtype=np.float64)
        qv = self.stats.dim + 1
        if self._dead and (source in self._dead or destination in self._dead):
            # Dead endpoint: every engine answers "no path" immediately.
            return self._choose("path", {
                "mtree": 0.0, "backbone": 0.0, "flood": self._flood_cost(0.0),
            })
        entry = len(self.clustering.path_to_root(source)) - 1
        safe_nodes = 0.0
        boundary_edges = 0
        classified = 0
        for root in self.clustering.roots:
            if self._dead and root in self._dead:
                # The path engine cannot classify this cluster (its
                # representative died); no cost, no safe members.
                continue
            classified += 1
            d = self.metric.distance(danger, self.mtree.routing_feature[root])
            radius = self.mtree.covering_radius[root]
            size = self.stats.sizes[root]
            if d - radius >= gamma:
                safe_nodes += size
            elif d + radius >= gamma:  # boundary: some members may be safe
                safe_nodes += 0.5 * size
                boundary_edges += max(size - 1, 0)
        classify = qv * (entry + classified)
        estimates = {
            "mtree": classify + qv * boundary_edges * DRILL_FRACTION,
            "backbone": classify + qv * boundary_edges,
            "flood": self._flood_cost(2.0 * safe_nodes * self.stats.mean_degree),
        }
        return self._choose("path", estimates)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def range(
        self, q: np.ndarray, radius: float, initiator: Hashable, *, backend: str | None = None
    ) -> PlannedResult:
        """Answer a range query through the chosen (or forced) plan."""
        q = np.asarray(q, dtype=np.float64)
        runners = {
            "mtree": lambda: self._range_engine.query(q, radius, initiator),
            "backbone": lambda: self._range_backbone(q, radius, initiator),
            "flood": lambda: self._tag_range(q, radius),
        }
        params = {"q": q, "radius": float(radius), "initiator": initiator}
        return self._execute(
            "range", params, lambda: self.plan_range(q, radius, initiator), runners, backend
        )

    def knn(
        self, q: np.ndarray, k: int, initiator: Hashable, *, backend: str | None = None
    ) -> PlannedResult:
        """Answer a k-NN query through the chosen (or forced) plan."""
        q = np.asarray(q, dtype=np.float64)
        runners = {
            "mtree": lambda: self._knn_engine.query(q, k, initiator),
            "backbone": lambda: self._knn_scan(q, k, initiator, over_backbone=True),
            "flood": lambda: self._knn_scan(q, k, initiator, over_backbone=False),
        }
        params = {"q": q, "k": int(k), "initiator": initiator}
        return self._execute(
            "knn", params, lambda: self.plan_knn(q, k, initiator), runners, backend
        )

    def path(
        self,
        source: Hashable,
        destination: Hashable,
        danger: np.ndarray,
        gamma: float,
        *,
        backend: str | None = None,
    ) -> PlannedResult:
        """Answer a safe-path query through the chosen (or forced) plan."""
        danger = np.asarray(danger, dtype=np.float64)
        runners = {
            "mtree": lambda: self._path_engine.query(source, destination, danger, gamma),
            "backbone": lambda: self._path_backbone(source, destination, danger, gamma),
            "flood": lambda: self._path_flood(source, destination, danger, gamma),
        }
        params = {
            "source": source,
            "destination": destination,
            "danger": danger,
            "gamma": float(gamma),
        }
        return self._execute(
            "path",
            params,
            lambda: self.plan_path(source, destination, danger, gamma),
            runners,
            backend,
        )

    def cache_stats(self) -> dict[str, int] | None:
        """The attached cache's counters, or None without a cache."""
        return None if self._cache is None else self._cache.stats()

    # ------------------------------------------------------------------
    # backend implementations (backbone / flood variants)
    # ------------------------------------------------------------------
    def _range_backbone(
        self, q: np.ndarray, radius: float, initiator: Hashable
    ) -> RangeQueryResult:
        """Backbone plan: visit every root, δ-compactness only, flood boundary clusters.

        Degraded, it visits every *reachable* root — the fan-out drops at
        dead relays exactly like the engine's, an unrepaired dead origin
        root decays to the engine's local-only answer, and re-elected
        roots prune with their conservative balls — so the answer equals
        the degraded M-tree plan's.
        """
        stats = MessageStats()
        qv = self.stats.dim + 1
        origin = self.clustering.root_of(initiator)
        if self._unreachable_root(origin):
            return self._range_engine._local_only(q, radius, origin, stats, qv)
        entry = len(self.clustering.path_to_root(initiator)) - 1
        self._charge(stats, qv, entry)
        self._charge(stats, 1, entry)
        if self._dead:
            lost = self._charged_sweep(self._range_engine, self._effective(origin), stats, qv, 1)
        else:
            # Unpruned fan-out: the query and its aggregate traverse every
            # backbone edge once (no directional summaries in this plan).
            lost = set()
            for a, b in self.backbone.tree.edges:
                hops = self.backbone.edge_hops(a, b)
                self._charge(stats, qv, hops)
                self._charge(stats, 1, hops)
        matches: set[Hashable] = set()
        pruned = included = descended = 0
        for root in self.clustering.roots:
            if self._unreachable_root(root) or self._effective(root) in lost:
                continue  # the degraded engines cannot consult this cluster
            center, r_root = self._routing_ball(root)
            d = self.metric.distance(q, center)
            members = self._alive_members(root)
            if d > radius + r_root:
                pruned += 1
                continue
            if d <= radius - r_root:
                included += 1
                matches.update(members)
                continue
            descended += 1
            edges = max(len(members) - 1, 0)
            self._charge(stats, qv, edges)  # query floods the cluster tree
            self._charge(stats, 1, edges)  # partial matches aggregate back
            matches.update(
                m for m in members if self.metric.distance(q, self.features[m]) <= radius
            )
        coverage = self._range_engine._coverage_after_losses(lost)
        return RangeQueryResult(
            matches, stats.total_values, pruned, included, descended,
            coverage, stats.total_drops,
        )

    def _tag_range(self, q: np.ndarray, radius: float) -> RangeQueryResult:
        """Flood plan: TAG distribute-and-collect; cost is selectivity-free."""
        out = self._tag.query(q, radius)
        return RangeQueryResult(
            out.matches, out.messages, 0, 0, self.stats.num_clusters
        )

    def _knn_scan(
        self, q: np.ndarray, k: int, initiator: Hashable, *, over_backbone: bool
    ) -> KnnResult:
        """k-NN by exhaustive scan, charged over the backbone or the overlay.

        Both variants confirm every node (k-best merge on the way back
        carries k candidates per edge), so the answer equals brute force;
        only the transport being charged differs.  The degraded backbone
        scan ranks only surviving members of clusters the engine can
        consult (live/re-elected representative, not severed behind a
        dead relay) — the same pool the degraded best-first search draws
        from, so the answers agree.
        """
        stats = MessageStats()
        qv = self.stats.dim + 1
        if over_backbone and self._degraded:
            origin = self.clustering.root_of(initiator)
            if self._unreachable_root(origin):
                return self._knn_engine._local_only(q, k, origin, stats, qv)
            self._charge(stats, qv, len(self.clustering.path_to_root(initiator)) - 1)
            if self._dead:
                lost = self._charged_sweep(
                    self._knn_engine, self._effective(origin), stats, qv, k
                )
            else:
                lost = set()
                for a, b in self.backbone.tree.edges:
                    hops = self.backbone.edge_hops(a, b)
                    self._charge(stats, qv, hops)
                    self._charge(stats, k, hops)
            pool: dict[Hashable, np.ndarray] = {}
            for root in self.clustering.roots:
                if self._unreachable_root(root) or self._effective(root) in lost:
                    continue
                members = self._alive_members(root)
                edges = max(len(members) - 1, 0)
                self._charge(stats, qv, edges)
                self._charge(stats, k, edges)
                pool.update((m, self.features[m]) for m in members)
            neighbors = brute_force_knn(pool, self.metric, q, k) if pool else []
            coverage = self._knn_engine._coverage_after_losses(lost)
            return KnnResult(
                neighbors, stats.total_values, len(pool), coverage, stats.total_drops
            )
        if over_backbone:
            for a, b in self.backbone.tree.edges:
                hops = self.backbone.edge_hops(a, b)
                self._charge(stats, qv, hops)
                self._charge(stats, k, hops)
            for root in self.clustering.roots:
                edges = max(self.stats.sizes[root] - 1, 0)
                self._charge(stats, qv, edges)
                self._charge(stats, k, edges)
        else:
            edges = self.stats.overlay_edges
            self._charge(stats, qv, edges)
            self._charge(stats, k, edges)
        neighbors = brute_force_knn(self.features, self.metric, q, k)
        return KnnResult(neighbors, stats.total_values, self.stats.n)

    def _path_backbone(
        self, source: Hashable, destination: Hashable, danger: np.ndarray, gamma: float
    ) -> PathQueryResult:
        """Backbone plan: root-ball classification, cluster floods, no drill.

        Degraded, it mirrors the path engine's semantics: dead endpoints
        answer "no path" immediately, clusters whose representative died
        are unclassifiable (their survivors stay out of the safe set and
        count as uncovered), and dead nodes never enter the safe set.
        """
        stats = MessageStats()
        qv = self.stats.dim + 1
        if self._dead and (source in self._dead or destination in self._dead):
            self._path_engine._drop(stats, DROP_DEAD_ENDPOINT)
            return PathQueryResult(None, 0, 0, 0, 0.0, stats.total_drops)
        entry = len(self.clustering.path_to_root(source)) - 1
        self._charge(stats, qv, entry)
        safe: set[Hashable] = set()
        drilled = 0
        uncovered = 0
        for root in self.clustering.roots:
            members = self._alive_members(root)
            if self._dead and root in self._dead:
                self._path_engine._drop(stats, DROP_DEAD_ROOT)
                uncovered += len(members)
                continue
            self._charge(stats, qv, 1)  # backbone fan-out, one charge per root
            d = self.metric.distance(danger, self.mtree.routing_feature[root])
            radius = self.mtree.covering_radius[root]
            if d - radius >= gamma:
                safe.update(members)
                continue
            if d + radius < gamma:
                continue
            drilled += 1
            edges = max(len(members) - 1, 0)
            self._charge(stats, qv, edges)  # classify members over the tree
            safe.update(
                m
                for m in members
                if self.metric.distance(self.features[m], danger) >= gamma
            )
        coverage = 1.0
        if self._dead:
            alive_total = sum(
                1 for n in self.clustering.assignment if n not in self._dead
            )
            coverage = 1.0 - uncovered / alive_total if alive_total else 0.0
        return self._route_safe(
            source, destination, safe, drilled, stats, coverage=coverage
        )

    def _path_flood(
        self, source: Hashable, destination: Hashable, danger: np.ndarray, gamma: float
    ) -> PathQueryResult:
        """Flood plan: flood the whole safe region, then trace the route.

        Unlike :func:`~repro.queries.path_query.bfs_flood_path` this
        floods the source's entire safe component (no early exit), which
        is what lets the returned route be canonical — identical to the
        clustered plans' — so plan choice never changes the answer.
        """
        stats = MessageStats()
        if self.metric.distance(self.features[source], danger) < gamma:
            return PathQueryResult(None, 0, 0, 0)
        safe = {
            node
            for node, feature in self.features.items()
            if self.metric.distance(feature, danger) >= gamma
        }
        component = nx.node_connected_component(self.graph.subgraph(safe), source)
        for node in component:
            degree = self.graph.degree(node)
            if degree:
                self._charge(stats, 2, degree)  # one rebroadcast per safe node
        return self._route_safe(source, destination, safe, 0, stats, flooded=len(component))

    def _route_safe(
        self,
        source: Hashable,
        destination: Hashable,
        safe: set[Hashable],
        drilled: int,
        stats: MessageStats,
        *,
        flooded: int | None = None,
        coverage: float = 1.0,
    ) -> PathQueryResult:
        """Shared tail of every path backend: canonical route through *safe*.

        Mirrors :meth:`~repro.queries.path_query.PathQueryEngine.query`'s
        region search exactly (same subgraph views, same BFS), so all
        backends return byte-identical routes for the same safe set.
        """
        safe_count = len(safe) if flooded is None else flooded
        if source not in safe or destination not in safe:
            return PathQueryResult(
                None, stats.total_values, safe_count, drilled, coverage,
                stats.total_drops,
            )
        safe_sub = self.graph.subgraph(safe)
        component = nx.node_connected_component(safe_sub, source)
        if destination not in component:
            return PathQueryResult(
                None, stats.total_values, safe_count, drilled, coverage,
                stats.total_drops,
            )
        if flooded is None:
            # Region-level search over safe cluster roots, as the engine
            # charges it; the flood plan already paid per-node above.
            region_roots = {self.clustering.root_of(node) for node in component}
            for _ in region_roots:
                self._charge(stats, 2, 1)
        path = nx.shortest_path(safe_sub.subgraph(component), source, destination)
        self._charge(stats, 1, len(path) - 1)
        return PathQueryResult(
            list(path), stats.total_values, safe_count, drilled, coverage,
            stats.total_drops,
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _execute(
        self,
        op: str,
        params: Mapping[str, Any],
        plan_fn: Callable[[], QueryPlan],
        runners: Mapping[str, Callable[[], Any]],
        backend: str | None,
    ) -> PlannedResult:
        if backend is not None and backend not in PLAN_BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; choose from {PLAN_BACKENDS}")
        if backend == "flood" and self._degraded:
            raise ValueError(
                "flood backend unavailable under a degraded topology: its "
                "overlay tree routes through dead nodes"
            )
        key = None
        if backend is None and self._cache is not None:
            if self._generation is not None:
                self._cache.observe_generation(self._generation())
            try:
                key = self._cache.key(op, params, context=self._cache_context())
            except TypeError:
                key = None  # un-canonicalizable parameter: skip the cache
            if key is not None:
                hit, value = self._cache.get(key)
                if hit:
                    plan, result, estimated = value
                    self._count(f"queries.cache_served.{op}")
                    self._emit(
                        "queries.cache_hit", op=op, backend=plan.backend,
                        generation=self._cache.generation,
                    )
                    return PlannedResult(plan, result, 0, estimated, cached=True)
                self._emit("queries.cache_miss", op=op, generation=self._cache.generation)
        plan = plan_fn()
        if backend is not None:
            plan = QueryPlan(op, backend, plan.estimates, "forced")
        self._count(f"queries.plans.{plan.backend}")
        self._count(f"queries.executed.{op}")
        self._emit(
            "queries.plan", op=op, backend=plan.backend, reason=plan.reason,
            estimates={k: round(v, 1) for k, v in plan.estimates.items()},
        )
        result = runners[plan.backend]()
        estimated = plan.estimates[plan.backend]
        self._emit(
            "queries.execute", op=op, backend=plan.backend,
            estimated=round(estimated, 1), actual=result.messages,
        )
        if key is not None:
            self._cache.put(key, (plan, result, estimated))
        return PlannedResult(plan, result, result.messages, estimated)

    def _choose(self, op: str, estimates: dict[str, float]) -> QueryPlan:
        backend = min(
            PLAN_BACKENDS, key=lambda name: (estimates[name], PLAN_BACKENDS.index(name))
        )
        return QueryPlan(op, backend, estimates, "min-cost")

    def _classify_range(self, q: np.ndarray, radius: float) -> dict[Hashable, str]:
        classes: dict[Hashable, str] = {}
        for root in self.clustering.roots:
            if self._unreachable_root(root):
                # Dead unreplaced representative: the degraded engines
                # cannot consult this cluster at all.
                classes[root] = "lost"
                continue
            center, r_root = self._routing_ball(root)
            d = self.metric.distance(q, center)
            if d > radius + r_root:
                classes[root] = "pruned"
            elif d <= radius - r_root:
                classes[root] = "included"
            else:
                classes[root] = "boundary"
        return classes

    def _orig_root(self, root: Hashable) -> Hashable:
        """Map a re-elected replacement back to the original root id.

        ``fanout_preview`` walks the (possibly rerouted) backbone, so
        degraded it surfaces replacement node ids; sizes and classes are
        keyed by the original roots.  Fault-free this is the identity.
        """
        return self._replaced_by.get(root, root)

    def _unreachable_root(self, root: Hashable) -> bool:
        """True when *root* is dead with no re-elected replacement."""
        return bool(self._dead) and root in self._dead and root not in self._replacements

    def _effective(self, root: Hashable) -> Hashable:
        """The node actually representing *root* on the backbone."""
        return self._replacements.get(root, root)

    def _routing_ball(self, root: Hashable) -> tuple[np.ndarray, float]:
        """The (possibly conservative replacement) ball the engines prune with."""
        return self._range_engine._routing_ball(self._effective(root))

    def _alive_members(self, root: Hashable) -> list[Hashable]:
        members = self.clustering.members(root)
        if self._dead:
            return [m for m in members if m not in self._dead]
        return list(members)

    def _flood_cost(self, cost: float) -> float:
        # Flooding routes through every node; with dead/replaced nodes
        # the degraded engines refuse it, so an infinite estimate keeps
        # it out of the argmin (and _execute rejects forcing it).
        return math.inf if self._degraded else float(cost)

    def _backbone_reach(self, start: Hashable) -> "tuple[int, set[Hashable] | None]":
        """(traversable backbone hops, reachable tree nodes | None = all).

        Fault-free the whole tree is traversable, so the precomputed
        total is returned untouched (byte-identical cost model).  With
        dead relays the walk from *start* stops at them, exactly as the
        engines' fan-out does; severed far sides contribute no hops.
        """
        if not self._dead:
            return self.stats.total_backbone_hops, None
        seen = {start}
        stack = [start]
        hops = 0
        while stack:
            current = stack.pop()
            for neighbor in self.backbone.tree.neighbors(current):
                if neighbor in seen:
                    continue
                seen.add(neighbor)
                if neighbor in self._dead:
                    continue
                hops += self.backbone.edge_hops(current, neighbor)
                stack.append(neighbor)
        return hops, seen - self._dead

    def _charged_sweep(
        self,
        engine: Any,
        start: Hashable,
        stats: MessageStats,
        qv: int,
        up: int,
    ) -> set[Hashable]:
        """Walk the backbone from *start*, charging traversed edges.

        Charges *qv* values down and *up* values back per traversable
        edge, records a dead-relay drop via *engine* for every severed
        edge, and returns the lost tree-node set (the far sides the
        query can never reach) — the same bookkeeping the degraded
        engines perform during their fan-out.
        """
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
                    engine._drop(stats, DROP_DEAD_RELAY)
                    lost.update(self.backbone.side_roots(current, neighbor))
                    continue
                hops = self.backbone.edge_hops(current, neighbor)
                self._charge(stats, qv, hops)
                self._charge(stats, up, hops)
                stack.append(neighbor)
        return lost

    def _cache_context(self) -> "dict[str, Any] | None":
        if not self._degraded:
            return None
        return {
            "dead": sorted(self._dead, key=repr),
            "root_replacements": sorted(self._replacements.items(), key=repr),
        }

    def _route_hops_from(self, start: Hashable) -> dict[Hashable, int]:
        cached = self._route_cache.get(start)
        if cached is not None:
            return cached
        hops: dict[Hashable, int] = {start: 0}
        stack = [start]
        while stack:
            current = stack.pop()
            for neighbor in self.backbone.tree.neighbors(current):
                if neighbor in hops or (self._dead and neighbor in self._dead):
                    continue
                hops[neighbor] = hops[current] + self.backbone.edge_hops(current, neighbor)
                stack.append(neighbor)
        self._route_cache[start] = hops
        return hops

    @staticmethod
    def _charge(stats: MessageStats, values: int, hops: int) -> None:
        if hops > 0:
            stats.charge("query", CATEGORY_QUERY, values, hops)

    def _count(self, name: str) -> None:
        if self._metrics is not None:
            self._metrics.counter(name).inc()

    def _emit(self, type_: str, **data: Any) -> None:
        if self._emit_fn is not None:
            self._emit_fn(type_, **data)

    def _tracer_emit(self, tracer: Tracer) -> Callable[..., None]:
        def emit(type_: str, **data: Any) -> None:
            self._seq += 1
            tracer.emit(float(self._seq), type_, None, **data)

        return emit
