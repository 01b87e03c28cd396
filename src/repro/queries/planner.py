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
``root_replacements`` and the cost model and the backbone plans read the
same :class:`~repro.queries.view.TopologyView` the engines do:
re-elected roots prune with the conservative replacement balls, backbone
hop terms count only edges a query can actually traverse (the fan-out
stops at dead relays, and their severed far sides contribute no descent
cost), per-cluster sizes count surviving members, and clusters whose
representative died unreplaced are costed as unreachable.  The flood
backend is unavailable degraded — its overlay tree routes through dead
nodes — so it is never chosen and cannot be forced.  Cache keys embed
the degraded context
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
from repro.queries.path_query import PathQueryEngine, PathQueryResult, safe_route
from repro.queries.range_query import RangeQueryEngine, RangeQueryResult
from repro.queries.result_cache import QueryResultCache
from repro.queries.tag import TagEngine
from repro.queries.view import DROP_DEAD_ROOT
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
        The degraded-topology context (crashed node set; dead root ->
        re-elected representative), read through
        :class:`~repro.queries.view.TopologyView`.  Both default empty:
        the fault-free cost model and execution paths.
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
        self.metric = metric
        self.mtree = mtree
        self.backbone = backbone
        self._metrics = metrics
        self._cache = cache
        self._generation = generation
        self._seq = 0
        if emit is not None:
            self._emit_fn = emit
        elif tracer is not None:
            self._emit_fn = self._tracer_emit(tracer)
        else:
            self._emit_fn = None

        degraded = {"dead": dead, "root_replacements": root_replacements, "metrics": metrics}
        self._range_engine = RangeQueryEngine(
            clustering, features, metric, mtree, backbone, **degraded
        )
        self._knn_engine = KnnQueryEngine(clustering, features, metric, mtree, backbone, **degraded)
        self._path_engine = PathQueryEngine(
            graph, clustering, features, metric, mtree, dead=dead, metrics=metrics
        )
        # The planner shares the k-NN engine's view, so plan_knn and the
        # engine's hop charging read one cached hop table per start.
        self.view = self._knn_engine.view
        self.features = self.view.features
        # One overlay for the flood backend; TAG's per-query cost does not
        # depend on where the overlay is rooted (it is always n-1 edges),
        # so a fixed deterministic base station keeps plans comparable.
        base = min(graph.nodes, key=repr)
        self._tag = TagEngine(graph, self.features, metric, base_station=base)

        # Per-cluster sizes over *surviving* members: the degraded cost
        # model's discount, and exactly the fault-free sizes when nothing
        # is dead.
        n = graph.number_of_nodes()
        self.stats = _Stats(
            n=n,
            dim=self.view.dim,
            num_clusters=clustering.num_clusters,
            overlay_edges=self._tag.tree_edges,
            mean_degree=(2.0 * graph.number_of_edges() / n) if n else 0.0,
            sizes={root: len(self.view.alive_members(root)) for root in clustering.roots},
        )

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------
    def plan_range(self, q: np.ndarray, radius: float, initiator: Hashable) -> QueryPlan:
        """Estimate every backend for a range query and pick the cheapest."""
        require_non_negative(radius, "radius")
        q = np.asarray(q, dtype=np.float64)
        per_edge = self.stats.dim + 2  # (dim+1) down + 1 aggregate up
        view = self.view
        origin = self.clustering.root_of(initiator)
        if view.unreachable(origin):
            # Unrepaired dead representative: every clustered backend
            # decays to flooding the initiator's surviving cluster.
            local = per_edge * max(self.stats.sizes.get(origin, 0) - 1, 0)
            return self._choose("range", {
                "mtree": float(local),
                "backbone": float(local),
                "flood": self._flood_cost(self._tag.per_query_cost()),
            })
        classes = self._classify_range(q, radius)
        reach = view.reach(view.effective(origin))
        boundary_all = sum(
            max(self.stats.sizes[r] - 1, 0)
            for r, c in classes.items()
            if c == "boundary" and view.effective(r) in reach.hops
        )
        # The preview walks the (possibly rerouted) backbone, so degraded
        # it surfaces replacement ids; sizes and classes are keyed by the
        # original roots.
        entry_hops, visited, fanout_hops = self._range_engine.fanout_preview(q, radius, initiator)
        boundary_visited = sum(
            max(self.stats.sizes.get(view.original(r), 0) - 1, 0)
            for r in visited
            if classes.get(view.original(r)) == "boundary"
        )
        estimates = {
            "mtree": per_edge * (entry_hops + fanout_hops)
            + per_edge * boundary_visited * DESCENT_FRACTION,
            "backbone": per_edge * (entry_hops + reach.total_hops) + per_edge * boundary_all,
            "flood": self._flood_cost(self._tag.per_query_cost()),
        }
        return self._choose("range", estimates)

    def plan_knn(self, q: np.ndarray, k: int, initiator: Hashable) -> QueryPlan:
        """Estimate every backend for a k-NN query and pick the cheapest."""
        require_int_at_least(k, 1, "k")
        q = np.asarray(q, dtype=np.float64)
        dim = self.stats.dim
        view = self.view
        origin = self.clustering.root_of(initiator)
        if view.unreachable(origin):
            local = (dim + 2) * max(self.stats.sizes.get(origin, 0) - 1, 0)
            return self._choose("knn", {
                "mtree": float(local),
                "backbone": float(local),
                "flood": self._flood_cost((dim + 1 + k) * self.stats.overlay_edges),
            })
        entry = len(self.clustering.path_to_root(initiator)) - 1
        reach = view.reach(view.effective(origin))
        # Only clusters the degraded engines can consult: a live (or
        # re-elected) representative that is not severed behind a dead
        # backbone relay.
        candidates = [r for r in self.clustering.roots if view.effective(r) in reach.hops]
        # Optimistic k-th-distance guess from the closest root ball: every
        # root whose optimistic bound beats it is modeled as visited.
        balls = {r: view.routing_ball(view.effective(r)) for r in candidates}
        d_by_root = {r: self.metric.distance(q, balls[r][0]) for r in candidates}
        best = min(d_by_root, key=lambda r: (d_by_root[r], repr(r)))
        est_kth = d_by_root[best] + balls[best][1]
        visited = [
            r
            for r in candidates
            if max(0.0, d_by_root[r] - balls[r][1]) <= est_kth
        ]
        per_edge = dim + 2
        mtree_cost = per_edge * entry + sum(
            per_edge * reach.hops[view.effective(r)]
            + per_edge * min(max(self.stats.sizes[r] - 1, 0), KNN_VISIT_PER_CLUSTER * k)
            for r in visited
        )
        # Cluster-tree edges the backbone scan floods (surviving members
        # of consultable clusters only).
        scan_edges = sum(max(self.stats.sizes[r] - 1, 0) for r in candidates)
        estimates = {
            "mtree": float(mtree_cost),
            "backbone": (dim + 1 + k) * (entry + reach.total_hops + scan_edges),
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
        dead = self.view.dead
        if source in dead or destination in dead:
            # Dead endpoint: every engine answers "no path" immediately.
            return self._choose("path", {
                "mtree": 0.0, "backbone": 0.0, "flood": self._flood_cost(0.0),
            })
        entry = len(self.clustering.path_to_root(source)) - 1
        safe_nodes = 0.0
        boundary_edges = 0
        classified = 0
        for root in self.clustering.roots:
            if root in dead:
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
            "backbone": lambda: self._knn_backbone(q, k, initiator),
            "flood": lambda: self._knn_flood(q, k),
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
        view = self.view
        origin = self.clustering.root_of(initiator)
        if view.unreachable(origin):
            return self._range_engine.query(q, radius, initiator)
        view.round_trip(stats, len(self.clustering.path_to_root(initiator)) - 1)
        # Unpruned fan-out: the query and its aggregate traverse every
        # reachable backbone edge once (no directional summaries here).
        reach = view.reach(view.effective(origin))
        view.charge_walk(stats, reach, up=1)
        matches: set[Hashable] = set()
        pruned = included = descended = 0
        for root in self.clustering.roots:
            if view.effective(root) not in reach.hops:
                continue  # the degraded engines cannot consult this cluster
            center, r_root = view.routing_ball(view.effective(root))
            d = self.metric.distance(q, center)
            members = view.alive_members(root)
            if d > radius + r_root:
                pruned += 1
                continue
            if d <= radius - r_root:
                included += 1
                matches.update(members)
                continue
            descended += 1
            # The query floods the cluster tree; partial matches aggregate back.
            view.round_trip(stats, len(members) - 1)
            matches.update(
                m for m in members if self.metric.distance(q, self.features[m]) <= radius
            )
        return RangeQueryResult(
            matches, stats.total_values, pruned, included, descended,
            view.coverage(reach.lost), stats.total_drops,
        )

    def _tag_range(self, q: np.ndarray, radius: float) -> RangeQueryResult:
        """Flood plan: TAG distribute-and-collect; cost is selectivity-free."""
        out = self._tag.query(q, radius)
        return RangeQueryResult(
            out.matches, out.messages, 0, 0, self.stats.num_clusters
        )

    def _knn_backbone(self, q: np.ndarray, k: int, initiator: Hashable) -> KnnResult:
        """Backbone plan: exhaustive scan of every consultable cluster.

        The query travels ``dim+1`` values down and the k-best merge ``k``
        values back over every charged edge — the cluster-tree entry path,
        the traversed backbone edges and each cluster tree — so the answer
        equals brute force over the pool.  The pool holds the surviving
        members of the clusters the engine can consult (live/re-elected
        representative, not severed behind a dead relay) — the same pool
        the degraded best-first search draws from, so the answers agree.
        """
        stats = MessageStats()
        view = self.view
        origin = self.clustering.root_of(initiator)
        if view.unreachable(origin):
            return self._knn_engine.query(q, k, initiator)
        view.round_trip(stats, len(self.clustering.path_to_root(initiator)) - 1, up=k)
        reach = view.reach(view.effective(origin))
        view.charge_walk(stats, reach, up=k)
        pool: dict[Hashable, np.ndarray] = {}
        for root in self.clustering.roots:
            if view.effective(root) not in reach.hops:
                continue
            members = view.alive_members(root)
            view.round_trip(stats, len(members) - 1, up=k)
            pool.update((m, self.features[m]) for m in members)
        neighbors = brute_force_knn(pool, self.metric, q, k) if pool else []
        return KnnResult(
            neighbors, stats.total_values, len(pool), view.coverage(reach.lost),
            stats.total_drops,
        )

    def _knn_flood(self, q: np.ndarray, k: int) -> KnnResult:
        """Flood plan: the k-NN scan charged over the network-wide overlay."""
        stats = MessageStats()
        self.view.round_trip(stats, self.stats.overlay_edges, up=k)
        neighbors = brute_force_knn(self.features, self.metric, q, k)
        return KnnResult(neighbors, stats.total_values, self.stats.n)

    def _path_backbone(
        self, source: Hashable, destination: Hashable, danger: np.ndarray, gamma: float
    ) -> PathQueryResult:
        """Backbone plan: root-ball classification, cluster floods, no drill.

        Degraded, it mirrors the path engine's semantics: a dead endpoint
        gets the engine's immediate "no path", clusters whose
        representative died are unclassifiable (their survivors stay out
        of the safe set and count as uncovered), and dead nodes never
        enter the safe set.
        """
        stats = MessageStats()
        view = self.view
        qv = view.query_values
        if source in view.dead or destination in view.dead:
            return self._path_engine.query(source, destination, danger, gamma)
        view.charge(stats, qv, len(self.clustering.path_to_root(source)) - 1)
        safe: set[Hashable] = set()
        drilled = 0
        lost: set[Hashable] = set()
        for root in self.clustering.roots:
            if root in view.dead:
                view.drop(stats, DROP_DEAD_ROOT)
                lost.add(root)
                continue
            view.charge(stats, qv, 1)  # backbone fan-out, one charge per root
            members = view.alive_members(root)
            d = self.metric.distance(danger, self.mtree.routing_feature[root])
            radius = self.mtree.covering_radius[root]
            if d - radius >= gamma:
                safe.update(members)
                continue
            if d + radius < gamma:
                continue
            drilled += 1
            view.charge(stats, qv, len(members) - 1)  # classify members over the tree
            safe.update(
                m
                for m in members
                if self.metric.distance(self.features[m], danger) >= gamma
            )
        return safe_route(
            self.graph, self.clustering, source, destination, safe, drilled, stats,
            coverage=view.coverage(lost),
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
            # One rebroadcast per safe node, heard by each neighbour.
            self.view.charge(stats, 2, self.graph.degree(node))
        return safe_route(
            self.graph, self.clustering, source, destination, safe, 0, stats,
            flooded=len(component),
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
        if backend == "flood" and self.view.degraded:
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
            if self.view.unreachable(root):
                # Dead unreplaced representative: the degraded engines
                # cannot consult this cluster at all.
                classes[root] = "lost"
                continue
            center, r_root = self.view.routing_ball(self.view.effective(root))
            d = self.metric.distance(q, center)
            if d > radius + r_root:
                classes[root] = "pruned"
            elif d <= radius - r_root:
                classes[root] = "included"
            else:
                classes[root] = "boundary"
        return classes

    def _flood_cost(self, cost: float) -> float:
        # Flooding routes through every node; with dead/replaced nodes
        # the degraded engines refuse it, so an infinite estimate keeps
        # it out of the argmin (and _execute rejects forcing it).
        return math.inf if self.view.degraded else float(cost)

    def _cache_context(self) -> "dict[str, Any] | None":
        if not self.view.degraded:
            return None
        return {
            "dead": sorted(self.view.dead, key=repr),
            "root_replacements": sorted(self.view.replacements.items(), key=repr),
        }

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
