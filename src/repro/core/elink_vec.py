"""Vectorised ELink protocol rounds (DESIGN.md §8.2).

The handler engine in :mod:`repro.core.elink` runs one Python method per
delivered message.  On the jitter-free, loss-free, untraced fast path that
is pure overhead: every ``expand`` copy in a broadcast cohort is charged
the same way, filtered by the same δ/2 distance test, and — for the vast
majority of copies — discarded.  This module processes an entire
same-timestamp cohort as numpy operations over per-round arrays and runs
per-node Python only for the *eligible* residue (joins, switches, and the
explicit-mode ack/phase bookkeeping).

Correctness strategy — exact event-order mirroring, not approximation.
Every logical kernel push the handler engine would make is mirrored
one-for-one on the same kernel (via ``post_at``) at the same float
timestamp:

- ``expand`` broadcasts become *batch* entries: one kernel event carrying
  the cohort's broadcaster rows.  A new broadcast merges into an existing
  batch only while that batch is still the **tail entry at its
  timestamp** (nothing else was pushed to that time since), which keeps
  the global ``(time, seq)`` sequence identical to the serial engines —
  the same sealing argument the array engine's delivery cohorts use.
- ``ack1``/``ack2``/``phase1``/``phase2``/``start`` deliveries and
  episode leaf timers stay individual kernel entries, one per serial
  push, so no commutativity argument is ever needed for them.

Within a batch, eligible rows are processed in row order — exactly the
order the per-message engines would deliver them — reading and mutating
the same protocol state (arrays instead of ``ELinkNode`` attributes).
Distances are computed vectorised; for 1-d features ``EuclideanMetric``
is an elementwise ``abs(a - b)``, bit-identical to the scalar path.

Legality gate (:func:`try_run_vectorized` returns ``None`` and the caller
falls back to the handler engine): implicit or explicit signalling only,
no failure detection, no fault injector, no tracer (a tracer needs
per-message events — traced "vectorized" runs *are* handler runs), no
jitter/loss/energy model, an unmutated network with no dead nodes, plain
Euclidean 1-d features, and an idle kernel.  ``ELinkConfig.vectorized``
selects the path explicitly; when left ``None`` the batch path engages on
the array engine (``REPRO_ENGINE=array``) and stays off elsewhere.

Certification: the engine-equivalence suite diffs clusterings, parents,
``MessageStats`` and timing against the handler engines; traced runs take
the handler path by construction, so trace byte-identity is the identity
of that fallback.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable, Mapping

import networkx as nx
import numpy as np

from repro.core.delta import clustering_from_assignment
from repro.features.metrics import EuclideanMetric, Metric
from repro.geometry.quadtree import QuadTreeDecomposition
from repro.geometry.topology import Topology
from repro.sim.engine import ArrayNetwork
from repro.sim.messages import CATEGORY_CLUSTERING, CATEGORY_SYNC
from repro.sim.network import Network
from repro.sim.stats import MessageStats

if TYPE_CHECKING:
    from repro.core.elink import ELinkConfig, ELinkResult

__all__ = ["try_run_vectorized"]

#: Tail marker for scalar (non-batch) pushes: blocks expand-row merging at
#: that timestamp without carrying any state.
_OPAQUE = object()

#: Visited-mask entries (bytes) one hop-table chunk may hold: the BFS
#: source chunk is this divided by the node count.
_HOP_SCRATCH = 1 << 22
#: Hop-table entry for a quad edge whose endpoints are disconnected.
_NO_PATH = -1


class _ExpandBatch:
    """One kernel entry's worth of pending ``expand`` broadcasts.

    Columns are parallel per-*broadcaster* rows; the fire expands them to
    per-delivery arrays through the CSR adjacency.  ``eps`` carries the
    broadcaster's episode row (explicit mode; ``-1`` implicit) so acks
    target episode rows directly instead of ``(node, seq)`` lookups.
    """

    __slots__ = ("srcs", "vals", "roots", "ms", "eps")

    def __init__(self):
        self.srcs: list[int] = []
        self.vals: list[float] = []
        self.roots: list[int] = []
        self.ms: list[int] = []
        self.eps: list[int] = []


def _eligible(config: "ELinkConfig", network: Network, metric: Metric) -> bool:
    """Static legality of the batch path (feature shapes checked later)."""
    if config.vectorized is False:
        return False
    if config.vectorized is None and not isinstance(network, ArrayNetwork):
        return False
    return (
        config.signalling in ("implicit", "explicit")
        and not config.failure_detection
        and type(network) in (Network, ArrayNetwork)
        and network._fast
        and network.energy is None
        and network._tracer is None
        and not network._mutated
        and not network.dead_nodes
        and network.kernel.pending == 0
        and type(metric) is EuclideanMetric
    )


def _quad_edge_hops(indptr: np.ndarray, indices: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Shortest-path hop count from every node ``i`` to ``parent[i]``.

    *indptr*/*indices* are the symmetric CSR adjacency, so d(p, c) =
    d(c, p) and one breadth-first search per distinct parent covers all
    its children.  The searches run level-synchronously over source
    chunks whose visited mask stays at :data:`_HOP_SCRATCH` bytes, and a
    source leaves the frontier once all its children are reached: the
    work is the ball out to each parent's farthest child, not the graph.
    The quadtree root (its own parent) gets 0; a child never reached keeps
    :data:`_NO_PATH`.
    """
    n = parent.size
    hops = np.full(n, _NO_PATH, dtype=np.int64)
    hops[parent == np.arange(n)] = 0
    children = np.flatnonzero(hops == _NO_PATH)
    sources, row_of = np.unique(parent[children], return_inverse=True)
    target_row = np.full(n, -1, dtype=np.int64)
    target_row[children] = row_of
    fanout = np.bincount(row_of, minlength=sources.size)
    degree = np.diff(indptr)
    chunk = max(1, _HOP_SCRATCH // n)
    for lo in range(0, sources.size, chunk):
        k = min(chunk, sources.size - lo)
        pending = fanout[lo : lo + k].copy()  # children not yet reached
        seen = np.zeros(k * n, dtype=bool)
        rows = np.arange(k, dtype=np.int64)
        nodes = sources[lo : lo + k]
        seen[rows * n + nodes] = True
        depth = 0
        while rows.size:
            depth += 1
            # CSR multi-range gather of every frontier node's neighbours.
            counts = degree[nodes]
            cum = np.cumsum(counts)
            offsets = np.repeat(indptr[nodes] - (cum - counts), counts)
            keys = np.repeat(rows, counts) * n + indices[np.arange(int(cum[-1])) + offsets]
            keys = np.unique(keys[~seen[keys]])
            seen[keys] = True
            rows, nodes = np.divmod(keys, n)
            hit = target_row[nodes] == rows + lo
            hops[nodes[hit]] = depth
            pending -= np.bincount(rows[hit], minlength=k)
            live = pending[rows] > 0
            rows, nodes = rows[live], nodes[live]
    return hops


def try_run_vectorized(
    topology: Topology,
    features: Mapping[Hashable, np.ndarray],
    metric: Metric,
    config: "ELinkConfig",
    *,
    quadtree: QuadTreeDecomposition,
    network: Network,
    start_stats: MessageStats,
) -> "ELinkResult | None":
    """Run the batch engine if the scenario is eligible, else ``None``.

    Called by :func:`repro.core.elink.run_elink` after network/tracer/
    verifier setup; a ``None`` return means the caller proceeds down the
    per-message handler path with nothing consumed or mutated.
    """
    if not _eligible(config, network, metric):
        return None
    n = topology.num_nodes
    if n == 0:
        return None
    run = _VectorRun(topology, features, config, quadtree, network)
    if not run.load_features():
        return None  # non-1-d features: the scalar metric path owns those
    return run.run(metric, start_stats)


class _VectorRun:
    """State and event processors for one vectorised ELink run."""

    def __init__(
        self,
        topology: Topology,
        features: Mapping[Hashable, np.ndarray],
        config: "ELinkConfig",
        quadtree: QuadTreeDecomposition,
        network: Network,
    ):
        self.topology = topology
        self.features = features
        self.config = config
        self.quadtree = quadtree
        self.network = network
        self.kernel = network.kernel
        self.stats = network.stats
        self.hd = network.hop_delay
        self.explicit = config.signalling == "explicit"

        graph = topology.graph
        nodes = getattr(network, "_node_list", None)
        if nodes is None:
            nodes = list(graph.nodes)
            index = {v: i for i, v in enumerate(nodes)}
            indptr = np.zeros(len(nodes) + 1, dtype=np.int64)
            indices = np.empty(2 * graph.number_of_edges(), dtype=np.int64)
            pos = 0
            for i, (_, nbrs) in enumerate(graph.adj.items()):
                for w in nbrs:
                    indices[pos] = index[w]
                    pos += 1
                indptr[i + 1] = pos
        else:
            index = network._node_index
            indptr = network._indptr
            indices = network._indices
        self.nodes = nodes
        self.index = index
        self.indptr = indptr
        self.indices = indices
        self.n = len(nodes)

        lvl_of = quadtree.level_of
        self.level = [lvl_of[v] for v in nodes]
        self.max_level = quadtree.depth

        # Fig 16 state, struct-of-arrays (Python lists: the residue loop is
        # scalar and list indexing beats numpy scalar boxing there).
        self.clustered = bytearray(self.n)
        self.is_root = bytearray(self.n)
        self.root_idx = [-1] * self.n
        self.root_val = [0.0] * self.n
        self.m_level = [-1] * self.n
        self.parent_idx = [-1] * self.n
        self.switches = [0] * self.n
        self.clustered_at: list[float | None] = [None] * self.n

        # Calendar: timestamp -> tail entry (an _ExpandBatch accepts row
        # appends only while it is still the tail at its own timestamp).
        self._tails: dict[float, object] = {}

        if self.explicit:
            # Episode table (struct-of-arrays rows; ``parent_ep`` is a row
            # index in this table, matching the serial payload chain).
            self.ep_children: list[int] = []
            self.ep_timeout = bytearray()
            self.ep_completed = bytearray()
            self.ep_parent: list[int] = []
            self.ep_parent_ep: list[int] = []
            self.ep_owner: list[int] = []
            self.phase1_sent = bytearray(self.n)
            self.phase1_received: dict[tuple[int, int], int] = {}
            self.protocol_done: list[float] = []
            self.quad_parent_idx = [index[quadtree.quad_parent[v]] for v in nodes]
            # Every routed message runs along a quad edge, and under the
            # legality gate only its hop count is observable: one table
            # replaces the per-message BFS (DESIGN.md §8.2).
            self.quad_hops = _quad_edge_hops(
                indptr, indices, np.asarray(self.quad_parent_idx, dtype=np.int64)
            ).tolist()
            self.quad_children_idx = [
                [index[c] for c in quadtree.quad_children.get(v, [])] for v in nodes
            ]
            # Subtree max levels, deepest level first (same recurrence and
            # iteration order as the handler runner).
            subtree_max: dict[Hashable, int] = {}
            order = sorted(lvl_of, key=lambda v: -lvl_of[v])
            for node in order:
                best = lvl_of[node]
                for child in quadtree.quad_children.get(node, []):
                    best = max(best, subtree_max[child])
                subtree_max[node] = best
            self.subtree_max = [subtree_max[v] for v in nodes]
            self.root_i = index[quadtree.root]

    def load_features(self) -> bool:
        """Build the feature column; False when any feature is not 1-d."""
        feats = np.empty(self.n, dtype=np.float64)
        arrays = []
        features = self.features
        for i, v in enumerate(self.nodes):
            a = np.asarray(features[v], dtype=np.float64)
            if a.shape != (1,):
                return False
            arrays.append(a)
            feats[i] = a[0]
        self.feats = feats
        self.feats_list = feats.tolist()
        self.feature_arrays = arrays
        return True

    # ------------------------------------------------------------------
    # calendar pushes (every serial kernel push mirrored 1:1)
    # ------------------------------------------------------------------
    def _push_expand(self, time: float, src: int, val: float, root: int, m: int, ep: int) -> None:
        tail = self._tails.get(time)
        if type(tail) is not _ExpandBatch:
            tail = _ExpandBatch()
            self.kernel.post_at(time, self._fire_expand, time, tail)
            self._tails[time] = tail
        tail.srcs.append(src)
        tail.vals.append(val)
        tail.roots.append(root)
        tail.ms.append(m)
        tail.eps.append(ep)

    def _push_scalar(self, time: float, fire, *args) -> None:
        self.kernel.post_at(time, fire, *args)
        self._tails[time] = _OPAQUE

    # ------------------------------------------------------------------
    # Fig 16: election / join (shared by both signalling modes)
    # ------------------------------------------------------------------
    def _elect(self, i: int) -> None:
        now = self.kernel.now
        self.clustered[i] = 1
        self.is_root[i] = 1
        self.root_idx[i] = i
        val = self.feats_list[i]
        self.root_val[i] = val
        m = self.level[i]
        self.m_level[i] = m
        self.parent_idx[i] = -1
        self.clustered_at[i] = now
        ep = self._open_episode(i, -1, -1) if self.explicit else -1
        self._push_expand(now + self.hd, i, val, i, m, ep)
        if self.explicit:
            self._push_scalar(
                now + self.config.ack_window * self.network.max_hop_delay,
                self._fire_timeout,
                ep,
            )

    def _join(self, i: int, via: int, val: float, root: int, m: int, parent_ep: int) -> None:
        now = self.kernel.now
        self.clustered[i] = 1
        self.root_idx[i] = root
        self.root_val[i] = val
        self.m_level[i] = m
        self.parent_idx[i] = via
        self.clustered_at[i] = now
        ep = self._open_episode(i, via, parent_ep) if self.explicit else -1
        # Serial _open_episode order: broadcast, then ack1, then leaf timer.
        self._push_expand(now + self.hd, i, val, root, m, ep)
        if self.explicit:
            self.stats.charge("ack1", CATEGORY_CLUSTERING, 1, 1)
            self._push_scalar(now + self.hd, self._fire_ack1, parent_ep, i)
            self._push_scalar(
                now + self.config.ack_window * self.network.max_hop_delay,
                self._fire_timeout,
                ep,
            )

    def _open_episode(self, owner: int, parent: int, parent_ep: int) -> int:
        row = len(self.ep_children)
        self.ep_children.append(0)
        self.ep_timeout.append(0)
        self.ep_completed.append(0)
        self.ep_parent.append(parent)
        self.ep_parent_ep.append(parent_ep)
        self.ep_owner.append(owner)
        return row

    # ------------------------------------------------------------------
    # cohort processing: the hot path
    # ------------------------------------------------------------------
    def _fire_expand(self, time: float, batch: _ExpandBatch) -> None:
        if self._tails.get(time) is batch:
            del self._tails[time]
        indptr = self.indptr
        srcs = np.asarray(batch.srcs, dtype=np.int64)
        counts = indptr[srcs + 1] - indptr[srcs]
        cum = np.cumsum(counts)
        total = int(cum[-1]) if counts.size else 0
        if total == 0:
            return
        # One charge for the whole cohort: identical totals to one
        # single-hop record per copy (counters are additive ints).
        self.stats.charge_batch("expand", CATEGORY_CLUSTERING, 1, total)
        # CSR multi-range gather: per-delivery destination/row-origin.
        offsets = np.repeat(indptr[srcs] - (cum - counts), counts)
        dsts = self.indices[np.arange(total, dtype=np.int64) + offsets]
        origin = np.repeat(np.arange(srcs.size, dtype=np.int64), counts)
        dist = np.abs(np.asarray(batch.vals, dtype=np.float64)[origin] - self.feats[dsts])
        eligible = np.nonzero(dist <= self.config.delta / 2.0)[0]
        if eligible.size == 0:
            return
        e_dst = dsts[eligible].tolist()
        e_origin = origin[eligible].tolist()
        e_dist = dist[eligible].tolist()

        b_srcs = batch.srcs
        b_vals = batch.vals
        b_roots = batch.roots
        b_ms = batch.ms
        b_eps = batch.eps
        clustered = self.clustered
        is_root = self.is_root
        root_idx = self.root_idx
        root_val = self.root_val
        m_level = self.m_level
        switches = self.switches
        feats_list = self.feats_list
        max_switches = self.config.max_switches
        threshold = self.config.switch_threshold
        join = self._join

        # Residue: the handler decision chain, in exact delivery order.
        for k in range(len(e_dst)):
            d = e_dst[k]
            r = e_origin[k]
            if not clustered[d]:
                join(d, b_srcs[r], b_vals[r], b_roots[r], b_ms[r], b_eps[r])
                continue
            if b_roots[r] == root_idx[d]:
                continue
            if switches[d] >= max_switches:
                continue
            if is_root[d] or b_ms[r] != m_level[d]:
                continue
            if e_dist[k] + threshold >= abs(root_val[d] - feats_list[d]):
                continue
            switches[d] += 1
            join(d, b_srcs[r], b_vals[r], b_roots[r], b_ms[r], b_eps[r])

    # ------------------------------------------------------------------
    # start signals
    # ------------------------------------------------------------------
    def _fire_starts(self, level: int) -> None:
        """Implicit mode: one entry per sentinel level (the serial engine's
        per-sentinel timers fire back-to-back at the same instant)."""
        clustered = self.clustered
        index = self.index
        for sentinel in self.quadtree.sentinel_sets[level]:
            i = index[sentinel]
            if not clustered[i]:
                self._elect(i)

    def _start_elink(self, i: int) -> None:
        if not self.clustered[i]:
            self._elect(i)
        elif self.explicit and not self.phase1_sent[i]:
            self._send_phase1(i, self.level[i])

    def _fire_start(self, i: int) -> None:
        self.phase1_sent[i] = 0
        self._start_elink(i)

    # ------------------------------------------------------------------
    # explicit mode: episodes and quadtree synchronization
    # ------------------------------------------------------------------
    def _fire_ack1(self, ep: int, src: int) -> None:
        if self.ep_timeout[ep]:
            raise RuntimeError(
                f"node {self.nodes[self.ep_owner[ep]]!r}: ack1 arrived after leaf "
                f"timeout of episode {ep}; increase ack_window"
            )
        self.ep_children[ep] += 1

    def _fire_ack2(self, ep: int, src: int) -> None:
        if self.ep_children[ep] <= 0:
            raise RuntimeError(
                f"node {self.nodes[self.ep_owner[ep]]!r}: ack2 underflow on episode {ep}"
            )
        self.ep_children[ep] -= 1
        self._maybe_complete(ep)

    def _fire_timeout(self, ep: int) -> None:
        self.ep_timeout[ep] = 1
        self._maybe_complete(ep)

    def _maybe_complete(self, ep: int) -> None:
        if self.ep_completed[ep] or not self.ep_timeout[ep] or self.ep_children[ep] > 0:
            return
        self.ep_completed[ep] = 1
        parent = self.ep_parent[ep]
        if parent >= 0:
            self.stats.charge("ack2", CATEGORY_CLUSTERING, 1, 1)
            self._push_scalar(
                self.kernel.now + self.hd, self._fire_ack2, self.ep_parent_ep[ep], self.ep_owner[ep]
            )
        else:
            owner = self.ep_owner[ep]
            self._send_phase1(owner, self.level[owner])

    def _route(self, src: int, dst: int, hops: int, kind: str, fire, *args) -> None:
        """Mirror ``Network.route`` on the fast path for one quad edge
        (never a self-route): *hops* is its :attr:`quad_hops` entry; charge
        ``hops``, push one delivery at ``hops × hop_delay``."""
        if hops == _NO_PATH:
            raise nx.NetworkXNoPath(f"no path from {self.nodes[src]!r} to {self.nodes[dst]!r}")
        self.stats.charge(kind, CATEGORY_SYNC, 1, hops)
        self._push_scalar(self.kernel.now + hops * self.hd, fire, *args)

    def _expected_phase1(self, i: int, round_level: int) -> int:
        subtree_max = self.subtree_max
        return sum(1 for c in self.quad_children_idx[i] if subtree_max[c] >= round_level)

    def _send_phase1(self, i: int, round_level: int) -> None:
        self.phase1_sent[i] = 1
        if self.level[i] == 0:
            self._round_complete(round_level)
        else:
            parent = self.quad_parent_idx[i]
            self._route(i, parent, self.quad_hops[i], "phase1", self._fire_phase1,
                        parent, round_level)

    def _fire_phase1(self, i: int, round_level: int) -> None:
        got = self.phase1_received.get((i, round_level), 0) + 1
        self.phase1_received[(i, round_level)] = got
        expected = self._expected_phase1(i, round_level)
        if got > expected:
            raise RuntimeError(
                f"node {self.nodes[i]!r}: too many phase1({round_level}) messages"
            )
        if got == expected:
            if self.level[i] == 0:
                self._round_complete(round_level)
            else:
                parent = self.quad_parent_idx[i]
                self._route(i, parent, self.quad_hops[i], "phase1", self._fire_phase1,
                            parent, round_level)

    def _round_complete(self, round_level: int) -> None:
        if round_level >= self.max_level:
            self.protocol_done.append(self.kernel.now)
            return
        self._act_on_phase2(self.root_i, round_level)

    def _act_on_phase2(self, i: int, round_level: int) -> None:
        quad_hops = self.quad_hops
        if self.level[i] == round_level:
            for c in self.quad_children_idx[i]:
                self._route(i, c, quad_hops[c], "start", self._fire_start, c)
        else:
            subtree_max = self.subtree_max
            for c in self.quad_children_idx[i]:
                if subtree_max[c] >= round_level:
                    self._route(i, c, quad_hops[c], "phase2", self._fire_phase2, c, round_level)

    def _fire_phase2(self, i: int, round_level: int) -> None:
        self._act_on_phase2(i, round_level)

    # ------------------------------------------------------------------
    # the run
    # ------------------------------------------------------------------
    def run(self, metric: Metric, start_stats: MessageStats) -> "ELinkResult":
        from repro.core.elink import ELinkResult, compute_kappa, implicit_schedule

        config = self.config
        network = self.network
        kernel = self.kernel
        n = self.n
        depth = self.quadtree.depth

        if config.signalling == "implicit":
            starts = implicit_schedule(n, depth, config.gamma, network.hop_delay)
            now = kernel.now
            for level in range(len(self.quadtree.sentinel_sets)):
                time = now + max(starts[level] - now, 0.0)
                kernel.post_at(time, self._fire_starts, level)
                self._tails[time] = _OPAQUE
        else:
            time = kernel.now
            kernel.post_at(time, self._fire_start_root)
            self._tails[time] = _OPAQUE

        event_budget = 200 * n * (depth + 2) + 10_000
        network.run(max_events=event_budget)

        # Assembly: same construction (and dict orders) as the handler path.
        nodes = self.nodes
        clustered = self.clustered
        root_idx = self.root_idx
        parent_idx = self.parent_idx
        arrays = self.feature_arrays
        assignment = {
            v: (nodes[root_idx[i]] if clustered[i] else None) for i, v in enumerate(nodes)
        }
        parents = {
            v: (nodes[parent_idx[i]] if parent_idx[i] >= 0 else v) for i, v in enumerate(nodes)
        }
        root_feature_map = {v: arrays[i] for i, v in enumerate(nodes) if self.is_root[i]}
        feature_map = {v: arrays[i] for i, v in enumerate(nodes)}
        clustering = clustering_from_assignment(
            self.topology.graph,
            assignment,
            feature_map,
            root_features=root_feature_map,
            parents=parents,
        )
        repaired = clustering.num_clusters - len(set(assignment.values()))
        completion_time = max(
            (t for t in self.clustered_at if t is not None), default=0.0
        )
        if config.signalling == "implicit":
            kappa = compute_kappa(n, config.gamma, network.hop_delay)
            starts = implicit_schedule(n, depth, config.gamma, network.hop_delay)
            protocol_time = starts[-1] + kappa * (2.0 - 2.0 ** (-depth))
        else:
            protocol_time = self.protocol_done[0] if self.protocol_done else kernel.now
        return ELinkResult(
            clustering=clustering,
            stats=network.stats.diff(start_stats),
            completion_time=completion_time,
            protocol_time=protocol_time,
            total_switches=sum(self.switches),
            repaired_components=max(repaired, 0),
            config=config,
        )

    def _fire_start_root(self) -> None:
        """Explicit mode's single t=0 start timer on the quadtree root."""
        self._start_elink(self.root_i)
