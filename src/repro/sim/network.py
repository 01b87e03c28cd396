"""Sensor-network message-passing substrate.

The :class:`Network` wraps a communication graph (``networkx.Graph``) and an
:class:`~repro.sim.kernel.EventKernel`.  It delivers messages between
registered node objects with a fixed per-hop delay (the paper's §4 cost
model: "the worst-case delay over a hop is a single time unit") and charges
every transmission to a :class:`~repro.sim.stats.MessageStats` accumulator.

Delivery modes:

- :meth:`send` — single-hop unicast to a direct neighbour (cluster
  expansion and cluster-tree traffic always moves along graph edges).
- :meth:`route` — multi-hop unicast along a shortest path (quadtree
  signalling, query routing to cluster roots, update handling).  Charged
  ``values × hops``.
- :meth:`route_along` — multi-hop unicast along an explicit node path
  (cluster-tree root walks, backbone-tree edges).
- :meth:`broadcast` — one copy to every neighbour.

Nodes are any object with a ``handle_message(message)`` method, registered
via :meth:`register`.

Fault semantics (DESIGN.md §9): once the topology has been mutated through
the mutators, deliveries involving dead nodes or severed links become
**structured failures** — :meth:`send` returns ``False``, :meth:`route` /
:meth:`route_along` return ``-1`` — recorded in
:attr:`MessageStats.drops_by_reason <repro.sim.stats.MessageStats>` instead
of raising mid-simulation.  Failures are synchronous at the sender (the
link layer knows its ack never came), which is what protocol-level failure
detection keys off.  Genuine programming errors (sending over an edge that
never existed, routing in a graph that was disconnected from the start)
still raise, so the fault path cannot mask bugs in fault-free runs.

Performance notes (see DESIGN.md, "Fast-path simulation engine"):

- Adjacency sets and neighbour tuples are precomputed at construction, so
  the per-message path never touches ``graph.has_edge``/``graph.neighbors``.
  Topology changes go through the mutators :meth:`remove_node` /
  :meth:`restore_node` / :meth:`remove_edge` / :meth:`restore_edge`, which
  clear the path cache and patch the affected adjacency rows in place
  (O(local degree) per fault event); hand-mutating ``self.graph``
  requires a manual :meth:`invalidate_paths` (full rebuild).
- When ``jitter == 0 and loss is None`` (the paper's synchronous reliable
  model, and the default) deliveries take a zero-overhead fast path:
  constant hop delay, no RNG call, no per-attempt loop, and a single
  allocation-slim :meth:`~repro.sim.kernel.EventKernel.post`.
- Jitter samples are pre-drawn in chunks when enabled; numpy consumes the
  same bit stream either way, so jittery runs are byte-identical to the
  per-call sampling they replace.
- Shortest paths live in a bounded LRU keyed by ``(src, dst)`` and filled
  by BFS-on-demand (replicating networkx's expansion order exactly, so
  routed paths — and therefore per-node energy traces — are unchanged).
  The BFS keeps parent pointers, stops at ``dst`` and builds and caches
  only the returned path: one LRU insert per miss, so a search never
  floods the cache with paths nobody asked for.  The vectorised explicit
  rounds do not route here at all; they read hop counts from a
  precomputed quad-edge table (DESIGN.md §8.2).
"""

from __future__ import annotations

import os
from collections import OrderedDict
from typing import TYPE_CHECKING, Callable, Hashable, Iterable, Protocol, Sequence

if TYPE_CHECKING:  # import-light: the tracer is only ever held, never built here
    from repro.obs.trace import Tracer

import networkx as nx
import numpy as np

from repro._validation import require_positive
from repro.sim.energy import EnergyModel
from repro.sim.kernel import Event, EventKernel
from repro.sim.messages import Message
from repro.sim.radio import LossyLinkModel
from repro.sim.stats import MessageStats

#: Batch size for pre-drawn jitter samples.
_JITTER_CHUNK = 256

#: Default bound on the (src, dst) -> path LRU cache.
DEFAULT_PATH_CACHE_SIZE = 32768

#: Environment variable selecting the default simulation engine.  Follows
#: the same worker-inheritance pattern as ``REPRO_CACHE``: the experiment
#: runner's ``--engine`` flag sets it in the parent, and spawned trial
#: workers inherit it, so one flag steers every Network built in a suite.
ENGINE_ENV = "REPRO_ENGINE"

_ENGINES = ("object", "array")


def default_engine() -> str:
    """The engine :class:`Network` builds when none is requested explicitly.

    ``"object"`` (the reference engine) unless ``REPRO_ENGINE`` selects
    ``"array"`` — the struct-of-arrays fast engine in
    :mod:`repro.sim.engine`.
    """
    value = os.environ.get(ENGINE_ENV, "").strip().lower()
    if not value:
        return "object"
    if value not in _ENGINES:
        raise ValueError(f"{ENGINE_ENV} must be one of {_ENGINES}, got {value!r}")
    return value


class MessageHandler(Protocol):
    """Anything that can receive messages from the network."""

    def handle_message(self, message: Message) -> None:
        """Deliver *message* to this endpoint."""
        ...


class Network:
    """Message-passing layer over a communication graph.

    Parameters
    ----------
    graph:
        The communication graph *CG*.  Nodes are arbitrary hashables.
    kernel:
        The event kernel driving delivery; a fresh one is created if omitted.
    hop_delay:
        Simulated time for one hop (default 1.0, the paper's unit delay).
    jitter:
        Asynchrony: each hop takes ``hop_delay * (1 + U(0, jitter))``
        (default 0 — the paper's synchronous unit-delay model).
    energy:
        Optional :class:`~repro.sim.energy.EnergyModel` charged per hop.
    loss:
        Optional :class:`~repro.sim.radio.LossyLinkModel`; failed hop
        transmissions are retransmitted (ARQ), inflating cost and delay.
    path_cache_size:
        Bound on the shortest-path LRU (number of cached paths).
    engine:
        ``"object"`` (this reference implementation), ``"array"`` (the
        struct-of-arrays fast engine, :class:`repro.sim.engine.ArrayNetwork`)
        or ``None`` to follow :func:`default_engine` / the ``REPRO_ENGINE``
        environment variable.
        ``Network(graph, engine="array")`` returns an ``ArrayNetwork``
        instance; every engine produces byte-identical protocol results at
        fixed seeds (see DESIGN.md §8).
    tracer:
        Optional :class:`repro.obs.trace.Tracer`.  When attached, the
        delivery layer emits ``msg.send`` / ``msg.route`` /
        ``msg.deliver`` / ``msg.drop``, the mutators emit ``node.crash``
        / ``node.recover`` / ``link.down`` / ``link.up``, and the same
        tracer is installed on the kernel for timer events.  Attach it at
        construction (or before nodes register): protocol runtimes cache
        the reference, so attaching later leaves them untraced.  ``None``
        (the default) costs one predicate per hook site — runs are
        byte-identical with or without the hooks compiled in.
    """

    #: Engine name this class implements; the ``engine=`` constructor
    #: argument dispatches between subclasses on this.
    engine = "object"

    def __new__(cls, *args, **kwargs):
        # Engine selector: ``Network(graph, engine="array")`` (or
        # REPRO_ENGINE=array) transparently builds the fast engine.
        # Subclasses instantiated directly bypass the dispatch.
        if cls is Network:
            requested = kwargs.get("engine") or default_engine()
            if requested == "array":
                from repro.sim.engine import ArrayNetwork

                return super().__new__(ArrayNetwork)
            if requested not in _ENGINES:
                raise ValueError(f"engine must be one of {_ENGINES}, got {requested!r}")
        return super().__new__(cls)

    def __init__(
        self,
        graph: nx.Graph,
        kernel: EventKernel | None = None,
        *,
        hop_delay: float = 1.0,
        jitter: float = 0.0,
        jitter_seed: int = 0,
        energy: "EnergyModel | None" = None,
        loss: "LossyLinkModel | None" = None,
        path_cache_size: int = DEFAULT_PATH_CACHE_SIZE,
        engine: str | None = None,
        tracer: "Tracer | None" = None,
    ):
        if engine is not None and engine != self.engine:
            raise ValueError(
                f"requested engine {engine!r} but {type(self).__name__} implements "
                f"{self.engine!r}"
            )
        if graph.number_of_nodes() == 0:
            raise ValueError("communication graph must have at least one node")
        if path_cache_size < 1:
            raise ValueError(f"path_cache_size must be >= 1, got {path_cache_size}")
        self.graph = graph
        self.kernel = kernel if kernel is not None else self._default_kernel()
        self.hop_delay = require_positive(hop_delay, "hop_delay")
        if jitter < 0:
            raise ValueError(f"jitter must be >= 0, got {jitter}")
        #: Asynchrony: each hop takes hop_delay * (1 + U(0, jitter)).  The
        #: paper's implicit timers absorb jitter only up to the stretch
        #: factor γ; explicit signalling is correct for any jitter.
        self.jitter = jitter
        self._jitter_rng = np.random.default_rng(jitter_seed)
        self._jitter_buffer: np.ndarray | None = None
        self._jitter_cursor = 0
        self.stats = MessageStats()
        self.energy = energy
        self.loss = loss
        #: True when the zero-overhead delivery path applies (synchronous
        #: unit-delay, reliable links — the paper's cost model).
        self._fast = jitter == 0.0 and loss is None
        self._handlers: dict[Hashable, MessageHandler] = {}
        #: Nodes removed by :meth:`remove_node` (fail-stop crashes).
        self.dead_nodes: set[Hashable] = set()
        #: Currently-severed links (frozenset endpoints) from :meth:`remove_edge`.
        self._removed_edges: set[frozenset] = set()
        #: True once any mutator has run; gates every fault check so the
        #: zero-fault delivery paths stay byte-identical and branch-cheap.
        self._mutated = False
        #: Cancellable timers registered per owning node (crash cleanup).
        self._owned_timers: dict[Hashable, list[Event]] = {}
        #: Optional observer called as ``on_drop(message, reason)`` after a
        #: structured delivery failure is recorded.
        self.on_drop: Callable[[Message, str], None] | None = None
        #: Optional tracer (DESIGN.md §10); every hook guards on it, so
        #: ``None`` keeps the delivery paths byte-identical to untraced
        #: builds.  Shared with the kernel so timers land in one stream.
        self._tracer = tracer
        if tracer is not None:
            self.kernel.tracer = tracer
        self._path_cache_size = path_cache_size
        self._path_cache: OrderedDict[tuple[Hashable, Hashable], tuple[Hashable, ...]] = (
            OrderedDict()
        )
        self._rebuild_adjacency()

    @staticmethod
    def _default_kernel() -> EventKernel:
        """Kernel built when the constructor is not handed one."""
        return EventKernel()

    def _rebuild_adjacency(self) -> None:
        # Neighbour tuples preserve graph.adj iteration order (BFS
        # tie-breaking depends on it); sets give O(1) edge checks.
        self._adj: dict[Hashable, tuple[Hashable, ...]] = {
            v: tuple(nbrs) for v, nbrs in self.graph.adj.items()
        }
        self._adj_sets: dict[Hashable, frozenset] = {
            v: frozenset(nbrs) for v, nbrs in self._adj.items()
        }

    # ------------------------------------------------------------------
    # incremental adjacency patches (fault mutators)
    #
    # The mutators used to call invalidate_paths(), re-deriving the whole
    # adjacency (O(N+E)) on every crash/churn event.  Each patch below
    # touches only the affected rows (O(sum of their degrees)) and
    # reproduces the exact row contents and ordering a full rebuild from
    # ``self.graph`` would give: networkx adjacency views iterate in edge
    # insertion order, removals preserve the order of survivors, and
    # re-adds append — so filtering/appending tuples matches a rebuild
    # element for element (the equivalence is pinned in tests).
    # ------------------------------------------------------------------
    def _adjacency_drop_node(self, node_id: Hashable, neighbours: Iterable[Hashable]) -> None:
        """Patch adjacency after *node_id* left ``self.graph``."""
        adj = self._adj
        adj_sets = self._adj_sets
        for nbr in neighbours:
            row = tuple(x for x in adj[nbr] if x != node_id)
            adj[nbr] = row
            adj_sets[nbr] = frozenset(row)
        del adj[node_id]
        del adj_sets[node_id]

    def _adjacency_add_node(self, node_id: Hashable) -> None:
        """Patch adjacency after *node_id* (re)joined ``self.graph``."""
        adj = self._adj
        adj_sets = self._adj_sets
        row = tuple(self.graph.adj[node_id])
        adj[node_id] = row
        adj_sets[node_id] = frozenset(row)
        for nbr in row:
            if node_id not in adj_sets[nbr]:
                patched = adj[nbr] + (node_id,)
                adj[nbr] = patched
                adj_sets[nbr] = frozenset(patched)

    def _adjacency_drop_edge(self, u: Hashable, v: Hashable) -> None:
        """Patch adjacency after edge *u*—*v* left ``self.graph``."""
        adj = self._adj
        adj_sets = self._adj_sets
        row_u = tuple(x for x in adj[u] if x != v)
        adj[u] = row_u
        adj_sets[u] = frozenset(row_u)
        row_v = tuple(x for x in adj[v] if x != u)
        adj[v] = row_v
        adj_sets[v] = frozenset(row_v)

    def _adjacency_add_edge(self, u: Hashable, v: Hashable) -> None:
        """Patch adjacency after edge *u*—*v* (re)joined ``self.graph``."""
        adj = self._adj
        adj_sets = self._adj_sets
        row_u = adj[u] + (v,)
        adj[u] = row_u
        adj_sets[u] = frozenset(row_u)
        row_v = adj[v] + (u,)
        adj[v] = row_v
        adj_sets[v] = frozenset(row_v)

    @property
    def tracer(self) -> "Tracer | None":
        """The attached tracer, or None when tracing is disabled."""
        return self._tracer

    @tracer.setter
    def tracer(self, tracer: "Tracer | None") -> None:
        """Attach *tracer* to the network and its kernel.

        Constructor-time attachment is preferred: protocol runtimes
        cache the reference when they register (see class docstring).
        """
        self._tracer = tracer
        self.kernel.tracer = tracer

    @property
    def max_hop_delay(self) -> float:
        """Worst-case single-transmission delay under the jitter model."""
        return self.hop_delay * (1.0 + self.jitter)

    def _sample_hop_delay(self) -> float:
        if self.jitter == 0.0:
            return self.hop_delay
        buffer = self._jitter_buffer
        if buffer is None or self._jitter_cursor >= buffer.shape[0]:
            buffer = self._jitter_rng.uniform(0.0, self.jitter, size=_JITTER_CHUNK)
            self._jitter_buffer = buffer
            self._jitter_cursor = 0
        value = buffer[self._jitter_cursor]
        self._jitter_cursor += 1
        return self.hop_delay * (1.0 + float(value))

    def _hop_cost(self, sender: Hashable, receiver: Hashable, message: Message) -> int:
        """Charge one hop (with retransmissions under loss); returns the
        number of transmission attempts used for delay accounting."""
        attempts = self.loss.attempts_for_hop() if self.loss is not None else 1
        self.stats.record(message, hops=attempts)
        if self.energy is not None:
            # Every attempt burns TX at the sender; only the successful
            # one is received.
            for _ in range(attempts - 1):
                self.energy.spent[sender] = (
                    self.energy.spent.get(sender, 0.0)
                    + message.values * self.energy.tx_per_value
                )
            self.energy.charge_hop(sender, receiver, message.values)
        return attempts

    # ------------------------------------------------------------------
    # node registry
    # ------------------------------------------------------------------
    def register(self, node_id: Hashable, handler: MessageHandler) -> None:
        """Attach *handler* as the protocol endpoint for *node_id*."""
        if node_id not in self._adj:
            raise KeyError(f"node {node_id!r} is not in the communication graph")
        self._handlers[node_id] = handler

    def handler(self, node_id: Hashable) -> MessageHandler:
        """The registered handler for *node_id*."""
        try:
            return self._handlers[node_id]
        except KeyError:
            raise KeyError(f"no handler registered for node {node_id!r}") from None

    def neighbors(self, node_id: Hashable) -> Iterable[Hashable]:
        """Neighbours in the underlying structure."""
        return self._adj[node_id]

    def degree(self, node_id: Hashable) -> int:
        """Degree of *node_id* in the communication graph."""
        return len(self._adj[node_id])

    # ------------------------------------------------------------------
    # delivery
    # ------------------------------------------------------------------
    def send(self, message: Message) -> bool:
        """Unicast *message* one hop to a direct neighbour of its source.

        Returns ``True`` on (scheduled) delivery.  After a topology fault,
        sends to a crashed neighbour or over a severed link return ``False``
        and record a structured drop — the synchronous link layer tells the
        sender its transmission was not acknowledged.
        """
        src = message.src
        neighbours = self._adj_sets.get(src)
        if neighbours is None or message.dst not in neighbours:
            if self._mutated:
                reason = self._endpoint_failure(src, message.dst)
                if reason is None and frozenset((src, message.dst)) in self._removed_edges:
                    reason = "link_down"
                if reason is not None:
                    self._drop(message, reason)
                    return False
            raise ValueError(
                f"send() requires adjacency: {message.src!r} -> {message.dst!r} "
                "is not an edge; use route() for multi-hop delivery"
            )
        if self._fast:
            self.stats.record(message)
            if self.energy is not None:
                self.energy.charge_hop(src, message.dst, message.values)
            if self._tracer is not None:
                self._trace_send(message)
            self._post_delivery(self.hop_delay, message)
            return True
        attempts = self._hop_cost(src, message.dst, message)
        delay = sum(self._sample_hop_delay() for _ in range(attempts))
        if self._tracer is not None:
            self._trace_send(message, attempts=attempts)
        self._post_delivery(delay, message)
        return True

    def _post_delivery(self, delay: float, message: Message) -> None:
        """Schedule *message* to arrive ``delay`` from now.

        Single override point for the delivery queue: the array engine
        replaces it with a cohort-batched path that groups same-timestamp
        deliveries into one kernel event.
        """
        self.kernel.post(delay, self._deliver, message)

    def _trace_send(self, message: Message, attempts: int = 1) -> None:
        """Emit ``msg.send`` (single-hop unicast scheduled)."""
        self._tracer.emit(
            self.kernel.now,
            "msg.send",
            message.src,
            dst=message.dst,
            kind=message.kind,
            values=message.values,
            attempts=attempts,
        )

    def broadcast(self, src: Hashable, make_message) -> int:
        """Send ``make_message(neighbor)`` to every neighbour of *src*.

        *make_message* is a callable so each copy can carry its own ``dst``.
        Returns the number of copies sent.
        """
        count = 0
        if self._mutated and src in self.dead_nodes:
            return 0
        for neighbor in self._adj[src]:
            if self.send(make_message(neighbor)):
                count += 1
        return count

    def broadcast_values(
        self,
        src: Hashable,
        kind: str,
        payload=None,
        values: int = 1,
        category: str = "",
    ) -> int:
        """Broadcast one homogeneous *kind* message to every neighbour.

        Equivalent to :meth:`broadcast` with a ``Message(kind, src, nbr,
        payload, values)`` factory — the common case for protocol
        neighbourhood floods.  Exists as its own entry point so the array
        engine can override it with a batched path (shared cost charging,
        one delivery cohort) while this reference implementation keeps the
        per-message semantics.
        """
        return self.broadcast(
            src, lambda neighbor: Message(kind, src, neighbor, payload, values, category)
        )

    def route(self, message: Message) -> int:
        """Deliver *message* along a shortest path; returns the hop count.

        Cost: ``values × hops``; delay: ``hops × hop_delay``.  A message to
        self is free and delivered after one delay unit (processing time).

        After a topology fault, an unreachable/dead destination yields a
        structured drop and returns ``-1`` instead of raising; a graph that
        was disconnected from the start (never mutated) still raises
        :class:`networkx.NetworkXNoPath` — that is a configuration bug.
        """
        if self._mutated:
            reason = self._endpoint_failure(message.src, message.dst)
            if reason is None:
                try:
                    path = self.shortest_path(message.src, message.dst)
                except (nx.NodeNotFound, nx.NetworkXNoPath):
                    reason = "no_route"
            if reason is not None:
                self._drop(message, reason)
                return -1
            return self._traverse(path, message)
        path = self.shortest_path(message.src, message.dst)
        return self._traverse(path, message)

    def route_along(self, path: Sequence[Hashable], message: Message) -> int:
        """Deliver *message* along an explicit *path* (src ... dst).

        The path must start at ``message.src``, end at ``message.dst`` and
        follow graph edges.  Returns the hop count, or ``-1`` (with a
        structured drop) when a fault has removed a node or link on the
        path.
        """
        if not path or path[0] != message.src or path[-1] != message.dst:
            raise ValueError("path must run from message.src to message.dst")
        adj_sets = self._adj_sets
        if self._mutated:
            reason = self._endpoint_failure(message.src, message.dst)
            if reason is not None:
                self._drop(message, reason)
                return -1
        for a, b in zip(path, path[1:]):
            if b not in adj_sets.get(a, ()):
                if self._mutated:
                    if a in self.dead_nodes or b in self.dead_nodes:
                        self._drop(message, "dead_relay")
                        return -1
                    if frozenset((a, b)) in self._removed_edges:
                        self._drop(message, "link_down")
                        return -1
                raise ValueError(f"path step {a!r} -> {b!r} is not a graph edge")
        return self._traverse(path, message)

    def _traverse(self, path: Sequence[Hashable], message: Message) -> int:
        """Charge and deliver along *path*; returns the hop count."""
        hops = len(path) - 1
        if self._tracer is not None:
            self._tracer.emit(
                self.kernel.now,
                "msg.route",
                message.src,
                dst=message.dst,
                kind=message.kind,
                values=message.values,
                hops=hops,
            )
        if hops == 0:
            self._post_delivery(self.hop_delay, message)
            return 0
        if self._fast:
            # One stats record covers all hops (counters are additive);
            # energy still charges each edge's endpoints individually.
            self.stats.record(message, hops=hops)
            if self.energy is not None:
                for a, b in zip(path, path[1:]):
                    self.energy.charge_hop(a, b, message.values)
            self._post_delivery(hops * self.hop_delay, message)
            return hops
        delay = 0.0
        for a, b in zip(path, path[1:]):
            attempts = self._hop_cost(a, b, message)
            delay += sum(self._sample_hop_delay() for _ in range(attempts))
        self._post_delivery(delay, message)
        return hops

    def _deliver(self, message: Message) -> None:
        if self.dead_nodes and message.dst in self.dead_nodes:
            # In-flight delivery to a node that crashed after the send was
            # scheduled: the transmission cost was already charged; the
            # message silently disappears at the dead radio.
            self._drop(message, "dead_destination")
            return
        if self._tracer is not None:
            self._tracer.emit(
                self.kernel.now, "msg.deliver", message.dst, src=message.src, kind=message.kind
            )
        self.handler(message.dst).handle_message(message)

    # ------------------------------------------------------------------
    # faults: structured failures, topology mutators, owned timers
    # ------------------------------------------------------------------
    def _endpoint_failure(self, src: Hashable, dst: Hashable) -> str | None:
        """Reason string if either endpoint is dead, else None."""
        if src in self.dead_nodes:
            return "dead_source"
        if dst in self.dead_nodes:
            return "dead_destination"
        return None

    def _drop(self, message: Message, reason: str) -> None:
        """Record a structured delivery failure and notify the observer."""
        self.stats.record_drop(message, reason)
        if self._tracer is not None:
            self._tracer.emit(
                self.kernel.now,
                "msg.drop",
                message.src,
                dst=message.dst,
                kind=message.kind,
                reason=reason,
            )
        if self.on_drop is not None:
            self.on_drop(message, reason)

    def is_alive(self, node_id: Hashable) -> bool:
        """False once *node_id* has been crashed via :meth:`remove_node`."""
        return node_id not in self.dead_nodes

    def remove_node(self, node_id: Hashable) -> tuple[Hashable, ...]:
        """Fail-stop crash: remove *node_id* and its incident edges.

        Cancels every pending timer registered for the node via
        :meth:`schedule_owned`, marks it dead (so in-flight deliveries to it
        drop), mutates ``self.graph`` and invalidates the path cache.
        Returns the node's neighbours at crash time, for a later
        :meth:`restore_node`.  Idempotent: crashing a dead node returns
        ``()``.
        """
        if node_id in self.dead_nodes:
            return ()
        if node_id not in self._adj:
            raise KeyError(f"node {node_id!r} is not in the communication graph")
        neighbours = self._adj[node_id]
        self.cancel_owned(node_id)
        self.graph.remove_node(node_id)
        self.dead_nodes.add(node_id)
        self._mutated = True
        self._path_cache.clear()
        self._adjacency_drop_node(node_id, neighbours)
        if self._tracer is not None:
            self._tracer.emit(
                self.kernel.now, "node.crash", node_id, degree=len(neighbours)
            )
        return neighbours

    def restore_node(self, node_id: Hashable, neighbours: Iterable[Hashable] = ()) -> None:
        """Recover a crashed node, re-attaching it to the still-alive subset
        of *neighbours* (typically the tuple :meth:`remove_node` returned;
        links independently severed by :meth:`remove_edge` stay down)."""
        self.graph.add_node(node_id)
        for nbr in neighbours:
            if (
                nbr in self.graph
                and nbr not in self.dead_nodes
                and frozenset((node_id, nbr)) not in self._removed_edges
            ):
                self.graph.add_edge(node_id, nbr)
        self.dead_nodes.discard(node_id)
        self._mutated = True
        self._path_cache.clear()
        self._adjacency_add_node(node_id)
        if self._tracer is not None:
            self._tracer.emit(
                self.kernel.now, "node.recover", node_id, degree=self.graph.degree(node_id)
            )

    def remove_edge(self, u: Hashable, v: Hashable) -> bool:
        """Sever the link *u*—*v* (churn).  Returns False if already down."""
        if not self.graph.has_edge(u, v):
            return False
        self.graph.remove_edge(u, v)
        self._removed_edges.add(frozenset((u, v)))
        self._mutated = True
        self._path_cache.clear()
        self._adjacency_drop_edge(u, v)
        if self._tracer is not None:
            self._tracer.emit(self.kernel.now, "link.down", u, other=v)
        return True

    def restore_edge(self, u: Hashable, v: Hashable) -> bool:
        """Bring a severed link back up.  Returns False if the link was not
        severed by :meth:`remove_edge` or an endpoint is (still) dead."""
        key = frozenset((u, v))
        if key not in self._removed_edges:
            return False
        if u in self.dead_nodes or v in self.dead_nodes:
            return False
        self._removed_edges.discard(key)
        self.graph.add_edge(u, v)
        self._mutated = True
        self._path_cache.clear()
        self._adjacency_add_edge(u, v)
        if self._tracer is not None:
            self._tracer.emit(self.kernel.now, "link.up", u, other=v)
        return True

    def schedule_owned(
        self, owner: Hashable, delay: float, callback, *args
    ) -> Event:
        """Schedule a cancellable timer registered to *owner*.

        Crashing *owner* via :meth:`remove_node` blanket-cancels all its
        pending timers; fired timers are pruned lazily.  The event is
        stamped with its owner, so traced ``timer.fire``/``timer.skip``
        events are attributed to the owning node.
        """
        event = self.kernel.schedule(delay, callback, *args)
        event.owner = owner
        bucket = self._owned_timers.setdefault(owner, [])
        bucket.append(event)
        if len(bucket) > 64:
            self._owned_timers[owner] = [
                ev for ev in bucket if not ev.fired and not ev.cancelled
            ]
        return event

    def cancel_owned(self, owner: Hashable) -> int:
        """Cancel every pending timer registered to *owner*; returns the
        number of timers that were still pending."""
        cancelled = 0
        for event in self._owned_timers.pop(owner, ()):
            if not event.fired and not event.cancelled:
                event.cancel()
                cancelled += 1
        if cancelled and self._tracer is not None:
            self._tracer.emit(self.kernel.now, "timer.cancel", owner, count=cancelled)
        return cancelled

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------
    def shortest_path(self, src: Hashable, dst: Hashable) -> Sequence[Hashable]:
        """Shortest path from *src* to *dst* (bounded LRU + BFS on demand).

        Expansion order replicates ``networkx.single_source_shortest_path``
        exactly, so the returned path (not just its length) matches what the
        unbounded per-source cache used to produce.
        """
        cache = self._path_cache
        key = (src, dst)
        path = cache.get(key)
        if path is not None:
            cache.move_to_end(key)
            return path
        return self._bfs_path(src, dst)

    def _bfs_path(self, src: Hashable, dst: Hashable) -> tuple[Hashable, ...]:
        adj = self._adj
        if src not in adj:
            raise nx.NodeNotFound(f"source {src!r} is not in the communication graph")
        if dst not in adj:
            raise nx.NetworkXNoPath(f"no path from {src!r} to {dst!r}")
        if dst == src:
            return self._remember(src, dst, (src,))
        # Level-order expansion in adjacency order — identical tie-breaking
        # to nx.single_source_shortest_path, stopping once dst is reached.
        # Parent pointers only: the returned path is the one built.
        pred: dict[Hashable, Hashable] = {src: src}
        level: list[Hashable] = [src]
        while level:
            next_level: list[Hashable] = []
            for v in level:
                for w in adj[v]:
                    if w not in pred:
                        pred[w] = v
                        if w == dst:
                            path = [w]
                            while w != src:
                                w = pred[w]
                                path.append(w)
                            return self._remember(src, dst, tuple(reversed(path)))
                        next_level.append(w)
            level = next_level
        raise nx.NetworkXNoPath(f"no path from {src!r} to {dst!r}")

    def _remember(
        self, src: Hashable, dst: Hashable, path: tuple[Hashable, ...]
    ) -> tuple[Hashable, ...]:
        """Cache a freshly searched *path* as the newest LRU entry."""
        cache = self._path_cache
        cache[(src, dst)] = path
        if len(cache) > self._path_cache_size:
            cache.popitem(last=False)
        return path

    def invalidate_paths(self) -> None:
        """Resynchronize with ``self.graph`` after a topology mutation.

        The network precomputes adjacency and caches shortest paths, so any
        *hand*-mutation of ``self.graph`` MUST be followed by a call to this
        method; otherwise sends keep validating against the old adjacency
        and routes silently follow stale paths.  Prefer the mutators
        (:meth:`remove_node` / :meth:`restore_node` / :meth:`remove_edge` /
        :meth:`restore_edge`), which patch the affected adjacency rows
        incrementally (O(local degree) per event, not O(N+E)) and
        additionally maintain the structured-failure bookkeeping.
        """
        self._path_cache.clear()
        self._rebuild_adjacency()

    def hop_distance(self, src: Hashable, dst: Hashable) -> int:
        """Shortest-path hop count between two nodes."""
        return len(self.shortest_path(src, dst)) - 1

    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        """Drain the event kernel (convenience passthrough)."""
        return self.kernel.run(until=until, max_events=max_events)

    def __repr__(self) -> str:
        return (
            f"Network(nodes={self.graph.number_of_nodes()}, "
            f"edges={self.graph.number_of_edges()}, t={self.kernel.now:.2f})"
        )
