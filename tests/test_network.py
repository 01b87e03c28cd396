"""Tests for the message-passing network layer and protocol node base."""

import networkx as nx
import numpy as np
import pytest

from repro.geometry import grid_topology, random_geometric_topology
from repro.sim import EventKernel, Message, Network, ProtocolNode


class Recorder(ProtocolNode):
    """Collects every delivered message with its arrival time."""

    def __init__(self, node_id, network):
        super().__init__(node_id, network, np.zeros(1))
        self.received = []

    def handle_message(self, message):
        self.received.append((message, self.now))


def _line_network(n=4, hop_delay=1.0):
    graph = nx.path_graph(n)
    network = Network(graph, EventKernel(), hop_delay=hop_delay)
    nodes = {i: Recorder(i, network) for i in range(n)}
    return network, nodes


def test_send_requires_adjacency():
    network, nodes = _line_network()
    with pytest.raises(ValueError, match="adjacency"):
        network.send(Message("feature", 0, 3))


def test_send_delivers_after_one_hop_delay():
    network, nodes = _line_network(hop_delay=2.0)
    network.send(Message("feature", 0, 1))
    network.run()
    assert len(nodes[1].received) == 1
    _, arrival = nodes[1].received[0]
    assert arrival == 2.0


def test_route_charges_values_times_hops():
    network, nodes = _line_network()
    hops = network.route(Message("feature", 0, 3, values=4))
    network.run()
    assert hops == 3
    assert network.stats.total_values == 12
    assert nodes[3].received[0][1] == 3.0


def test_route_to_self_is_free():
    network, nodes = _line_network()
    hops = network.route(Message("feature", 1, 1))
    network.run()
    assert hops == 0
    assert network.stats.total_values == 0
    assert len(nodes[1].received) == 1


def test_route_along_validates_path():
    network, nodes = _line_network()
    with pytest.raises(ValueError, match="path must run"):
        network.route_along([1, 2], Message("feature", 0, 2))
    with pytest.raises(ValueError, match="not a graph edge"):
        network.route_along([0, 2], Message("feature", 0, 2))


def test_route_along_charges_path_length():
    network, nodes = _line_network()
    network.route_along([0, 1, 2], Message("feature", 0, 2, values=3))
    network.run()
    assert network.stats.total_values == 6


def test_broadcast_reaches_all_neighbors():
    topology = grid_topology(3, 3)
    network = Network(topology.graph, EventKernel())
    nodes = {v: Recorder(v, network) for v in topology.graph.nodes}
    count = network.broadcast(4, lambda nb: Message("feature", 4, nb))  # center node
    network.run()
    assert count == 4
    for neighbor in topology.graph.neighbors(4):
        assert len(nodes[neighbor].received) == 1


def test_unregistered_handler_raises():
    graph = nx.path_graph(2)
    network = Network(graph, EventKernel())
    Recorder(0, network)
    network.send(Message("feature", 0, 1))
    with pytest.raises(KeyError, match="no handler"):
        network.run()


def test_register_unknown_node_rejected():
    graph = nx.path_graph(2)
    network = Network(graph, EventKernel())
    with pytest.raises(KeyError):
        network.register(99, object())


def test_hop_distance_uses_shortest_path():
    network, _ = _line_network(5)
    assert network.hop_distance(0, 4) == 4
    assert network.hop_distance(2, 2) == 0


def test_no_path_raises():
    graph = nx.Graph()
    graph.add_nodes_from([0, 1])
    network = Network(graph, EventKernel())
    Recorder(0, network)
    Recorder(1, network)
    with pytest.raises(nx.NetworkXNoPath):
        network.route(Message("feature", 0, 1))


def test_empty_graph_rejected():
    with pytest.raises(ValueError):
        Network(nx.Graph(), EventKernel())


def test_hop_delay_must_be_positive():
    with pytest.raises(ValueError):
        Network(nx.path_graph(2), EventKernel(), hop_delay=0.0)


class Echo(ProtocolNode):
    """Replies to ping with pong via the dispatch mechanism."""

    def __init__(self, node_id, network):
        super().__init__(node_id, network, np.zeros(1))
        self.pongs = 0

    def handle_ping(self, message):
        self.send(message.src, "pong")

    def handle_pong(self, message):
        self.pongs += 1


def test_protocol_node_dispatch():
    graph = nx.path_graph(2)
    network = Network(graph, EventKernel())
    a, b = Echo(0, network), Echo(1, network)
    a.send(1, "ping")
    network.run()
    assert a.pongs == 1


def test_protocol_node_unknown_kind_raises():
    graph = nx.path_graph(2)
    network = Network(graph, EventKernel())
    a, b = Echo(0, network), Echo(1, network)
    a.send(1, "mystery")
    with pytest.raises(NotImplementedError, match="mystery"):
        network.run()


def test_protocol_node_timer():
    graph = nx.path_graph(2)
    network = Network(graph, EventKernel())
    node = Echo(0, network)
    Echo(1, network)
    fired = []
    node.set_timer(3.0, lambda: fired.append(node.now))
    network.run()
    assert fired == [3.0]


def test_message_validation():
    with pytest.raises(ValueError):
        Message("feature", 0, 1, values=0)
    message = Message("expand", 0, 1)
    assert message.category == "clustering"
    assert Message("phase1", 0, 1).category == "sync"
    assert Message("unknown_kind", 0, 1).category == "data"


def test_stats_snapshot_and_diff():
    network, _ = _line_network()
    network.send(Message("expand", 0, 1, values=2))
    snap = network.stats.snapshot()
    network.send(Message("expand", 1, 2, values=2))
    network.run()
    diff = network.stats.diff(snap)
    assert diff.total_values == 2
    assert network.stats.total_values == 4
    assert network.stats.category_values("clustering") == 4


def test_stats_reset():
    network, _ = _line_network()
    network.send(Message("feature", 0, 1))
    network.stats.reset()
    assert network.stats.total_values == 0
    assert network.stats.total_packets == 0


def test_stats_rejects_zero_hops():
    network, _ = _line_network()
    with pytest.raises(ValueError):
        network.stats.record(Message("feature", 0, 1), hops=0)


# ----------------------------------------------------------------------
# fast path vs general path
# ----------------------------------------------------------------------
def _grid_network(**kwargs):
    topology = grid_topology(4, 4)
    network = Network(topology.graph, EventKernel(), **kwargs)
    nodes = {v: Recorder(v, network) for v in topology.graph.nodes}
    return network, nodes


def _drive_mixed_traffic(network):
    """A deterministic workload exercising send, route and broadcast."""
    network.send(Message("expand", 0, 1, values=2))
    network.route(Message("query", 0, 15, values=3))
    network.broadcast(5, lambda nb: Message("phase1", 5, nb))
    network.route_along([0, 1, 2, 3], Message("feature", 0, 3, values=4))
    network.run()


def _delivery_trace(nodes):
    return {
        v: [(m.kind, m.src, m.values, t) for m, t in node.received]
        for v, node in nodes.items()
    }


def test_fast_path_matches_general_path():
    """The zero-overhead path (jitter=0, no loss) must be observationally
    identical to the general per-hop path.  A zero-probability loss model
    forces the general machinery (per-hop charging, per-attempt delays)
    without changing any outcome, so every counter, energy charge and
    arrival time must agree bit for bit."""
    from repro.sim.energy import EnergyModel
    from repro.sim.radio import LossyLinkModel

    fast_net, fast_nodes = _grid_network(energy=EnergyModel())
    assert fast_net._fast
    general_net, general_nodes = _grid_network(
        energy=EnergyModel(), loss=LossyLinkModel(0.0)
    )
    assert not general_net._fast

    _drive_mixed_traffic(fast_net)
    _drive_mixed_traffic(general_net)

    assert fast_net.stats.packets_by_kind == general_net.stats.packets_by_kind
    assert fast_net.stats.values_by_kind == general_net.stats.values_by_kind
    assert fast_net.stats.values_by_category == general_net.stats.values_by_category
    assert fast_net.stats.total_packets == general_net.stats.total_packets
    assert fast_net.energy.spent == general_net.energy.spent
    assert _delivery_trace(fast_nodes) == _delivery_trace(general_nodes)
    assert fast_net.kernel.now == general_net.kernel.now


def test_jitter_deterministic_per_seed():
    """Batched jitter sampling stays reproducible: same seed, same arrivals."""
    traces = []
    for _ in range(2):
        network, nodes = _grid_network(jitter=0.5, jitter_seed=7)
        _drive_mixed_traffic(network)
        traces.append(_delivery_trace(nodes))
    assert traces[0] == traces[1]
    network, nodes = _grid_network(jitter=0.5, jitter_seed=8)
    _drive_mixed_traffic(network)
    assert _delivery_trace(nodes) != traces[0]


# ----------------------------------------------------------------------
# path cache
# ----------------------------------------------------------------------
def _assert_paths_match_networkx(network):
    graph = network.graph
    for src in graph.nodes:
        expected = nx.single_source_shortest_path(graph, src)
        for dst in graph.nodes:
            assert tuple(network.shortest_path(src, dst)) == tuple(expected[dst])


def test_bfs_paths_match_networkx():
    """BFS-on-demand must reproduce networkx's exact paths (not just
    lengths) — routed energy traces depend on the tie-breaking — on both
    engines, also after a link goes down and comes back (which moves it
    to the end of both endpoints' adjacency)."""
    gnp = nx.gnp_random_graph(24, 0.15, seed=3)
    gnp.add_edges_from(nx.path_graph(24).edges)  # guarantee connectivity
    geometric = random_geometric_topology(60, seed=7).graph
    for graph in (gnp, geometric):
        bridges = {frozenset(e) for e in nx.bridges(graph)}
        u, v = next(e for e in graph.edges if frozenset(e) not in bridges)
        for engine in ("object", "array"):
            network = Network(graph.copy(), engine=engine)
            _assert_paths_match_networkx(network)
            assert network.remove_edge(u, v)
            _assert_paths_match_networkx(network)
            assert network.restore_edge(u, v)
            _assert_paths_match_networkx(network)


def test_path_cache_eviction_stays_correct():
    graph = nx.path_graph(6)
    network = Network(graph, EventKernel(), path_cache_size=2)
    for src in range(6):
        for dst in range(6):
            path = network.shortest_path(src, dst)
            assert len(path) == abs(src - dst) + 1
    assert len(network._path_cache) <= 2
    assert tuple(network.shortest_path(5, 0)) == (5, 4, 3, 2, 1, 0)


def test_invalidate_paths_after_topology_change():
    graph = nx.path_graph(4)
    network = Network(graph, EventKernel())
    nodes = {i: Recorder(i, network) for i in range(4)}
    assert network.hop_distance(0, 3) == 3
    graph.add_edge(0, 3)
    # Precomputed adjacency is stale until the caller resynchronizes.
    with pytest.raises(ValueError, match="adjacency"):
        network.send(Message("feature", 0, 3))
    network.invalidate_paths()
    assert network.hop_distance(0, 3) == 1
    network.send(Message("feature", 0, 3))
    network.run()
    assert len(nodes[3].received) == 1


# ----------------------------------------------------------------------
# incremental adjacency patching (both engines)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ["object", "array"])
def test_adjacency_patching_matches_full_rebuild(engine):
    """Random crash/restore/link-flap sequences: the patched adjacency must
    equal a from-scratch rebuild over the mutated graph, row for row."""
    import random

    rng = random.Random(99)
    base = grid_topology(6, 6).graph
    network = Network(base.copy(), engine=engine)
    removed_nodes = {}
    removed_edges = set()

    for _ in range(120):
        op = rng.choice(["crash", "restore", "down", "up"])
        if op == "crash":
            alive = [v for v in network.graph.nodes if network.is_alive(v)]
            if len(alive) > 2:
                victim = rng.choice(alive)
                removed_nodes[victim] = network.remove_node(victim)
        elif op == "restore" and removed_nodes:
            victim = rng.choice(sorted(removed_nodes))
            neighbours = [
                v for v in removed_nodes.pop(victim) if v in network.graph.nodes
            ]
            network.restore_node(victim, neighbours)
        elif op == "down":
            edges = list(network.graph.edges)
            if edges:
                u, v = rng.choice(edges)
                if network.remove_edge(u, v):
                    removed_edges.add((u, v))
        elif op == "up" and removed_edges:
            u, v = rng.choice(sorted(removed_edges))
            if u in network.graph.nodes and v in network.graph.nodes:
                network.restore_edge(u, v)
            removed_edges.discard((u, v))

    # Rebuild over the *same* graph object: nx .copy() normalizes adjacency
    # order (it re-adds edges lowest-node-first), so a copy is not the
    # reference — the mutated graph's own insertion order is.
    fresh = Network(network.graph, engine=engine)
    assert set(network.graph.nodes) == set(fresh.graph.nodes)
    for node in network.graph.nodes:
        assert network._adj[node] == fresh._adj[node], node
        assert network._adj_sets[node] == fresh._adj_sets[node], node
    for gone in removed_nodes:
        assert gone not in network._adj
        assert network._adj.get(gone) is None


@pytest.mark.parametrize("engine", ["object", "array"])
def test_adjacency_patch_preserves_neighbour_order(engine):
    network = Network(grid_topology(4, 4).graph.copy(), engine=engine)
    before = network._adj[5]
    assert network.remove_edge(5, 6)
    after = network._adj[5]
    # removal filters in place: surviving neighbours keep their order
    assert after == tuple(v for v in before if v != 6)
    network.restore_edge(5, 6)
    # restoration appends, matching graph.adj insertion order
    assert network._adj[5] == after + (6,)
    fresh = Network(network.graph.copy(), engine=engine)
    assert network._adj[5] == fresh._adj[5]
