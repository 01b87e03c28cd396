"""Fast-vs-object engine equivalence (DESIGN.md §8 determinism contract).

The array engine must be byte-identical to the reference object engine at
a fixed seed: same clusterings, same stats totals, same trace streams —
including fault-injected runs, where cohort batching and CSR patching are
under the most pressure.  These tests pin that contract.
"""

import dataclasses

import numpy as np
import pytest

import repro.core.elink_vec as elink_vec
from repro.core import ELinkConfig, run_elink
from repro.features import EuclideanMetric
from repro.geometry import Topology, grid_topology, random_geometric_topology
from repro.obs.trace import Tracer
from repro.sim import (
    ENGINE_ENV,
    ArrayNetwork,
    EventKernel,
    Network,
    TimerWheelKernel,
    default_engine,
)
from repro.verify.harness import ScenarioSpec, build_scenario, run_scenario
from repro.verify.replay import diff_traces, replay_check


def _topology(kind: str) -> Topology:
    if kind == "grid":
        return grid_topology(6, 6)
    return random_geometric_topology(80, seed=11)


def _features(topology: Topology) -> dict:
    return {
        node: np.array([(x + 2 * y) / 5.0])
        for node, (x, y) in topology.positions.items()
    }


def _run(topology, engine: str, signalling: str):
    tracer = Tracer()
    network = Network(topology.graph.copy(), engine=engine)
    result = run_elink(
        Topology(network.graph, dict(topology.positions)),
        _features(topology),
        EuclideanMetric(),
        ELinkConfig(delta=0.6, signalling=signalling),
        network=network,
        tracer=tracer,
    )
    return result, tracer


# ----------------------------------------------------------------------
# engine selector
# ----------------------------------------------------------------------
def test_selector_dispatches_to_array_engine(small_grid):
    network = Network(small_grid.graph, engine="array")
    assert isinstance(network, ArrayNetwork)
    assert network.engine == "array"
    assert isinstance(network.kernel, TimerWheelKernel)


def test_selector_defaults_to_object_engine(small_grid):
    network = Network(small_grid.graph)
    assert type(network) is Network
    assert network.engine == "object"
    assert type(network.kernel) is EventKernel


def test_selector_rejects_unknown_engine(small_grid):
    # "sharded" names a retired engine: it must fail loudly, never fall back.
    for engine in ("vectorized", "sharded"):
        with pytest.raises(ValueError, match="must be one of"):
            Network(small_grid.graph, engine=engine)
        with pytest.raises(ValueError, match="engine must be"):
            ScenarioSpec(engine=engine)


def test_selector_follows_environment(small_grid, monkeypatch):
    monkeypatch.setenv(ENGINE_ENV, "array")
    assert default_engine() == "array"
    assert isinstance(Network(small_grid.graph), ArrayNetwork)
    for value in ("warp", "sharded"):
        monkeypatch.setenv(ENGINE_ENV, value)
        with pytest.raises(ValueError, match="must be one of"):
            default_engine()
        with pytest.raises(ValueError, match="must be one of"):
            Network(small_grid.graph)


def test_explicit_kernel_overrides_engine_default(small_grid):
    kernel = EventKernel()
    network = Network(small_grid.graph, kernel, engine="array")
    assert network.kernel is kernel
    assert isinstance(network, ArrayNetwork)


# ----------------------------------------------------------------------
# byte-identity on clean runs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("topology_kind", ["grid", "geometric"])
@pytest.mark.parametrize("signalling", ["implicit", "explicit"])
def test_engines_byte_identical_traces(topology_kind, signalling):
    topology = _topology(topology_kind)
    obj_result, obj_tracer = _run(topology, "object", signalling)
    arr_result, arr_tracer = _run(topology, "array", signalling)

    assert diff_traces(obj_tracer.events(), arr_tracer.events()) is None
    assert obj_result.clustering.assignment == arr_result.clustering.assignment
    assert obj_result.clustering.parent == arr_result.clustering.parent
    assert obj_result.stats.snapshot() == arr_result.stats.snapshot()
    assert obj_result.completion_time == arr_result.completion_time
    assert obj_result.protocol_time == arr_result.protocol_time
    assert obj_result.total_messages == arr_result.total_messages


# ----------------------------------------------------------------------
# byte-identity under faults (chaos scenario through the replay differ)
# ----------------------------------------------------------------------
def _chaos_trace(spec: ScenarioSpec) -> tuple:
    tracer = Tracer()
    result = run_scenario(spec, tracer=tracer)
    return result, tracer


@pytest.mark.parametrize(
    "spec_kwargs",
    [
        {"crash_fraction": 0.05, "churn_events": 2, "signalling": "explicit"},
        {"crash_fraction": 0.1, "churn_events": 0, "signalling": "implicit"},
        {
            "topology": "geometric",
            "side": 6,
            "crash_fraction": 0.05,
            "churn_events": 2,
            "signalling": "explicit",
        },
    ],
)
def test_engines_byte_identical_under_faults(spec_kwargs):
    obj_result, obj_tracer = _chaos_trace(ScenarioSpec(engine="object", **spec_kwargs))
    arr_result, arr_tracer = _chaos_trace(ScenarioSpec(engine="array", **spec_kwargs))
    divergence = diff_traces(obj_tracer.events(), arr_tracer.events())
    assert divergence is None, str(divergence)
    assert obj_result.clustering.assignment == arr_result.clustering.assignment
    assert obj_result.clustering.parent == arr_result.clustering.parent
    assert obj_result.stats.snapshot() == arr_result.stats.snapshot()


def test_array_engine_replay_deterministic():
    report = replay_check(
        ScenarioSpec(engine="array", crash_fraction=0.05, churn_events=2)
    )
    assert report.identical, str(report)
    assert report.events > 0


# ----------------------------------------------------------------------
# cohort batching must not change stats or delivery to crashed nodes
# ----------------------------------------------------------------------
def test_batched_broadcast_matches_reference_stats(small_grid):
    class Recorder:
        def __init__(self):
            self.seen = []

        def handle_message(self, message):
            self.seen.append((message.kind, message.src, message.dst, message.values))

    nets = {}
    for engine in ("object", "array"):
        network = Network(small_grid.graph.copy(), engine=engine)
        recorder = Recorder()
        for node in network.graph.nodes:
            network.register(node, recorder)
        for node in sorted(network.graph.nodes):
            network.broadcast_values(node, "feature", payload=None, values=3)
        network.run()
        nets[engine] = (network, recorder)

    obj_net, obj_rec = nets["object"]
    arr_net, arr_rec = nets["array"]
    assert obj_rec.seen == arr_rec.seen
    assert obj_net.stats.snapshot() == arr_net.stats.snapshot()


# ----------------------------------------------------------------------
# vectorised round processor vs per-message handlers (DESIGN.md §8.2)
# ----------------------------------------------------------------------
def _vec_summary(result):
    return (
        result.clustering.assignment,
        result.clustering.parent,
        result.stats.snapshot(),
        result.completion_time,
        result.protocol_time,
        result.total_switches,
        result.repaired_components,
    )


def _vec_run(topology, engine, signalling, vectorized):
    network = Network(topology.graph.copy(), engine=engine)
    return run_elink(
        Topology(network.graph, dict(topology.positions)),
        _features(topology),
        EuclideanMetric(),
        ELinkConfig(delta=0.6, signalling=signalling, vectorized=vectorized),
        network=network,
    )


def _spy_vectorizer(monkeypatch):
    """Wrap try_run_vectorized to record whether it engaged."""
    engaged = []
    real = elink_vec.try_run_vectorized

    def spy(*args, **kwargs):
        out = real(*args, **kwargs)
        engaged.append(out is not None)
        return out

    monkeypatch.setattr(elink_vec, "try_run_vectorized", spy)
    return engaged


@pytest.mark.parametrize("topology_kind", ["grid", "geometric"])
@pytest.mark.parametrize("signalling", ["implicit", "explicit"])
@pytest.mark.parametrize("engine", ["object", "array"])
def test_vectorized_rounds_identical_to_handlers(
    topology_kind, signalling, engine, monkeypatch
):
    engaged = _spy_vectorizer(monkeypatch)
    topology = _topology(topology_kind)
    handler = _vec_run(topology, engine, signalling, vectorized=False)
    batched = _vec_run(topology, engine, signalling, vectorized=True)
    assert engaged == [True]  # the batch path really ran, not a fallback
    assert _vec_summary(handler) == _vec_summary(batched)


def _spy_shortest_path(monkeypatch):
    """Count calls to ``Network.shortest_path`` (both engines inherit it)."""
    calls = []
    real = Network.shortest_path

    def spy(self, src, dst):
        calls.append((src, dst))
        return real(self, src, dst)

    monkeypatch.setattr(Network, "shortest_path", spy)
    return calls


@pytest.mark.parametrize("engine", ["object", "array"])
def test_vectorized_explicit_routes_from_hop_table(engine, monkeypatch):
    """Explicit signalling on a field with long quad edges (dozens of
    hops), with the hop-table scratch shrunk so its BFS runs over many
    source chunks: identical to the handler path, and the batch path never
    runs a per-message shortest-path search."""
    monkeypatch.setattr(elink_vec, "_HOP_SCRATCH", 600 * 16)
    topology = random_geometric_topology(600, seed=5)
    calls = _spy_shortest_path(monkeypatch)
    handler = _vec_run(topology, engine, "explicit", vectorized=False)
    assert calls  # the handler path routes through BFS
    calls.clear()
    engaged = _spy_vectorizer(monkeypatch)
    batched = _vec_run(topology, engine, "explicit", vectorized=True)
    assert engaged == [True]
    assert calls == []
    assert _vec_summary(handler) == _vec_summary(batched)


def test_quad_edge_hops_match_networkx(monkeypatch):
    import networkx as nx

    from repro.geometry.quadtree import QuadTreeDecomposition

    monkeypatch.setattr(elink_vec, "_HOP_SCRATCH", 300 * 8)
    topology = random_geometric_topology(300, seed=4)
    quadtree = QuadTreeDecomposition(topology)
    network = Network(topology.graph, engine="array")
    index = network._node_index
    parent = np.array([index[quadtree.quad_parent[v]] for v in network._node_list])
    hops = elink_vec._quad_edge_hops(network._indptr, network._indices, parent)
    for i, v in enumerate(network._node_list):
        expected = nx.shortest_path_length(topology.graph, v, quadtree.quad_parent[v])
        assert hops[i] == expected


@pytest.mark.parametrize("engine", ["object", "array"])
def test_disconnected_explicit_raises_on_both_paths(engine):
    """A quad edge across two components: the batch path raises the same
    ``NetworkXNoPath`` as ``Network.route`` on the handler path."""
    import networkx as nx

    half = grid_topology(4, 4)
    graph = nx.disjoint_union(half.graph, half.graph)
    positions = dict(half.positions)
    positions.update({v + 16: (x + 10.0, y) for v, (x, y) in half.positions.items()})
    topology = Topology(graph, positions)
    messages = []
    for vectorized in (False, True):
        with pytest.raises(nx.NetworkXNoPath) as err:
            _vec_run(topology, engine, "explicit", vectorized=vectorized)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


def test_chaos_falls_back_to_handler_path_identically(monkeypatch):
    """With a fault injector armed, ``vectorized=True`` must decline —
    without ever reaching the batch path — and match the handler run."""
    engaged = _spy_vectorizer(monkeypatch)
    summaries = []
    for vectorized in (False, True):
        spec = ScenarioSpec(crash_fraction=0.05, engine="array")
        topology, features, metric, config, quadtree, network, injector = (
            build_scenario(spec)
        )
        config = dataclasses.replace(config, vectorized=vectorized)
        result = run_elink(
            topology, features, metric, config,
            quadtree=quadtree, network=network, injector=injector,
        )
        summaries.append(_vec_summary(result))
    assert summaries[0] == summaries[1]
    assert engaged == []  # injector-armed runs never call the vectorizer


def test_traced_runs_stay_on_handler_path(monkeypatch):
    """A tracer forces the per-message handlers (so traced streams stay
    byte-identical across engines); the batch path must decline."""
    engaged = _spy_vectorizer(monkeypatch)
    topology = _topology("grid")
    tracer = Tracer()
    network = Network(topology.graph.copy(), engine="array")
    run_elink(
        Topology(network.graph, dict(topology.positions)),
        _features(topology),
        EuclideanMetric(),
        ELinkConfig(delta=0.6, vectorized=True),
        network=network,
        tracer=tracer,
    )
    assert engaged == [False]
    assert sum(1 for _ in tracer.events()) > 0


def test_cohort_recheck_of_crashed_recipients(small_grid):
    """A handler crashing a later cohort member must suppress its delivery."""

    class Crasher:
        def __init__(self, network, victim):
            self.network = network
            self.victim = victim
            self.delivered = []

        def handle_message(self, message):
            self.delivered.append(message.dst)
            if message.dst != self.victim and self.network.is_alive(self.victim):
                self.network.remove_node(self.victim)

    results = {}
    for engine in ("object", "array"):
        network = Network(small_grid.graph.copy(), engine=engine)
        neighbours = list(network.neighbors(0))
        victim = neighbours[-1]
        handler = Crasher(network, victim)
        for node in network.graph.nodes:
            network.register(node, handler)
        network.broadcast_values(0, "feature")
        network.run()
        results[engine] = (tuple(handler.delivered), network.stats.snapshot())
    assert results["object"] == results["array"]
    assert results["object"][0]  # someone was delivered before the crash
