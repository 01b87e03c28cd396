"""Pinned message costs of every forced query backend.

``tests/data/query_costs.json`` records ``(messages, drops, coverage,
answer)`` for each query of a seeded workload, on every forced backend,
over fault-free, dead-hub and re-elected-root scenarios (see
``tools/make_query_costs.py``, which both generates the fixture and
recomputes the rows here).  Any change to what a query costs — degraded
or not — shows up as a row mismatch.
"""

import importlib.util
import json
import pathlib

import networkx as nx
import numpy as np
import pytest

from repro.queries.load import ScenarioSpec, build_scenario

ROOT = pathlib.Path(__file__).resolve().parents[1]
FIXTURE = ROOT / "tests" / "data" / "query_costs.json"


def _tool():
    spec = importlib.util.spec_from_file_location(
        "make_query_costs", ROOT / "tools" / "make_query_costs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_query_costs_match_fixture():
    expected = json.loads(FIXTURE.read_text())
    actual = list(_tool().build_rows())
    assert len(actual) == len(expected)
    mismatched = [
        (want, got) for want, got in zip(expected, actual) if want != got
    ]
    assert not mismatched, (
        f"{len(mismatched)} rows differ; first: {mismatched[0]} "
        "(regenerate with tools/make_query_costs.py if intended)"
    )


def test_backends_agree_on_every_fixture_query():
    """Every forced backend returns the same answer and coverage for
    each pinned query, degraded or not — including the re-elected n=50
    scenario, whose repaired backbone leaves one cluster unreachable."""
    answers = {}
    for row in json.loads(FIXTURE.read_text()):
        key = (row["scenario"], row["mode"], row["query"])
        answers.setdefault(key, set()).add(json.dumps([row["answer"], row["coverage"]]))
    assert all(len(seen) == 1 for seen in answers.values()), [
        key for key, seen in answers.items() if len(seen) > 1
    ]


@pytest.fixture(scope="module")
def scenario():
    return build_scenario(ScenarioSpec(n=200, seed=42))


@pytest.mark.parametrize("mode", ["fault-free", "dead-hub"])
def test_backbone_knn_charges_entry_hops_both_ways(scenario, mode):
    """The forced backbone k-NN scan from a depth-d initiator costs
    exactly ``(dim+1+k)·d`` more than from its cluster root: the query
    travels d hops down the cluster tree and the k-best list d hops back,
    with or without a dead backbone hub.
    """
    tool = _tool()
    planner, clustering = tool._planner(scenario, mode), scenario["clustering"]
    hub = tool._hub(scenario)
    initiator = max(
        (n for n in clustering.assignment if clustering.root_of(n) != hub),
        key=lambda n: (len(clustering.path_to_root(n)), repr(n)),
    )
    depth = len(clustering.path_to_root(initiator)) - 1
    root = clustering.root_of(initiator)
    assert depth >= 2
    dim = planner.stats.dim
    q = np.asarray(scenario["features"][initiator], dtype=np.float64)
    for k in (1, 5):
        deep = planner.knn(q, k, initiator, backend="backbone")
        at_root = planner.knn(q, k, root, backend="backbone")
        assert deep.messages - at_root.messages == (dim + 1 + k) * depth
        # The estimate charges the same entry term.
        assert (
            planner.plan_knn(q, k, initiator).estimates["backbone"]
            - planner.plan_knn(q, k, root).estimates["backbone"]
            == (dim + 1 + k) * depth
        )


def test_backbone_forest_loses_the_other_component():
    """When ``reroute_around`` splits the backbone into a forest, roots in
    the other component are lost.  In the re-elected n=50 scenario the
    backbone splits 10 + 1 roots; root 45 (1 surviving member of 49) is
    unreachable from the big component, so coverage is 48/49, not 1.0.
    A pruned walk loses it too, since pruning never crosses components.
    """
    view = _tool()._planner(build_scenario(ScenarioSpec(n=50, seed=42)), "re-elected").view
    small, big = sorted(nx.connected_components(view.backbone.tree), key=len)
    assert (small, len(big)) == ({45}, 10)
    start = min(big, key=repr)
    reach = view.reach(start)
    assert reach.lost == {45}
    assert view.coverage(reach.lost) == 48 / 49
    assert view.walk(start, lambda src, dst: True).lost == {45}
    # From the isolated root, the whole big component is out of reach.
    assert view.reach(45).lost == big
    assert view.coverage(big) == pytest.approx(1 / 49)
