"""Regenerate ``tests/data/query_costs.json``, the pinned query-cost fixture.

Every forced planner backend (``mtree`` / ``backbone`` / ``flood``) runs a
seeded ``balanced`` workload over three synthetic scenarios (n = 50, 200,
400) in three topology modes:

- ``fault-free``;
- ``dead-hub`` — the highest-degree backbone root crashed, unrepaired;
- ``re-elected`` — the highest-degree multi-member root crashed and a
  surviving member took over after
  :meth:`~repro.index.backbone.BackboneTree.reroute_around`.

Each row records ``(op, backend, messages, drops, coverage, answer)``,
the answer in :func:`~repro.queries.planner.canonical_answer` form.  The
flood backend is unavailable under a degraded topology, so the degraded
modes have no flood rows.  ``tests/test_query_costs.py`` recomputes every
row and asserts equality, so any change to what a query costs shows up
as a fixture diff.  Regenerate after an intended cost change::

    PYTHONPATH=src python tools/make_query_costs.py [OUT_PATH]

The default output path is ``tests/data/query_costs.json`` relative to
the repository root; commit the refreshed file with the change.
"""

from __future__ import annotations

import copy
import json
import pathlib
import sys
from typing import Any, Iterator

from repro.queries.load import ScenarioSpec, WorkloadSpec, build_scenario, generate_workload
from repro.queries.planner import PLAN_BACKENDS, QueryPlanner, canonical_answer

#: (n, dataset seed) of the three scenarios.
SCENARIOS = ((50, 42), (200, 42), (400, 42))
MODES = ("fault-free", "dead-hub", "re-elected")
QUERIES = 24
WORKLOAD_SEED = 5


def _hub(ctx: dict[str, Any], *, min_members: int = 1) -> Any:
    """The highest-degree backbone root with at least *min_members*."""
    degree = ctx["backbone"].tree.degree
    clustering = ctx["clustering"]
    return max(
        (r for r in clustering.roots if len(clustering.members(r)) >= min_members),
        key=lambda r: (degree(r), repr(r)),
    )


def _planner(ctx: dict[str, Any], mode: str) -> QueryPlanner:
    graph, backbone, degraded = ctx["graph"], ctx["backbone"], {}
    if mode == "dead-hub":
        degraded = {"dead": {_hub(ctx)}}
    elif mode == "re-elected":
        dead = _hub(ctx, min_members=2)
        replacement = min((m for m in ctx["clustering"].members(dead) if m != dead), key=repr)
        graph = graph.copy()
        graph.remove_node(dead)
        backbone = copy.deepcopy(backbone)
        backbone.reroute_around(graph, dead, replacement)
        degraded = {"dead": {dead}, "root_replacements": {dead: replacement}}
    return QueryPlanner(
        graph, ctx["clustering"], ctx["features"], ctx["metric"], ctx["mtree"], backbone,
        **degraded,
    )


def _answer(op: str, result: Any) -> Any:
    """The canonical answer in JSON form (sets sorted, tuples as lists)."""
    answer = canonical_answer(op, result)
    if op == "range":
        return sorted(answer, key=repr)
    if op == "knn":
        return [list(pair) for pair in answer]
    return None if answer is None else list(answer)


def build_rows() -> Iterator[dict[str, Any]]:
    """Every fixture row, in a deterministic order."""
    for n, seed in SCENARIOS:
        ctx = build_scenario(ScenarioSpec(n=n, seed=seed))
        nodes = sorted(ctx["graph"].nodes, key=repr)
        spec = WorkloadSpec(mix="balanced", queries=QUERIES, seed=WORKLOAD_SEED)
        queries = generate_workload(nodes, ctx["features"], spec)
        for mode in MODES:
            planner = _planner(ctx, mode)
            backends = PLAN_BACKENDS if mode == "fault-free" else ("mtree", "backbone")
            for index, query in enumerate(queries):
                for backend in backends:
                    result = getattr(planner, query.op)(**query.kwargs(), backend=backend).result
                    yield {
                        "scenario": f"n{n}-s{seed}",
                        "mode": mode,
                        "query": index,
                        "op": str(query.op),
                        "backend": backend,
                        "messages": result.messages,
                        "drops": result.drops,
                        "coverage": result.coverage,
                        "answer": _answer(query.op, result),
                    }


def main(argv: list[str]) -> int:
    """Write the fixture to ``argv[0]`` (default ``tests/data/query_costs.json``)."""
    root = pathlib.Path(__file__).resolve().parents[1]
    out = pathlib.Path(argv[0]) if argv else root / "tests" / "data" / "query_costs.json"
    rows = list(build_rows())
    out.write_text("[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]\n")
    print(f"wrote {len(rows)} rows to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
