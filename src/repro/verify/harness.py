"""Deterministic chaos-scenario harness behind the verification tooling.

One scenario shape, three consumers: the ``python -m repro verify`` CLI
runs a single verified scenario, the replay differ
(:mod:`repro.verify.replay`) runs the same scenario twice and diffs the
traces, and the fuzz suite (:mod:`repro.verify.fuzz`) sweeps randomized
:class:`ScenarioSpec` instances.  The shape mirrors the chaos ablation
experiment — a grid topology with a smooth scalar field, explicit
signalling with failure detection, and a seed-deterministic
:class:`~repro.sim.faults.FaultPlan` whose crash window overlaps cluster
formation — because that is the hardest regime the protocol supports: the
repair machinery is live and episodes lose participants mid-flight.

Everything here is a pure function of the spec, so a spec plus a seed is
a complete, replayable bug report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import ELinkConfig, run_elink
from repro.core.elink import ELinkResult, compute_kappa
from repro.features.metrics import EuclideanMetric
from repro.geometry.quadtree import QuadTreeDecomposition
from repro.geometry.topology import Topology, grid_topology, random_geometric_topology
from repro.obs.trace import Tracer
from repro.sim import FaultInjector, FaultPlan, Network
from repro.verify.runtime import verification


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete, seed-deterministic chaos scenario description."""

    #: Grid side length (the topology has ``side * side`` nodes).
    side: int = 7
    #: Seed for the fault plan (the topology and features are seed-free).
    seed: int = 0
    #: δ-clustering threshold.
    delta: float = 1.0
    #: Fraction of unprotected nodes crashed mid-run.
    crash_fraction: float = 0.1
    #: Link-flap events drawn from the grid's edges.
    churn_events: int = 0
    #: ELink signalling mode; explicit exercises the episode machinery.
    signalling: str = "explicit"
    #: Simulation engine ("object" | "array"); None follows
    #: REPRO_ENGINE.  Cross-engine byte-identity is checked by diffing
    #: traces from two specs differing only in this field.
    engine: str | None = None
    #: Topology family: "grid" (the default chaos shape) or "geometric"
    #: (uniform-random placement with radio-range links, paper §8.1).
    topology: str = "grid"

    def __post_init__(self) -> None:
        if self.side < 2:
            raise ValueError(f"side must be >= 2, got {self.side}")
        if not 0.0 <= self.crash_fraction <= 1.0:
            raise ValueError(f"crash_fraction must be in [0, 1], got {self.crash_fraction}")
        if self.engine not in (None, "object", "array"):
            raise ValueError(f"engine must be 'object' or 'array', got {self.engine!r}")
        if self.topology not in ("grid", "geometric"):
            raise ValueError(
                f"topology must be 'grid' or 'geometric', got {self.topology!r}"
            )


def build_scenario(
    spec: ScenarioSpec,
) -> tuple[Topology, dict, EuclideanMetric, ELinkConfig, QuadTreeDecomposition, Network, FaultInjector]:
    """Materialize *spec* into fresh run components.

    Each call builds an independent graph copy (the injector mutates it in
    place), so calling twice with the same spec yields two byte-identical
    runs — the property the replay differ checks.
    """
    if spec.topology == "geometric":
        base = random_geometric_topology(spec.side * spec.side, seed=spec.seed)
    else:
        base = grid_topology(spec.side, spec.side)
    graph = base.graph.copy()
    topology = Topology(graph, dict(base.positions))
    features = {
        node: np.array([(x + y) / 10.0]) for node, (x, y) in topology.positions.items()
    }
    config = ELinkConfig(
        delta=spec.delta, signalling=spec.signalling, failure_detection=True
    )
    quadtree = QuadTreeDecomposition(topology)
    kappa = compute_kappa(topology.num_nodes, config.gamma)
    network = Network(graph, engine=spec.engine)
    # The quadtree root is protected: it anchors the explicit round cascade
    # and result collection, same as the runner's --crash path.
    plan = FaultPlan.random(
        sorted(graph.nodes),
        seed=spec.seed,
        crash_fraction=spec.crash_fraction,
        crash_window=(0.05 * kappa, 0.75 * kappa),
        churn_edges=sorted(graph.edges),
        churn_events=spec.churn_events,
        churn_window=(0.05 * kappa, 0.75 * kappa),
        churn_downtime=2.0,
        protected=(quadtree.root,),
    )
    injector = FaultInjector(network, plan)
    return topology, features, EuclideanMetric(), config, quadtree, network, injector


def run_scenario(
    spec: ScenarioSpec, *, level: str = "full", tracer: Tracer | None = None
) -> ELinkResult:
    """Run *spec* at verification *level*; raises on any violation.

    Pass a :class:`Tracer` to capture the run's event stream (the replay
    differ does, to export and diff JSONL traces).
    """
    topology, features, metric, config, quadtree, network, injector = build_scenario(spec)
    with verification(level):
        return run_elink(
            topology,
            features,
            metric,
            config,
            quadtree=quadtree,
            network=network,
            injector=injector,
            tracer=tracer,
        )
