"""The four benchmark workloads.

Each workload builds its inputs from the seed (set-up), measures a phase
of client operations for the requested number of seconds, then checks the
program's outputs outside the timed phase.  See README.md in this
directory for why each workload exists and which layers it stresses.

An *operation* is the workload's unit of client work:

- ``scale-implicit``, ``paper-explicit``: one δ-clustering job of a field
  (``QuadTreeDecomposition`` + ``run_elink`` on a fresh array network);
- ``query-zipf``: one query through the ``QueryPlanner``;
- ``serve-mixed``: one query through ``QueryService.dispatch``, sent after
  every ``QUERY_EVERY`` readings the client applies, so the time spent
  applying readings between queries counts against ``ops_per_s``.

The measured phase repeats one fixed batch of operations — a *cycle* —
from the same starting state as often as the run's seconds allow: the
job, the 1,000-query replay on a fresh planner, the whole reading stream
on a fresh service.  Every cycle does identical work, and later cycles
must reproduce the first one's simulated results.  Times are reference
times (see ``hostspeed.py``).

Every workload returns a :class:`Outcome`; ``run.py`` turns it into the
printed metrics.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from hostspeed import HostSpeed
from tracing import Recorder

# -- sizes ----------------------------------------------------------------
#: Synthetic-field ELink threshold for both clustering workloads.
CLUSTER_DELTA = 0.05
#: AR-fit readings per node, as in the fig13 scale mode.
FIT_READINGS = 200
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: The Death Valley terrain is one fixed field, as in the paper; the
#: benchmark seed drives the query stream over it.
DEATH_VALLEY_SEED = 11
DEATH_VALLEY_DELTA = 200.0
ZIPF_RADII = (25.0, 100.0, 300.0)  # metres of elevation
ZIPF_GAMMA = 100.0
#: Queries in one query-zipf cycle: at least 10 latencies lie beyond p99.
QUERIES = 1000
#: Every AUDIT_EVERY-th query is checked against a reference answer.
AUDIT_EVERY = 10
SERVE_DELTA, SERVE_SLACK = 0.35, 0.05
SERVE_BOOTSTRAP = 12
SERVE_STALENESS = 500
QUERY_EVERY = 20
SERVE_RADII = (0.02, 0.05, 0.1)  # AR(1) coefficient units
SERVE_GAMMA = 0.05

#: paper-explicit clusters this fixed field whatever the seed: explicit
#: cost follows the topology, and between 2500-node fields it varies by
#: about 20%.  Of fields 0-2 this one has the median job time.
PAPER_FIELD_SEED = 2
#: serve-mixed replays one fixed stream; the seed drives the queries.
SERVE_STREAM_SEED = 7

FULL = {
    "scale-implicit": {"n": 100_000},
    "paper-explicit": {"n": 2_500},
    "query-zipf": {"sensors": 2_500, "queries": QUERIES},
    "serve-mixed": {"n": 500, "rounds": 60},
}
#: Tiny sizes for the smoke test (same code paths, same metric names).
SMOKE = {
    "scale-implicit": {"n": 5_000},
    "paper-explicit": {"n": 300},
    "query-zipf": {"sensors": 300, "queries": 60},
    "serve-mixed": {"n": 60, "rounds": 20},
}


@dataclass
class Run:
    """Arguments of one benchmark run."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    smoke: bool
    recorder: Recorder

    @property
    def size(self) -> dict[str, int]:
        return (SMOKE if self.smoke else FULL)[self.workload]


Span = tuple[float, float]  # (start, end) on the perf_counter clock


@dataclass
class Outcome:
    """What one workload run measured and checked.

    Timings are kept as spans and turned into reference seconds at the end
    (see ``hostspeed.py``), when the probes around every span have run.
    """

    setup: list[Span] = field(default_factory=list)
    #: Operation spans of every cycle, in the same operation order.
    cycles: list[list[Span]] = field(default_factory=list)
    #: Span of every cycle, and spans inside them that are not measured.
    cycle_spans: list[Span] = field(default_factory=list)
    excluded: list[Span] = field(default_factory=list)
    ops: int = 0
    measured_s: float = 0.0
    msgs_per_op: float = 0.0
    clusters: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: Simulated statistics at this seed; identical across runs of the
    #: same code, so a host-only change can be shown to leave them alone.
    fingerprint: dict[str, Any] = field(default_factory=dict)
    #: Per-layer values the traced run derives outside the recorder.
    layer: dict[str, float] = field(default_factory=dict)
    #: (untraced, traced) spans of the same work, traced run only.
    overhead: tuple[list[Span], list[Span]] | None = None
    #: High-water mark after set-up and the first cycle (see ``add_cycle``).
    peak_rss_mb: float = 0.0

    def add_cycle(self, ops: list[Span], span: Span) -> None:
        """Record one measured cycle; the first also fixes the peak RSS.

        The high-water mark is taken after set-up and the first cycle,
        never at the end: how many cycles fit in the run depends on
        machine speed, and each extra one can nudge the allocator's
        high-water mark.
        """
        self.cycles.append(ops)
        self.cycle_spans.append(span)
        self.ops += len(ops)
        self.measured_s += span[1] - span[0]
        if not self.peak_rss_mb:
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def fits_another(self, elapsed: float, seconds: float) -> bool:
        """True if one more cycle, of the mean length so far, fits *seconds*."""
        done = len(self.cycles)
        return not done or elapsed * (1 + 1 / done) <= seconds

    def reference_s(self, speed: HostSpeed, spans: list[Span]) -> float:
        """Total reference seconds of *spans*, less the excluded spans inside them."""
        total = sum(speed.reference_s(t0, t1) for t0, t1 in spans)
        for x0, x1 in self.excluded:
            if any(t0 <= x0 and x1 <= t1 for t0, t1 in spans):
                total -= speed.reference_s(x0, x1)
        return total

    def end_to_end(self, speed: HostSpeed) -> dict[str, float]:
        """The end-to-end metric values (names as in BENCHMARK.json)."""

        def ref(spans: list[Span]) -> list[float]:
            return [speed.reference_s(t0, t1) for t0, t1 in spans]

        op_ms = np.asarray(ref([span for cycle in self.cycles for span in cycle])) * 1e3
        return {
            "setup_s": statistics.median(ref(self.setup)),
            "op_p50_ms": float(np.percentile(op_ms, 50)),
            "op_p99_ms": float(np.percentile(op_ms, 99)),
            "ops_per_s": self.ops / self.reference_s(speed, self.cycle_spans),
            "msgs_per_op": float(self.msgs_per_op),
            "clusters": float(self.clusters),
            "peak_rss_mb": self.peak_rss_mb,
        }


def _timed(fn: Callable[..., Any], *args: Any, **kwargs: Any) -> tuple[Any, Span]:
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, (start, time.perf_counter())


# -- clustering workloads ---------------------------------------------------
def _cluster_job(rec: Recorder, dataset: Any, signalling: str) -> tuple[Any, Any]:
    """One δ-clustering job; returns (ELinkResult, network)."""
    from repro.core import ELinkConfig, run_elink
    from repro.geometry.quadtree import QuadTreeDecomposition
    from repro.sim import Network

    quadtree = rec.call("geometry.quadtree", QuadTreeDecomposition, dataset.topology)
    network = Network(dataset.topology.graph, engine="array")
    result = rec.call(
        "core.elink",
        run_elink,
        dataset.topology,
        dataset.features,
        dataset.metric(),
        ELinkConfig(delta=CLUSTER_DELTA, signalling=signalling),
        quadtree=quadtree,
        network=network,
    )
    return result, network


def _sim_record(result: Any) -> dict[str, Any]:
    return {
        "clusters": result.num_clusters,
        "cluster_msgs": result.total_messages,
        "sim_protocol_time": result.protocol_time,
        "values_by_kind": dict(sorted(result.stats.values_by_kind.items())),
    }


def clustering(run: Run, signalling: str) -> Outcome:
    """``scale-implicit`` / ``paper-explicit``: generate a field, cluster it."""
    from repro.core.delta import validate_clustering
    from repro.datasets import generate_synthetic_dataset

    rec, out = run.recorder, Outcome()
    seed = run.seed if signalling == "implicit" else PAPER_FIELD_SEED
    rec.active = run.trace
    dataset = None
    for _ in range(1 if run.trace else SETUPS):
        dataset = None  # release the previous field before rebuilding it
        gc.collect()  # untimed, so the peak RSS does not depend on when gc runs
        dataset, span = _timed(
            rec.call,
            "datasets.generate",
            generate_synthetic_dataset,
            run.size["n"],
            seed=seed,
            readings=FIT_READINGS,
        )
        out.setup.append(span)
    rec.active = False

    first, jobs = None, 0

    def job() -> Span:
        nonlocal first, jobs
        (result, network), span = _timed(_cluster_job, rec, dataset, signalling)
        jobs += 1
        if rec.active:
            out.layer["core.elink.events"] = network.kernel.events_executed
        if first is None:
            first = result
        elif _sim_record(result) != _sim_record(first):
            out.failed += 1  # a repeat job on the same field must not differ
        del result, network
        gc.collect()  # untimed, so the peak RSS does not depend on the job count
        return span

    if run.trace:
        # Same job untraced, traced, untraced: the overhead baseline is the
        # mean of the two untraced runs, so warm-up cannot pass as overhead.
        before = job()
        rec.active = True
        traced = job()
        rec.active = False
        after = job()
        out.overhead = ([before, after], [traced])
        for span in (before, after):
            out.add_cycle([span], span)
    else:
        # One untimed warm-up job first: the first job in a process runs
        # about 20% slower on a 100k-node field, a cost paid once per
        # process, not per field.
        job()
        # A cycle is one job; another starts only if it fits.
        while out.fits_another(out.measured_s, run.seconds):
            span = job()
            out.add_cycle([span], span)

    rec.active = run.trace
    violations = rec.call(
        "core.delta.validate",
        validate_clustering,
        dataset.topology.graph,
        first.clustering,
        dataset.features,
        dataset.metric(),
        CLUSTER_DELTA,
    )
    rec.active = False
    out.failed += 1 if violations else 0
    out.attempted = jobs + 1  # every job, and the validation

    record = _sim_record(first)
    out.msgs_per_op = record["cluster_msgs"]
    out.clusters = record["clusters"]
    out.fingerprint = {"field_seed": seed, **record}
    out.layer["core.elink.sim_protocol_time"] = record["sim_protocol_time"]
    return out


def _query_layers(plans: dict[str, int], cache: dict[str, int]) -> dict[str, float]:
    """Per-layer plan counts and result-cache ratios of one query replay."""
    return {
        **{f"queries.backend.{name}": count for name, count in plans.items()},
        "queries.result_cache.hit_ratio": cache["hits"] / max(cache["hits"] + cache["misses"], 1),
        "queries.result_cache.invalidations": cache["invalidations"],
        "queries.result_cache.evictions": cache["evictions"],
    }


# -- query-zipf -------------------------------------------------------------
def _serving_stack(rec: Recorder, sensors: int) -> dict[str, Any]:
    """Death Valley field → ELink → M-tree, backbone, planner with a cache."""
    from repro.core import ELinkConfig, run_elink
    from repro.datasets import generate_death_valley_dataset
    from repro.geometry.quadtree import QuadTreeDecomposition
    from repro.index import build_backbone, build_mtree
    from repro.sim import Network

    dataset = rec.call(
        "datasets.generate",
        generate_death_valley_dataset,
        seed=DEATH_VALLEY_SEED,
        num_sensors=sensors,
    )
    metric = dataset.metric()
    graph = dataset.topology.graph
    quadtree = rec.call("geometry.quadtree", QuadTreeDecomposition, dataset.topology)
    result = rec.call(
        "core.elink",
        run_elink,
        dataset.topology,
        dataset.features,
        metric,
        ELinkConfig(delta=DEATH_VALLEY_DELTA),
        quadtree=quadtree,
        network=Network(graph, engine="array"),
    )
    mtree = rec.call("index.mtree.build", build_mtree, result.clustering, dataset.features, metric)
    backbone = rec.call("index.backbone.build", build_backbone, graph, result.clustering)
    stack = {
        "graph": graph,
        "features": dataset.features,
        "metric": metric,
        "result": result,
        "mtree": mtree,
        "backbone": backbone,
    }
    stack["planner"], stack["cache"] = _planner(rec, stack)
    return stack


def _planner(rec: Recorder, stack: dict[str, Any]) -> tuple[Any, Any]:
    """A fresh planner with an empty result cache over *stack*."""
    from repro.queries.planner import QueryPlanner
    from repro.queries.result_cache import QueryResultCache

    cache = QueryResultCache()
    planner = rec.call(
        "queries.planner.build",
        QueryPlanner,
        stack["graph"],
        stack["result"].clustering,
        stack["features"],
        stack["metric"],
        stack["mtree"],
        stack["backbone"],
        cache=cache,
    )
    return planner, cache


def _audit_zipf(stack: dict[str, Any], op: str, kwargs: dict[str, Any], served: Any) -> bool:
    """True when a served answer matches its reference answer."""
    from repro.queries.knn import brute_force_knn
    from repro.queries.planner import canonical_answer
    from repro.queries.range_query import brute_force_range

    features, metric = stack["features"], stack["metric"]
    answer = canonical_answer(op, served.result)
    if op == "range":
        return answer == frozenset(
            brute_force_range(features, metric, kwargs["q"], kwargs["radius"])
        )
    if op == "knn":
        reference = brute_force_knn(features, metric, kwargs["q"], kwargs["k"])
        return answer == tuple((node, round(dist, 12)) for node, dist in reference)
    # Path: a cache-bypassed recompute on the flood backend, which shares
    # no index structure with the M-tree and backbone plans.
    recomputed = stack["planner"].path(**kwargs, backend="flood")
    return answer == canonical_answer(op, recomputed.result)


def query_zipf(run: Run) -> Outcome:
    """Closed-loop zipfian query replay, one client, against the planner."""
    from repro.queries.load import WorkloadSpec, generate_workload

    rec, out, size = run.recorder, Outcome(), run.size
    rec.active = run.trace
    stack = None
    for _ in range(1 if run.trace else SETUPS):
        stack = None  # release the previous stack before building the next
        gc.collect()
        stack, span = _timed(_serving_stack, rec, size["sensors"])
        out.setup.append(span)
    rec.active = False
    spec = WorkloadSpec(
        mix="balanced",
        queries=size["queries"],
        seed=run.seed,
        radii=ZIPF_RADII,
        gamma=ZIPF_GAMMA,
    )
    calls = [
        (query.op, query.kwargs())
        for query in generate_workload(list(stack["graph"].nodes), stack["features"], spec)
    ]

    def cycle(planner: Any) -> tuple[list[Span], list[Any], Span]:
        """Replay every query once; returns (query spans, results, cycle span)."""
        spans, served = [], []
        start = time.perf_counter()
        for op, kwargs in calls:
            t0 = time.perf_counter()
            served.append(getattr(planner, op)(**kwargs))
            spans.append((t0, time.perf_counter()))
        return spans, served, (start, time.perf_counter())

    def signature(served: list[Any]) -> list[tuple[int, str, bool]]:
        return [(planned.messages, planned.plan.backend, planned.cached) for planned in served]

    if run.trace:
        _lat, _served, untraced = cycle(stack["planner"])
        stack["planner"], stack["cache"] = _planner(rec, stack)
        rec.active = True
        latencies, served, traced = cycle(stack["planner"])
        rec.active = False
        out.overhead = ([untraced], [traced])
        out.add_cycle(latencies, traced)
        cache = stack["cache"].stats()
    else:
        # Each cycle runs on a fresh planner and an empty cache, so every
        # cycle sees the same hit pattern however many fit in the run (a
        # warm cache would make a faster machine faster still).
        planner, cache_of = stack["planner"], stack["cache"]
        while out.fits_another(out.measured_s, run.seconds):
            if out.cycles:
                planner, cache_of = _planner(rec, stack)
            latencies, done, span = cycle(planner)
            if not out.cycles:
                served, cache = done, cache_of.stats()
            elif signature(done) != signature(served):
                out.failed += 1  # every cycle must repeat the first exactly
            out.add_cycle(latencies, span)

    plans: dict[str, int] = {}
    messages = 0
    for planned in served:
        messages += planned.messages
        plans[planned.plan.backend] = plans.get(planned.plan.backend, 0) + 1
    audited = range(0, len(served), AUDIT_EVERY)
    out.failed += sum(
        not _audit_zipf(stack, calls[i][0], calls[i][1], served[i]) for i in audited
    )
    out.attempted = out.ops
    out.msgs_per_op = messages / len(served)
    result = stack["result"]
    out.clusters = result.num_clusters
    out.fingerprint = {
        "elink": _sim_record(result),
        "queries": len(served),
        "query_msgs": messages,
        "plans": dict(sorted(plans.items())),
        "cache_hits": cache["hits"],
        "audited": len(audited),
    }
    out.layer.update(
        {
            "core.elink.sim_protocol_time": result.protocol_time,
            **_query_layers(plans, cache),
        }
    )
    return out


# -- serve-mixed ------------------------------------------------------------
def _service(rec: Recorder, size: dict[str, int]) -> tuple[Any, Any, Any]:
    """(stream, pipeline, service) with the service defaults."""
    from repro.serve.api import QueryService
    from repro.serve.context import ServeContext
    from repro.serve.pipeline import ClusteringPipeline
    from repro.serve.readings import ReplaySpec, ReplayStream

    stream = rec.call(
        "datasets.generate",
        ReplayStream,
        ReplaySpec(n=size["n"], seed=SERVE_STREAM_SEED, rounds=size["rounds"]),
    )
    ctx = ServeContext()
    pipeline = ClusteringPipeline(
        stream.topology,
        ctx,
        delta=SERVE_DELTA,
        slack=SERVE_SLACK,
        bootstrap_rounds=SERVE_BOOTSTRAP,
    )
    service = QueryService(pipeline, ctx, staleness_updates=SERVE_STALENESS)
    return stream, pipeline, service


def _render(op: str, result: Any) -> Any:
    """A planner result in the shape ``QueryService.dispatch`` replies with."""
    if op == "range":
        return sorted(str(node) for node in result.matches)
    if op == "knn":
        return [{"node": str(node), "distance": round(dist, 9)} for node, dist in result.neighbors]
    return None if result.path is None else [str(node) for node in result.path]


_REPLY_FIELD = {"range": "matches", "knn": "neighbors", "path": "path"}


def _audit_serve(service: Any, query: Any, reply: dict[str, Any]) -> bool:
    """True when a served reply equals a cache-bypassed recompute.

    The recompute forces the served plan's backend on the service's
    current planner (the same staleness-bounded snapshot the reply came
    from); forced-backend calls bypass the result cache, so a cached
    answer that outlived its structure generation shows as a mismatch.
    """
    planner = service._planner  # the snapshot that answered *query*
    recomputed = getattr(planner, query.op)(**query.kwargs(), backend=reply["plan"]["backend"])
    return _render(query.op, recomputed.result) == reply[_REPLY_FIELD[query.op]]


def serve_mixed(run: Run) -> Outcome:
    """Readings and queries interleaved in one closed client loop."""
    from repro.queries.load import WorkloadSpec, generate_workload

    rec, out, size = run.recorder, Outcome(), run.size
    rec.active = run.trace
    services = []
    for _ in range(1 if run.trace else SETUPS):
        built, span = _timed(_service, rec, size)
        services.append(built)
        out.setup.append(span)
    rec.active = False
    stream = services[0][0]
    readings = [stream.reading(seq) for seq in range(stream.total_readings)]
    alphas = {node: np.array([alpha]) for node, alpha in zip(stream.nodes, stream.alphas)}
    spec = WorkloadSpec(
        mix="balanced",
        queries=max(stream.total_readings // QUERY_EVERY, 1),
        seed=run.seed,
        radii=SERVE_RADII,
        gamma=SERVE_GAMMA,
    )
    # Requests as a client would send them: JSON-ready, features as lists.
    queries = generate_workload(stream.nodes, alphas, spec)
    requests = [
        {"op": query.op, **{k: list(v) if isinstance(v, tuple) else v for k, v in query.params}}
        for query in queries
    ]

    def one_pass(built: tuple[Any, Any, Any]) -> tuple[list[Span], Span, dict[str, Any]]:
        """Apply the stream once; returns (query spans, pass span, record).

        Audits run inside the pass; their spans go to ``out.excluded``.
        """
        _stream, pipeline, service = built
        latencies: list[Span] = []
        messages = failed = 0
        plans: dict[str, int] = {}
        start = time.perf_counter()
        for reading in readings:
            if rec.call("serve.pipeline.apply", pipeline.apply, reading) == "skipped":
                failed += 1
            if pipeline.session is None or (reading.seq + 1) % QUERY_EVERY:
                continue
            index = len(latencies) % len(requests)
            request = requests[index]
            t0 = time.perf_counter()
            reply = rec.call("serve.api.dispatch", service.dispatch, request)
            latencies.append((t0, time.perf_counter()))
            if "error" in reply:
                failed += 1
                continue
            messages += reply["messages"]
            backend = reply["plan"]["backend"]
            plans[backend] = plans.get(backend, 0) + 1
            if len(latencies) % AUDIT_EVERY == 1:
                a0 = time.perf_counter()
                active, rec.active = rec.active, False
                failed += not _audit_serve(service, queries[index], reply)
                rec.active = active
                out.excluded.append((a0, time.perf_counter()))
        span = (start, time.perf_counter())
        session = pipeline.session
        counters = service.ctx.metrics
        cache = {
            name: int(counters.counter(f"queries.cache.{name}").value)
            for name in ("hits", "misses", "invalidations", "evictions")
        }
        record = {
            "queries": len(latencies),
            "query_msgs": messages,
            "plans": dict(sorted(plans.items())),
            "clusters": pipeline.num_clusters,
            "maintenance_msgs": session.total_messages(),
            "maintenance_values_by_kind": dict(sorted(session.stats.values_by_kind.items())),
            "generation": session.generation,
            "rebuilds": service.rebuilds,
            "cache": cache,
            "failed": failed,
        }
        return latencies, span, record

    records = []
    if run.trace:
        _lat, untraced, _rec = one_pass(services.pop())
        fresh = _service(rec, size)
        rec.active = True
        latencies, traced, record = one_pass(fresh)
        rec.active = False
        out.overhead = ([untraced], [traced])
        records.append(record)
        out.add_cycle(latencies, traced)
    else:
        start = time.perf_counter()
        # Whole passes only; another pass starts only if it fits the budget.
        while out.fits_another(time.perf_counter() - start, run.seconds):
            built = services.pop() if services else _service(rec, size)
            latencies, span, record = one_pass(built)
            records.append(record)
            out.add_cycle(latencies, span)
    first = records[0]
    # Every pass replays the same stream from scratch, so every pass must
    # reproduce the first pass's simulated statistics exactly.
    out.failed = sum(r["failed"] for r in records) + sum(
        1 for r in records[1:] if {**r, "failed": 0} != {**first, "failed": 0}
    )
    out.attempted = len(records) * len(readings) + out.ops
    out.msgs_per_op = first["query_msgs"] / max(first["queries"], 1)
    out.clusters = first["clusters"]
    out.fingerprint = {"passes": len(records), **first}
    out.layer.update(
        {
            **_query_layers(first["plans"], first["cache"]),
            "core.maintenance.generation_bumps": first["generation"],
            "serve.api.rebuilds": first["rebuilds"],
        }
    )
    return out


WORKLOADS: dict[str, Callable[[Run], Outcome]] = {
    "scale-implicit": lambda run: clustering(run, "implicit"),
    "paper-explicit": lambda run: clustering(run, "explicit"),
    "query-zipf": query_zipf,
    "serve-mixed": serve_mixed,
}
