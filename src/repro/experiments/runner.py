"""Run every figure experiment and print (or save) the tables.

Usage::

    python -m repro.experiments.runner                # full profile, stdout
    python -m repro.experiments.runner --quick        # shrunk profile
    python -m repro.experiments.runner --only fig08 fig10
    python -m repro.experiments.runner --jobs 4       # process-pool parallel

Parallelism (``--jobs N``) fans independent work units out over a
persistent warm process pool (workers pre-import :mod:`repro` and open
the artifact cache once, at fork time — see :mod:`repro.perf.pool`).
The unit is one experiment, except for experiments that declare a finer
decomposition (``trial_specs`` / ``run_trial`` / ``combine_trials``
module attributes — one trial per topology, per N, per γ, …).  Every
unit carries its own fixed seeds and runs in its own interpreter, so
parallel and serial runs produce **identical tables** — only wall-clock
changes.  Output is printed in submission order regardless of completion
order, and the runner reports both the summed serial wall and the real
elapsed wall (their ratio is the suite speedup).

``--cache [DIR]`` enables the content-addressed artifact cache
(:mod:`repro.perf.cache`) for dataset generation, feature fitting, and
spectral eigendecompositions by exporting ``REPRO_CACHE`` — worker
processes inherit it.  DIR defaults to ``.repro-cache``.  Cached values
are keyed by function, canonicalized parameters, and a code-version
salt, so warm hits are byte-identical to cold computes and tables do not
change; the cache is off unless requested.

Every run also writes a ``BENCH_results.json`` artifact (``--bench-out``
to relocate, ``--no-bench`` to skip) recording per-experiment wall time
and the full result tables — message counts included — so the performance
trajectory of the reproduction is tracked run over run.  Benchmark and
profile artifacts live at the repository root and are gitignored
(``BENCH_results.json``, ``PROFILE_kernel.txt``); CI uploads
``BENCH_results.json`` as a build artifact instead of committing it.

``--verify`` arms the ``repro.verify`` correctness oracle at level
``full`` for every ELink run the experiments perform: online invariant
monitors (timer ownership, ack conservation, repair causality, clock
monotonicity) plus end-of-run stats-conservation and δ-legality checks.
A violation raises and aborts the runner — verified tables are either
correct or absent.  ``--quick`` without ``--verify`` defaults to the
``cheap`` level (end-of-run checks only); setting ``REPRO_VERIFY``
explicitly overrides both defaults, and the level is inherited by
``--jobs`` worker processes through that variable.

``--profile`` activates per-event-type wall-time accounting inside every
event kernel the experiments build (see :mod:`repro.obs.profiler`) and
writes a flame-style summary to ``--profile-out`` (default
``PROFILE_kernel.txt``).  Profiling implies serial execution: worker
processes cannot report into the parent's profiler, so ``--profile`` with
``--jobs > 1`` is rejected rather than silently under-counting.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Any

from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.common import ExperimentTable, supports_trials


def _run_experiment(name: str, profile: str) -> tuple[ExperimentTable, float]:
    """Worker: run one whole experiment; returns (table, wall seconds)."""
    module = ALL_EXPERIMENTS[name]
    start = time.perf_counter()
    table = module.run(profile=profile)
    return table, time.perf_counter() - start


def _run_trial(name: str, spec: Any, profile: str) -> tuple[Any, float]:
    """Worker: run one trial of a trial-decomposed experiment."""
    module = ALL_EXPERIMENTS[name]
    start = time.perf_counter()
    result = module.run_trial(spec, profile)
    return result, time.perf_counter() - start


def _run_scale_trial(spec: Any) -> tuple[Any, float]:
    """Worker: run one --max-n scale-ladder size (fig13 scale mode)."""
    from repro.experiments import fig13_scalability_size

    start = time.perf_counter()
    result = fig13_scalability_size.run_scale_trial(spec)
    return result, time.perf_counter() - start


def _run_scale(max_n: int, jobs: int) -> tuple[ExperimentTable, float]:
    """Run the fig13 scale sweep up to *max_n*, optionally over the pool."""
    from repro.experiments import fig13_scalability_size

    specs = fig13_scalability_size.scale_trial_specs(max_n)
    start = time.perf_counter()
    if jobs > 1:
        from repro.perf.pool import create_pool

        with create_pool(min(jobs, len(specs))) as pool:
            futures = [pool.submit(_run_scale_trial, spec) for spec in specs]
            outputs = [future.result() for future in futures]
        results = [result for result, _wall in outputs]
    else:
        results = [fig13_scalability_size.run_scale_trial(spec) for spec in specs]
    table = fig13_scalability_size.combine_scale_trials(results)
    return table, time.perf_counter() - start


def _run_parallel(
    names: list[str], profile: str, jobs: int
) -> list[tuple[str, ExperimentTable, float, float]]:
    """Run *names* over a warm process pool; results come back in *names* order.

    Per experiment two times are reported: ``wall`` is the summed wall time
    of its work units (its serial-equivalent cost) and ``elapsed`` the real
    time from pool start until its last unit completed.
    """
    from repro.perf.pool import create_pool

    tasks = []  # (name, kind, future-producing args)
    for name in names:
        module = ALL_EXPERIMENTS[name]
        if supports_trials(module):
            for index, spec in enumerate(module.trial_specs(profile)):
                tasks.append((name, "trial", index, spec))
        else:
            tasks.append((name, "whole", 0, None))

    done_at: dict[int, float] = {}
    with create_pool(min(jobs, len(tasks))) as pool:
        pool_start = time.perf_counter()
        futures = []
        for position, (name, kind, _index, spec) in enumerate(tasks):
            if kind == "whole":
                future = pool.submit(_run_experiment, name, profile)
            else:
                future = pool.submit(_run_trial, name, spec, profile)
            future.add_done_callback(
                lambda _f, position=position: done_at.setdefault(
                    position, time.perf_counter()
                )
            )
            futures.append(future)
        outputs = [future.result() for future in futures]

    results: list[tuple[str, ExperimentTable, float, float]] = []
    for name in names:
        module = ALL_EXPERIMENTS[name]
        indices = [i for i, task in enumerate(tasks) if task[0] == name]
        wall = sum(outputs[i][1] for i in indices)
        elapsed = max(done_at[i] for i in indices) - pool_start
        if supports_trials(module):
            trial_results = [outputs[i][0] for i in indices]
            table = module.combine_trials(trial_results, profile)
        else:
            (table,) = [outputs[i][0] for i in indices]
        results.append((name, table, wall, elapsed))
    return results


def _noop() -> None:
    return None


def _run_micro() -> dict:
    """Kernel + engine micro timings for the BENCH ``micro`` block.

    Three entries: heap-vs-wheel post/fire wall time at 10³/10⁴/10⁵ pending
    events (64 distinct timestamps — the repeated-timestamp regime), the
    object-vs-array broadcast-storm speedup at N=2500 on the jitter=0
    fast path (the engine acceptance number), and the arena-vs-object
    message allocation bench (columnar rows + lazy materialization against
    eager ``Message`` construction for the same broadcast blocks).  The
    block also records throughput (messages/sec) and the process peak RSS.
    """
    import resource

    from repro.geometry import random_geometric_topology
    from repro.sim import EventKernel, Network, TimerWheelKernel
    from repro.sim.messages import Message, MessageArena

    kernels: dict[str, dict] = {}
    for pending in (1_000, 10_000, 100_000):
        row = {}
        for label, kernel_cls in (("heap", EventKernel), ("wheel", TimerWheelKernel)):
            kernel = kernel_cls()
            post = kernel.post
            start = time.perf_counter()
            for i in range(pending):
                post(float(i & 63), _noop)
            posted = time.perf_counter()
            kernel.run()
            fired = time.perf_counter()
            row[label] = {
                "post_s": round(posted - start, 4),
                "fire_s": round(fired - posted, 4),
            }
        kernels[str(pending)] = row

    class _Sink:
        __slots__ = ("count",)

        def __init__(self):
            self.count = 0

        def handle_message(self, message):
            self.count += 1

    topology = random_geometric_topology(2500, seed=3)
    flood: dict[str, float] = {}
    for engine in ("object", "array"):
        network = Network(topology.graph, engine=engine)
        sink = _Sink()
        for node in network.graph.nodes:
            network.register(node, sink)
        nodes = list(network.graph.nodes)
        start = time.perf_counter()
        for _ in range(16):
            for node in nodes:
                network.broadcast_values(node, "feature")
        network.run()
        flood[f"{engine}_s"] = round(time.perf_counter() - start, 4)
    flood["messages"] = 16 * 2 * topology.graph.number_of_edges()
    flood["speedup"] = (
        round(flood["object_s"] / flood["array_s"], 2) if flood["array_s"] else None
    )
    flood["msgs_per_s"] = (
        round(flood["messages"] / flood["array_s"]) if flood["array_s"] else None
    )

    # Arena-vs-object allocation: the same 2000 × 32-destination broadcast
    # blocks as eager Message objects and as arena rows.  append_s is the
    # fast-path cost (vectorised rounds never materialize); arena_s adds a
    # full materialize pass — the worst case, every row consumed by an
    # object handler — so both regimes are tracked run over run.
    blocks, fanout = 2_000, 32
    dsts = list(range(fanout))
    start = time.perf_counter()
    for src in range(blocks):
        Message.batch("feature", src, dsts, None, 1, "data")
    object_s = time.perf_counter() - start
    arena = MessageArena()
    start = time.perf_counter()
    kind = arena.kind_id("feature", "data")
    for src in range(blocks):
        arena.append_block(kind, src, dsts, arena.payload_ref(None), 1)
    append_s = time.perf_counter() - start
    start = time.perf_counter()
    for row in range(len(arena)):
        arena.materialize(row)
    materialize_s = time.perf_counter() - start
    alloc = {
        "rows": blocks * fanout,
        "object_s": round(object_s, 4),
        "append_s": round(append_s, 4),
        "materialize_s": round(materialize_s, 4),
        "arena_s": round(append_s + materialize_s, 4),
        "speedup": round(object_s / append_s, 2) if append_s else None,
    }

    return {
        "kernel_post_fire": kernels,
        "engine_flood_n2500": flood,
        "arena_alloc": alloc,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024,
    }


def _bench_payload(
    results: list[tuple[str, ExperimentTable, float, float]],
    profile: str,
    jobs: int,
    total_wall: float,
) -> dict:
    from repro.perf import get_cache
    from repro.perf.meta import environment_metadata

    from repro.sim import default_engine

    serial_wall = sum(wall for _name, _table, wall, _elapsed in results)
    payload = {
        "schema": 5,
        "profile": profile,
        "jobs": jobs,
        "engine": default_engine(),
        "environment": environment_metadata(),
        "total_wall_s": round(total_wall, 3),
        "serial_wall_s": round(serial_wall, 3),
        "speedup": round(serial_wall / total_wall, 3) if total_wall > 0 else None,
        "experiments": {
            name: {
                "wall_s": round(wall, 3),
                "elapsed_s": round(elapsed, 3),
                **table.to_json_dict(),
            }
            for name, table, wall, elapsed in results
        },
    }
    cache = get_cache()
    if cache is not None:
        payload["cache"] = cache.stats()
    return payload


def main(argv: list[str] | None = None) -> int:
    """Command-line entry point."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="use the shrunk profile")
    parser.add_argument(
        "--only",
        nargs="*",
        default=None,
        help=f"experiment names to run (default: all of {sorted(ALL_EXPERIMENTS)})",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="run work units over an N-process pool (default 1: serial)",
    )
    parser.add_argument(
        "--bench-out",
        default="BENCH_results.json",
        metavar="PATH",
        help="where to write the per-experiment timing/result artifact",
    )
    parser.add_argument(
        "--no-bench", action="store_true", help="skip writing the benchmark artifact"
    )
    parser.add_argument(
        "--engine",
        choices=("object", "array"),
        default=None,
        help="simulation engine for every run (exported as REPRO_ENGINE so "
        "--jobs workers inherit it; default: object, or the caller's "
        "REPRO_ENGINE)",
    )
    parser.add_argument(
        "--max-n",
        type=int,
        default=None,
        metavar="N",
        help="also run the fig13 scale sweep up to N nodes and record it as "
        "the BENCH scale block; given without --only, the scale sweep "
        "replaces the regular experiment list",
    )
    parser.add_argument(
        "--micro",
        action="store_true",
        help="also time kernel heap-vs-wheel scheduling and the object-vs-"
        "array engine flood, recorded as the BENCH micro block",
    )
    parser.add_argument(
        "--cache",
        nargs="?",
        const=".repro-cache",
        default=None,
        metavar="DIR",
        help="enable the content-addressed artifact cache in DIR (default "
        ".repro-cache when the flag is given without a value); exported as "
        "REPRO_CACHE so --jobs workers inherit it",
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help="run every ELink run fully verified (online invariant monitors + "
        "stats/clustering checks; violations abort the run)",
    )
    parser.add_argument(
        "--profile",
        dest="kernel_profile",
        action="store_true",
        help="profile kernel event handling (serial only); writes a flame-style summary",
    )
    parser.add_argument(
        "--profile-out",
        default="PROFILE_kernel.txt",
        metavar="PATH",
        help="where --profile writes its summary (default PROFILE_kernel.txt)",
    )
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.kernel_profile and args.jobs > 1:
        parser.error("--profile requires --jobs 1 (workers cannot report into the parent)")
    profile = "quick" if args.quick else "full"
    # Cache policy: --cache exports REPRO_CACHE so both this process and any
    # --jobs workers (which inherit the environment at fork) resolve the
    # same directory; an explicit REPRO_CACHE in the caller's environment
    # also works without the flag.
    from repro.perf.cache import CACHE_ENV

    if args.cache is not None:
        os.environ[CACHE_ENV] = args.cache
    if os.environ.get(CACHE_ENV):
        print(f"[artifact cache: {os.environ[CACHE_ENV]}]")
    # Engine policy: --engine exports REPRO_ENGINE before any pool forks,
    # so this process and every --jobs worker resolve the same engine; an
    # explicit REPRO_ENGINE in the caller's environment also works.
    from repro.sim import ENGINE_ENV, default_engine

    if args.engine is not None:
        os.environ[ENGINE_ENV] = args.engine
    if default_engine() != "object":
        print(f"[engine: {default_engine()}]")
    # Verification policy: --verify arms the full oracle; --quick defaults
    # to the cheap end-of-run checks (they cost one clustering validation
    # per run and never alter a table).  The level travels through the
    # REPRO_VERIFY environment variable so --jobs workers inherit it; an
    # explicit REPRO_VERIFY in the caller's environment wins over the
    # --quick default.
    from repro.verify.runtime import VERIFY_ENV, set_verification_level, verification_level

    if args.verify:
        set_verification_level("full")
    elif args.quick and VERIFY_ENV not in os.environ:
        set_verification_level("cheap")
    verify_level = verification_level()
    if verify_level != "off":
        print(f"[verification: {verify_level} — invariant violations abort the run]")
    if args.max_n is not None:
        # A scale run replaces the regular suite unless --only names some.
        names = args.only or []
    else:
        names = args.only if args.only else list(ALL_EXPERIMENTS)
    unknown = [n for n in names if n not in ALL_EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiments: {unknown}")

    total_start = time.perf_counter()
    if not names:
        results = []
    elif args.jobs == 1:
        from repro.obs.profiler import KernelProfiler, profiled

        profiler = KernelProfiler() if args.kernel_profile else None
        results = []
        for name in names:
            if profiler is None:
                table, wall = _run_experiment(name, profile)
            else:
                with profiled(profiler):
                    table, wall = _run_experiment(name, profile)
            table.print()
            print(f"[{name} finished in {wall:.1f}s]\n")
            results.append((name, table, wall, wall))
        if profiler is not None:
            report = profiler.report()
            with open(args.profile_out, "w", encoding="utf-8") as handle:
                handle.write(report)
                handle.write("\n")
            print(report)
            print(f"[wrote {args.profile_out}]")
    else:
        results = _run_parallel(names, profile, args.jobs)
        for name, table, wall, _elapsed in results:
            table.print()
            print(f"[{name} finished in {wall:.1f}s]\n")
    micro = None
    if args.micro:
        micro = _run_micro()
        flood = micro["engine_flood_n2500"]
        print(
            f"[micro: engine flood n=2500 — object {flood['object_s']}s, "
            f"array {flood['array_s']}s, speedup {flood['speedup']}x]\n"
        )
    scale_table = scale_wall = None
    if args.max_n is not None:
        scale_table, scale_wall = _run_scale(args.max_n, args.jobs)
        scale_table.print()
        print(f"[fig13 scale sweep (max_n={args.max_n}) finished in {scale_wall:.1f}s]\n")
    total_wall = time.perf_counter() - total_start
    serial_wall = sum(wall for _name, _table, wall, _elapsed in results)
    if args.jobs > 1 and results and total_wall > 0:
        print(
            f"[suite: serial-equivalent {serial_wall:.1f}s, elapsed "
            f"{total_wall:.1f}s, speedup {serial_wall / total_wall:.1f}x]"
        )

    if not args.no_bench:
        payload = _bench_payload(results, profile, args.jobs, total_wall)
        if micro is not None:
            payload["micro"] = micro
        if scale_table is not None:
            payload["scale"] = {
                "max_n": args.max_n,
                "wall_s": round(scale_wall, 3),
                **scale_table.to_json_dict(),
            }
        with open(args.bench_out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"[wrote {args.bench_out}: {len(results)} experiments, {total_wall:.1f}s total]")
    if verify_level != "off":
        print(f"[verification: {verify_level} — all runs clean]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
