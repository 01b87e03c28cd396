"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload query-zipf --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one process each

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the
separate traced run that reports the per-layer metrics (and the tracing
overhead).  Both are declared, with units, in ``BENCHMARK.json``.  The
last line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
A results file (environment, fingerprint of simulated statistics, the
result line) and, for traced runs, the spans go to ``.perfbench-out/``.

The program is imported from ``src/`` of the checkout this file sits in;
without it the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
from typing import Any

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
#: The seed runs use unless told otherwise, and the held-out seed a
#: performance claim must also hold on (never used while tuning).
DEFAULT_SEED = 1
HELD_OUT_SEED = 7
#: Generous per-workload limit for ``--workload all`` child processes.
CHILD_TIMEOUT_S = 900


def load_contract() -> dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def pin_environment() -> list[str]:
    """Drop every ``REPRO_*`` variable (artifact cache, engine, verifier).

    An artifact-cache hit would turn set-up into a disk read and a stray
    engine or verifier setting would change what is measured; engines are
    passed explicitly instead.
    """
    removed = sorted(key for key in os.environ if key.startswith("REPRO_"))
    for key in removed:
        del os.environ[key]
    return removed


def import_program() -> None:
    """Put the checkout's ``src/`` first on the path and import ``repro`` from it."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {src}/repro; run from a full checkout")
    sys.path.insert(0, str(src))
    import repro

    if pathlib.Path(repro.__file__).resolve().parent != src / "repro":
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not from {src}")


def layer_metrics(outcome: Any, rec: Any, speed: Any) -> dict[str, float]:
    """Per-layer values of a traced run (names as in BENCHMARK.json)."""
    import numpy as np

    selfs = rec.self_times()

    def total(name: str) -> float:
        return sum(rec.durations(name))

    values: dict[str, float] = {
        "geometry.topology_s": total("geometry.topology"),
        "datasets.fit_s": selfs.get("datasets.generate", 0.0),
        "geometry.quadtree_s": total("geometry.quadtree"),
        "core.elink_s": total("core.elink"),
        "sim.network.shortest_path.calls": len(rec.durations("sim.network.shortest_path")),
        "sim.network.shortest_path_s": total("sim.network.shortest_path"),
        "core.delta.validate_s": total("core.delta.validate"),
        "index.mtree.build_s": total("index.mtree.build"),
        "index.backbone.build_s": total("index.backbone.build"),
        "queries.planner.build_s": total("queries.planner.build"),
        "models.rls.update_s": total("models.rls.update"),
        "core.maintenance.update_feature_s": total("core.maintenance.update_feature"),
        "serve.pipeline.apply_s": selfs.get("serve.pipeline.apply", 0.0),
        # The service builds indexes and planners only when it rebuilds.
        "serve.api.rebuild_s": rec.total_under(
            {"index.mtree.build", "index.backbone.build", "queries.planner.build"},
            "serve.api.dispatch",
        ),
        "baselines.spanning_forest_s": total("baselines.spanning_forest"),
    }
    for op in ("range", "knn", "path"):
        durations = rec.durations(f"queries.planner.{op}")
        values[f"queries.planner.{op}.calls"] = len(durations)
        values[f"queries.planner.{op}_p50_ms"] = (
            float(np.percentile(durations, 50)) * 1e3 if durations else 0.0
        )
    values.update(rec.counts)
    values.update(outcome.layer)
    untraced, traced = (
        outcome.reference_s(speed, spans) / len(spans) for spans in outcome.overhead
    )
    values["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced
    return values


def run_one(args: argparse.Namespace, contract: dict[str, Any]) -> int:
    removed = pin_environment()
    import_program()
    from hostspeed import HostSpeed
    from tracing import Recorder, install_layer_wrappers
    from workloads import WORKLOADS, Run

    from repro.perf.meta import environment_metadata

    recorder, speed = Recorder(), HostSpeed()
    if args.trace:
        install_layer_wrappers(recorder)
    speed.start()
    try:
        outcome = WORKLOADS[args.workload](
            Run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, recorder)
        )
    finally:
        speed.stop()
        recorder.unpatch()

    declared = contract["per_layer" if args.trace else "end_to_end"]
    if args.trace:
        values = layer_metrics(outcome, recorder, speed)
    else:
        values = outcome.end_to_end(speed)
    # Layers a workload does not exercise read 0 (see README.md).
    metrics = {
        spec["name"]: {"value": values.get(spec["name"], 0), "unit": spec["unit"]}
        for spec in declared
    }
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": environment_metadata(),
        "nproc": len(os.sched_getaffinity(0)),
        "cleared_env": removed,
        "ops": outcome.ops,
        "cycles": len(outcome.cycles),
        "measured_wall_s": outcome.measured_s,
        "setup_wall_s": [t1 - t0 for t0, t1 in outcome.setup],
        "host_speed_probe": speed.summary(),
        "fingerprint": outcome.fingerprint,
        "result": result,
    }
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    if args.trace:
        recorder.write_jsonl(str(OUT_DIR / f"{stem}.spans.jsonl"))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  ops {outcome.ops}")
    for name, metric in metrics.items():
        print(f"  {name:<38} {metric['value']:>16.6g} {metric['unit']}")
    print(f"  {'failed_fraction':<38} {outcome.failed / outcome.attempted:>16.6g} ratio")
    print(f"  fingerprint {json.dumps(outcome.fingerprint, sort_keys=True)}")
    print(json.dumps(result))
    return 0


def run_all(args: argparse.Namespace, contract: dict[str, Any]) -> int:
    """Run every workload in its own process, so each peak RSS is its own."""
    results = {}
    for spec in contract["workloads"]:
        command = [
            sys.executable,
            str(pathlib.Path(__file__).resolve()),
            "--workload", spec["name"],
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ] + (["--smoke"] if args.smoke else [])
        child = subprocess.run(
            command, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S, check=False
        )
        lines = child.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        if child.returncode != 0:
            print(f"perfbench: {spec['name']} exited with {child.returncode}", file=sys.stderr)
            return child.returncode
        results[spec["name"]] = json.loads(lines[-1])
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "workloads": results,
            }
        )
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    contract = load_contract()
    names = [spec["name"] for spec in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny inputs, for the smoke test only"
    )
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args, contract)
    return run_one(args, contract)


if __name__ == "__main__":
    sys.exit(main())
