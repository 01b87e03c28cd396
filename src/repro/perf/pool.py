"""Persistent warm worker pool for the experiment runner.

``runner --jobs N`` submits *work-unit specs* (experiment name + a small
picklable trial spec) — never datasets — to one long-lived
:class:`~concurrent.futures.ProcessPoolExecutor`.  Each worker runs
:func:`warm_worker` once at startup: it pre-imports the experiment
registry (pulling in numpy/networkx and every experiment module, the
multi-hundred-millisecond part of a cold task) and opens the artifact
cache handle so the first real task pays neither cost.  Per-process memo
(:mod:`repro.perf.memo`) then keeps each worker's heavy per-experiment
context warm across the trials it executes.

``REPRO_CACHE`` and ``REPRO_VERIFY`` reach workers through the inherited
environment, so caching and verification levels are uniform across the
pool without any per-task plumbing.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor


def warm_worker() -> None:
    """Pool initializer: pre-import the experiment suite, open the cache.

    Runs once per worker process.  Import errors propagate and kill the
    worker loudly — a pool that cannot import the experiments must not
    sit silently idle.
    """
    import repro.experiments  # noqa: F401  (imports every experiment module)

    from repro.perf.cache import get_cache

    get_cache()  # instantiate the REPRO_CACHE handle once, if enabled


def create_pool(jobs: int) -> ProcessPoolExecutor:
    """A warm process pool of *jobs* workers (see module doc)."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return ProcessPoolExecutor(max_workers=jobs, initializer=warm_worker)

