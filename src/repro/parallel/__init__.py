"""Multiprocess parallel execution engine (docs/parallelism.md).

Cross-validation folds and seed replicates are embarrassingly
parallel; this subpackage fans them out across worker
processes while keeping results **bitwise-identical to serial
execution**.  Three building blocks enforce that invariant:

``repro.parallel.seeding``
    Deterministic per-task RNG streams via
    ``numpy.random.SeedSequence.spawn`` — a task's stream depends only
    on its index, never on which worker ran it or in what order.
``repro.parallel.pool``
    :class:`WorkerPool`, a spawn-safe stdlib-``multiprocessing`` pool
    that preserves task order in its results, falls back to in-process
    execution at ``n_workers=1``, collects per-worker metrics
    snapshots, and surfaces worker failures as typed errors
    (:class:`WorkerTaskError` / :class:`WorkerCrashError`).
``repro.parallel.logs``
    Per-task JSONL run-logs written to index-suffixed files and merged
    deterministically with :func:`merge_worker_logs`, independent of
    scheduling.

Dataset regeneration inside workers is avoided by the on-disk cache in
:mod:`repro.data.cache`.  Entry points: ``cross_validate_classification
(..., n_workers=)`` and ``python -m repro crossval --workers N``.
"""

from repro.parallel.pool import (
    PoolRun,
    TaskStat,
    WorkerCrashError,
    WorkerPool,
    WorkerTaskError,
    resolve_workers,
)
from repro.parallel.seeding import spawn_task_seeds
from repro.parallel.logs import (
    merge_worker_logs,
    task_log_path,
    write_merged_log,
)

__all__ = [
    "PoolRun",
    "TaskStat",
    "WorkerCrashError",
    "WorkerPool",
    "WorkerTaskError",
    "resolve_workers",
    "spawn_task_seeds",
    "merge_worker_logs",
    "task_log_path",
    "write_merged_log",
]
