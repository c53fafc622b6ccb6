"""Spawn-safe worker pool over stdlib ``multiprocessing``.

:class:`WorkerPool` runs a module-level callable over a list of
picklable tasks in ``n_workers`` separate processes and returns results
in task order, whatever order the workers finished in.  Design points:

- **Spawn start method.**  Workers are started with the ``spawn``
  context even on platforms that default to ``fork``: spawned children
  import the code fresh, so the pool never depends on inherited global
  state (locks, open files, a half-initialised numpy RNG) — the same
  reason PyTorch defaults its DataLoader workers to spawn-compatible
  semantics.  The task callable must therefore be importable
  (module-level) and every task payload picklable.
- **Serial fallback.**  ``n_workers=1`` executes in-process with zero
  multiprocessing machinery — bit-for-bit the reference behaviour the
  parallel path is tested against, and the safe mode for single-core
  machines or restricted sandboxes.
- **Typed failures.**  A task that raises inside a worker surfaces as
  :class:`WorkerTaskError` carrying the task index and the remote
  traceback; a worker process that dies without reporting (segfault,
  ``os._exit``, OOM kill) surfaces as :class:`WorkerCrashError` with
  its exit code.  Neither hangs the parent.
- **Observability.**  Each worker accumulates ``repro.observe`` metrics
  in its own process-local registry and ships a snapshot back on
  shutdown; :class:`PoolRun` merges them and exposes per-task wall
  times, from which it reports parallel efficiency and speedup.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_lib
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Sequence

_POLL_S = 0.1
#: default cap so ``n_workers=None`` on a many-core box does not spawn
#: one python interpreter per hardware thread for a handful of tasks
_MAX_AUTO_WORKERS = 8


class WorkerTaskError(RuntimeError):
    """A task raised an exception inside a worker process."""

    def __init__(self, index: int, message: str, remote_traceback: str = ""):
        super().__init__(
            f"task {index} failed in worker: {message}"
            + (f"\n--- remote traceback ---\n{remote_traceback}" if remote_traceback else "")
        )
        self.index = index
        self.remote_traceback = remote_traceback


class WorkerCrashError(RuntimeError):
    """A worker process died without reporting a result."""

    def __init__(self, worker_ids: list[int], exitcodes: list[int | None]):
        detail = ", ".join(
            f"worker {w} (exitcode {c})" for w, c in zip(worker_ids, exitcodes)
        )
        super().__init__(
            f"worker process(es) died without reporting a result: {detail}; "
            "results so far are incomplete"
        )
        self.worker_ids = worker_ids
        self.exitcodes = exitcodes


def resolve_workers(n_workers: int | None) -> int:
    """Resolve a worker-count request against the machine.

    ``None`` auto-detects (``os.cpu_count()`` capped at
    ``_MAX_AUTO_WORKERS``); explicit values are validated but honoured
    even above the core count (useful for determinism tests).
    """
    if n_workers is None:
        return max(1, min(os.cpu_count() or 1, _MAX_AUTO_WORKERS))
    n_workers = int(n_workers)
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    return n_workers


@dataclass
class TaskStat:
    """Execution record for one task: who ran it and for how long."""

    index: int
    worker: int
    duration_s: float


@dataclass
class PoolRun:
    """Results plus execution statistics for one :meth:`WorkerPool.run`."""

    results: list
    task_stats: list[TaskStat]
    wall_time_s: float
    n_workers: int
    worker_metrics: dict[int, dict] = field(default_factory=dict)

    @property
    def busy_time_s(self) -> float:
        """Total worker-seconds spent inside tasks."""
        return sum(stat.duration_s for stat in self.task_stats)

    @property
    def efficiency(self) -> float:
        """Parallel efficiency: busy time / (wall time x workers)."""
        denominator = self.wall_time_s * self.n_workers
        return self.busy_time_s / denominator if denominator > 0 else 0.0

    @property
    def speedup(self) -> float:
        """Observed speedup vs running the same tasks back to back."""
        return self.busy_time_s / self.wall_time_s if self.wall_time_s > 0 else 0.0

    def merged_metrics(self) -> dict:
        """All workers' metrics snapshots merged into one."""
        from repro.observe.metrics import merge_snapshots

        return merge_snapshots(list(self.worker_metrics.values()))


def _worker_main(worker_id: int, fn, task_queue, result_queue) -> None:
    """Worker loop: pull ``(index, task)`` items until the sentinel.

    Every outcome is reported through ``result_queue`` as a tagged
    tuple; the final message is the worker's metrics snapshot, which
    doubles as its clean-shutdown marker for crash detection.
    """
    from repro.observe.metrics import get_registry

    registry = get_registry()
    registry.gauge("parallel/worker_id").set(worker_id)
    while True:
        item = task_queue.get()
        if item is None:
            break
        index, task = item
        start = time.perf_counter()
        try:
            result = fn(task)
        except BaseException as exc:  # report, keep serving remaining tasks
            result_queue.put(
                ("error", index, worker_id,
                 f"{type(exc).__name__}: {exc}", traceback.format_exc())
            )
            continue
        duration = time.perf_counter() - start
        registry.counter("parallel/tasks_completed").inc()
        registry.histogram("parallel/task_time_s").observe(duration)
        result_queue.put(("ok", index, worker_id, duration, result))
    result_queue.put(("done", worker_id, registry.snapshot()))


class WorkerPool:
    """Run ``fn`` over tasks in ``n_workers`` spawned processes.

    Usage::

        with WorkerPool(n_workers=4) as pool:
            run = pool.run(train_fold, fold_tasks)
        accuracies = run.results          # in task order

    ``fn`` must be a module-level callable and each task picklable
    (spawned workers import them fresh).  ``map`` is the results-only
    shorthand; ``run`` returns the full :class:`PoolRun`.
    """

    def __init__(self, n_workers: int | None = None):
        self.n_workers = resolve_workers(n_workers)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    def map(self, fn: Callable, tasks: Sequence) -> list:
        return self.run(fn, tasks).results

    def run(self, fn: Callable, tasks: Sequence) -> PoolRun:
        tasks = list(tasks)
        if self.n_workers == 1:
            return self._run_serial(fn, tasks)
        return self._run_parallel(fn, tasks)

    def _run_serial(self, fn: Callable, tasks: list) -> PoolRun:
        from repro.observe.metrics import get_registry

        registry = get_registry()
        wall_start = time.perf_counter()
        results, stats = [], []
        for index, task in enumerate(tasks):
            start = time.perf_counter()
            try:
                result = fn(task)
            except Exception as exc:
                raise WorkerTaskError(
                    index, f"{type(exc).__name__}: {exc}", traceback.format_exc()
                ) from exc
            duration = time.perf_counter() - start
            registry.counter("parallel/tasks_completed").inc()
            registry.histogram("parallel/task_time_s").observe(duration)
            results.append(result)
            stats.append(TaskStat(index, 0, duration))
        return PoolRun(
            results=results,
            task_stats=stats,
            wall_time_s=time.perf_counter() - wall_start,
            n_workers=1,
            worker_metrics={0: registry.snapshot()},
        )

    def _run_parallel(self, fn: Callable, tasks: list) -> PoolRun:
        ctx = multiprocessing.get_context("spawn")
        task_queue = ctx.Queue()
        result_queue = ctx.Queue()
        n_workers = min(self.n_workers, max(1, len(tasks)))
        workers = [
            ctx.Process(
                target=_worker_main,
                args=(worker_id, fn, task_queue, result_queue),
                daemon=True,
            )
            for worker_id in range(n_workers)
        ]
        wall_start = time.perf_counter()
        for worker in workers:
            worker.start()
        for item in enumerate(tasks):
            task_queue.put(item)
        for _ in workers:
            task_queue.put(None)

        results: dict[int, object] = {}
        stats: list[TaskStat] = []
        worker_metrics: dict[int, dict] = {}
        failure: WorkerTaskError | None = None
        try:
            while len(worker_metrics) < n_workers:
                try:
                    message = result_queue.get(timeout=_POLL_S)
                except queue_lib.Empty:
                    self._check_for_crash(workers, worker_metrics, result_queue)
                    continue
                tag = message[0]
                if tag == "ok":
                    _, index, worker_id, duration, result = message
                    results[index] = result
                    stats.append(TaskStat(index, worker_id, duration))
                elif tag == "error":
                    _, index, _, text, remote_tb = message
                    if failure is None:
                        failure = WorkerTaskError(index, text, remote_tb)
                else:  # "done"
                    _, worker_id, snapshot = message
                    worker_metrics[worker_id] = snapshot
        finally:
            for worker in workers:
                worker.join(timeout=5.0)
                if worker.is_alive():
                    worker.terminate()
                    worker.join()
        if failure is not None:
            raise failure
        missing = [i for i in range(len(tasks)) if i not in results]
        if missing:
            raise WorkerCrashError([-1], [None])  # pragma: no cover - safety net
        stats.sort(key=lambda stat: stat.index)
        return PoolRun(
            results=[results[i] for i in range(len(tasks))],
            task_stats=stats,
            wall_time_s=time.perf_counter() - wall_start,
            n_workers=n_workers,
            worker_metrics=worker_metrics,
        )

    @staticmethod
    def _check_for_crash(workers, worker_metrics, result_queue) -> None:
        """Raise :class:`WorkerCrashError` for workers that died silently.

        A worker that exited cleanly always reported its metrics
        snapshot first, so dead + unreported = crashed.  One extra
        drain attempt guards against the message still being in flight
        when the process exit is observed.
        """
        dead = [
            (worker_id, worker.exitcode)
            for worker_id, worker in enumerate(workers)
            if not worker.is_alive() and worker_id not in worker_metrics
        ]
        if not dead:
            return
        deadline = time.monotonic() + 1.0
        while time.monotonic() < deadline:
            try:
                message = result_queue.get(timeout=_POLL_S)
            except queue_lib.Empty:
                break
            result_queue.put(message)  # let the main loop consume it
            if message[0] == "done" and message[1] in dict(dead):
                return
        raise WorkerCrashError([w for w, _ in dead], [c for _, c in dead])
