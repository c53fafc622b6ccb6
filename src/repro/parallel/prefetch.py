"""Background prefetcher: overlap shard loading with compute.

:class:`BackgroundPrefetcher` is the double-buffering primitive behind
``repro.data.streaming``: while the trainer consumes shard *k*, a
background worker decodes shard *k+1* (and up to ``depth`` shards
ahead), so the disk/decompress latency hides behind the forward/backward
passes — the overlap a PyTorch ``DataLoader(num_workers=...)`` or DGL
GraphBolt fetcher provides.

The API is a small keyed request/take protocol rather than an iterator,
because the streaming loader needs *random access* with lookahead (the
trainer's shuffled order decides what comes next, not the prefetcher):

- ``request(key)`` — non-blocking: enqueue ``fetch(key)`` for the
  worker.  Duplicate requests for an in-flight or ready key are no-ops.
- ``take(key)`` — blocking: pop that key's result, waiting for the
  worker if necessary.  An exception raised by ``fetch`` in the worker
  is re-raised here, so typed errors (``ShardCorruptionError``)
  propagate with their type intact.
- ``close()`` — stop the worker and drop pending results.

Two execution modes:

- ``mode="thread"`` (default): one daemon worker thread, with none of
  the pickling constraints.  Shard decoding is mostly Python-bound —
  building and validating ``Graph`` objects, with ``zlib``
  decompression a small part — so it holds the GIL for most of its
  time and overlaps compute only partly.  It is short: a 32-graph
  MUTAG-like shard takes 1.6–2.7 ms of thread CPU on a 2-vCPU host,
  down from 7.6–13.9 ms when archives held one member per graph and
  field (medians of four runs a side; docs/performance.md, "Shard
  decode").
- ``mode="process"``: one spawn-context worker process mirroring
  :mod:`repro.parallel.pool` (module-level ``fetch`` required, results
  shipped through queues, clean-shutdown discipline).  Buys full
  parallelism when decode is Python-bound, at IPC cost per shard.

Determinism note: the prefetcher only *caches* ``fetch`` results; which
keys are requested and the order ``take`` consumes them is decided
entirely by the caller.  Results therefore never depend on worker
timing — the property the streaming equivalence suite locks down.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_lib
import threading
from typing import Callable, Hashable

_POLL_S = 0.1


class PrefetcherClosed(RuntimeError):
    """``request``/``take`` called on a closed prefetcher."""


def _process_worker_main(fetch, task_queue, result_queue) -> None:
    """Spawned worker loop: fetch keys until the ``None`` sentinel.

    Mirrors ``repro.parallel.pool._worker_main``: every outcome is a
    tagged tuple, and exceptions travel back as picklable payloads.
    """
    while True:
        key = task_queue.get()
        if key is None:
            break
        try:
            result = fetch(key)
        except BaseException as exc:
            result_queue.put(("error", key, exc))
            continue
        result_queue.put(("ok", key, result))


class BackgroundPrefetcher:
    """Fetch values for keys in the background, up to ``depth`` ahead.

    ``fetch`` maps a hashable key to a value.  At most ``depth`` keys
    are in flight or ready at any moment — further ``request`` calls
    are ignored until the caller ``take``s something, which bounds the
    prefetcher's memory to ``depth`` shards by construction.
    """

    def __init__(
        self,
        fetch: Callable,
        depth: int = 2,
        mode: str = "thread",
    ):
        if depth < 1:
            raise ValueError(f"prefetch depth must be >= 1, got {depth}")
        if mode not in ("thread", "process"):
            raise ValueError(f"mode must be 'thread' or 'process', got {mode!r}")
        self.fetch = fetch
        self.depth = int(depth)
        self.mode = mode
        self._closed = False
        #: keys handed to the worker whose results have not been taken
        self._inflight: set[Hashable] = set()
        #: key -> ("ok", value) | ("error", exception)
        self._ready: dict[Hashable, tuple] = {}
        if mode == "thread":
            self._lock = threading.Lock()
            self._have_result = threading.Condition(self._lock)
            self._task_queue: queue_lib.Queue = queue_lib.Queue()
            self._worker = threading.Thread(
                target=self._thread_worker_main, daemon=True
            )
            self._worker.start()
        else:
            ctx = multiprocessing.get_context("spawn")
            self._task_queue = ctx.Queue()
            self._result_queue = ctx.Queue()
            self._process = ctx.Process(
                target=_process_worker_main,
                args=(fetch, self._task_queue, self._result_queue),
                daemon=True,
            )
            self._process.start()

    # -- thread mode -------------------------------------------------------

    def _thread_worker_main(self) -> None:
        while True:
            key = self._task_queue.get()
            if key is None:
                return
            try:
                outcome = ("ok", self.fetch(key))
            except BaseException as exc:
                outcome = ("error", exc)
            with self._have_result:
                self._ready[key] = outcome
                self._have_result.notify_all()

    # -- shared API --------------------------------------------------------

    @property
    def pending(self) -> set:
        """Keys requested but not yet taken (in flight or ready)."""
        return set(self._inflight)

    def request(self, key: Hashable) -> bool:
        """Ask the worker to fetch ``key``; returns whether it was queued.

        No-op (returns False) when the key is already pending or the
        lookahead window (``depth``) is full.
        """
        if self._closed:
            raise PrefetcherClosed("prefetcher is closed")
        if key in self._inflight or len(self._inflight) >= self.depth:
            return False
        self._inflight.add(key)
        self._task_queue.put(key)
        return True

    def take(self, key: Hashable):
        """Block until ``key``'s fetch completes; return or raise it."""
        if self._closed:
            raise PrefetcherClosed("prefetcher is closed")
        if key not in self._inflight:
            raise KeyError(f"key {key!r} was never requested")
        if self.mode == "thread":
            with self._have_result:
                while key not in self._ready:
                    self._have_result.wait()
                outcome = self._ready.pop(key)
        else:
            outcome = self._take_from_process(key)
        self._inflight.discard(key)
        if outcome[0] == "error":
            raise outcome[1]
        return outcome[1]

    def _take_from_process(self, key: Hashable) -> tuple:
        while key not in self._ready:
            try:
                tag, got_key, payload = self._result_queue.get(timeout=_POLL_S)
            except queue_lib.Empty:
                if not self._process.is_alive():
                    raise RuntimeError(
                        "prefetch worker process died "
                        f"(exitcode {self._process.exitcode}) before "
                        f"returning key {key!r}"
                    ) from None
                continue
            self._ready[got_key] = (tag, payload)
        return self._ready.pop(key)

    def close(self) -> None:
        """Stop the worker; pending results are dropped."""
        if self._closed:
            return
        self._closed = True
        self._task_queue.put(None)
        if self.mode == "thread":
            self._worker.join(timeout=5.0)
        else:
            self._process.join(timeout=5.0)
            if self._process.is_alive():
                self._process.terminate()
                self._process.join()
        self._inflight.clear()
        self._ready.clear()

    def __enter__(self) -> "BackgroundPrefetcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
