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

The worker is one daemon thread, with none of the pickling constraints
of a process.  Shard decoding is mostly Python-bound — building and
validating ``Graph`` objects, with ``zlib`` decompression a small part
— so it holds the GIL for most of its time and overlaps compute only
partly.  It is short: a 32-graph MUTAG-like shard takes 1.6–2.7 ms of
thread CPU on a 2-vCPU host, down from 7.6–13.9 ms when archives held
one member per graph and field (medians of four runs a side;
docs/performance.md, "Shard decode").

Determinism note: the prefetcher only *caches* ``fetch`` results; which
keys are requested and the order ``take`` consumes them is decided
entirely by the caller.  Results therefore never depend on worker
timing — the property the streaming equivalence suite locks down.
"""

from __future__ import annotations

import queue as queue_lib
import threading
from typing import Callable, Hashable


class PrefetcherClosed(RuntimeError):
    """``request``/``take`` called on a closed prefetcher."""


class BackgroundPrefetcher:
    """Fetch values for keys in the background, up to ``depth`` ahead.

    ``fetch`` maps a hashable key to a value.  At most ``depth`` keys
    are in flight or ready at any moment — further ``request`` calls
    are ignored until the caller ``take``s something, which bounds the
    prefetcher's memory to ``depth`` shards by construction.
    """

    def __init__(self, fetch: Callable, depth: int = 2):
        if depth < 1:
            raise ValueError(f"prefetch depth must be >= 1, got {depth}")
        self.fetch = fetch
        self.depth = int(depth)
        self._closed = False
        #: keys handed to the worker whose results have not been taken
        self._inflight: set[Hashable] = set()
        #: key -> ("ok", value) | ("error", exception)
        self._ready: dict[Hashable, tuple] = {}
        self._have_result = threading.Condition(threading.Lock())
        self._task_queue: queue_lib.Queue = queue_lib.Queue()
        self._worker = threading.Thread(target=self._worker_main, daemon=True)
        self._worker.start()

    def _worker_main(self) -> None:
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
        with self._have_result:
            while key not in self._ready:
                self._have_result.wait()
            outcome = self._ready.pop(key)
        self._inflight.discard(key)
        if outcome[0] == "error":
            raise outcome[1]
        return outcome[1]

    def close(self) -> None:
        """Stop the worker; pending results are dropped."""
        if self._closed:
            return
        self._closed = True
        self._task_queue.put(None)
        self._worker.join(timeout=5.0)
        self._inflight.clear()
        self._ready.clear()

    def __enter__(self) -> "BackgroundPrefetcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
