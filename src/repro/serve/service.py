"""Micro-batched in-process inference service (docs/serving.md).

``InferenceService`` owns one worker thread and a request queue.
Callers submit classify / embed / similarity requests from any number
of threads; whenever the worker is free it takes whatever is waiting —
up to ``max_batch_size`` requests, without waiting for more — and
executes the whole batch at once:

- **classify** misses run through the unified
  :meth:`~repro.models.classifier.GraphClassifier.predict` batch path,
  so B concurrent requests cost one ragged batched forward instead of
  B per-graph ones; a lone miss runs ``predict(graph)`` itself;
- **embed** runs per graph through ``model.embed`` — the exact offline
  arithmetic — and fills the LRU :class:`~repro.serve.cache.EmbeddingCache`,
  so a repeated graph skips the forward pass entirely and the served
  vector is *bitwise identical* whether it came from the cache or not;
- **top_k** embeds the query (through the same cache) and answers from
  the vectorized :class:`~repro.serve.index.EmbeddingIndex`.

Classification consults the cache too: a cached embedding re-enters the
head via ``logits_from_embedding`` (bit-for-bit the offline ``logits``)
and the model's own ``decode`` rule, but classify *misses* never
populate the cache — a batch's row embeddings match the per-graph
path only to float round-off, and the cache's contract is exactness.

Weight updates are detected by re-fingerprinting the model per batch
(:func:`repro.nn.serialization.module_fingerprint`); a changed
fingerprint purges stale cache entries before anything is served.

Observability (docs/observability.md): per-request latency and batch
size histograms, request/batch/cache counters and a queue-depth gauge
in the process registry, plus a per-batch span tree (``serve/batch`` →
``serve/classify``/``serve/embed``/...) kept in :meth:`stats`.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future

import numpy as np

from repro.graph.graph import Graph
from repro.graph.hashing import graph_hash
from repro.models.common import EmbeddingResult
from repro.nn.serialization import module_fingerprint
from repro.observe import get_registry, span, trace
from repro.serve.cache import EmbeddingCache
from repro.serve.index import EmbeddingIndex, Neighbor

KINDS = ("classify", "embed", "top_k")


class _Request:
    __slots__ = ("kind", "graph", "k", "future", "enqueued")

    def __init__(self, kind: str, graph: Graph, k: int | None = None):
        self.kind = kind
        self.graph = graph
        self.k = k
        self.future: Future = Future()
        self.enqueued = time.monotonic()


class InferenceService:
    """Persistent micro-batching front-end over a trained model.

    Parameters
    ----------
    model:
        A trained model.  ``classify`` needs ``predict``,
        ``logits_from_embedding`` and ``decode`` (the
        :class:`~repro.models.classifier.GraphClassifier` surface);
        ``embed``/``top_k`` need the uniform ``embed`` contract.  The
        model is switched to ``eval()`` — serving must be deterministic
        (no Gumbel noise).
    max_batch_size:
        Most requests one batch may coalesce.  ``1`` is the serial
        baseline: every request runs its own forward.  The worker never
        idles while a request waits, so batches grow with load.
    cache_size:
        LRU capacity of the embedding cache (``cache`` overrides).
    index:
        Optional pre-built :class:`~repro.serve.index.EmbeddingIndex`
        answering ``top_k``; :meth:`add_to_index` grows one on demand.
    """

    def __init__(
        self,
        model,
        *,
        max_batch_size: int = 16,
        cache_size: int = 1024,
        cache: EmbeddingCache | None = None,
        index: EmbeddingIndex | None = None,
    ):
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be positive")
        self.model = model
        model.eval()
        self.max_batch_size = max_batch_size
        self.cache = cache if cache is not None else EmbeddingCache(cache_size)
        self.index = index
        self._fingerprint: str | None = None
        self._queue: deque[_Request] = deque()
        self._cond = threading.Condition()
        self._closed = False
        self._worker: threading.Thread | None = None
        self._batches = 0
        self._last_batch_spans: dict | None = None
        self._registry = get_registry()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "InferenceService":
        if self._worker is not None and self._worker.is_alive():
            return self
        self._closed = False
        self._worker = threading.Thread(
            target=self._loop, name="repro-serve", daemon=True
        )
        self._worker.start()
        return self

    def close(self) -> None:
        """Drain outstanding requests, then stop the worker."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        if self._worker is not None:
            self._worker.join()
            self._worker = None

    def __enter__(self) -> "InferenceService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Client surface
    # ------------------------------------------------------------------
    def submit(self, kind: str, graph: Graph, k: int | None = None) -> Future:
        """Enqueue one request; the Future resolves when its batch ran."""
        if kind not in KINDS:
            raise ValueError(f"unknown request kind {kind!r}; use one of {KINDS}")
        if not isinstance(graph, Graph):
            raise TypeError(f"expected a Graph, got {type(graph).__name__}")
        request = _Request(kind, graph, k)
        with self._cond:
            if self._closed or self._worker is None:
                raise RuntimeError(
                    "service is not running; use `with InferenceService(...)` "
                    "or call start()"
                )
            self._queue.append(request)
            self._registry.gauge("serve/queue_depth").set(len(self._queue))
            self._cond.notify_all()
        self._registry.counter(f"serve/requests_{kind}").inc()
        return request.future

    def classify(self, graph: Graph, timeout: float | None = 30.0) -> int | float:
        """Blocking prediction — identical to offline ``predict``: the
        class for a classifier, the target for a regression head."""
        return self.submit("classify", graph).result(timeout)

    def classify_many(
        self, graphs, timeout: float | None = 30.0
    ) -> list[int | float]:
        """Submit a burst of classify requests, then gather.

        Submitting everything before the first wait is what lets the
        worker coalesce the burst into batches.
        """
        futures = [self.submit("classify", g) for g in graphs]
        return [f.result(timeout) for f in futures]

    def embed(self, graph: Graph, timeout: float | None = 30.0) -> EmbeddingResult:
        """Blocking embedding — bitwise the offline ``embed`` result."""
        return self.submit("embed", graph).result(timeout)

    def top_k(self, graph: Graph, k: int, timeout: float | None = 30.0) -> list[Neighbor]:
        """Nearest indexed neighbours of ``graph`` (Fig.-5 online)."""
        return self.submit("top_k", graph, k=k).result(timeout)

    def add_to_index(self, key, graph: Graph, timeout: float | None = 30.0) -> None:
        """Embed ``graph`` through the service (cache included) and index it."""
        result = self.embed(graph, timeout)
        if self.index is None:
            self.index = EmbeddingIndex(result.dim)
        self.index.add(key, result.vector)

    def stats(self) -> dict:
        """Operational snapshot: queue, batches, cache, index, spans."""
        with self._cond:
            depth = len(self._queue)
        snapshot = self._registry.snapshot()
        return {
            "queue_depth": depth,
            "batches": self._batches,
            "max_batch_size": self.max_batch_size,
            "cache": self.cache.stats(),
            "index_size": len(self.index) if self.index is not None else 0,
            "model_fingerprint": self._fingerprint,
            "counters": snapshot["counters"],
            "latency": snapshot["histograms"].get("serve/latency_s"),
            "batch_size": snapshot["histograms"].get("serve/batch_size"),
            "last_batch_spans": self._last_batch_spans,
        }

    # ------------------------------------------------------------------
    # Worker
    # ------------------------------------------------------------------
    def _loop(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._closed:
                    self._cond.wait()
                if not self._queue:
                    return  # closed and drained
                # Work-conserving: take what is queued now, never wait
                # for a fuller batch.
                batch = [
                    self._queue.popleft()
                    for _ in range(min(len(self._queue), self.max_batch_size))
                ]
                self._registry.gauge("serve/queue_depth").set(len(self._queue))
            try:
                self._process(batch)
            except Exception as exc:
                # A failure outside the per-request handlers (e.g. in
                # module_fingerprint) must not kill the worker: every
                # later submit would hang.  Fail what this batch left
                # unanswered, with the cause, and keep serving.
                for request in batch:
                    if not request.future.done():
                        request.future.set_exception(exc)

    def _process(self, batch: list[_Request]) -> None:
        self._batches += 1
        self._registry.counter("serve/batches").inc()
        self._registry.histogram("serve/batch_size").observe(len(batch))
        with trace("serve/batch") as root:
            with span("serve/fingerprint"):
                fingerprint = module_fingerprint(self.model)
                if fingerprint != self._fingerprint:
                    if self._fingerprint is not None:
                        dropped = self.cache.purge_stale(fingerprint)
                        self._registry.counter(
                            "serve/cache_invalidations"
                        ).inc(dropped)
                    self._fingerprint = fingerprint
            classify = [r for r in batch if r.kind == "classify"]
            if classify:
                with span("serve/classify"):
                    self._serve_classify(classify, fingerprint)
            for request in batch:
                if request.kind == "classify":
                    continue
                with span(f"serve/{request.kind}"):
                    self._serve_embedding(request, fingerprint)
            now = time.monotonic()
            for request in batch:
                self._registry.histogram("serve/latency_s").observe(
                    now - request.enqueued
                )
        self._last_batch_spans = root.to_dict()

    def _cached_vector(self, graph: Graph, fingerprint: str):
        """``(graph_hash, vector | None)`` for a cache lookup."""
        ghash = graph_hash(graph)
        return ghash, self.cache.get(fingerprint, ghash)

    def _serve_classify(self, requests: list[_Request], fingerprint: str) -> None:
        misses: list[_Request] = []
        for request in requests:
            try:
                _, vector = self._cached_vector(request.graph, fingerprint)
            except Exception as exc:
                request.future.set_exception(exc)
                continue
            if vector is None:
                misses.append(request)
            else:
                try:
                    logits = self.model.logits_from_embedding(vector)
                    request.future.set_result(self.model.decode(logits.data))
                except Exception as exc:
                    request.future.set_exception(exc)
        if not misses:
            return
        graphs = [r.graph for r in misses]
        try:
            # A lone miss is one graph, answered exactly as offline
            # ``predict(graph)`` answers it.
            if len(graphs) == 1:
                predictions = [self.model.predict(graphs[0])]
            else:
                predictions = self.model.predict(graphs).tolist()
        except Exception:
            # One bad graph poisons a batch; retry serially so it only
            # fails its own future.
            for request in misses:
                try:
                    request.future.set_result(self.model.predict(request.graph))
                except Exception as exc:
                    request.future.set_exception(exc)
            return
        for request, predicted in zip(misses, predictions):
            request.future.set_result(predicted)

    def _serve_embedding(self, request: _Request, fingerprint: str) -> None:
        try:
            ghash, vector = self._cached_vector(request.graph, fingerprint)
            if vector is None:
                vector = np.asarray(self.model.embed(request.graph))
                self.cache.put(fingerprint, ghash, vector)
            if request.kind == "embed":
                request.future.set_result(
                    EmbeddingResult(
                        vector=vector,
                        graph_hash=ghash,
                        model_fingerprint=fingerprint,
                    )
                )
                return
            if self.index is None:
                raise RuntimeError(
                    "service has no similarity index; pass index= or call "
                    "add_to_index first"
                )
            if request.k is None:
                raise ValueError("top_k request needs k")
            request.future.set_result(self.index.top_k(vector, request.k))
        except Exception as exc:
            request.future.set_exception(exc)
