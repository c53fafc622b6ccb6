"""Vectorized nearest-neighbour index over graph embeddings.

The online form of the paper's Fig.-5 graph-similarity-search scenario
(docs/serving.md): HAP embeddings of a corpus are held in one dense
``(M, D)`` matrix and a query is answered with a single vectorized
distance computation — no per-candidate Python loop, so ``top_k`` is
O(M·D) numpy work.

Euclidean distance is the default metric because it is what the
hierarchical similarity models optimise
(:func:`repro.models.common.euclidean_distance`); ``metric="cosine"``
is available for length-insensitive retrieval.  Ties are broken by
insertion order (stable argsort), so results are deterministic.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

METRICS = ("euclidean", "cosine")


@dataclass(frozen=True)
class Neighbor:
    """One retrieval result: the stored key and its distance."""

    key: object
    distance: float


class EmbeddingIndex:
    """Append-only dense index of ``(key, vector)`` pairs."""

    def __init__(self, dim: int, metric: str = "euclidean"):
        if dim < 1:
            raise ValueError("embedding dimension must be positive")
        if metric not in METRICS:
            raise ValueError(f"unknown metric {metric!r}; use one of {METRICS}")
        self.dim = dim
        self.metric = metric
        self._keys: list[object] = []
        #: capacity-doubling store; rows [0, len(self)) are live
        self._vectors = np.empty((8, dim), dtype=np.float64)
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._keys)

    def add(self, key, vector) -> None:
        """Add one embedding under ``key`` (keys need not be unique)."""
        vector = np.asarray(vector, dtype=np.float64).reshape(-1)
        if vector.shape != (self.dim,):
            raise ValueError(
                f"vector has dimension {vector.shape[0]}, index holds {self.dim}"
            )
        with self._lock:
            n = len(self._keys)
            if n == self._vectors.shape[0]:
                grown = np.empty((2 * n, self.dim), dtype=np.float64)
                grown[:n] = self._vectors[:n]
                self._vectors = grown
            self._vectors[n] = vector
            self._keys.append(key)

    def _distances(self, query: np.ndarray, store: np.ndarray) -> np.ndarray:
        if self.metric == "euclidean":
            diff = store - query[None, :]
            return np.sqrt(np.einsum("md,md->m", diff, diff))
        norms = np.linalg.norm(store, axis=1) * np.linalg.norm(query)
        sims = store @ query / np.where(norms == 0.0, 1.0, norms)
        return 1.0 - sims

    def top_k(self, vector, k: int) -> list[Neighbor]:
        """The ``k`` nearest stored entries to ``vector``, closest first."""
        if k < 1:
            raise ValueError("k must be positive")
        query = np.asarray(vector, dtype=np.float64).reshape(-1)
        if query.shape != (self.dim,):
            raise ValueError(
                f"query has dimension {query.shape[0]}, index holds {self.dim}"
            )
        with self._lock:
            n = len(self._keys)
            if n == 0:
                return []
            store = self._vectors[:n].copy()
            keys = list(self._keys)
        distances = self._distances(query, store)
        order = np.argsort(distances, kind="stable")[: min(k, n)]
        return [Neighbor(keys[i], float(distances[i])) for i in order]


def build_index(model, graphs, keys=None, metric: str = "euclidean") -> EmbeddingIndex:
    """Index a corpus offline through ``model.embed`` (docs/serving.md).

    ``keys`` defaults to the positional indices of ``graphs``.  For the
    online path — where repeated graphs should hit the embedding cache —
    go through :meth:`repro.serve.InferenceService.add_to_index` instead.
    """
    graphs = list(graphs)
    if keys is None:
        keys = list(range(len(graphs)))
    keys = list(keys)
    if len(keys) != len(graphs):
        raise ValueError(f"{len(keys)} keys for {len(graphs)} graphs")
    index: EmbeddingIndex | None = None
    for key, graph in zip(keys, graphs):
        result = model.embed(graph)
        vector = np.asarray(result)
        if index is None:
            index = EmbeddingIndex(vector.shape[-1], metric=metric)
        index.add(key, vector)
    if index is None:
        raise ValueError("cannot build an index over zero graphs")
    return index
