"""Online inference service over trained models (docs/serving.md).

The serving subsystem turns a trained model into a persistent,
concurrent-safe endpoint:

- :class:`InferenceService` — micro-batched request queue behind
  ``classify`` / ``embed`` / ``top_k``, bitwise-faithful to the offline
  ``predict()`` / ``embed()`` surface;
- :class:`EmbeddingCache` — content-addressed LRU of embeddings, keyed
  ``(model_fingerprint, graph_hash)``;
- :class:`EmbeddingIndex` / :func:`build_index` — vectorized
  nearest-neighbour retrieval over a corpus of embeddings;
- :func:`run_closed_loop` / :class:`LoadReport` — the closed-loop load
  generator used by the serving throughput benchmark.
"""

from repro.serve.cache import EmbeddingCache
from repro.serve.index import EmbeddingIndex, Neighbor, build_index
from repro.serve.loadgen import LoadReport, run_closed_loop
from repro.serve.service import InferenceService

__all__ = [
    "EmbeddingCache",
    "EmbeddingIndex",
    "InferenceService",
    "LoadReport",
    "Neighbor",
    "build_index",
    "run_closed_loop",
]
