"""Shared model helpers and the uniform ``embed()`` contract.

Every model that can map a single graph to a graph-level vector
(:class:`~repro.models.classifier.GraphClassifier`, the embedders in
:mod:`repro.models.embedders`, :class:`~repro.core.hap.HierarchicalEmbedder`,
:class:`~repro.models.simgnn.SimGNN`, :class:`~repro.models.gmn.GMN`)
exposes ``embed(graph) -> EmbeddingResult`` — one versioned return type
instead of four ad-hoc arrays, so the serving layer's cache and
similarity index (docs/serving.md) consume a single shape of result.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graph.graph import Graph
from repro.tensor import Tensor, no_grad, sqrt

#: schema tag carried by every EmbeddingResult; bumped on layout changes
EMBEDDING_SCHEMA = "repro.embed/v1"


@dataclass(frozen=True)
class EmbeddingResult:
    """A graph-level embedding plus the provenance that makes it cacheable.

    Parameters
    ----------
    vector:
        ``(D,)`` float array — the graph-level representation.
    graph_hash:
        Canonical content hash of the embedded graph
        (:func:`repro.graph.hashing.graph_hash`).
    model_fingerprint:
        Digest of the producing model's parameters
        (:func:`repro.nn.serialization.module_fingerprint`); weight
        updates change it, which is how the serving cache invalidates.
    schema:
        Format tag, currently ``"repro.embed/v1"``.
    """

    vector: np.ndarray
    graph_hash: str
    model_fingerprint: str
    schema: str = field(default=EMBEDDING_SCHEMA)

    @property
    def dim(self) -> int:
        return int(self.vector.shape[-1])

    def __array__(self, dtype=None, copy=None):
        """Coerce to the raw vector, so numpy consumers (``np.stack``,
        ``np.allclose``, the t-SNE study) keep working unchanged."""
        arr = np.asarray(self.vector)
        return arr.astype(dtype) if dtype is not None else arr

    def to_dict(self) -> dict:
        """JSON-serialisable view (used by run logs and the CLI)."""
        return {
            "schema": self.schema,
            "dim": self.dim,
            "vector": self.vector.tolist(),
            "graph_hash": self.graph_hash,
            "model_fingerprint": self.model_fingerprint,
        }


def embedding_result(model, graph: Graph, vector: np.ndarray) -> EmbeddingResult:
    """Wrap a computed ``vector`` with provenance for ``model``/``graph``."""
    from repro.graph.hashing import graph_hash
    from repro.nn.serialization import module_fingerprint

    return EmbeddingResult(
        vector=np.asarray(vector, dtype=np.float64),
        graph_hash=graph_hash(graph),
        model_fingerprint=module_fingerprint(model),
    )


def graph_edge_attr(graph: Graph, backend: str = "dense"):
    """Per-edge attributes in the layout ``backend`` expects, or ``None``.

    ``"dense"`` returns the graph's ``(N, N, Fe)`` tensor; ``"sparse"``
    the CSR-aligned ``(nnz, Fe)`` rows of
    :meth:`~repro.graph.graph.Graph.edge_feature_data` — the two forms
    the edge-conditioned layers consume (docs/molecular.md).
    """
    if graph.edge_features is None:
        return None
    if backend == "sparse":
        return graph.edge_feature_data()
    return graph.edge_features


def level_sum_vector(embedder, graph: Graph, backend: str = "dense") -> np.ndarray:
    """The sum of an embedder's level representations, as a plain array.

    This is the canonical single-graph embedding of the reproduction —
    the paper's hierarchical prediction strategy (Sec. 4.5.2) collapses
    the per-level readouts by summation, and the classifier head, the
    t-SNE figures and the serving layer all consume exactly this
    vector.  Computed under ``no_grad`` with the same left-to-right
    accumulation as :meth:`GraphClassifier.logits`, so the bytes match
    the training-path embedding bit for bit.
    """
    adjacency, features = graph_inputs(graph, backend)
    edge_attr = graph_edge_attr(graph, backend)
    with no_grad():
        levels = embedder.embed_levels(adjacency, features, edge_attr=edge_attr)
        total = levels[0].data.copy()
        for level in levels[1:]:
            total += level.data
    return total


def euclidean_distance(a: Tensor, b: Tensor, eps: float = 1e-12) -> Tensor:
    """Differentiable Euclidean distance between two embedding vectors."""
    diff = a - b
    return sqrt((diff * diff).sum() + eps)


def graph_inputs(graph: Graph, backend: str = "dense") -> tuple:
    """Extract ``(adjacency, features)`` for a model, validating features.

    ``backend="sparse"`` returns the graph's cached
    :class:`~repro.tensor.sparse.CSRMatrix` instead of the dense
    ``(N, N)`` array, selecting the sparse execution paths of every
    downstream layer (docs/sparse.md).
    """
    if graph.features is None:
        raise ValueError(
            "graph has no node features; attach an encoding from "
            "repro.data.encoding first"
        )
    if backend == "sparse":
        return graph.to_csr(), Tensor(graph.features)
    if backend != "dense":
        raise ValueError(f"unknown backend {backend!r}; use 'dense' or 'sparse'")
    return graph.adjacency, Tensor(graph.features)
