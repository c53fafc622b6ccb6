"""Graph embedders: the pluggable "encode + pool" stage of every model.

All embedders share one protocol:

- ``embed_levels(adjacency, features, mask=None, edge_attr=None)``
  returns a list of graph-level vectors, one per hierarchy level (flat
  embedders return a single level), enabling the paper's hierarchical
  similarity measure; one graph (its CSR, as
  :func:`~repro.models.common.graph_inputs` gives it) gives ``(F,)``
  vectors, a batch — a ragged batch's CSR, rows and ``Slots``, or
  ``(B, N, ·)`` stacks and a mask — ``(B, F)`` rows;
- calling the embedder returns the final level;
- ``embed(graph)`` returns a versioned
  :class:`~repro.models.common.EmbeddingResult` (level-summed vector +
  graph hash + model fingerprint) — the uniform single-graph contract
  the serving layer consumes (docs/serving.md);
- ``out_features`` gives the final embedding dimension.

``HierarchicalEmbedder`` (in :mod:`repro.core.hap`) covers every
coarsening-based architecture; ``FlatEmbedder`` covers the flat readout
baselines of Table 3.
"""

from __future__ import annotations

from repro.gnn.encoder import GNNEncoder
from repro.graph.graph import Graph
from repro.models.common import EmbeddingResult, embedding_result, level_sum_vector
from repro.nn.module import Module
from repro.pooling.base import Readout
from repro.tensor import Tensor, as_tensor


class FlatEmbedder(Module):
    """GNN encoder followed by a flat readout.

    ``encoder=None`` applies the readout to the raw features: GCN-concat's
    readout owns its encoder.
    """

    def __init__(self, encoder: GNNEncoder | None, readout: Readout):
        super().__init__()
        self.encoder = encoder
        self.readout = readout
        self.out_features = readout.out_features

    def embed_levels(
        self, adjacency, features: Tensor, mask=None, edge_attr=None
    ) -> list[Tensor]:
        h = as_tensor(features)
        if self.encoder is not None:
            h = self.encoder(adjacency, h, edge_attr=edge_attr)
        elif edge_attr is not None:
            raise ValueError(
                f"{type(self.readout).__name__} cannot condition on edge_attr"
            )
        return [self.readout(adjacency, h, mask)]

    def forward(self, adjacency, features: Tensor, mask=None, edge_attr=None) -> Tensor:
        return self.embed_levels(adjacency, features, mask, edge_attr)[-1]

    def embed(self, graph: Graph) -> EmbeddingResult:
        """Uniform single-graph embedding contract (docs/serving.md)."""
        return embedding_result(self, graph, level_sum_vector(self, graph))

    def auxiliary_loss(self) -> Tensor | None:
        return None
