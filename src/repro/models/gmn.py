"""Graph Matching Network (Li et al., 2019), re-implemented.

GMN makes node embedding *pair-dependent*: every propagation layer
combines a within-graph message with a cross-graph attention term

    a_{i->j} = softmax_j(h_i . h'_j)
    mu_i     = h_i - sum_j a_{i->j} h'_j

so each node sees where it differs from the other graph.  The readout
stage is pluggable: the default is the original gated attention sum;
passing a :class:`~repro.core.hap.HierarchicalEmbedder` built from HAP
coarsening modules yields the paper's GMN-HAP variant (Table 4).
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Linear
from repro.nn.module import Module
from repro.pooling.universal import GatedAttPool
from repro.tensor import Tensor, as_tensor, concat, relu, softmax, spmm


class _PropagationLayer(Module):
    """One GMN propagation step (within-graph + cross-graph)."""

    def __init__(self, hidden: int, rng: np.random.Generator):
        super().__init__()
        self.message = Linear(hidden, hidden, rng)
        self.update = Linear(3 * hidden, hidden, rng)

    def forward(
        self, adj1, h1: Tensor, adj2, h2: Tensor
    ) -> tuple[Tensor, Tensor]:
        """One step on the graphs' CSR adjacencies."""
        msg1 = spmm(adj1, self.message(h1))
        msg2 = spmm(adj2, self.message(h2))
        # Cross-graph attention in both directions.
        scores = h1 @ h2.T  # (N1, N2)
        attn_1to2 = softmax(scores, axis=1)
        attn_2to1 = softmax(scores.T, axis=1)
        mu1 = h1 - attn_1to2 @ h2
        mu2 = h2 - attn_2to1 @ h1
        new1 = relu(self.update(concat([h1, msg1, mu1], axis=1)))
        new2 = relu(self.update(concat([h2, msg2, mu2], axis=1)))
        return new1, new2


class GMN(Module):
    """Pair embedder with cross-graph attention propagation.

    Parameters
    ----------
    pooling:
        Optional module with ``embed_levels(adj, h) -> list[Tensor]``
        applied after propagation.  None selects the original gated
        attention readout; a HAP hierarchy yields GMN-HAP.
    """

    #: propagation layers before the readout
    num_layers = 3

    def __init__(
        self,
        in_features: int,
        hidden: int,
        rng: np.random.Generator,
        pooling: Module | None = None,
    ):
        super().__init__()
        self.encode = Linear(in_features, hidden, rng)
        self.layers = [_PropagationLayer(hidden, rng) for _ in range(self.num_layers)]
        for i, layer in enumerate(self.layers):
            setattr(self, f"prop{i}", layer)
        self.pooling = pooling
        self.default_readout = (
            GatedAttPool(hidden, rng) if pooling is None else None
        )
        self.out_features = (
            pooling.out_features if pooling is not None else hidden
        )

    def embed_pair(
        self, adj1, feats1: Tensor, adj2, feats2: Tensor
    ) -> tuple[list[Tensor], list[Tensor]]:
        """Hierarchical embeddings of both graphs, conditioned on each
        other; ``adj1`` and ``adj2`` are the graphs' CSRs
        (:func:`~repro.models.common.graph_inputs`)."""
        h1 = relu(self.encode(as_tensor(feats1)))
        h2 = relu(self.encode(as_tensor(feats2)))
        for layer in self.layers:
            h1, h2 = layer(adj1, h1, adj2, h2)
        if self.pooling is not None:
            return (
                self.pooling.embed_levels(adj1, h1),
                self.pooling.embed_levels(adj2, h2),
            )
        return (
            [self.default_readout(adj1, h1)],
            [self.default_readout(adj2, h2)],
        )

    def embed(self, graph):
        """Uniform single-graph embedding contract (docs/serving.md).

        GMN embeddings are pair-conditioned; for a standalone graph the
        canonical choice is to condition the graph on *itself* (the
        cross-graph attention then contrasts the graph with an exact
        copy), which is deterministic and lets GMN feed the same cache
        and similarity index as the siamese models.  The vector is the
        sum over the readout levels.
        """
        from repro.models.common import embedding_result, graph_inputs
        from repro.tensor import no_grad

        adjacency, features, _ = graph_inputs(graph)
        with no_grad():
            levels, _ = self.embed_pair(adjacency, features, adjacency, features)
            vector = levels[0].data.copy()
            for level in levels[1:]:
                vector += level.data
        return embedding_result(self, graph, vector)

    def auxiliary_loss(self) -> Tensor | None:
        if self.pooling is not None:
            return getattr(self.pooling, "auxiliary_loss", lambda: None)()
        return None
