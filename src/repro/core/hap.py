"""The hierarchical HAP framework (paper Fig. 2).

``HierarchicalEmbedder`` alternates node & cluster embedding (a GNN
encoder) with a coarsening operator, K times, and emits one graph-level
representation per level — the basis of the hierarchical similarity
measure (Sec. 4.5).  The coarsening operator is pluggable: HAP's
:class:`~repro.core.coarsen.GraphCoarsening` by default, or any baseline
:class:`~repro.pooling.base.Coarsening` for the Table 5 ablations
(HAP-MeanPool, HAP-MeanAttPool, HAP-SAGPool, HAP-DiffPool).
"""

from __future__ import annotations

import numpy as np

from repro.core.coarsen import GraphCoarsening, loop_order_noise
from repro.gnn.encoder import GNNEncoder
from repro.nn.module import Module
from repro.pooling.base import Coarsening, node_mean
from repro.tensor import CSRMatrix, Slots, Tensor, as_tensor


class HierarchicalEmbedder(Module):
    """K levels of (GNN encode -> coarsen), with per-level readouts.

    Parameters
    ----------
    encoders:
        One GNN encoder per level (the paper uses two GCN/GAT layers
        before every coarsening module).
    coarsenings:
        One coarsening operator per level; output feature dimension of
        encoder k must match the input expectation of coarsening k.
    """

    def __init__(self, encoders: list[GNNEncoder], coarsenings: list[Coarsening]):
        super().__init__()
        if len(encoders) != len(coarsenings):
            raise ValueError("need one encoder per coarsening level")
        if not encoders:
            raise ValueError("need at least one level")
        self.num_levels = len(encoders)
        self.encoders = encoders
        self.coarsenings = coarsenings
        for i, (enc, coarse) in enumerate(zip(encoders, coarsenings)):
            setattr(self, f"encoder{i}", enc)
            setattr(self, f"coarsening{i}", coarse)
        self.out_features = encoders[-1].out_features

    def embed_levels(self, adjacency, h: Tensor, mask=None, edge_attr=None) -> list[Tensor]:
        """Graph-level representation after every coarsening level.

        Takes one graph — its ``(N, N)`` CSR, as every model passes it
        (:func:`~repro.models.common.graph_inputs`), or a dense
        adjacency without bonds, the coarsened levels' layout — and
        ``(N, F)`` features; a ragged batch — the block-diagonal CSR,
        ``(ΣN, F)`` features and :class:`~repro.tensor.Slots` in
        place of the mask, as in a
        :class:`~repro.data.batching.GraphBatch`; or a stack of dense
        graphs — 3-D ``(B, N, N)`` / ``(B, N, F)`` arrays plus an
        optional ``(B, N)`` mask, such as a ragged batch's slots view.
        All run the same loop.  Each level hands its output mask to the
        next: it is ``None`` once every graph owns the same number of
        clusters (HAP and the grouping poolers after level 0), so the
        readout is the plain mean over them, and a ``(B, K)`` mask after
        a Top-K level, whose readout is the mean over each graph's kept
        nodes.  Either way a batch matches the per-graph results.

        ``edge_attr`` (``(nnz, Fe)`` bond rows beside a CSR adjacency,
        docs/molecular.md) conditions level 0 only — the coarsened
        levels are soft cluster graphs with no bond identity.

        In training mode the levels' Gumbel noise (Eq. 19) is drawn up
        front in the per-graph loop's order (:func:`loop_order_noise`),
        so a batch also matches the loop's draws.
        """
        if not isinstance(adjacency, CSRMatrix):
            # A level-0 CSR adjacency stays sparse (docs/sparse.md); the
            # coarsened levels it produces are small dense Tensors, so
            # the loop below needs no other change.
            adjacency = as_tensor(adjacency)
        h = as_tensor(h)
        batch_shape = mask.shape[:1] if isinstance(mask, Slots) else h.shape[:-2]
        levels: list[Tensor] = []
        with loop_order_noise(self.coarsenings, batch_shape):
            for encoder, coarsening in zip(self.encoders, self.coarsenings):
                h = encoder(adjacency, h, edge_attr=edge_attr)
                adjacency, h, mask = coarsening(
                    adjacency, h, mask, edge_attr=edge_attr
                )
                edge_attr = None  # coarsened levels carry no bonds
                levels.append(node_mean(h, mask))
        return levels

    def forward(self, adjacency, h: Tensor, mask=None, edge_attr=None) -> Tensor:
        """Final graph-level embedding: ``(F,)`` for a single graph,
        ``(B, F)`` for a batch."""
        return self.embed_levels(adjacency, h, mask, edge_attr=edge_attr)[-1]

    def embed(self, graph):
        """Uniform single-graph embedding contract (docs/serving.md).

        Returns a versioned :class:`~repro.models.common.EmbeddingResult`
        whose vector is the sum of the level representations — the same
        collapse the classifier head and the hierarchical similarity
        measures apply.
        """
        from repro.models.common import embedding_result, level_sum_vector

        return embedding_result(self, graph, level_sum_vector(self, graph))

    def auxiliary_loss(self) -> Tensor | None:
        """Sum of the coarsening operators' auxiliary losses, if any."""
        total: Tensor | None = None
        for coarsening in self.coarsenings:
            aux = coarsening.auxiliary_loss()
            if aux is not None:
                total = aux if total is None else total + aux
        return total


def build_hap_embedder(
    in_features: int,
    hidden: int,
    cluster_sizes: list[int],
    rng: np.random.Generator,
    conv: str = "gcn",
    tau: float = 0.1,
    soft_sampling: bool = True,
    relaxation: str = "project",
    num_heads: int = 1,
    edge_features: int = 0,
) -> HierarchicalEmbedder:
    """Construct the paper's default HAP architecture.

    ``cluster_sizes`` gives the target size N' of each coarsening module
    (the paper uses two modules; sizes are per-dataset), each after an
    encoder of two GNN layers (Sec. 6.1.3).  The first encoder maps
    ``in_features -> hidden``; later levels stay at ``hidden``.
    ``edge_features > 0`` makes the level-0 encoder and
    coarsening condition on per-edge attributes (docs/molecular.md);
    coarsened levels have no edges to attribute, so deeper modules are
    built unconditioned.
    """
    if not cluster_sizes:
        raise ValueError("need at least one coarsening module")
    encoders: list[GNNEncoder] = []
    coarsenings: list[Coarsening] = []
    feat = in_features
    for level, n_prime in enumerate(cluster_sizes):
        level_edge_features = edge_features if level == 0 else 0
        sizes = [feat, hidden, hidden]
        encoders.append(
            GNNEncoder(sizes, rng, conv=conv, edge_features=level_edge_features)
        )
        coarsenings.append(
            GraphCoarsening(
                hidden,
                n_prime,
                rng,
                tau=tau,
                soft_sampling=soft_sampling,
                relaxation=relaxation,
                num_heads=num_heads,
                edge_features=level_edge_features,
            )
        )
        feat = hidden
    return HierarchicalEmbedder(encoders, coarsenings)
