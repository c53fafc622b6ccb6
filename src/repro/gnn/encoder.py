"""Stacked GNN encoder used as the node & cluster embedding module.

The paper uses two GAT or GCN layers before every coarsening module
(Sec. 6.1.3); ``GNNEncoder`` builds that stack for either convolution
type.
"""

from __future__ import annotations

import numpy as np

from repro.gnn.extra_layers import GINLayer, SAGELayer
from repro.gnn.layers import GATLayer, GCNLayer
from repro.nn.module import Module
from repro.observe.tracing import span
from repro.tensor import Tensor


class GNNEncoder(Module):
    """A stack of GCN or GAT layers.

    Parameters
    ----------
    sizes:
        Feature dimensions ``[in, hidden, ..., out]``; one layer is
        created per consecutive pair.
    conv:
        ``'gcn'``, ``'gat'``, ``'gin'`` or ``'sage'``.
    edge_features:
        Width Fe of per-edge attribute vectors; ``> 0`` makes every
        layer condition on the ``edge_attr`` forward operand
        (docs/molecular.md).  GCN has no edge-attribute slot and
        rejects it at construction.
    """

    def __init__(
        self,
        sizes: list[int],
        rng: np.random.Generator,
        conv: str = "gcn",
        activation: str = "leaky_relu",
        edge_features: int = 0,
    ):
        super().__init__()
        if len(sizes) < 2:
            raise ValueError("encoder needs at least [in, out] sizes")
        layer_classes = {
            "gcn": GCNLayer,
            "gat": GATLayer,
            "gin": GINLayer,
            "sage": SAGELayer,
        }
        if conv not in layer_classes:
            raise ValueError(f"unknown conv type {conv!r}")
        if edge_features > 0 and conv == "gcn":
            raise ValueError(
                "conv='gcn' cannot condition on edge features; use 'gin', "
                "'sage' or 'gat' (docs/molecular.md)"
            )
        layer_cls = layer_classes[conv]
        self.conv = conv
        self.edge_features = edge_features
        extra = {"edge_features": edge_features} if edge_features > 0 else {}
        self.layers = [
            layer_cls(sizes[i], sizes[i + 1], rng, activation=activation, **extra)
            for i in range(len(sizes) - 1)
        ]
        for i, layer in enumerate(self.layers):
            setattr(self, f"conv{i}", layer)

    @property
    def out_features(self) -> int:
        return self.layers[-1].out_features

    def forward(self, adjacency, h: Tensor, mask=None, edge_attr=None) -> Tensor:
        """Run the stack; every layer broadcasts over a leading batch
        axis, so a padded ``(B, N, ·)`` batch works the same as a single
        graph.
        ``edge_attr`` reaches every layer — the stack shares one
        adjacency, so each hop may condition on the same bond types."""
        with span("encoder"):
            for layer in self.layers:
                h = layer(adjacency, h, mask, edge_attr=edge_attr)
        return h

    def layer_outputs(self, adjacency, h: Tensor) -> list[Tensor]:
        """Node representations after every layer (GCN-concat readout)."""
        outputs = []
        for layer in self.layers:
            h = layer(adjacency, h)
            outputs.append(h)
        return outputs
