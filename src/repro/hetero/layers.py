"""Relational GCN layer and encoder for heterogeneous graphs.

``RGCNLayer`` follows Schlichtkrull et al.: per-relation weight
matrices plus a self-connection,

    H' = act( sum_r Â_r H W_r + H W_self )

with Â_r the symmetrically normalised relation adjacency.  Adjacencies
may be numpy arrays or Tensors (the coarsened relation adjacencies are
differentiable).
"""

from __future__ import annotations

import numpy as np

from repro.gnn.layers import _activate
from repro.nn.init import glorot_uniform, zeros
from repro.nn.module import Module, Parameter
from repro.tensor import Tensor, as_tensor, gcn_propagate


class RGCNLayer(Module):
    """One relational graph convolution over a fixed relation list."""

    def __init__(
        self,
        relations: list[str],
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        activation: str = "leaky_relu",
    ):
        super().__init__()
        if not relations:
            raise ValueError("need at least one relation")
        self.relations = sorted(relations)
        self.in_features = in_features
        self.out_features = out_features
        self.activation = activation
        for relation in self.relations:
            setattr(
                self,
                f"weight_{relation}",
                Parameter(glorot_uniform(rng, in_features, out_features)),
            )
        self.weight_self = Parameter(glorot_uniform(rng, in_features, out_features))
        self.bias = Parameter(zeros(out_features))

    def forward(self, adjacencies: dict, h: Tensor) -> Tensor:
        h = as_tensor(h)
        missing = set(self.relations) - set(adjacencies)
        if missing:
            raise KeyError(f"missing relations in input: {sorted(missing)}")
        out = h @ self.weight_self + self.bias
        for relation in self.relations:
            weight = getattr(self, f"weight_{relation}")
            out = out + gcn_propagate(adjacencies[relation], h @ weight)
        return _activate(out, self.activation)


class HeteroEncoder(Module):
    """Stack of RGCN layers."""

    def __init__(
        self,
        relations: list[str],
        sizes: list[int],
        rng: np.random.Generator,
    ):
        super().__init__()
        if len(sizes) < 2:
            raise ValueError("encoder needs at least [in, out] sizes")
        self.relations = sorted(relations)
        self.layers = [
            RGCNLayer(self.relations, sizes[i], sizes[i + 1], rng)
            for i in range(len(sizes) - 1)
        ]
        for i, layer in enumerate(self.layers):
            setattr(self, f"rgcn{i}", layer)
        self.out_features = sizes[-1]

    def forward(self, adjacencies: dict, h: Tensor) -> Tensor:
        for layer in self.layers:
            h = layer(adjacencies, h)
        return h
