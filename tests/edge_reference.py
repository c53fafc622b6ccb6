"""Dense references for the edge-conditioned layers, written apart from
``repro.gnn``.

The models take bond features one way only: ``(nnz, Fe)`` rows beside a
CSR adjacency.  These oracles take them the other way, as a dense
``(N, N, Fe)`` tensor (symmetric, zero off the edges), and write every
conditioned product as a dense matrix product.  Each function reads
only the layer's parameters, never its ``forward``, so the two share no
message-passing code:

- GIN: ``MLP((1 + ε) H + (A ⊙ g) H)`` with the gate ``g = 1 + tanh(E w)``;
- SAGE: the gated mean ``(A ⊙ g) H / rowsum(A ⊙ g)`` beside ``H``;
- GAT: logits ``a_srcᵀ W h_i + a_dstᵀ W h_j + a_eᵀ e_ij`` over each
  node's neighbours and itself (a self-loop carries no bond, so its
  ``a_eᵀ e_ii`` is zero);
- MOA's conditioning: each node's incident bond sum ``Σ_j e_ij``.
"""

from __future__ import annotations

import numpy as np

from repro.tensor import (
    Tensor,
    as_tensor,
    concat,
    leaky_relu,
    power,
    relu,
    softmax,
    tanh,
    where,
)


def _activate(out: Tensor, activation: str) -> Tensor:
    if activation == "relu":
        return relu(out)
    if activation == "leaky_relu":
        return leaky_relu(out, 0.01)
    if activation == "tanh":
        return tanh(out)
    assert activation == "none", activation
    return out


def _constant(array) -> np.ndarray:
    """A level-0 operand as a float array (bonds exist only at level 0,
    whose adjacency is constant graph data)."""
    return np.asarray(array.data if isinstance(array, Tensor) else array, dtype=np.float64)


def gated_adjacency(gate, adjacency, edge_attr) -> Tensor:
    """``A ⊙ (1 + tanh(E w))`` as an ``(N, N)`` matrix."""
    g = tanh(Tensor(_constant(edge_attr)) @ gate.weight) + 1.0
    return Tensor(_constant(adjacency)) * g


def gin(layer, adjacency, h, edge_attr) -> Tensor:
    h = as_tensor(h)
    aggregated = gated_adjacency(layer.edge_gate, adjacency, edge_attr) @ h
    combined = h * (1.0 + layer.eps[0]) + aggregated
    hidden = _activate(combined @ layer.w1 + layer.b1, layer.activation)
    return _activate(hidden @ layer.w2 + layer.b2, layer.activation)


def sage(layer, adjacency, h, edge_attr) -> Tensor:
    h = as_tensor(h)
    n = h.shape[0]
    gated = gated_adjacency(layer.edge_gate, adjacency, edge_attr)
    degree = gated.sum(axis=1) + 1e-8
    mean = (gated @ h) * power(degree, -1.0).reshape(n, 1)
    return _activate(concat([h, mean], axis=1) @ layer.weight + layer.bias, layer.activation)


def gat(layer, adjacency, h, edge_attr) -> Tensor:
    h = as_tensor(h)
    n = h.shape[0]
    wh = h @ layer.weight
    bond = Tensor(_constant(edge_attr)) @ layer.att_edge
    raw = (wh @ layer.att_src).reshape(n, 1) + (wh @ layer.att_dst).reshape(1, n) + bond
    logits = leaky_relu(raw, layer.negative_slope)
    neighbours = (_constant(adjacency) != 0) | np.eye(n, dtype=bool)
    masked = where(neighbours, logits, Tensor(np.full((n, n), -1e9)))
    attention = softmax(masked, axis=1)
    return _activate(attention @ wh + layer.bias, layer.activation)


def incident_bond_sums(edge_attr) -> np.ndarray:
    """``(N, Fe)``: row ``i`` is ``Σ_j e_ij``."""
    return _constant(edge_attr).sum(axis=1)


#: layer class name -> reference function
LAYER_REFERENCES = {"GINLayer": gin, "SAGELayer": sage, "GATLayer": gat}
