"""Reference pooling operators, written apart from ``repro.pooling``.

Oracles for ``tests/test_pooling_oracle.py``: every coarsening and flat
readout as it was computed one graph at a time, by hand — ``s.T @ h``
and ``s.T @ adj @ s`` unfused, Top-K by gathering the kept rows and
taking the induced subgraph.  Each function reads only the operator's
parameters (and its unconverted GNN sub-layers), never its ``select``
or ``readout``, so the two share no pooling code.

Coarsenings return ``(A', H', aux)`` with ``aux`` the auxiliary loss
or ``None``; readouts return the ``(out_features,)`` vector.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.coarsen import gumbel_soft_sample
from repro.pooling.spectral import spectral_embedding
from repro.tensor import (
    Tensor,
    as_tensor,
    concat,
    leaky_relu,
    log,
    max_along,
    power,
    scatter_gather,
    sigmoid,
    softmax,
    sqrt,
    tanh,
    where,
)
from tests.edge_reference import incident_bond_sums


# ---------------------------------------------------------------------------
# HAP (Algorithm 1) and its heterogeneous lift
# ---------------------------------------------------------------------------


def hap_coarsening(module, adjacency, h, edge_attr=None):
    """GCont -> MOA -> ``H' = MᵀH``, ``A' = MᵀAM`` -> Eq. 19 sampling."""
    adj, h = as_tensor(adjacency), as_tensor(h)
    features = h
    if edge_attr is not None:  # dense (N, N, Fe) bonds
        features = h + Tensor(incident_bond_sums(edge_attr)) @ module.edge_proj
    m = module.moa(features @ module.gcont.transform)
    h_coarse = m.T @ h
    adj_coarse = m.T @ adj @ m
    if module.soft_sampling:
        rng = module.rng if module.training else None
        adj_coarse = gumbel_soft_sample(adj_coarse, module.tau, rng)
    return adj_coarse, h_coarse, None


def hetero_coarsening(module, adjacencies: dict, h):
    """One shared assignment M coarsens every relation: ``A'_r = MᵀA_rM``."""
    h = as_tensor(h)
    m = module.moa(module.gcont(h))
    h_coarse = m.T @ h
    coarse = {}
    for relation in module.relations:
        adj = as_tensor(adjacencies[relation])
        adj_r = m.T @ adj @ m
        if module.soft_sampling:
            rng = module.rng if module.training else None
            adj_r = gumbel_soft_sample(adj_r, module.tau, rng)
        coarse[relation] = adj_r
    return coarse, h_coarse, m


# ---------------------------------------------------------------------------
# Grouping poolers
# ---------------------------------------------------------------------------


def diffpool(op, adjacency, h):
    adj, h = as_tensor(adjacency), as_tensor(h)
    s = softmax(op.assign_gnn(adjacency, h), axis=1)
    z = op.embed_gnn(adjacency, h) if op.embed_gnn is not None else h
    h_coarse = s.T @ z
    adj_coarse = s.T @ adj @ s
    link_residual = adj - s @ s.T
    link_loss = (link_residual * link_residual).mean()
    entropy = -(s * log(s + 1e-12)).sum(axis=1).mean()
    return adj_coarse, h_coarse, link_loss + entropy * 0.1


def _trace(matrix: Tensor) -> Tensor:
    idx = np.arange(matrix.shape[0])
    return matrix[idx, idx].sum()


def mincut(op, adjacency, h):
    adj, h = as_tensor(adjacency), as_tensor(h)
    k = op.num_clusters
    s = softmax(op.assign(h), axis=1)
    degree = Tensor(np.diag(np.asarray(adj.data).sum(axis=1)))
    cut_loss = -(_trace(s.T @ adj @ s) / (_trace(s.T @ degree @ s) + 1e-9))
    sts = s.T @ s
    fro = sqrt((sts * sts).sum() + 1e-12)
    residual = sts / fro - Tensor(np.eye(k) / np.sqrt(k))
    ortho_loss = sqrt((residual * residual).sum() + 1e-12)
    adj_coarse = (s.T @ adj @ s) * Tensor(1.0 - np.eye(k))
    return adj_coarse, s.T @ h, cut_loss + ortho_loss


def structpool(op, adjacency, h):
    adj, h = as_tensor(adjacency), as_tensor(h)
    n = h.shape[0]
    adj_norm = adj * power(adj.sum(axis=1) + 1e-8, -1.0).reshape(n, 1)
    unary = op.unary(h)
    q = softmax(unary, axis=1)
    for _ in range(op.iterations):
        q = softmax(unary + adj_norm @ q @ op.pairwise, axis=1)
    return q.T @ adj @ q, q.T @ h, None


def spectralpool(op, adjacency, h):
    adj, h = as_tensor(adjacency), as_tensor(h)
    coords = Tensor(spectral_embedding(np.asarray(adj.data), op.num_clusters))
    s = softmax(op.assign(concat([h, coords], axis=1)), axis=1)
    return s.T @ adj @ s, s.T @ h, None


def asap(op, adjacency, h):
    adj, h = as_tensor(adjacency), as_tensor(h)
    n, f = h.shape
    member_mask = (np.asarray(adj.data) != 0) | np.eye(n, dtype=bool)
    transformed = op.transform(h)
    masked = where(
        member_mask[:, :, None],
        transformed.reshape(1, n, f),
        Tensor(np.full((1, 1, 1), -1e9)),
    )
    masters = max_along(masked, axis=1)
    logits = leaky_relu(
        (masters @ op.att_master).reshape(n, 1)
        + (transformed @ op.att_member).reshape(1, n)
    )
    alpha = softmax(where(member_mask, logits, Tensor(np.full((n, n), -1e9))), axis=1)
    cluster_h = alpha @ transformed
    degree = member_mask.sum(axis=1).astype(np.float64)
    neigh_sum = adj @ op.fit_neigh(cluster_h)
    fitness = sigmoid(
        op.fit_self(cluster_h) * Tensor(degree.reshape(n, 1)) - neigh_sum
    ).reshape(n)
    k = max(1, min(n, math.ceil(op.ratio * n)))
    kept = np.sort(np.argsort(-fitness.data, kind="stable")[:k])
    h_coarse = scatter_gather(cluster_h, kept) * scatter_gather(fitness.reshape(n, 1), kept)
    kept_assignment = scatter_gather(alpha, kept).T  # (N, k)
    return kept_assignment.T @ adj @ kept_assignment, h_coarse, None


# ---------------------------------------------------------------------------
# Top-K poolers: gather the kept rows, keep the induced subgraph
# ---------------------------------------------------------------------------


def _topk_scores(op, adjacency, h):
    name = type(op).__name__
    if name == "GPool":
        norm = sqrt((op.projection * op.projection).sum() + 1e-12)
        return (h @ op.projection) / norm
    if name == "SAGPool":
        return op.score_gcn(adjacency, h).reshape(h.shape[0])
    raw = h @ op.att
    if name == "AttPoolLocal":
        adj_data = adjacency.data if isinstance(adjacency, Tensor) else adjacency
        degree = (np.asarray(adj_data) != 0).sum(axis=1)
        raw = raw + Tensor(np.log1p(degree))
    return raw


def topk(op, adjacency, h):
    h = as_tensor(h)
    n = h.shape[0]
    raw = _topk_scores(op, adjacency, h)
    k = max(1, min(n, math.ceil(op.ratio * n)))
    kept = np.sort(np.argsort(-raw.data, kind="stable")[:k])
    if op.gate == "tanh":
        gates = tanh(raw)
    elif op.gate == "sigmoid":
        gates = sigmoid(raw)
    else:
        gates = softmax(raw, axis=0)
    h_kept = scatter_gather(h, kept) * scatter_gather(gates.reshape(n, 1), kept)
    if isinstance(adjacency, Tensor) and adjacency.requires_grad:
        adj_kept = scatter_gather(scatter_gather(adjacency, kept).T, kept).T
    else:
        adj_data = adjacency.data if isinstance(adjacency, Tensor) else adjacency
        adj_kept = Tensor(np.asarray(adj_data)[np.ix_(kept, kept)])
    return adj_kept, h_kept, None


# ---------------------------------------------------------------------------
# N -> 1 ablation coarsenings (HAP-MeanPool, HAP-MeanAttPool)
# ---------------------------------------------------------------------------


def _meanatt_scores(weight, h):
    return sigmoid(h @ (h.mean(axis=0) @ weight))


def meanpool_coarsening(op, adjacency, h):
    h = as_tensor(h)
    return Tensor(np.zeros((1, 1))), h.mean(axis=0).reshape(1, h.shape[1]), None


def meanattpool_coarsening(op, adjacency, h):
    h = as_tensor(h)
    return Tensor(np.zeros((1, 1))), meanattpool(op.readout, adjacency, h).reshape(
        1, h.shape[1]
    ), None


# ---------------------------------------------------------------------------
# Flat readouts
# ---------------------------------------------------------------------------


def sumpool(op, adjacency, h):
    return as_tensor(h).sum(axis=0)


def meanpool(op, adjacency, h):
    return as_tensor(h).mean(axis=0)


def maxpool(op, adjacency, h):
    return as_tensor(h).max(axis=0)


def gcnconcat(op, adjacency, h):
    outputs = []
    for layer in op.encoder.layers:
        h = layer(adjacency, h)
        outputs.append(h)
    return concat(outputs, axis=1).mean(axis=0)


def meanattpool(op, adjacency, h):
    h = as_tensor(h)
    n = h.shape[0]
    return (_meanatt_scores(op.weight, h).reshape(1, n) @ h).reshape(h.shape[1])


def gatedattpool(op, adjacency, h):
    h = as_tensor(h)
    n = h.shape[0]
    gates = sigmoid(op.gate(h)).reshape(1, n)
    return (gates @ tanh(op.project(h))).reshape(op.out_features)


def set2set(op, adjacency, h):
    h = as_tensor(h)
    n, f = h.shape
    q_star = Tensor(np.zeros(2 * f))
    state = (Tensor(np.zeros(f)), Tensor(np.zeros(f)))
    for _ in range(op.steps):
        query, cell = op.lstm(q_star, state)
        state = (query, cell)
        attention = softmax(h @ query, axis=0)
        readout = (attention.reshape(1, n) @ h).reshape(f)
        q_star = concat([query, readout], axis=0)
    return q_star


def sortpooling(op, adjacency, h):
    h = as_tensor(h)
    n, f = h.shape
    order = np.argsort(-h.data[:, -1], kind="stable")[: op.k]
    kept = min(op.k, n)
    flat = scatter_gather(h, order).reshape(kept * f)
    if kept < op.k:
        flat = concat([flat, Tensor(np.zeros((op.k - kept) * f))], axis=0)
    return flat


#: operator class name -> reference function
COARSENING_REFERENCES = {
    "GraphCoarsening": hap_coarsening,
    "DiffPool": diffpool,
    "MinCutPool": mincut,
    "StructPool": structpool,
    "SpectralPool": spectralpool,
    "ASAP": asap,
    "GPool": topk,
    "SAGPool": topk,
    "AttPoolGlobal": topk,
    "AttPoolLocal": topk,
    "MeanPoolCoarsening": meanpool_coarsening,
    "MeanAttPoolCoarsening": meanattpool_coarsening,
}

READOUT_REFERENCES = {
    "SumPool": sumpool,
    "MeanPool": meanpool,
    "MaxPool": maxpool,
    "GCNConcat": gcnconcat,
    "MeanAttPool": meanattpool,
    "GatedAttPool": gatedattpool,
    "Set2Set": set2set,
    "SortPooling": sortpooling,
}
