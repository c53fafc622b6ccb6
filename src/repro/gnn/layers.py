"""GCN and GAT layers (paper Eq. 11-12).

Both layers run level 0 on a constant
:class:`~repro.tensor.sparse.CSRMatrix` — one graph's ``to_csr()``
(docs/sparse.md) or the block-diagonal adjacency of a ragged batch
(docs/batching.md) — with gather/scatter + segment-reduce kernels in
O(E) memory, and the coarsened levels on a dense ``(N, N)`` adjacency:
a Tensor (differentiable, the soft-sampled coarsened adjacency A' of
Eq. 18-19 whose gradient must flow back into the MOA attention) or a
numpy array.
"""

from __future__ import annotations

import numpy as np

from repro.gnn.edges import check_edge_attr
from repro.nn.init import glorot_uniform, zeros
from repro.nn.module import Module, Parameter
from repro.tensor import (
    CSRMatrix,
    Tensor,
    as_tensor,
    concat,
    gcn_propagate,
    leaky_relu,
    power,
    relu,
    scatter_gather,
    segment_softmax,
    softmax,
    spmm,
    where,
)


def _self_loop_index_map(adj_tilde: CSRMatrix) -> np.ndarray:
    """For each stored entry of ``Ã = A + I``, the index of its original
    edge in ``A`` — or ``nnz(A)`` (one past the end) for the self-loops
    ``Ã`` introduced.  Valid because ``with_self_loops`` preserves the
    relative order of off-diagonal entries and graph adjacencies carry
    no stored diagonal (zero-diagonal invariant of :class:`repro.graph.Graph`).
    """
    row, col = adj_tilde.row_ids, adj_tilde.indices
    off_diag = row != col
    num_edges = int(off_diag.sum())
    index_map = np.full(adj_tilde.nnz, num_edges, dtype=np.intp)
    index_map[off_diag] = np.arange(num_edges, dtype=np.intp)
    return index_map


def _activate(out, activation: str):
    """Apply a named activation (shared by GCN and GAT layers).

    ``leaky_relu`` is the default in :class:`~repro.gnn.encoder.GNNEncoder`
    because plain ReLU encoders can die wholesale at small scale, which
    collapses MOA attention to exactly-uniform with zero gradient.
    """
    if activation == "relu":
        return relu(out)
    if activation == "leaky_relu":
        return leaky_relu(out, 0.01)
    if activation == "tanh":
        from repro.tensor import tanh

        return tanh(out)
    if activation == "none":
        return out
    raise ValueError(f"unknown activation {activation!r}")


class GCNLayer(Module):
    """Graph convolution: ``H' = act(D̃^{-1/2} Ã D̃^{-1/2} H W)`` (Eq. 12)."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        activation: str = "relu",
    ):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            glorot_uniform(rng, in_features, out_features), name="weight"
        )
        self.bias = Parameter(zeros(out_features), name="bias")
        self.activation = activation

    def forward(self, adjacency, h: Tensor, edge_attr=None) -> Tensor:
        """One fused :func:`~repro.tensor.ops.gcn_propagate` call for
        every adjacency: ``(N, N)`` with ``(N, F)`` features, a
        ``(B, N, N)`` stack with ``(B, N, F)`` features (constant or
        differentiable), or a constant CSR matrix — one graph, or the
        block-diagonal adjacency of a ragged batch with its ``(ΣN, F)``
        features.  On a zero-padded stack, padding rows produce garbage
        that never reaches valid rows (their adjacency rows and columns
        are zero); downstream masked reductions discard it."""
        if edge_attr is not None:
            # Symmetric normalisation has no slot for per-edge attributes;
            # silently dropping them would be a modelling bug the lint rule
            # no-dropped-edge-attr exists to catch (docs/molecular.md).
            raise ValueError(
                "GCNLayer cannot condition on edge_attr; use conv='gin', "
                "'sage' or 'gat' for edge-featured graphs"
            )
        out = gcn_propagate(adjacency, as_tensor(h) @ self.weight) + self.bias
        return _activate(out, self.activation)


class GATLayer(Module):
    """Graph attention layer (Velickovic et al., paper Eq. 11).

    Attention logits ``e_ij = LeakyReLU(a^T [W h_i || W h_j])`` are
    masked to the one-hop neighbourhood (plus self-loops) and
    softmax-normalised per row.  With ``edge_features > 0`` the logits
    on a CSR level 0 gain an additive edge term ``a_e^T e_ij``
    (edge-typed adjacency in the attention, docs/molecular.md);
    self-loops carry no bond and contribute zero edge bias.
    """

    #: LeakyReLU slope of the attention logits
    negative_slope = 0.2

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        activation: str = "relu",
        edge_features: int = 0,
    ):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.edge_features = edge_features
        self.weight = Parameter(
            glorot_uniform(rng, in_features, out_features), name="weight"
        )
        # a^T [x || y] decomposes into a_src^T x + a_dst^T y.
        self.att_src = Parameter(
            glorot_uniform(rng, out_features, 1, shape=(out_features,)), name="att_src"
        )
        self.att_dst = Parameter(
            glorot_uniform(rng, out_features, 1, shape=(out_features,)), name="att_dst"
        )
        if edge_features > 0:
            self.att_edge = Parameter(
                glorot_uniform(rng, edge_features, 1, shape=(edge_features,)),
                name="att_edge",
            )
        else:
            self.att_edge = None
        self.bias = Parameter(zeros(out_features), name="bias")
        self.activation = activation

    def _edge_bias(self, adjacency, edge_attr):
        """Additive logit term ``a_e^T e_ij``, one per stored entry of a
        CSR adjacency (or ``None`` without edges)."""
        if edge_attr is None:
            return None
        if self.att_edge is None:
            raise ValueError(
                "GATLayer got edge_attr but was built with edge_features=0"
            )
        check_edge_attr(adjacency, edge_attr, self.edge_features)
        return as_tensor(edge_attr) @ self.att_edge

    def forward(self, adjacency, h: Tensor, edge_attr=None) -> Tensor:
        """A CSR level 0 runs :meth:`_forward_sparse`; a dense coarsened
        level ``(N, N)`` or ``(B, N, N)`` runs the body below, which
        broadcasts over the leading batch axis.

        On a zero-padded stack (a Top-K level) the neighbourhood mask
        keeps the per-graph semantics: padding columns carry zero
        adjacency, so their ``-1e9`` logits underflow to exactly zero
        attention and valid rows match the single-graph result.  Padding
        rows attend only to their own self-loop.
        """
        h = as_tensor(h)
        edge_bias = self._edge_bias(adjacency, edge_attr)
        if isinstance(adjacency, CSRMatrix):
            return self._forward_sparse(adjacency, h, edge_bias)
        lead, n = h.shape[:-2], h.shape[-2]
        transformed = h @ self.weight  # (..., N, F')
        score_src = transformed @ self.att_src  # (..., N)
        score_dst = transformed @ self.att_dst  # (..., N)
        raw = score_src.reshape(*lead, n, 1) + score_dst.reshape(*lead, 1, n)
        logits = leaky_relu(raw, self.negative_slope)
        adj_data = adjacency.data if isinstance(adjacency, Tensor) else adjacency
        neighbours = (np.asarray(adj_data) != 0) | np.eye(n, dtype=bool)
        masked = where(neighbours, logits, Tensor(np.full(logits.shape, -1e9)))
        attention = softmax(masked, axis=-1)
        # Weight attention by the (possibly soft) adjacency so gradients
        # reach a differentiable coarsened adjacency as well.
        if isinstance(adjacency, Tensor) and adjacency.requires_grad:
            weighted = attention * (adjacency + Tensor(np.eye(n)))
            attention = weighted * power(
                weighted.sum(axis=-1) + 1e-8, -1.0
            ).reshape(*lead, n, 1)
        out = attention @ transformed + self.bias
        return _activate(out, self.activation)

    def _forward_sparse(self, adjacency: CSRMatrix, h: Tensor, edge_bias=None) -> Tensor:
        """Attention over a constant CSR adjacency: one graph, or the
        block-diagonal adjacency of a ragged batch.

        Attention is computed only on stored edges plus self-loops via a
        segment softmax over each row's neighbourhood.  This matches the
        dense path exactly because the dense ``-1e9`` logit fill
        underflows to attention weight 0.0 in float64 — non-neighbours
        contribute nothing there either (the equivalence suite pins this
        down to 1e-6).  The CSR adjacency is a constant, so the dense
        path's differentiable-adjacency reweighting branch never applies
        here.  ``edge_bias`` holds one logit term per stored entry;
        self-loop positions get zero edge bias.
        """
        n = h.shape[0]
        transformed = h @ self.weight  # (N, F')
        score_src = transformed @ self.att_src  # (N,)
        score_dst = transformed @ self.att_dst  # (N,)
        adj_tilde = adjacency.with_self_loops()
        row, col = adj_tilde.row_ids, adj_tilde.indices
        raw = scatter_gather(score_src, row) + scatter_gather(score_dst, col)
        if edge_bias is not None:
            # Map every stored entry of Ã back to its original edge (or
            # to an appended zero slot for the self-loops Ã introduced).
            # with_self_loops keeps the relative order of off-diagonal
            # entries, so the k-th non-loop entry of Ã is the k-th stored
            # edge of A; the map is structural and cached on Ã.
            index_map = adj_tilde.cached(
                ("edge_bias_map", adjacency.nnz), _self_loop_index_map
            )
            padded = concat([edge_bias, Tensor(np.zeros(1))], axis=0)
            raw = raw + scatter_gather(padded, index_map)
        logits = leaky_relu(raw, self.negative_slope)
        attention = segment_softmax(logits, row, n)  # (E~,)
        out = spmm(adj_tilde, transformed, values=attention) + self.bias
        return _activate(out, self.activation)
