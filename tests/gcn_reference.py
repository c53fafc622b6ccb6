"""Reference GCN normalisation (paper Eq. 12), kept apart from the layers.

Oracles for the GCN tests: the symmetric normalisation
``D̃^{-1/2} (A + I) D̃^{-1/2}`` as one fused kernel with an analytic
VJP (``sym_normalize``), its dense wrapper (``normalize_adjacency``)
and its CSR twin (``normalize_adjacency_sparse``).  The library never
builds this matrix: :func:`repro.tensor.ops.gcn_propagate` scales the
features instead, and the tests pin it against these.
"""

import numpy as np

from repro.tensor import CSRMatrix, Tensor, as_tensor


def sym_normalize(adjacency, eps: float = 1e-8) -> Tensor:
    """``D̃^{-1/2} (A + I) D̃^{-1/2}`` of an ``(N, N)`` adjacency or a
    ``(B, N, N)`` stack, as one tape node."""
    adj = as_tensor(adjacency)
    if adj.ndim not in (2, 3):
        raise ValueError(
            f"sym_normalize expects a 2-D or 3-D adjacency, got {adj.ndim}-D"
        )
    n = adj.shape[-1]
    a_tilde = adj.data + np.eye(n)
    degree = a_tilde.sum(axis=-1)
    inv_sqrt = (degree + eps) ** -0.5
    out_data = a_tilde * inv_sqrt[..., :, None] * inv_sqrt[..., None, :]

    def backward(grad):
        g = np.asarray(grad)
        di = inv_sqrt[..., :, None]
        dj = inv_sqrt[..., None, :]
        ga = g * a_tilde
        # d_i receives mass from row i (out_ij) and column i (out_ji).
        d_grad = (ga * dj).sum(axis=-1) + (ga * di).sum(axis=-2)
        s_grad = d_grad * (-0.5) * (degree + eps) ** -1.5
        return (g * di * dj + s_grad[..., :, None],)

    return Tensor._make(out_data, (adj,), backward)


def normalize_adjacency(adjacency, eps: float = 1e-8) -> Tensor:
    """The normalised matrix of one ``(N, N)`` adjacency; differentiable
    when ``adjacency`` is a Tensor."""
    adj = as_tensor(adjacency)
    if adj.ndim != 2:
        raise ValueError(f"expected (N, N) adjacency, got shape {adj.shape}")
    return sym_normalize(adj, eps)


def normalize_adjacency_sparse(adjacency: CSRMatrix, eps: float = 1e-8) -> CSRMatrix:
    """The CSR twin of :func:`normalize_adjacency`: self-loops accumulate
    onto any stored diagonal, degrees are row sums, and every entry is
    scaled by both endpoints' inverse square-root degrees."""
    adj_tilde = adjacency.with_self_loops()
    inv_sqrt = (adj_tilde.row_sums() + eps) ** -0.5
    return adj_tilde.with_data(
        inv_sqrt[adj_tilde.row_ids] * adj_tilde.data * inv_sqrt[adj_tilde.indices]
    )
