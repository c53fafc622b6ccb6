"""Reverse-mode automatic differentiation over numpy arrays.

This subpackage is the computational substrate for the whole
reproduction: the paper's experiments were run on PyTorch, which is not
available offline, so we provide a small but complete autograd engine
with the same semantics (dynamic tape, broadcasting, accumulation of
gradients into leaf tensors).

Public API
----------
``Tensor``
    The differentiable array type.  Supports arithmetic operators,
    matmul (``@``), slicing, comparison helpers and ``backward()``.
``no_grad``
    Context manager disabling graph construction (used at eval time).
Functional ops
    ``matmul, add, mul, concat, stack, softmax, log_softmax, relu,
    leaky_relu, sigmoid, tanh, exp, log, sqrt, power, maximum, where,
    sum, mean, max, reshape, transpose, pad, dropout_mask`` and friends,
    re-exported from :mod:`repro.tensor.ops`.  ``to_slots`` (with
    ``Slots``, a ragged batch's per-graph offsets) backs the per-graph
    contractions of a ragged batch, and ``masked_softmax`` the softmax
    over the masked ``(B, N_max, ·)`` stacks of its slots view
    (docs/batching.md);
    sparse primitives (``segment_sum, scatter_gather, spmm,
    segment_softmax``) over a constant ``CSRMatrix`` back the layers'
    CSR paths (docs/sparse.md); fused hot-path kernels
    (``masked_softmax_mean, matmul_tn, coarsen_chain, gcn_propagate``)
    collapse the profiled MOA/coarsening/GCN chains into single tape
    nodes (docs/performance.md).
``BufferPool`` / ``buffer_pool`` / ``get_buffer_pool``
    Step-to-step gradient buffer recycling for the backward pass
    (:mod:`repro.tensor.pool`).
``CSRMatrix``
    Compressed-sparse-row adjacency (:mod:`repro.tensor.sparse`).
``numeric_gradient``
    Finite-difference helper used by the test-suite's gradient checks.
"""

from repro.tensor.tensor import Tensor, no_grad, is_grad_enabled, as_tensor
from repro.tensor.sparse import CSRMatrix
from repro.tensor.ops import (
    absolute,
    add,
    clip,
    coarsen_chain,
    masked_softmax,
    masked_softmax_mean,
    matmul_tn,
    min_along,
    norm,
    concat,
    dropout_mask,
    exp,
    gather_rows,
    gcn_propagate,
    leaky_relu,
    log,
    log_softmax,
    matmul,
    max_along,
    maximum,
    mean,
    mul,
    pad2d,
    power,
    relu,
    reshape,
    scatter_gather,
    segment_softmax,
    segment_sum,
    Slots,
    sigmoid,
    softmax,
    spmm,
    sqrt,
    stack,
    sum_along,
    tanh,
    to_slots,
    transpose,
    where,
)
from repro.tensor.pool import BufferPool, buffer_pool, get_buffer_pool
from repro.tensor.gradcheck import numeric_gradient, check_gradients

__all__ = [
    "Tensor",
    "CSRMatrix",
    "no_grad",
    "is_grad_enabled",
    "as_tensor",
    "absolute",
    "add",
    "clip",
    "coarsen_chain",
    "masked_softmax",
    "masked_softmax_mean",
    "matmul_tn",
    "min_along",
    "norm",
    "concat",
    "dropout_mask",
    "exp",
    "gather_rows",
    "gcn_propagate",
    "leaky_relu",
    "log",
    "log_softmax",
    "matmul",
    "max_along",
    "maximum",
    "mean",
    "mul",
    "pad2d",
    "power",
    "relu",
    "reshape",
    "scatter_gather",
    "segment_softmax",
    "segment_sum",
    "Slots",
    "sigmoid",
    "softmax",
    "spmm",
    "sqrt",
    "stack",
    "sum_along",
    "tanh",
    "to_slots",
    "transpose",
    "where",
    "BufferPool",
    "buffer_pool",
    "get_buffer_pool",
    "numeric_gradient",
    "check_gradients",
]
