"""Differentiable operations on :class:`repro.tensor.Tensor`.

Every function takes tensors (or array-likes) and returns a tensor wired
into the autograd tape.  Backward closures compute vector-Jacobian
products with full numpy broadcasting support via ``unbroadcast``.
"""

from __future__ import annotations

import math
from functools import cached_property, partial

import numpy as np

from repro.tensor.sparse import CSRMatrix
from repro.tensor.tensor import Tensor, as_tensor, unbroadcast

#: Op-level profiling hook (see repro.observe.profiler).  When ``None``
#: (the default) every op runs its raw implementation after a single
#: ``is None`` check; installing an ``OpProfiler`` routes calls through
#: ``hook.run_op(name, fn, args, kwargs)`` instead.
_PROFILE_HOOK = None

# ---------------------------------------------------------------------------
# Elementwise arithmetic
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data + b.data

    def backward(grad):
        return (unbroadcast(grad, a.shape), unbroadcast(grad, b.shape))

    return Tensor._make(out_data, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data - b.data

    def backward(grad):
        return (unbroadcast(grad, a.shape), unbroadcast(-grad, b.shape))

    return Tensor._make(out_data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data * b.data

    def backward(grad):
        return (
            unbroadcast(grad * b.data, a.shape),
            unbroadcast(grad * a.data, b.shape),
        )

    return Tensor._make(out_data, (a, b), backward)


def div(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data / b.data

    def backward(grad):
        return (
            unbroadcast(grad / b.data, a.shape),
            unbroadcast(-grad * a.data / (b.data**2), b.shape),
        )

    return Tensor._make(out_data, (a, b), backward)


def neg(a: Tensor) -> Tensor:
    a = as_tensor(a)

    def backward(grad):
        return (-grad,)

    return Tensor._make(-a.data, (a,), backward)


def power(a: Tensor, exponent: float) -> Tensor:
    """Elementwise ``a ** exponent`` for a constant scalar exponent."""
    a = as_tensor(a)
    out_data = a.data**exponent

    def backward(grad):
        return (grad * exponent * a.data ** (exponent - 1),)

    return Tensor._make(out_data, (a,), backward)


def sqrt(a: Tensor) -> Tensor:
    a = as_tensor(a)
    root = np.sqrt(a.data)

    def backward(grad):
        return (grad / (2.0 * root),)

    return Tensor._make(root, (a,), backward)


def exp(a: Tensor) -> Tensor:
    a = as_tensor(a)
    out_data = np.exp(a.data)

    def backward(grad):
        return (grad * out_data,)

    return Tensor._make(out_data, (a,), backward)


def log(a: Tensor) -> Tensor:
    a = as_tensor(a)

    def backward(grad):
        return (grad / a.data,)

    return Tensor._make(np.log(a.data), (a,), backward)


def maximum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise maximum; ties send gradient to the first argument."""
    a, b = as_tensor(a), as_tensor(b)
    mask = a.data >= b.data
    out_data = np.where(mask, a.data, b.data)

    def backward(grad):
        return (
            unbroadcast(grad * mask, a.shape),
            unbroadcast(grad * ~mask, b.shape),
        )

    return Tensor._make(out_data, (a, b), backward)


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Differentiable ``np.where`` with a constant boolean condition."""
    a, b = as_tensor(a), as_tensor(b)
    cond = np.asarray(condition, dtype=bool)
    out_data = np.where(cond, a.data, b.data)

    def backward(grad):
        return (
            unbroadcast(grad * cond, a.shape),
            unbroadcast(grad * ~cond, b.shape),
        )

    return Tensor._make(out_data, (a, b), backward)


# ---------------------------------------------------------------------------
# Activations
# ---------------------------------------------------------------------------


def relu(a: Tensor) -> Tensor:
    a = as_tensor(a)
    mask = a.data > 0

    def backward(grad):
        return (grad * mask,)

    return Tensor._make(a.data * mask, (a,), backward)


def leaky_relu(a: Tensor, negative_slope: float = 0.2) -> Tensor:
    """``a`` on positive entries, ``negative_slope * a`` elsewhere; the
    slope must lie in [0, 1]."""
    if not 0.0 <= negative_slope <= 1.0:
        raise ValueError(f"negative_slope must lie in [0, 1], got {negative_slope}")
    a = as_tensor(a)
    # One slope factor, 1.0 on positive entries and the slope elsewhere,
    # serves the output and the backward; ``a * factor`` equals
    # ``where(a > 0, a, slope * a)`` bit for bit.  np.maximum picks it
    # without a branch per entry: np.where(a > 0, 1.0, slope) mispredicts
    # on random signs and took 7x as long on (1900, 32) (x86, 2 vCPU).
    factor = np.maximum(a.data > 0, negative_slope)

    def backward(grad):
        return (grad * factor,)

    return Tensor._make(a.data * factor, (a,), backward)


def sigmoid(a: Tensor) -> Tensor:
    a = as_tensor(a)
    # Numerically stable logistic.
    out_data = np.where(
        a.data >= 0,
        1.0 / (1.0 + np.exp(-np.clip(a.data, -500, 500))),
        np.exp(np.clip(a.data, -500, 500))
        / (1.0 + np.exp(np.clip(a.data, -500, 500))),
    )

    def backward(grad):
        return (grad * out_data * (1.0 - out_data),)

    return Tensor._make(out_data, (a,), backward)


def tanh(a: Tensor) -> Tensor:
    a = as_tensor(a)
    out_data = np.tanh(a.data)

    def backward(grad):
        return (grad * (1.0 - out_data**2),)

    return Tensor._make(out_data, (a,), backward)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Softmax along ``axis`` with the usual max-shift stabilisation."""
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    exps = np.exp(shifted)
    out_data = exps / exps.sum(axis=axis, keepdims=True)

    def backward(grad):
        dot = (grad * out_data).sum(axis=axis, keepdims=True)
        return (out_data * (grad - dot),)

    return Tensor._make(out_data, (a,), backward)


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - log_z
    soft = np.exp(out_data)

    def backward(grad):
        return (grad - soft * grad.sum(axis=axis, keepdims=True),)

    return Tensor._make(out_data, (a,), backward)


# ---------------------------------------------------------------------------
# Linear algebra / shape
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with full numpy ``@`` semantics (1-D, 2-D, batched)."""
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data @ b.data

    def backward(grad):
        g = np.asarray(grad)
        A, B = a.data, b.data
        grad_a = grad_b = None
        if a.requires_grad:
            if A.ndim == 1 and B.ndim == 1:
                grad_a = g * B
            elif B.ndim == 1:
                # C[..., i] = sum_j A[..., i, j] B[j]
                grad_a = g[..., None] * B
            elif A.ndim == 1:
                # C[..., j] = sum_i A[i] B[..., i, j]
                partial = (B * g[..., None, :]).sum(axis=-1)
                grad_a = partial.sum(axis=tuple(range(partial.ndim - 1)))
            else:
                grad_a = g @ np.swapaxes(B, -1, -2)
            grad_a = unbroadcast(np.asarray(grad_a), a.shape)
        if b.requires_grad:
            if A.ndim == 1 and B.ndim == 1:
                grad_b = g * A
            elif A.ndim == 1:
                grad_b = A[:, None] * g[..., None, :]
            elif B.ndim == 1:
                partial = A * g[..., None]
                grad_b = partial.sum(axis=tuple(range(partial.ndim - 1)))
            else:
                grad_b = np.swapaxes(A, -1, -2) @ g
            grad_b = unbroadcast(np.asarray(grad_b), b.shape)
        return (grad_a, grad_b)

    return Tensor._make(out_data, (a, b), backward)


def transpose(a: Tensor, axes=None) -> Tensor:
    a = as_tensor(a)
    out_data = np.transpose(a.data, axes)

    def backward(grad):
        if axes is None:
            return (np.transpose(grad),)
        inverse = np.argsort(axes)
        return (np.transpose(grad, inverse),)

    return Tensor._make(out_data, (a,), backward)


def reshape(a: Tensor, shape) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.reshape(shape)

    def backward(grad):
        return (grad.reshape(a.shape),)

    return Tensor._make(out_data, (a,), backward)


def getitem(a: Tensor, index) -> Tensor:
    a = as_tensor(a)
    out_data = a.data[index]

    def backward(grad):
        full = np.zeros_like(a.data, dtype=np.float64)
        np.add.at(full, index, grad)
        return (full,)

    return Tensor._make(out_data, (a,), backward)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad):
        pieces = []
        for i in range(len(tensors)):
            slicer = [slice(None)] * grad.ndim
            slicer[axis] = slice(offsets[i], offsets[i + 1])
            pieces.append(grad[tuple(slicer)])
        return tuple(pieces)

    return Tensor._make(out_data, tuple(tensors), backward)


def stack(tensors, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad):
        return tuple(np.take(grad, i, axis=axis) for i in range(len(tensors)))

    return Tensor._make(out_data, tuple(tensors), backward)


# ---------------------------------------------------------------------------
# Masked softmax
# ---------------------------------------------------------------------------
#
# A ragged batch's slots view and a Top-K level's output (docs/batching.md)
# stack B graphs into (B, N_max, ...) arrays with a (B, N_max) validity
# mask; ``matmul`` already multiplies such stacks.  The softmax below is
# *exactly* zero at padding positions, so padding can never leak into
# real nodes.


def masked_softmax(a: Tensor, mask, axis: int = -1) -> Tensor:
    """Softmax along ``axis`` restricted to positions where ``mask`` is true.

    ``mask`` is a constant boolean/0-1 array broadcastable to ``a.shape``;
    masked positions receive *exactly* zero probability (not merely a
    large-negative-logit approximation) and zero gradient.  Rows that are
    fully masked come out as all zeros.  On rows where every position is
    valid the result is bit-for-bit the standard stabilised softmax.
    """
    a = as_tensor(a)
    m = np.broadcast_to(np.asarray(mask, dtype=bool), a.shape)
    neg = np.where(m, a.data, -np.inf)
    row_max = neg.max(axis=axis, keepdims=True)
    row_max = np.where(np.isfinite(row_max), row_max, 0.0)
    exps = np.exp(neg - row_max)
    denom = exps.sum(axis=axis, keepdims=True)
    out_data = exps / np.where(denom == 0.0, 1.0, denom)

    def backward(grad):
        dot = (grad * out_data).sum(axis=axis, keepdims=True)
        return (out_data * (grad - dot),)

    return Tensor._make(out_data, (a,), backward)




# ---------------------------------------------------------------------------
# Sparse (CSR) operations
# ---------------------------------------------------------------------------
#
# A CSR adjacency (docs/sparse.md) replaces dense (N, N)
# adjacency products with gather/scatter + segment-reduce kernels over a
# constant :class:`~repro.tensor.sparse.CSRMatrix`.  Gradients flow
# through the dense operands (and through ``spmm``'s optional per-edge
# ``values``), never through the CSR structure itself.


def segment_sum(values: Tensor, segment_ids, num_segments: int) -> Tensor:
    """Sum ``values`` rows into ``num_segments`` buckets.

    ``segment_ids`` is a constant ``(E,)`` int array mapping each row of
    ``values`` (shape ``(E, ...)``) to its output segment; segments that
    receive no rows come out as exactly zero (the zero-degree-node case).
    The backward pass is a gather: each input row receives its segment's
    gradient.
    """
    values = as_tensor(values)
    seg = np.asarray(segment_ids, dtype=np.intp)
    if seg.ndim != 1 or seg.shape[0] != values.shape[0]:
        raise ValueError(
            f"segment_ids shape {seg.shape} does not match values "
            f"leading dimension {values.shape}"
        )
    if num_segments < 0:
        raise ValueError(f"num_segments must be non-negative, got {num_segments}")
    if seg.size and (seg.min() < 0 or seg.max() >= num_segments):
        raise ValueError(f"segment ids out of range [0, {num_segments})")
    out_data = _scatter_add(values.data, seg, num_segments)

    def backward(grad):
        return (np.asarray(grad)[seg],)

    return Tensor._make(out_data, (values,), backward)


def _scatter_add(values: np.ndarray, ids: np.ndarray, num: int) -> np.ndarray:
    """Rows of ``values`` summed into ``num`` buckets by ``ids``.

    ``np.bincount`` accumulates in entry order, so this equals the
    ``np.add.at`` scatter bit for bit, minus its per-element dispatch
    cost; trailing axes go through one bincount over flattened
    ``(bucket, column)`` ids.
    """
    if values.ndim == 1:
        return np.bincount(ids, weights=values, minlength=num)
    tail = values.shape[1:]
    width = math.prod(tail)
    flat = (ids[:, None] * width + np.arange(width)).reshape(-1)
    summed = np.bincount(flat, weights=values.reshape(-1), minlength=num * width)
    return summed.reshape((num,) + tail)


def scatter_gather(a: Tensor, indices) -> Tensor:
    """Row gather ``a[indices]`` whose backward is a scatter-add.

    Duplicate indices accumulate gradient, rows never gathered receive
    exactly zero gradient.  Used to
    expand per-node quantities to per-edge ones (``x[row]``, ``x[col]``)
    and per-graph ones to per-node ones.
    """
    a = as_tensor(a)
    idx = np.asarray(indices, dtype=np.intp)
    out_data = a.data[idx]

    def backward(grad):
        return (_scatter_add(np.asarray(grad), idx, a.shape[0]),)

    return Tensor._make(out_data, (a,), backward)


def to_slots(x: Tensor, index, shape) -> Tensor:
    """Scatter the rows of a node-concatenated batch into per-graph slots.

    Row ``i`` of ``x`` ``(ΣN, ...)`` lands in flat slot ``index[i]`` of
    an output of shape ``(*shape, ...)`` — ``(B, N_max, ...)`` for a
    ragged batch (docs/batching.md); slots no row lands on are exactly
    zero.  Per-graph contractions then run as batched products over the
    slots.  The backward is the gather ``grad[index]``.
    """
    x = as_tensor(x)
    idx = np.asarray(index, dtype=np.intp)
    tail = x.shape[1:]
    out_data = np.zeros((math.prod(shape),) + tail)
    out_data[idx] = x.data

    def backward(grad):
        return (np.asarray(grad).reshape((-1,) + tail)[idx],)

    return Tensor._make(out_data.reshape(tuple(shape) + tail), (x,), backward)


class Slots:
    """Where the node rows of a ragged batch belong.

    Graph ``b`` owns rows ``offsets[b]:offsets[b + 1]`` of every
    ``(ΣN, ·)`` array.  Its slots are row ``b`` of a zero-padded
    ``(B, N_max, ·)`` array, the layout the per-graph contractions
    (MOA's ψ, Eq. 17 and Eq. 18) run in as batched products.
    """

    def __init__(self, offsets):
        self.offsets = np.asarray(offsets, dtype=np.intp)
        self.counts = np.diff(self.offsets)
        self.shape = (len(self.counts), int(self.counts.max(initial=0)))
        #: the graph of every row
        self.graph = np.repeat(np.arange(self.shape[0]), self.counts)
        #: every row's flat position in the ``B * N_max`` slots
        self.index = self.graph * self.shape[1] + (
            np.arange(self.offsets[-1]) - self.offsets[self.graph]
        )

    def scatter(self, x) -> Tensor:
        """``(ΣN, ...)`` rows -> ``(B, N_max, ...)`` slots, zero-padded."""
        return to_slots(x, self.index, self.shape)

    def expand(self, per_graph) -> Tensor:
        """``(B, ...)`` per-graph values -> ``(ΣN, ...)``, one per row."""
        return scatter_gather(per_graph, self.graph)

    @cached_property
    def mask(self) -> np.ndarray:
        """``(B, N_max)`` validity mask of the slots (1.0 on real nodes)."""
        mask = np.zeros(self.shape[0] * self.shape[1])
        mask[self.index] = 1.0
        return mask.reshape(self.shape)

    def dense(self, adjacency: CSRMatrix) -> np.ndarray:
        """The block-diagonal ``adjacency`` as a ``(B, N_max, N_max)``
        stack, for operators that read a graph's adjacency densely."""
        n_max = self.shape[1]
        stack = np.zeros((self.shape[0] * n_max, n_max))
        stack[self.index[adjacency.row_ids], self.index[adjacency.indices] % n_max] = (
            adjacency.data
        )
        return stack.reshape(self.shape[0], n_max, n_max)


def spmm(csr: CSRMatrix, dense: Tensor, values: Tensor | None = None) -> Tensor:
    """Sparse-dense matmul ``A @ H`` for a constant CSR structure ``A``.

    ``dense`` is ``(M,)`` or ``(M, F)`` for a ``(N, M)`` CSR matrix;
    the result is ``(N,)`` / ``(N, F)``.  Rows of ``A`` with no stored
    entries produce exactly-zero output rows.

    ``values`` optionally overrides ``csr.data`` with a *differentiable*
    ``(E,)`` tensor of per-edge weights (sparse GAT attention, edge
    gates); gradients then flow into both ``dense`` and ``values``.
    Without it, the edge weights are the CSR's constant data.

    Both directions run through :meth:`CSRMatrix.matmul`: the forward
    as ``A @ H``, the backward scatter as ``Aᵀ @ G`` over the same
    arrays, so a fresh CSR (a new batch every step) costs no transpose
    and per-edge weights build no matrix object.
    """
    dense = as_tensor(dense)
    if dense.ndim not in (1, 2):
        raise ValueError(f"spmm expects a 1-D or 2-D dense operand, got {dense.ndim}-D")
    if dense.shape[0] != csr.shape[1]:
        raise ValueError(
            f"spmm shape mismatch: {csr.shape} @ {dense.shape}"
        )
    if values is None:
        vals_data = None
        parents: tuple = (dense,)
    else:
        values = as_tensor(values)
        if values.shape != (csr.nnz,):
            raise ValueError(
                f"values shape {values.shape} does not match nnz ({csr.nnz},)"
            )
        vals_data = values.data
        parents = (dense, values)
    out_data = csr.matmul(dense.data, vals_data)

    def backward(grad):
        g = np.asarray(grad)
        grad_dense = None
        if dense.requires_grad:
            grad_dense = csr.matmul(g, vals_data, transpose=True)
        if values is None:
            return (grad_dense,)
        grad_values = None
        if values.requires_grad:
            gathered = dense.data[csr.indices]
            g_edges = g[csr.row_ids]
            if dense.ndim == 1:
                grad_values = gathered * g_edges
            else:
                grad_values = (gathered * g_edges).sum(axis=1)
        return (grad_dense, grad_values)

    return Tensor._make(out_data, parents, backward)


def segment_softmax(logits: Tensor, segment_ids, num_segments: int) -> Tensor:
    """Softmax of ``(E,)`` logits within each segment.

    The sparse counterpart of a per-row masked softmax: entries sharing a
    segment id (a destination node's incoming edges) are normalised
    together, with the usual max-shift stabilisation (the per-segment max
    is a constant shift, so it carries no gradient).  Empty segments
    simply produce no entries.
    """
    logits = as_tensor(logits)
    if logits.ndim != 1:
        raise ValueError(f"segment_softmax expects 1-D logits, got {logits.ndim}-D")
    seg = np.asarray(segment_ids, dtype=np.intp)
    seg_max = np.full(num_segments, -np.inf, dtype=np.float64)
    np.maximum.at(seg_max, seg, logits.data)
    seg_max = np.where(np.isfinite(seg_max), seg_max, 0.0)
    shifted = logits - Tensor(seg_max[seg])
    exps = exp(shifted)
    denom = segment_sum(exps, seg, num_segments)
    # Every gathered denominator belongs to a non-empty segment, so it is
    # at least exp(0) = 1 for that segment's max entry — never zero.
    return exps / scatter_gather(denom, seg)


# ---------------------------------------------------------------------------
# Fused hot-path kernels (docs/performance.md)
# ---------------------------------------------------------------------------
#
# Profiling (the op profiler, ``repro.observe.profile_ops``) shows HAP's
# step time concentrated in MOA's softmax→head-mean and the coarsening
# chain S^T (A S).  Each kernel below collapses a several-node tape
# subgraph into ONE node with an analytic vector-Jacobian product: one
# forward traversal, one backward closure, no interior gradient buffers.
# Every kernel is pinned against its unfused composition — bitwise where
# the arithmetic order is preserved, <1e-6 otherwise — by
# tests/test_fused_kernels.py (the ``pytest -m fused`` CI gate).


def masked_softmax_mean(a: Tensor, mask=None, axis: int = -2, mean_axis: int = -1) -> Tensor:
    """Fused ``masked_softmax(a, mask, axis).mean(mean_axis)`` (MOA Eq. 15).

    The attention probabilities are normalised along ``axis`` (masked
    positions get *exactly* zero mass, as in :func:`masked_softmax`;
    ``mask=None`` is the plain stabilised softmax) and averaged over the
    ``mean_axis`` head dimension in one traversal.  The unfused
    composition records two tape nodes and re-materialises the full
    ``(..., H)`` probability block as an output *and* a gradient buffer;
    here the probabilities live only inside the closure — and for the
    single-head case they are not retained at all (the output *is* the
    probability block, so the backward reconstructs them for free).
    """
    a = as_tensor(a)
    heads = a.shape[mean_axis]
    if mask is None:
        shifted = a.data - a.data.max(axis=axis, keepdims=True)
        exps = np.exp(shifted)
        probs = exps / exps.sum(axis=axis, keepdims=True)
    else:
        m = np.broadcast_to(np.asarray(mask, dtype=bool), a.shape)
        neg = np.where(m, a.data, -np.inf)
        row_max = neg.max(axis=axis, keepdims=True)
        row_max = np.where(np.isfinite(row_max), row_max, 0.0)
        exps = np.exp(neg - row_max)
        denom = exps.sum(axis=axis, keepdims=True)
        probs = exps / np.where(denom == 0.0, 1.0, denom)
    out_data = probs.mean(axis=mean_axis)
    keep = probs if heads != 1 else None

    def backward(grad):
        ghat = np.expand_dims(np.asarray(grad), mean_axis) / heads
        p = keep if keep is not None else np.expand_dims(out_data, mean_axis)
        dot = (ghat * p).sum(axis=axis, keepdims=True)
        return (p * (ghat - dot),)

    return Tensor._make(out_data, (a,), backward)


def matmul_tn(a: Tensor, b: Tensor) -> Tensor:
    """``a^T @ b`` (2-D) / ``swapaxes(a, -1, -2) @ b`` (batched 3-D).

    The transpose-first operand shows up in every pooling contraction
    (``H' = M^T H``, Eq. 17).  Composing ``transpose`` + ``matmul``
    costs an extra tape node and runs the generic rank-dispatching
    matmul VJP; this kernel reads ``a`` through a strided view and uses
    the closed-form gradients ``dA = B G^T``, ``dB = A G``.
    """
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim not in (2, 3) or b.ndim != a.ndim:
        raise ValueError(
            f"matmul_tn expects two 2-D or two 3-D tensors, got "
            f"{a.ndim}-D and {b.ndim}-D"
        )
    out_data = np.swapaxes(a.data, -1, -2) @ b.data

    def backward(grad):
        g = np.asarray(grad)
        grad_a = b.data @ np.swapaxes(g, -1, -2) if a.requires_grad else None
        grad_b = a.data @ g if b.requires_grad else None
        return (grad_a, grad_b)

    return Tensor._make(out_data, (a, b), backward)


def coarsen_chain(assignment: Tensor, adjacency) -> Tensor:
    """Fused coarsening chain ``A' = M^T (A M)`` (Eq. 18).

    One tape node for the whole chain, evaluated in the sparse-safe
    order — ``A M`` first (``(N, N')``), then ``M^T`` against it — so
    the wide ``(N', N) @ (N, N)`` product is never materialised.
    ``adjacency`` may be a dense Tensor/array (2-D or batched 3-D,
    differentiable) or a constant :class:`CSRMatrix` whose products run
    through :meth:`CSRMatrix.matmul`.

    Backward uses the closed forms ``dM = (A M) G^T + (A^T M) G`` (the
    first factor reuses the forward's ``A M``) and ``dA = M G M^T``.
    """
    m = as_tensor(assignment)
    if isinstance(adjacency, CSRMatrix):
        if m.ndim != 2:
            raise ValueError(
                f"coarsen_chain needs a 2-D assignment for a CSR adjacency, "
                f"got {m.ndim}-D"
            )
        am = adjacency.matmul(m.data)
        out_data = m.data.T @ am

        def backward_sparse(grad):
            g = np.asarray(grad)
            atm = adjacency.matmul(m.data, transpose=True)
            return (am @ g.T + atm @ g,)

        return Tensor._make(out_data, (m,), backward_sparse)

    adj = as_tensor(adjacency)
    if m.ndim not in (2, 3) or adj.ndim != m.ndim:
        raise ValueError(
            f"coarsen_chain expects matching 2-D or 3-D operands, got "
            f"{m.ndim}-D assignment and {adj.ndim}-D adjacency"
        )
    am = adj.data @ m.data
    out_data = np.swapaxes(m.data, -1, -2) @ am

    def backward(grad):
        g = np.asarray(grad)
        grad_m = None
        if m.requires_grad:
            atm = np.swapaxes(adj.data, -1, -2) @ m.data
            grad_m = am @ np.swapaxes(g, -1, -2) + atm @ g
        grad_adj = None
        if adj.requires_grad:
            grad_adj = m.data @ g @ np.swapaxes(m.data, -1, -2)
        return (grad_m, grad_adj)

    return Tensor._make(out_data, (m, adj), backward)


def gcn_propagate(adjacency, x: Tensor, eps: float = 1e-8) -> Tensor:
    """Fused GCN propagation ``D̃^{-1/2} (A + I) D̃^{-1/2} x`` (Eq. 12).

    Computes the normalised product without building the normalised
    matrix: ``D̃^{-1/2}`` is diagonal, so with
    ``d = (rowsum(A) + 1 + eps)^{-1/2}`` the kernel scales the rows of
    ``x`` by ``d``, takes one product with ``A`` (the self-loop is the
    ``+ y`` term) and scales the rows again.

    ``adjacency`` is a dense ``(N, N)`` array/Tensor with ``(N, F)``
    features, a ``(B, N, N)`` stack with ``(B, N, F)`` features, or a
    constant :class:`CSRMatrix` with ``(N, F)`` features — one graph or
    the block-diagonal adjacency of a ragged batch (docs/batching.md).
    A CSR adjacency keeps the self-loop as a separate term too, so no
    ``A + I`` is ever merged (:func:`_gcn_propagate_csr`).  Zero padding
    rows of a padded batch get degree ``1`` and come out as
    ``x / (1 + eps)``; they never reach valid rows.

    Backward, with ``y = d ⊙ x``, ``u = A y + y``, ``g' = d ⊙ G`` and
    ``t = Aᵀ g' + g'``: ``dx = d ⊙ t`` and, only when the adjacency
    requires grad (the coarsened levels), ``dA = g' yᵀ + c 1ᵀ`` with
    ``c = -½ (rowsum(A) + 1 + eps)^{-3/2} ⊙ Σ_f (G ⊙ u + t ⊙ x)``.
    """
    x = as_tensor(x)
    if isinstance(adjacency, CSRMatrix):
        return _gcn_propagate_csr(adjacency, x, eps)
    adj = as_tensor(adjacency)
    if adj.ndim not in (2, 3) or x.ndim != adj.ndim:
        raise ValueError(
            f"gcn_propagate expects a 2-D adjacency with 2-D features or a "
            f"3-D stack with 3-D features, got {adj.ndim}-D and {x.ndim}-D"
        )
    if adj.shape[-1] != adj.shape[-2] or x.shape[:-1] != adj.shape[:-1]:
        raise ValueError(
            f"gcn_propagate shape mismatch: adjacency {adj.shape}, "
            f"features {x.shape}"
        )
    a = adj.data
    # Row sums as a BLAS product: np.sum over a short last axis took
    # 1.2-3.7x as long on stacks of 4-106 nodes (x86, 2 vCPU).
    degree = a @ np.ones(a.shape[-1]) + 1.0 + eps
    # d repeated across the feature axis once, so the four row scalings
    # are plain elementwise products: broadcasting a (..., N, 1) column
    # over 16 features took 1.5-4.6x as long on the same host.
    scale = np.repeat(degree ** -0.5, x.shape[-1]).reshape(x.shape)
    y = scale * x.data
    u = a @ y
    u += y
    out_data = scale * u

    def backward(grad):
        g = np.asarray(grad)
        g_scaled = scale * g
        t = np.swapaxes(a, -1, -2) @ g_scaled
        t += g_scaled
        grad_x = scale * t if x.requires_grad else None
        grad_adj = None
        if adj.requires_grad:
            c = (-0.5 * degree ** -1.5) * (g * u + t * x.data).sum(axis=-1)
            grad_adj = g_scaled @ np.swapaxes(y, -1, -2)
            grad_adj += c[..., None]
        return (grad_x, grad_adj)

    return Tensor._make(out_data, (x, adj), backward)


def _gcn_weights(adjacency: CSRMatrix, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Eq. 12's weights on a CSR structure: ``d_i a_ij d_j`` per stored
    entry and the self-loop's ``d_i²`` per row, as an ``(N, 1)`` column."""
    inv_sqrt = (adjacency.row_sums() + 1.0 + eps) ** -0.5
    edge = inv_sqrt[adjacency.row_ids] * adjacency.data * inv_sqrt[adjacency.indices]
    return edge, (inv_sqrt * inv_sqrt)[:, None]


def _gcn_propagate_csr(adjacency: CSRMatrix, x: Tensor, eps: float) -> Tensor:
    """:func:`gcn_propagate` on a constant CSR adjacency.

    The adjacency is constant, so its weights are computed once and
    cached on it: one weighted product plus the self-loop term
    ``d² ⊙ x`` each way.  Scaling ``x`` before and after the product,
    as the dense kernel does, took 2.4-2.8x as long at 5000 nodes and
    16 features (x86, 2 vCPU).
    """
    if x.ndim != 2 or adjacency.shape != (x.shape[0], x.shape[0]):
        raise ValueError(
            f"gcn_propagate shape mismatch: CSR adjacency {adjacency.shape}, "
            f"features {x.shape}"
        )
    edge, self_loop = adjacency.cached(
        ("gcn_weights", eps), partial(_gcn_weights, eps=eps)
    )
    out_data = adjacency.matmul(x.data, edge)
    out_data += self_loop * x.data

    def backward(grad):
        g = np.asarray(grad)
        grad_x = adjacency.matmul(g, edge, transpose=True)
        grad_x += self_loop * g
        return (grad_x,)

    return Tensor._make(out_data, (x,), backward)


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------


def sum_along(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(grad):
        g = np.asarray(grad)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return Tensor._make(out_data, (a,), backward)


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.mean(axis=axis, keepdims=keepdims)
    if axis is None:
        count = a.data.size
    else:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        count = int(np.prod([a.shape[ax] for ax in axes]))

    def backward(grad):
        g = np.asarray(grad)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy() / count,)

    return Tensor._make(out_data, (a,), backward)


def max_along(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    """Max reduction; gradient flows to (all) argmax positions equally."""
    a = as_tensor(a)
    out_data = a.data.max(axis=axis, keepdims=keepdims)

    def backward(grad):
        g = np.asarray(grad)
        out_keep = a.data.max(axis=axis, keepdims=True)
        mask = (a.data == out_keep).astype(np.float64)
        mask /= mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape) * mask,)

    return Tensor._make(out_data, (a,), backward)


def clip(a: Tensor, low: float, high: float) -> Tensor:
    """Clamp values into [low, high]; gradient is 1 inside, 0 outside."""
    a = as_tensor(a)
    inside = (a.data >= low) & (a.data <= high)

    def backward(grad):
        return (grad * inside,)

    return Tensor._make(np.clip(a.data, low, high), (a,), backward)


def norm(a: Tensor, eps: float = 1e-12) -> Tensor:
    """Euclidean (Frobenius) norm of all elements."""
    a = as_tensor(a)
    value = float(np.sqrt((a.data**2).sum() + eps))

    def backward(grad):
        return (grad * a.data / value,)

    return Tensor._make(np.asarray(value), (a,), backward)


# ---------------------------------------------------------------------------
# Profiling instrumentation
# ---------------------------------------------------------------------------
#
# Every tape-building op above is wrapped exactly once, here, before
# ``repro.tensor.__init__`` re-exports the names — so call sites that do
# ``from repro.tensor import matmul`` get the instrumented function too.
# The wrapper costs one global read + ``is None`` check when profiling
# is off; the raw implementation stays reachable as ``op.__wrapped__``
# (benchmarks/test_profile_overhead.py measures the difference).


def _instrumented(name, fn):
    import functools

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        hook = _PROFILE_HOOK
        if hook is None:
            return fn(*args, **kwargs)
        return hook.run_op(name, fn, args, kwargs)

    return wrapper


#: Names wrapped by the profiling shim (``segment_softmax`` is a
#: composite of already-instrumented primitives).
_INSTRUMENTED_OPS = (
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "power",
    "sqrt",
    "exp",
    "log",
    "maximum",
    "where",
    "relu",
    "leaky_relu",
    "sigmoid",
    "tanh",
    "softmax",
    "log_softmax",
    "matmul",
    "transpose",
    "reshape",
    "getitem",
    "concat",
    "stack",
    "masked_softmax",
    "segment_sum",
    "scatter_gather",
    "spmm",
    "to_slots",
    "masked_softmax_mean",
    "matmul_tn",
    "coarsen_chain",
    "gcn_propagate",
    "sum_along",
    "mean",
    "max_along",
    "clip",
    "norm",
)

for _name in _INSTRUMENTED_OPS:
    globals()[_name] = _instrumented(_name, globals()[_name])
del _name

# Hoist this module onto the Tensor class so dunder dispatch resolves ops
# through one attribute load instead of re-importing per call.
import sys as _sys  # noqa: E402

from repro.tensor import tensor as _tensor_module  # noqa: E402

_tensor_module._OPS = _sys.modules[__name__]
