"""Pooling interfaces shared by every operator.

``Readout`` collapses each graph to a single vector (flat pooling);
``Coarsening`` maps a graph to a smaller graph (hierarchical pooling).

Every coarsening is Select -> Reduce -> Connect.  A subclass implements
only :meth:`Coarsening.select`, which returns the assignment S; the base
``forward`` then runs the two steps every operator shares:

- Reduce, the pooled features ``H' = Sᵀ H`` (:func:`reduce`);
- Connect, the pooled adjacency ``A' = Sᵀ A S`` as the fused chain
  ``Sᵀ(A S)``, which never forms the wide ``(K, N)`` product and, for
  a CSR adjacency, keeps peak memory at O(E·K).

Uniform contract (enforced here, conformance-tested by
``tests/test_pooling_contract.py``):

- Inputs: one graph — ``(N, N)`` adjacency and ``(N, F)`` features —
  a ragged batch — its block-diagonal CSR adjacency, ``(ΣN, F)``
  features and its :class:`~repro.tensor.Slots` in place of the mask
  (docs/batching.md) — or a dense stack — ``(B, N, N)`` and
  ``(B, N, F)`` plus an optional ``(B, N)`` validity mask (``None``
  means every row is real), such as a Top-K level hands on.  The adjacency is a numpy array, a
  ``Tensor``, a :class:`~repro.tensor.sparse.CSRMatrix` (coarsenings)
  or ``None`` (readouts that ignore structure).
- On a ragged batch, HAP's coarsening (``ragged = True``) selects on
  the ``(ΣN, ·)`` rows.  Every other operator reads the batch's slots
  view: ``(B, N_max, F)`` features, the ``(B, N_max)`` mask and, when
  it ``reads_adjacency``, a dense ``(B, N_max, N_max)`` adjacency
  stack.  Reduce and Connect then contract each graph's slots.
- ``Readout(adjacency, h, mask=None) -> (..., out_features)``.
- ``Coarsening(adjacency, h, mask=None, edge_attr=None) -> (A', H',
  mask')`` with ``A'`` of shape ``(..., K, K)`` and ``H'`` of shape
  ``(..., K, F)``.  ``mask'`` is ``None`` unless K differs from graph
  to graph (Top-K poolers on a batch); padding rows and columns
  of ``A'`` and ``H'`` are then exactly zero.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from repro.nn.module import Module
from repro.observe.tracing import span
from repro.tensor import (
    CSRMatrix,
    Slots,
    Tensor,
    as_tensor,
    coarsen_chain,
    matmul_tn,
    scatter_gather,
    spmm,
)


def prepare_graph_inputs(adjacency, h, mask=None) -> tuple[object, Tensor, object]:
    """Validate and coerce one operator's inputs.

    ``h`` becomes a 2-D or 3-D ``Tensor``; a dense ``adjacency`` becomes
    a ``Tensor`` (``None`` and CSR pass through) after a shape check
    against ``h``; ``mask`` becomes a float array shaped like ``h``'s
    rows (a ragged batch's :class:`~repro.tensor.Slots` pass
    through).
    """
    h = as_tensor(h)
    if h.ndim not in (2, 3):
        raise ValueError(
            f"expected (N, F) or stacked (B, N, F) node features, got shape {h.shape}"
        )
    if adjacency is not None:
        if not isinstance(adjacency, CSRMatrix):
            adjacency = as_tensor(adjacency)
        shape = tuple(adjacency.shape)
        if len(shape) != h.ndim or shape[-1] != shape[-2]:
            raise ValueError(
                f"expected square (N, N) or (B, N, N) adjacency, got shape {shape}"
            )
        if shape[:-1] != h.shape[:-1]:
            raise ValueError(
                f"adjacency of shape {shape} does not match the "
                f"{h.shape[-2]} nodes of features {h.shape}"
            )
    if mask is not None and not isinstance(mask, Slots):
        mask = np.asarray(mask, dtype=np.float64)
        if mask.shape != h.shape[:-1]:
            raise ValueError(
                f"mask shape {mask.shape} does not match feature rows {h.shape[:-1]}"
            )
    return adjacency, h, mask


def masked_rows(h: Tensor, mask) -> Tensor:
    """``h`` with its padding rows zeroed (``h`` itself when ``mask`` is None)."""
    return h if mask is None else h * Tensor(mask[..., None])


def node_mean(h: Tensor, mask=None) -> Tensor:
    """Mean over each graph's real nodes: ``(..., N, F) -> (..., F)``."""
    if mask is None:
        return h.mean(axis=-2)
    return masked_rows(h, mask).sum(axis=-2) * Tensor(1.0 / mask.sum(axis=-1, keepdims=True))


def node_counts(h: Tensor, mask=None):
    """Each graph's real node count: ``N`` for unmasked input, else ``(B,)``."""
    return h.shape[-2] if mask is None else mask.sum(axis=-1)


class Selection(NamedTuple):
    """What :meth:`Coarsening.select` returns.

    ``s`` is the assignment ``(..., N, K)``; its padding rows must be
    exactly zero.  The other fields are set only by the operators that
    need them:

    - ``gate``: a ``(..., K, 1)`` multiplier on ``H'`` (Top-K scores,
      ASAP fitness);
    - ``h``: the features Reduce contracts instead of the input ``h``
      (DiffPool's embedding GNN, ASAP's transformed features);
    - ``aux``: the auxiliary loss, or a function of the Connect output
      ``Sᵀ A S`` returning it (MinCut's cut term);
    - ``post``: a step applied to ``Sᵀ A S`` after ``aux`` has read it
      (HAP's Eq. 19 sampling, MinCut's diagonal reset, the zero
      adjacency of the N -> 1 ablations);
    - ``mask``: the ``(B, K)`` output mask, when K differs from graph to
      graph.
    """

    s: Tensor
    gate: Tensor | None = None
    h: Tensor | None = None
    aux: Tensor | Callable[[Tensor], Tensor] | None = None
    post: Callable[[Tensor], Tensor] | None = None
    mask: np.ndarray | None = None


def reduce(selection: Selection, h: Tensor) -> Tensor:
    """Reduce: the pooled features ``H' = Sᵀ H``, gated when asked."""
    pooled = matmul_tn(selection.s, h if selection.h is None else selection.h)
    return pooled if selection.gate is None else pooled * selection.gate


class Readout(Module):
    """Maps ``(adjacency, node_features, mask)`` to graph embeddings.

    Subclasses implement :meth:`readout` as a reduction over the node
    axis that ignores padding rows; the base ``forward`` validates the
    inputs and the ``(..., out_features)`` output.
    """

    #: output embedding dimension; set by subclasses.
    out_features: int
    #: whether :meth:`readout` reads the adjacency; on a ragged batch it
    #: then gets a dense ``(B, N_max, N_max)`` stack with the slots view
    reads_adjacency: bool = False

    def forward(self, adjacency, h: Tensor, mask=None) -> Tensor:
        adjacency, h, mask = prepare_graph_inputs(adjacency, h, mask)
        if isinstance(mask, Slots):
            adjacency = mask.dense(adjacency) if self.reads_adjacency else None
            h, mask = mask.scatter(h), mask.mask
        out = self.readout(adjacency, h, mask)
        expected = h.shape[:-2] + (self.out_features,)
        if out.shape != expected:
            raise AssertionError(
                f"{type(self).__name__}.readout returned shape {out.shape}, "
                f"expected {expected}"
            )
        return out

    def readout(self, adjacency, h: Tensor, mask) -> Tensor:
        raise NotImplementedError


class Coarsening(Module):
    """Maps ``(adjacency, node_features)`` to a coarser ``(A', H', mask')``.

    Subclasses implement :meth:`select` and document how their cluster
    count K is determined (a fixed count, a keep-ratio, or 1 for global
    pools).  ``forward`` is the template and is not overridden.
    """

    #: whether the operator conditions on per-edge attributes; operators
    #: without it reject ``edge_attr`` loudly rather than dropping bond
    #: types on the floor (docs/molecular.md).
    supports_edge_attr: bool = False
    #: whether :meth:`select` runs on a ragged batch's ``(ΣN, ·)`` rows;
    #: otherwise it runs on the batch's slots view (module docstring)
    ragged: bool = False
    #: whether :meth:`select` reads the adjacency; on a ragged batch's
    #: slots view it then gets a dense ``(B, N_max, N_max)`` stack
    reads_adjacency: bool = True

    _aux: Tensor | None = None

    def forward(self, adjacency, h: Tensor, mask=None, edge_attr=None):
        adjacency, h, mask = prepare_graph_inputs(adjacency, h, mask)
        if adjacency is None:
            raise ValueError(f"{type(self).__name__} needs an adjacency")
        if edge_attr is not None and not self.supports_edge_attr:
            raise NotImplementedError(
                f"{type(self).__name__} does not condition on edge_attr; "
                "use HAP coarsening built with edge_features > 0"
            )
        with span("coarsen"):
            if isinstance(mask, Slots):
                selection, adj_coarse, h_coarse = self._ragged(
                    adjacency, h, mask, edge_attr
                )
            else:
                selection = self._select(adjacency, h, mask, edge_attr)
                h_coarse = reduce(selection, h)
                adj_coarse = coarsen_chain(selection.s, adjacency)  # Connect
            aux = selection.aux
            self._aux = aux(adj_coarse) if callable(aux) else aux
            if selection.post is not None:
                adj_coarse = selection.post(adj_coarse)
        return adj_coarse, h_coarse, selection.mask

    def _select(self, adjacency, h: Tensor, mask, edge_attr) -> Selection:
        selection = self.select(adjacency, h, mask, edge_attr)
        if selection.s.shape[:-1] != h.shape[:-1]:
            raise AssertionError(
                f"{type(self).__name__}.select returned an assignment of "
                f"shape {selection.s.shape} for features of shape {h.shape}"
            )
        return selection

    def _ragged(self, adjacency: CSRMatrix, h: Tensor, slots: Slots, edge_attr):
        """Select, Reduce and Connect on a ragged batch.

        Reduce ``Sᵀ H`` and Connect ``Sᵀ (A S)`` contract each graph's
        slots as batched products; ``A S`` runs on the block-diagonal
        CSR, whose rows are scattered into slots like ``S`` and ``H``.
        """
        if self.ragged:
            selection = self._select(adjacency, h, slots, edge_attr)
            rows = selection.s
            s = slots.scatter(rows)
            features = slots.scatter(h if selection.h is None else selection.h)
        else:
            dense = slots.dense(adjacency) if self.reads_adjacency else None
            features = slots.scatter(h)
            selection = self._select(dense, features, slots.mask, edge_attr)
            s = selection.s
            rows = scatter_gather(s.reshape(-1, s.shape[-1]), slots.index)
            if selection.h is not None:
                features = selection.h
        h_coarse = reduce(Selection(s, gate=selection.gate), features)
        adj_coarse = matmul_tn(s, slots.scatter(spmm(adjacency, rows)))
        return selection, adj_coarse, h_coarse

    def select(self, adjacency, h: Tensor, mask=None, edge_attr=None) -> Selection:
        raise NotImplementedError

    def auxiliary_loss(self) -> Tensor | None:
        """Auxiliary loss of the last call, averaged over a batch's graphs.

        DiffPool's link-prediction/entropy losses and MinCutPool's
        cut/orthogonality losses arrive through :class:`Selection`;
        operators without auxiliary objectives return None.
        """
        return self._aux
