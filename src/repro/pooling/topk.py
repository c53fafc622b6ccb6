"""Top-K pooling family: gPool, SAGPool, AttPool (global & local).

Each method scores nodes, keeps each graph's ``ceil(ratio * N)`` best
and gates the surviving features with their (squashed) scores so the
scoring parameters receive gradients.  The selection is a one-hot
assignment S over the kept nodes, so Reduce gathers their rows and
Connect keeps the induced subgraph on them (Cangea et al.) — exactly
the behaviour the paper criticises (dropped nodes lose their
information and survivors may disconnect), which our tests verify.

On a padded batch, padding nodes score -inf and every graph keeps its
own count; the output mask marks the kept slots.
"""

from __future__ import annotations

import math

import numpy as np

from repro.gnn.layers import GCNLayer
from repro.nn.init import glorot_uniform
from repro.nn.module import Parameter
from repro.pooling.base import Coarsening, Selection
from repro.tensor import Tensor, masked_softmax, sigmoid, softmax, sqrt, tanh


def _keep_count(n: int, ratio: float) -> int:
    return max(1, min(n, math.ceil(ratio * n)))


def top_k(scores: np.ndarray, mask, ratio: float) -> tuple[Tensor, np.ndarray | None]:
    """One-hot ``(..., N, K)`` selection of each graph's best nodes, and
    the output mask (``None`` for unmasked input).

    A graph with n real nodes keeps its ``ceil(ratio * n)``
    highest-scoring ones, in node order, as its first columns; ``K`` is
    the largest keep count and a graph's remaining columns stay zero.
    """
    lead, n = scores.shape[:-1], scores.shape[-1]
    if mask is not None:
        scores = np.where(mask > 0, scores, -np.inf)
    counts = np.broadcast_to(n if mask is None else mask.sum(axis=-1), lead)
    keep = [_keep_count(int(c), ratio) for c in counts.flat]
    s = np.zeros((len(keep), n, max(keep)))
    for row, (graph_scores, k) in enumerate(zip(scores.reshape(-1, n), keep)):
        kept = np.sort(np.argsort(-graph_scores, kind="stable")[:k])
        s[row, kept, np.arange(k)] = 1.0
    s = s.reshape(lead + s.shape[1:])
    return Tensor(s), None if mask is None else s.sum(axis=-2)


def kept_values(values: Tensor, s: Tensor) -> Tensor:
    """The ``(..., N)`` per-node ``values`` of the nodes a one-hot ``s``
    keeps, as a ``(..., K, 1)`` gate."""
    lead, (n, k) = s.shape[:-2], s.shape[-2:]
    return (values.reshape(*lead, 1, n) @ s).reshape(*lead, k, 1)


class TopKCoarsening(Coarsening):
    """Shared select-and-gate machinery for the Top-K family.

    Subclasses implement :meth:`scores` returning one logit per node,
    ``(N,)`` or ``(B, N)``.  ``gate`` chooses the squashing applied to
    survivors' scores.
    """

    def __init__(self, ratio: float = 0.5, gate: str = "tanh"):
        super().__init__()
        if not 0.0 < ratio <= 1.0:
            raise ValueError(f"ratio must be in (0, 1], got {ratio}")
        if gate not in ("tanh", "sigmoid", "softmax"):
            raise ValueError(f"unknown gate {gate!r}")
        self.ratio = ratio
        self.gate = gate

    def scores(self, adjacency, h: Tensor) -> Tensor:
        raise NotImplementedError

    def _squash(self, raw: Tensor, mask) -> Tensor:
        if self.gate == "tanh":
            return tanh(raw)
        if self.gate == "sigmoid":
            return sigmoid(raw)
        if mask is None:
            return softmax(raw, axis=-1)
        return masked_softmax(raw, mask, axis=-1)

    def select(self, adjacency, h: Tensor, mask=None, edge_attr=None) -> Selection:
        raw = self.scores(adjacency, h)  # (..., N)
        s, out_mask = top_k(raw.data, mask, self.ratio)
        return Selection(s, gate=kept_values(self._squash(raw, mask), s), mask=out_mask)


class GPool(TopKCoarsening):
    """gPool / Graph U-Nets (Gao & Ji 2019).

    Node score is the scalar projection of its features onto a trainable
    vector: ``y = H p / ||p||``.
    """

    def __init__(self, in_features: int, rng: np.random.Generator, ratio: float = 0.5):
        super().__init__(ratio=ratio, gate="tanh")
        self.projection = Parameter(
            glorot_uniform(rng, in_features, 1, shape=(in_features,)),
            name="projection",
        )

    def scores(self, adjacency, h: Tensor) -> Tensor:
        norm = sqrt((self.projection * self.projection).sum() + 1e-12)
        return (h @ self.projection) / norm


class SAGPool(TopKCoarsening):
    """Self-attention graph pooling (Lee et al. 2019).

    Scores come from a one-channel GCN over the graph, so both features
    and topology inform the selection.
    """

    def __init__(self, in_features: int, rng: np.random.Generator, ratio: float = 0.5):
        super().__init__(ratio=ratio, gate="tanh")
        self.score_gcn = GCNLayer(in_features, 1, rng, activation="none")

    def scores(self, adjacency, h: Tensor) -> Tensor:
        return self.score_gcn(adjacency, h).reshape(*h.shape[:-1])


class AttPoolGlobal(TopKCoarsening):
    """AttPool with global soft attention scoring (Huang et al. 2019)."""

    def __init__(self, in_features: int, rng: np.random.Generator, ratio: float = 0.5):
        super().__init__(ratio=ratio, gate="softmax")
        self.att = Parameter(
            glorot_uniform(rng, in_features, 1, shape=(in_features,)), name="att"
        )

    def scores(self, adjacency, h: Tensor) -> Tensor:
        return h @ self.att


class AttPoolLocal(TopKCoarsening):
    """AttPool's local variant: attention balanced by node degree.

    Adding ``log(1 + deg)`` to the logits trades pure feature importance
    against dispersion, as in the original local-attention design.
    """

    def __init__(self, in_features: int, rng: np.random.Generator, ratio: float = 0.5):
        super().__init__(ratio=ratio, gate="softmax")
        self.att = Parameter(
            glorot_uniform(rng, in_features, 1, shape=(in_features,)), name="att"
        )

    def scores(self, adjacency, h: Tensor) -> Tensor:
        adj_data = adjacency.data if isinstance(adjacency, Tensor) else adjacency
        degree = (np.asarray(adj_data) != 0).sum(axis=-1)
        return h @ self.att + Tensor(np.log1p(degree))
