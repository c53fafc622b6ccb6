"""The HAP graph coarsening module (paper Algorithm 1).

One module performs:

1. attention preparation — GCont builds C = H T (Eq. 13);
2. attention assignment — MOA produces M ∈ R^{N x N'} (Eq. 14-15);
3. cluster formation — H' = M^T H, A' = M^T A M (Eq. 17-18);
4. soft sampling — Gumbel-Softmax sharpening of A' at temperature
   τ = 0.1 (Eq. 19) to cut edge density of the otherwise fully
   connected coarsened graph.

The Gumbel noise is only injected in training mode; evaluation uses the
deterministic tempered softmax so inference is reproducible.  The
sampled adjacency is symmetrised (the paper's Eq. 19 row-normalises,
which would break the undirectedness every other component assumes).
"""

from __future__ import annotations

import numpy as np

from repro.core.gcont import GCont
from repro.core.moa import MOA
from repro.nn.module import Module, Parameter
from repro.observe.tracing import span
from repro.tensor import (
    CSRMatrix,
    Tensor,
    as_tensor,
    coarsen_chain,
    log,
    matmul_tn,
    softmax,
    transpose,
)

#: softmax temperature of Eq. 19 ("we set τ = 0.1").
DEFAULT_TAU = 0.1


def gumbel_soft_sample(
    adjacency: Tensor,
    tau: float = DEFAULT_TAU,
    rng: np.random.Generator | None = None,
    eps: float = 1e-9,
) -> Tensor:
    """Gumbel-Softmax soft edge sampling (Eq. 19).

    Applies a row-wise tempered softmax to ``log A + g`` where ``g`` is
    Gumbel(0, 1) noise (omitted when ``rng`` is None, yielding the
    deterministic annealed softmax).  The result is symmetrised.

    Accepts a single ``(N', N')`` adjacency or a batched ``(B, N', N')``
    stack; the softmax always runs along the last (column) axis.
    """
    adjacency = as_tensor(adjacency)
    n = adjacency.shape[-1]
    if n == 1:
        # A single cluster has no edges to sample.
        return adjacency
    logits = log(adjacency + eps)
    if rng is not None:
        uniform = rng.random(adjacency.shape)
        gumbel = -np.log(-np.log(uniform + eps) + eps)
        logits = logits + Tensor(gumbel)
    sampled = softmax(logits * (1.0 / tau), axis=-1)
    axes = tuple(range(adjacency.ndim - 2)) + (adjacency.ndim - 1, adjacency.ndim - 2)
    return (sampled + transpose(sampled, axes)) * 0.5


class GraphCoarsening(Module):
    """One HAP coarsening module: GCont + MOA + formation + sampling."""

    def __init__(
        self,
        in_features: int,
        num_clusters: int,
        rng: np.random.Generator,
        tau: float = DEFAULT_TAU,
        soft_sampling: bool = True,
        relaxation: str = "project",
        num_heads: int = 1,
        edge_features: int = 0,
    ):
        super().__init__()
        self.in_features = in_features
        self.num_clusters = num_clusters
        self.edge_features = edge_features
        self.tau = tau
        self.soft_sampling = soft_sampling
        self.rng = rng
        self.gcont = GCont(in_features, num_clusters, rng)
        self.moa = MOA(
            num_clusters, rng, relaxation=relaxation, num_heads=num_heads
        )
        if edge_features > 0:
            from repro.nn.init import glorot_uniform

            self.edge_proj = Parameter(
                glorot_uniform(rng, edge_features, in_features), name="edge_proj"
            )
        else:
            self.edge_proj = None

    def attention(self, h: Tensor, mask=None) -> Tensor:
        """The normalised MOA assignment M for node features ``h``:
        ``(N, F)`` for one graph or ``(B, N, F)`` for a padded batch
        (``mask=None`` means every row is valid).
        """
        return self.moa(self.gcont(h), mask)

    def _edge_conditioned(self, adjacency, h: Tensor, edge_attr) -> Tensor:
        """Features fed to the MOA attention, conditioned on edge types.

        With edge attributes present, each node's incident-edge attribute
        sum is projected into feature space and added to ``h`` before
        GCont, so the MOA assignment (Eq. 14-15) — and hence which
        substructures merge — can depend on bond types
        (docs/molecular.md).  Eq. 17's cluster features keep using the
        raw ``h``.
        """
        if edge_attr is None:
            return h
        if self.edge_proj is None:
            raise ValueError(
                "GraphCoarsening got edge_attr but was built with "
                "edge_features=0"
            )
        from repro.gnn.edges import incident_edge_sums

        summary = incident_edge_sums(adjacency, edge_attr)
        return h + as_tensor(summary) @ self.edge_proj

    def coarsen(
        self, adjacency, h: Tensor, mask=None, edge_attr=None
    ) -> tuple[Tensor, Tensor, Tensor]:
        """Coarsen ``(A, H)`` to ``(A', H')``; also returns M.

        Follows Algorithm 1 line by line; the returned adjacency has
        been soft-sampled (Eq. 19) unless ``soft_sampling=False``.  One
        graph ``(N, ·)`` or a padded batch ``(B, N, ·)`` with a
        ``(B, N)`` validity mask run the same body.  ``M``'s padding
        rows are exactly zero, so Eq. 17-18 contract only over each
        graph's real nodes and a padded batch matches the per-graph
        results; the coarsened ``(B, N', ...)`` outputs carry no
        padding, since every graph now owns exactly N' cluster nodes.
        """
        if not isinstance(adjacency, CSRMatrix):
            adjacency = as_tensor(adjacency)
        h = as_tensor(h)
        with span("coarsen"):
            assignment = self.attention(
                self._edge_conditioned(adjacency, h, edge_attr), mask
            )  # (..., N, N')
            h_coarse = matmul_tn(assignment, h)  # Eq. 17
            # Eq. 18 as the fused chain M^T (A M): the A M product runs
            # first so the wide (N', N) intermediate is never formed;
            # for CSR adjacencies it keeps peak memory at O(E·N')
            # instead of the dense O(N²).  The coarsened (N', N')
            # adjacency is small and stays dense so the Gumbel sampling
            # and deeper levels are unchanged.
            adj_coarse = coarsen_chain(assignment, adjacency)
            if self.soft_sampling:
                noise_rng = self.rng if self.training else None
                adj_coarse = gumbel_soft_sample(adj_coarse, self.tau, noise_rng)
            return adj_coarse, h_coarse, assignment

    def forward(self, adjacency, h: Tensor, mask=None, edge_attr=None):
        """Coarsen one level.

        Single graph: ``(A, H) -> (A', H')``.  Padded batch:
        ``(A, H, mask) -> (A', H', mask')`` where the new mask is
        all-ones — coarsened graphs are dense in the batch.
        """
        adj_coarse, h_coarse, _ = self.coarsen(adjacency, h, mask, edge_attr)
        if h_coarse.ndim == 3:
            return adj_coarse, h_coarse, np.ones(h_coarse.shape[:2])
        return adj_coarse, h_coarse
