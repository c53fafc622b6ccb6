"""HAP graph coarsening lifted to heterogeneous graphs.

One shared GCont + MOA assignment M coarsens the node set (clusters are
anchored to content, exactly as in the homogeneous module); every
relation's adjacency is then coarsened through the same assignment,

    H' = M^T H        A'_r = M^T A_r M   for every relation r,

so the coarse graph remains heterogeneous and relation structure
survives pooling.  Both run on the fused kernels the homogeneous
coarsenings share (``matmul_tn`` and the ``M^T (A M)`` chain
``coarsen_chain``), one chain per relation.  Soft sampling (Eq. 19) is
applied per relation.
"""

from __future__ import annotations

import numpy as np

from repro.core.coarsen import DEFAULT_TAU, gumbel_soft_sample
from repro.core.gcont import GCont
from repro.core.moa import MOA
from repro.nn.module import Module
from repro.tensor import Tensor, as_tensor, coarsen_chain, matmul_tn


class HeteroGraphCoarsening(Module):
    """One heterogeneous HAP coarsening module."""

    def __init__(
        self,
        relations: list[str],
        in_features: int,
        num_clusters: int,
        rng: np.random.Generator,
        tau: float = DEFAULT_TAU,
        soft_sampling: bool = True,
    ):
        super().__init__()
        self.relations = sorted(relations)
        self.num_clusters = num_clusters
        self.tau = tau
        self.soft_sampling = soft_sampling
        self.rng = rng
        self.gcont = GCont(in_features, num_clusters, rng)
        self.moa = MOA(num_clusters, rng)

    def coarsen(
        self, adjacencies: dict, h: Tensor
    ) -> tuple[dict, Tensor, Tensor]:
        h = as_tensor(h)
        assignment = self.moa(self.gcont(h))  # (N, N')
        h_coarse = matmul_tn(assignment, h)
        coarse_adjacencies = {}
        for relation in self.relations:
            coarse = coarsen_chain(assignment, as_tensor(adjacencies[relation]))
            if self.soft_sampling:
                noise_rng = self.rng if self.training else None
                coarse = gumbel_soft_sample(coarse, self.tau, noise_rng)
            coarse_adjacencies[relation] = coarse
        return coarse_adjacencies, h_coarse, assignment

    def forward(self, adjacencies: dict, h: Tensor) -> tuple[dict, Tensor]:
        coarse_adjacencies, h_coarse, _ = self.coarsen(adjacencies, h)
        return coarse_adjacencies, h_coarse
