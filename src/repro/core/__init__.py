"""HAP: the paper's primary contribution.

- :class:`GCont` — the auto-learned global graph content (Eq. 13);
- :class:`MOA` — master-orthogonal cross-level attention (Eq. 14-15);
- :class:`GraphCoarsening` — one coarsening module (Algorithm 1):
  GCont -> MOA -> cluster formation (Eq. 17-18) -> Gumbel-Softmax soft
  sampling (Eq. 19); a :class:`~repro.pooling.base.Coarsening`, so it
  slots into the same model plumbing as every baseline;
- :class:`HierarchicalEmbedder` / :func:`build_hap_embedder` — the full
  hierarchical framework of Fig. 2 (alternating node & cluster
  embedding with coarsening, emitting per-level graph representations
  for the hierarchical similarity measure).
"""

from repro.core.gcont import GCont
from repro.core.moa import MOA
from repro.core.coarsen import GraphCoarsening, gumbel_soft_sample
from repro.core.hap import HierarchicalEmbedder, build_hap_embedder

__all__ = [
    "GCont",
    "MOA",
    "GraphCoarsening",
    "gumbel_soft_sample",
    "HierarchicalEmbedder",
    "build_hap_embedder",
]
