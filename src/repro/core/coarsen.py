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
Within a hierarchical forward, :func:`loop_order_noise` draws every
level's noise up front, so a batch consumes the generator in the
per-graph loop's order.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import partial

import numpy as np

from repro.core.gcont import GCont
from repro.core.moa import MOA
from repro.nn.module import Parameter
from repro.pooling.base import Coarsening, Selection
from repro.tensor import Tensor, as_tensor, log, softmax

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
    ``rng.random(adjacency.shape)`` supplies the uniforms behind the
    noise.

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
    return (sampled + sampled.mT) * 0.5


class _Drawn:
    """Eq. 19 uniforms drawn before the forward that uses them, standing
    in for the generator in :func:`gumbel_soft_sample`."""

    def __init__(self, uniform: np.ndarray):
        self.uniform = uniform

    def random(self, shape) -> np.ndarray:
        if self.uniform.shape != tuple(shape):
            raise ValueError(
                f"Gumbel uniforms of shape {self.uniform.shape} were drawn "
                f"for a coarsened adjacency of shape {tuple(shape)}"
            )
        return self.uniform


@contextmanager
def loop_order_noise(coarsenings, batch_shape: tuple[int, ...]):
    """Draw a hierarchical forward's Eq. 19 uniforms in the per-graph
    loop's order.

    The loop draws graph by graph and, within a graph, level by level; a
    batch reaches each level with every graph at once.  So each
    generator that sampling levels share draws once, a
    ``(*batch_shape, Σ K²)`` array whose row for a graph holds its
    levels' ``K x K`` blocks in level order, and inside the ``with``
    block each level samples with its own block.  Levels that draw
    nothing in the loop (eval mode, ``soft_sampling=False``, K = 1)
    draw nothing here either.
    """
    sampling = [
        c for c in coarsenings
        if isinstance(c, GraphCoarsening)
        and c.training and c.soft_sampling and c.num_clusters > 1
    ]
    shared: dict[int, list[GraphCoarsening]] = {}
    for coarsening in sampling:
        shared.setdefault(id(coarsening.rng), []).append(coarsening)
    for group in shared.values():
        sizes = [c.num_clusters**2 for c in group]
        uniform = group[0].rng.random((*batch_shape, sum(sizes)))
        blocks = np.split(uniform, np.cumsum(sizes)[:-1], axis=-1)
        for coarsening, block in zip(group, blocks):
            k = coarsening.num_clusters
            coarsening._drawn = _Drawn(block.reshape(*batch_shape, k, k))
    try:
        yield
    finally:
        for coarsening in sampling:
            coarsening._drawn = None


class GraphCoarsening(Coarsening):
    """One HAP coarsening module: GCont + MOA + formation + sampling.

    Its :meth:`select` is GCont -> MOA (Eq. 13-15); the
    :class:`~repro.pooling.base.Coarsening` template then forms the
    clusters, ``H' = M^T H`` and ``A' = M^T (A M)`` (Eq. 17-18), and
    soft-samples ``A'`` (Eq. 19) unless ``soft_sampling=False``.  One
    graph ``(N, ·)`` on its CSR (or a dense coarsened level), a stack
    ``(B, N, ·)`` with a ``(B, N)`` validity mask, or a ragged batch's
    ``(ΣN, ·)`` rows with its block-diagonal CSR and slots run the same
    body; bond features come as ``(nnz, Fe)`` rows beside a CSR.  ``M``'s
    padding rows are exactly zero, so Eq. 17-18 contract only over each
    graph's real nodes and a batch matches the per-graph results; the
    coarsened outputs carry no padding (the output mask is ``None``),
    since every graph now owns exactly N' cluster nodes.
    """

    ragged = True
    _drawn: _Drawn | None = None

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
        self.supports_edge_attr = edge_features > 0
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
        from repro.gnn.edges import check_edge_attr, incident_edge_sums

        check_edge_attr(adjacency, edge_attr, self.edge_features)
        summary = incident_edge_sums(adjacency, edge_attr)
        return h + as_tensor(summary) @ self.edge_proj

    def select(self, adjacency, h: Tensor, mask=None, edge_attr=None) -> Selection:
        """M from GCont -> MOA on the edge-conditioned features; Eq. 19
        as the post-Connect step.  The Gumbel noise is drawn only in
        training mode."""
        content = self.gcont(self._edge_conditioned(adjacency, h, edge_attr))
        assignment = self.moa(content, mask)  # (..., N, N')
        post = None
        if self.soft_sampling:
            post = partial(
                gumbel_soft_sample,
                tau=self.tau,
                rng=(self._drawn or self.rng) if self.training else None,
            )
        return Selection(assignment, post=post)
