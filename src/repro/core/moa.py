"""MOA: master-orthogonal attention (paper Eq. 14-15).

Given the content matrix C ∈ R^{N x N'} (rows = source nodes, columns =
target clusters), MOA scores every node-cluster pair

    M_ij = LeakyReLU(a^T [ C_{(i,·)}  ||  ψ(C_{(·,j)}) ])

with a shared trainable vector a ∈ R^{2N'} and row-softmax normalises
the result (Eq. 15).  ψ is the paper's *relaxation* of the cluster
column from R^N down to R^{N'} (Sec. 4.4.2 / Claim 3).  Two
realisations are provided:

``relaxation='project'`` (default)
    ψ(c_j) = C^T c_j / N — a permutation-invariant projection of the
    column onto cluster space.  The paper's zero-padding argument is
    order-dependent for N > N'; this projection keeps Claim 2
    (permutation invariance) intact while preserving the column's
    content, and is what all experiments use.

``relaxation='pad'``
    The literal zero-pad / truncate of the paper's proof.  Exact for
    N <= N' (Claim 3) and exposed for the ablation benchmark.
"""

from __future__ import annotations

import numpy as np

from repro.nn.init import glorot_uniform
from repro.nn.module import Module, Parameter
from repro.observe.tracing import span
from repro.tensor import (
    Slots,
    Tensor,
    as_tensor,
    concat,
    leaky_relu,
    masked_softmax_mean,
    matmul_tn,
    transpose,
)


class MOA(Module):
    """Cross-level attention from source nodes to target clusters.

    ``num_heads > 1`` enables the multi-head extension: each head owns
    an independent attention vector ``a`` and the normalised assignments
    are averaged — a convex combination of row-stochastic matrices, so
    Eq. 15's normalisation is preserved.
    """

    def __init__(
        self,
        num_clusters: int,
        rng: np.random.Generator,
        relaxation: str = "project",
        negative_slope: float = 0.2,
        num_heads: int = 1,
    ):
        super().__init__()
        if relaxation not in ("project", "pad"):
            raise ValueError(f"unknown relaxation {relaxation!r}")
        if num_heads < 1:
            raise ValueError("need at least one attention head")
        self.num_clusters = num_clusters
        self.relaxation = relaxation
        self.negative_slope = negative_slope
        self.num_heads = num_heads
        # a^T [x || y] decomposes into a_row^T x + a_col^T y, one pair
        # of vectors per head.
        self.att_row = Parameter(
            glorot_uniform(
                rng, num_clusters, 1, shape=(num_heads, num_clusters)
            ),
            name="att_row",
        )
        self.att_col = Parameter(
            glorot_uniform(
                rng, num_clusters, 1, shape=(num_heads, num_clusters)
            ),
            name="att_col",
        )

    # ------------------------------------------------------------------
    def _relaxed_columns(self, content: Tensor, mask=None) -> Tensor:
        """ψ applied to every column: ``(..., N, N')`` content gives an
        ``(..., N', N')`` block whose j-th row is ψ(C_{(·,j)}).

        A ``(..., N)`` validity mask zeroes padding rows first and makes
        'project' divide by each graph's true node count, so a padded
        graph gets the ψ of its unpadded self.  A ragged batch's slots
        put its ``(ΣN, N')`` rows into zero-padded ``(B, N_max, N')``
        slots, the same situation.  For 'pad', the zeroed rows make
        slicing the first N' rows both the zero-pad (N < N') and the
        truncation (N >= N') of the single-graph case.
        """
        counts = None
        if isinstance(mask, Slots):
            content, counts = mask.scatter(content), mask.counts
        elif mask is not None:
            content, counts = content * Tensor(mask[..., None]), mask.sum(axis=-1)
        n, n_prime = content.shape[-2:]
        if self.relaxation == "project":
            if counts is None:
                scale = 1.0 / n
            else:
                scale = Tensor((1.0 / np.maximum(counts, 1.0))[..., None, None])
            return matmul_tn(content, content) * scale
        # 'pad': zero-pad columns when N < N', truncate when N > N'.
        if n < n_prime:
            zeros = Tensor(np.zeros(content.shape[:-2] + (n_prime - n, n_prime)))
            content = concat([content, zeros], axis=-2)
        else:
            content = content[..., :n_prime, :]
        axes = tuple(range(content.ndim - 2)) + (content.ndim - 1, content.ndim - 2)
        return transpose(content, axes)

    def forward(self, content: Tensor, mask=None) -> Tensor:
        """Row-softmax-normalised attention assignment (Eq. 15).

        ``(N, N')`` content of one graph or ``(B, N, N')`` content of a
        padded batch run the same body, which broadcasts over the
        leading batch axis.  An optional ``(B, N)`` validity mask marks
        the real rows; ``None`` means every row is valid.  Padding rows
        receive *exactly* zero attention mass (the masked softmax zeroes
        them rather than approximating with large negatives), so they
        contribute nothing to the pooled content downstream, and valid
        rows equal the single-graph assignment.

        A ragged batch passes ``(ΣN, N')`` content with its
        :class:`~repro.tensor.Slots` as the mask: ψ runs per
        graph on the slots, and the scores and the softmax run row by
        row, each row against its own graph's relaxed columns.

        All heads are scored in one vectorised pass: the per-head logits
        are stacked into an ``(..., N, N', H)`` block, row-softmaxed
        along the cluster axis with a single call, and averaged over the
        head axis (a convex combination of row-stochastic matrices, so
        Eq. 15's normalisation is preserved).
        """
        content = as_tensor(content)
        with span("moa"):
            n_prime, heads = content.shape[-1], self.num_heads
            if n_prime != self.num_clusters:
                raise ValueError(
                    f"content has {n_prime} clusters, MOA expects {self.num_clusters}"
                )
            ragged = isinstance(mask, Slots)
            if mask is not None and not ragged:
                mask = np.asarray(mask, dtype=np.float64)
                if mask.shape != content.shape[:-1]:
                    raise ValueError(
                        f"mask shape {mask.shape} does not match content "
                        f"rows {content.shape[:-1]}"
                    )
            relaxed = self._relaxed_columns(content, mask)  # (..., N', N')
            row_scores = content @ self.att_row.T  # (..., N, H)
            col_scores = relaxed @ self.att_col.T  # (..., N', H)
            row_mask = None
            if ragged:  # every row meets its own graph's columns
                col_scores = mask.expand(col_scores)  # (ΣN, N', H)
            else:
                col_scores = col_scores.reshape(
                    *content.shape[:-2], 1, n_prime, heads
                )
                if mask is not None:
                    row_mask = mask[..., None, None]
            scores = leaky_relu(
                row_scores.reshape(*row_scores.shape[:-1], 1, heads) + col_scores,
                self.negative_slope,
            )
            # Fused softmax+head-mean: one traversal, no (..., N, N', H)
            # probability intermediate on the tape (docs/performance.md).
            return masked_softmax_mean(scores, row_mask, axis=-2, mean_axis=-1)
