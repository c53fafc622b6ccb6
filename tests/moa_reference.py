"""Reference MOA scores (paper Eq. 14), written apart from ``repro.core.moa``.

Oracles for the MOA tests: the unfused per-head logit matrix and the
Claim-3 scalar score.  They compute the relaxation ψ on their own —
``CᵀC / N`` for ``relaxation='project'``, the literal zero-pad or
truncation for ``'pad'`` — so they share no code with the module they
check.
"""

import numpy as np

from repro.tensor import Tensor, as_tensor, concat, leaky_relu


def relaxed_columns(content: Tensor, relaxation: str) -> Tensor:
    """ψ of every column of one graph's ``(N, N')`` content, as the rows
    of an ``(N', N')`` matrix."""
    n, n_prime = content.shape
    if relaxation == "project":
        return (content.T @ content) * (1.0 / n)
    if n < n_prime:
        zeros = Tensor(np.zeros((n_prime - n, n_prime)))
        return concat([content, zeros], axis=0).T
    return content[:n_prime, :].T


def moa_logits(moa, content, head: int = 0) -> Tensor:
    """Unnormalised attention matrix M (Eq. 14) of one MOA head."""
    content = as_tensor(content)
    n, n_prime = content.shape
    row_score = content @ moa.att_row[head]  # (N,)
    col_score = relaxed_columns(content, moa.relaxation) @ moa.att_col[head]
    return leaky_relu(
        row_score.reshape(n, 1) + col_score.reshape(1, n_prime),
        moa.negative_slope,
    )


def concat_score(a: Tensor, row: Tensor, col: Tensor) -> Tensor:
    """Scalar score ``LeakyReLU(a^T [row || col])`` of the Claim-3 proof."""
    return leaky_relu(a @ concat([row, col], axis=0))
