"""Loss functions used by the three downstream tasks.

- graph classification: standard cross-entropy (paper Eq. 21);
- graph matching: hierarchical pairwise cross-entropy over the per-level
  similarity scores (paper Eq. 22-23);
- graph similarity learning: hierarchical MSE against relative GED
  (paper Eq. 24).
"""

from __future__ import annotations

import numpy as np

from repro.tensor import Tensor, exp, log, log_softmax, stack


def cross_entropy(logits: Tensor, label: int) -> Tensor:
    """Cross-entropy for a single example: ``-log softmax(logits)[label]``."""
    log_probs = log_softmax(logits, axis=-1)
    return -log_probs[int(label)]


def cross_entropy_batched(logits: Tensor, labels) -> Tensor:
    """Mean cross-entropy over a batch: ``logits`` (B, C), ``labels`` (B,).

    Equals the mean of :func:`cross_entropy` over the batch — the
    invariant the loop-vs-batched equivalence suite relies on.
    """
    labels = np.asarray(labels, dtype=np.intp)
    if logits.ndim != 2 or labels.shape != (logits.shape[0],):
        raise ValueError(
            f"expected (B, C) logits and (B,) labels, got {logits.shape} "
            f"and {labels.shape}"
        )
    log_probs = log_softmax(logits, axis=-1)
    picked = log_probs[(np.arange(labels.size), labels)]
    return -picked.mean()


def mse_loss(prediction: Tensor, target: float | np.ndarray) -> Tensor:
    """Mean squared error against a constant target."""
    diff = prediction - Tensor(np.asarray(target, dtype=np.float64))
    return (diff * diff).mean()


def binary_cross_entropy(score: Tensor, label: int, eps: float = 1e-9) -> Tensor:
    """BCE for a probability ``score`` in (0, 1) and binary label."""
    score = score + Tensor(eps)
    if label:
        return -log(score)
    return -log(Tensor(1.0 + eps) - score)


def pairwise_matching_loss(
    distances: list[Tensor], label: int, scale: float = 0.5
) -> Tensor:
    """Hierarchical matching loss (paper Eq. 22-23).

    ``distances`` holds the Euclidean graph distances at each coarsening
    level k; each is converted to a similarity score
    ``s_k = exp(-scale * d_k)`` and a symmetric cross-entropy against the
    pair label is averaged over levels.
    """
    if not distances:
        raise ValueError("need at least one hierarchical distance")
    total: Tensor | None = None
    for dist in distances:
        score = exp(dist * (-scale))
        level_loss = binary_cross_entropy(score, label)
        total = level_loss if total is None else total + level_loss
    return total * (1.0 / len(distances))


def triplet_mse_loss(
    dist_anchor_left: list[Tensor],
    dist_anchor_right: list[Tensor],
    relative_ged: float,
) -> Tensor:
    """Hierarchical triplet loss (paper Eq. 24).

    For each level k the model's relative distance
    ``d(G1, G2)_k - d(G1, G3)_k`` is regressed onto the ground-truth
    relative GED ``g(G1, G2) - g(G1, G3)``.
    """
    if len(dist_anchor_left) != len(dist_anchor_right):
        raise ValueError("hierarchical distance lists must have equal length")
    diffs = [
        left - right for left, right in zip(dist_anchor_left, dist_anchor_right)
    ]
    errors = [
        (d - Tensor(float(relative_ged))) ** 2.0 for d in diffs
    ]
    return stack(errors).mean()
