"""SortPooling (Zhang et al., 2018).

Treats the last feature channel as a continuous WL colour, sorts nodes
by it in descending order, keeps the top ``k`` (zero-padding smaller
graphs) and flattens the result into a fixed-size vector.  The sort is a
constant one-hot selection S fed to the shared Reduce ``S^T H``, so
gradients flow to the selected nodes; padding nodes sort last.
"""

from __future__ import annotations

import numpy as np

from repro.pooling.base import Readout, Selection, node_counts, reduce
from repro.tensor import Tensor


class SortPooling(Readout):
    """Sort nodes by their last feature channel and keep the top k."""

    def __init__(self, in_features: int, k: int):
        super().__init__()
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self.in_features = in_features
        self.out_features = k * in_features

    def readout(self, adjacency, h: Tensor, mask) -> Tensor:
        lead, (n, f) = h.shape[:-2], h.shape[-2:]
        colour = h.data[..., -1] if mask is None else np.where(mask > 0, h.data[..., -1], -np.inf)
        order = np.argsort(-colour, axis=-1, kind="stable")[..., : self.k]
        counts = np.broadcast_to(node_counts(h, mask), lead)
        s = np.zeros(lead + (n, self.k))
        for index in np.ndindex(*lead):
            kept = min(self.k, int(counts[index]))
            s[index][order[index][:kept], np.arange(kept)] = 1.0
        # Graphs with fewer than k nodes leave zero columns: zero rows.
        return reduce(Selection(Tensor(s)), h).reshape(*lead, self.k * f)
