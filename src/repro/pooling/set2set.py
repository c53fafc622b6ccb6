"""Set2Set pooling (Vinyals et al., 2015).

An LSTM produces a query vector, nodes are soft-attended against it,
and the attention readout is fed back into the LSTM for ``steps``
iterations.  The output is the concatenation of the final query and the
final readout (dimension ``2 * in_features``).
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import LSTMCell
from repro.pooling.base import Readout, Selection, reduce
from repro.tensor import Tensor, concat, masked_softmax, softmax


class Set2Set(Readout):
    """Order-invariant set pooling with iterative content-based attention."""

    def __init__(self, in_features: int, rng: np.random.Generator, steps: int = 3):
        super().__init__()
        if steps < 1:
            raise ValueError("set2set needs at least one processing step")
        self.steps = steps
        self.in_features = in_features
        self.out_features = 2 * in_features
        self.lstm = LSTMCell(2 * in_features, in_features, rng)

    def readout(self, adjacency, h: Tensor, mask) -> Tensor:
        lead, (n, f) = h.shape[:-2], h.shape[-2:]
        q_star = Tensor(np.zeros(lead + (2 * f,)))
        state = (Tensor(np.zeros(lead + (f,))), Tensor(np.zeros(lead + (f,))))
        for _ in range(self.steps):
            query, cell = self.lstm(q_star, state)
            state = (query, cell)
            energies = (h @ query.reshape(*lead, f, 1)).reshape(*lead, n)
            if mask is None:
                attention = softmax(energies, axis=-1)
            else:
                attention = masked_softmax(energies, mask, axis=-1)
            readout = reduce(
                Selection(attention.reshape(*lead, n, 1)), h
            ).reshape(*lead, f)
            q_star = concat([query, readout], axis=-1)
        return q_star
