"""Weight initialisers.

All initialisers take an explicit ``numpy.random.Generator`` so that
every experiment in the reproduction is exactly seeded.
"""

from __future__ import annotations

import numpy as np


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, shape=None):
    """Glorot/Xavier uniform initialisation (used by GAT and GCN)."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    if shape is None:
        shape = (fan_in, fan_out)
    return rng.uniform(-limit, limit, size=shape)


def uniform(rng: np.random.Generator, shape, low: float = -0.1, high: float = 0.1):
    """Plain uniform initialisation in ``[low, high)``."""
    return rng.uniform(low, high, size=shape)


def zeros(shape):
    """Zero initialisation (biases)."""
    return np.zeros(shape, dtype=np.float64)
