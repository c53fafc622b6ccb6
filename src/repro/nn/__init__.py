"""Neural-network substrate built on :mod:`repro.tensor`.

Provides the module system, common layers, initialisers, optimisers and
loss functions required by the GNN encoders, pooling operators and task
models of the HAP reproduction.
"""

from repro.nn.module import Module, Parameter
from repro.nn.layers import Linear, MLP, LSTMCell, Bilinear
from repro.nn.init import glorot_uniform, zeros, uniform
from repro.nn.optim import SGD, Adam, Optimizer
from repro.nn.serialization import save_module, load_module, module_fingerprint
from repro.nn.losses import (
    binary_cross_entropy,
    cross_entropy,
    cross_entropy_batched,
    mse_loss,
    pairwise_matching_loss,
    triplet_mse_loss,
)

__all__ = [
    "Module",
    "Parameter",
    "Linear",
    "MLP",
    "LSTMCell",
    "Bilinear",
    "glorot_uniform",
    "zeros",
    "uniform",
    "SGD",
    "Adam",
    "Optimizer",
    "save_module",
    "load_module",
    "module_fingerprint",
    "binary_cross_entropy",
    "cross_entropy",
    "cross_entropy_batched",
    "mse_loss",
    "pairwise_matching_loss",
    "triplet_mse_loss",
]
