"""Common layers: Linear, MLP, LSTMCell, Bilinear.

``LSTMCell`` backs the Set2Set pooling baseline; ``Bilinear`` backs the
Neural Tensor Network block of the SimGNN comparator.
"""

from __future__ import annotations

import numpy as np

from repro.nn.init import glorot_uniform, zeros
from repro.nn.module import Module, Parameter
from repro.tensor import Tensor, concat, relu, sigmoid, tanh


class Linear(Module):
    """Affine layer ``y = x W + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        bias: bool = True,
    ):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            glorot_uniform(rng, in_features, out_features), name="weight"
        )
        self.bias = Parameter(zeros(out_features), name="bias") if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class MLP(Module):
    """Stack of Linear layers with ReLU between them; the last layer is
    not activated."""

    def __init__(self, sizes: list[int], rng: np.random.Generator):
        super().__init__()
        if len(sizes) < 2:
            raise ValueError("MLP needs at least input and output sizes")
        self.linears = [
            Linear(sizes[i], sizes[i + 1], rng) for i in range(len(sizes) - 1)
        ]
        for i, layer in enumerate(self.linears):
            setattr(self, f"linear{i}", layer)

    def forward(self, x: Tensor) -> Tensor:
        last = len(self.linears) - 1
        for i, layer in enumerate(self.linears):
            x = layer(x)
            if i < last:
                x = relu(x)
        return x


class LSTMCell(Module):
    """Single LSTM cell (input, forget, cell, output gates)."""

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator):
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        gate = 4 * hidden_size
        self.w_ih = Parameter(glorot_uniform(rng, input_size, gate), name="w_ih")
        self.w_hh = Parameter(glorot_uniform(rng, hidden_size, gate), name="w_hh")
        self.bias = Parameter(zeros(gate), name="bias")

    def forward(
        self, x: Tensor, state: tuple[Tensor, Tensor]
    ) -> tuple[Tensor, Tensor]:
        h, c = state
        gates = x @ self.w_ih + h @ self.w_hh + self.bias
        hs = self.hidden_size
        i = sigmoid(gates[..., 0:hs])
        f = sigmoid(gates[..., hs : 2 * hs])
        g = tanh(gates[..., 2 * hs : 3 * hs])
        o = sigmoid(gates[..., 3 * hs : 4 * hs])
        c_next = f * c + i * g
        h_next = o * tanh(c_next)
        return h_next, c_next

    def initial_state(self, batch: int = 1) -> tuple[Tensor, Tensor]:
        shape = (batch, self.hidden_size) if batch > 1 else (self.hidden_size,)
        return Tensor(np.zeros(shape)), Tensor(np.zeros(shape))


class Bilinear(Module):
    """Neural-tensor-network interaction: ``f(a, b)_k = a^T W_k b``.

    Plus a linear term over the concatenation and a bias, following the
    NTN block used by SimGNN.
    """

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator):
        super().__init__()
        self.out_features = out_features
        self.tensor_weight = Parameter(
            glorot_uniform(
                rng, in_features, in_features, shape=(out_features, in_features, in_features)
            ),
            name="tensor_weight",
        )
        self.linear_weight = Parameter(
            glorot_uniform(rng, 2 * in_features, out_features), name="linear_weight"
        )
        self.bias = Parameter(zeros(out_features), name="bias")

    def forward(self, a: Tensor, b: Tensor) -> Tensor:
        """Compute interaction scores for 1-D inputs ``a`` and ``b``."""
        # a: (F,), tensor_weight: (K, F, F), b: (F,) -> (K,)
        wa = self.tensor_weight @ b  # (K, F)
        bilinear = wa @ a  # (K,)
        linear = concat([a, b], axis=0) @ self.linear_weight
        return bilinear + linear + self.bias
