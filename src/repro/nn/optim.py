"""The Adam optimiser (Kingma & Ba, 2015).

The paper trains every model with Adam (Sec. 6.1.3), and so does
:func:`repro.training.fit`: one learning rate, fixed for the whole run,
the usual moment decay rates and epsilon, and no weight decay.
"""

from __future__ import annotations

import numpy as np

from repro.nn.module import Parameter

#: decay rates of the first and second moment estimates
BETA1, BETA2 = 0.9, 0.999
#: added to the root of the second moment so a step never divides by 0
EPS = 1e-8


class Adam:
    """Adam over a fixed parameter list at learning rate ``lr``."""

    def __init__(self, parameters, lr: float = 0.01):
        self.parameters: list[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        self.lr = lr
        self._step = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        self._step += 1
        bias1 = 1.0 - BETA1**self._step
        bias2 = 1.0 - BETA2**self._step
        for param, m, v in zip(self.parameters, self._m, self._v):
            if param.grad is None:
                continue
            grad = param.grad
            m *= BETA1
            m += (1.0 - BETA1) * grad
            v *= BETA2
            v += (1.0 - BETA2) * grad**2
            m_hat = m / bias1
            v_hat = v / bias2
            param.data = param.data - self.lr * m_hat / (np.sqrt(v_hat) + EPS)

    # -- persistence ---------------------------------------------------
    # ``state_dict()`` is {"type", "hyper": {"lr", "step"}, "slots":
    # {"m", "v"}}, each slot a list of arrays aligned with
    # ``self.parameters``: the layout :mod:`repro.training.checkpoint` keeps.

    def state_dict(self) -> dict:
        return {
            "type": "Adam",
            "hyper": {"lr": self.lr, "step": self._step},
            "slots": {
                "m": [m.copy() for m in self._m],
                "v": [v.copy() for v in self._v],
            },
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict`, ignoring other ``hyper`` keys."""
        self._check_state(state)
        self.lr = float(state["hyper"]["lr"])
        self._step = int(state["hyper"]["step"])
        self._m = [m.copy() for m in state["slots"]["m"]]
        self._v = [v.copy() for v in state["slots"]["v"]]

    def _check_state(self, state: dict) -> None:
        """Reject a loaded state for another optimizer or other parameters."""
        if state.get("type") != "Adam":
            raise ValueError(
                f"optimizer state is for {state.get('type')!r}, "
                "cannot load into Adam"
            )
        for name, arrays in state.get("slots", {}).items():
            if len(arrays) != len(self.parameters):
                raise ValueError(
                    f"slot {name!r} holds {len(arrays)} arrays for "
                    f"{len(self.parameters)} parameters"
                )
            for array, param in zip(arrays, self.parameters):
                if array.shape != param.data.shape:
                    raise ValueError(
                        f"slot {name!r} shape {array.shape} does not match "
                        f"parameter shape {param.data.shape}"
                    )
