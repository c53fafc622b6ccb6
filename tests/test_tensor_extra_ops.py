"""Gradient checks for the convenience ops (clip, norm)."""

import numpy as np
import pytest

from repro.tensor import Tensor, check_gradients, clip, norm


class TestClip:
    def test_values(self):
        out = clip(Tensor([-5.0, 0.5, 5.0]), -1.0, 1.0)
        np.testing.assert_array_equal(out.data, [-1.0, 0.5, 1.0])

    def test_gradient_masked_outside(self):
        a = Tensor([-5.0, 0.5, 5.0], requires_grad=True)
        clip(a, -1.0, 1.0).sum().backward()
        np.testing.assert_array_equal(a.grad, [0.0, 1.0, 0.0])

    def test_gradcheck_interior(self, rng):
        a = Tensor(rng.uniform(-0.4, 0.4, size=(5,)), requires_grad=True)
        check_gradients(lambda: clip(a, -1.0, 1.0).sum() * 3.0, [a])


class TestNorm:
    def test_value_matches_numpy(self, rng):
        data = rng.normal(size=(3, 4))
        assert float(norm(Tensor(data)).data) == pytest.approx(
            np.linalg.norm(data), rel=1e-9
        )

    def test_gradcheck(self, rng):
        a = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        check_gradients(lambda: norm(a), [a])

    def test_zero_input_finite_gradient(self):
        a = Tensor(np.zeros(3), requires_grad=True)
        norm(a).backward()
        assert np.all(np.isfinite(a.grad))

