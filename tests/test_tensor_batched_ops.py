"""Gradient and semantics checks for ``masked_softmax``.

The padded dense-batch execution path's softmax is pinned against
central finite differences via :func:`repro.tensor.check_gradients`,
and its masking semantics (exact zeros at padding) are verified
directly.
"""

import numpy as np

from repro.tensor import Tensor, check_gradients, masked_softmax, softmax


def _rand(rng, *shape):
    return Tensor(rng.normal(size=shape), requires_grad=True)


def _mask(rng, *shape):
    m = (rng.random(shape) < 0.7).astype(np.float64)
    # Guarantee at least one valid entry along the last axis per slice.
    flat = m.reshape(-1, shape[-1])
    for row in flat:
        if row.sum() == 0:
            row[0] = 1.0
    return m.reshape(shape)


class TestMaskedSoftmax:
    def test_equals_plain_softmax_when_all_valid(self, rng):
        x = _rand(rng, 3, 4, 5)
        out = masked_softmax(x, np.ones((3, 4, 5)), axis=-1)
        np.testing.assert_array_equal(out.data, softmax(x, axis=-1).data)

    def test_masked_positions_are_exactly_zero(self, rng):
        x = _rand(rng, 3, 4, 5)
        mask = _mask(rng, 3, 4, 5)
        out = masked_softmax(x, mask, axis=-1).data
        assert np.all(out[mask == 0] == 0.0)
        np.testing.assert_allclose(out.sum(axis=-1), np.ones((3, 4)))

    def test_fully_masked_rows_are_zero_not_nan(self, rng):
        x = _rand(rng, 2, 3)
        mask = np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
        out = masked_softmax(x, mask[:, :], axis=-1).data
        assert np.all(np.isfinite(out))
        np.testing.assert_array_equal(out[1], np.zeros(3))

    def test_broadcast_row_mask(self, rng):
        # A (B, N, 1) mask broadcast over the last axis masks whole rows,
        # the MOA padding-row pattern.
        x = _rand(rng, 2, 3, 4)
        mask = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 0.0]])[:, :, None]
        out = masked_softmax(x, mask, axis=-1).data
        np.testing.assert_array_equal(out[0, 2], np.zeros(4))
        np.testing.assert_array_equal(out[1, 1:], np.zeros((2, 4)))
        np.testing.assert_allclose(out[0, 0].sum(), 1.0)

    def test_gradcheck(self, rng):
        x = _rand(rng, 2, 3, 4)
        mask = _mask(rng, 2, 3, 4)
        weights = rng.normal(size=(2, 3, 4))
        check_gradients(
            lambda: (masked_softmax(x, mask, axis=-1) * Tensor(weights)).sum(),
            [x],
        )

    def test_gradcheck_interior_axis(self, rng):
        x = _rand(rng, 2, 4, 3)
        mask = _mask(rng, 2, 4, 1)
        weights = rng.normal(size=(2, 4, 3))
        check_gradients(
            lambda: (masked_softmax(x, mask, axis=1) * Tensor(weights)).sum(),
            [x],
        )
