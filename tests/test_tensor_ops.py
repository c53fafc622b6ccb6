"""Gradient checks and semantics for every differentiable op."""

import numpy as np
import pytest

from repro.tensor import (
    Tensor,
    check_gradients,
    concat,
    exp,
    leaky_relu,
    log,
    log_softmax,
    max_along,
    maximum,
    mean,
    power,
    relu,
    sigmoid,
    softmax,
    sqrt,
    stack,
    sum_along,
    tanh,
    where,
)


def _param(rng, shape, positive=False):
    data = rng.normal(size=shape)
    if positive:
        data = np.abs(data) + 0.5
    return Tensor(data, requires_grad=True)


class TestArithmetic:
    def test_add_broadcast_gradients(self, rng):
        a = _param(rng, (3, 4))
        b = _param(rng, (4,))
        check_gradients(lambda: (a + b).sum(), [a, b])

    def test_sub_and_rsub(self, rng):
        a = _param(rng, (2, 3))
        check_gradients(lambda: (1.0 - a).sum() + (a - 2.0).mean(), [a])

    def test_mul_broadcast(self, rng):
        a = _param(rng, (3, 1))
        b = _param(rng, (1, 4))
        check_gradients(lambda: (a * b).sum(), [a, b])

    def test_div(self, rng):
        a = _param(rng, (3, 3))
        b = _param(rng, (3, 3), positive=True)
        check_gradients(lambda: (a / b).sum(), [a, b])

    def test_neg_and_scalar_ops(self, rng):
        a = _param(rng, (5,))
        check_gradients(lambda: (-a * 3.0 + 2.0).sum(), [a])

    def test_power(self, rng):
        a = _param(rng, (4,), positive=True)
        check_gradients(lambda: (a**3.0).sum(), [a])
        check_gradients(lambda: power(a, -0.5).sum(), [a])

    def test_sqrt(self, rng):
        a = _param(rng, (4,), positive=True)
        check_gradients(lambda: sqrt(a).sum(), [a])

    def test_exp_log(self, rng):
        a = _param(rng, (3, 2), positive=True)
        check_gradients(lambda: log(a).sum() + exp(a * 0.1).sum(), [a])

    def test_maximum_ties_prefer_first(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([1.0, 1.0], requires_grad=True)
        out = maximum(a, b)
        out.sum().backward()
        np.testing.assert_array_equal(a.grad, [1.0, 1.0])
        np.testing.assert_array_equal(b.grad, [0.0, 0.0])

    def test_where_routes_gradient(self, rng):
        a = _param(rng, (4,))
        b = _param(rng, (4,))
        cond = np.array([True, False, True, False])
        out = where(cond, a, b)
        out.sum().backward()
        np.testing.assert_array_equal(a.grad, cond.astype(float))
        np.testing.assert_array_equal(b.grad, (~cond).astype(float))


class TestActivations:
    def test_relu_gradcheck(self, rng):
        a = Tensor(rng.normal(size=(4, 4)) + 0.05, requires_grad=True)
        check_gradients(lambda: relu(a).sum(), [a])

    def test_leaky_relu_negative_slope(self):
        a = Tensor([-2.0, 3.0], requires_grad=True)
        out = leaky_relu(a, 0.1)
        np.testing.assert_allclose(out.data, [-0.2, 3.0])
        out.sum().backward()
        np.testing.assert_allclose(a.grad, [0.1, 1.0])

    @pytest.mark.parametrize("slope", [0.01, 0.2, 1.0, 0.0])
    def test_leaky_relu_matches_the_where_formula_bitwise(self, rng, slope):
        """The kernel keeps one slope factor for its output and its
        backward; both equal the ``np.where`` formulation bit for bit,
        signed zeros, infinities and NaN included."""
        data = np.concatenate([
            rng.normal(size=200) * 10.0 ** rng.integers(-8, 8, size=200),
            [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-320, -1e-320],
        ])
        grad = rng.normal(size=data.shape)
        a = Tensor(data.copy(), requires_grad=True)
        with np.errstate(invalid="ignore"):  # 0.0 * inf is NaN on both sides
            out = leaky_relu(a, slope)
            out.backward(grad)
            positive = data > 0
            expected = np.where(positive, data, slope * data)
            expected_grad = grad * np.where(positive, 1.0, slope)
        assert out.data.tobytes() == expected.tobytes()
        assert a.grad.tobytes() == expected_grad.tobytes()

    @pytest.mark.parametrize("slope", [1.5, -0.1, float("nan")])
    def test_leaky_relu_rejects_a_slope_outside_the_unit_interval(self, slope):
        with pytest.raises(ValueError, match="negative_slope"):
            leaky_relu(Tensor([1.0, -1.0]), slope)

    def test_sigmoid_range_and_grad(self, rng):
        a = _param(rng, (6,))
        out = sigmoid(a)
        assert np.all(out.data > 0) and np.all(out.data < 1)
        check_gradients(lambda: sigmoid(a).sum(), [a])

    def test_sigmoid_extreme_values_stable(self):
        a = Tensor([1000.0, -1000.0])
        out = sigmoid(a)
        np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-12)

    def test_tanh_gradcheck(self, rng):
        a = _param(rng, (5,))
        check_gradients(lambda: tanh(a).sum(), [a])

    def test_softmax_rows_sum_to_one(self, rng):
        a = _param(rng, (3, 6))
        out = softmax(a, axis=1)
        np.testing.assert_allclose(out.data.sum(axis=1), np.ones(3))

    def test_softmax_gradcheck(self, rng):
        a = _param(rng, (3, 4))
        w = _param(rng, (4,))
        check_gradients(lambda: (softmax(a, axis=1) @ w).sum(), [a, w])

    def test_softmax_shift_invariance(self, rng):
        a = rng.normal(size=(2, 5))
        np.testing.assert_allclose(
            softmax(Tensor(a)).data, softmax(Tensor(a + 100.0)).data
        )

    def test_log_softmax_matches_log_of_softmax(self, rng):
        a = _param(rng, (2, 5))
        np.testing.assert_allclose(
            log_softmax(a).data, np.log(softmax(a).data), atol=1e-12
        )
        check_gradients(lambda: log_softmax(a).sum(), [a])


class TestMatmul:
    def test_2d_2d(self, rng):
        a = _param(rng, (3, 4))
        b = _param(rng, (4, 2))
        check_gradients(lambda: (a @ b).sum(), [a, b])

    def test_2d_1d(self, rng):
        a = _param(rng, (3, 4))
        b = _param(rng, (4,))
        check_gradients(lambda: (a @ b).sum(), [a, b])

    def test_1d_2d(self, rng):
        a = _param(rng, (3,))
        b = _param(rng, (3, 4))
        check_gradients(lambda: (a @ b).sum(), [a, b])

    def test_1d_1d(self, rng):
        a = _param(rng, (4,))
        b = _param(rng, (4,))
        check_gradients(lambda: a @ b, [a, b])

    def test_3d_1d(self, rng):
        a = _param(rng, (5, 3, 4))
        b = _param(rng, (4,))
        check_gradients(lambda: (a @ b).sum(), [a, b])

    def test_batched_3d_3d(self, rng):
        a = _param(rng, (2, 3, 4))
        b = _param(rng, (2, 4, 5))
        check_gradients(lambda: (a @ b).sum(), [a, b])

    def test_values_match_numpy(self, rng):
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 5))
        np.testing.assert_allclose((Tensor(a) @ Tensor(b)).data, a @ b)


class TestShapeOps:
    def test_transpose(self, rng):
        a = _param(rng, (3, 5))
        w = _param(rng, (3, 5))
        check_gradients(lambda: (a.T * w.T).sum(), [a, w])

    def test_transpose_axes(self, rng):
        a = _param(rng, (2, 3, 4))
        out = a.transpose((2, 0, 1))
        assert out.shape == (4, 2, 3)
        check_gradients(lambda: a.transpose((2, 0, 1)).sum() * 2.0 + a.sum(), [a])

    def test_reshape_roundtrip(self, rng):
        a = _param(rng, (2, 6))
        check_gradients(lambda: a.reshape(3, 4).sum() + a.reshape(12).mean(), [a])

    def test_getitem_row(self, rng):
        a = _param(rng, (4, 3))
        check_gradients(lambda: a[1].sum() + a[2:4].mean(), [a])

    def test_concat_axis0_and_1(self, rng):
        a = _param(rng, (2, 3))
        b = _param(rng, (4, 3))
        check_gradients(lambda: concat([a, b], axis=0).sum(), [a, b])
        c = _param(rng, (2, 5))
        check_gradients(lambda: concat([a, c], axis=1).sum(), [a, c])

    def test_stack(self, rng):
        a = _param(rng, (3,))
        b = _param(rng, (3,))
        out = stack([a, b], axis=0)
        assert out.shape == (2, 3)
        check_gradients(lambda: stack([a, b]).sum(), [a, b])


class TestReductions:
    def test_sum_axes(self, rng):
        a = _param(rng, (3, 4))
        check_gradients(lambda: sum_along(a, axis=0).sum() + a.sum(axis=1).mean(), [a])

    def test_sum_keepdims_shape(self, rng):
        a = Tensor(rng.normal(size=(3, 4)))
        assert sum_along(a, axis=1, keepdims=True).shape == (3, 1)

    def test_mean_matches_numpy(self, rng):
        data = rng.normal(size=(4, 6))
        np.testing.assert_allclose(mean(Tensor(data), axis=0).data, data.mean(axis=0))

    def test_mean_gradient_scaling(self, rng):
        a = _param(rng, (2, 8))
        check_gradients(lambda: a.mean() * 3.0 + a.mean(axis=1).sum(), [a])

    def test_max_along_gradcheck_unique_max(self, rng):
        data = rng.normal(size=(3, 5))
        a = Tensor(data, requires_grad=True)
        check_gradients(lambda: max_along(a, axis=1).sum(), [a])

    def test_max_ties_split_gradient(self):
        a = Tensor([[2.0, 2.0, 1.0]], requires_grad=True)
        max_along(a, axis=1).sum().backward()
        np.testing.assert_allclose(a.grad, [[0.5, 0.5, 0.0]])
