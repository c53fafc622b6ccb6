"""Module system, layers, optimisers and losses."""

import numpy as np
import pytest

from repro.nn import (
    Adam,
    Bilinear,
    Linear,
    LSTMCell,
    MLP,
    Module,
    Parameter,
    SGD,
    binary_cross_entropy,
    cross_entropy,
    mse_loss,
    pairwise_matching_loss,
    triplet_mse_loss,
)
from repro.tensor import Tensor, check_gradients, log_softmax


class TestModule:
    def test_parameter_registration(self, rng):
        lin = Linear(3, 2, rng)
        names = dict(lin.named_parameters())
        assert set(names) == {"weight", "bias"}

    def test_nested_modules(self, rng):
        mlp = MLP([3, 4, 2], rng)
        assert len(list(mlp.parameters())) == 4
        assert sum(1 for _ in mlp.modules()) == 3

    def test_num_parameters(self, rng):
        lin = Linear(3, 2, rng)
        assert lin.num_parameters() == 3 * 2 + 2

    def test_train_eval_recursive(self, rng):
        mlp = MLP([2, 2], rng)
        mlp.eval()
        assert not mlp.linears[0].training
        mlp.train()
        assert mlp.linears[0].training

    def test_state_dict_roundtrip(self, rng):
        lin = Linear(3, 2, rng)
        state = lin.state_dict()
        lin.weight.data += 1.0
        lin.load_state_dict(state)
        np.testing.assert_allclose(lin.weight.data, state["weight"])

    def test_state_dict_mismatch_raises(self, rng):
        lin = Linear(3, 2, rng)
        with pytest.raises(KeyError):
            lin.load_state_dict({"weight": np.zeros((3, 2))})
        bad = lin.state_dict()
        bad["weight"] = np.zeros((1, 1))
        with pytest.raises(ValueError):
            lin.load_state_dict(bad)

    def test_zero_grad_clears_all(self, rng):
        lin = Linear(2, 2, rng)
        out = lin(Tensor(np.ones((1, 2))))
        out.sum().backward()
        assert lin.weight.grad is not None
        lin.zero_grad()
        assert lin.weight.grad is None

    def test_forward_not_implemented(self):
        with pytest.raises(NotImplementedError):
            Module()(1)


class TestLayers:
    def test_linear_shapes_and_grad(self, rng):
        lin = Linear(4, 3, rng)
        x = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        out = lin(x)
        assert out.shape == (5, 3)
        check_gradients(lambda: lin(x).sum(), [x, lin.weight, lin.bias])

    def test_linear_no_bias(self, rng):
        lin = Linear(4, 3, rng, bias=False)
        assert lin.bias is None
        assert len(list(lin.parameters())) == 1

    def test_mlp_depth_and_activation(self, rng):
        mlp = MLP([4, 8, 8, 2], rng)
        out = mlp(Tensor(rng.normal(size=(3, 4))))
        assert out.shape == (3, 2)
        with pytest.raises(ValueError):
            MLP([4], rng)

    def test_lstm_cell_step(self, rng):
        cell = LSTMCell(4, 6, rng)
        h, c = cell.initial_state()
        assert h.shape == (6,)
        h2, c2 = cell(Tensor(rng.normal(size=4)), (h, c))
        assert h2.shape == (6,) and c2.shape == (6,)
        # Gradients flow through two steps.
        x = Tensor(rng.normal(size=4), requires_grad=True)
        def roll():
            s = cell.initial_state()
            s = cell(x, s)
            s = cell(x, s)
            return s[0].sum()
        check_gradients(roll, [x])

    def test_bilinear_output_and_grad(self, rng):
        bl = Bilinear(3, 5, rng)
        a = Tensor(rng.normal(size=3), requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)
        assert bl(a, b).shape == (5,)
        check_gradients(lambda: bl(a, b).sum(), [a, b, bl.tensor_weight])


class TestSparseOps:
    """Finite-difference gradchecks for the CSR primitives
    (docs/sparse.md): segment_sum, scatter_gather and spmm, including
    non-square matrices and empty rows/segments."""

    def test_segment_sum_gradcheck(self, rng):
        from repro.tensor import segment_sum

        values = Tensor(rng.normal(size=(7, 3)), requires_grad=True)
        # Segment 1 is empty: its output row must stay zero and no
        # gradient may leak into it.
        seg = np.array([0, 0, 2, 2, 2, 3, 4])
        out = segment_sum(values, seg, 5)
        assert out.shape == (5, 3)
        np.testing.assert_array_equal(out.data[1], np.zeros(3))
        check_gradients(lambda: (segment_sum(values, seg, 5) ** 2).sum(), [values])

    def test_scatter_gather_gradcheck_with_duplicates(self, rng):
        from repro.tensor import scatter_gather

        a = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        idx = np.array([0, 3, 3, 1, 0, 0])  # duplicates accumulate grads
        out = scatter_gather(a, idx)
        assert out.shape == (6, 2)
        check_gradients(lambda: (scatter_gather(a, idx) ** 2).sum(), [a])

    def test_spmm_gradcheck_nonsquare(self, rng):
        from repro.tensor import CSRMatrix, spmm

        dense = rng.normal(size=(3, 5)) * (rng.random((3, 5)) < 0.5)
        csr = CSRMatrix.from_dense(dense)
        x = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        out = spmm(csr, x)
        assert out.shape == (3, 4)
        np.testing.assert_allclose(out.data, dense @ x.data, atol=1e-12)
        check_gradients(lambda: (spmm(csr, x) ** 2).sum(), [x])

    def test_spmm_gradcheck_empty_rows_and_values(self, rng):
        from repro.tensor import CSRMatrix, spmm

        # Row 1 stores no entries; grads must still be exact.
        dense = np.array([[0.0, 2.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 3.0]])
        csr = CSRMatrix.from_dense(dense)
        x = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        values = Tensor(rng.normal(size=csr.nnz), requires_grad=True)
        check_gradients(lambda: (spmm(csr, x) ** 2).sum(), [x])
        # Differentiable per-edge values (the sparse GAT path).
        check_gradients(
            lambda: (spmm(csr, x, values=values) ** 2).sum(), [x, values]
        )

    def test_segment_softmax_matches_dense_rows(self, rng):
        from repro.tensor import segment_softmax, softmax

        logits = Tensor(rng.normal(size=6), requires_grad=True)
        seg = np.array([0, 0, 0, 1, 1, 2])
        out = segment_softmax(logits, seg, 3).data
        for s, (lo, hi) in enumerate([(0, 3), (3, 5), (5, 6)]):
            ref = softmax(Tensor(logits.data[lo:hi]), axis=0).data
            np.testing.assert_allclose(out[lo:hi], ref, atol=1e-12)
        w = rng.normal(size=6)
        check_gradients(
            lambda: (segment_softmax(logits, seg, 3) * Tensor(w)).sum(), [logits]
        )


class TestOptimizers:
    def test_sgd_minimises_quadratic(self):
        w = Parameter(np.array(5.0))
        opt = SGD([w], lr=0.1)
        for _ in range(100):
            opt.zero_grad()
            (w * w).backward()
            opt.step()
        assert abs(float(w.data)) < 1e-3

    def test_sgd_momentum_faster_than_plain(self):
        def run(momentum):
            w = Parameter(np.array(5.0))
            opt = SGD([w], lr=0.02, momentum=momentum)
            for _ in range(50):
                opt.zero_grad()
                (w * w).backward()
                opt.step()
            return abs(float(w.data))

        assert run(0.9) < run(0.0)

    def test_adam_minimises_rosenbrock_ish(self):
        w = Parameter(np.array([2.0, -2.0]))
        opt = Adam([w], lr=0.05)
        for _ in range(500):
            opt.zero_grad()
            loss = ((w - Tensor([1.0, 3.0])) ** 2.0).sum()
            loss.backward()
            opt.step()
        np.testing.assert_allclose(w.data, [1.0, 3.0], atol=1e-2)

    def test_adam_weight_decay_shrinks(self):
        w = Parameter(np.array(1.0))
        opt = Adam([w], lr=0.01, weight_decay=1.0)
        for _ in range(50):
            opt.zero_grad()
            (w * 0.0).sum().backward()
            opt.step()
        assert abs(float(w.data)) < 1.0

    def test_empty_parameters_rejected(self):
        with pytest.raises(ValueError):
            SGD([])

    def test_step_skips_gradless_params(self):
        w = Parameter(np.array(1.0))
        opt = Adam([w], lr=0.1)
        opt.step()  # no grad: should be a no-op, not crash
        np.testing.assert_allclose(w.data, 1.0)


class TestOptimizerStateDict:
    def _trained_adam(self):
        w = Parameter(np.array([2.0, -1.0]))
        opt = Adam([w], lr=0.05, betas=(0.8, 0.95), eps=1e-9, weight_decay=0.1)
        for _ in range(3):
            opt.zero_grad()
            (w * w).sum().backward()
            opt.step()
        return w, opt

    def test_adam_roundtrip_continues_identically(self):
        w, opt = self._trained_adam()
        state = opt.state_dict()

        w2 = Parameter(w.data.copy())
        opt2 = Adam([w2], lr=0.9)  # different hyper-params, all overwritten
        opt2.load_state_dict(state)
        assert (opt2.lr, opt2.beta1, opt2.beta2) == (0.05, 0.8, 0.95)
        assert (opt2.eps, opt2.weight_decay, opt2._step) == (1e-9, 0.1, 3)

        for optimizer, param in ((opt, w), (opt2, w2)):
            optimizer.zero_grad()
            (param * param).sum().backward()
            optimizer.step()
        assert w.data.tobytes() == w2.data.tobytes()

    def test_state_dict_snapshots_are_copies(self):
        w, opt = self._trained_adam()
        state = opt.state_dict()
        moment_before = state["slots"]["m"][0].copy()
        opt.zero_grad()
        (w * w).sum().backward()
        opt.step()
        np.testing.assert_array_equal(state["slots"]["m"][0], moment_before)

    def test_sgd_roundtrip_preserves_velocity(self):
        w = Parameter(np.array(5.0))
        opt = SGD([w], lr=0.02, momentum=0.9)
        for _ in range(4):
            opt.zero_grad()
            (w * w).backward()
            opt.step()
        w2 = Parameter(w.data.copy())
        opt2 = SGD([w2], lr=0.5)
        opt2.load_state_dict(opt.state_dict())
        assert opt2.momentum == 0.9 and opt2.lr == 0.02
        assert opt2._velocity[0].tobytes() == opt._velocity[0].tobytes()

    def test_cross_optimizer_state_rejected(self):
        w, opt = self._trained_adam()
        sgd = SGD([Parameter(w.data.copy())], lr=0.1)
        with pytest.raises(ValueError, match="cannot load into SGD"):
            sgd.load_state_dict(opt.state_dict())

    def test_mismatched_slot_shapes_rejected(self):
        w, opt = self._trained_adam()
        state = opt.state_dict()
        state["slots"]["m"][0] = np.zeros(7)
        opt2 = Adam([Parameter(w.data.copy())])
        with pytest.raises(ValueError, match="does not match"):
            opt2.load_state_dict(state)

    def test_mismatched_slot_count_rejected(self):
        w, opt = self._trained_adam()
        state = opt.state_dict()
        state["slots"]["v"] = []
        opt2 = Adam([Parameter(w.data.copy())])
        with pytest.raises(ValueError, match="holds 0 arrays"):
            opt2.load_state_dict(state)


class TestLosses:
    def test_cross_entropy_matches_manual(self, rng):
        logits = Tensor(rng.normal(size=5), requires_grad=True)
        loss = cross_entropy(logits, 2)
        manual = -log_softmax(logits)[2]
        np.testing.assert_allclose(loss.data, manual.data)
        check_gradients(lambda: cross_entropy(logits, 2), [logits])

    def test_mse_loss_zero_at_target(self):
        pred = Tensor(np.array([1.0, 2.0]))
        assert float(mse_loss(pred, np.array([1.0, 2.0])).data) == 0.0

    def test_binary_cross_entropy_direction(self):
        high = Tensor(0.9)
        low = Tensor(0.1)
        assert float(binary_cross_entropy(high, 1).data) < float(
            binary_cross_entropy(low, 1).data
        )
        assert float(binary_cross_entropy(low, 0).data) < float(
            binary_cross_entropy(high, 0).data
        )

    def test_pairwise_matching_loss_prefers_small_distance_for_match(self):
        near = [Tensor(0.1, requires_grad=True)]
        far = [Tensor(5.0, requires_grad=True)]
        assert float(pairwise_matching_loss(near, 1).data) < float(
            pairwise_matching_loss(far, 1).data
        )
        assert float(pairwise_matching_loss(far, 0).data) < float(
            pairwise_matching_loss(near, 0).data
        )

    def test_pairwise_matching_loss_averages_levels(self):
        d = Tensor(1.0)
        single = float(pairwise_matching_loss([d], 1).data)
        double = float(pairwise_matching_loss([d, d], 1).data)
        np.testing.assert_allclose(single, double)

    def test_pairwise_matching_loss_empty_raises(self):
        with pytest.raises(ValueError):
            pairwise_matching_loss([], 1)

    def test_triplet_mse_zero_when_exact(self):
        left = [Tensor(3.0)]
        right = [Tensor(1.0)]
        loss = triplet_mse_loss(left, right, relative_ged=2.0)
        np.testing.assert_allclose(float(loss.data), 0.0)

    def test_triplet_mse_mismatched_levels_raise(self):
        with pytest.raises(ValueError):
            triplet_mse_loss([Tensor(1.0)], [], 0.0)
