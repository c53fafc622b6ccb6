"""The ragged batch (docs/batching.md) against the per-graph loop.

A :class:`~repro.data.batching.GraphBatch` runs level 0 on the disjoint
union of its graphs: one block-diagonal CSR adjacency, ``(ΣN, F)``
features, ``(ΣE, Fe)`` bond features and per-graph slots for the
contractions.  For batches built to break that bookkeeping — single-node
graphs, edgeless graphs, isolated nodes, graphs with fewer nodes than
clusters, and a batch of one — we assert, for every conv with and
without bond features, in eval and in train mode from equal generator
states:

- ``batch_loss`` and every parameter gradient equal the per-graph
  loop's mean loss and gradients to 1e-6, and both leave the Gumbel
  generator in the same state;
- ``predict`` on a list equals per-graph ``predict`` to 1e-6.

It also pins the layout itself (block-diagonal structure, aligned bond
features, slot positions, the scatter op's gather backward), that HAP's
path never builds a dense ``(B, N_max, N_max)`` stack, that ``fit``
steps without a gradient buffer pool, and a quick seeded molecular fit:
every loss finite and a test RMSE below the train-mean predictor's.
"""

import numpy as np
import pytest

from repro.data import GraphBatch, Slots, batch_graphs
from repro.evaluation.harness import prepare_dataset
from repro.graph import Graph, random_connected
from repro.models.zoo import make_classifier
from repro.observe import Callback
from repro.tensor import CSRMatrix, Tensor, get_buffer_pool, to_slots
from repro.training import TrainConfig, fit
from repro.training.metrics import regression_rmse

pytestmark = pytest.mark.equivalence

TOL = 1e-6
FEATURES = 4
EDGE_FEATURES = 3
#: level-0 cluster count; the 2-node graph has fewer nodes than this
CLUSTERS = (3, 1)


def _edge_featured(graph: Graph, rng) -> Graph:
    attr = np.zeros((graph.num_nodes, graph.num_nodes, EDGE_FEATURES))
    rows, cols = np.nonzero(np.triu(graph.adjacency, 1))
    values = rng.random((rows.size, EDGE_FEATURES))
    attr[rows, cols] = values
    attr[cols, rows] = values
    return graph.with_edge_features(attr)


def _degenerate_graphs(rng, edge_features: bool, regression: bool) -> list[Graph]:
    """A single node, an edgeless graph, a connected graph plus an
    isolated node, a 2-node graph (N < K) and an ordinary graph."""
    with_isolated = random_connected(5, 0.5, rng).add_nodes(1)
    shapes = [
        Graph.empty(1),
        Graph.empty(3),
        with_isolated,
        Graph.from_edges(2, [(0, 1)]),
        random_connected(8, 0.4, rng),
    ]
    graphs = []
    for i, graph in enumerate(shapes):
        graph = graph.with_features(rng.normal(size=(graph.num_nodes, FEATURES)))
        if edge_features:
            graph = _edge_featured(graph, rng)
        label = float(rng.normal()) if regression else i % 2
        graphs.append(graph.with_target(label) if regression else graph.with_label(label))
    return graphs


def _model(conv: str, edge_features: bool, regression: bool):
    return make_classifier(
        "HAP", FEATURES, 0 if regression else 2, np.random.default_rng(5),
        hidden=6, cluster_sizes=CLUSTERS, conv=conv,
        task="regression" if regression else "classification",
        edge_features=EDGE_FEATURES if edge_features else 0,
    )


def _noise_states(model) -> list:
    return [c.rng.bit_generator.state for c in model.embedder.coarsenings]


def _assert_batch_matches_loop(loop_model, batch_model, graphs):
    total = None
    for graph in graphs:
        loss = loop_model.loss(graph)
        total = loss if total is None else total + loss
    total = total * (1.0 / len(graphs))
    total.backward()
    batched = batch_model.batch_loss(graphs)
    batched.backward()
    assert np.isfinite(batched.data)
    assert abs(float(total.data) - float(batched.data)) < TOL
    for (name, p_loop), (_, p_batch) in zip(
        loop_model.named_parameters(), batch_model.named_parameters()
    ):
        assert (p_loop.grad is None) == (p_batch.grad is None), name
        if p_loop.grad is not None:
            dev = np.abs(p_loop.grad - p_batch.grad).max()
            assert dev < TOL, (name, dev)
    assert _noise_states(loop_model) == _noise_states(batch_model)


CASES = [
    pytest.param(conv, edges, regression, id=f"{conv}-{'bonds' if edges else 'plain'}-{task}")
    for conv in ("gcn", "gat", "gin", "sage")
    for edges in (False, True)
    for regression, task in ((False, "classification"), (True, "regression"))
    if not (conv == "gcn" and edges)
]


class TestDegenerateBatchesMatchTheLoop:
    @pytest.mark.parametrize("training", [False, True], ids=["eval", "train"])
    @pytest.mark.parametrize("conv, edges, regression", CASES)
    def test_loss_and_gradients(self, conv, edges, regression, training):
        graphs = _degenerate_graphs(np.random.default_rng(1), edges, regression)
        loop_model = _model(conv, edges, regression)
        batch_model = _model(conv, edges, regression)
        loop_model.train(training)
        batch_model.train(training)
        _assert_batch_matches_loop(loop_model, batch_model, graphs)

    @pytest.mark.parametrize("training", [False, True], ids=["eval", "train"])
    @pytest.mark.parametrize("conv, edges, regression", CASES)
    def test_a_batch_of_one(self, conv, edges, regression, training):
        graphs = _degenerate_graphs(np.random.default_rng(2), edges, regression)
        for graph in graphs:
            loop_model = _model(conv, edges, regression)
            batch_model = _model(conv, edges, regression)
            loop_model.train(training)
            batch_model.train(training)
            _assert_batch_matches_loop(loop_model, batch_model, [graph])

    @pytest.mark.parametrize("conv, edges, regression", CASES)
    def test_predict(self, conv, edges, regression):
        graphs = _degenerate_graphs(np.random.default_rng(3), edges, regression)
        model = _model(conv, edges, regression)
        model.eval()
        batched = np.asarray(model.predict(graphs), dtype=np.float64)
        loop = np.array([model.predict(g) for g in graphs], dtype=np.float64)
        assert np.abs(batched - loop).max() < TOL


class TestLayout:
    def _graphs(self):
        return _degenerate_graphs(np.random.default_rng(4), True, False)

    def test_the_adjacency_is_block_diagonal(self):
        graphs = self._graphs()
        batch = batch_graphs(graphs)
        dense = batch.adjacency.to_dense()
        offsets = batch.slots.offsets
        expected = np.zeros_like(dense)
        for b, g in enumerate(graphs):
            lo, hi = offsets[b], offsets[b + 1]
            expected[lo:hi, lo:hi] = g.adjacency
        assert np.array_equal(dense, expected)
        assert np.array_equal(
            batch.features, np.concatenate([g.features for g in graphs])
        )
        np.testing.assert_array_equal(batch.slots.counts, [g.num_nodes for g in graphs])
        np.testing.assert_array_equal(batch.labels, [0, 1, 0, 1, 0])

    def test_edge_features_align_with_the_stored_entries(self):
        graphs = self._graphs()
        batch = batch_graphs(graphs)
        csr, slots = batch.adjacency, batch.slots
        assert batch.edge_features.shape == (csr.nnz, EDGE_FEATURES)
        graph = slots.graph[csr.row_ids]
        local_row = csr.row_ids - slots.offsets[graph]
        local_col = csr.indices - slots.offsets[graph]
        for k in range(csr.nnz):
            g = graphs[graph[k]]
            assert np.array_equal(
                batch.edge_features[k], g.edge_features[local_row[k], local_col[k]]
            )

    def test_block_diagonal_of_one_block_is_the_block(self):
        graph = self._graphs()[2]
        csr = CSRMatrix.block_diagonal([graph.to_csr()])
        assert np.array_equal(csr.to_dense(), graph.adjacency)

    def test_slots_scatter_and_gather_back(self):
        slots = Slots([0, 1, 4, 6])
        assert slots.shape == (3, 3)
        np.testing.assert_array_equal(slots.index, [0, 3, 4, 5, 6, 7])
        np.testing.assert_array_equal(
            slots.mask, [[1, 0, 0], [1, 1, 1], [1, 1, 0]]
        )
        rows = Tensor(np.arange(12.0).reshape(6, 2), requires_grad=True)
        scattered = slots.scatter(rows)
        assert scattered.shape == (3, 3, 2)
        np.testing.assert_array_equal(scattered.data[0, 1:], np.zeros((2, 2)))
        np.testing.assert_array_equal(scattered.data[2, :2], rows.data[4:])
        grad = np.random.default_rng(0).normal(size=(3, 3, 2))
        scattered.backward(grad)
        np.testing.assert_array_equal(rows.grad, grad.reshape(9, 2)[slots.index])
        expanded = slots.expand(Tensor(np.array([1.0, 2.0, 3.0])))
        np.testing.assert_array_equal(expanded.data, [1, 2, 2, 2, 3, 3])

    def test_to_slots_gradcheck(self):
        from repro.tensor import check_gradients

        x = Tensor(np.random.default_rng(1).normal(size=(5, 2)), requires_grad=True)
        check_gradients(
            lambda: (to_slots(x, [0, 1, 4, 6, 7], (2, 4)) ** 2.0).sum(), [x]
        )

    def test_dense_view_matches_the_graphs(self):
        graphs = self._graphs()
        batch = batch_graphs(graphs)
        stack = batch.slots.dense(batch.adjacency)
        n_max = max(g.num_nodes for g in graphs)
        assert stack.shape == (len(graphs), n_max, n_max)
        for b, g in enumerate(graphs):
            n = g.num_nodes
            assert np.array_equal(stack[b, :n, :n], g.adjacency)
            assert not stack[b, n:].any() and not stack[b, :, n:].any()

    def test_hap_builds_no_dense_stack(self, monkeypatch):
        """HAP's level 0 runs on the rows and the block-diagonal CSR;
        only baselines that read the adjacency densely get a stack."""

        def refuse(self, adjacency):
            raise AssertionError("HAP's path built a dense adjacency stack")

        monkeypatch.setattr(Slots, "dense", refuse)
        graphs = self._graphs()
        model = _model("gat", True, False)
        model.batch_loss(graphs).backward()

    def test_a_graph_batch_is_accepted_as_is(self):
        graphs = self._graphs()
        model = _model("gin", True, False)
        model.eval()
        batch = batch_graphs(graphs)
        assert isinstance(batch, GraphBatch) and batch.batch_size == len(graphs)
        np.testing.assert_array_equal(model(batch).data, model(graphs).data)

    def test_rejects_what_cannot_share_a_batch(self, rng):
        plain = random_connected(4, 0.5, rng).with_features(np.ones((4, 2)))
        wide = random_connected(4, 0.5, rng).with_features(np.ones((4, 3)))
        with pytest.raises(ValueError, match="empty"):
            batch_graphs([])
        with pytest.raises(ValueError, match="feature dimensions"):
            batch_graphs([plain, wide])
        with pytest.raises(ValueError, match="mix edge-featured"):
            batch_graphs([plain, _edge_featured(plain, rng)])
        with pytest.raises(ValueError, match="no node features"):
            batch_graphs([random_connected(4, 0.5, rng)])

    def test_labels_only_when_all_present(self, rng):
        g = random_connected(3, 0.6, rng).with_features(np.ones((3, 2)))
        batch = batch_graphs([g.with_label(1), g.with_label(0)])
        np.testing.assert_array_equal(batch.labels, [1, 0])
        assert batch_graphs([g.with_label(1), g]).labels is None


class TestFitWithoutBufferPool:
    def test_fit_steps_with_no_active_pool(self):
        graphs = _degenerate_graphs(np.random.default_rng(6), False, False)
        model = _model("gcn", False, False)
        seen = []

        def batch_loss(m, chunk):
            seen.append(get_buffer_pool())
            return m.batch_loss(chunk)

        fit(model, graphs, np.random.default_rng(0),
            TrainConfig(epochs=2, batch_size=2), batch_loss_fn=batch_loss)
        assert len(seen) == 6 and all(pool is None for pool in seen)


class _StepLosses(Callback):
    def __init__(self):
        self.losses = []

    def on_batch_end(self, epoch, step, loss, batch_size):
        self.losses.append(loss)


class TestMolecularFit:
    """A quick batched molecular fit at several seeds: ESOL-like
    molecules go down to two atoms, below the six level-0 clusters.
    Every step's loss must stay finite (``fit`` raises on the first
    that is not) and the fitted model must beat the train-mean
    predictor on held-out molecules."""

    @pytest.mark.parametrize("seed", range(5))
    def test_losses_stay_finite_and_beat_the_mean(self, seed):
        rng = np.random.default_rng(seed)
        graphs, dim, _ = prepare_dataset("ESOL", 160, rng)
        order = rng.permutation(len(graphs))
        train = [graphs[i] for i in order[:128]]
        test = [graphs[i] for i in order[128:]]
        model = make_classifier(
            "HAP", dim, 0, rng, hidden=16, cluster_sizes=(6, 1), conv="gin",
            task="regression",
            edge_features=max(g.num_edge_features for g in graphs),
        )
        steps = _StepLosses()
        history = fit(model, train, rng, TrainConfig(epochs=3, lr=0.01),
                      callbacks=[steps])
        assert len(steps.losses) == 3 * 16
        assert np.all(np.isfinite(steps.losses)) and np.all(np.isfinite(history.losses))
        train_mean = np.mean([float(g.label) for g in train])
        targets = np.array([float(g.label) for g in test])
        baseline = float(np.sqrt(np.mean((targets - train_mean) ** 2)))
        assert regression_rmse(model, test) < baseline
