"""Every pooling operator against its reference (tests/pooling_reference.py).

Each coarsening runs Select -> the shared Reduce and Connect, and each
flat readout is a masked reduction over the node axis.  The references
compute the same operators one graph at a time, the way they were
written before the split.  For every operator:

- on a single graph, outputs, auxiliary losses and gradients
  (parameters, features and a differentiable adjacency) match the
  reference to <1e-6, and so they do on the graph's ``to_csr()``;
- on a batch of graphs of different sizes, each graph's rows match its
  single-graph reference, padding rows and columns are exactly zero,
  Top-K output masks keep each graph's own count, and the batch's
  auxiliary loss is the mean of the per-graph ones.  The batch runs
  twice: as a ``GraphBatch`` (block-diagonal CSR, ``(ΣN, F)`` rows and
  ``Slots``), the layout the models run, and as that batch's slots view
  (``(B, N_max, ·)`` stacks plus a mask), the layout a Top-K level hands
  to the next.

``HeteroGraphCoarsening`` is checked against its reference the same way.
"""

import numpy as np
import pytest

from repro.core import GraphCoarsening
from repro.data import batch_graphs
from repro.gnn import GNNEncoder
from repro.graph import random_connected
from repro.hetero import HeteroGraph, HeteroGraphCoarsening
from repro.pooling import (
    ASAP,
    AttPoolGlobal,
    AttPoolLocal,
    DiffPool,
    GCNConcat,
    GPool,
    GatedAttPool,
    MaxPool,
    MeanAttPool,
    MeanAttPoolCoarsening,
    MeanPool,
    MeanPoolCoarsening,
    MinCutPool,
    SAGPool,
    Set2Set,
    SortPooling,
    SpectralPool,
    StructPool,
    SumPool,
)
from repro.tensor import Tensor
from tests.conftest import ragged_inputs, slots_view
from tests.pooling_reference import (
    COARSENING_REFERENCES,
    READOUT_REFERENCES,
    hap_coarsening,
    hetero_coarsening,
)

pytestmark = pytest.mark.equivalence

TOL = 1e-6
F = 5
#: ragged node counts; 4 < SortPooling's k and 3 clusters fit every graph
SIZES = (12, 4, 9, 7)

COARSENINGS = {
    "GraphCoarsening": lambda rng: GraphCoarsening(F, 3, rng),
    "DiffPool": lambda rng: DiffPool(F, 3, rng),
    "MinCutPool": lambda rng: MinCutPool(F, 3, rng),
    "StructPool": lambda rng: StructPool(F, 3, rng),
    "SpectralPool": lambda rng: SpectralPool(F, 3, rng),
    "ASAP": lambda rng: ASAP(F, rng, ratio=0.5),
    "GPool": lambda rng: GPool(F, rng, ratio=0.5),
    "SAGPool": lambda rng: SAGPool(F, rng, ratio=0.5),
    "AttPoolGlobal": lambda rng: AttPoolGlobal(F, rng, ratio=0.5),
    "AttPoolLocal": lambda rng: AttPoolLocal(F, rng, ratio=0.5),
    "MeanPoolCoarsening": lambda rng: MeanPoolCoarsening(),
    "MeanAttPoolCoarsening": lambda rng: MeanAttPoolCoarsening(F, rng),
}

READOUTS = {
    "SumPool": lambda rng: SumPool(F),
    "MeanPool": lambda rng: MeanPool(F),
    "MaxPool": lambda rng: MaxPool(F),
    "GCNConcat": lambda rng: GCNConcat(GNNEncoder([F, 4, 3], rng)),
    "MeanAttPool": lambda rng: MeanAttPool(F, rng),
    "GatedAttPool": lambda rng: GatedAttPool(F, rng),
    "Set2Set": lambda rng: Set2Set(F, rng),
    "SortPooling": lambda rng: SortPooling(F, k=6),
}


@pytest.fixture
def graphs(rng):
    out = []
    for n in SIZES:
        g = random_connected(n, 0.4, rng)
        out.append(g.with_features(rng.normal(size=(n, F))))
    return out


def _padded(graphs):
    """The batch's slots view, whose padding feature rows hold large
    garbage, as an encoder's padding rows do: the operators must mask it
    out."""
    adjacency, features, mask = slots_view(graphs)
    garbage = 100.0 * np.random.default_rng(9).normal(size=features.shape)
    features = features + garbage * (1.0 - mask)[..., None]
    return adjacency, Tensor(features), mask


def _leaves(graph):
    return (
        Tensor(graph.adjacency.copy(), requires_grad=True),
        Tensor(graph.features.copy(), requires_grad=True),
    )


def _objective(outputs, seed=7):
    """A scalar that weighs every output entry differently."""
    rng = np.random.default_rng(seed)
    total = None
    for out in outputs:
        if out is None:
            continue
        term = (out * Tensor(rng.normal(size=out.shape))).sum()
        total = term if total is None else total + term
    return total


def _gradients(op, adj, h):
    grads = {name: p.grad for name, p in op.named_parameters()}
    grads["features"], grads["adjacency"] = h.grad, adj.grad
    return {k: np.zeros(1) if g is None else g for k, g in grads.items()}


def _assert_gradients_match(got, want):
    assert got.keys() == want.keys()
    for name in want:
        g, w = np.broadcast_arrays(got[name], want[name])
        assert np.abs(g - w).max() < TOL, name


class TestCoarseningsMatchReference:
    @pytest.mark.parametrize("name", sorted(COARSENINGS))
    def test_single_graph_outputs_aux_and_gradients(self, graphs, name):
        self._assert_single_graph_matches_reference(graphs[0], name, csr=False)

    @pytest.mark.parametrize("name", sorted(COARSENINGS))
    def test_lone_csr_outputs_aux_and_gradients(self, graphs, name):
        """A graph's ``to_csr()``, the models' single-graph input: a
        select that reads the adjacency densely sees its dense view."""
        self._assert_single_graph_matches_reference(graphs[0], name, csr=True)

    @staticmethod
    def _assert_single_graph_matches_reference(graph, name, csr):
        op = COARSENINGS[name](np.random.default_rng(0))
        op.eval()
        reference = COARSENING_REFERENCES[name]

        adj, h = _leaves(graph)
        adj_c, h_c, mask = op(graph.to_csr() if csr else adj, h)
        aux = op.auxiliary_loss()
        assert mask is None
        _objective([adj_c, h_c, aux]).backward()
        got = _gradients(op, adj, h)
        op.zero_grad()

        adj_r, h_r = _leaves(graph)
        if csr:  # a CSR adjacency is a constant
            adj_r = Tensor(graph.adjacency)
        adj_ref, h_ref, aux_ref = reference(op, adj_r, h_r)
        _objective([adj_ref, h_ref, aux_ref]).backward()
        want = _gradients(op, adj_r, h_r)

        assert adj_c.shape == adj_ref.shape and h_c.shape == h_ref.shape
        assert np.abs(adj_c.data - adj_ref.data).max() < TOL
        assert np.abs(h_c.data - h_ref.data).max() < TOL
        assert (aux is None) == (aux_ref is None)
        if aux is not None:
            assert abs(float(aux.data) - float(aux_ref.data)) < TOL
        _assert_gradients_match(got, want)

    @pytest.mark.parametrize("name", sorted(COARSENINGS))
    def test_padded_batch_rows_match_single_graph_reference(self, graphs, name):
        self._assert_batch_matches_reference(graphs, name, _padded)

    @pytest.mark.parametrize("name", sorted(COARSENINGS))
    def test_graph_batch_rows_match_single_graph_reference(self, graphs, name):
        self._assert_batch_matches_reference(graphs, name, ragged_inputs)

    @staticmethod
    def _assert_batch_matches_reference(graphs, name, layout):
        op = COARSENINGS[name](np.random.default_rng(0))
        op.eval()
        reference = COARSENING_REFERENCES[name]
        adj_b, h_b, mask_b = op(*layout(graphs))
        aux_b = op.auxiliary_loss()
        k_max = h_b.shape[1]
        assert adj_b.shape == (len(graphs), k_max, k_max)

        aux_refs = []
        for i, g in enumerate(graphs):
            adj_ref, h_ref, aux_ref = reference(op, g.adjacency, Tensor(g.features))
            k = h_ref.shape[0]
            if mask_b is None:
                assert k == k_max
            else:
                np.testing.assert_array_equal(mask_b[i], np.arange(k_max) < k)
            assert np.abs(h_b.data[i, :k] - h_ref.data).max() < TOL, i
            assert np.abs(adj_b.data[i, :k, :k] - adj_ref.data).max() < TOL, i
            # Padding rows and columns are exactly zero.
            assert not np.any(h_b.data[i, k:])
            assert not np.any(adj_b.data[i, k:]) and not np.any(adj_b.data[i, :, k:])
            aux_refs.append(aux_ref)

        assert (aux_b is None) == (aux_refs[0] is None)
        if aux_b is not None:
            expected = np.mean([float(a.data) for a in aux_refs])
            assert abs(float(aux_b.data) - expected) < TOL

    def test_hap_train_mode_draws_match_reference(self, graphs):
        """Eq. 19's Gumbel noise is drawn from the module's generator in
        the reference's order."""
        op = GraphCoarsening(F, 3, np.random.default_rng(0))
        op.train()
        g = graphs[0]
        op.rng = np.random.default_rng(5)
        adj_c, h_c, _ = op(g.adjacency, Tensor(g.features))
        op.rng = np.random.default_rng(5)
        adj_ref, h_ref, _ = hap_coarsening(op, g.adjacency, Tensor(g.features))
        assert np.abs(adj_c.data - adj_ref.data).max() < TOL
        assert np.abs(h_c.data - h_ref.data).max() < TOL

    def test_edge_conditioned_hap_matches_reference(self, graphs):
        """Bond features reach HAP's coarsening as ``(nnz, Fe)`` rows
        beside a CSR — one graph's, or a ragged batch's block-diagonal
        one; the reference sums each graph's dense ``(N, N, Fe)``
        attributes itself."""
        op = GraphCoarsening(F, 3, np.random.default_rng(0), edge_features=2)
        op.eval()
        rng = np.random.default_rng(3)
        bonded = []
        for g in graphs:
            attr = rng.normal(size=(g.num_nodes, g.num_nodes, 2))
            attr = (attr + attr.transpose(1, 0, 2)) * (g.adjacency != 0)[..., None]
            bonded.append(g.with_edge_features(attr))
        batch = batch_graphs(bonded)
        adj_b, h_b, _ = op(
            batch.adjacency, Tensor(batch.features), batch.slots,
            edge_attr=batch.edge_features,
        )
        for i, g in enumerate(bonded):
            adj_c, h_c, _ = op(
                g.to_csr(), Tensor(g.features), edge_attr=g.edge_feature_data()
            )
            adj_ref, h_ref, _ = hap_coarsening(
                op, g.adjacency, Tensor(g.features), edge_attr=g.edge_features
            )
            assert np.abs(adj_c.data - adj_ref.data).max() < TOL
            assert np.abs(h_c.data - h_ref.data).max() < TOL
            assert np.abs(adj_b.data[i] - adj_ref.data).max() < TOL
            assert np.abs(h_b.data[i] - h_ref.data).max() < TOL


class TestReadoutsMatchReference:
    @pytest.mark.parametrize("name", sorted(READOUTS))
    def test_single_graph_output_and_gradients(self, graphs, name):
        op = READOUTS[name](np.random.default_rng(0))
        reference = READOUT_REFERENCES[name]
        graph = graphs[0]

        adj, h = _leaves(graph)
        out = op(adj, h)
        _objective([out]).backward()
        got = _gradients(op, adj, h)
        op.zero_grad()

        adj_r, h_r = _leaves(graph)
        out_ref = reference(op, adj_r, h_r)
        _objective([out_ref]).backward()
        want = _gradients(op, adj_r, h_r)

        assert out.shape == out_ref.shape
        assert np.abs(out.data - out_ref.data).max() < TOL
        _assert_gradients_match(got, want)

    @pytest.mark.parametrize("name", sorted(READOUTS))
    def test_padded_batch_rows_match_single_graph_reference(self, graphs, name):
        self._assert_batch_matches_reference(graphs, name, _padded)

    @pytest.mark.parametrize("name", sorted(READOUTS))
    def test_graph_batch_rows_match_single_graph_reference(self, graphs, name):
        self._assert_batch_matches_reference(graphs, name, ragged_inputs)

    @staticmethod
    def _assert_batch_matches_reference(graphs, name, layout):
        op = READOUTS[name](np.random.default_rng(0))
        reference = READOUT_REFERENCES[name]
        out_b = op(*layout(graphs))
        assert out_b.shape == (len(graphs), op.out_features)
        for i, g in enumerate(graphs):
            out_ref = reference(op, g.adjacency, Tensor(g.features))
            assert np.abs(out_b.data[i] - out_ref.data).max() < TOL, i


class TestHeteroCoarseningMatchesReference:
    @pytest.mark.parametrize("training", [False, True])
    def test_outputs_match(self, training):
        rng = np.random.default_rng(1)
        relations = {}
        for relation in ("bond", "ring"):
            upper = np.triu(rng.random((9, 9)) < 0.35, k=1)
            relations[relation] = (upper | upper.T).astype(np.float64)
        graph = HeteroGraph(relations, features=rng.normal(size=(9, F)), label=0)
        module = HeteroGraphCoarsening(["bond", "ring"], F, 3, np.random.default_rng(0))
        module.train(training)
        module.rng = np.random.default_rng(2)
        adjs, h_c, m = module.coarsen(graph.adjacencies, Tensor(graph.features))
        module.rng = np.random.default_rng(2)
        adjs_ref, h_ref, m_ref = hetero_coarsening(
            module, graph.adjacencies, Tensor(graph.features)
        )
        assert np.abs(h_c.data - h_ref.data).max() < TOL
        assert np.abs(m.data - m_ref.data).max() < TOL
        assert adjs.keys() == adjs_ref.keys()
        for relation in adjs:
            assert np.abs(adjs[relation].data - adjs_ref[relation].data).max() < TOL
