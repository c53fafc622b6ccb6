"""One level-0 layout: a single graph enters every model as its CSR.

Bond features reach a layer one way only, as ``(nnz, Fe)`` rows beside
a CSR adjacency (docs/molecular.md).  This suite holds that layout in
place:

- every single-graph entry point hands ``embed_levels`` the graph's
  ``to_csr()`` and, for a bonded graph, its ``edge_feature_data()``;
- a dense ``(N, N, Fe)`` ``edge_attr`` raises, naming ``to_csr()``;
- every zoo classifier's single-graph logits equal its forward on the
  dense adjacency (the coarsened levels' layout, which a lone CSR
  replaces at level 0);
- the edge-conditioned GIN, SAGE and GAT layers, MOA's bond sums and a
  bonded HAP hierarchy match the dense oracles of
  tests/edge_reference.py and tests/pooling_reference.py, outputs and
  gradients, in eval and train mode.
"""

import numpy as np
import pytest

from repro.core import GraphCoarsening, build_hap_embedder
from repro.data import GraphTriplet, MatchingPair, attach_degree_features
from repro.gnn import GATLayer, GINLayer, GNNEncoder, SAGELayer
from repro.gnn.edges import incident_edge_sums
from repro.graph import Graph, random_connected
from repro.models import FlatEmbedder, zoo
from repro.pooling import SumPool
from repro.tensor import CSRMatrix, Tensor, no_grad, relu
from tests.edge_reference import LAYER_REFERENCES, incident_bond_sums
from tests.pooling_reference import hap_coarsening

pytestmark = [pytest.mark.molecular, pytest.mark.sparse]

TOL = 1e-9
F = 6
#: bond-feature width
FE = 3


def _bonded(graph: Graph, rng) -> Graph:
    """``graph`` with symmetric random bond features on its edges."""
    n = graph.num_nodes
    attr = rng.normal(size=(n, n, FE))
    attr = (attr + attr.transpose(1, 0, 2)) * (graph.adjacency != 0)[..., None]
    return graph.with_edge_features(attr)


def _graphs(rng) -> list[Graph]:
    """Ragged featured graphs, a single node, an edgeless graph and a
    chain with an isolated node (an empty CSR row), all bonded."""
    graphs = [random_connected(n, 0.4, rng) for n in (9, 4, 12)]
    chain = np.zeros((5, 5))
    for i in range(3):
        chain[i, i + 1] = chain[i + 1, i] = 1.0
    graphs += [Graph(np.zeros((1, 1))), Graph(np.zeros((4, 4))), Graph(chain)]
    return [
        _bonded(g.with_features(rng.normal(size=(g.num_nodes, F))), rng)
        for g in graphs
    ]


def _objective(outputs, seed=7):
    """A scalar that weighs every output entry differently."""
    weights = np.random.default_rng(seed)
    return sum(
        (out * Tensor(weights.normal(size=out.shape))).sum() for out in outputs
    )


def _gradients(module, h) -> dict:
    grads = {name: p.grad for name, p in module.named_parameters()}
    grads["features"] = h.grad
    return {k: np.zeros(1) if g is None else g.copy() for k, g in grads.items()}


def _max_dev(got: dict, want: dict) -> float:
    assert got.keys() == want.keys()
    return max(
        np.abs(np.subtract(*np.broadcast_arrays(got[k], want[k]))).max()
        for k in want
    )


# ---------------------------------------------------------------------------
# The layout: a graph's CSR in, dense bonds rejected
# ---------------------------------------------------------------------------
class _Recorder:
    """Wraps an embedder's ``embed_levels``, recording its adjacency
    and ``edge_attr`` operands."""

    def __init__(self, embedder):
        self.calls = []
        embed_levels = embedder.embed_levels

        def recording(adjacency, h, mask=None, edge_attr=None):
            self.calls.append((adjacency, edge_attr))
            return embed_levels(adjacency, h, mask, edge_attr=edge_attr)

        embedder.embed_levels = recording


def _assert_lone_csr(calls, graphs, bonded):
    assert len(calls) == len(graphs)
    for (adjacency, edge_attr), g in zip(calls, graphs):
        assert isinstance(adjacency, CSRMatrix)
        assert adjacency is g.to_csr()  # the graph's cached conversion
        if bonded:
            assert edge_attr.shape == (adjacency.nnz, FE)
            np.testing.assert_array_equal(edge_attr, g.edge_feature_data())
        else:
            assert edge_attr is None


def _featured(rng, n, label=0):
    return attach_degree_features(random_connected(n, 0.4, rng), 8).with_label(label)


class TestEntryPointsTakeTheCSR:
    @pytest.fixture
    def molecule(self, rng):
        return _bonded(_featured(rng, 7), rng).with_target(0.5)

    @pytest.mark.parametrize("entry", ["logits", "loss", "predict", "embed"])
    def test_classifier(self, rng, molecule, entry):
        model = zoo.make_classifier(
            "HAP", 8, 0, rng, hidden=8, cluster_sizes=(3, 1), conv="gin",
            task="regression", edge_features=FE,
        )
        recorder = _Recorder(model.embedder)
        getattr(model, entry)(molecule)
        _assert_lone_csr(recorder.calls, [molecule], bonded=True)

    def test_classifier_without_bonds(self, rng):
        graph = _featured(rng, 6)
        model = zoo.make_classifier("HAP", 8, 2, rng, hidden=8, cluster_sizes=(3, 1))
        recorder = _Recorder(model.embedder)
        model.predict_proba(graph)
        _assert_lone_csr(recorder.calls, [graph], bonded=False)

    def test_hierarchical_embedder(self, rng, molecule):
        embedder = build_hap_embedder(8, 8, [3, 1], rng, conv="sage", edge_features=FE)
        recorder = _Recorder(embedder)
        embedder.embed(molecule)
        _assert_lone_csr(recorder.calls, [molecule], bonded=True)

    def test_flat_embedder(self, rng, molecule):
        embedder = FlatEmbedder(
            GNNEncoder([8, 8, 8], rng, conv="gat", edge_features=FE), SumPool(8)
        )
        recorder = _Recorder(embedder)
        embedder.embed(molecule)
        _assert_lone_csr(recorder.calls, [molecule], bonded=True)

    def test_matching_model(self, rng):
        pair = MatchingPair(_featured(rng, 7), _featured(rng, 5), 1)
        model = zoo.make_matcher("HAP", 8, rng, hidden=8, cluster_sizes=(3, 1))
        recorder = _Recorder(model.embedder)
        model.loss(pair)
        _assert_lone_csr(recorder.calls, [pair.g1, pair.g2], bonded=False)

    def test_similarity_model(self, rng):
        triplet = GraphTriplet(
            _featured(rng, 7), _featured(rng, 6), _featured(rng, 5), relative_ged=1.0
        )
        model = zoo.make_similarity("HAP", 8, rng, hidden=8, cluster_sizes=(3, 1))
        recorder = _Recorder(model.embedder)
        model.loss(triplet)
        graphs = [triplet.anchor, triplet.left, triplet.right]
        _assert_lone_csr(recorder.calls, graphs, bonded=False)

    def test_simgnn_hap(self, rng):
        g1, g2 = _featured(rng, 7), _featured(rng, 5)
        model = zoo.make_simgnn(8, rng, hidden=8, use_hap_pooling=True, cluster_sizes=(3, 1))
        recorder = _Recorder(model.pooling)
        model.pair_loss(g1, g2, ged=2.0)
        _assert_lone_csr(recorder.calls, [g1, g2], bonded=False)

    def test_gmn_runs_on_the_csr(self, rng):
        """GMN's within-graph message is an spmm on the CSR."""
        pair = MatchingPair(_featured(rng, 7), _featured(rng, 5), 1)
        model = zoo.make_matcher("GMN-HAP", 8, rng, hidden=8, cluster_sizes=(3, 1))
        recorder = _Recorder(model.embedder.pooling)
        model.loss(pair)
        _assert_lone_csr(recorder.calls, [pair.g1, pair.g2], bonded=False)


class TestDenseBondsAreRejected:
    """A dense ``(N, N, Fe)`` ``edge_attr`` beside a dense adjacency is
    a ``ValueError`` that names the layout to pass instead."""

    MODULES = {
        "GINLayer": lambda rng: GINLayer(F, 4, rng, edge_features=FE),
        "SAGELayer": lambda rng: SAGELayer(F, 4, rng, edge_features=FE),
        "GATLayer": lambda rng: GATLayer(F, 4, rng, edge_features=FE),
        "GraphCoarsening": lambda rng: GraphCoarsening(F, 3, rng, edge_features=FE),
        "HierarchicalEmbedder.embed_levels": lambda rng: build_hap_embedder(
            F, 4, [3, 1], rng, conv="gin", edge_features=FE
        ).embed_levels,
    }

    @pytest.mark.parametrize("name", sorted(MODULES))
    def test_raises_naming_to_csr(self, rng, name):
        graph = _graphs(rng)[0]
        module = self.MODULES[name](rng)
        with pytest.raises(ValueError, match=r"to_csr\(\)"):
            module(graph.adjacency, Tensor(graph.features), edge_attr=graph.edge_features)

    def test_misaligned_rows_are_rejected(self, rng):
        graph = _graphs(rng)[0]
        layer = GINLayer(F, 4, rng, edge_features=FE)
        rows = graph.edge_feature_data()
        with pytest.raises(ValueError, match="nnz"):
            layer(graph.to_csr(), Tensor(graph.features), edge_attr=rows[1:])


# ---------------------------------------------------------------------------
# A lone CSR against the dense level 0
# ---------------------------------------------------------------------------
ZOO_METHODS = sorted(
    set(zoo.CLASSIFICATION_METHODS + zoo.ABLATION_METHODS)
    | {"MaxPool", "MinCutPool", "SpectralPool"}
)


@pytest.mark.parametrize("method", ZOO_METHODS)
def test_zoo_single_graph_logits_match_the_dense_level_0(method):
    rng = np.random.default_rng(4)
    graphs = [_featured(rng, n) for n in (11, 6, 3)] + [
        attach_degree_features(Graph(np.zeros((4, 4))), 8)
    ]
    model = zoo.make_classifier(method, 8, 3, np.random.default_rng(1), hidden=8,
                                cluster_sizes=(4, 2))
    model.eval()
    for g in graphs:
        with no_grad():
            logits = model.logits(g).data
            levels = model.embedder.embed_levels(g.adjacency, Tensor(g.features))
            dense = model.fc2(relu(model.fc1(sum(levels[1:], levels[0])))).data
        assert np.abs(logits - dense).max() <= TOL, (method, g.num_nodes)


# ---------------------------------------------------------------------------
# Edge-conditioned layers against the dense oracle
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("training", [False, True], ids=["eval", "train"])
@pytest.mark.parametrize("name", sorted(LAYER_REFERENCES))
def test_layer_matches_the_dense_oracle(rng, name, training):
    layer = {"GINLayer": GINLayer, "SAGELayer": SAGELayer, "GATLayer": GATLayer}[name](
        F, 5, np.random.default_rng(0), edge_features=FE
    )
    layer.train(training)
    reference = LAYER_REFERENCES[name]
    for g in _graphs(rng):
        h = Tensor(g.features.copy(), requires_grad=True)
        out = layer(g.to_csr(), h, edge_attr=g.edge_feature_data())
        _objective([out]).backward()
        got = _gradients(layer, h)
        layer.zero_grad()

        h_ref = Tensor(g.features.copy(), requires_grad=True)
        out_ref = reference(layer, g.adjacency, h_ref, g.edge_features)
        _objective([out_ref]).backward()
        want = _gradients(layer, h_ref)
        layer.zero_grad()

        case = (name, training, g.num_nodes)
        assert np.abs(out.data - out_ref.data).max() <= TOL, case
        assert _max_dev(got, want) <= TOL, case
        if g.num_edges:  # the bonds reach the gradient
            assert np.any(got["att_edge" if name == "GATLayer" else "edge_gate.weight"])


def test_incident_sums_match_the_dense_oracle(rng):
    for g in _graphs(rng):
        np.testing.assert_allclose(
            incident_edge_sums(g.to_csr(), g.edge_feature_data()),
            incident_bond_sums(g.edge_features),
            rtol=0, atol=TOL,
        )


def _oracle_levels(embedder, graph, h: Tensor) -> list[Tensor]:
    """A bonded graph's levels by the dense oracles: level 0's layers on
    the dense ``(N, N, Fe)`` bonds, every coarsening by its reference;
    the coarsened levels carry no bonds and run the embedder's layers."""
    adjacency, edge_attr = Tensor(graph.adjacency), graph.edge_features
    levels = []
    for encoder, coarsening in zip(embedder.encoders, embedder.coarsenings):
        for layer in encoder.layers:
            if edge_attr is None:
                h = layer(adjacency, h)
            else:
                h = LAYER_REFERENCES[type(layer).__name__](layer, adjacency, h, edge_attr)
        adjacency, h, _ = hap_coarsening(coarsening, adjacency, h, edge_attr=edge_attr)
        edge_attr = None
        levels.append(h.mean(axis=0))
    return levels


@pytest.mark.parametrize("training", [False, True], ids=["eval", "train"])
@pytest.mark.parametrize("conv", ["gin", "sage", "gat"])
def test_bonded_hap_matches_the_dense_oracle(rng, conv, training):
    """The whole hierarchy on a bonded graph's CSR, Gumbel draws
    included, against the oracles from one generator state."""
    generator = np.random.default_rng(11)
    embedder = build_hap_embedder(F, 8, [4, 2], generator, conv=conv, edge_features=FE)
    embedder.train(training)
    state = generator.bit_generator.state
    for g in _graphs(rng):
        generator.bit_generator.state = state
        h = Tensor(g.features.copy(), requires_grad=True)
        levels = embedder.embed_levels(g.to_csr(), h, edge_attr=g.edge_feature_data())
        _objective(levels).backward()
        got = _gradients(embedder, h)
        embedder.zero_grad()
        after = generator.bit_generator.state

        generator.bit_generator.state = state
        h_ref = Tensor(g.features.copy(), requires_grad=True)
        levels_ref = _oracle_levels(embedder, g, h_ref)
        _objective(levels_ref).backward()
        want = _gradients(embedder, h_ref)
        embedder.zero_grad()

        case = (conv, training, g.num_nodes)
        for level, level_ref in zip(levels, levels_ref):
            assert np.abs(level.data - level_ref.data).max() <= TOL, case
        assert _max_dev(got, want) <= TOL, case
        assert generator.bit_generator.state == after, case
