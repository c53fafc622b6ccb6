"""Conformance test over the pooling zoo: every operator honours the
uniform signature/return contract of :mod:`repro.pooling.base`.

- ``Readout(adjacency, h) -> (out_features,)`` vector; adjacency may be
  numpy, ``Tensor`` or (for structure-free ops) ``None``.
- ``Coarsening(adjacency, h) -> (A', H', mask')`` with square ``A'``;
  subclasses implement only ``select``.
- Every operator takes a padded batch; the per-graph equivalence of
  each one is pinned by ``tests/test_pooling_oracle.py``.
- Malformed inputs fail loudly with ``ValueError``; a ``select`` that
  breaks the assignment contract fails with ``AssertionError``.
"""

import numpy as np
import pytest

from repro.core import GraphCoarsening
from repro.gnn import GNNEncoder
from repro.graph import random_connected
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
from repro.pooling.base import Coarsening, Readout, Selection, node_mean
from repro.tensor import Tensor

N, F = 10, 5

# name -> (factory, ignores_structure)
READOUTS = {
    "SumPool": (lambda rng: SumPool(F), True),
    "MeanPool": (lambda rng: MeanPool(F), True),
    "MaxPool": (lambda rng: MaxPool(F), True),
    "GCNConcat": (
        lambda rng: GCNConcat(GNNEncoder([F, 4, 4], rng)),
        False,
    ),
    "MeanAttPool": (lambda rng: MeanAttPool(F, rng), True),
    "GatedAttPool": (lambda rng: GatedAttPool(F, rng), True),
    "Set2Set": (lambda rng: Set2Set(F, rng), True),
    "SortPooling": (lambda rng: SortPooling(F, k=3), True),
}

COARSENINGS = {
    "MeanPoolCoarsening": lambda rng: MeanPoolCoarsening(),
    "MeanAttPoolCoarsening": lambda rng: MeanAttPoolCoarsening(F, rng),
    "GPool": lambda rng: GPool(F, rng, ratio=0.5),
    "SAGPool": lambda rng: SAGPool(F, rng, ratio=0.5),
    "AttPoolGlobal": lambda rng: AttPoolGlobal(F, rng, ratio=0.5),
    "AttPoolLocal": lambda rng: AttPoolLocal(F, rng, ratio=0.5),
    "DiffPool": lambda rng: DiffPool(F, 3, rng),
    "ASAP": lambda rng: ASAP(F, rng, ratio=0.5),
    "StructPool": lambda rng: StructPool(F, 3, rng),
    "MinCutPool": lambda rng: MinCutPool(F, 3, rng),
    "SpectralPool": lambda rng: SpectralPool(F, 3, rng),
    # HAP's pooling operator: GraphCoarsening is itself a Coarsening.
    "HAPPooling": lambda rng: GraphCoarsening(F, 3, rng),
}


@pytest.fixture
def graph(rng):
    g = random_connected(N, 0.4, rng)
    return g.with_features(rng.normal(size=(N, F)))


class TestReadoutContract:
    @pytest.mark.parametrize("name", sorted(READOUTS))
    def test_returns_out_features_vector(self, rng, graph, name):
        factory, _ = READOUTS[name]
        op = factory(rng)
        out = op(graph.adjacency, Tensor(graph.features))
        assert isinstance(out, Tensor)
        assert out.shape == (op.out_features,)

    @pytest.mark.parametrize("name", sorted(READOUTS))
    def test_tensor_adjacency_equals_numpy(self, rng, graph, name):
        factory, _ = READOUTS[name]
        op = factory(rng)
        out_np = op(graph.adjacency, Tensor(graph.features))
        out_t = op(Tensor(graph.adjacency), Tensor(graph.features))
        np.testing.assert_allclose(out_np.data, out_t.data)

    @pytest.mark.parametrize(
        "name", sorted(n for n, (_, free) in READOUTS.items() if free)
    )
    def test_structure_free_ops_accept_none_adjacency(self, rng, graph, name):
        factory, _ = READOUTS[name]
        op = factory(rng)
        out = op(None, Tensor(graph.features))
        np.testing.assert_allclose(
            out.data, op(graph.adjacency, Tensor(graph.features)).data
        )

    @pytest.mark.parametrize("name", sorted(READOUTS))
    def test_padded_batch_input_rejected(self, rng, graph, name):
        """A padded batch is taken only with a mask and an adjacency
        that match its rows."""
        factory, _ = READOUTS[name]
        op = factory(rng)
        padded = np.stack([graph.features, graph.features])
        batched_adj = np.stack([graph.adjacency, graph.adjacency])
        assert op(batched_adj, Tensor(padded), np.ones((2, N))).shape == (
            2,
            op.out_features,
        )
        with pytest.raises(ValueError, match="mask"):
            op(batched_adj, Tensor(padded), np.ones((3, N)))
        with pytest.raises(ValueError, match="adjacency"):
            op(graph.adjacency, Tensor(padded))

    @pytest.mark.parametrize("name", sorted(READOUTS))
    def test_malformed_inputs_rejected(self, rng, graph, name):
        factory, _ = READOUTS[name]
        op = factory(rng)
        with pytest.raises(ValueError, match="node features"):
            op(graph.adjacency, Tensor(graph.features[0]))
        with pytest.raises(ValueError, match="square"):
            op(graph.adjacency[:, :-1], Tensor(graph.features))
        with pytest.raises(ValueError, match="nodes"):
            op(graph.adjacency[:-1, :-1], Tensor(graph.features))


class TestCoarseningContract:
    @pytest.mark.parametrize("name", sorted(COARSENINGS))
    def test_returns_square_coarse_pair(self, rng, graph, name):
        op = COARSENINGS[name](rng)
        op.eval()
        adj_c, h_c, mask = op(graph.adjacency, Tensor(graph.features))
        assert mask is None
        assert h_c.ndim == 2
        k = h_c.shape[0]
        assert 1 <= k <= N
        assert adj_c.shape == (k, k)
        assert h_c.shape[1] == F

    @pytest.mark.parametrize("name", sorted(COARSENINGS))
    def test_works_as_readout(self, rng, graph, name):
        """Coarsened and mean-pooled, as each embedder level reads out."""
        op = COARSENINGS[name](rng)
        op.eval()
        _, h_c, mask = op(graph.adjacency, Tensor(graph.features))
        out = node_mean(h_c, mask)
        assert out.ndim == 1 and out.shape[0] == F

    @pytest.mark.parametrize(
        "name", sorted(n for n in COARSENINGS if n != "HAPPooling")
    )
    def test_padded_batch_input_rejected_unless_supported(self, rng, graph, name):
        """Every coarsening supports padded batches; only a malformed one
        is rejected."""
        op = COARSENINGS[name](rng)
        op.eval()
        padded = np.stack([graph.features, graph.features])
        batched_adj = np.stack([graph.adjacency, graph.adjacency])
        adj_c, h_c, _ = op(batched_adj, Tensor(padded), np.ones((2, N)))
        k = h_c.shape[1]
        assert adj_c.shape == (2, k, k) and h_c.shape == (2, k, F)
        with pytest.raises(ValueError, match="mask"):
            op(batched_adj, Tensor(padded), np.ones((3, N)))

    def test_hap_opts_into_padded_dispatch(self, rng, graph):
        op = COARSENINGS["HAPPooling"](rng)
        op.eval()
        padded = np.stack([graph.features, graph.features])
        batched_adj = np.stack([graph.adjacency, graph.adjacency])
        adj_c, h_c, mask_c = op(batched_adj, Tensor(padded), np.ones((2, N)))
        assert adj_c.shape == (2, 3, 3)
        assert h_c.shape == (2, 3, F)
        assert mask_c is None  # every graph owns exactly N' clusters
        # each padded slice matches the single-graph path
        adj_s, h_s, _ = op(graph.adjacency, Tensor(graph.features))
        np.testing.assert_allclose(h_s.data, h_c.data[0], atol=1e-8)

    @pytest.mark.parametrize("name", sorted(COARSENINGS))
    def test_auxiliary_loss_is_none_or_scalar(self, rng, graph, name):
        op = COARSENINGS[name](rng)
        op.eval()
        op(graph.adjacency, Tensor(graph.features))
        aux = op.auxiliary_loss()
        assert aux is None or np.ndim(aux.data) == 0

    def test_diffpool_and_mincut_expose_auxiliary_losses(self, rng, graph):
        for name in ("DiffPool", "MinCutPool"):
            op = COARSENINGS[name](rng)
            op.eval()
            op(graph.adjacency, Tensor(graph.features))
            assert op.auxiliary_loss() is not None, name


class TestContractIsEnforcedOnSubclasses:
    def test_bad_readout_shape_is_caught(self, rng, graph):
        class Bad(Readout):
            def __init__(self):
                super().__init__()
                self.out_features = F

            def readout(self, adjacency, h, mask):
                return h  # 2-D: violates the contract

        with pytest.raises(AssertionError, match="expected"):
            Bad()(graph.adjacency, Tensor(graph.features))

    def test_bad_coarsening_shape_is_caught(self, rng, graph):
        class Bad(Coarsening):
            def select(self, adjacency, h, mask=None, edge_attr=None):
                return Selection(Tensor(np.ones((N - 1, 2))))  # one row short

        with pytest.raises(AssertionError, match="assignment"):
            Bad()(graph.adjacency, Tensor(graph.features))
