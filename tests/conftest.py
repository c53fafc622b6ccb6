"""Shared fixtures for the test-suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import batch_graphs
from repro.graph import Graph, random_connected
from repro.models.classifier import GraphClassifier
from repro.observe import Callback
from repro.tensor import Tensor


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def small_graph(rng) -> Graph:
    """A connected 8-node graph with features attached."""
    g = random_connected(8, 0.35, rng)
    return g.with_features(rng.normal(size=(8, 5)))


@pytest.fixture
def labelled_graph(rng) -> Graph:
    g = random_connected(7, 0.3, rng)
    return g.with_node_labels(rng.integers(0, 3, size=7))


def ragged_inputs(graphs):
    """``graphs`` as the models batch them: a ``GraphBatch``'s
    block-diagonal CSR, ``(ΣN, F)`` feature rows and ``Slots``."""
    batch = batch_graphs(graphs)
    return batch.adjacency, Tensor(batch.features), batch.slots


def slots_view(graphs):
    """``graphs`` as padded operator inputs: the slots view of their
    ``GraphBatch`` — the ``(B, N_max, N_max)`` adjacency stack, the
    ``(B, N_max, F)`` zero-padded features and the ``(B, N_max)`` mask."""
    batch = batch_graphs(graphs)
    slots = batch.slots
    return (
        slots.dense(batch.adjacency),
        slots.scatter(batch.features).data,
        slots.mask,
    )


class LossCalls(Callback):
    """The trainer's mini-batches (``steps``, when passed as a callback)
    and its ``GraphClassifier.batch_loss`` and ``loss`` calls."""

    def __init__(self):
        self.steps = 0
        self.calls = {"batch_loss": 0, "loss": 0}

    def on_batch_end(self, epoch, step, loss, batch_size):
        self.steps += 1


@pytest.fixture
def loss_calls(monkeypatch) -> LossCalls:
    """Counts every ``GraphClassifier.batch_loss`` and ``loss`` call."""
    counter = LossCalls()
    for name in counter.calls:

        def counted(model, *args, _name=name, _method=getattr(GraphClassifier, name)):
            counter.calls[_name] += 1
            return _method(model, *args)

        monkeypatch.setattr(GraphClassifier, name, counted)
    return counter
