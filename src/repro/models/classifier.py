"""Graph classification/regression head (paper Eq. 20-21).

The final graph representation is fed into two fully-connected layers
(ReLU then linear; the softmax lives inside the cross-entropy) and
optimised with standard cross-entropy over graph labels.  Built with
``task="regression"`` the same head ends in a single linear output
trained with MSE against float targets — the molecular
property-prediction workload (docs/molecular.md).
"""

from __future__ import annotations

import numpy as np

from repro.data.batching import GraphBatch, batch_graphs
from repro.graph.graph import Graph
from repro.models.common import (
    EmbeddingResult,
    embedding_result,
    graph_inputs,
    level_sum_vector,
)
from repro.nn.layers import Linear
from repro.nn.losses import cross_entropy, cross_entropy_batched, mse_loss
from repro.nn.module import Module
from repro.tensor import Tensor, no_grad, relu, softmax


class GraphClassifier(Module):
    """Embedder + two fully-connected layers + task head.

    One graph runs through the embedder on its cached CSR with its
    ``(nnz, Fe)`` bond rows (:func:`~repro.models.common.graph_inputs`,
    docs/sparse.md), a list of graphs as one ragged
    :class:`~repro.data.batching.GraphBatch` (docs/batching.md).

    ``task`` selects the head: ``"classification"`` (default) ends in
    ``num_classes`` logits under cross-entropy; ``"regression"`` ends in
    one linear output under MSE against ``graph.label`` float targets
    (``num_classes`` is ignored — pass 0).  Graphs carrying
    ``edge_features`` are fed to the embedder's edge-conditioned path in
    either task; embedders built without edge support reject them loudly
    instead of silently dropping bond types.
    """

    def __init__(
        self,
        embedder: Module,
        num_classes: int,
        rng: np.random.Generator,
        hidden: int | None = None,
        task: str = "classification",
    ):
        super().__init__()
        if task not in ("classification", "regression"):
            raise ValueError(
                f"unknown task {task!r}; use 'classification' or 'regression'"
            )
        if task == "classification" and num_classes < 2:
            raise ValueError("need at least two classes")
        self.embedder = embedder
        self.num_classes = num_classes
        self.task = task
        self.out_dim = 1 if task == "regression" else num_classes
        dim = embedder.out_features
        hidden = hidden or dim
        self.fc1 = Linear(dim, hidden, rng)
        self.fc2 = Linear(hidden, self.out_dim, rng)

    def logits(self, graph: Graph) -> Tensor:
        """Head outputs for one graph: ``(C,)`` class logits, or the
        ``(1,)`` predicted target under ``task="regression"``.

        Hierarchical embedders contribute the *sum of their level
        representations* — the paper's hierarchical prediction strategy
        (Sec. 4.5.2, "to further facilitate the training process and
        fully utilize the hierarchical intermediate features") applied
        to the classification head.  Flat embedders contribute their
        single readout.
        """
        adjacency, features, edge_attr = graph_inputs(graph)
        levels = self.embedder.embed_levels(adjacency, features, edge_attr=edge_attr)
        return self.fc2(relu(self.fc1(sum(levels[1:], levels[0]))))

    def forward(self, graph) -> Tensor:
        """Class logits: ``(C,)`` for a single :class:`Graph`, ``(B, C)``
        for a :class:`~repro.data.batching.GraphBatch` or a sequence of
        graphs."""
        if isinstance(graph, Graph):
            return self.logits(graph)
        return self.logits_batched(graph)

    def loss(self, graph: Graph) -> Tensor:
        """Task loss — cross-entropy (Eq. 21) for classification, MSE
        for regression — plus any embedder auxiliary loss."""
        if graph.label is None:
            raise ValueError("graph has no label")
        if self.task == "regression":
            loss = mse_loss(self.logits(graph), float(graph.label))
        else:
            loss = cross_entropy(self.logits(graph), graph.label)
        aux = getattr(self.embedder, "auxiliary_loss", lambda: None)()
        if aux is not None:
            loss = loss + aux * 0.1
        return loss

    # ------------------------------------------------------------------
    # Batched execution path (docs/batching.md)
    # ------------------------------------------------------------------
    @staticmethod
    def _as_batch(graphs) -> GraphBatch:
        if isinstance(graphs, GraphBatch):
            return graphs
        return batch_graphs(list(graphs))

    def logits_batched(self, graphs) -> Tensor:
        """Class logits ``(B, C)`` for a list of graphs or a
        :class:`~repro.data.batching.GraphBatch`.

        Matches :meth:`logits` row by row: the sum of per-level
        readouts feeds the same two fully-connected layers.
        """
        batch = self._as_batch(graphs)
        levels = self.embedder.embed_levels(
            batch.adjacency,
            Tensor(batch.features),
            batch.slots,
            edge_attr=batch.edge_features,
        )
        return self.fc2(relu(self.fc1(sum(levels[1:], levels[0]))))

    def batch_loss(self, graphs) -> Tensor:
        """Mean task loss over the batch (equals the per-graph loop's
        mean of :meth:`loss`) plus any embedder auxiliary loss."""
        batch = self._as_batch(graphs)
        if batch.labels is None:
            raise ValueError("every graph in the batch needs a label")
        outputs = self.logits_batched(batch)
        if self.task == "regression":
            loss = mse_loss(
                outputs.reshape(batch.batch_size),
                np.asarray(batch.labels, dtype=np.float64),
            )
        else:
            loss = cross_entropy_batched(
                outputs, np.asarray(batch.labels, dtype=np.int64)
            )
        aux = getattr(self.embedder, "auxiliary_loss", lambda: None)()
        if aux is not None:
            loss = loss + aux * 0.1
        return loss

    # ------------------------------------------------------------------
    # Unified prediction surface (docs/serving.md)
    # ------------------------------------------------------------------
    def decode(self, outputs: np.ndarray):
        """The task's decode rule, from head outputs to predictions: the
        argmax class for classification, the scalar output for
        regression.  One graph's ``(C,)`` outputs decode to a python
        ``int``/``float``, a batch's ``(B, C)`` to a ``(B,)`` array."""
        if self.task == "regression":
            decoded = outputs[..., 0]
        else:
            decoded = np.argmax(outputs, axis=-1)
        return decoded.item() if decoded.ndim == 0 else decoded

    def predict(self, inputs):
        """Prediction(s) for ``Graph | list[Graph] | GraphBatch``.

        The single entry point of the prediction surface: a bare
        :class:`Graph` returns a python ``int`` class (or ``float``
        target under ``task="regression"``); a sequence of graphs or a
        :class:`~repro.data.batching.GraphBatch` returns a ``(B,)``
        array computed through one batched forward.  Both apply
        :meth:`decode`.
        """
        with no_grad():
            if isinstance(inputs, Graph):
                return self.decode(self.logits(inputs).data)
            return self.decode(self.logits_batched(inputs).data)

    def predict_proba(self, graph: Graph) -> np.ndarray:
        if self.task == "regression":
            raise ValueError("predict_proba is undefined for regression heads")
        with no_grad():
            return softmax(self.logits(graph), axis=-1).data.copy()

    def logits_from_embedding(self, vector: np.ndarray) -> Tensor:
        """Class logits from a precomputed graph embedding.

        The serving cache path (docs/serving.md): a cached
        :meth:`embed` vector re-enters the head here, reproducing
        :meth:`logits` bit for bit without re-running the embedder.
        """
        with no_grad():
            return self.fc2(relu(self.fc1(Tensor(np.asarray(vector)))))

    def embed(self, graph: Graph) -> EmbeddingResult:
        """Graph-level embedding with cacheable provenance.

        The vector is the sum over hierarchy levels — exactly the head
        input of :meth:`logits` — wrapped in a versioned
        :class:`~repro.models.common.EmbeddingResult` (it coerces to the
        raw array under numpy ops, so t-SNE-style consumers are
        unaffected).
        """
        return embedding_result(self, graph, level_sum_vector(self.embedder, graph))
