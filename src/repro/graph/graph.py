"""The :class:`Graph` value type.

A graph is stored as a dense, symmetric, zero-diagonal adjacency matrix
(the paper works with weighted adjacency matrices A ∈ R^{N×N}) plus
optional integer node labels, an optional node feature matrix
H ∈ R^{N×F}, an optional per-edge attribute tensor E ∈ R^{N×N×Fe}
(bond types and the like, docs/molecular.md) and an optional graph
label Y — an integer class for classification or a float target for
regression.  Instances are treated as immutable values: all
transformation helpers return new graphs.
"""

from __future__ import annotations

import copy
import weakref
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np

from repro.tensor.sparse import CSRMatrix

#: per-instance CSR conversions (docs/sparse.md); keyed by graph
#: identity so the cache dies with the graph and immutability keeps the
#: cached structure valid forever
_CSR_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _symmetric(array: np.ndarray, transposed: np.ndarray) -> bool:
    """``np.allclose(array, transposed)``, trying exact equality first.

    Equal arrays are always close, so the answer is the same; symmetric
    input (every real graph) just skips the slower tolerance check.
    """
    return np.array_equal(array, transposed) or np.allclose(array, transposed)


def _node_features(features, num_nodes: int) -> np.ndarray:
    """``features`` as a float ``(num_nodes, F)`` array, or a ValueError."""
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[0] != num_nodes:
        raise ValueError(
            f"features must be (N, F) with N={num_nodes}, got {feats.shape}"
        )
    return feats


@dataclass(frozen=True, eq=False)
class Graph:
    """An undirected (optionally weighted) graph.

    Parameters
    ----------
    adjacency:
        Symmetric ``(N, N)`` float array with zero diagonal.
    node_labels:
        Optional ``(N,)`` integer labels (e.g. atom types).
    features:
        Optional ``(N, F)`` node feature matrix.
    edge_features:
        Optional ``(N, N, Fe)`` per-edge attribute tensor, symmetric in
        its first two axes and zero wherever the adjacency is zero
        (including the diagonal).
    label:
        Optional graph-level label Y: an integer class index for
        classification, or a float target for regression.
    """

    adjacency: np.ndarray
    node_labels: np.ndarray | None = None
    features: np.ndarray | None = None
    label: int | float | None = None
    meta: dict = field(default_factory=dict, compare=False)
    edge_features: np.ndarray | None = None

    def __post_init__(self):
        adj = np.asarray(self.adjacency, dtype=np.float64)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError(f"adjacency must be square, got {adj.shape}")
        if not _symmetric(adj, adj.T):
            raise ValueError("adjacency must be symmetric (undirected graphs)")
        if np.any(np.diag(adj) != 0):
            raise ValueError("adjacency must have zero diagonal (no self-loops)")
        object.__setattr__(self, "adjacency", adj)
        if self.node_labels is not None:
            labels = np.asarray(self.node_labels, dtype=np.int64)
            if labels.shape != (adj.shape[0],):
                raise ValueError(
                    f"node_labels shape {labels.shape} != ({adj.shape[0]},)"
                )
            object.__setattr__(self, "node_labels", labels)
        if self.features is not None:
            object.__setattr__(
                self, "features", _node_features(self.features, adj.shape[0])
            )
        if self.edge_features is not None:
            efeats = np.asarray(self.edge_features, dtype=np.float64)
            n = adj.shape[0]
            if efeats.ndim != 3 or efeats.shape[:2] != (n, n):
                raise ValueError(
                    f"edge_features must be (N, N, Fe) with N={n}, "
                    f"got {efeats.shape}"
                )
            if not _symmetric(efeats, efeats.transpose(1, 0, 2)):
                raise ValueError(
                    "edge_features must be symmetric in the node axes "
                    "(undirected graphs)"
                )
            if np.any(efeats[adj == 0] != 0):
                raise ValueError(
                    "edge_features must be zero off-edges (wherever the "
                    "adjacency is zero, including the diagonal)"
                )
            object.__setattr__(self, "edge_features", efeats)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self.adjacency.shape[0]

    @property
    def num_edges(self) -> int:
        """Number of undirected edges (non-zero upper-triangle entries)."""
        return int(np.count_nonzero(np.triu(self.adjacency, k=1)))

    def degrees(self) -> np.ndarray:
        """Weighted degree of every node."""
        return self.adjacency.sum(axis=1)

    def neighbors(self, node: int) -> np.ndarray:
        """Indices of nodes adjacent to ``node``."""
        return np.flatnonzero(self.adjacency[node])

    def edge_list(self) -> list[tuple[int, int]]:
        """Undirected edges as sorted (i, j) pairs with i < j."""
        rows, cols = np.nonzero(np.triu(self.adjacency, k=1))
        return list(zip(rows.tolist(), cols.tolist()))

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self.adjacency[i, j] != 0)

    def to_csr(self):
        """The adjacency as a :class:`~repro.tensor.sparse.CSRMatrix`.

        Passed where the dense ``(N, N)`` array would go — to a conv, a
        coarsening or ``embed_levels`` — it selects their O(E) sparse
        paths (docs/sparse.md).  The conversion is cached per instance
        (graphs are immutable), so repeated use pays the O(N²)
        compression scan once per graph.
        """
        cached = _CSR_CACHE.get(self)
        if cached is None:
            cached = CSRMatrix.from_dense(self.adjacency)
            _CSR_CACHE[self] = cached
        return cached

    @property
    def num_edge_features(self) -> int:
        """Width Fe of the per-edge attribute vectors (0 when absent)."""
        return 0 if self.edge_features is None else self.edge_features.shape[2]

    def edge_feature_data(self) -> np.ndarray:
        """Edge attributes as an ``(nnz, Fe)`` array aligned with ``to_csr()``.

        Row ``k`` holds the attribute vector of the ``k``-th stored entry
        of the CSR adjacency (row-major, columns sorted within a row) —
        the ordering ``CSRMatrix.from_dense`` produces — so the sparse
        layer paths can condition message passing on edge features without
        ever materialising the dense ``(N, N, Fe)`` tensor again.  Cached
        on the CSR instance (graphs are immutable).
        """
        if self.edge_features is None:
            raise ValueError("graph has no edge_features")
        csr = self.to_csr()
        return csr.cached(
            "edge_feature_data",
            lambda c: self.edge_features[c.row_ids, c.indices],
        )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def from_edges(
        num_nodes: int,
        edges: Iterable[tuple[int, int]],
        node_labels: Sequence[int] | None = None,
        label: int | float | None = None,
        edge_features: dict[tuple[int, int], Sequence[float]] | None = None,
        num_edge_features: int | None = None,
    ) -> "Graph":
        """Build an unweighted graph from an edge list.

        ``edge_features`` maps ``(i, j)`` pairs (either orientation) to
        ``Fe``-vectors; edges without an entry get the zero vector.
        ``num_edge_features`` pins Fe when the mapping is empty.
        """
        adj = np.zeros((num_nodes, num_nodes), dtype=np.float64)
        for i, j in edges:
            if i == j:
                continue  # self-loops are silently dropped
            adj[i, j] = adj[j, i] = 1.0
        labels = None if node_labels is None else np.asarray(node_labels)
        efeats = None
        if edge_features is not None or num_edge_features is not None:
            dim = num_edge_features
            if dim is None:
                dim = max(
                    (len(v) for v in (edge_features or {}).values()), default=0
                )
            efeats = np.zeros((num_nodes, num_nodes, dim), dtype=np.float64)
            for (i, j), vec in (edge_features or {}).items():
                if i == j or adj[i, j] == 0:
                    continue  # attributes on non-edges are dropped like self-loops
                efeats[i, j] = efeats[j, i] = np.asarray(vec, dtype=np.float64)
        return Graph(adj, node_labels=labels, label=label, edge_features=efeats)

    @staticmethod
    def empty(num_nodes: int) -> "Graph":
        return Graph(np.zeros((num_nodes, num_nodes)))

    # ------------------------------------------------------------------
    # Transformations (all return new graphs)
    # ------------------------------------------------------------------
    def with_features(self, features: np.ndarray) -> "Graph":
        """This graph with node features ``features``.

        Only the features are checked: the copy keeps the other fields'
        arrays, which were validated when this graph was built.
        """
        graph = copy.copy(self)
        object.__setattr__(
            graph, "features", _node_features(features, self.num_nodes)
        )
        return graph

    def with_edge_features(self, edge_features: np.ndarray) -> "Graph":
        return replace(
            self, edge_features=np.asarray(edge_features, dtype=np.float64)
        )

    def with_label(self, label: int) -> "Graph":
        return replace(self, label=int(label))

    def with_target(self, target: float) -> "Graph":
        """Attach a float regression target as the graph label."""
        return replace(self, label=float(target))

    def with_node_labels(self, node_labels: Sequence[int]) -> "Graph":
        return replace(self, node_labels=np.asarray(node_labels, dtype=np.int64))

    def permute(self, permutation: Sequence[int]) -> "Graph":
        """Relabel nodes: node i of the result is node permutation[i] here."""
        perm = np.asarray(permutation, dtype=np.intp)
        if sorted(perm.tolist()) != list(range(self.num_nodes)):
            raise ValueError("permutation must be a bijection over nodes")
        adj = self.adjacency[np.ix_(perm, perm)]
        labels = None if self.node_labels is None else self.node_labels[perm]
        feats = None if self.features is None else self.features[perm]
        efeats = (
            None
            if self.edge_features is None
            else self.edge_features[np.ix_(perm, perm)]
        )
        return Graph(
            adj, node_labels=labels, features=feats, label=self.label,
            edge_features=efeats,
        )

    def subgraph(self, nodes: Sequence[int]) -> "Graph":
        """Induced subgraph on ``nodes`` (kept in the given order)."""
        idx = np.asarray(nodes, dtype=np.intp)
        adj = self.adjacency[np.ix_(idx, idx)]
        labels = None if self.node_labels is None else self.node_labels[idx]
        feats = None if self.features is None else self.features[idx]
        efeats = (
            None
            if self.edge_features is None
            else self.edge_features[np.ix_(idx, idx)]
        )
        return Graph(
            adj, node_labels=labels, features=feats, label=self.label,
            edge_features=efeats,
        )

    def add_nodes(
        self,
        count: int,
        edges: Iterable[tuple[int, int]] = (),
        node_labels: Sequence[int] | None = None,
    ) -> "Graph":
        """Return a graph with ``count`` extra nodes and the given new edges."""
        n = self.num_nodes
        adj = np.zeros((n + count, n + count), dtype=np.float64)
        adj[:n, :n] = self.adjacency
        for i, j in edges:
            if i == j:
                continue
            adj[i, j] = adj[j, i] = 1.0
        labels = None
        if self.node_labels is not None:
            extra = (
                np.zeros(count, dtype=np.int64)
                if node_labels is None
                else np.asarray(node_labels, dtype=np.int64)
            )
            labels = np.concatenate([self.node_labels, extra])
        efeats = None
        if self.edge_features is not None:
            # new edges carry the zero attribute vector
            fe = self.edge_features.shape[2]
            efeats = np.zeros((n + count, n + count, fe), dtype=np.float64)
            efeats[:n, :n] = self.edge_features
        return Graph(adj, node_labels=labels, label=self.label, edge_features=efeats)

    # ------------------------------------------------------------------
    # Interop
    # ------------------------------------------------------------------
    def to_networkx(self):
        """Convert to a networkx.Graph (used only by the test-suite)."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self.num_nodes))
        if self.node_labels is not None:
            for i, lab in enumerate(self.node_labels):
                g.nodes[i]["label"] = int(lab)
        for i, j in self.edge_list():
            g.add_edge(i, j, weight=float(self.adjacency[i, j]))
        return g

    @staticmethod
    def from_networkx(g) -> "Graph":
        """Build from a networkx.Graph with integer nodes 0..N-1."""
        nodes = sorted(g.nodes())
        index = {v: i for i, v in enumerate(nodes)}
        adj = np.zeros((len(nodes), len(nodes)))
        for u, v, data in g.edges(data=True):
            w = float(data.get("weight", 1.0))
            adj[index[u], index[v]] = adj[index[v], index[u]] = w
        labels = None
        if nodes and all("label" in g.nodes[v] for v in nodes):
            labels = np.array([g.nodes[v]["label"] for v in nodes], dtype=np.int64)
        return Graph(adj, node_labels=labels)

    def __repr__(self) -> str:
        return (
            f"Graph(n={self.num_nodes}, m={self.num_edges}, "
            f"label={self.label}, labelled_nodes={self.node_labels is not None})"
        )
