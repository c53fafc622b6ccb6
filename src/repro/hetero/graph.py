"""Heterogeneous graph value type: one adjacency per edge relation."""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace

import numpy as np

from repro.graph.graph import _node_features, _symmetric


@dataclass(frozen=True, eq=False)
class HeteroGraph:
    """An undirected multi-relational graph.

    Parameters
    ----------
    adjacencies:
        Mapping relation name -> symmetric ``(N, N)`` adjacency with
        zero diagonal.  All relations share the same node set.
    features:
        Optional ``(N, F)`` node feature matrix.
    label:
        Optional integer graph label.
    """

    adjacencies: dict[str, np.ndarray]
    features: np.ndarray | None = None
    label: int | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.adjacencies:
            raise ValueError("need at least one relation")
        sizes = set()
        cleaned = {}
        for name, adj in self.adjacencies.items():
            arr = np.asarray(adj, dtype=np.float64)
            if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
                raise ValueError(f"relation {name!r}: adjacency must be square")
            if not _symmetric(arr, arr.T):
                raise ValueError(f"relation {name!r}: adjacency must be symmetric")
            if np.any(np.diag(arr) != 0):
                raise ValueError(f"relation {name!r}: no self-loops allowed")
            cleaned[name] = arr
            sizes.add(arr.shape[0])
        if len(sizes) != 1:
            raise ValueError(f"relations disagree on node count: {sorted(sizes)}")
        object.__setattr__(self, "adjacencies", cleaned)
        if self.features is not None:
            object.__setattr__(
                self, "features", _node_features(self.features, sizes.pop())
            )

    @property
    def num_nodes(self) -> int:
        return next(iter(self.adjacencies.values())).shape[0]

    @property
    def relations(self) -> list[str]:
        return sorted(self.adjacencies)

    def num_edges(self, relation: str) -> int:
        return int(np.count_nonzero(np.triu(self.adjacencies[relation], k=1)))

    def merged_adjacency(self) -> np.ndarray:
        """Union of all relations (used for relation-blind baselines)."""
        total = sum(self.adjacencies.values())
        return np.minimum(np.asarray(total), 1.0)

    def with_features(self, features: np.ndarray) -> "HeteroGraph":
        """This graph with ``features``; only they are checked."""
        graph = copy.copy(self)
        object.__setattr__(
            graph, "features", _node_features(features, self.num_nodes)
        )
        return graph

    def with_label(self, label: int) -> "HeteroGraph":
        return replace(self, label=int(label))

    def permute(self, permutation) -> "HeteroGraph":
        """Relabel nodes across every relation simultaneously."""
        perm = np.asarray(permutation, dtype=np.intp)
        if sorted(perm.tolist()) != list(range(self.num_nodes)):
            raise ValueError("permutation must be a bijection over nodes")
        adjacencies = {
            name: adj[np.ix_(perm, perm)] for name, adj in self.adjacencies.items()
        }
        feats = None if self.features is None else self.features[perm]
        return HeteroGraph(adjacencies, features=feats, label=self.label)

    def __repr__(self) -> str:
        edges = {name: self.num_edges(name) for name in self.relations}
        return f"HeteroGraph(n={self.num_nodes}, edges={edges}, label={self.label})"
