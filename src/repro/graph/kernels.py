"""Classic graph kernels (non-neural baselines).

Two well-known kernels plus a simple kernel classifier, giving the
benchmarks a deep-learning-free reference point:

- :func:`wl_subtree_kernel` — Weisfeiler-Lehman subtree kernel
  (Shervashidze et al., 2011): the inner product of WL colour
  histograms accumulated over refinement iterations.  SortPooling's
  motivation ("continuous WL colours") traces back to this kernel.
- :func:`shortest_path_kernel` — histogram intersection over shortest
  path length (and endpoint label) counts.
- :class:`KernelNearestCentroid` — classifies a graph by its mean
  kernel similarity to each class ("kernel nearest centroid"), a
  parameter-free stand-in for a kernel SVM.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Sequence

import numpy as np

from repro.graph.algorithms import shortest_path_lengths, wl_colors
from repro.graph.graph import Graph


def wl_subtree_kernel(g1: Graph, g2: Graph, iterations: int = 3) -> float:
    """WL subtree kernel value: sum over iterations of histogram dots.

    The canonical colour ids produced by :func:`wl_colors` are
    consistent only *within* one graph, so colours are matched through
    their signature by re-running the refinement on the disjoint union
    of the two graphs — the standard joint-refinement construction.
    """
    n1 = g1.num_nodes
    union_adj = np.zeros((n1 + g2.num_nodes, n1 + g2.num_nodes))
    union_adj[:n1, :n1] = g1.adjacency
    union_adj[n1:, n1:] = g2.adjacency
    labels = None
    if g1.node_labels is not None and g2.node_labels is not None:
        labels = np.concatenate([g1.node_labels, g2.node_labels])
    union = Graph(union_adj, node_labels=labels)
    colors = wl_colors(union, iterations)
    value = 0.0
    for row in colors:
        hist1 = Counter(row[:n1].tolist())
        hist2 = Counter(row[n1:].tolist())
        value += sum(hist1[c] * hist2[c] for c in hist1)
    return float(value)


def shortest_path_kernel(g1: Graph, g2: Graph) -> float:
    """Shortest-path kernel: dot product of path-length histograms.

    For labelled graphs, histogram keys include the (sorted) endpoint
    labels, following the original formulation.
    """

    def histogram(graph: Graph) -> Counter:
        counts: Counter = Counter()
        for source in range(graph.num_nodes):
            dist = shortest_path_lengths(graph, source)
            for target in range(source + 1, graph.num_nodes):
                if dist[target] <= 0:
                    continue
                if graph.node_labels is not None:
                    a = int(graph.node_labels[source])
                    b = int(graph.node_labels[target])
                    key = (int(dist[target]), min(a, b), max(a, b))
                else:
                    key = (int(dist[target]), -1, -1)
                counts[key] += 1
        return counts

    h1, h2 = histogram(g1), histogram(g2)
    return float(sum(h1[k] * h2[k] for k in h1))


def _normalized(kernel: Callable[[Graph, Graph], float], g1, g2, cache) -> float:
    """Cosine-normalised kernel value with self-similarity caching."""
    k12 = kernel(g1, g2)
    if id(g1) not in cache:
        cache[id(g1)] = kernel(g1, g1)
    if id(g2) not in cache:
        cache[id(g2)] = kernel(g2, g2)
    denominator = np.sqrt(cache[id(g1)] * cache[id(g2)])
    return k12 / denominator if denominator > 0 else 0.0


class KernelNearestCentroid:
    """Classify by mean (normalised) kernel similarity to each class."""

    def __init__(self, kernel: Callable[[Graph, Graph], float] = wl_subtree_kernel):
        self.kernel = kernel
        self._train: list[Graph] = []
        self._cache: dict[int, float] = {}

    def fit(self, graphs: Sequence[Graph]) -> "KernelNearestCentroid":
        if not graphs:
            raise ValueError("no training graphs")
        if any(g.label is None for g in graphs):
            raise ValueError("all training graphs need labels")
        self._train = list(graphs)
        self._cache.clear()
        return self

    def predict(self, graph: Graph) -> int:
        if not self._train:
            raise RuntimeError("fit() must be called before predict()")
        scores: dict[int, list[float]] = {}
        for train_graph in self._train:
            value = _normalized(self.kernel, graph, train_graph, self._cache)
            scores.setdefault(int(train_graph.label), []).append(value)
        return max(scores, key=lambda c: float(np.mean(scores[c])))

    def accuracy(self, graphs: Sequence[Graph]) -> float:
        if not graphs:
            raise ValueError("no graphs to evaluate")
        hits = sum(1 for g in graphs if self.predict(g) == g.label)
        return hits / len(graphs)
