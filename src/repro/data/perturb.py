"""Graph perturbation for the robustness benchmark.

:func:`drop_edges` removes a seeded random share of a graph's edges,
the perturbation whose strength the robustness benchmark sweeps; it
returns a new graph.
"""

from __future__ import annotations

import numpy as np

from repro.graph.algorithms import connect_components
from repro.graph.graph import Graph


def drop_edges(graph: Graph, fraction: float, rng: np.random.Generator) -> Graph:
    """Remove a random ``fraction`` of edges (graph is re-connected)."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    edges = graph.edge_list()
    if not edges:
        return graph
    keep_count = int(round(len(edges) * (1.0 - fraction)))
    kept_idx = rng.choice(len(edges), size=keep_count, replace=False)
    adj = np.zeros_like(graph.adjacency)
    for i in kept_idx:
        a, b = edges[int(i)]
        adj[a, b] = adj[b, a] = graph.adjacency[a, b]
    perturbed = Graph(
        adj, node_labels=graph.node_labels, features=graph.features,
        label=graph.label,
    )
    return connect_components(perturbed)
