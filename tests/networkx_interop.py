"""networkx interop for the suites that cross-check against networkx.

The library never imports networkx; GED, VF2 and shortest-path tests
convert a :class:`~repro.graph.graph.Graph` with these helpers and
compare against networkx's reference implementations.
"""

from __future__ import annotations

import networkx as nx
import numpy as np

from repro.graph.graph import Graph


def to_networkx(graph: Graph) -> nx.Graph:
    """``graph`` as a networkx.Graph with ``label`` and ``weight`` attributes."""
    g = nx.Graph()
    g.add_nodes_from(range(graph.num_nodes))
    if graph.node_labels is not None:
        for i, lab in enumerate(graph.node_labels):
            g.nodes[i]["label"] = int(lab)
    for i, j in graph.edge_list():
        g.add_edge(i, j, weight=float(graph.adjacency[i, j]))
    return g


def from_networkx(g: nx.Graph) -> Graph:
    """Build a Graph from a networkx.Graph with integer nodes 0..N-1."""
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
