"""Classic graph algorithms on :class:`Graph`.

BFS-based connectivity and distances, Weisfeiler-Lehman colour
refinement (the scoring basis of SortPooling) and the connected
random-subgraph sampler used to create positive matching pairs (paper
Sec. 6.1.1).
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.graph.graph import Graph


def degrees(graph: Graph) -> np.ndarray:
    """Unweighted node degrees (number of incident edges)."""
    return (graph.adjacency != 0).sum(axis=1)


def connected_components(graph: Graph) -> list[list[int]]:
    """Connected components as sorted node lists, largest first."""
    n = graph.num_nodes
    seen = np.zeros(n, dtype=bool)
    components: list[list[int]] = []
    for start in range(n):
        if seen[start]:
            continue
        queue = deque([start])
        seen[start] = True
        comp = []
        while queue:
            v = queue.popleft()
            comp.append(v)
            for u in graph.neighbors(v):
                if not seen[u]:
                    seen[u] = True
                    queue.append(int(u))
        components.append(sorted(comp))
    components.sort(key=len, reverse=True)
    return components


def is_connected(graph: Graph) -> bool:
    if graph.num_nodes == 0:
        return True
    return len(connected_components(graph)[0]) == graph.num_nodes


def connect_components(graph: Graph) -> Graph:
    """Return a connected graph by chaining component anchors.

    The first node of every non-primary component is linked to the first
    node of the largest component; used by dataset generators that must
    guarantee connectivity.
    """
    components = connected_components(graph)
    if len(components) <= 1:
        return graph
    adj = graph.adjacency.copy()
    anchor = components[0][0]
    for comp in components[1:]:
        adj[anchor, comp[0]] = adj[comp[0], anchor] = 1.0
    return Graph(
        adj,
        node_labels=graph.node_labels,
        features=graph.features,
        label=graph.label,
        meta=dict(graph.meta),
    )


def shortest_path_lengths(graph: Graph, source: int) -> np.ndarray:
    """Unweighted BFS distances from ``source`` (-1 for unreachable)."""
    n = graph.num_nodes
    dist = np.full(n, -1, dtype=np.int64)
    dist[source] = 0
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for u in graph.neighbors(v):
            if dist[u] < 0:
                dist[u] = dist[v] + 1
                queue.append(int(u))
    return dist


def wl_colors(graph: Graph, iterations: int = 3) -> np.ndarray:
    """Weisfeiler-Lehman colour refinement.

    Returns an ``(iterations + 1, N)`` integer array; row t holds the
    colours after t refinements.  Initial colours are node labels when
    present, otherwise degrees.
    """
    n = graph.num_nodes
    if graph.node_labels is not None:
        colors = graph.node_labels.copy()
    else:
        colors = degrees(graph).astype(np.int64)
    # Canonicalise to consecutive ints.
    _, colors = np.unique(colors, return_inverse=True)
    history = [colors.copy()]
    neighbor_lists = [graph.neighbors(v) for v in range(n)]
    for _ in range(iterations):
        signatures = []
        for v in range(n):
            multiset = tuple(sorted(colors[neighbor_lists[v]].tolist()))
            signatures.append((int(colors[v]), multiset))
        # Canonical colour ids: assign in signature-sorted order so the
        # refinement is invariant to node ordering (colors of a permuted
        # graph are exactly the permuted colors).
        table = {sig: i for i, sig in enumerate(sorted(set(signatures)))}
        colors = np.array([table[sig] for sig in signatures], dtype=np.int64)
        history.append(colors.copy())
    return np.stack(history)


def random_connected_subgraph(
    graph: Graph, size: int, rng: np.random.Generator
) -> tuple[Graph, np.ndarray]:
    """Sample a connected induced subgraph of ``size`` nodes via BFS growth.

    Returns the subgraph and the selected node indices.  Used to build
    positive examples for the synthetic graph matching dataset: the
    paper extracts maximum connected subgraphs 1-3 nodes smaller than
    the source graph.
    """
    if not 1 <= size <= graph.num_nodes:
        raise ValueError(f"size must be in [1, {graph.num_nodes}], got {size}")
    start = int(rng.integers(0, graph.num_nodes))
    selected = [start]
    selected_set = {start}
    frontier = [int(u) for u in graph.neighbors(start)]
    while len(selected) < size:
        if not frontier:
            # Graph is disconnected relative to the start; restart.
            return random_connected_subgraph(graph, size, rng)
        idx = int(rng.integers(0, len(frontier)))
        v = frontier.pop(idx)
        if v in selected_set:
            continue
        selected.append(v)
        selected_set.add(v)
        frontier.extend(int(u) for u in graph.neighbors(v) if u not in selected_set)
    nodes = np.array(selected)
    return graph.subgraph(nodes), nodes
