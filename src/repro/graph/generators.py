"""Seeded random graph generators.

These power the synthetic dataset substitutes (DESIGN.md §1): since the
TU datasets are not downloadable offline, every dataset generator in
:mod:`repro.data.datasets` is composed from the primitives here.
"""

from __future__ import annotations

import numpy as np

from repro.graph.graph import Graph


def erdos_renyi(n: int, p: float, rng: np.random.Generator) -> Graph:
    """G(n, p) random graph."""
    if n < 1:
        raise ValueError("need at least one node")
    upper = rng.random((n, n)) < p
    adj = np.triu(upper, k=1).astype(np.float64)
    return Graph(adj + adj.T)


def random_connected(n: int, p: float, rng: np.random.Generator) -> Graph:
    """Connected G(n, p): sample a random spanning tree, then add ER edges.

    Matches the paper's synthetic matching dataset, which draws connected
    graphs with edge probability p ∈ [0.2, 0.5].
    """
    adj = np.zeros((n, n), dtype=np.float64)
    # Random spanning tree via random attachment of a shuffled order.
    order = rng.permutation(n)
    for k in range(1, n):
        parent = order[rng.integers(0, k)]
        child = order[k]
        adj[parent, child] = adj[child, parent] = 1.0
    extra = np.triu(rng.random((n, n)) < p, k=1)
    adj = np.maximum(adj, (extra | extra.T).astype(np.float64))
    np.fill_diagonal(adj, 0.0)
    return Graph(adj)


def random_tree(n: int, rng: np.random.Generator) -> Graph:
    """Uniform random recursive tree."""
    edges = [(int(rng.integers(0, k)), k) for k in range(1, n)]
    return Graph.from_edges(n, edges)


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(n: int) -> Graph:
    """Star with one hub and n-1 leaves (n total nodes)."""
    return Graph.from_edges(n, [(0, i) for i in range(1, n)])


def complete_graph(n: int) -> Graph:
    adj = np.ones((n, n)) - np.eye(n)
    return Graph(adj)


def planted_communities(
    sizes: list[int],
    p_in: float,
    p_out: float,
    rng: np.random.Generator,
) -> Graph:
    """Stochastic block model with dense blocks and sparse cross edges.

    Used to imitate protein secondary-structure communities and
    collaboration ego-nets.  A spanning chain across community "anchors"
    keeps the graph connected.
    """
    n = int(sum(sizes))
    bounds = np.cumsum([0] + list(sizes))
    adj = np.zeros((n, n), dtype=np.float64)
    membership = np.zeros(n, dtype=np.int64)
    for b in range(len(sizes)):
        membership[bounds[b] : bounds[b + 1]] = b
    same = membership[:, None] == membership[None, :]
    probs = np.where(same, p_in, p_out)
    sample = np.triu(rng.random((n, n)) < probs, k=1)
    adj = (sample | sample.T).astype(np.float64)
    np.fill_diagonal(adj, 0.0)
    # Connect consecutive communities through their anchor nodes.
    for b in range(len(sizes) - 1):
        a, c = bounds[b], bounds[b + 1]
        adj[a, c] = adj[c, a] = 1.0
    # Make each community internally connected through its anchor.
    for b in range(len(sizes)):
        a = bounds[b]
        for v in range(bounds[b] + 1, bounds[b + 1]):
            if adj[v].sum() == 0:
                adj[a, v] = adj[v, a] = 1.0
    from repro.graph.algorithms import connect_components

    return connect_components(Graph(adj, meta={"membership": membership}))


def random_sparse_csr(
    n: int, avg_degree: float, rng: np.random.Generator
):
    """Large random sparse graph, built directly in CSR — never O(N²).

    A ring backbone keeps the graph connected with every node at degree
    ≥ 2; random chords raise the mean degree to ``avg_degree``.  Returns
    a :class:`~repro.tensor.sparse.CSRMatrix` (unit edge weights, no
    self-loops) rather than a :class:`Graph`, because the whole point is
    to feed the layers' CSR paths (docs/sparse.md) graphs whose
    dense adjacency would not fit in memory.
    """
    from repro.tensor.sparse import CSRMatrix

    if n < 3:
        raise ValueError("need at least 3 nodes for a ring backbone")
    if avg_degree < 2:
        raise ValueError("avg_degree must be >= 2 (the ring contributes 2)")
    nodes = np.arange(n, dtype=np.intp)
    ring_u = np.minimum(nodes, (nodes + 1) % n)
    ring_v = np.maximum(nodes, (nodes + 1) % n)
    extra = int(round(n * (avg_degree - 2.0) / 2.0))
    a = rng.integers(0, n, size=extra)
    b = rng.integers(0, n, size=extra)
    keep = a != b
    u = np.concatenate([ring_u, np.minimum(a[keep], b[keep])])
    v = np.concatenate([ring_v, np.maximum(a[keep], b[keep])])
    pairs = np.unique(np.stack([u, v], axis=1), axis=0)
    rows = np.concatenate([pairs[:, 0], pairs[:, 1]])
    cols = np.concatenate([pairs[:, 1], pairs[:, 0]])
    return CSRMatrix.from_coo(rows, cols, np.ones(rows.size), (n, n))
