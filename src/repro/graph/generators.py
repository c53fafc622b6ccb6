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


def barabasi_albert(n: int, m: int, rng: np.random.Generator) -> Graph:
    """Preferential-attachment graph: each new node attaches to m targets."""
    if m < 1 or m >= n:
        raise ValueError("need 1 <= m < n")
    adj = np.zeros((n, n), dtype=np.float64)
    # Seed with a star on m+1 nodes so degrees are non-zero.
    for i in range(1, m + 1):
        adj[0, i] = adj[i, 0] = 1.0
    repeated: list[int] = [0] * m + list(range(1, m + 1))
    for new in range(m + 1, n):
        targets: set[int] = set()
        while len(targets) < m:
            targets.add(int(repeated[rng.integers(0, len(repeated))]))
        for t in targets:
            adj[new, t] = adj[t, new] = 1.0
            repeated.append(t)
        repeated.extend([new] * m)
    return Graph(adj)


def watts_strogatz(
    n: int, k: int, p: float, rng: np.random.Generator
) -> Graph:
    """Small-world graph: ring lattice with rewired shortcuts.

    Each node starts connected to its ``k`` nearest ring neighbours
    (``k`` must be even); every edge is rewired to a random target with
    probability ``p``.
    """
    if k % 2 != 0 or k < 2:
        raise ValueError("k must be even and >= 2")
    if k >= n:
        raise ValueError("need k < n")
    adj = np.zeros((n, n), dtype=np.float64)
    for v in range(n):
        for offset in range(1, k // 2 + 1):
            u = (v + offset) % n
            adj[v, u] = adj[u, v] = 1.0
    for v in range(n):
        for offset in range(1, k // 2 + 1):
            u = (v + offset) % n
            if adj[v, u] and rng.random() < p:
                candidates = [
                    w for w in range(n) if w != v and adj[v, w] == 0
                ]
                if candidates:
                    target = candidates[int(rng.integers(0, len(candidates)))]
                    adj[v, u] = adj[u, v] = 0.0
                    adj[v, target] = adj[target, v] = 1.0
    return Graph(adj)


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


def grid_graph(rows: int, cols: int) -> Graph:
    """2-D lattice graph."""
    def node(r, c):
        return r * cols + c

    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((node(r, c), node(r, c + 1)))
            if r + 1 < rows:
                edges.append((node(r, c), node(r + 1, c)))
    return Graph.from_edges(rows * cols, edges)


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


def molecule_like(
    rng: np.random.Generator,
    num_rings: int = 1,
    ring_size: int = 6,
    chain_length: int = 3,
    num_label_types: int = 4,
) -> Graph:
    """Small molecule-ish graph: fused/linked rings plus pendant chains.

    Node labels imitate atom types; used by the MUTAG-, PTC- and
    AIDS-like dataset generators.
    """
    edges: list[tuple[int, int]] = []
    n = 0
    ring_anchor_nodes: list[int] = []
    for _ in range(max(1, num_rings)):
        start = n
        for i in range(ring_size):
            edges.append((start + i, start + (i + 1) % ring_size))
        ring_anchor_nodes.append(start)
        n += ring_size
    # Link consecutive rings by a single bond.
    for a, b in zip(ring_anchor_nodes, ring_anchor_nodes[1:]):
        edges.append((a, b))
    # Pendant chain hanging off the first ring.
    prev = ring_anchor_nodes[0] + ring_size // 2
    for _ in range(chain_length):
        edges.append((prev, n))
        prev = n
        n += 1
    labels = rng.integers(0, num_label_types, size=n)
    return Graph.from_edges(n, edges, node_labels=labels)


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
