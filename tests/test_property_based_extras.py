"""Additional property-based tests for the extension subsystems."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.ged import hungarian_ged
from repro.graph import (
    exact_ged,
    graph_feature_vector,
    random_connected,
    wl_subtree_kernel,
)
from repro.hetero import HeteroGraph, HeteroGraphCoarsening
from repro.tensor import Tensor

seeds = st.integers(min_value=0, max_value=10_000)


def _graph(seed: int, n: int):
    return random_connected(n, 0.35, np.random.default_rng(seed))


def _hetero(seed: int, n: int) -> HeteroGraph:
    rng = np.random.default_rng(seed)

    def sym(p):
        upper = np.triu(rng.random((n, n)) < p, k=1)
        return (upper | upper.T).astype(np.float64)

    return HeteroGraph(
        {"a": sym(0.35), "b": sym(0.35)}, features=rng.normal(size=(n, 3))
    )


@settings(max_examples=15, deadline=None)
@given(seed=seeds, n=st.integers(min_value=2, max_value=7))
def test_ged_bracket_property(seed, n):
    """The Hungarian approximation bounds the exact GED from above on
    arbitrary pairs."""
    g1 = _graph(seed, n)
    g2 = _graph(seed + 17, max(2, n - 1))
    assert exact_ged(g1, g2) <= hungarian_ged(g1, g2) + 1e-9


@settings(max_examples=15, deadline=None)
@given(seed=seeds, n=st.integers(min_value=3, max_value=8))
def test_feature_vector_permutation_invariant(seed, n):
    g = _graph(seed, n)
    perm = np.random.default_rng(seed + 5).permutation(n)
    np.testing.assert_allclose(
        graph_feature_vector(g), graph_feature_vector(g.permute(perm)), atol=1e-9
    )


@settings(max_examples=10, deadline=None)
@given(seed=seeds, n=st.integers(min_value=3, max_value=7))
def test_wl_kernel_permutation_invariant(seed, n):
    g1 = _graph(seed, n)
    g2 = _graph(seed + 31, n)
    perm = np.random.default_rng(seed + 7).permutation(n)
    assert wl_subtree_kernel(g1, g2) == wl_subtree_kernel(g1.permute(perm), g2)


@settings(max_examples=10, deadline=None)
@given(seed=seeds, n=st.integers(min_value=3, max_value=8))
def test_hetero_coarsening_permutation_invariant(seed, n):
    graph = _hetero(seed, n)
    module = HeteroGraphCoarsening(
        ["a", "b"], 3, 3, np.random.default_rng(1), soft_sampling=False
    )
    module.eval()
    adjs1, h1, _ = module.coarsen(graph.adjacencies, Tensor(graph.features))
    perm = np.random.default_rng(seed + 3).permutation(n)
    permuted = graph.permute(perm)
    adjs2, h2, _ = module.coarsen(permuted.adjacencies, Tensor(permuted.features))
    np.testing.assert_allclose(h1.data, h2.data, atol=1e-8)
    for name in ("a", "b"):
        np.testing.assert_allclose(adjs1[name].data, adjs2[name].data, atol=1e-8)


@settings(max_examples=15, deadline=None)
@given(seed=seeds, n=st.integers(min_value=4, max_value=10))
def test_kernel_self_similarity_dominates(seed, n):
    """Normalised WL similarity of any pair is at most self-similarity."""
    g1 = _graph(seed, n)
    g2 = _graph(seed + 13, n)
    cross = wl_subtree_kernel(g1, g2)
    self1 = wl_subtree_kernel(g1, g1)
    self2 = wl_subtree_kernel(g2, g2)
    assert cross <= np.sqrt(self1 * self2) + 1e-9  # Cauchy-Schwarz
