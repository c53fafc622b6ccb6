"""Property-based tests (hypothesis) on core invariants.

Covers the claims the paper proves or relies on:
- Claim 2: permutation invariance of the graph coarsening module;
- GED metric properties and approximation bounds;
- LAP solver optimality against scipy;
- pooling readout permutation invariance;
- autograd correctness on random expressions.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import GraphCoarsening, build_hap_embedder
from repro.ged import beam_ged, hungarian, hungarian_ged, jonker_volgenant, vj_ged
from repro.graph import Graph, exact_ged, is_isomorphic, random_connected, wl_colors
from repro.pooling import MeanAttPool, MeanPool, Set2Set, SumPool
from repro.tensor import Tensor, softmax

# Deterministic generator derived from hypothesis-chosen seeds keeps
# shrinking meaningful while covering a wide input space.
seeds = st.integers(min_value=0, max_value=10_000)
sizes = st.integers(min_value=2, max_value=9)


def _graph(seed: int, n: int, labelled: bool = False) -> Graph:
    rng = np.random.default_rng(seed)
    g = random_connected(n, 0.35, rng)
    if labelled:
        g = g.with_node_labels(rng.integers(0, 3, size=n))
    return g


@settings(max_examples=25, deadline=None)
@given(seed=seeds, n=sizes)
def test_exact_ged_is_zero_iff_isomorphic_for_permutations(seed, n):
    g = _graph(seed, n)
    perm = np.random.default_rng(seed + 1).permutation(n)
    assert exact_ged(g, g.permute(perm)) == 0.0


@settings(max_examples=15, deadline=None)
@given(seed=seeds, n=st.integers(min_value=2, max_value=6))
def test_exact_ged_symmetry_and_nonnegativity(seed, n):
    g1 = _graph(seed, n)
    g2 = _graph(seed + 7, n)
    d12 = exact_ged(g1, g2)
    assert d12 >= 0
    assert d12 == exact_ged(g2, g1)
    if d12 == 0:
        assert is_isomorphic(g1, g2)


@settings(max_examples=15, deadline=None)
@given(seed=seeds, n=st.integers(min_value=2, max_value=6))
def test_approximations_upper_bound_exact(seed, n):
    g1 = _graph(seed, n, labelled=True)
    g2 = _graph(seed + 13, n, labelled=True)
    reference = exact_ged(g1, g2)
    for approx in (
        lambda a, b: beam_ged(a, b, 1),
        lambda a, b: beam_ged(a, b, 40),
        hungarian_ged,
        vj_ged,
    ):
        assert approx(g1, g2) >= reference - 1e-9


@settings(max_examples=30, deadline=None)
@given(seed=seeds, n=st.integers(min_value=1, max_value=9))
def test_lap_solvers_match_scipy(seed, n):
    from scipy.optimize import linear_sum_assignment

    cost = np.random.default_rng(seed).random((n, n)) * 7.0
    rows, cols = linear_sum_assignment(cost)
    optimum = cost[rows, cols].sum()
    _, hung_total = hungarian(cost)
    _, jv_total = jonker_volgenant(cost)
    assert abs(hung_total - optimum) < 1e-9
    assert abs(jv_total - optimum) < 1e-9


@settings(max_examples=20, deadline=None)
@given(seed=seeds, n=st.integers(min_value=3, max_value=10))
def test_flat_readouts_permutation_invariant(seed, n):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, 4))
    perm = rng.permutation(n)
    pools = [SumPool(4), MeanPool(4), MeanAttPool(4, rng), Set2Set(4, rng, steps=2)]
    for pool in pools:
        a = pool(None, Tensor(features)).data
        b = pool(None, Tensor(features[perm])).data
        np.testing.assert_allclose(a, b, atol=1e-9)


@settings(max_examples=15, deadline=None)
@given(seed=seeds, n=st.integers(min_value=3, max_value=9))
def test_claim2_coarsening_permutation_invariance(seed, n):
    """Paper Claim 2: the coarsening module is permutation invariant.

    The coarsened feature matrix H' = M^T H is unchanged (not merely
    permuted) under any relabelling of the input nodes, because clusters
    are anchored to the learned GCont, not to node order.
    """
    rng = np.random.default_rng(seed)
    g = _graph(seed, n)
    features = rng.normal(size=(n, 4))
    module = GraphCoarsening(4, 3, np.random.default_rng(1), soft_sampling=False)
    module.eval()
    adj1, h1, _ = module(g.adjacency, Tensor(features))
    perm = rng.permutation(n)
    pg = g.permute(perm)
    adj2, h2, _ = module(pg.adjacency, Tensor(features[perm]))
    np.testing.assert_allclose(h1.data, h2.data, atol=1e-8)
    np.testing.assert_allclose(adj1.data, adj2.data, atol=1e-8)


@settings(max_examples=10, deadline=None)
@given(seed=seeds, n=st.integers(min_value=4, max_value=12))
def test_hap_embedding_invariant_across_relabellings(seed, n):
    rng = np.random.default_rng(seed)
    g = _graph(seed, n)
    features = rng.normal(size=(n, 4))
    embedder = build_hap_embedder(4, 6, [3, 1], np.random.default_rng(0))
    embedder.eval()
    base = embedder(g.adjacency, Tensor(features)).data
    perm = rng.permutation(n)
    pg = g.permute(perm)
    out = embedder(pg.adjacency, Tensor(features[perm])).data
    np.testing.assert_allclose(base, out, atol=1e-7)


@settings(max_examples=20, deadline=None)
@given(seed=seeds, n=st.integers(min_value=2, max_value=10))
def test_wl_colors_equivariant(seed, n):
    g = _graph(seed, n)
    perm = np.random.default_rng(seed + 3).permutation(n)
    original = wl_colors(g, 3)[-1]
    permuted = wl_colors(g.permute(perm), 3)[-1]
    np.testing.assert_array_equal(permuted, original[perm])


@settings(max_examples=25, deadline=None)
@given(seed=seeds)
def test_softmax_is_distribution_and_grad_sums_zero(seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(3, 5)) * 3.0, requires_grad=True)
    out = softmax(x, axis=1)
    np.testing.assert_allclose(out.data.sum(axis=1), np.ones(3), atol=1e-12)
    # A uniform upstream gradient must produce zero net gradient per row
    # (softmax outputs are constrained to the simplex).
    out.sum().backward()
    np.testing.assert_allclose(x.grad.sum(axis=1), np.zeros(3), atol=1e-10)


@settings(max_examples=20, deadline=None)
@given(seed=seeds, n=sizes)
def test_gumbel_sampled_adjacency_symmetric_positive(seed, n):
    from repro.core import gumbel_soft_sample

    rng = np.random.default_rng(seed)
    adj = Tensor(np.abs(rng.normal(size=(n, n))) + 0.05)
    out = gumbel_soft_sample(adj, rng=rng).data
    np.testing.assert_allclose(out, out.T, atol=1e-12)
    assert np.all(out >= 0)
