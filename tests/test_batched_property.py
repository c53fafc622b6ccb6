"""Property-based tests (hypothesis) pinning the padding/mask contract.

Three invariants of the batched execution path, over randomly drawn
graph sizes, cluster counts and relaxations:

1. padding nodes receive *exactly* zero attention mass in the MOA
   row-softmax (not approximately zero);
2. pooled per-level features are invariant to the amount of padding a
   batch carries: a larger companion graph, which grows ``N_max``,
   changes no graph's levels, on the ragged batch or its slots view;
3. batched outputs are permutation-equivariant / the pooled readout is
   permutation-invariant, per the paper's Claim 2.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import GraphCoarsening, MOA, build_hap_embedder
from repro.graph import random_connected
from repro.tensor import Tensor
from tests.conftest import ragged_inputs, slots_view

pytestmark = pytest.mark.equivalence

seeds = st.integers(min_value=0, max_value=10_000)
sizes = st.integers(min_value=2, max_value=10)
clusters = st.integers(min_value=1, max_value=5)
relaxations = st.sampled_from(["project", "pad"])
heads = st.integers(min_value=1, max_value=3)


def _graph(seed: int, n: int, feat_dim: int):
    rng = np.random.default_rng(seed)
    g = random_connected(n, 0.4, rng)
    return g.with_features(rng.normal(size=(n, feat_dim)))


def _stacked(graphs):
    adjacency, features, mask = slots_view(graphs)
    return adjacency, Tensor(features), mask


@settings(max_examples=30, deadline=None)
@given(seed=seeds, n=sizes, n_prime=clusters, relaxation=relaxations, h=heads)
def test_padding_rows_get_exactly_zero_attention_mass(seed, n, n_prime, relaxation, h):
    rng = np.random.default_rng(seed)
    moa = MOA(n_prime, np.random.default_rng(seed + 1), relaxation=relaxation,
              num_heads=h)
    pad = int(rng.integers(1, 6))
    content = np.zeros((1, n + pad, n_prime))
    content[0, :n] = rng.normal(size=(n, n_prime))
    # Garbage in the padding rows must not matter either.
    content[0, n:] = rng.normal(size=(pad, n_prime)) * 100.0
    mask = np.zeros((1, n + pad))
    mask[0, :n] = 1.0
    assignment = moa(Tensor(content), mask).data
    np.testing.assert_array_equal(assignment[0, n:], np.zeros((pad, n_prime)))
    np.testing.assert_allclose(assignment[0, :n].sum(axis=1), np.ones(n))


@settings(max_examples=20, deadline=None)
@given(seed=seeds, n=sizes, extra=st.integers(min_value=1, max_value=8),
       relaxation=relaxations)
def test_pooled_features_invariant_to_padding_amount(seed, n, extra, relaxation):
    g = _graph(seed, n, feat_dim=5)
    emb = build_hap_embedder(5, 6, [3, 2], np.random.default_rng(seed + 1),
                             relaxation=relaxation)
    emb.eval()
    companion = _graph(seed + 2, n + extra, feat_dim=5)
    for layout in (ragged_inputs, _stacked):
        alone = emb.embed_levels(*layout([g]))
        beside = emb.embed_levels(*layout([g, companion]))
        for la, lb in zip(alone, beside):
            np.testing.assert_allclose(la.data[0], lb.data[0], atol=1e-9)


@settings(max_examples=20, deadline=None)
@given(seed=seeds, n=st.integers(min_value=3, max_value=10), n_prime=clusters)
def test_batched_coarsening_is_permutation_equivariant(seed, n, n_prime):
    """Claim 2 on the batched path: permuting a graph's nodes permutes
    the assignment rows and leaves the coarsened graph unchanged."""
    g = _graph(seed, n, feat_dim=4)
    module = GraphCoarsening(4, n_prime, np.random.default_rng(seed + 1),
                             soft_sampling=False)
    module.eval()
    perm = np.random.default_rng(seed + 2).permutation(n)
    pg = g.permute(perm)

    inputs, inputs_p = _stacked([g]), _stacked([pg])
    adj, h, _ = module(*inputs)
    adj_p, h_p, _ = module(*inputs_p)
    m, m_p = module.select(*inputs).s, module.select(*inputs_p).s
    np.testing.assert_allclose(m_p.data[0], m.data[0][perm], atol=1e-8)
    np.testing.assert_allclose(h_p.data[0], h.data[0], atol=1e-8)
    np.testing.assert_allclose(adj_p.data[0], adj.data[0], atol=1e-8)


@settings(max_examples=15, deadline=None)
@given(seed=seeds, n=st.integers(min_value=3, max_value=9))
def test_batched_embedding_permutation_invariant(seed, n):
    g = _graph(seed, n, feat_dim=4)
    emb = build_hap_embedder(4, 6, [3, 1], np.random.default_rng(seed + 1))
    emb.eval()
    perm = np.random.default_rng(seed + 2).permutation(n)
    pg = g.permute(perm)
    out = emb(*_stacked([g]))
    out_p = emb(*_stacked([pg]))
    np.testing.assert_allclose(out_p.data, out.data, atol=1e-8)
