"""Property-based tests (hypothesis) pinning the padding/mask contract.

Three invariants of the batched execution path, over randomly drawn
graph sizes, cluster counts and relaxations:

1. padding nodes receive *exactly* zero attention mass in the MOA
   row-softmax (not approximately zero);
2. pooled per-level features are invariant to the amount of padding a
   batch carries (``pad_to`` larger than necessary changes nothing);
3. batched outputs are permutation-equivariant / the pooled readout is
   permutation-invariant, per the paper's Claim 2.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import GraphCoarsening, MOA, build_hap_embedder
from repro.data import pad_graphs
from repro.graph import random_connected
from repro.tensor import Tensor

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
    tight = pad_graphs([g])
    loose = pad_graphs([g], pad_to=n + extra)
    levels_tight = emb.embed_levels(
        tight.adjacency, Tensor(tight.features), tight.mask
    )
    levels_loose = emb.embed_levels(
        loose.adjacency, Tensor(loose.features), loose.mask
    )
    for lt, ll in zip(levels_tight, levels_loose):
        np.testing.assert_allclose(lt.data, ll.data, atol=1e-9)


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

    batch = pad_graphs([g])
    batch_p = pad_graphs([pg])
    inputs = (batch.adjacency, Tensor(batch.features), batch.mask)
    inputs_p = (batch_p.adjacency, Tensor(batch_p.features), batch_p.mask)
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
    batch, batch_p = pad_graphs([g]), pad_graphs([pg])
    out = emb(batch.adjacency, Tensor(batch.features), batch.mask)
    out_p = emb(batch_p.adjacency, Tensor(batch_p.features), batch_p.mask)
    np.testing.assert_allclose(out_p.data, out.data, atol=1e-8)
