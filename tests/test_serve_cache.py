"""Embedding-cache gate: content keys, LRU policy, invalidation.

Covers the ISSUE 7 cache contract in isolation from the service:

- hit/miss accounting and the LRU eviction order;
- :func:`repro.graph.hashing.graph_hash` stability across a
  ``Graph`` → CSR → ``Graph`` round-trip (and sensitivity to what
  actually feeds the forward pass);
- invalidation when the producing model's weights change
  (:func:`repro.nn.serialization.module_fingerprint`).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.evaluation.harness import prepare_dataset
from repro.graph.graph import Graph
from repro.graph.hashing import graph_hash
from repro.models.zoo import make_classifier
from repro.nn import module_fingerprint
from repro.serve import EmbeddingCache

pytestmark = pytest.mark.serve

NAME, N, SEED = "MUTAG", 12, 5


def _graph(seed: int = 0, n: int = 6) -> Graph:
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.integers(0, 2, size=(n, n)), k=1).astype(np.float64)
    return Graph(upper + upper.T, features=rng.standard_normal((n, 3)))


class TestLRUAccounting:
    def test_miss_then_hit(self):
        cache = EmbeddingCache(capacity=4)
        assert cache.get("fp", "g1") is None
        cache.put("fp", "g1", np.arange(3.0))
        vector = cache.get("fp", "g1")
        assert np.array_equal(vector, np.arange(3.0))
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == 0.5
        assert cache.stats()["size"] == 1

    def test_eviction_follows_lru_order(self):
        cache = EmbeddingCache(capacity=2)
        cache.put("fp", "a", np.zeros(1))
        cache.put("fp", "b", np.zeros(1))
        cache.get("fp", "a")  # refresh "a": now "b" is least recent
        cache.put("fp", "c", np.zeros(1))
        assert cache.get("fp", "b") is None  # evicted
        assert cache.get("fp", "a") is not None
        assert cache.get("fp", "c") is not None
        assert cache.evictions == 1
        assert cache.keys() == [("fp", "a"), ("fp", "c")]

    def test_put_refreshes_recency(self):
        cache = EmbeddingCache(capacity=2)
        cache.put("fp", "a", np.zeros(1))
        cache.put("fp", "b", np.zeros(1))
        cache.put("fp", "a", np.ones(1))  # rewrite refreshes recency
        cache.put("fp", "c", np.zeros(1))
        assert cache.get("fp", "b") is None
        assert np.array_equal(cache.get("fp", "a"), np.ones(1))

    def test_served_vectors_are_defensive_copies(self):
        cache = EmbeddingCache()
        original = np.arange(4.0)
        cache.put("fp", "g", original)
        original += 100.0  # caller mutates what it handed in
        first = cache.get("fp", "g")
        first += 100.0  # caller mutates what it was handed
        assert np.array_equal(cache.get("fp", "g"), np.arange(4.0))

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="capacity"):
            EmbeddingCache(capacity=0)

    def test_clear_resets_entries_but_keeps_counters(self):
        cache = EmbeddingCache()
        cache.put("fp", "g", np.zeros(1))
        cache.get("fp", "g")
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 1


class TestGraphHash:
    def test_stable_across_csr_round_trip(self):
        graph = _graph(1)
        rebuilt = Graph(
            graph.to_csr().to_dense(),
            features=graph.features.copy(),
            label=graph.label,
        )
        assert graph_hash(graph) == graph_hash(rebuilt)

    def test_covers_structure_features_and_weights(self):
        graph = _graph(2)
        baseline = graph_hash(graph)

        other_features = Graph(
            graph.adjacency, features=graph.features + 1.0
        )
        assert graph_hash(other_features) != baseline

        dense = graph.adjacency.copy()
        dense[0, 1] = dense[1, 0] = 1.0 - dense[0, 1]  # flip one edge
        assert graph_hash(Graph(dense, features=graph.features)) != baseline

        reweighted = graph.adjacency * 2.0
        assert graph_hash(Graph(reweighted, features=graph.features)) != baseline

    def test_covers_bond_features(self):
        """A molecule and a copy with one bond's type rolled differ in
        what the forward reads, so they must not share a cache key."""
        graphs, _, _ = prepare_dataset("ESOL", 4, np.random.default_rng(0))
        graph = graphs[0]
        rolled = graph.edge_features.copy()
        i, j = np.argwhere(np.triu(graph.adjacency, 1))[0]
        rolled[i, j] = rolled[j, i] = np.roll(rolled[i, j], 1)
        assert not np.array_equal(rolled, graph.edge_features)
        other = graph.with_edge_features(rolled)
        assert graph_hash(other) != graph_hash(graph)
        assert graph_hash(other) == graph_hash(graph.with_edge_features(rolled))
        plain = Graph(graph.adjacency, features=graph.features)
        assert graph_hash(plain) != graph_hash(graph)

    def test_ignores_labels_and_meta(self):
        # labels/meta never feed the forward pass, so they must not
        # split cache entries.
        graph = _graph(3)
        relabeled = Graph(
            graph.adjacency,
            node_labels=np.zeros(graph.num_nodes, dtype=np.int64),
            features=graph.features,
            label=1,
            meta={"origin": "test"},
        )
        assert graph_hash(graph) == graph_hash(relabeled)


class TestWeightInvalidation:
    @pytest.fixture()
    def model(self):
        graphs, dim, classes = prepare_dataset("MUTAG", 4, np.random.default_rng(0))
        model = make_classifier("HAP", dim, classes, np.random.default_rng(1))
        model.eval()
        return model, graphs

    def test_fingerprint_tracks_weights(self, model):
        model, _ = model
        before = module_fingerprint(model)
        parameter = dict(model.named_parameters())["fc1.weight"]
        saved = parameter.data.copy()
        parameter.data += 0.5
        try:
            assert module_fingerprint(model) != before
        finally:
            parameter.data = saved
        assert module_fingerprint(model) == before

    def test_new_fingerprint_misses_and_purges(self, model):
        model, graphs = model
        cache = EmbeddingCache()
        ghash = graph_hash(graphs[0])
        old_fp = module_fingerprint(model)
        cache.put(old_fp, ghash, np.asarray(model.embed(graphs[0])))

        parameter = dict(model.named_parameters())["fc1.weight"]
        parameter.data += 0.5
        try:
            new_fp = module_fingerprint(model)
            assert cache.get(new_fp, ghash) is None  # stale entry not served
            assert cache.purge_stale(new_fp) == 1
            assert len(cache) == 0
        finally:
            parameter.data -= 0.5

    def test_purge_keeps_current_fingerprint_entries(self):
        cache = EmbeddingCache()
        cache.put("old", "g1", np.zeros(1))
        cache.put("new", "g2", np.zeros(1))
        assert cache.purge_stale("new") == 1
        assert cache.keys() == [("new", "g2")]


@pytest.mark.streaming
class TestStreamingCacheRoundTrip:
    """Serving over shard-loaded graphs reuses in-memory cache entries.

    ``graph_hash`` keys the :class:`EmbeddingCache` by content, so a
    graph that travelled disk → shard → :class:`StreamingDataset` must
    hash identically to the in-RAM original — an ``embed()`` over the
    streamed corpus then *hits* entries populated from memory instead
    of recomputing, the docs/streaming.md serving contract.
    """

    @pytest.fixture()
    def sources(self, tmp_path):
        from repro.data.cache import load_dataset_cached
        from repro.data.sharding import shard_dataset
        from repro.data.streaming import StreamingDataset

        in_memory, dim, classes = load_dataset_cached(NAME, N, SEED)
        shard_dataset(NAME, N, SEED, tmp_path / "sh", shard_size=5)
        streamed = StreamingDataset(tmp_path / "sh")
        yield in_memory, streamed, dim, classes
        streamed.close()

    def test_graph_hash_survives_the_shard_round_trip(self, sources):
        in_memory, streamed, _, _ = sources
        assert [graph_hash(streamed[i]) for i in range(N)] == [
            graph_hash(g) for g in in_memory
        ]

    def test_streamed_embed_hits_entries_cached_from_memory(self, sources):
        in_memory, streamed, dim, classes = sources
        model = make_classifier(
            "SumPool", dim, classes, np.random.default_rng(1),
            hidden=8, cluster_sizes=(4, 1),
        )
        model.eval()
        fingerprint = module_fingerprint(model)
        cache = EmbeddingCache()
        for graph in in_memory:
            result = model.embed(graph)
            assert result.graph_hash == graph_hash(graph)
            cache.put(fingerprint, result.graph_hash, np.asarray(result))
        for i in range(N):
            streamed_result = model.embed(streamed[i])
            hit = cache.get(fingerprint, streamed_result.graph_hash)
            assert hit is not None, f"graph {i} missed after shard round-trip"
            np.testing.assert_array_equal(hit, np.asarray(streamed_result))
        assert cache.hits == N and cache.misses == 0
