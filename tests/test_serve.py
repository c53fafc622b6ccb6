"""Serving gate: the online service must be faithful to the offline API.

The contract under test (docs/serving.md):

- every response is **bitwise identical** to what the offline
  ``predict()`` / ``embed()`` surface returns — on the cache-miss path
  *and* the cache-hit path;
- requests that queue while the worker is busy run as one batch; the
  worker never holds a request back to wait for a fuller batch;
- ``top_k`` retrieval is deterministic and self-nearest;
- one bad request fails its own future, never the batch;
- per-request metrics and spans land in the observe registry.
"""

from __future__ import annotations

import itertools
import threading
from types import SimpleNamespace

import numpy as np
import pytest

import repro.serve.service as service_mod
from repro.evaluation.harness import prepare_dataset
from repro.models.zoo import make_classifier
from repro.observe import MetricsRegistry, set_registry
from repro.serve import (
    EmbeddingIndex,
    InferenceService,
    Neighbor,
    build_index,
    run_closed_loop,
)

pytestmark = pytest.mark.serve


@pytest.fixture()
def registry():
    """A fresh metrics registry per test (restores the old one after)."""
    fresh = MetricsRegistry()
    previous = set_registry(fresh)
    yield fresh
    set_registry(previous)


@pytest.fixture()
def gate(monkeypatch):
    """Hold the worker inside its first batch until ``gate.release`` is set.

    Every batch calls ``module_fingerprint`` first, so while the first
    batch waits there, the requests submitted meanwhile queue up and the
    next batch takes them all: tests force batching instead of timing it.
    """
    real_fingerprint = service_mod.module_fingerprint
    gate = SimpleNamespace(entered=threading.Event(), release=threading.Event())

    def gated_fingerprint(module):
        if not gate.entered.is_set():
            gate.entered.set()
            gate.release.wait(timeout=30.0)
        return real_fingerprint(module)

    monkeypatch.setattr(service_mod, "module_fingerprint", gated_fingerprint)
    yield gate
    gate.release.set()


@pytest.fixture(scope="module")
def corpus():
    graphs, dim, classes = prepare_dataset("IMDB-B", 20, np.random.default_rng(7))
    return graphs, dim, classes


@pytest.fixture(scope="module")
def model(corpus):
    graphs, dim, classes = corpus
    model = make_classifier("HAP", dim, classes, np.random.default_rng(3))
    model.eval()
    return model


class TestFaithfulness:
    def test_classify_matches_offline_predict(self, registry, model, corpus):
        graphs = corpus[0]
        offline = [model.predict(g) for g in graphs]
        with InferenceService(model, max_batch_size=8) as service:
            assert service.classify_many(graphs) == offline

    def test_embed_is_bitwise_offline_on_miss_and_hit(self, registry, model, corpus):
        graphs = corpus[0]
        offline = np.asarray(model.embed(graphs[0]))
        with InferenceService(model) as service:
            miss = service.embed(graphs[0])
            hit = service.embed(graphs[0])
        assert np.array_equal(np.asarray(miss), offline)  # bitwise, not allclose
        assert np.array_equal(np.asarray(hit), offline)
        assert service.cache.hits == 1 and service.cache.misses == 1
        assert miss.graph_hash == hit.graph_hash
        assert miss.model_fingerprint == hit.model_fingerprint

    def test_classify_through_cached_embedding_matches(self, registry, model, corpus):
        graphs = corpus[0]
        offline = [model.predict(g) for g in graphs[:6]]
        with InferenceService(model) as service:
            for graph in graphs[:6]:
                service.embed(graph)  # populate the cache
            hits_before = service.cache.hits
            served = [service.classify(g) for g in graphs[:6]]
        assert served == offline
        assert service.cache.hits > hits_before  # head ran from the cache

    def test_regression_model_serves_its_offline_target(self, registry):
        """A regression head serves ``predict``'s float target, not a
        class index: exactly on one-graph misses and on cache hits, and
        to float round-off on a coalesced ragged batch."""
        graphs, dim, _ = prepare_dataset("ESOL", 6, np.random.default_rng(5))
        model = make_classifier(
            "HAP", dim, 0, np.random.default_rng(3), hidden=8,
            cluster_sizes=(4, 1), conv="gin", task="regression",
            edge_features=max(g.num_edge_features for g in graphs),
        )
        model.eval()
        offline = [model.predict(g) for g in graphs]
        with InferenceService(model) as service:
            coalesced = service.classify_many(graphs)
            misses = [service.classify(g) for g in graphs]
            for graph in graphs:
                service.embed(graph)  # populate the cache
            hits_before = service.cache.hits
            hits = [service.classify(g) for g in graphs]
        assert all(isinstance(value, float) for value in offline)
        assert misses == offline
        assert hits == offline
        assert service.cache.hits - hits_before == len(graphs)
        np.testing.assert_allclose(coalesced, offline, rtol=0, atol=1e-9)

    def test_a_bond_type_change_is_not_served_from_the_cache(self, registry):
        """Two molecules that differ only in one bond's type: the service
        embeds each as the offline model does, instead of answering the
        second from the first one's cache entry."""
        graphs, dim, _ = prepare_dataset("ESOL", 4, np.random.default_rng(0))
        graph = graphs[0]
        rolled = graph.edge_features.copy()
        i, j = np.argwhere(np.triu(graph.adjacency, 1))[0]
        rolled[i, j] = rolled[j, i] = np.roll(rolled[i, j], 1)
        other = graph.with_edge_features(rolled)
        model = make_classifier(
            "HAP", dim, 0, np.random.default_rng(0), hidden=8,
            cluster_sizes=(4, 1), conv="gin", task="regression",
            edge_features=graph.num_edge_features,
        )
        model.eval()
        offline = [model.embed(g).vector for g in (graph, other)]
        assert not np.array_equal(offline[0], offline[1])
        with InferenceService(model) as service:
            served = [service.embed(g) for g in (graph, other)]
            assert served[0].graph_hash != served[1].graph_hash
            for result, vector in zip(served, offline):
                np.testing.assert_array_equal(result.vector, vector)
            assert service.classify(other) == model.predict(other)

    def test_weight_update_invalidates_served_embeddings(
        self, registry, model, corpus
    ):
        graphs = corpus[0]
        parameter = dict(model.named_parameters())["fc1.weight"]
        with InferenceService(model) as service:
            before = service.embed(graphs[0])
            parameter.data += 1.0
            try:
                after = service.embed(graphs[0])
            finally:
                parameter.data -= 1.0
        assert after.model_fingerprint != before.model_fingerprint
        # the stale entry was purged, not served
        assert service.cache.stats()["size"] == 1
        recovered = service.cache.get(before.model_fingerprint, before.graph_hash)
        assert recovered is None


class TestMicroBatching:
    def test_concurrent_requests_coalesce(self, registry, model, corpus, gate):
        graphs = corpus[0]
        with InferenceService(model, max_batch_size=8) as service:
            first = service.submit("classify", graphs[8])
            assert gate.entered.wait(timeout=5.0)
            barrier = threading.Barrier(8, timeout=5.0)
            futures = [None] * 8

            def client(i):
                barrier.wait()
                futures[i] = service.submit("classify", graphs[i])

            threads = [threading.Thread(target=client, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=5.0)
                assert not t.is_alive()
            gate.release.set()
            results = [f.result(timeout=5.0) for f in futures]
            assert first.result(timeout=5.0) == model.predict(graphs[8])
            stats = service.stats()
        assert results == [model.predict(g) for g in graphs[:8]]
        # the gated batch, then all eight queued requests in one batch
        assert stats["batches"] == 2
        assert stats["batch_size"]["max"] == 8
        assert stats["counters"]["serve/requests_classify"] == 9

    def test_serial_service_runs_one_request_per_batch(self, registry, model, corpus):
        graphs = corpus[0]
        with InferenceService(model, max_batch_size=1) as service:
            for graph in graphs[:5]:
                service.classify(graph)
            stats = service.stats()
        assert stats["batches"] == 5
        assert stats["batch_size"]["max"] == 1

    def test_loadgen_reports_percentiles_and_batching(
        self, registry, model, corpus, gate
    ):
        graphs = corpus[0]
        with InferenceService(model, max_batch_size=8) as service:
            # Open the gate once every client has a request in: none can
            # send a second before its first is answered, so the first
            # four requests share at most two batches.
            submitted = itertools.count(1)
            real_submit = service.submit

            def submit(*args, **kwargs):
                future = real_submit(*args, **kwargs)
                if next(submitted) == 4:
                    gate.release.set()
                return future

            service.submit = submit
            report = run_closed_loop(
                service, graphs[:8], kind="classify", clients=4, requests_per_client=4
            )
        assert report.requests == 16 and report.errors == 0
        assert report.throughput_rps > 0
        assert 0 < report.p50_s <= report.p99_s
        assert report.mean_batch_size > 1.0  # micro-batching engaged
        payload = report.to_dict()
        assert payload["kind"] == "classify" and payload["clients"] == 4

    def test_a_lone_request_is_served_with_the_clock_frozen(
        self, registry, model, corpus, monkeypatch
    ):
        """The worker serves what is queued without waiting for company:
        with the service's clock stopped, no timer can ever expire, and a
        lone request far below ``max_batch_size`` is still answered."""
        graphs = corpus[0]
        monkeypatch.setattr(service_mod, "time", SimpleNamespace(monotonic=lambda: 0.0))
        with InferenceService(model, max_batch_size=64) as service:
            assert service.classify(graphs[0], timeout=1.0) == model.predict(graphs[0])


class TestTopK:
    def test_query_is_its_own_nearest_neighbour(self, registry, model, corpus):
        graphs = corpus[0]
        with InferenceService(model) as service:
            for i, graph in enumerate(graphs[:10]):
                service.add_to_index(i, graph)
            neighbors = service.top_k(graphs[4], 3)
        assert len(neighbors) == 3
        assert neighbors[0] == Neighbor(key=4, distance=0.0)
        distances = [n.distance for n in neighbors]
        assert distances == sorted(distances)

    def test_offline_build_index_matches_service_retrieval(self, model, corpus):
        graphs = corpus[0]
        index = build_index(model, graphs[:10])
        with InferenceService(model, index=index) as service:
            online = service.top_k(graphs[2], 4)
        offline = index.top_k(np.asarray(model.embed(graphs[2])), 4)
        assert online == offline

    def test_index_rejects_wrong_dimension(self):
        index = EmbeddingIndex(4)
        with pytest.raises(ValueError, match="dimension"):
            index.add("a", np.zeros(5))
        index.add("a", np.zeros(4))
        with pytest.raises(ValueError, match="dimension"):
            index.top_k(np.zeros(3), 1)


class TestErrorHandling:
    def test_unknown_kind_rejected_at_submit(self, registry, model):
        with InferenceService(model) as service:
            with pytest.raises(ValueError, match="unknown request kind"):
                service.submit("rank", None)

    def test_non_graph_rejected_at_submit(self, registry, model):
        with InferenceService(model) as service:
            with pytest.raises(TypeError, match="expected a Graph"):
                service.submit("classify", np.zeros(3))

    def test_top_k_without_index_fails_only_its_future(
        self, registry, model, corpus
    ):
        graphs = corpus[0]
        with InferenceService(model) as service:
            with pytest.raises(RuntimeError, match="no similarity index"):
                service.top_k(graphs[0], 2)
            # the service is still healthy afterwards
            assert service.classify(graphs[0]) == model.predict(graphs[0])

    def test_submit_after_close_raises(self, registry, model, corpus):
        graphs = corpus[0]
        service = InferenceService(model).start()
        service.close()
        with pytest.raises(RuntimeError, match="not running"):
            service.submit("classify", graphs[0])

    def test_close_drains_outstanding_requests(self, registry, model, corpus):
        graphs = corpus[0]
        service = InferenceService(model, max_batch_size=4).start()
        futures = [service.submit("classify", g) for g in graphs[:4]]
        service.close()  # must answer everything already queued
        assert [f.result(0) for f in futures] == [model.predict(g) for g in graphs[:4]]

    def test_worker_failure_fails_the_batch_and_keeps_serving(
        self, registry, model, corpus, monkeypatch
    ):
        graphs = corpus[0]
        real_fingerprint = service_mod.module_fingerprint
        calls = []

        def fingerprint_failing_once(module):
            calls.append(module)
            if len(calls) == 1:
                raise RuntimeError("injected fingerprint failure")
            return real_fingerprint(module)

        monkeypatch.setattr(service_mod, "module_fingerprint", fingerprint_failing_once)
        with InferenceService(model) as service:
            first = service.submit("classify", graphs[0])
            with pytest.raises(RuntimeError, match="injected fingerprint failure"):
                first.result(timeout=1.0)
            # the worker survived: the next request is answered
            assert service.classify(graphs[1], timeout=1.0) == model.predict(graphs[1])

    def test_constructor_validation(self, model):
        with pytest.raises(ValueError, match="max_batch_size"):
            InferenceService(model, max_batch_size=0)


class TestObservability:
    def test_metrics_and_spans_recorded(self, registry, model, corpus):
        graphs = corpus[0]
        with InferenceService(model) as service:
            service.classify(graphs[0])
            service.embed(graphs[1])
            stats = service.stats()
        snapshot = registry.snapshot()
        assert snapshot["counters"]["serve/requests_classify"] == 1
        assert snapshot["counters"]["serve/requests_embed"] == 1
        assert snapshot["counters"]["serve/batches"] >= 1
        assert snapshot["histograms"]["serve/latency_s"]["count"] == 2
        assert snapshot["histograms"]["serve/batch_size"]["count"] >= 1
        assert "serve/queue_depth" in snapshot["gauges"]
        spans = stats["last_batch_spans"]
        assert spans["name"] == "serve/batch"
        child_names = {child["name"] for child in spans["children"]}
        assert "serve/fingerprint" in child_names
