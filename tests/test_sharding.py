"""Shard store + streaming loader unit suite (marker: ``streaming``).

Locks down the ``repro.shard/v3`` contract of docs/streaming.md:

- manifests and content checksums round-trip bitwise through
  ``write_shards`` / ``read_shard`` at any (corpus, shard_size)
  combination, ragged final shard included (hypothesis property tests);
- corruption (truncation, bit flips, a missing file) surfaces as a
  typed :class:`ShardCorruptionError` naming the damaged shard, and
  :func:`rebuild_shard` repairs exactly that shard from its recorded
  seed recipe;
- shard writes are atomic — a crash between the tmp write and the
  rename never leaves a manifest pointing at half-written files;
- :class:`StreamingDataset` serves graphs bitwise-identical to the
  in-memory loader and loads shards on the reading thread;
- a planned epoch (``plan_epoch``) loads exactly the shards a short
  reference model of the graph window predicts while holding fewer
  than ``max_cached_shards · shard_size`` decoded graphs, and a flat
  permutation never loads more than an LRU window of whole shards
  would (hypothesis property tests);
- every load builds only the graphs its reads need, one per read, yet
  verifies the whole shard: a damaged graph no read asks for still
  fails the load.
"""

from __future__ import annotations

import pickle
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.data.datasets as datasets_module
from repro.data.cache import load_dataset_cached
from repro.data.io import load_graphs
from repro.data.sharding import (
    ShardCorruptionError,
    content_checksum,
    load_manifest,
    read_shard,
    rebuild_shard,
    shard_dataset,
    shard_path,
    write_shards,
)
from repro.data.streaming import StreamingDataset
from repro.graph.graph import Graph
from repro.observe.metrics import MetricsRegistry, set_registry
from tests.faults import (
    InjectedFault,
    crash_on_replace,
    flip_bytes,
    truncate_file,
)

pytestmark = pytest.mark.streaming

NAME, N, SEED, SHARD = "MUTAG", 24, 7, 7  # 4 shards, ragged last (3)


def _graph_fingerprint(g: Graph) -> tuple:
    return (
        g.adjacency.tobytes(),
        None if g.node_labels is None else g.node_labels.tobytes(),
        None if g.features is None else g.features.tobytes(),
        g.label,
    )


def _tiny_graphs(count: int) -> list[Graph]:
    """Cheap deterministic graphs for property tests (no builder cost)."""
    out = []
    for i in range(count):
        n = 2 + i % 3
        adjacency = np.zeros((n, n))
        for j in range(n - 1):
            adjacency[j, j + 1] = adjacency[j + 1, j] = 1.0
        out.append(
            Graph(
                adjacency,
                node_labels=np.arange(n) % 4,
                label=i % 2,
            )
        )
    return out


@pytest.fixture()
def fresh_registry():
    """Swap in an empty metrics registry and restore the previous one."""
    fresh = MetricsRegistry()
    previous = set_registry(fresh)
    yield fresh
    set_registry(previous)


@pytest.fixture()
def built(monkeypatch):
    """Every ``Graph`` constructed from here on, in order."""
    graphs: list[Graph] = []
    original = Graph.__post_init__

    def counting(graph):
        original(graph)
        graphs.append(graph)

    monkeypatch.setattr(Graph, "__post_init__", counting)
    return graphs


@pytest.fixture()
def shard_dir(tmp_path):
    shard_dataset(NAME, N, SEED, tmp_path / "shards", shard_size=SHARD)
    return tmp_path / "shards"


# ---------------------------------------------------------------------------
# manifest / checksum round trip
# ---------------------------------------------------------------------------

class TestShardRoundTrip:
    def test_manifest_records_layout_and_provenance(self, shard_dir):
        manifest = load_manifest(shard_dir)
        assert manifest.schema == "repro.shard/v3"
        assert manifest.name == NAME
        assert manifest.counts == [7, 7, 7, 3]
        assert manifest.num_graphs == N
        assert manifest.shard_size == SHARD
        assert manifest.encoding == "label"
        assert manifest.num_classes == 2
        assert manifest.generator_version == datasets_module.GENERATOR_VERSION
        assert manifest.source == {
            "dataset": NAME, "num_graphs": N, "seed": SEED,
            "generation": "monolithic",
        }
        assert len(manifest.checksums) == 4
        assert len(manifest.labels) == N

    def test_shards_round_trip_bitwise(self, shard_dir):
        from repro.data.cache import DatasetCache

        reference = DatasetCache().get_or_build(NAME, N, SEED)
        manifest = load_manifest(shard_dir)
        streamed = []
        for index in range(manifest.num_shards):
            streamed.extend(read_shard(shard_dir, index, manifest=manifest))
        assert [_graph_fingerprint(g) for g in streamed] == [
            _graph_fingerprint(g) for g in reference
        ]

    def test_manifest_labels_match_graphs(self, shard_dir):
        manifest = load_manifest(shard_dir)
        graphs = []
        for index in range(manifest.num_shards):
            graphs.extend(read_shard(shard_dir, index, manifest=manifest))
        assert manifest.labels == [g.label for g in graphs]

    def test_labels_keep_their_type(self, shard_dir, tmp_path):
        """Regression targets stay floats; class labels stay ints."""
        shard_dataset("ESOL", 12, SEED, tmp_path / "esol", shard_size=5)
        targets = [g.label for g in load_dataset_cached("ESOL", 12, SEED)[0]]
        labels = StreamingDataset(tmp_path / "esol").labels
        assert labels.dtype == np.float64
        assert labels.tolist() == targets
        classes = StreamingDataset(shard_dir).labels
        assert classes.dtype.kind == "i"
        assert classes.tolist() == [
            g.label for g in load_dataset_cached(NAME, N, SEED)[0]
        ]

    def test_shard_dataset_is_idempotent(self, shard_dir):
        before = [
            shard_path(shard_dir, i).stat().st_mtime_ns for i in range(4)
        ]
        shard_dataset(NAME, N, SEED, shard_dir, shard_size=SHARD)
        after = [
            shard_path(shard_dir, i).stat().st_mtime_ns for i in range(4)
        ]
        assert before == after, "matching shard store was rewritten"

    def test_changed_config_triggers_rewrite(self, shard_dir):
        manifest = shard_dataset(NAME, N, SEED + 1, shard_dir, shard_size=SHARD)
        assert manifest.source["seed"] == SEED + 1

    def test_stale_generator_version_triggers_rewrite(
        self, shard_dir, monkeypatch
    ):
        monkeypatch.setattr(datasets_module, "GENERATOR_VERSION", 999)
        manifest = shard_dataset(NAME, N, SEED, shard_dir, shard_size=SHARD)
        assert manifest.generator_version == 999

    def test_chunked_generation_bounds_writer_memory_per_shard(self, tmp_path):
        manifest = shard_dataset(
            NAME, 25, SEED, tmp_path / "ch", shard_size=8, chunked=True
        )
        assert manifest.counts == [8, 8, 8, 1]
        assert manifest.source["generation"] == "per-shard"
        # every shard independently verifiable and rebuildable
        for index in range(manifest.num_shards):
            read_shard(tmp_path / "ch", index)
        rebuild_shard(tmp_path / "ch", 2)
        read_shard(tmp_path / "ch", 2)

    def test_empty_iterable_is_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            write_shards([], tmp_path / "x", shard_size=4)

    def test_content_checksum_ignores_file_representation(self, tmp_path):
        graphs = _tiny_graphs(5)
        a = write_shards(graphs, tmp_path / "a", shard_size=2, name="t")
        b = write_shards(graphs, tmp_path / "b", shard_size=2, name="t")
        assert a.checksums == b.checksums
        assert content_checksum(graphs) != content_checksum(graphs[:-1])


# ---------------------------------------------------------------------------
# ragged boundaries (property tests)
# ---------------------------------------------------------------------------

class TestRaggedBoundaries:
    @settings(max_examples=20, deadline=None)
    @given(
        count=st.integers(min_value=1, max_value=23),
        shard_size=st.integers(min_value=1, max_value=9),
    )
    def test_any_layout_round_trips(self, tmp_path_factory, count, shard_size):
        tmp = tmp_path_factory.mktemp("ragged")
        graphs = _tiny_graphs(count)
        manifest = write_shards(graphs, tmp, shard_size, name="tiny")
        assert manifest.num_graphs == count
        assert sum(manifest.counts) == count
        full, ragged = divmod(count, shard_size)
        assert manifest.counts == [shard_size] * full + (
            [ragged] if ragged else []
        )
        restored = []
        for index in range(manifest.num_shards):
            restored.extend(read_shard(tmp, index, manifest=manifest))
        assert [_graph_fingerprint(g) for g in restored] == [
            _graph_fingerprint(g) for g in graphs
        ]

    @settings(max_examples=15, deadline=None)
    @given(
        count=st.integers(min_value=1, max_value=23),
        shard_size=st.integers(min_value=1, max_value=9),
        seed=st.integers(min_value=0, max_value=50),
    )
    def test_streaming_indexing_matches_source_at_any_layout(
        self, tmp_path_factory, count, shard_size, seed
    ):
        tmp = tmp_path_factory.mktemp("ragged_stream")
        graphs = _tiny_graphs(count)
        write_shards(graphs, tmp, shard_size, name="tiny")
        stream = StreamingDataset(tmp, max_cached_shards=1)
        assert len(stream) == count
        order = np.random.default_rng(seed).permutation(count)
        assert [_graph_fingerprint(stream[i]) for i in order] == [
            _graph_fingerprint(graphs[i]) for i in order
        ]


# ---------------------------------------------------------------------------
# corruption -> typed error -> single-shard rebuild
# ---------------------------------------------------------------------------

class TestCorruption:
    def test_truncated_shard_raises_typed_error_naming_the_shard(
        self, shard_dir
    ):
        truncate_file(shard_path(shard_dir, 2), keep_bytes=64)
        with pytest.raises(ShardCorruptionError) as excinfo:
            read_shard(shard_dir, 2)
        assert excinfo.value.shard == 2
        assert "shard_00002.npz" in str(excinfo.value)

    def test_flipped_bytes_fail_the_content_checksum(self, shard_dir):
        path = shard_path(shard_dir, 1)
        size = path.stat().st_size
        flip_bytes(path, [size // 2, size // 2 + 1, size // 2 + 2])
        with pytest.raises(ShardCorruptionError) as excinfo:
            read_shard(shard_dir, 1)
        assert excinfo.value.shard == 1

    def test_missing_shard_file_raises_typed_error(self, shard_dir):
        shard_path(shard_dir, 0).unlink()
        with pytest.raises(ShardCorruptionError, match="missing"):
            read_shard(shard_dir, 0)

    def test_rebuild_restores_only_the_damaged_shard(self, shard_dir):
        manifest = load_manifest(shard_dir)
        untouched = shard_path(shard_dir, 0).read_bytes()
        truncate_file(shard_path(shard_dir, 2), keep_bytes=64)
        rebuild_shard(shard_dir, 2)
        rebuilt = read_shard(shard_dir, 2)
        assert content_checksum(rebuilt) == manifest.checksums[2]
        assert shard_path(shard_dir, 0).read_bytes() == untouched

    def test_rebuild_without_a_recipe_is_refused(self, tmp_path):
        write_shards(_tiny_graphs(6), tmp_path / "raw", shard_size=4)
        with pytest.raises(ValueError, match="recipe"):
            rebuild_shard(tmp_path / "raw", 0)

    def test_error_is_picklable_for_prefetch_workers(self):
        error = ShardCorruptionError(3, "/tmp/shard_00003.npz", "truncated")
        clone = pickle.loads(pickle.dumps(error))
        assert isinstance(clone, ShardCorruptionError)
        assert (clone.shard, clone.path) == (3, "/tmp/shard_00003.npz")
        assert "shard 3" in str(clone)

    def test_streaming_iteration_surfaces_corruption_mid_epoch(
        self, shard_dir
    ):
        stream = StreamingDataset(shard_dir, max_cached_shards=1)
        consumed = [stream[i].label for i in range(7)]  # shard 0 is fine
        assert len(consumed) == 7
        truncate_file(shard_path(shard_dir, 1), keep_bytes=64)
        with pytest.raises(ShardCorruptionError) as excinfo:
            stream[7]  # first index of the now-damaged shard 1
        assert excinfo.value.shard == 1
        assert "shard_00001.npz" in str(excinfo.value)

    def test_an_altered_manifest_checksum_raises(self, shard_dir):
        """Every read verifies: a shard that decodes fine but no longer
        matches its manifest checksum is corrupt."""
        manifest_path = shard_dir / "manifest.json"
        text = manifest_path.read_text()
        manifest = load_manifest(shard_dir)
        text = text.replace(manifest.checksums[0], "0" * 64)
        manifest_path.write_text(text)
        with pytest.raises(ShardCorruptionError, match="checksum"):
            read_shard(shard_dir, 0)
        assert len(read_shard(shard_dir, 1)) == 7


# ---------------------------------------------------------------------------
# atomic writes
# ---------------------------------------------------------------------------

class TestAtomicWrites:
    def test_crash_during_shard_write_leaves_no_manifest(self, tmp_path):
        # shards 0 and 1 land, the third shard's rename crashes
        with crash_on_replace(after=2), pytest.raises(InjectedFault):
            write_shards(_tiny_graphs(10), tmp_path / "x", shard_size=3)
        # no manifest -> the directory never claims to be a shard store
        assert not (tmp_path / "x" / "manifest.json").exists()
        with pytest.raises(FileNotFoundError):
            load_manifest(tmp_path / "x")
        assert sorted(p.name for p in (tmp_path / "x").iterdir()) == [
            "shard_00000.npz", "shard_00001.npz",
        ]

    def test_crash_during_manifest_write_preserves_absence(self, tmp_path):
        # both shards land, the manifest's rename crashes
        with crash_on_replace(after=2), pytest.raises(InjectedFault):
            write_shards(_tiny_graphs(6), tmp_path / "x", shard_size=3)
        assert not (tmp_path / "x" / "manifest.json").exists()
        assert sorted(p.name for p in (tmp_path / "x").iterdir()) == [
            "shard_00000.npz", "shard_00001.npz",
        ]


# ---------------------------------------------------------------------------
# streaming dataset: sequence protocol, metadata, lifecycle
# ---------------------------------------------------------------------------

class TestStreamingDataset:
    def test_sequence_protocol_and_metadata(self, shard_dir):
        stream = StreamingDataset(shard_dir)
        assert len(stream) == N
        assert stream.num_shards == 4
        assert stream.feature_dim == 4  # label encoding -> NUM_ATOM_TYPES
        assert stream.num_classes == 2
        assert stream.labels.tolist() == load_manifest(shard_dir).labels
        assert stream.shard_of(0) == 0
        assert stream.shard_of(7) == 1
        assert stream.shard_of(N - 1) == 3
        with pytest.raises(IndexError):
            stream[N]
        assert stream[-1].label == stream[N - 1].label

    def test_graphs_match_in_memory_loader_bitwise(self, shard_dir):
        reference, dim, _ = load_dataset_cached(NAME, N, SEED)
        stream = StreamingDataset(shard_dir)
        assert stream.feature_dim == dim
        assert [_graph_fingerprint(stream[i]) for i in range(N)] == [
            _graph_fingerprint(g) for g in reference
        ]

    def test_sequential_epoch_loads_each_shard_once(
        self, shard_dir, fresh_registry
    ):
        stream = StreamingDataset(shard_dir, max_cached_shards=1)
        assert sum(1 for _ in stream) == N
        counters = fresh_registry.snapshot()["counters"]
        assert counters["streaming/shard_loads"] == 4

    def test_subset_view_maps_through_to_parent(self, shard_dir):
        reference, _, _ = load_dataset_cached(NAME, N, SEED)
        stream = StreamingDataset(shard_dir)
        picks = [3, 9, 20, 0]
        view = stream.subset(picks)
        assert len(view) == 4
        assert [_graph_fingerprint(view[i]) for i in range(4)] == [
            _graph_fingerprint(reference[i]) for i in picks
        ]
        assert view.labels.tolist() == [reference[i].label for i in picks]
        assert view.feature_dim == stream.feature_dim
        assert [g.label for g in view] == [reference[i].label for i in picks]
        with pytest.raises(IndexError):
            stream.subset([0, N])

    def test_pickled_dataset_reopens_cleanly(self, shard_dir):
        stream = StreamingDataset(shard_dir)
        iterator = iter(stream)
        next(iterator)  # plan the sequential order and hold shard 0's rest
        assert stream._held
        clone = pickle.loads(pickle.dumps(stream))
        stream.close()
        assert _resident(clone) == 0
        assert _graph_fingerprint(clone[5]) == _graph_fingerprint(
            StreamingDataset(shard_dir)[5]
        )
        clone.close()

    def test_fetch_key_is_stable(self, shard_dir):
        stream = StreamingDataset(shard_dir)
        first = stream._load(0, range(SHARD))
        second = stream._load(0, range(SHARD))
        assert first is not second
        assert [_graph_fingerprint(g) for g in first] == [
            _graph_fingerprint(g) for g in second
        ]

    def test_invalid_construction_is_rejected(self, shard_dir):
        with pytest.raises(ValueError, match="max_cached_shards"):
            StreamingDataset(shard_dir, max_cached_shards=0)
        with pytest.raises(FileNotFoundError):
            StreamingDataset(shard_dir / "nope")


# ---------------------------------------------------------------------------
# planned-read window: exact load schedule, bounded residency
# ---------------------------------------------------------------------------

def _window_loads(shards: list[int], budget: int) -> int:
    """Reference model of the planned-read window.

    A read the window holds is free; any other read loads its shard,
    and the window then keeps the ``budget - 1`` nearest upcoming
    positions among the ones it held and that shard's later reads.
    """
    held: set[int] = set()
    loads = 0
    for position, shard in enumerate(shards):
        if position in held:
            held.discard(position)
            continue
        loads += 1
        later = {q for q in range(position + 1, len(shards)) if shards[q] == shard}
        held = set(sorted(held | later)[: budget - 1])
    return loads


def _lru_loads(shards: list[int], window: int) -> int:
    """Loads of a plain LRU window of ``window`` whole shards."""
    cache: list[int] = []
    loads = 0
    for shard in shards:
        if shard in cache:
            cache.remove(shard)
        else:
            loads += 1
            if len(cache) == window:
                cache.pop(0)
        cache.append(shard)
    return loads


def _resident(stream: StreamingDataset) -> int:
    """Decoded graphs the dataset holds for its plan."""
    return len(stream._held)


def _shard_loads(registry: MetricsRegistry) -> float:
    return registry.snapshot()["counters"].get("streaming/shard_loads", 0.0)


class TestPlannedWindow:
    """``plan_epoch`` turns an order into an exact, bounded load schedule."""

    @settings(max_examples=25, deadline=None)
    @given(
        num_graphs=st.integers(min_value=1, max_value=40),
        shard_size=st.integers(min_value=1, max_value=9),
        max_cached_shards=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_flat_epoch_is_exact_bitwise_and_bounded(
        self, tmp_path_factory, num_graphs, shard_size, max_cached_shards, seed
    ):
        tmp = tmp_path_factory.mktemp("window")
        shard_dataset(NAME, num_graphs, SEED, tmp, shard_size)
        reference, _, _ = load_dataset_cached(NAME, num_graphs, SEED)
        budget = max_cached_shards * shard_size
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            stream = StreamingDataset(tmp, max_cached_shards=max_cached_shards)
            order = np.random.default_rng(seed).permutation(num_graphs)
            stream.plan_epoch(order)
            for index in order:
                graph = stream[int(index)]
                assert _graph_fingerprint(graph) == _graph_fingerprint(
                    reference[index]
                )
                assert _resident(stream) < budget
            stream.close()
        finally:
            set_registry(previous)
        shards = (order // shard_size).tolist()
        loads = _shard_loads(registry)
        assert loads == _window_loads(shards, budget)
        assert loads <= _lru_loads(shards, max_cached_shards)

    def test_flat_epoch_loads_far_fewer_shards_than_the_lru_window(
        self, tmp_path, fresh_registry
    ):
        # fit's layout in miniature: a flat permutation over 8 shards
        shard_dataset(NAME, 48, SEED, tmp_path / "sh", shard_size=6)
        stream = StreamingDataset(tmp_path / "sh", max_cached_shards=2)
        order = np.random.default_rng(0).permutation(48)
        stream.plan_epoch(order)
        for index in order:
            stream[int(index)]
        shards = (order // 6).tolist()
        assert _shard_loads(fresh_registry) == _window_loads(shards, 12)
        assert _shard_loads(fresh_registry) < _lru_loads(shards, 2) / 2

    def test_view_plan_with_repeated_indices(self, shard_dir, fresh_registry):
        reference, _, _ = load_dataset_cached(NAME, N, SEED)
        stream = StreamingDataset(shard_dir, max_cached_shards=1)
        picks = np.array([3, 3, 9, 20, 3, 9, 0, 20, 20])
        view = stream.subset(picks)
        local = np.array([0, 1, 4, 2, 5, 3, 7, 8, 6, 0, 0])
        view.plan_epoch(local)
        got = [_graph_fingerprint(view[int(i)]) for i in local]
        assert got == [_graph_fingerprint(reference[picks[i]]) for i in local]
        shards = (picks[local] // SHARD).tolist()
        assert _shard_loads(fresh_registry) == _window_loads(shards, SHARD)
        assert _resident(stream) == 0

    def test_off_plan_read_mid_epoch_leaves_the_plan_intact(
        self, shard_dir, fresh_registry
    ):
        reference, _, _ = load_dataset_cached(NAME, N, SEED)
        stream = StreamingDataset(shard_dir, max_cached_shards=2)
        order = np.random.default_rng(4).permutation(N)
        stream.plan_epoch(order)
        for index in order[:10]:
            stream[int(index)]
        held = dict(stream._held)
        stray = int(order[3])  # already read: not the next planned index
        assert _graph_fingerprint(stream[stray]) == _graph_fingerprint(
            reference[stray]
        )
        assert stream._held == held
        got = [_graph_fingerprint(stream[int(i)]) for i in order[10:]]
        assert got == [_graph_fingerprint(reference[i]) for i in order[10:]]
        shards = (order // SHARD).tolist()
        assert _shard_loads(fresh_registry) == _window_loads(shards, 2 * SHARD) + 1

    def test_second_plan_mid_epoch_drops_the_old_residency(
        self, shard_dir, fresh_registry
    ):
        reference, _, _ = load_dataset_cached(NAME, N, SEED)
        stream = StreamingDataset(shard_dir, max_cached_shards=2)
        first = np.random.default_rng(5).permutation(N)
        stream.plan_epoch(first)
        for index in first[:5]:
            stream[int(index)]
        stream[int(first[0])]  # an off-plan read keeps the old plan
        assert stream._held
        loads_before = _shard_loads(fresh_registry)
        second = np.random.default_rng(6).permutation(N)
        stream.plan_epoch(second)
        assert _resident(stream) == 0
        got = [_graph_fingerprint(stream[int(i)]) for i in second]
        assert got == [_graph_fingerprint(reference[i]) for i in second]
        shards = (second // SHARD).tolist()
        assert _shard_loads(fresh_registry) - loads_before == _window_loads(
            shards, 2 * SHARD
        )

    def test_pickles_mid_epoch_with_no_resident_graphs(self, shard_dir):
        reference, _, _ = load_dataset_cached(NAME, N, SEED)
        stream = StreamingDataset(shard_dir)
        order = np.random.default_rng(7).permutation(N)
        stream.plan_epoch(order)
        for index in order[:6]:
            stream[int(index)]
        assert stream._held
        clone = pickle.loads(pickle.dumps(stream))
        stream.close()
        assert _resident(clone) == 0 and clone._plan is None
        assert [_graph_fingerprint(clone[int(i)]) for i in order] == [
            _graph_fingerprint(reference[i]) for i in order
        ]
        clone.close()

    def test_iteration_shares_the_planned_path(self, shard_dir):
        reference, _, _ = load_dataset_cached(NAME, N, SEED)
        stream = StreamingDataset(shard_dir, max_cached_shards=1)
        iterator = iter(stream)
        head = [next(iterator) for _ in range(3)]
        assert stream._plan.cursor == 3
        rest = list(iterator)
        assert [_graph_fingerprint(g) for g in head + rest] == [
            _graph_fingerprint(g) for g in reference
        ]

    def test_load_wait_counts_blocked_seconds(self, shard_dir, fresh_registry):
        stream = StreamingDataset(shard_dir)
        start = time.perf_counter()
        for _ in stream:
            pass
        elapsed = time.perf_counter() - start
        stream.close()
        counters = fresh_registry.snapshot()["counters"]
        assert counters["streaming/shard_loads"] == 4
        # every load runs on the reader's thread, inside the epoch
        assert 0.0 < counters["streaming/load_wait_s"] <= elapsed

    def test_planned_epoch_starts_no_thread(self, shard_dir, fresh_registry):
        before = set(threading.enumerate())
        stream = StreamingDataset(shard_dir, max_cached_shards=1)
        rng = np.random.default_rng(6)
        # shard by shard, each shuffled: one load per shard
        order = np.concatenate([
            stream._offsets[shard] + rng.permutation(stream.manifest.counts[shard])
            for shard in rng.permutation(stream.num_shards)
        ])
        stream.plan_epoch(order)
        for index in order:
            stream[int(index)]
            assert set(threading.enumerate()) <= before
        assert fresh_registry.snapshot()["counters"]["streaming/shard_loads"] == 4
        stream.close()

    def test_plan_outside_the_corpus_is_rejected(self, shard_dir):
        stream = StreamingDataset(shard_dir)
        with pytest.raises(IndexError, match="plan"):
            stream.plan_epoch([0, N])


def _relabel_last_node(path) -> None:
    """Re-save a shard with its last graph's last node label changed.

    Every graph still decodes and validates; only the checksum tells.
    """
    with np.load(path) as archive:
        members = {key: archive[key] for key in archive.files}
    labels = members["node_labels"]
    labels[-1] = (labels[-1] + 1) % datasets_module.NUM_ATOM_TYPES
    np.savez_compressed(path, **members)


class TestLoadsBuildWhatTheyServe:
    """A load verifies its whole shard but builds only the graphs its
    reads need: one ``Graph`` per read, none for the rest of the shard."""

    def test_flat_epoch_builds_one_graph_per_read(self, tmp_path, built):
        # fit's layout in miniature: a flat permutation over 8 shards
        shard_dataset(NAME, 48, SEED, tmp_path / "sh", shard_size=6)
        reference, _, _ = load_dataset_cached(NAME, 48, SEED)
        stream = StreamingDataset(tmp_path / "sh", max_cached_shards=2)
        order = np.random.default_rng(0).permutation(48)
        stream.plan_epoch(order)
        built.clear()
        got = [_graph_fingerprint(stream[int(i)]) for i in order]
        assert len(built) == 48
        assert got == [_graph_fingerprint(reference[i]) for i in order]

    def test_view_plan_with_repeated_indices_builds_one_graph_per_read(
        self, shard_dir, built
    ):
        reference, _, _ = load_dataset_cached(NAME, N, SEED)
        stream = StreamingDataset(shard_dir, max_cached_shards=1)
        picks = np.array([3, 3, 9, 20, 3, 9, 0, 20, 20])
        view = stream.subset(picks)
        local = np.array([0, 1, 4, 2, 5, 3, 7, 8, 6, 0, 0])
        view.plan_epoch(local)
        built.clear()
        got = [_graph_fingerprint(view[int(i)]) for i in local]
        assert len(built) == len(local)
        assert got == [_graph_fingerprint(reference[picks[i]]) for i in local]

    @pytest.mark.parametrize("planned", [True, False], ids=["planned", "off-plan"])
    def test_a_damaged_graph_no_read_asks_for_fails_the_load(
        self, shard_dir, built, planned
    ):
        path = shard_path(shard_dir, 1)  # graphs 7-13
        _relabel_last_node(path)  # graph 13
        assert len(load_graphs(path)[0]) == 7  # decodes and validates
        stream = StreamingDataset(shard_dir)
        if planned:
            stream.plan_epoch([7, 8])
        built.clear()
        with pytest.raises(ShardCorruptionError, match="checksum") as excinfo:
            stream[7]
        assert excinfo.value.shard == 1
        assert "shard_00001.npz" in str(excinfo.value)
        assert built == []

    def test_off_plan_read_builds_only_its_graph(
        self, shard_dir, built, fresh_registry
    ):
        reference, _, _ = load_dataset_cached(NAME, N, SEED)
        stream = StreamingDataset(shard_dir, max_cached_shards=2)
        order = np.random.default_rng(4).permutation(N)
        stream.plan_epoch(order)
        for index in order[:10]:
            stream[int(index)]
        held = dict(stream._held)
        loads = _shard_loads(fresh_registry)
        built.clear()
        stray = int(order[3])  # already read: not the next planned index
        assert _graph_fingerprint(stream[stray]) == _graph_fingerprint(
            reference[stray]
        )
        assert len(built) == 1
        assert stream._held == held
        assert _shard_loads(fresh_registry) == loads + 1


class TestMaterializeLint:
    """tools/lint.py forbids whole-corpus materialisation in streaming paths."""

    @pytest.fixture()
    def lint(self):
        import sys
        from pathlib import Path

        sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
        import lint

        yield lint
        sys.path.pop(0)

    def test_flags_list_over_a_dataset_in_a_stream_scope(self, lint, tmp_path):
        offender = tmp_path / "src" / "repro" / "thing.py"
        offender.parent.mkdir(parents=True)
        offender.write_text(
            "def stream_epoch(dataset):\n"
            "    return list(dataset), sorted(dataset)\n"
        )
        findings = lint.lint_file(offender)
        assert len(findings) == 2
        assert all("no-materialize-in-streaming-path" in f for f in findings)

    def test_streaming_modules_are_policed_at_module_level(self, lint, tmp_path):
        offender = tmp_path / "src" / "repro" / "streaming.py"
        offender.parent.mkdir(parents=True)
        offender.write_text("def load(shards):\n    return list(shards)\n")
        findings = lint.lint_file(offender)
        assert len(findings) == 1
        assert "no-materialize-in-streaming-path" in findings[0]

    def test_benign_collections_and_non_stream_scopes_pass(self, lint, tmp_path):
        clean = tmp_path / "src" / "repro" / "thing.py"
        clean.parent.mkdir(parents=True)
        clean.write_text(
            "def stream_epoch(counts):\n"
            "    return list(counts), list(range(3))\n"
            "def load(dataset):\n"
            "    return list(dataset)\n"
        )
        assert lint.lint_file(clean) == []

    def test_tests_may_materialise_both_sides(self, lint, tmp_path):
        exempt = tmp_path / "tests" / "test_streaming.py"
        exempt.parent.mkdir(parents=True)
        exempt.write_text("def stream_all(dataset):\n    return list(dataset)\n")
        assert lint.lint_file(exempt) == []

    def test_src_tree_is_currently_clean(self, lint):
        from pathlib import Path

        src = Path(__file__).resolve().parent.parent / "src"
        offenders = [
            finding
            for finding in lint.lint_paths([src])
            if "no-materialize-in-streaming-path" in finding
        ]
        assert offenders == []
