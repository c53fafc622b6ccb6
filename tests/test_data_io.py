"""Graph dataset persistence round-trips (marker: ``streaming``).

Shards and ``DatasetCache`` files are ``repro.data.io`` archives, so
this suite is part of the streaming gate.  Besides round trips it pins
the archive format (docs/streaming.md § Shard file layout):

- format-2 archives hold one flat member per field, and decoding hands
  every graph arrays that share memory with no other graph;
- a member with too few or too many values for its records is a
  ``ValueError``, a ``ShardCorruptionError`` naming the shard, or a
  cache rebuild, depending on the reader;
- a format-1 archive (one member per graph and field, written here by
  :func:`_save_format_1`) is a ``ValueError`` naming its format, and the
  dataset cache rebuilds one.
"""

import json
import zipfile
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

import repro.graph.graph as graph_module
from repro.data import load_graphs, save_graphs
from repro.data.cache import DatasetCache, clear_memory_cache, load_dataset_cached
from repro.data.datasets import (
    NUM_ATOM_TYPES,
    make_aids_like,
    make_esol_like,
    make_imdb_b_like,
)
from repro.data.encoding import attach_degree_features
from repro.data.sharding import (
    ShardCorruptionError,
    load_manifest,
    read_shard,
    shard_dataset,
    shard_path,
    write_shards,
)
from repro.data.streaming import StreamingDataset
from repro.observe.metrics import MetricsRegistry, set_registry

pytestmark = pytest.mark.streaming

FIELDS = ("adjacency", "node_labels", "features", "edge_features")


def _save_format_1(graphs, path, name="", meta=None):
    """Write ``graphs`` in the format-1 layout: one member per graph and field."""
    arrays = {}
    records = []
    for i, graph in enumerate(graphs):
        arrays[f"adj_{i}"] = graph.adjacency
        record = {"label": graph.label}
        if graph.node_labels is not None:
            arrays[f"labels_{i}"] = graph.node_labels
            record["has_node_labels"] = True
        if graph.features is not None:
            arrays[f"features_{i}"] = graph.features
            record["has_features"] = True
        if graph.edge_features is not None:
            arrays[f"edge_features_{i}"] = graph.edge_features
            record["has_edge_features"] = True
        if graph.meta:
            record["meta"] = graph.meta
        records.append(record)
    header = {
        "format_version": 1,
        "name": name,
        "count": len(graphs),
        "records": records,
    }
    if meta is not None:
        header["meta"] = meta
    arrays["__repro_dataset__"] = np.frombuffer(
        json.dumps(header).encode("utf-8"), dtype=np.uint8
    )
    np.savez_compressed(path, **arrays)


def _fingerprint(graph) -> tuple:
    """Every field with its dtype and shape, plus label and meta."""
    arrays = tuple(
        None if value is None else (value.dtype.str, value.shape, value.tobytes())
        for value in (getattr(graph, field) for field in FIELDS)
    )
    return arrays, graph.label, graph.meta


def _memory_owner(array):
    """The object that owns ``array``'s memory (``array`` itself if it does)."""
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array if array.base is None else array.base


def _mixed_graphs(rng):
    """Graphs covering every optional field: labels, features, edges, meta."""
    molecules = [
        attach_degree_features(g, 5) for g in make_esol_like(4, rng)
    ]  # node labels, features, edge features, meta, float targets
    return molecules + make_aids_like(3, rng) + make_imdb_b_like(2, rng)


def _rewrite_members(path, **members):
    """Re-save an archive with some of its members replaced."""
    with np.load(path) as archive:
        arrays = {key: archive[key] for key in archive.files}
    arrays.update(members)
    np.savez_compressed(path, **arrays)


@pytest.fixture()
def fresh_registry():
    fresh = MetricsRegistry()
    previous = set_registry(fresh)
    yield fresh
    set_registry(previous)


@pytest.fixture()
def store(tmp_path):
    shard_dataset("MUTAG", 20, 3, tmp_path / "shards", shard_size=6)
    return tmp_path / "shards"


class TestSaveLoadGraphs:
    def test_roundtrip_labelled_molecules(self, rng, tmp_path):
        graphs = make_aids_like(6, rng)
        path = tmp_path / "aids.npz"
        save_graphs(graphs, path, name="aids-like")
        loaded, name = load_graphs(path)
        assert name == "aids-like"
        assert len(loaded) == 6
        for original, restored in zip(graphs, loaded):
            np.testing.assert_array_equal(original.adjacency, restored.adjacency)
            np.testing.assert_array_equal(original.node_labels, restored.node_labels)
            assert restored.features is None

    def test_roundtrip_with_features_and_labels(self, rng, tmp_path):
        graphs = [attach_degree_features(g, 8) for g in make_imdb_b_like(4, rng)]
        path = tmp_path / "imdb.npz"
        save_graphs(graphs, path)
        loaded, _ = load_graphs(path)
        for original, restored in zip(graphs, loaded):
            np.testing.assert_array_equal(original.features, restored.features)
            assert restored.label == original.label
            assert restored.node_labels is None

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_graphs([], tmp_path / "x.npz")

    def test_foreign_archive_rejected(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, junk=np.zeros(2))
        with pytest.raises(ValueError):
            load_graphs(path)


class TestFlatLayout:
    def test_mixed_fields_round_trip_bitwise(self, rng, tmp_path):
        graphs = _mixed_graphs(rng)
        save_graphs(graphs, tmp_path / "mixed.npz", name="mixed")
        loaded, name = load_graphs(tmp_path / "mixed.npz")
        assert name == "mixed"
        assert [_fingerprint(g) for g in loaded] == [_fingerprint(g) for g in graphs]

    def test_one_member_per_field_that_np_load_opens(self, rng, tmp_path):
        graphs = make_aids_like(32, rng)
        save_graphs(graphs, tmp_path / "aids.npz")
        with np.load(tmp_path / "aids.npz") as archive:
            assert sorted(archive.files) == [
                "__repro_dataset__", "adjacency", "node_labels",
            ]
            assert archive["adjacency"].shape == (
                sum(g.num_nodes**2 for g in graphs),
            )
            np.testing.assert_array_equal(
                archive["node_labels"],
                np.concatenate([g.node_labels for g in graphs]),
            )

    def test_npz_suffix_is_appended_when_missing(self, rng, tmp_path):
        graphs = make_aids_like(2, rng)
        save_graphs(graphs, tmp_path / "plain")
        save_graphs(graphs, tmp_path / "dotted.tmp")
        assert (tmp_path / "plain.npz").exists()
        assert (tmp_path / "dotted.tmp.npz").exists()
        assert len(load_graphs(tmp_path / "plain")[0]) == 2

    def test_decoded_graphs_share_no_memory(self, rng, tmp_path):
        write_shards(_mixed_graphs(rng), tmp_path / "shards", shard_size=9)
        graphs = read_shard(tmp_path / "shards", 0)
        arrays = [
            value
            for graph in graphs
            for value in (getattr(graph, field) for field in FIELDS)
            if value is not None
        ]
        assert len(arrays) == 4 * 4 + 3 * 2 + 2
        for first, second in combinations(arrays, 2):
            assert not np.shares_memory(first, second)
        # Disjoint views of one shared buffer pass the check above, yet
        # each would keep the whole buffer alive.
        assert len({id(_memory_owner(a)) for a in arrays}) == len(arrays)


class TestDecodeValidatesOnce:
    def test_featuring_a_shard_rechecks_no_adjacency(self, store, monkeypatch):
        original = graph_module._symmetric
        checked = []

        def counting(array, transposed):
            if array.ndim == 2:  # the adjacency, not edge features
                checked.append(array)
            return original(array, transposed)

        monkeypatch.setattr(graph_module, "_symmetric", counting)
        with StreamingDataset(store) as stream:
            # decode and verify shard 0, then build and feature-encode
            # two of its six graphs
            graphs = stream._load(0, [4, 1])
        assert all(g.features is not None for g in graphs)
        assert [id(a) for a in checked] == [id(g.adjacency) for g in graphs]


class TestMalformedArchives:
    @pytest.mark.parametrize(
        "damage,message",
        [
            (lambda values: values[:-1], "runs out: it holds"),
            (lambda values: np.append(values, 0.0), "1 values left after"),
        ],
        ids=["short", "long"],
    )
    def test_member_that_does_not_fit_its_records(
        self, rng, tmp_path, damage, message
    ):
        path = tmp_path / "graphs.npz"
        save_graphs(make_aids_like(3, rng), path)
        with np.load(path) as archive:
            adjacency = archive["adjacency"]
        _rewrite_members(path, adjacency=damage(adjacency))
        with pytest.raises(ValueError, match=message):
            load_graphs(path)

    @pytest.mark.parametrize(
        "damage,message",
        [
            (lambda raw: raw[:-8], "runs out before its records do"),
            (lambda raw: raw + bytes(8), "data left after the last record"),
        ],
        ids=["short", "long"],
    )
    def test_member_data_that_does_not_fit_its_npy_header(
        self, rng, tmp_path, damage, message
    ):
        path = tmp_path / "graphs.npz"
        save_graphs(make_aids_like(3, rng), path)
        with zipfile.ZipFile(path) as archive:
            raw = {name: archive.read(name) for name in archive.namelist()}
        raw["adjacency.npy"] = damage(raw["adjacency.npy"])
        with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as archive:
            for name, data in raw.items():
                archive.writestr(name, data)
        with pytest.raises(ValueError, match=message):
            load_graphs(path)

    @pytest.mark.parametrize(
        "damage,message",
        [
            (lambda values: values[:-1], "runs out"),
            (lambda values: np.append(values, 7), "left after the last record"),
        ],
        ids=["short", "long"],
    )
    def test_read_shard_names_the_shard(self, store, damage, message):
        path = shard_path(store, 1)
        with np.load(path) as archive:
            labels = archive["node_labels"]
        _rewrite_members(path, node_labels=damage(labels))
        with pytest.raises(ShardCorruptionError, match=message) as excinfo:
            read_shard(store, 1)
        assert excinfo.value.shard == 1
        assert "shard_00001.npz" in str(excinfo.value)

    def test_missing_member_is_a_value_error(self, rng, tmp_path):
        path = tmp_path / "graphs.npz"
        save_graphs(make_aids_like(3, rng), path)
        with np.load(path) as archive:
            kept = {k: archive[k] for k in archive.files if k != "node_labels"}
        np.savez_compressed(path, **kept)
        with pytest.raises(ValueError, match="node_labels"):
            load_graphs(path)

    def test_dataset_cache_rebuilds_a_malformed_archive(
        self, tmp_path, fresh_registry
    ):
        clear_memory_cache()
        built, _, _ = load_dataset_cached("MUTAG", 12, 4, tmp_path)
        path = shard_path(DatasetCache(tmp_path).path_for("MUTAG", 12, 4), 0)
        with np.load(path) as archive:
            adjacency = archive["adjacency"]
        _rewrite_members(path, adjacency=adjacency[:-3])
        clear_memory_cache()
        rebuilt, _, _ = load_dataset_cached("MUTAG", 12, 4, tmp_path)
        counters = fresh_registry.snapshot()["counters"]
        assert counters["data_cache/corrupt"] == 1
        assert counters["data_cache/miss"] == 2
        assert [_fingerprint(g) for g in rebuilt] == [_fingerprint(g) for g in built]
        assert len(load_graphs(path)[0]) == 12  # rewritten well-formed


def _swap_first_bond(path):
    """Give the first bond of the archive's first molecule another type,
    on both of its entries, so the archive still decodes to valid graphs."""
    first = load_graphs(path)[0][0]
    n, fe = first.num_nodes, first.num_edge_features
    with np.load(path) as archive:
        values = archive["edge_features"].copy()
    bonds = values[: n * n * fe].reshape(n, n, fe)
    i, j = first.edge_list()[0]
    swapped = np.roll(bonds[i, j], 1)
    bonds[i, j] = bonds[j, i] = swapped
    _rewrite_members(path, edge_features=values)
    return first, load_graphs(path)[0][0]


def _reweigh_first_edge(graph):
    adjacency = graph.adjacency.copy()
    i, j = graph.edge_list()[0]
    adjacency[i, j] = adjacency[j, i] = 2.0
    return replace(graph, adjacency=adjacency)


def _relabel_first_node(graph):
    labels = graph.node_labels.copy()
    labels[0] = (labels[0] + 1) % NUM_ATOM_TYPES
    return replace(graph, node_labels=labels)


#: one change per field a ``repro.data.io`` record stores besides bond
#: types, each leaving a valid graph that differs only in that field
FIELD_CHANGES = {
    "adjacency-weight": _reweigh_first_edge,
    "node-label": _relabel_first_node,
    # raw builder output has no features: this sets or replaces them
    "features": lambda g: replace(g, features=np.full((g.num_nodes, 2), 0.5)),
    "graph-label": lambda g: replace(g, label=g.label + 1.0),
    "meta": lambda g: replace(g, meta={**g.meta, "scaffold": "other"}),
}


def _change_first_graph(path, change):
    """Re-save an archive with its first graph changed by ``change``."""
    graphs, name = load_graphs(path)
    graphs[0] = change(graphs[0])
    save_graphs(graphs, path, name=name)
    return graphs[0]


class TestEdgeFeatureChecksums:
    """Shard checksums cover every field an archive stores: a graph whose
    adjacency weights, node labels, features, bond types, label or
    ``meta`` changed on disk is corruption, not content.  The bond-type
    case has its own two tests; the other fields share two
    parametrised ones."""

    ESOL = ("ESOL", 8, 2)

    def test_read_shard_rejects_a_swapped_bond_type(self, tmp_path):
        shard_dataset(*self.ESOL, tmp_path / "shards", shard_size=4)
        before, after = _swap_first_bond(shard_path(tmp_path / "shards", 0))
        assert not np.array_equal(before.edge_features, after.edge_features)
        with pytest.raises(ShardCorruptionError, match="checksum") as excinfo:
            read_shard(tmp_path / "shards", 0)
        assert excinfo.value.shard == 0
        assert len(read_shard(tmp_path / "shards", 1)) == 4

    def test_dataset_cache_rebuilds_a_swapped_bond_type(
        self, tmp_path, fresh_registry
    ):
        clear_memory_cache()
        built, _, _ = load_dataset_cached(*self.ESOL, tmp_path)
        path = shard_path(DatasetCache(tmp_path).path_for(*self.ESOL), 0)
        _swap_first_bond(path)
        clear_memory_cache()
        rebuilt, _, _ = load_dataset_cached(*self.ESOL, tmp_path)
        counters = fresh_registry.snapshot()["counters"]
        assert counters["data_cache/corrupt"] == 1
        assert counters["data_cache/miss"] == 2
        assert "data_cache/hit_disk" not in counters
        assert [_fingerprint(g) for g in rebuilt] == [_fingerprint(g) for g in built]
        assert [_fingerprint(g) for g in load_graphs(path)[0]] == [
            _fingerprint(g) for g in DatasetCache().get_or_build(*self.ESOL)
        ]  # rewritten with the builder's bonds

    def test_a_store_hashed_under_the_old_rule_is_rebuilt(
        self, tmp_path, fresh_registry
    ):
        """A ``repro.shard/v1`` manifest's checksums ignore bond
        features and a ``v2`` one's ignore ``meta``: the cache rebuilds
        such an entry and ``shard_dataset`` rewrites such a store,
        instead of trusting either."""
        clear_memory_cache()
        built, _, _ = load_dataset_cached(*self.ESOL, tmp_path)
        entry = DatasetCache(tmp_path).path_for(*self.ESOL)
        stores = [entry, tmp_path / "shards"]
        shard_dataset(*self.ESOL, stores[1], shard_size=4)
        for rebuilds, old in enumerate(("repro.shard/v1", "repro.shard/v2"), 1):
            for store in stores:
                manifest = store / "manifest.json"
                header = json.loads(manifest.read_text())
                manifest.write_text(json.dumps({**header, "schema": old}))
            clear_memory_cache()
            rebuilt, _, _ = load_dataset_cached(*self.ESOL, tmp_path)
            counters = fresh_registry.snapshot()["counters"]
            assert counters["data_cache/corrupt"] == rebuilds
            assert [_fingerprint(g) for g in rebuilt] == [
                _fingerprint(g) for g in built
            ]
            assert shard_dataset(*self.ESOL, stores[1], shard_size=4).num_shards == 2
            for store in stores:
                assert load_manifest(store).schema == "repro.shard/v3"

    @pytest.mark.parametrize("field", FIELD_CHANGES)
    def test_read_shard_rejects_a_changed_field(self, tmp_path, field):
        graphs = [
            attach_degree_features(g, 4)
            for g in DatasetCache().get_or_build(*self.ESOL)
        ]
        write_shards(iter(graphs), tmp_path / "shards", shard_size=4, name="ESOL")
        path = shard_path(tmp_path / "shards", 0)
        changed = _change_first_graph(path, FIELD_CHANGES[field])
        assert _fingerprint(load_graphs(path)[0][0]) == _fingerprint(changed)
        assert _fingerprint(changed) != _fingerprint(graphs[0])
        with pytest.raises(ShardCorruptionError, match="checksum") as excinfo:
            read_shard(tmp_path / "shards", 0)
        assert excinfo.value.shard == 0
        assert len(read_shard(tmp_path / "shards", 1)) == 4

    @pytest.mark.parametrize("field", FIELD_CHANGES)
    def test_dataset_cache_rebuilds_a_changed_field(
        self, tmp_path, fresh_registry, field
    ):
        clear_memory_cache()
        built, _, _ = load_dataset_cached(*self.ESOL, tmp_path)
        path = shard_path(DatasetCache(tmp_path).path_for(*self.ESOL), 0)
        raw = load_graphs(path)[0]
        _change_first_graph(path, FIELD_CHANGES[field])
        clear_memory_cache()
        rebuilt, _, _ = load_dataset_cached(*self.ESOL, tmp_path)
        counters = fresh_registry.snapshot()["counters"]
        assert counters["data_cache/corrupt"] == 1
        assert counters["data_cache/miss"] == 2
        assert "data_cache/hit_disk" not in counters
        assert [_fingerprint(g) for g in rebuilt] == [_fingerprint(g) for g in built]
        assert [_fingerprint(g) for g in load_graphs(path)[0]] == [
            _fingerprint(g) for g in raw
        ]  # rewritten with the builder's graphs


class TestFormat1Archives:
    def test_load_graphs_names_the_format(self, rng, tmp_path):
        _save_format_1(_mixed_graphs(rng), tmp_path / "old.npz", name="old")
        with pytest.raises(ValueError, match="format-1 archive"):
            load_graphs(tmp_path / "old.npz")

    def test_dataset_cache_rebuilds_it(self, tmp_path, fresh_registry):
        clear_memory_cache()
        built, _, _ = load_dataset_cached("MUTAG", 12, 4, tmp_path)
        path = shard_path(DatasetCache(tmp_path).path_for("MUTAG", 12, 4), 0)
        raw, name = load_graphs(path)
        _save_format_1(raw, path, name=name)
        clear_memory_cache()
        rebuilt, _, _ = load_dataset_cached("MUTAG", 12, 4, tmp_path)
        counters = fresh_registry.snapshot()["counters"]
        assert counters["data_cache/corrupt"] == 1
        assert [_fingerprint(g) for g in rebuilt] == [_fingerprint(g) for g in built]
        assert len(load_graphs(path)[0]) == 12  # rewritten in format 2
