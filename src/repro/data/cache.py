"""On-disk dataset cache for parallel workers (docs/parallelism.md).

Synthetic datasets are deterministic functions of ``(builder name,
num_graphs, seed)``, so regenerating them in every worker process is
pure waste — COLLAB-sized builders dominate small training runs.  This
module caches the *raw* builder output on disk under that key; feature
encodings are attached after load (they are deterministic and cheap).

Each entry is a one-shard ``repro.shard/v3`` directory, written as
``shard_dataset(name, num_graphs, seed, entry, shard_size=num_graphs)``
writes it, so the shard store's guarantees are the cache's: atomic
writes, a checksum verified on every disk hit, and an entry that also
opens as a :class:`~repro.data.streaming.StreamingDataset`.  An entry
without a manifest (never written, or its write crashed first) is a
plain miss.  An unreadable manifest (an older shard schema's
included) or a corrupt shard is a miss counted as ``corrupt``, and a
manifest recording another (or no) dataset ``GENERATOR_VERSION`` a
miss counted as ``stale_version``: both are rebuilt from the seed and
rewritten, since a seed means the *current* builders' output, not
whatever an old cache happens to hold.

A process-local memo sits in front of the disk layer so serial
cross-validation touches the builder exactly once per dataset.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

import repro.data.datasets as _datasets
from repro.data.datasets import DATASET_BUILDERS, NUM_ATOM_TYPES
from repro.data.encoding import (
    attach_constant_features,
    attach_degree_features,
    attach_label_features,
)
from repro.data.sharding import (
    MANIFEST_NAME,
    ShardCorruptionError,
    dataset_source,
    load_manifest,
    read_shard,
    write_shards,
)
from repro.graph.graph import Graph

#: feature dimensions matching repro.evaluation.harness
DEGREE_FEATURE_DIM = 16
CONSTANT_FEATURE_DIM = 4

#: process-local memo: (name, num_graphs, seed) -> raw graphs
_MEMO: dict[tuple[str, int, int], list[Graph]] = {}


def clear_memory_cache() -> None:
    """Drop the in-process memo (tests / long-lived services)."""
    _MEMO.clear()


def cache_key(name: str, num_graphs: int, seed: int) -> str:
    """Human-readable entry name for one dataset configuration."""
    return f"{name}_n{num_graphs}_s{seed}"


class DatasetCache:
    """Disk-backed get-or-build store for synthetic datasets.

    ``cache_dir=None`` disables the disk layer (memo only), which keeps
    every call site able to run in read-only environments.
    """

    def __init__(self, cache_dir: str | Path | None = None):
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None

    def path_for(self, name: str, num_graphs: int, seed: int) -> Path | None:
        """The entry's one-shard store directory (None without a disk layer)."""
        if self.cache_dir is None:
            return None
        return self.cache_dir / cache_key(name, num_graphs, seed)

    def get_or_build(self, name: str, num_graphs: int, seed: int) -> list[Graph]:
        """Return the raw (feature-free) graphs for one configuration."""
        if name not in DATASET_BUILDERS:
            raise KeyError(
                f"unknown dataset {name!r}; options: {sorted(DATASET_BUILDERS)}"
            )
        from repro.observe.metrics import get_registry

        registry = get_registry()
        memo_key = (name, int(num_graphs), int(seed))
        if memo_key in _MEMO:
            registry.counter("data_cache/hit_memory").inc()
            return _MEMO[memo_key]

        path = self.path_for(name, num_graphs, seed)
        graphs = None if path is None else _read_entry(path, num_graphs, registry)
        if graphs is not None:
            registry.counter("data_cache/hit_disk").inc()
        else:
            registry.counter("data_cache/miss").inc()
            builder, encoding, num_classes = DATASET_BUILDERS[name]
            graphs = builder(num_graphs, np.random.default_rng(seed))
            if path is not None:
                write_shards(
                    graphs, path, num_graphs, name=name, encoding=encoding,
                    num_classes=num_classes,
                    source=dataset_source(name, num_graphs, seed),
                )
        _MEMO[memo_key] = graphs
        return graphs


def _read_entry(path: Path, num_graphs: int, registry) -> list[Graph] | None:
    """The graphs of one cache entry, or None (counting why) for a miss."""
    if not (path / MANIFEST_NAME).exists():
        return None
    try:
        manifest = load_manifest(path)
        if manifest.counts != [num_graphs]:
            raise ValueError(f"{path} is not a one-shard store of {num_graphs}")
    except (ValueError, KeyError, TypeError):  # truncated, flipped, edited
        registry.counter("data_cache/corrupt").inc()
        return None
    if manifest.generator_version != _datasets.GENERATOR_VERSION:
        # Written by an older (or unversioned) generator: its graphs may
        # no longer match what the builder produces for this seed.
        registry.counter("data_cache/stale_version").inc()
        return None
    try:
        return read_shard(path, 0, manifest)
    except ShardCorruptionError:
        registry.counter("data_cache/corrupt").inc()
        return None


def encoding_dim(encoding: str) -> int:
    """Feature dimension :func:`attach_dataset_features` will produce.

    Knowable without touching any graph, which lets the streaming
    loader report ``feature_dim`` from its manifest alone.
    """
    if encoding == "degree":
        return DEGREE_FEATURE_DIM
    if encoding == "label":
        return NUM_ATOM_TYPES
    return CONSTANT_FEATURE_DIM


def attach_dataset_features(
    graphs: list[Graph], encoding: str
) -> tuple[list[Graph], int]:
    """Attach the standard feature encoding; returns ``(graphs, dim)``.

    Deterministic (no RNG), so it is applied *after* the cache layer —
    archives store raw builder output only.
    """
    if encoding == "degree":
        return (
            [attach_degree_features(g, DEGREE_FEATURE_DIM) for g in graphs],
            DEGREE_FEATURE_DIM,
        )
    if encoding == "label":
        return (
            [attach_label_features(g, NUM_ATOM_TYPES) for g in graphs],
            NUM_ATOM_TYPES,
        )
    return (
        [attach_constant_features(g, CONSTANT_FEATURE_DIM) for g in graphs],
        CONSTANT_FEATURE_DIM,
    )


def load_dataset_cached(
    name: str,
    num_graphs: int,
    seed: int,
    cache_dir: str | Path | None = None,
) -> tuple[list[Graph], int, int | None]:
    """Cached counterpart of :func:`repro.evaluation.harness.prepare_dataset`.

    Generation is keyed by ``seed`` alone (an isolated
    ``default_rng(seed)`` stream), so the result is identical whether
    the graphs came from the builder, the memo, or a disk archive —
    the property the parallel determinism suite locks down.

    Returns ``(graphs_with_features, feature_dim, num_classes)``.
    """
    raw = DatasetCache(cache_dir).get_or_build(name, num_graphs, seed)
    _, encoding, num_classes = DATASET_BUILDERS[name]
    graphs, dim = attach_dataset_features(raw, encoding)
    return graphs, dim, num_classes
