"""On-disk sharded dataset storage (schema ``repro.shard/v3``).

Million-graph corpora cannot live in one monolithic ``.npz``, let
alone in RAM.  This module splits any graph collection into
fixed-size shards on disk so that the
streaming loader (:mod:`repro.data.streaming`) can bound its resident
set to a couple of shards regardless of corpus size — the design DGL's
GraphBolt ``item_sampler`` and PyG's on-disk/streaming dataset split
use for the same problem.

Layout of a shard directory::

    manifest.json      counts, checksums, seeds, feature spec
    shard_00000.npz    graphs [0, shard_size)       (repro.data.io archive)
    shard_00001.npz    graphs [shard_size, 2·shard_size)
    ...

Guarantees:

- **Atomic writes.**  Every shard (and the manifest, written last) goes
  through :func:`repro.atomic.atomic_write` — a crash mid-write never
  leaves a half-written file that passes validation.  A rewrite deletes
  the old manifest before its first shard, so a crashed rewrite leaves
  no store rather than an old manifest over new shards.
- **Content checksums.**  The manifest records one SHA-256 per shard
  computed over the *decoded graph content* (adjacency, labels,
  features, edge features, graph label, ``meta``), not the compressed
  file bytes, so a checksum is reproducible across rewrites and verifies
  exactly the invariant the reader cares about.  A shard that fails to
  decode or decodes to different content surfaces as a typed
  :class:`ShardCorruptionError` naming the shard.
- **Single-shard rebuild.**  Dataset shards written by
  :func:`shard_dataset` record their generation recipe (builder name,
  count, seed, generation mode); :func:`rebuild_shard` regenerates one
  damaged shard from its seed without touching its neighbours.
- **Bounded writer memory.**  :func:`write_shards` consumes a plain
  iterator and holds at most one shard of graphs at a time;
  ``shard_dataset(..., chunked=True)`` generates each shard from its
  own :class:`numpy.random.SeedSequence`-spawned stream so even the
  *generation* of an out-of-core corpus never materialises it.

Shards store the **raw** builder output; feature encodings are attached
per shard at load time, and the manifest records the encoding plus the
generator version so a stale shard directory is detected instead of
silently reused.  Each :mod:`repro.data.cache` entry is a one-shard
store of this layout.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

import repro.data.datasets as _datasets
from repro.atomic import atomic_write
from repro.data.io import _GraphArrays, _read_arrays, save_graphs
from repro.graph.graph import Graph

#: v2 checksums added edge features and v3 ``meta`` (the scaffold keys
#: ``scaffold_split`` groups by); an older store fails ``load_manifest``,
#: so ``shard_dataset`` and the dataset cache rebuild it
SHARD_SCHEMA = "repro.shard/v3"
MANIFEST_NAME = "manifest.json"

#: entropy tag mixed into the user seed for per-shard generation streams
_SHARD_STREAM = 11


class ShardCorruptionError(RuntimeError):
    """A shard failed checksum or decode validation.

    Carries the shard index and path so callers (and error messages)
    name the damaged shard precisely — the unit :func:`rebuild_shard`
    repairs.
    """

    def __init__(self, shard: int, path: str, reason: str):
        super().__init__(
            f"shard {shard} ({path}) is corrupt: {reason}; "
            "rebuild it with repro.data.sharding.rebuild_shard"
        )
        self.shard = int(shard)
        self.path = str(path)
        self.reason = reason

    def __reduce__(self):  # custom __init__ args: unpickle with all three fields
        return (ShardCorruptionError, (self.shard, self.path, self.reason))


def shard_path(shard_dir: str | Path, index: int) -> Path:
    """Canonical shard file path inside ``shard_dir``."""
    if index < 0:
        raise ValueError(f"shard index must be >= 0, got {index}")
    return Path(shard_dir) / f"shard_{index:05d}.npz"


def content_checksum(graphs: list[Graph] | list[_GraphArrays]) -> str:
    """SHA-256 over the decoded content of a shard's graphs.

    Stable across archive rewrites (unlike file-byte hashes, which see
    zip timestamps) and across load/save round trips, so a rebuilt
    shard can be verified against the original manifest entry.  A
    shard's decoded arrays hash like the graphs built from them, so a
    reader verifies a whole shard before it builds any graph.
    """
    digest = hashlib.sha256()
    for graph in graphs:
        digest.update(np.ascontiguousarray(graph.adjacency).tobytes())
        if graph.node_labels is not None:
            digest.update(b"L")
            digest.update(np.ascontiguousarray(graph.node_labels).tobytes())
        if graph.features is not None:
            digest.update(b"F")
            digest.update(np.ascontiguousarray(graph.features).tobytes())
        if graph.edge_features is not None:
            digest.update(b"E")
            digest.update(np.ascontiguousarray(graph.edge_features).tobytes())
        if graph.meta:
            digest.update(b"M")
            digest.update(json.dumps(graph.meta, sort_keys=True).encode("utf-8"))
        digest.update(f"y={graph.label}".encode("utf-8"))
    return digest.hexdigest()


@dataclass
class ShardManifest:
    """Parsed ``manifest.json`` of one shard directory."""

    shard_dir: Path
    name: str
    shard_size: int
    counts: list[int]
    checksums: list[str]
    encoding: str | None
    num_classes: int | None
    labels: list[int | float | None] | None
    generator_version: int
    #: generation recipe for :func:`rebuild_shard`; None for shard sets
    #: written from an arbitrary iterator (not rebuildable from a seed)
    source: dict | None = None
    schema: str = SHARD_SCHEMA
    extra: dict = field(default_factory=dict)

    @property
    def num_shards(self) -> int:
        return len(self.counts)

    @property
    def num_graphs(self) -> int:
        return int(sum(self.counts))

    def shard_path(self, index: int) -> Path:
        if not 0 <= index < self.num_shards:
            raise IndexError(
                f"shard index {index} out of range [0, {self.num_shards})"
            )
        return shard_path(self.shard_dir, index)

    def to_header(self) -> dict:
        return {
            "schema": self.schema,
            "name": self.name,
            "num_graphs": self.num_graphs,
            "shard_size": self.shard_size,
            "counts": self.counts,
            "checksums": self.checksums,
            "encoding": self.encoding,
            "num_classes": self.num_classes,
            "labels": self.labels,
            "generator_version": self.generator_version,
            "source": self.source,
            **self.extra,
        }


def load_manifest(shard_dir: str | Path) -> ShardManifest:
    """Read and validate ``manifest.json`` under ``shard_dir``."""
    shard_dir = Path(shard_dir)
    path = shard_dir / MANIFEST_NAME
    if not path.exists():
        raise FileNotFoundError(f"no {MANIFEST_NAME} under {shard_dir}")
    header = json.loads(path.read_text(encoding="utf-8"))
    schema = header.get("schema")
    if schema != SHARD_SCHEMA:
        raise ValueError(
            f"{path} has schema {schema!r}; this library reads {SHARD_SCHEMA!r}"
        )
    counts = [int(c) for c in header["counts"]]
    checksums = list(header["checksums"])
    if len(counts) != len(checksums):
        raise ValueError(
            f"{path}: {len(counts)} counts but {len(checksums)} checksums"
        )
    if any(c <= 0 for c in counts):
        raise ValueError(f"{path}: shard counts must be positive, got {counts}")
    known = {
        "schema", "name", "num_graphs", "shard_size", "counts", "checksums",
        "encoding", "num_classes", "labels", "generator_version", "source",
    }
    return ShardManifest(
        shard_dir=shard_dir,
        name=header.get("name", ""),
        shard_size=int(header["shard_size"]),
        counts=counts,
        checksums=checksums,
        encoding=header.get("encoding"),
        num_classes=header.get("num_classes"),
        labels=header.get("labels"),
        generator_version=int(header.get("generator_version", 0)),
        source=header.get("source"),
        extra={k: v for k, v in header.items() if k not in known},
    )


def write_shards(
    graphs: Iterable[Graph],
    shard_dir: str | Path,
    shard_size: int,
    *,
    name: str = "",
    encoding: str | None = None,
    num_classes: int | None = None,
    source: dict | None = None,
) -> ShardManifest:
    """Split ``graphs`` into fixed-size shards under ``shard_dir``.

    Consumes any iterable (a generator included) while holding at most
    ``shard_size`` graphs in memory; the final shard may be ragged
    (smaller).  Each shard is written atomically and checksummed.  A
    previous manifest is deleted before the first shard lands and the
    new one is written last, so a crash mid-write leaves no manifest at
    all — never an old manifest over new shards, or a manifest pointing
    at half-written shards.

    ``encoding`` names the feature encoding the streaming loader should
    attach per shard (``None`` serves the graphs exactly as stored).
    ``source`` records the generation recipe for
    :func:`rebuild_shard`.  Returns the written :class:`ShardManifest`.
    """
    if shard_size < 1:
        raise ValueError(f"shard_size must be >= 1, got {shard_size}")
    shard_dir = Path(shard_dir)
    counts: list[int] = []
    checksums: list[str] = []
    labels: list[int | float | None] = []
    any_label = False
    buffer: list[Graph] = []

    def flush() -> None:
        if not counts:  # unpublish the old store before replacing a shard
            (shard_dir / MANIFEST_NAME).unlink(missing_ok=True)
        save_graphs(buffer, shard_path(shard_dir, len(counts)), name=name)
        counts.append(len(buffer))
        checksums.append(content_checksum(buffer))
        labels.extend(graph.label for graph in buffer)
        buffer.clear()

    for graph in graphs:
        any_label = any_label or graph.label is not None
        buffer.append(graph)
        if len(buffer) == shard_size:
            flush()
    if buffer:
        flush()
    if not counts:
        raise ValueError("nothing to shard: the graph iterable was empty")
    manifest = ShardManifest(
        shard_dir=shard_dir,
        name=name,
        shard_size=int(shard_size),
        counts=counts,
        checksums=checksums,
        encoding=encoding,
        num_classes=num_classes,
        labels=labels if any_label else None,
        generator_version=_datasets.GENERATOR_VERSION,
        source=source,
    )
    with atomic_write(shard_dir / MANIFEST_NAME) as fh:
        fh.write((json.dumps(manifest.to_header(), indent=2) + "\n").encode())
    return manifest


def _decode_shard(manifest: ShardManifest, index: int) -> list[_GraphArrays]:
    """One shard's decoded arrays, verified against its manifest entry.

    Raises :class:`ShardCorruptionError` (naming the shard) when the
    file is missing, fails to decode, holds the wrong graph count, or
    its content hash differs from the manifest.  Builds no
    :class:`Graph`: the caller builds the graphs it needs.
    """
    path = manifest.shard_path(index)
    if not path.exists():
        raise ShardCorruptionError(index, str(path), "file is missing")
    try:
        graphs, _ = _read_arrays(path)
    except Exception as exc:
        raise ShardCorruptionError(
            index, str(path), f"unreadable archive ({type(exc).__name__}: {exc})"
        ) from exc
    if len(graphs) != manifest.counts[index]:
        raise ShardCorruptionError(
            index, str(path),
            f"holds {len(graphs)} graphs, manifest expects "
            f"{manifest.counts[index]}",
        )
    if content_checksum(graphs) != manifest.checksums[index]:
        raise ShardCorruptionError(
            index, str(path), "content checksum mismatch"
        )
    return graphs


def read_shard(
    shard_dir: str | Path,
    index: int,
    manifest: ShardManifest | None = None,
) -> list[Graph]:
    """Load one shard's raw graphs, verifying its manifest checksum.

    Raises :class:`ShardCorruptionError` (naming the shard) when the
    file is missing, fails to decode, holds the wrong graph count, or
    its content hash differs from the manifest.
    """
    if manifest is None:
        manifest = load_manifest(shard_dir)
    return [graph.build() for graph in _decode_shard(manifest, index)]


def _shard_seeds(seed: int, num_shards: int) -> list[np.random.SeedSequence]:
    """Per-shard generation streams (pure function of seed and index)."""
    return np.random.SeedSequence([int(seed), _SHARD_STREAM]).spawn(num_shards)


def _iter_dataset_shards(
    name: str, num_graphs: int, seed: int, shard_size: int, chunked: bool
) -> Iterator[list[Graph]]:
    """Yield the dataset's shards one at a time.

    ``chunked=False`` reproduces the monolithic builder output of
    :func:`repro.data.cache.load_dataset_cached` exactly (one builder
    call, then slicing) — the mode the streamed-vs-in-memory
    equivalence suite pins.  ``chunked=True`` generates every shard
    from its own spawned seed so writer memory stays O(shard) — the
    mode for corpora that must never be materialised (its graphs are a
    different, equally deterministic sample of the same distribution).
    """
    builder, _, _ = _datasets.DATASET_BUILDERS[name]
    if not chunked:
        graphs = builder(num_graphs, np.random.default_rng(seed))
        for start in range(0, num_graphs, shard_size):
            yield graphs[start : start + shard_size]
        return
    num_shards = (num_graphs + shard_size - 1) // shard_size
    seeds = _shard_seeds(seed, num_shards)
    for index in range(num_shards):
        count = min(shard_size, num_graphs - index * shard_size)
        yield builder(count, np.random.default_rng(seeds[index]))


def dataset_source(
    name: str, num_graphs: int, seed: int, chunked: bool = False
) -> dict:
    """The generation recipe a dataset's shard set records as ``source``."""
    return {
        "dataset": name,
        "num_graphs": int(num_graphs),
        "seed": int(seed),
        "generation": "per-shard" if chunked else "monolithic",
    }


def shard_dataset(
    name: str,
    num_graphs: int,
    seed: int,
    shard_dir: str | Path,
    shard_size: int,
    chunked: bool = False,
) -> ShardManifest:
    """Write a registered dataset as a shard directory (idempotent).

    An existing manifest matching ``(name, num_graphs, seed,
    shard_size, chunked, generator_version)`` is reused untouched, so
    parallel fold workers can all point at one warm shard directory;
    anything else (including a directory written by an older generator
    version or shard schema) is rewritten.
    """
    if name not in _datasets.DATASET_BUILDERS:
        raise KeyError(
            f"unknown dataset {name!r}; options: "
            f"{sorted(_datasets.DATASET_BUILDERS)}"
        )
    if num_graphs < 1:
        raise ValueError(f"num_graphs must be >= 1, got {num_graphs}")
    if shard_size < 1:
        raise ValueError(f"shard_size must be >= 1, got {shard_size}")
    _, encoding, num_classes = _datasets.DATASET_BUILDERS[name]
    source = dataset_source(name, num_graphs, seed, chunked)
    try:
        manifest = load_manifest(shard_dir)
    except (FileNotFoundError, ValueError, KeyError):
        manifest = None
    if (
        manifest is not None
        and manifest.source == source
        and manifest.shard_size == shard_size
        and manifest.generator_version == _datasets.GENERATOR_VERSION
    ):
        return manifest

    def graphs() -> Iterator[Graph]:
        for shard in _iter_dataset_shards(
            name, num_graphs, seed, shard_size, chunked
        ):
            yield from shard

    return write_shards(
        graphs(), shard_dir, shard_size,
        name=name, encoding=encoding, num_classes=num_classes, source=source,
    )


def rebuild_shard(shard_dir: str | Path, index: int) -> Path:
    """Regenerate one damaged shard from the manifest's recipe.

    Monolithic shard sets re-run the builder and slice out the shard's
    range; per-shard sets regenerate only that shard's spawned stream.
    The rebuilt content must match the manifest checksum exactly —
    a mismatch (generator drift since the shards were written) raises
    ``ValueError`` rather than silently replacing the corpus.
    """
    manifest = load_manifest(shard_dir)
    if manifest.source is None:
        raise ValueError(
            f"shards under {shard_dir} carry no generation recipe "
            "(written from an iterator, not a seeded dataset); "
            "restore the shard from its original source instead"
        )
    if not 0 <= index < manifest.num_shards:
        raise IndexError(
            f"shard index {index} out of range [0, {manifest.num_shards})"
        )
    src = manifest.source
    chunked = src["generation"] == "per-shard"
    if chunked:
        seeds = _shard_seeds(src["seed"], manifest.num_shards)
        builder, _, _ = _datasets.DATASET_BUILDERS[src["dataset"]]
        graphs = builder(
            manifest.counts[index], np.random.default_rng(seeds[index])
        )
    else:
        builder, _, _ = _datasets.DATASET_BUILDERS[src["dataset"]]
        everything = builder(
            src["num_graphs"], np.random.default_rng(src["seed"])
        )
        start = int(sum(manifest.counts[:index]))
        graphs = everything[start : start + manifest.counts[index]]
    if content_checksum(graphs) != manifest.checksums[index]:
        raise ValueError(
            f"rebuilt shard {index} does not match its manifest checksum; "
            "the dataset generator changed since the shards were written "
            "(re-shard the corpus instead of rebuilding one shard)"
        )
    path = manifest.shard_path(index)
    save_graphs(graphs, path, name=manifest.name)
    return path
