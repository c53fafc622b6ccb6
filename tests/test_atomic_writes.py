"""Every archive writer is atomic, through one helper and one fault hook.

Checkpoints, model weights, dataset shards, shard manifests and the
dataset cache all write through :func:`repro.atomic.atomic_write`.  A
crash at its rename (:func:`repro.testing.crash_on_replace`) must
surface as :class:`InjectedFault`, keep the previous destination
loadable (or absent, if there was none) and leave no temporary behind.

Each case below sets up one writer and returns its destination, the
write, a check of the destination after the crash, and how many renames
go through before it.
"""

import numpy as np
import pytest

from repro.atomic import atomic_write
from repro.data.cache import DatasetCache, clear_memory_cache
from repro.data.datasets import make_mutag_like
from repro.data.sharding import (
    MANIFEST_NAME,
    load_manifest,
    read_shard,
    shard_dataset,
    shard_path,
    write_shards,
)
from repro.nn import Adam, Linear, load_module, save_module
from repro.testing import InjectedFault, crash_on_replace
from repro.training.checkpoint import load_checkpoint, save_checkpoint

pytestmark = [pytest.mark.checkpoint, pytest.mark.faultinject]


def _checkpoint(tmp_path):
    rng = np.random.default_rng(0)
    model = Linear(3, 2, rng)
    state = dict(model=model, optimizer=Adam(model.parameters()), rng=rng)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, epoch=1, **state)

    def check():
        assert load_checkpoint(path).epoch == 1

    return path, lambda: save_checkpoint(path, epoch=2, **state), check, 0


def _module(tmp_path):
    model = Linear(3, 2, np.random.default_rng(0))
    path = tmp_path / "weights.npz"
    save_module(model, path, metadata={"version": 1})

    def check():
        assert load_module(Linear(3, 2, np.random.default_rng(1)), path) == {
            "version": 1
        }

    return path, lambda: save_module(model, path, {"version": 2}), check, 0


def _shard(tmp_path):
    store = tmp_path / "store"
    old = write_shards(make_mutag_like(6, np.random.default_rng(0)), store, 3)
    fresh = make_mutag_like(6, np.random.default_rng(1))

    def check():
        # still matches its checksum (the rewrite unpublished the manifest)
        assert len(read_shard(store, 0, old)) == 3

    return shard_path(store, 0), lambda: write_shards(fresh, store, 3), check, 0


def _manifest(tmp_path):
    store = tmp_path / "store"
    graphs = make_mutag_like(6, np.random.default_rng(0))

    def write():
        write_shards(graphs, store, 3)

    def check():
        with pytest.raises(FileNotFoundError):
            load_manifest(store)

    return store / MANIFEST_NAME, write, check, 2  # both shards land first


def _cache(tmp_path):
    cache = DatasetCache(tmp_path / "cache")
    entry = cache.path_for("MUTAG", 6, 0)
    clear_memory_cache()

    def check():
        assert not (entry / MANIFEST_NAME).exists()  # a plain miss

    return entry, lambda: cache.get_or_build("MUTAG", 6, 0), check, 0


WRITERS = {
    "save_checkpoint": _checkpoint,
    "save_module": _module,
    "shard": _shard,
    "manifest": _manifest,
    "DatasetCache.get_or_build": _cache,
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_crash_at_the_rename_keeps_the_previous_file(writer, tmp_path):
    destination, write, check, after = WRITERS[writer](tmp_path)
    before = destination.read_bytes() if destination.is_file() else None
    with crash_on_replace(after), pytest.raises(InjectedFault):
        write()
    check()
    if before is not None:
        assert destination.read_bytes() == before
    assert list(tmp_path.rglob("*.tmp")) == []


def test_a_crashed_rewrite_leaves_no_store_and_the_next_call_rebuilds(
    tmp_path,
):
    """A rewrite that crashes after its first shard landed leaves no
    manifest, not the old manifest over a new shard 0, so the next
    ``shard_dataset`` call rewrites the store instead of reusing it."""
    store = tmp_path / "store"
    shard_dataset("MUTAG", 12, 0, store, 4)
    with crash_on_replace(after=1), pytest.raises(InjectedFault):
        shard_dataset("MUTAG", 12, 1, store, 4)
    with pytest.raises(FileNotFoundError):
        load_manifest(store)
    manifest = shard_dataset("MUTAG", 12, 0, store, 4)
    for index in range(manifest.num_shards):
        read_shard(store, index, manifest)  # every checksum verifies


def test_the_temporary_is_a_tmp_sibling_until_the_rename(tmp_path):
    path = tmp_path / "archive.npz"
    with atomic_write(path) as fh:
        fh.write(b"payload")
        assert not path.exists()
        assert [p.parent for p in tmp_path.glob("*.tmp")] == [tmp_path]
    assert path.read_bytes() == b"payload"
    assert list(tmp_path.glob("*.tmp")) == []


def test_a_failing_body_leaves_no_trace(tmp_path):
    path = tmp_path / "deep" / "archive.npz"
    with pytest.raises(RuntimeError, match="mid-write"):
        with atomic_write(path) as fh:
            fh.write(b"half")
            raise RuntimeError("mid-write")
    assert list(tmp_path.rglob("*")) == [tmp_path / "deep"]
