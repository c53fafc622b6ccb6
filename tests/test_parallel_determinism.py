"""Multiprocess engine determinism suite (marker: ``parallel``).

Locks down the contract of :mod:`repro.parallel` and
:mod:`repro.data.cache` described in docs/parallelism.md:

- cross-validation accuracies are **bitwise identical** for
  ``n_workers`` in {1, 2, 4} — a pure function of the configuration,
  never of scheduling;
- merged run-logs are deterministic up to wall-clock fields;
- the dataset cache round-trips bitwise through memo, disk and
  corruption recovery;
- worker failures surface as typed errors (``WorkerTaskError`` for a
  raising task, ``WorkerCrashError`` for a silently dying process)
  instead of hangs.

Every pool target here is module-level so spawned workers can import
it; scales are tiny because each spawned worker pays a full
interpreter start-up.
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np
import pytest

from repro.data.cache import (
    DatasetCache,
    cache_key,
    clear_memory_cache,
    load_dataset_cached,
)
from repro.data.sharding import (
    MANIFEST_NAME,
    load_manifest,
    shard_dataset,
    shard_path,
)
from repro.data.streaming import StreamingDataset
from repro.evaluation.crossval import cross_validate_classification
from repro.parallel import (
    WorkerCrashError,
    WorkerPool,
    WorkerTaskError,
    merge_worker_logs,
    resolve_workers,
    spawn_task_seeds,
)
from tests.faults import InjectedFault, truncate_file

pytestmark = pytest.mark.parallel

#: one tiny cross-validation, shared by every determinism test
CV_KWARGS = dict(
    folds=3, seed=7, num_graphs=24, epochs=2, hidden=8, cluster_sizes=(4, 1)
)
METHOD, DATASET = "SumPool", "MUTAG"

#: run-log fields that legitimately differ between runs
_WALL_CLOCK_FIELDS = ("time", "epoch_time_s")


# ---------------------------------------------------------------------------
# module-level pool targets (spawn-safe: workers import this module)
# ---------------------------------------------------------------------------

def square_task(task: int) -> int:
    return task * task


def draw_task(seed_seq: np.random.SeedSequence) -> float:
    return float(np.random.default_rng(seed_seq).standard_normal())


def failing_task(task: int) -> int:
    if task == 2:
        raise InjectedFault("injected task failure")
    return task


def dying_task(task: int) -> int:
    os._exit(17)  # no exception, no cleanup: a silent worker death


# ---------------------------------------------------------------------------
# seeding
# ---------------------------------------------------------------------------

class TestTaskSeeding:
    def test_spawned_streams_are_reproducible(self):
        first = [np.random.default_rng(s).normal(size=3) for s in spawn_task_seeds(0, 4)]
        second = [np.random.default_rng(s).normal(size=3) for s in spawn_task_seeds(0, 4)]
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)

    def test_streams_are_pairwise_distinct(self):
        draws = [
            float(np.random.default_rng(s).normal()) for s in spawn_task_seeds(0, 8)
        ]
        assert len(set(draws)) == len(draws)

    def test_stream_tag_separates_purposes(self):
        a = np.random.default_rng(spawn_task_seeds(0, 1, stream=1)[0]).normal()
        b = np.random.default_rng(spawn_task_seeds(0, 1, stream=2)[0]).normal()
        assert a != b

    def test_task_seeds_are_prefix_stable(self):
        """Adding folds never reshuffles the seeds of existing folds."""
        few = spawn_task_seeds(3, 2)
        many = spawn_task_seeds(3, 5)
        for short_seq, long_seq in zip(few, many):
            np.testing.assert_array_equal(
                np.random.default_rng(short_seq).normal(size=4),
                np.random.default_rng(long_seq).normal(size=4),
            )


# ---------------------------------------------------------------------------
# pool mechanics
# ---------------------------------------------------------------------------

class TestWorkerPool:
    def test_resolve_workers(self):
        assert resolve_workers(1) == 1
        assert resolve_workers(3) == 3
        assert resolve_workers(None) >= 1
        with pytest.raises(ValueError):
            resolve_workers(0)

    def test_serial_map_preserves_task_order(self):
        with WorkerPool(1) as pool:
            assert pool.map(square_task, [3, 1, 2]) == [9, 1, 4]

    def test_parallel_map_matches_serial(self):
        tasks = list(range(6))
        with WorkerPool(1) as pool:
            serial = pool.map(square_task, tasks)
        with WorkerPool(2) as pool:
            parallel = pool.map(square_task, tasks)
        assert parallel == serial

    def test_parallel_rng_tasks_match_serial(self):
        """Scheduling cannot change what each task's generator draws."""
        seeds = spawn_task_seeds(11, 5)
        with WorkerPool(1) as pool:
            serial = pool.map(draw_task, seeds)
        with WorkerPool(2) as pool:
            parallel = pool.map(draw_task, seeds)
        assert parallel == serial

    def test_pool_run_reports_stats_and_metrics(self):
        tasks = list(range(4))
        with WorkerPool(2) as pool:
            run = pool.run(square_task, tasks)
        assert [stat.index for stat in run.task_stats] == tasks
        assert run.n_workers == 2
        assert run.wall_time_s > 0
        assert run.busy_time_s >= 0
        merged = run.merged_metrics()
        assert merged["counters"]["parallel/tasks_completed"] == len(tasks)


# ---------------------------------------------------------------------------
# cross-validation determinism (the tentpole invariant)
# ---------------------------------------------------------------------------

def _strip_wall_clock(records: list[dict]) -> list[dict]:
    return [
        {k: v for k, v in record.items() if k not in _WALL_CLOCK_FIELDS}
        for record in records
    ]


class TestCrossValDeterminism:
    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        """One cross-validation per worker count, sharing a disk cache."""
        base = tmp_path_factory.mktemp("cv")
        out = {}
        for n_workers in (1, 2, 4):
            log_dir = base / f"logs_w{n_workers}"
            result = cross_validate_classification(
                METHOD, DATASET, n_workers=n_workers,
                cache_dir=base / "cache", run_log_dir=log_dir, **CV_KWARGS,
            )
            out[n_workers] = (result, merge_worker_logs(log_dir))
        return out

    def test_fold_accuracies_identical_across_worker_counts(self, runs):
        reference = runs[1][0].fold_accuracies
        assert len(reference) == CV_KWARGS["folds"]
        for n_workers in (2, 4):
            assert runs[n_workers][0].fold_accuracies == reference, (
                f"n_workers={n_workers} diverged from serial"
            )

    def test_merged_run_logs_identical_across_worker_counts(self, runs):
        reference = _strip_wall_clock(runs[1][1])
        assert reference, "serial run produced an empty merged log"
        for n_workers in (2, 4):
            assert _strip_wall_clock(runs[n_workers][1]) == reference

    def test_merged_log_written_and_ordered_by_task(self, runs, tmp_path_factory):
        merged = runs[2][1]
        tasks = [record["task"] for record in merged]
        assert sorted(tasks) == tasks
        assert set(tasks) == set(range(CV_KWARGS["folds"]))

    def test_pool_run_attached_to_result(self, runs):
        run = runs[2][0].pool_run
        assert run.n_workers == 2
        assert len(run.results) == CV_KWARGS["folds"]
        assert 0 < run.efficiency <= 1.0

    def test_cache_state_does_not_change_results(self, runs, tmp_path):
        """A cold run with no disk cache reproduces the cached runs."""
        clear_memory_cache()
        cold = cross_validate_classification(METHOD, DATASET, **CV_KWARGS)
        assert cold.fold_accuracies == runs[1][0].fold_accuracies


# ---------------------------------------------------------------------------
# dataset cache
# ---------------------------------------------------------------------------

def _dataset_fingerprint(graphs) -> list[tuple]:
    return [
        (g.adjacency.tobytes(), g.features.tobytes(), g.label) for g in graphs
    ]


class TestDatasetCache:
    NAME, N, SEED = "MUTAG", 16, 5

    def test_disk_round_trip_is_bitwise_identical(self, tmp_path):
        clear_memory_cache()
        built, dim, classes = load_dataset_cached(self.NAME, self.N, self.SEED, tmp_path)
        archive = DatasetCache(tmp_path).path_for(self.NAME, self.N, self.SEED)
        assert archive.exists()
        clear_memory_cache()  # force the disk-hit path
        loaded, dim2, classes2 = load_dataset_cached(self.NAME, self.N, self.SEED, tmp_path)
        assert (dim, classes) == (dim2, classes2)
        assert _dataset_fingerprint(built) == _dataset_fingerprint(loaded)

    def test_entry_opens_as_a_streaming_dataset(self, tmp_path):
        clear_memory_cache()
        cached, dim, classes = load_dataset_cached(
            self.NAME, self.N, self.SEED, tmp_path
        )
        entry = DatasetCache(tmp_path).path_for(self.NAME, self.N, self.SEED)
        with StreamingDataset(entry) as stream:
            assert (len(stream), stream.num_shards) == (self.N, 1)
            assert (stream.feature_dim, stream.num_classes) == (dim, classes)
            streamed = [stream[i] for i in range(len(stream))]
        assert _dataset_fingerprint(streamed) == _dataset_fingerprint(cached)

    def test_memo_hit_skips_disk(self, tmp_path):
        clear_memory_cache()
        first, _, _ = load_dataset_cached(self.NAME, self.N, self.SEED, tmp_path)
        archive = DatasetCache(tmp_path).path_for(self.NAME, self.N, self.SEED)
        shutil.rmtree(archive)  # a memo hit must not need the store
        second, _, _ = load_dataset_cached(self.NAME, self.N, self.SEED, tmp_path)
        assert _dataset_fingerprint(first) == _dataset_fingerprint(second)

    def test_corrupt_archive_is_rebuilt(self, tmp_path):
        clear_memory_cache()
        built, _, _ = load_dataset_cached(self.NAME, self.N, self.SEED, tmp_path)
        archive = DatasetCache(tmp_path).path_for(self.NAME, self.N, self.SEED)
        truncate_file(shard_path(archive, 0), keep_bytes=10)
        clear_memory_cache()
        recovered, _, _ = load_dataset_cached(self.NAME, self.N, self.SEED, tmp_path)
        assert _dataset_fingerprint(built) == _dataset_fingerprint(recovered)
        clear_memory_cache()  # the rewritten archive must load cleanly
        reread, _, _ = load_dataset_cached(self.NAME, self.N, self.SEED, tmp_path)
        assert _dataset_fingerprint(built) == _dataset_fingerprint(reread)

    @pytest.mark.parametrize("damage", ["truncate", "reshard", "remove"])
    def test_damaged_manifest_is_a_miss(self, tmp_path, damage):
        """An unreadable manifest, or one describing another layout, is
        corrupt; a missing one (a write that crashed first) is a plain miss."""
        from repro.observe.metrics import get_registry

        clear_memory_cache()
        built, _, _ = load_dataset_cached(self.NAME, self.N, self.SEED, tmp_path)
        archive = DatasetCache(tmp_path).path_for(self.NAME, self.N, self.SEED)
        if damage == "truncate":
            truncate_file(archive / MANIFEST_NAME, keep_bytes=40)
        elif damage == "reshard":
            shard_dataset(self.NAME, self.N, self.SEED, archive, shard_size=5)
        else:
            (archive / MANIFEST_NAME).unlink()
        clear_memory_cache()
        def count(name):
            return get_registry().snapshot()["counters"].get(f"data_cache/{name}", 0)

        misses, corrupt = count("miss"), count("corrupt")
        rebuilt, _, _ = load_dataset_cached(self.NAME, self.N, self.SEED, tmp_path)
        assert count("miss") == misses + 1
        assert count("corrupt") == corrupt + (damage != "remove")
        assert _dataset_fingerprint(rebuilt) == _dataset_fingerprint(built)
        assert load_manifest(archive).counts == [self.N]  # rewritten

    def test_stale_generator_version_triggers_rebuild(
        self, tmp_path, monkeypatch
    ):
        """An archive from an older generator must be rebuilt, not reused."""
        import repro.data.datasets as datasets_module
        from repro.observe.metrics import get_registry

        clear_memory_cache()
        load_dataset_cached(self.NAME, self.N, self.SEED, tmp_path)
        archive = DatasetCache(tmp_path).path_for(self.NAME, self.N, self.SEED)
        stamped = load_manifest(archive).generator_version
        assert stamped == datasets_module.GENERATOR_VERSION

        # the generators change: the old archive is now stale
        monkeypatch.setattr(datasets_module, "GENERATOR_VERSION", stamped + 1)
        clear_memory_cache()
        before = get_registry().snapshot()["counters"].get(
            "data_cache/stale_version", 0
        )
        rebuilt, _, _ = load_dataset_cached(self.NAME, self.N, self.SEED, tmp_path)
        after = get_registry().snapshot()["counters"]["data_cache/stale_version"]
        assert after == before + 1
        # the rewritten store carries the new version and is served
        # as a plain disk hit on the next cold load
        assert load_manifest(archive).generator_version == stamped + 1
        clear_memory_cache()
        reread, _, _ = load_dataset_cached(self.NAME, self.N, self.SEED, tmp_path)
        assert _dataset_fingerprint(rebuilt) == _dataset_fingerprint(reread)

    def test_unversioned_legacy_archive_is_rebuilt(self, tmp_path):
        """A manifest recording no generator version counts as stale."""
        from repro.observe.metrics import get_registry

        clear_memory_cache()
        built, _, _ = load_dataset_cached(self.NAME, self.N, self.SEED, tmp_path)
        archive = DatasetCache(tmp_path).path_for(self.NAME, self.N, self.SEED)
        manifest_path = archive / MANIFEST_NAME
        header = json.loads(manifest_path.read_text())
        del header["generator_version"]
        manifest_path.write_text(json.dumps(header))
        clear_memory_cache()
        before = get_registry().snapshot()["counters"].get(
            "data_cache/stale_version", 0
        )
        recovered, _, _ = load_dataset_cached(self.NAME, self.N, self.SEED, tmp_path)
        after = get_registry().snapshot()["counters"]["data_cache/stale_version"]
        assert after == before + 1
        assert _dataset_fingerprint(built) == _dataset_fingerprint(recovered)
        # rewritten, stamped
        assert "generator_version" in json.loads(manifest_path.read_text())

    def test_no_cache_dir_still_works(self):
        clear_memory_cache()
        graphs, dim, classes = load_dataset_cached(self.NAME, self.N, self.SEED)
        assert len(graphs) == self.N and dim > 0 and classes is not None

    def test_cache_key_encodes_the_full_configuration(self):
        key = cache_key("IMDB-B", 120, 3)
        assert "IMDB-B" in key and "n120" in key and "s3" in key

    def test_unknown_dataset_raises(self, tmp_path):
        with pytest.raises(KeyError):
            DatasetCache(tmp_path).get_or_build("NOPE", 4, 0)


# ---------------------------------------------------------------------------
# failure surfaces
# ---------------------------------------------------------------------------

class TestWorkerFailures:
    def test_serial_task_error_carries_index_and_cause(self):
        with pytest.raises(WorkerTaskError) as excinfo:
            WorkerPool(1).map(failing_task, [0, 1, 2, 3])
        assert excinfo.value.index == 2
        assert "InjectedFault" in str(excinfo.value)

    def test_parallel_task_error_carries_remote_traceback(self):
        with pytest.raises(WorkerTaskError) as excinfo:
            WorkerPool(2).map(failing_task, [0, 1, 2, 3])
        assert excinfo.value.index == 2
        assert "InjectedFault" in excinfo.value.remote_traceback

    def test_silently_dying_worker_raises_crash_error(self):
        with pytest.raises(WorkerCrashError) as excinfo:
            WorkerPool(2).map(dying_task, [0, 1])
        assert excinfo.value.worker_ids
        assert all(code == 17 for code in excinfo.value.exitcodes)
        assert "died without reporting" in str(excinfo.value)
