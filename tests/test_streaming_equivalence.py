"""Streamed-vs-in-memory training equivalence (marker: ``streaming``).

The headline guarantee of docs/streaming.md: training on a
:class:`~repro.data.streaming.StreamingDataset` is **bitwise
identical** to training on the same graphs as an in-RAM list — final
parameters, loss/metric history and JSONL run logs (up to wall-clock
fields) — for every shard layout {1, 3, 7, 64} and worker count {1, 2}.
At 3 graphs per shard the 24-graph corpus spans 8 shards against a
2-shard window, so shards reload mid-epoch through the planned-read
window.
Shard size, LRU window and worker scheduling are pure performance
knobs; results are a function of the config alone.

Also covers the fault-injection satellite: a crash mid-run resumes
bitwise-identically through the streaming path, and a shard corrupted
mid-iteration surfaces as a typed error naming the shard.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.cache import clear_memory_cache, load_dataset_cached
from repro.data.sharding import (
    ShardCorruptionError,
    shard_dataset,
    shard_path,
)
from repro.data.streaming import StreamingDataset
from repro.evaluation.crossval import cross_validate_classification
from repro.models import zoo
from repro.observe import Callback, JSONLLogger, read_run_log
from tests.faults import FaultInjector, InjectedFault, truncate_file
from repro.training import CheckpointManager, TrainConfig, fit
from repro.training.metrics import classification_accuracy

pytestmark = pytest.mark.streaming

NAME, N, DATA_SEED = "MUTAG", 24, 7
MODEL_SEED = 3
EPOCHS, BATCH_SIZE, LR = 2, 8, 0.02
CV_KWARGS = dict(
    folds=3, seed=7, num_graphs=24, epochs=2, hidden=8, cluster_sizes=(4, 1)
)

#: run-log fields that legitimately differ between runs
_WALL_CLOCK_FIELDS = ("time", "epoch_time_s")


def _strip_wall_clock(records: list[dict]) -> list[dict]:
    return [
        {k: v for k, v in record.items() if k not in _WALL_CLOCK_FIELDS}
        for record in records
    ]


def _make_model(dim: int, num_classes: int, rng: np.random.Generator):
    return zoo.make_classifier(
        "SumPool", dim, num_classes, rng, hidden=8, cluster_sizes=(4, 1)
    )


def _train(examples, dim, num_classes, log_path, data_mode, **config_kwargs):
    """One deterministic training run; returns (state_dict, history)."""
    rng = np.random.default_rng(MODEL_SEED)
    model = _make_model(dim, num_classes, rng)
    history = fit(
        model, examples, rng,
        TrainConfig(
            epochs=EPOCHS, lr=LR, batch_size=BATCH_SIZE, data=data_mode,
            **config_kwargs,
        ),
        callbacks=[JSONLLogger(log_path, log_batches=True)],
    )
    return model.state_dict(), history


def _assert_states_identical(state_a: dict, state_b: dict) -> None:
    assert set(state_a) == set(state_b)
    for key in state_a:
        assert state_a[key].tobytes() == state_b[key].tobytes(), key


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """The in-memory run every streamed configuration must reproduce."""
    clear_memory_cache()
    graphs, dim, num_classes = load_dataset_cached(NAME, N, DATA_SEED)
    log = tmp_path_factory.mktemp("ref") / "run.jsonl"
    state, history = _train(graphs, dim, num_classes, log, "memory")
    return state, history, read_run_log(log), dim, num_classes


class TestTrainingEquivalence:
    @pytest.mark.parametrize("shard_size", [1, 3, 7, 64])
    def test_streamed_run_is_bitwise_identical(
        self, tmp_path, reference, shard_size
    ):
        ref_state, ref_history, ref_log, dim, num_classes = reference
        shard_dataset(NAME, N, DATA_SEED, tmp_path / "sh", shard_size)
        stream = StreamingDataset(tmp_path / "sh", max_cached_shards=2)
        log = tmp_path / "run.jsonl"
        state, history = _train(stream, dim, num_classes, log, "streaming")
        stream.close()
        _assert_states_identical(state, ref_state)
        assert history.losses == ref_history.losses
        assert _strip_wall_clock(read_run_log(log)) == _strip_wall_clock(
            ref_log
        )

    def test_subset_view_trains_identically_to_sliced_list(
        self, tmp_path, reference
    ):
        """A fold view over shards == the same index slice of the list."""
        _, _, _, dim, num_classes = reference
        graphs, _, _ = load_dataset_cached(NAME, N, DATA_SEED)
        picks = list(range(0, N, 2))
        shard_dataset(NAME, N, DATA_SEED, tmp_path / "sh", 7)
        stream = StreamingDataset(tmp_path / "sh", max_cached_shards=2)
        state_mem, hist_mem = _train(
            [graphs[i] for i in picks], dim, num_classes,
            tmp_path / "mem.jsonl", "memory",
        )
        state_st, hist_st = _train(
            stream.subset(picks), dim, num_classes,
            tmp_path / "st.jsonl", "streaming",
        )
        stream.close()
        _assert_states_identical(state_st, state_mem)
        assert hist_st.losses == hist_mem.losses

    def test_streaming_mode_requires_a_plan_aware_source(self):
        graphs, dim, num_classes = load_dataset_cached(NAME, N, DATA_SEED)
        rng = np.random.default_rng(MODEL_SEED)
        model = _make_model(dim, num_classes, rng)
        with pytest.raises(TypeError, match="plan_epoch"):
            fit(model, graphs, rng, TrainConfig(epochs=1, data="streaming"))

    def test_unknown_data_mode_is_rejected(self):
        graphs, dim, num_classes = load_dataset_cached(NAME, N, DATA_SEED)
        rng = np.random.default_rng(MODEL_SEED)
        model = _make_model(dim, num_classes, rng)
        with pytest.raises(ValueError, match="data mode"):
            fit(model, graphs, rng, TrainConfig(epochs=1, data="ram"))


class TestCrossValEquivalence:
    @pytest.fixture(scope="class")
    def in_memory_cv(self):
        clear_memory_cache()
        return cross_validate_classification("SumPool", NAME, **CV_KWARGS)

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_sharded_folds_match_in_memory(
        self, tmp_path, in_memory_cv, n_workers
    ):
        result = cross_validate_classification(
            "SumPool", NAME, n_workers=n_workers,
            shard_dir=tmp_path / "sh", shard_size=7, **CV_KWARGS,
        )
        assert result.fold_accuracies == in_memory_cv.fold_accuracies

    def test_sharded_run_logs_match_in_memory(self, tmp_path):
        clear_memory_cache()
        mem = cross_validate_classification(
            "SumPool", NAME, run_log_dir=tmp_path / "logs_mem", **CV_KWARGS
        )
        streamed = cross_validate_classification(
            "SumPool", NAME, run_log_dir=tmp_path / "logs_st",
            shard_dir=tmp_path / "sh", shard_size=7, **CV_KWARGS,
        )
        assert streamed.fold_accuracies == mem.fold_accuracies
        mem_log = read_run_log(tmp_path / "logs_mem" / "merged.jsonl")
        st_log = read_run_log(tmp_path / "logs_st" / "merged.jsonl")
        assert _strip_wall_clock(st_log) == _strip_wall_clock(mem_log)


class TestStreamingResume:
    """Satellite: crash between shards, resume bitwise-identically."""

    def _config(self, checkpoint_dir):
        return dict(
            epochs=3, batch_size=4, checkpoint_dir=str(checkpoint_dir),
            checkpoint_every=2,
        )

    def _run(self, stream, dim, num_classes, log, checkpoint_dir,
             resume=None, fault=None):
        rng = np.random.default_rng(MODEL_SEED)
        model = _make_model(dim, num_classes, rng)
        callbacks = [JSONLLogger(log, log_batches=True)]
        if fault is not None:
            callbacks.append(FaultInjector(**fault))
        history = fit(
            model, stream, rng,
            TrainConfig(lr=LR, data="streaming", **self._config(checkpoint_dir)),
            val_metric=lambda: classification_accuracy(model, stream),
            callbacks=callbacks,
            resume=resume,
        )
        return model, history

    def _crash_and_resume(self, tmp_path, shard_size):
        shard_dataset(NAME, N, DATA_SEED, tmp_path / "sh", shard_size)
        _, dim, num_classes = load_dataset_cached(NAME, N, DATA_SEED)

        stream = StreamingDataset(tmp_path / "sh")
        ref_model, ref_history = self._run(
            stream, dim, num_classes, tmp_path / "ref.jsonl",
            tmp_path / "ckpt_ref",
        )

        # batch_size=4 over 24 graphs: step 8 lands mid-epoch with the
        # shuffled cursor part-way through the shard sequence
        with pytest.raises(InjectedFault):
            self._run(
                stream, dim, num_classes, tmp_path / "crash.jsonl",
                tmp_path / "ckpt_res", fault={"at_step": 8},
            )
        latest = CheckpointManager(tmp_path / "ckpt_res").latest()
        assert latest is not None
        res_model, res_history = self._run(
            stream, dim, num_classes, tmp_path / "resume.jsonl",
            tmp_path / "ckpt_res", resume=latest,
        )
        stream.close()

        _assert_states_identical(
            res_model.state_dict(), ref_model.state_dict()
        )
        assert res_history.losses == ref_history.losses
        assert res_history.val_metrics == ref_history.val_metrics

    def test_crash_between_shards_resumes_bitwise(self, tmp_path):
        self._crash_and_resume(tmp_path, 7)

    def test_crash_resumes_bitwise_with_mid_epoch_reloads(self, tmp_path):
        """8 shards of 3 against a 2-shard window: the resumed epoch
        reloads shards through the planned-read window."""
        self._crash_and_resume(tmp_path, 3)


class TestStreamingFaults:
    """Satellite: corruption mid-training is typed, not silent."""

    def test_shard_corrupted_mid_training_names_the_shard(self, tmp_path):
        shard_dataset(NAME, N, DATA_SEED, tmp_path / "sh", 7)
        _, dim, num_classes = load_dataset_cached(NAME, N, DATA_SEED)
        stream = StreamingDataset(tmp_path / "sh", max_cached_shards=1)
        rng = np.random.default_rng(MODEL_SEED)
        model = _make_model(dim, num_classes, rng)

        class CorruptAfterFirstEpoch(Callback):
            """Damage shard 2 on disk once epoch 0 completes."""

            def on_epoch_end(self, epoch, logs):
                if epoch == 0:
                    truncate_file(shard_path(tmp_path / "sh", 2), 64)
                    stream._cache.pop(2, None)  # force a disk reload

        with pytest.raises(ShardCorruptionError) as excinfo:
            fit(
                model, stream, rng,
                TrainConfig(epochs=3, lr=LR, batch_size=4, data="streaming"),
                callbacks=[CorruptAfterFirstEpoch()],
            )
        stream.close()
        assert excinfo.value.shard == 2
        assert "shard_00002.npz" in str(excinfo.value)
