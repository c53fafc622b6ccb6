"""Crash/resume equivalence: the headline checkpoint guarantee.

Train-to-completion vs. crash-at-step-k-then-resume must agree
**bitwise** — final parameters, optimizer moments, RNG state and the
metric history, with no tolerance (docs/checkpointing.md).  Crashes
are injected deterministically with :mod:`tests.faults` at the
awkward spots: the first batch, mid-epoch, an epoch boundary, and
inside an early-stopping patience countdown; both the per-example loop
and the padded-batch path are covered.
"""

import json

import numpy as np
import pytest

from repro.core import build_hap_embedder
from repro.data import attach_degree_features, make_imdb_b_like
from repro.models.classifier import GraphClassifier
from repro.observe import (
    JSONLLogger,
    read_run_log,
    stitch_run_logs,
    validate_run_log,
    validate_stitched_steps,
)
from tests.faults import FaultInjector, InjectedFault, crash_on_replace
from repro.training import CheckpointManager, TrainConfig, fit, load_checkpoint
from repro.training.metrics import classification_accuracy

pytestmark = [pytest.mark.checkpoint, pytest.mark.faultinject]

NUM_GRAPHS = 10
BATCH_SIZE = 3  # 10 graphs -> 4 steps per epoch
EPOCHS = 4
CHECKPOINT_EVERY = 2


def _setup(seed=0):
    """Build the run ingredients; one rng object is shared by data
    generation, model init and fit(), the convention exact resume
    relies on (the model's Gumbel/dropout draws go through it too)."""
    rng = np.random.default_rng(seed)
    graphs = [attach_degree_features(g) for g in make_imdb_b_like(NUM_GRAPHS, rng)]
    model = GraphClassifier(
        build_hap_embedder(16, 6, [3, 1], rng, conv="gcn"), num_classes=2, rng=rng
    )
    return rng, model, graphs, graphs[:3]


def _config(checkpoint_dir, batched=False, patience=None):
    return TrainConfig(
        epochs=EPOCHS,
        lr=0.02,
        batch_size=BATCH_SIZE,
        batched=batched,
        patience=patience,
        lr_decay=0.5,
        lr_step=2,
        checkpoint_dir=str(checkpoint_dir),
        checkpoint_every=CHECKPOINT_EVERY,
    )


def _run_uninterrupted(checkpoint_dir, log_path, batched=False, patience=None):
    rng, model, train, val = _setup()
    history = fit(
        model,
        train,
        rng,
        _config(checkpoint_dir, batched, patience),
        val_metric=lambda: classification_accuracy(model, val),
        callbacks=[JSONLLogger(log_path, log_batches=True)],
    )
    return model, history


def _run_crash_then_resume(
    checkpoint_dir,
    crash_log,
    resume_log,
    batched=False,
    patience=None,
    **fault_kwargs,
):
    rng, model, train, val = _setup()
    with pytest.raises(InjectedFault):
        fit(
            model,
            train,
            rng,
            _config(checkpoint_dir, batched, patience),
            val_metric=lambda: classification_accuracy(model, val),
            callbacks=[
                JSONLLogger(crash_log, log_batches=True),
                FaultInjector(**fault_kwargs),
            ],
        )
    latest = CheckpointManager(checkpoint_dir).latest()
    assert latest is not None, "crash left no checkpoint to resume from"
    # a fresh process: rebuild model and rng from the seed, then resume
    rng, model, train, val = _setup()
    history = fit(
        model,
        train,
        rng,
        _config(checkpoint_dir, batched, patience),
        val_metric=lambda: classification_accuracy(model, val),
        callbacks=[JSONLLogger(resume_log, log_batches=True)],
        resume=latest,
    )
    return model, history


def _strip_volatile(record):
    """Drop wall-clock and filesystem fields before comparing logs."""
    return {
        k: v
        for k, v in record.items()
        if k not in ("time", "epoch_time_s", "path")
    }


def _assert_identical_runs(ref, res):
    """Bitwise equality of two completed runs (no tolerance)."""
    model_a, history_a, dir_a = ref
    model_b, history_b, dir_b = res

    # final (best-restored) parameters
    state_a, state_b = model_a.state_dict(), model_b.state_dict()
    assert set(state_a) == set(state_b)
    for name in state_a:
        assert state_a[name].dtype == state_b[name].dtype, name
        assert state_a[name].tobytes() == state_b[name].tobytes(), name

    # metric history, exactly
    assert history_a.losses == history_b.losses
    assert history_a.val_metrics == history_b.val_metrics
    assert history_a.best_epoch == history_b.best_epoch
    assert history_a.best_metric == history_b.best_metric

    # the final checkpoints are the system of record for optimizer
    # moments and RNG state: compare the archives bit for bit
    ckpt_a = CheckpointManager(dir_a).latest()
    ckpt_b = CheckpointManager(dir_b).latest()
    assert ckpt_a.name == ckpt_b.name
    with np.load(ckpt_a) as archive_a, np.load(ckpt_b) as archive_b:
        assert set(archive_a.files) == set(archive_b.files)
        headers = []
        for archive in (archive_a, archive_b):
            header = json.loads(
                bytes(archive["__repro_ckpt_header__"]).decode("utf-8")
            )
            header["config"].pop("checkpoint_dir")  # always allowed to differ
            headers.append(header)
        assert headers[0] == headers[1]  # counters, history, rng state, lr
        for key in archive_a.files:
            if key == "__repro_ckpt_header__":
                continue
            assert archive_a[key].tobytes() == archive_b[key].tobytes(), key


CRASH_POINTS = [
    pytest.param({"at_step": 1}, id="first-batch"),
    pytest.param({"at_step": 6}, id="mid-epoch"),
    pytest.param({"at_step": 8}, id="epoch-boundary"),
    pytest.param({"at_epoch": 2}, id="epoch-finalisation"),
]


class TestResumeEquivalence:
    @pytest.mark.parametrize("fault", CRASH_POINTS)
    def test_per_example_path(self, tmp_path, fault):
        self._check(tmp_path, fault, batched=False)

    @pytest.mark.parametrize(
        "fault",
        [
            pytest.param({"at_step": 1}, id="first-batch"),
            pytest.param({"at_step": 6}, id="mid-epoch"),
        ],
    )
    def test_batched_path(self, tmp_path, fault):
        self._check(tmp_path, fault, batched=True)

    def test_crash_inside_patience_countdown(self, tmp_path):
        # patience=1 with a plateauing metric: by epoch 2 the stale
        # counter is ticking; crash while it is mid-countdown
        self._check(tmp_path, {"at_epoch": 2}, batched=False, patience=1)

    def test_crash_right_after_a_checkpoint_write(self, tmp_path):
        self._check(tmp_path, {"at_checkpoint": 3}, batched=False)

    def _check(self, tmp_path, fault, batched, patience=None):
        log_a = tmp_path / "run_a.jsonl"
        model_a, history_a = _run_uninterrupted(
            tmp_path / "ckpt_a", log_a, batched, patience
        )
        crash_log = tmp_path / "run_b_crash.jsonl"
        resume_log = tmp_path / "run_b_resume.jsonl"
        model_b, history_b = _run_crash_then_resume(
            tmp_path / "ckpt_b",
            crash_log,
            resume_log,
            batched,
            patience,
            **fault,
        )
        _assert_identical_runs(
            (model_a, history_a, tmp_path / "ckpt_a"),
            (model_b, history_b, tmp_path / "ckpt_b"),
        )
        # run-log stitching: crashed prefix + resumed continuation reads
        # as one run, with the same non-volatile content as run A's log
        stitched = stitch_run_logs(
            read_run_log(crash_log), read_run_log(resume_log)
        )
        validate_run_log(stitched)
        validate_stitched_steps(stitched)
        reference = read_run_log(log_a)
        assert [_strip_volatile(r) for r in stitched] == [
            _strip_volatile(r) for r in reference
        ]


class TestBufferPoolResume:
    """The gradient buffer pool never perturbs crash/resume equivalence.

    ``fit`` trains every run under one pool (docs/performance.md), which
    recycles gradient arrays between steps: a run that crashes
    mid-epoch must still resume bitwise-identically.  That pooled and
    unpooled gradients are bitwise equal is pinned in
    tests/test_fused_kernels.py.
    """

    def test_mid_epoch_crash_resumes_bitwise_with_pool_enabled(self, tmp_path):
        config_kwargs = dict(batched=False, patience=None)
        log_a = tmp_path / "run_a.jsonl"
        rng, model_a, train, val = _setup()
        history_a = fit(
            model_a,
            train,
            rng,
            _config(tmp_path / "ckpt_a", **config_kwargs),
            val_metric=lambda: classification_accuracy(model_a, val),
            callbacks=[JSONLLogger(log_a, log_batches=True)],
        )
        model_b, history_b = _run_crash_then_resume(
            tmp_path / "ckpt_b",
            tmp_path / "run_b_crash.jsonl",
            tmp_path / "run_b_resume.jsonl",
            at_step=6,  # mid-epoch: two steps into epoch 1
            **config_kwargs,
        )
        _assert_identical_runs(
            (model_a, history_a, tmp_path / "ckpt_a"),
            (model_b, history_b, tmp_path / "ckpt_b"),
        )


class TestResumeState:
    def test_resume_restores_mid_epoch_counters(self, tmp_path):
        rng, model, train, val = _setup()
        with pytest.raises(InjectedFault):
            fit(
                model,
                train,
                rng,
                _config(tmp_path / "ckpt", batched=False),
                val_metric=lambda: classification_accuracy(model, val),
                callbacks=[FaultInjector(at_step=7)],
            )
        latest = CheckpointManager(tmp_path / "ckpt").latest()
        state = load_checkpoint(latest)
        # global step 6 = epoch 1, two steps into the epoch
        assert state.global_step == 6
        assert (state.epoch, state.step) == (1, 2)
        assert state.order is not None and len(state.order) == NUM_GRAPHS
        assert len(state.losses) == 1  # one completed epoch
        assert state.best_state is not None  # val metric ran at epoch 0

    def test_resuming_a_finished_run_is_a_no_op(self, tmp_path):
        log = tmp_path / "run.jsonl"
        model, history = _run_uninterrupted(tmp_path / "ckpt", log, patience=None)
        latest = CheckpointManager(tmp_path / "ckpt").latest()
        rng, model2, train, val = _setup()
        resumed = fit(
            model2,
            train,
            rng,
            _config(tmp_path / "ckpt2", batched=False),
            val_metric=lambda: classification_accuracy(model2, val),
            resume=latest,
        )
        assert resumed.losses == history.losses
        state_a, state_b = model.state_dict(), model2.state_dict()
        for name in state_a:
            assert state_a[name].tobytes() == state_b[name].tobytes()


class TestAtomicWrites:
    def test_crash_during_write_preserves_previous_checkpoint(self, tmp_path):
        rng, model, train, val = _setup()
        manager = CheckpointManager(tmp_path / "ckpt")
        from repro.nn.optim import Adam

        optimizer = Adam(model.parameters(), lr=0.02)
        common = dict(model=model, optimizer=optimizer, rng=rng)
        manager.save(epoch=0, step=2, global_step=2, **common)
        before = manager.latest().read_bytes()

        with crash_on_replace(), pytest.raises(InjectedFault):
            manager.save(epoch=0, step=4, global_step=4, **common)

        # the failed write left no partial file behind and the previous
        # checkpoint is still the latest, byte-identical and loadable
        assert [p.name for p in manager.checkpoint_paths()] == [
            "ckpt-e0000-s000002.npz"
        ]
        assert not list((tmp_path / "ckpt").glob("*.tmp"))
        assert manager.latest().read_bytes() == before
        state = load_checkpoint(manager.latest(), model=model, optimizer=optimizer)
        assert (state.epoch, state.step) == (0, 2)


class TestRetention:
    def test_keep_last_prunes_but_never_best(self, tmp_path):
        rng, model, train, val = _setup()
        config = TrainConfig(
            epochs=EPOCHS,
            lr=0.02,
            batch_size=BATCH_SIZE,
            checkpoint_dir=str(tmp_path / "ckpt"),
            checkpoint_every=1,
            checkpoint_keep=2,
        )
        fit(
            model,
            train,
            rng,
            config,
            val_metric=lambda: classification_accuracy(model, val),
        )
        manager = CheckpointManager(tmp_path / "ckpt", keep_last=2)
        assert len(manager.checkpoint_paths()) == 2
        assert manager.best() is not None
        load_checkpoint(manager.best())  # still a valid archive

    def test_keep_all_when_none(self, tmp_path):
        rng, model, train, val = _setup()
        config = TrainConfig(
            epochs=2,
            lr=0.02,
            batch_size=BATCH_SIZE,
            checkpoint_dir=str(tmp_path / "ckpt"),
            checkpoint_every=1,
            checkpoint_keep=None,
        )
        fit(model, train, rng, config)
        manager = CheckpointManager(tmp_path / "ckpt", keep_last=None)
        # initial + 4 per epoch x 2 epochs + 2 epoch boundaries
        assert len(manager.checkpoint_paths()) == 11
