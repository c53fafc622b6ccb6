"""Generic training loop.

All three tasks train the same way: shuffle examples, take one loss
per mini-batch, take an Adam step at a fixed learning rate, and
optionally track a validation metric whose best epoch's weights are
restored at the end (the paper's Adam + 8:1:1 protocol, Sec. 6.1.3).
A mini-batch's loss is one batched forward (``model.batch_loss``) for
every model that has one, and the mean of the per-example losses
otherwise (see :func:`fit`).  Steps run without a gradient
:class:`~repro.tensor.pool.BufferPool`: the pool keys free buffers by
exact shape, and a ragged batch has a new node count at every step
(docs/performance.md).

Runs are fault tolerant: with ``TrainConfig(checkpoint_dir=...)`` the
loop snapshots its complete state (model, optimizer moments, RNG,
shuffle order, loss accumulator, metric history) through
:mod:`repro.training.checkpoint`, and ``fit(..., resume=path)``
continues an interrupted run bit-for-bit — the resumed run's final
parameters, optimizer state and metric history match an uninterrupted
run exactly (docs/checkpointing.md, tests/test_checkpoint_resume.py).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from repro.nn.module import Module
from repro.nn.optim import Adam
from repro.observe.callbacks import Callback, CallbackList
from repro.observe.tracing import span
from repro.training.checkpoint import CheckpointManager, load_checkpoint


@dataclass
class TrainConfig:
    """Hyper-parameters for :func:`fit`."""

    epochs: int = 30
    lr: float = 0.01
    batch_size: int = 8
    #: train each mini-batch in one forward (docs/batching.md): ``fit``
    #: calls the model's ``batch_loss`` (one batched forward and
    #: backward) where it can, and falls back to the mean of per-example
    #: losses otherwise.  ``False`` always runs that per-example loop,
    #: the reference the batched path is tested against
    batched: bool = True
    #: example source discipline (docs/streaming.md): ``"memory"`` treats
    #: ``examples`` as a plain in-RAM sequence; ``"streaming"`` expects an
    #: out-of-core view (``StreamingDataset``/``StreamingView``) and
    #: announces each epoch's shuffled visit order via ``plan_epoch``.
    #: The loader turns that order into an exact shard-load schedule: its
    #: graph window keeps a loaded shard's graphs that upcoming batches
    #: read, so each load decodes a shard once for all of them.  Both
    #: modes index ``examples`` in the same order, so results are
    #: bitwise equal.
    data: str = "memory"
    #: write ``repro.ckpt/v1`` checkpoints under this directory
    #: (docs/checkpointing.md); None disables checkpointing
    checkpoint_dir: str | None = None
    #: additionally checkpoint every N optimizer steps (mid-epoch
    #: snapshots); 0 checkpoints only at epoch boundaries
    checkpoint_every: int = 0
    #: direction of the validation metric: ``"max"`` (accuracy-like,
    #: the default) or ``"min"`` (error-like — val RMSE/MAE for the
    #: regression task, docs/molecular.md).  Best-weight restoration
    #: and ``best.npz`` checkpoints both follow this mode.
    metric_mode: str = "max"


@dataclass
class TrainHistory:
    """Per-epoch losses and validation metric values."""

    losses: list[float] = field(default_factory=list)
    val_metrics: list[float] = field(default_factory=list)
    best_epoch: int = -1
    best_metric: float = -np.inf


def fit(
    model: Module,
    examples: Sequence,
    rng: np.random.Generator,
    config: TrainConfig | None = None,
    loss_fn: Callable | None = None,
    val_metric: Callable[[], float] | None = None,
    callbacks: Sequence[Callback] | None = None,
    resume: str | Path | None = None,
) -> TrainHistory:
    """Train ``model`` on ``examples``.

    Each mini-batch's loss follows one rule, first match wins:

    1. ``model.batch_loss(chunk)`` when ``config.batched`` is set (the
       default), the caller passed no ``loss_fn`` and the model has a
       ``batch_loss``: one batched forward and backward per mini-batch;
    2. the mean of ``loss_fn(model, example)`` over the mini-batch.

    Rule 1 optimises the same objective as rule 2 (see
    tests/test_batched_equivalence.py), Gumbel noise included.
    ``on_train_start`` receives a copy of ``config`` whose ``batched``
    says whether rule 1 trains; checkpoints keep ``config`` as passed.

    Parameters
    ----------
    loss_fn:
        ``loss_fn(model, example) -> Tensor``; defaults to
        ``model.loss(example)``.  Passing one trains on it, example by
        example.
    val_metric:
        Zero-argument callable evaluated after each epoch, better when
        higher (``metric_mode="max"``) or lower (``"min"``).  The
        weights of the best epoch are restored when training ends.
        Every epoch runs whatever the metric does: several datasets
        (notably MUTAG-like) sit on a long loss plateau before the
        structural signal is picked up, so stopping at the first
        stretch without improvement would end such runs too early.
    callbacks:
        :class:`repro.observe.Callback` objects receiving the trainer's
        event stream (``on_train_start`` … ``on_train_end``); e.g.
        ``ConsoleLogger()`` for per-epoch printing or ``JSONLLogger``
        for structured run logs (docs/observability.md).
    resume:
        Path to a ``repro.ckpt/v1`` checkpoint.  Model parameters,
        optimizer state and the state of ``rng`` are restored in place
        and training continues from the recorded position.  For exact
        replay ``rng`` must be the same generator object the model was
        built with (the harness convention), so Gumbel draws
        resume from the restored state too.
    """
    config = config or TrainConfig()
    if config.data not in ("memory", "streaming"):
        raise ValueError(
            f"unknown data mode {config.data!r}; use 'memory' or 'streaming'"
        )
    if config.metric_mode not in ("max", "min"):
        raise ValueError(
            f"unknown metric_mode {config.metric_mode!r}; use 'max' or 'min'"
        )
    if config.data == "streaming" and not hasattr(examples, "plan_epoch"):
        raise TypeError(
            "TrainConfig(data='streaming') needs examples with a "
            "plan_epoch() method (StreamingDataset / StreamingView, "
            "docs/streaming.md); got "
            f"{type(examples).__name__}"
        )
    batched = config.batched and loss_fn is None and hasattr(model, "batch_loss")
    if loss_fn is None:
        loss_fn = lambda m, ex: m.loss(ex)  # noqa: E731 - tiny default
    events = CallbackList(callbacks)
    optimizer = Adam(model.parameters(), lr=config.lr)
    history = TrainHistory()
    if config.metric_mode == "min":
        history.best_metric = np.inf
    best_state = None
    start_epoch = 0
    resume_step = 0
    resume_order: np.ndarray | None = None
    resume_epoch_loss = 0.0
    global_step = 0

    if resume is not None:
        state = load_checkpoint(resume, model=model, optimizer=optimizer, rng=rng)
        history.losses = state.losses
        history.val_metrics = state.val_metrics
        history.best_epoch = state.best_epoch
        history.best_metric = state.best_metric
        best_state = state.best_state
        start_epoch = state.epoch
        resume_step = state.step
        resume_order = state.order
        resume_epoch_loss = state.epoch_loss
        global_step = state.global_step

    manager = None
    if config.checkpoint_dir is not None:
        manager = CheckpointManager(config.checkpoint_dir)

    def save_checkpoint_now(
        epoch: int, step: int, order: np.ndarray | None, epoch_loss: float,
        is_best: bool = False,
    ) -> None:
        path = manager.save(
            epoch=epoch,
            step=step,
            is_best=is_best,
            model=model,
            optimizer=optimizer,
            rng=rng,
            config=config,
            global_step=global_step,
            epoch_loss=epoch_loss,
            order=order,
            losses=history.losses,
            val_metrics=history.val_metrics,
            best_epoch=history.best_epoch,
            best_metric=history.best_metric,
            best_state=best_state,
        )
        events.on_checkpoint(epoch, step, global_step, path)

    events.on_train_start(model, replace(config, batched=batched))
    if manager is not None and resume is None:
        save_checkpoint_now(0, 0, None, 0.0)
    for epoch in range(start_epoch, config.epochs):
        mid_epoch = epoch == start_epoch and resume_order is not None
        events.on_epoch_start(epoch)
        epoch_start = time.perf_counter()
        model.train()
        if mid_epoch:
            order = resume_order
            epoch_loss = resume_epoch_loss
            first_step = resume_step
        else:
            order = rng.permutation(len(examples))
            epoch_loss = 0.0
            first_step = 0
        if config.data == "streaming":
            # announce the remainder of this epoch's visit order so each
            # shard load serves every upcoming read its window can hold
            examples.plan_epoch(order[first_step * config.batch_size :])
        starts = range(0, len(order), config.batch_size)
        with span("epoch"):
            for step, start in enumerate(starts):
                if step < first_step:
                    continue
                batch = order[start : start + config.batch_size]
                with span("step"):
                    optimizer.zero_grad()
                    with span("forward"):
                        if batched:
                            chunk = [examples[idx] for idx in batch]
                            total = model.batch_loss(chunk)
                        else:
                            total = None
                            for idx in batch:
                                loss = loss_fn(model, examples[idx])
                                total = loss if total is None else total + loss
                            total = total * (1.0 / len(batch))
                    if not np.isfinite(total.data):
                        raise FloatingPointError(
                            f"non-finite loss at epoch {epoch} "
                            f"(lr={config.lr}); reduce the learning rate"
                        )
                    with span("backward"):
                        total.backward()
                    with span("optimizer"):
                        optimizer.step()
                batch_loss = float(total.data)
                epoch_loss += batch_loss * len(batch)
                global_step += 1
                events.on_batch_end(epoch, step, batch_loss, len(batch))
                if (
                    manager is not None
                    and config.checkpoint_every > 0
                    and global_step % config.checkpoint_every == 0
                ):
                    save_checkpoint_now(epoch, step + 1, order, epoch_loss)
        history.losses.append(epoch_loss / max(len(examples), 1))

        metric = None
        improved = False
        if val_metric is not None:
            model.eval()
            with span("validation"):
                metric = float(val_metric())
            history.val_metrics.append(metric)
            if config.metric_mode == "min":
                improved = metric < history.best_metric
            else:
                improved = metric > history.best_metric
            if improved:
                history.best_metric = metric
                history.best_epoch = epoch
                best_state = model.state_dict()
        events.on_epoch_end(
            epoch,
            {
                "loss": history.losses[-1],
                "val_metric": metric,
                "lr": optimizer.lr,
                "epoch_time_s": time.perf_counter() - epoch_start,
            },
        )
        if manager is not None:
            # resume position "start of epoch+1": the next epoch's
            # shuffle replays from the restored rng on resume
            save_checkpoint_now(epoch + 1, 0, None, 0.0, is_best=improved)

    if best_state is not None:
        model.load_state_dict(best_state)
    model.eval()
    events.on_train_end(history)
    return history
