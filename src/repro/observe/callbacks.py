"""Trainer event API and run logging.

:func:`repro.training.fit` drives a list of :class:`Callback` objects
through a fixed event sequence::

    on_train_start(model, config)
    for each epoch:
        on_epoch_start(epoch)
        for each mini-batch:
            on_batch_end(epoch, step, loss, batch_size)
            on_checkpoint(epoch, step, global_step, path)   # when due
        on_epoch_end(epoch, logs)       # logs: loss/val_metric/lr/epoch_time_s
        on_checkpoint(epoch + 1, 0, global_step, path)      # epoch snapshot
    on_train_end(history)

Ready-made callbacks: :class:`ConsoleLogger` (one line per epoch),
:class:`MetricsLogger` (updates a
:class:`~repro.observe.metrics.MetricsRegistry`) and
:class:`JSONLLogger` (structured run logs under ``results/``, schema
``repro.runlog/v1``, see :data:`RUN_LOG_SCHEMA`).
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

from repro.observe.metrics import MetricsRegistry, get_registry

SCHEMA_VERSION = "repro.runlog/v1"

#: Required fields per event type in a JSONL run log.
RUN_LOG_SCHEMA: dict[str, tuple[str, ...]] = {
    "train_start": (
        "event",
        "schema",
        "time",
        "epochs",
        "lr",
        "batch_size",
        "batched",
        "num_parameters",
    ),
    "epoch_end": (
        "event",
        "time",
        "epoch",
        "loss",
        "val_metric",
        "lr",
        "epoch_time_s",
    ),
    "batch_end": ("event", "time", "epoch", "step", "loss", "batch_size"),
    "checkpoint": ("event", "time", "epoch", "step", "global_step", "path"),
    "train_end": ("event", "time", "epochs_run", "best_epoch", "best_metric"),
}


class Callback:
    """Base class: every hook is a no-op; override what you need."""

    def on_train_start(self, model, config) -> None:  # pragma: no cover - no-op
        pass

    def on_epoch_start(self, epoch: int) -> None:  # pragma: no cover - no-op
        pass

    def on_batch_end(
        self, epoch: int, step: int, loss: float, batch_size: int
    ) -> None:  # pragma: no cover - no-op
        pass

    def on_epoch_end(self, epoch: int, logs: dict) -> None:  # pragma: no cover
        pass

    def on_checkpoint(
        self, epoch: int, step: int, global_step: int, path
    ) -> None:  # pragma: no cover - no-op
        """A checkpoint was written; ``(epoch, step)`` is its resume position."""
        pass

    def on_train_end(self, history) -> None:  # pragma: no cover - no-op
        pass


class CallbackList(Callback):
    """Fans every event out to its members, in order."""

    def __init__(self, callbacks=None):
        self.callbacks: list[Callback] = list(callbacks or [])

    def on_train_start(self, model, config) -> None:
        for cb in self.callbacks:
            cb.on_train_start(model, config)

    def on_epoch_start(self, epoch: int) -> None:
        for cb in self.callbacks:
            cb.on_epoch_start(epoch)

    def on_batch_end(self, epoch: int, step: int, loss: float, batch_size: int) -> None:
        for cb in self.callbacks:
            cb.on_batch_end(epoch, step, loss, batch_size)

    def on_epoch_end(self, epoch: int, logs: dict) -> None:
        for cb in self.callbacks:
            cb.on_epoch_end(epoch, logs)

    def on_checkpoint(self, epoch: int, step: int, global_step: int, path) -> None:
        for cb in self.callbacks:
            cb.on_checkpoint(epoch, step, global_step, path)

    def on_train_end(self, history) -> None:
        for cb in self.callbacks:
            cb.on_train_end(history)


class ConsoleLogger(Callback):
    """Prints one line per epoch (what the CLI's ``--verbose`` installs)."""

    def __init__(self, stream=None):
        self.stream = stream

    def on_epoch_end(self, epoch: int, logs: dict) -> None:
        val = logs.get("val_metric")
        if val is None:
            val = math.nan
        stream = self.stream if self.stream is not None else sys.stdout
        print(
            f"epoch {epoch:3d}  loss {logs['loss']:.4f}  val {val:.4f}",
            file=stream,
        )


class MetricsLogger(Callback):
    """Updates a :class:`MetricsRegistry` from training events."""

    def __init__(self, registry: MetricsRegistry | None = None):
        self._registry = registry

    @property
    def registry(self) -> MetricsRegistry:
        return self._registry if self._registry is not None else get_registry()

    def on_batch_end(self, epoch: int, step: int, loss: float, batch_size: int) -> None:
        reg = self.registry
        reg.counter("train/steps").inc()
        reg.counter("train/examples").inc(batch_size)
        reg.histogram("train/batch_loss").observe(loss)

    def on_epoch_end(self, epoch: int, logs: dict) -> None:
        reg = self.registry
        reg.counter("train/epochs").inc()
        reg.gauge("train/loss").set(logs["loss"])
        if logs.get("epoch_time_s") is not None:
            reg.histogram("train/epoch_time_s").observe(logs["epoch_time_s"])
        if logs.get("val_metric") is not None:
            reg.gauge("train/val_metric").set(logs["val_metric"])

    def on_checkpoint(self, epoch: int, step: int, global_step: int, path) -> None:
        self.registry.counter("train/checkpoints").inc()


class JSONLLogger(Callback):
    """Writes one JSON object per event to a ``.jsonl`` run log.

    The file is (re)opened on ``train_start`` and closed on
    ``train_end``; per-batch events are off by default to keep logs
    small.
    """

    def __init__(self, path, log_batches: bool = False):
        self.path = Path(path)
        self.log_batches = log_batches
        self._fh = None

    def _emit(self, record: dict) -> None:
        if self._fh is None:
            return
        self._fh.write(json.dumps(record) + "\n")
        self._fh.flush()

    def on_train_start(self, model, config) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = self.path.open("w", encoding="utf-8")
        num_parameters = sum(
            int(p.data.size) for p in model.parameters()
        ) if hasattr(model, "parameters") else 0
        self._emit(
            {
                "event": "train_start",
                "schema": SCHEMA_VERSION,
                "time": time.time(),
                "epochs": config.epochs,
                "lr": config.lr,
                "batch_size": config.batch_size,
                "batched": config.batched,
                "num_parameters": num_parameters,
            }
        )

    def on_batch_end(self, epoch: int, step: int, loss: float, batch_size: int) -> None:
        if not self.log_batches:
            return
        self._emit(
            {
                "event": "batch_end",
                "time": time.time(),
                "epoch": epoch,
                "step": step,
                "loss": loss,
                "batch_size": batch_size,
            }
        )

    def on_epoch_end(self, epoch: int, logs: dict) -> None:
        self._emit(
            {
                "event": "epoch_end",
                "time": time.time(),
                "epoch": epoch,
                "loss": logs["loss"],
                "val_metric": logs.get("val_metric"),
                "lr": logs.get("lr"),
                "epoch_time_s": logs.get("epoch_time_s"),
            }
        )

    def on_checkpoint(self, epoch: int, step: int, global_step: int, path) -> None:
        self._emit(
            {
                "event": "checkpoint",
                "time": time.time(),
                "epoch": epoch,
                "step": step,
                "global_step": global_step,
                "path": str(path),
            }
        )

    def on_train_end(self, history) -> None:
        best_metric = history.best_metric
        if best_metric is not None and not math.isfinite(best_metric):
            best_metric = None  # strict JSON cannot carry -inf
        self._emit(
            {
                "event": "train_end",
                "time": time.time(),
                "epochs_run": len(history.losses),
                "best_epoch": history.best_epoch,
                "best_metric": best_metric,
            }
        )
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def read_run_log(path) -> list[dict]:
    """Parse a JSONL run log into a list of event records."""
    records = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def validate_run_log(records: list[dict]) -> None:
    """Check a parsed run log against :data:`RUN_LOG_SCHEMA`.

    Raises ``ValueError`` on an unknown event, a missing field, a
    missing ``train_start`` header, or a wrong schema version.
    """
    if not records:
        raise ValueError("empty run log")
    first = records[0]
    if first.get("event") != "train_start":
        raise ValueError("run log must start with a train_start event")
    if first.get("schema") != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported run-log schema {first.get('schema')!r} "
            f"(expected {SCHEMA_VERSION!r})"
        )
    for i, record in enumerate(records):
        event = record.get("event")
        required = RUN_LOG_SCHEMA.get(event)
        if required is None:
            raise ValueError(f"record {i}: unknown event {event!r}")
        missing = [name for name in required if name not in record]
        if missing:
            raise ValueError(f"record {i} ({event}): missing fields {missing}")


def _progress_key(record: dict) -> tuple | None:
    """Position of a progress event within a run.

    ``batch_end`` at step ``s`` means ``s + 1`` completed steps; a
    ``checkpoint`` with resume position ``(e, s)`` sits between
    ``batch_end(e, s - 1)`` and ``batch_end(e, s)``; ``epoch_end``
    closes the epoch.  Non-progress events (``train_start`` /
    ``train_end``) return None.
    """
    event = record.get("event")
    if event == "batch_end":
        return (record["epoch"], 0, record["step"] + 1, 0)
    if event == "checkpoint":
        return (record["epoch"], 0, record["step"], 1)
    if event == "epoch_end":
        return (record["epoch"], 1, 0, 0)
    return None


def stitch_run_logs(first: list[dict], second: list[dict]) -> list[dict]:
    """Merge a crashed run's log with its resumed continuation.

    ``second``'s earliest progress event marks the resume point; events
    ``first`` logged at or past it (work redone after the restored
    checkpoint) are dropped, and ``second``'s ``train_start`` header is
    replaced by ``first``'s.  The result reads as one uninterrupted
    run-log (validate with :func:`validate_stitched_steps`).
    """
    if not second:
        return list(first)
    resume_keys = [k for k in map(_progress_key, second) if k is not None]
    if not resume_keys:
        raise ValueError("resumed run log holds no progress events")
    resume_point = min(resume_keys)
    stitched = [r for r in first if r.get("event") == "train_start"]
    stitched += [
        r
        for r in first
        if (key := _progress_key(r)) is not None and key < resume_point
    ]
    stitched += [r for r in second if r.get("event") != "train_start"]
    return stitched


def validate_stitched_steps(records: list[dict]) -> None:
    """Check that batch events cover each epoch exactly once.

    Raises ``ValueError`` when any epoch's ``batch_end`` step indices
    are not exactly ``0..n-1`` (a duplicated or skipped step across a
    resume boundary), or when the logged epochs are not contiguous.
    """
    steps_by_epoch: dict[int, list[int]] = {}
    for record in records:
        if record.get("event") == "batch_end":
            steps_by_epoch.setdefault(record["epoch"], []).append(record["step"])
    if not steps_by_epoch:
        raise ValueError("no batch_end events to validate (log_batches off?)")
    epochs = sorted(steps_by_epoch)
    if epochs != list(range(epochs[0], epochs[-1] + 1)):
        raise ValueError(f"non-contiguous epochs in stitched log: {epochs}")
    for epoch, steps in sorted(steps_by_epoch.items()):
        expected = list(range(len(steps)))
        if sorted(steps) != expected:
            raise ValueError(
                f"epoch {epoch}: batch steps {sorted(steps)} are not "
                f"exactly {expected} (duplicated or skipped step)"
            )
