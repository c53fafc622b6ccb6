"""Deterministic fault injection for the crash-safety and corruption tests.

:class:`FaultInjector` is a trainer :class:`~repro.observe.Callback`
that raises :class:`InjectedFault` at an exact, configured point of a
training run — after the k-th optimizer step, the e-th epoch, or the
c-th checkpoint write — so "crash mid-``fit()``" is reproducible down
to the batch.  The file helpers (:func:`truncate_file`,
:func:`flip_bytes`) damage archives deterministically, and
:func:`crash_on_replace` makes the atomic rename every archive write
ends with fail, simulating a crash *during* a write.

All helpers are pure standard library; see docs/checkpointing.md for
the testing recipe.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path

from repro.observe.callbacks import Callback


class InjectedFault(RuntimeError):
    """Raised by the fault-injection helpers; never by production code."""


class FaultInjector(Callback):
    """Raise :class:`InjectedFault` at a configured point of training.

    Parameters
    ----------
    at_step:
        Crash when the *global* count of completed optimizer steps
        (across epochs) reaches this 1-based value, i.e. ``at_step=1``
        crashes right after the first mini-batch.
    at_epoch:
        Crash while the 0-based ``at_epoch``-th epoch is being
        finalised (inside ``on_epoch_end``, before any epoch-boundary
        checkpoint is written).
    at_checkpoint:
        Crash right after the ``at_checkpoint``-th checkpoint write
        (1-based).

    Place the injector *last* in the callback list so loggers observe
    the event that triggers the crash, exactly as they would have in a
    real run that died at that point.
    """

    def __init__(
        self,
        at_step: int | None = None,
        at_epoch: int | None = None,
        at_checkpoint: int | None = None,
    ):
        if at_step is None and at_epoch is None and at_checkpoint is None:
            raise ValueError("configure at least one of at_step/at_epoch/at_checkpoint")
        self.at_step = at_step
        self.at_epoch = at_epoch
        self.at_checkpoint = at_checkpoint
        self.steps_seen = 0
        self.checkpoints_seen = 0

    def on_batch_end(self, epoch: int, step: int, loss: float, batch_size: int) -> None:
        self.steps_seen += 1
        if self.at_step is not None and self.steps_seen >= self.at_step:
            raise InjectedFault(
                f"injected fault after global step {self.steps_seen} "
                f"(epoch {epoch}, step {step})"
            )

    def on_epoch_end(self, epoch: int, logs: dict) -> None:
        if self.at_epoch is not None and epoch >= self.at_epoch:
            raise InjectedFault(f"injected fault at end of epoch {epoch}")

    def on_checkpoint(self, epoch: int, step: int, global_step: int, path) -> None:
        self.checkpoints_seen += 1
        if (
            self.at_checkpoint is not None
            and self.checkpoints_seen >= self.at_checkpoint
        ):
            raise InjectedFault(
                f"injected fault after checkpoint {self.checkpoints_seen} ({path})"
            )


def truncate_file(path: str | Path, keep_bytes: int) -> None:
    """Keep only the first ``keep_bytes`` bytes of ``path``."""
    path = Path(path)
    data = path.read_bytes()
    path.write_bytes(data[:keep_bytes])


def flip_bytes(path: str | Path, offsets, mask: int = 0xFF) -> None:
    """XOR the byte at each offset with ``mask`` (deterministic damage)."""
    path = Path(path)
    data = bytearray(path.read_bytes())
    for offset in offsets:
        data[offset % len(data)] ^= mask
    path.write_bytes(bytes(data))


@contextmanager
def crash_on_replace(after: int = 0):
    """Make atomic writes crash between the temporary write and the rename.

    Inside the context the first ``after`` renames of
    :func:`repro.atomic.atomic_write` (which every archive writer uses)
    go through; every later one raises :class:`InjectedFault` *before*
    its destination is touched — the on-disk state a real crash during
    that write leaves behind.  The previous file must stay loadable.
    """
    from repro import atomic

    original = atomic._replace
    renamed = 0

    def _boom(src, dst) -> None:
        nonlocal renamed
        if renamed < after:
            renamed += 1
            return original(src, dst)
        raise InjectedFault(f"injected fault during atomic replace of {dst}")

    atomic._replace = _boom
    try:
        yield
    finally:
        atomic._replace = original
