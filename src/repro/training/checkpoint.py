"""Fault-tolerant training checkpoints (schema ``repro.ckpt/v1``).

A checkpoint is one ``.npz`` archive capturing *everything* the trainer
needs to continue a run bit-for-bit where it left off:

- model parameters (``model/<name>`` arrays) and, when early stopping
  is active, the best-so-far parameters (``best/<name>``);
- optimizer state — hyper-parameters, step counter and per-parameter
  slot arrays (Adam moments / SGD velocity) from
  :meth:`repro.nn.optim.Optimizer.state_dict`;
- the numpy ``Generator`` bit-generator state, so every later random
  draw (shuffling, Gumbel noise) replays identically;
- trainer counters: epoch, step-within-epoch, global step, the running
  epoch-loss accumulator, the patience ``stale`` counter, the epoch's
  shuffle permutation (for mid-epoch checkpoints) and the full
  :class:`~repro.training.trainer.TrainHistory` so far.

Writes are **atomic** (:func:`repro.atomic.atomic_write`), so a crash
mid-write leaves the previous checkpoint untouched (see
``tests/test_checkpoint_resume`` and ``tests/faults.py``).

:class:`CheckpointManager` adds the retention policy used by
:func:`repro.training.fit`: keep the last *N* step/epoch checkpoints
plus ``best.npz`` (best validation metric so far), never pruning best.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.atomic import atomic_write

SCHEMA = "repro.ckpt/v1"
#: bumped when the on-disk layout changes
FORMAT_VERSION = 1

_HEADER_KEY = "__repro_ckpt_header__"
_MODEL_PREFIX = "model/"
_BEST_PREFIX = "best/"
_OPTIM_PREFIX = "optim/"
_ORDER_KEY = "order"


@dataclass
class ResumeState:
    """Everything :func:`load_checkpoint` recovered besides the live
    model/optimizer/rng objects it restored in place."""

    epoch: int
    step: int
    global_step: int
    epoch_loss: float
    stale: int
    order: np.ndarray | None
    losses: list[float] = field(default_factory=list)
    val_metrics: list[float] = field(default_factory=list)
    best_epoch: int = -1
    best_metric: float = -np.inf
    best_state: dict[str, np.ndarray] | None = None
    config: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)


def _corrupt(path: Path, exc: Exception) -> ValueError:
    return ValueError(f"corrupted or truncated checkpoint {path}: {exc}")


def save_checkpoint(
    path: str | Path,
    *,
    model,
    optimizer,
    rng: np.random.Generator,
    config=None,
    epoch: int = 0,
    step: int = 0,
    global_step: int = 0,
    epoch_loss: float = 0.0,
    stale: int = 0,
    order: np.ndarray | None = None,
    losses: list[float] | None = None,
    val_metrics: list[float] | None = None,
    best_epoch: int = -1,
    best_metric: float = -np.inf,
    best_state: dict | None = None,
    metadata: dict | None = None,
) -> Path:
    """Atomically write one ``repro.ckpt/v1`` archive to ``path``.

    ``epoch``/``step`` name the *resume position*: ``step`` completed
    mini-batches of epoch ``epoch`` (``step=0`` with no ``order`` means
    "start of epoch ``epoch``").  Returns the final path.
    """
    path = Path(path)
    opt_state = optimizer.state_dict()
    header = {
        "schema": SCHEMA,
        "format_version": FORMAT_VERSION,
        "epoch": int(epoch),
        "step": int(step),
        "global_step": int(global_step),
        "epoch_loss": float(epoch_loss),
        "stale": int(stale),
        "history": {
            "losses": [float(x) for x in (losses or [])],
            "val_metrics": [float(x) for x in (val_metrics or [])],
            "best_epoch": int(best_epoch),
            "best_metric": float(best_metric),
        },
        "rng_state": rng.bit_generator.state,
        "config": _config_to_dict(config),
        "optimizer": {
            "type": opt_state["type"],
            "hyper": opt_state["hyper"],
            "slots": {name: len(arrs) for name, arrs in opt_state["slots"].items()},
        },
        "has_order": order is not None,
        "has_best": best_state is not None,
        "metadata": metadata or {},
    }
    arrays: dict[str, np.ndarray] = {}
    for name, value in model.state_dict().items():
        arrays[_MODEL_PREFIX + name] = value
    for slot, arrs in opt_state["slots"].items():
        for i, arr in enumerate(arrs):
            arrays[f"{_OPTIM_PREFIX}{slot}/{i:05d}"] = arr
    if order is not None:
        arrays[_ORDER_KEY] = np.asarray(order, dtype=np.int64)
    if best_state is not None:
        for name, value in best_state.items():
            arrays[_BEST_PREFIX + name] = value
    arrays[_HEADER_KEY] = np.frombuffer(
        json.dumps(header).encode("utf-8"), dtype=np.uint8
    )

    with atomic_write(path) as fh:
        np.savez(fh, **arrays)
    return path


def read_checkpoint_header(path: str | Path) -> dict:
    """Parse and validate only the JSON header of a checkpoint."""
    path = Path(path)
    header = None
    try:
        with np.load(path) as archive:
            if _HEADER_KEY in archive:
                header = json.loads(bytes(archive[_HEADER_KEY]).decode("utf-8"))
    except Exception as exc:  # zipfile/np.load raise a zoo of types
        # ValueError included: a file cut to its first few bytes no
        # longer starts with the zip magic, and np.load then refuses it
        # as pickled data
        raise _corrupt(path, exc) from exc
    if header is None:
        raise ValueError(f"{path} is not a repro checkpoint archive")
    if header.get("schema") != SCHEMA:
        raise ValueError(
            f"unsupported checkpoint schema {header.get('schema')!r} "
            f"(expected {SCHEMA!r})"
        )
    if header["format_version"] > FORMAT_VERSION:
        raise ValueError(
            f"checkpoint format {header['format_version']} is newer than "
            f"this library ({FORMAT_VERSION}); upgrade repro to load it"
        )
    return header


def load_checkpoint(
    path: str | Path,
    *,
    model=None,
    optimizer=None,
    rng: np.random.Generator | None = None,
) -> ResumeState:
    """Restore a checkpoint written by :func:`save_checkpoint`.

    Whichever of ``model``/``optimizer``/``rng`` are given are restored
    in place; the trainer-side counters come back as a
    :class:`ResumeState`.  Raises ``ValueError`` on truncated or
    corrupted archives and on archives written by a newer format
    version — never silently proceeds with partial state.
    """
    path = Path(path)
    header = read_checkpoint_header(path)
    try:
        with np.load(path) as archive:
            data = {key: archive[key] for key in archive.files}
    except Exception as exc:
        raise _corrupt(path, exc) from exc

    model_state = {
        key[len(_MODEL_PREFIX):]: value
        for key, value in data.items()
        if key.startswith(_MODEL_PREFIX)
    }
    best_state = {
        key[len(_BEST_PREFIX):]: value
        for key, value in data.items()
        if key.startswith(_BEST_PREFIX)
    } or None
    if header["has_best"] and best_state is None:
        raise _corrupt(path, KeyError("best-state arrays missing"))

    if model is not None:
        model.load_state_dict(model_state)
    if optimizer is not None:
        slots = {}
        for slot, count in header["optimizer"]["slots"].items():
            arrs = []
            for i in range(count):
                key = f"{_OPTIM_PREFIX}{slot}/{i:05d}"
                if key not in data:
                    raise _corrupt(path, KeyError(key))
                arrs.append(data[key])
            slots[slot] = arrs
        optimizer.load_state_dict(
            {
                "type": header["optimizer"]["type"],
                "hyper": header["optimizer"]["hyper"],
                "slots": slots,
            }
        )
    if rng is not None:
        rng.bit_generator.state = header["rng_state"]

    order = data.get(_ORDER_KEY) if header["has_order"] else None
    if header["has_order"] and order is None:
        raise _corrupt(path, KeyError(_ORDER_KEY))
    history = header["history"]
    return ResumeState(
        epoch=header["epoch"],
        step=header["step"],
        global_step=header["global_step"],
        epoch_loss=header["epoch_loss"],
        stale=header["stale"],
        order=order,
        losses=list(history["losses"]),
        val_metrics=list(history["val_metrics"]),
        best_epoch=history["best_epoch"],
        best_metric=history["best_metric"],
        best_state=best_state,
        config=header["config"],
        metadata=header["metadata"],
    )


def _config_to_dict(config) -> dict:
    if config is None:
        return {}
    if isinstance(config, dict):
        return dict(config)
    from dataclasses import asdict, is_dataclass

    if is_dataclass(config):
        return asdict(config)
    return dict(vars(config))


class CheckpointManager:
    """Retention policy over a directory of ``repro.ckpt/v1`` archives.

    Checkpoints are named ``ckpt-e{epoch:04d}-s{step:06d}.npz`` after
    their resume position, so lexicographic order is chronological and
    a resumed run deterministically overwrites the files its crashed
    predecessor would have written.  ``keep_last`` bounds the number of
    rolling checkpoints (``None`` keeps all); ``best.npz`` tracks the
    best validation metric and is never pruned.
    """

    _PATTERN = re.compile(r"^ckpt-e(\d+)-s(\d+)\.npz$")
    BEST_NAME = "best.npz"

    def __init__(self, directory: str | Path, keep_last: int | None = 3):
        if keep_last is not None and keep_last < 1:
            raise ValueError(f"keep_last must be >= 1 or None, got {keep_last}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.keep_last = keep_last

    # -- discovery -----------------------------------------------------
    def checkpoint_paths(self) -> list[Path]:
        """Rolling checkpoints, oldest first (excludes ``best.npz``)."""
        found = []
        for entry in self.directory.iterdir():
            match = self._PATTERN.match(entry.name)
            if match:
                found.append(((int(match.group(1)), int(match.group(2))), entry))
        return [path for _, path in sorted(found)]

    def latest(self) -> Path | None:
        paths = self.checkpoint_paths()
        return paths[-1] if paths else None

    def best(self) -> Path | None:
        path = self.directory / self.BEST_NAME
        return path if path.exists() else None

    # -- writing -------------------------------------------------------
    def save(self, *, epoch: int, step: int, is_best: bool = False, **state) -> Path:
        """Write one checkpoint (and ``best.npz`` if ``is_best``), then prune."""
        name = f"ckpt-e{epoch:04d}-s{step:06d}.npz"
        path = save_checkpoint(
            self.directory / name, epoch=epoch, step=step, **state
        )
        if is_best:
            save_checkpoint(
                self.directory / self.BEST_NAME, epoch=epoch, step=step, **state
            )
        self._prune()
        return path

    def _prune(self) -> None:
        if self.keep_last is None:
            return
        for stale_path in self.checkpoint_paths()[: -self.keep_last]:
            stale_path.unlink(missing_ok=True)
