"""Model persistence: save/load parameter state as ``.npz`` archives.

Keeps trained models reusable across processes without pickling code:
only parameter arrays and a small JSON header travel.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.atomic import atomic_write
from repro.nn.module import Module

#: bumped when the on-disk layout changes
FORMAT_VERSION = 1

#: bumped if the fingerprint byte layout ever changes
FINGERPRINT_VERSION = b"repro.fingerprint/v1"


def module_fingerprint(module: Module) -> str:
    """Hex digest of a module's parameter names, shapes and values.

    Any weight update changes the fingerprint, which is what lets the
    serving layer (docs/serving.md) key its embedding cache by
    ``(model fingerprint, graph hash)``: entries computed by stale
    weights can never be returned for the updated model.
    """
    digest = hashlib.sha256(FINGERPRINT_VERSION)
    for name, param in sorted(module.named_parameters()):
        digest.update(name.encode("utf-8"))
        digest.update(str(param.data.shape).encode("utf-8"))
        digest.update(np.ascontiguousarray(param.data, dtype=np.float64).tobytes())
    return digest.hexdigest()

_HEADER_KEY = "__repro_header__"


def save_module(module: Module, path: str | Path, metadata: dict | None = None) -> None:
    """Write ``module``'s parameters (and optional metadata) to ``path``.

    The archive holds one array per named parameter plus a JSON header
    with the format version and user metadata.  The write is atomic: a
    crash mid-save leaves the previous file at ``path`` intact.
    """
    path = Path(path)
    state = module.state_dict()
    header = {
        "format_version": FORMAT_VERSION,
        "num_parameters": int(sum(v.size for v in state.values())),
        "metadata": metadata or {},
    }
    arrays = dict(state)
    arrays[_HEADER_KEY] = np.frombuffer(
        json.dumps(header).encode("utf-8"), dtype=np.uint8
    )
    # np.savez appends ".npz" to bare paths but not to open file handles;
    # writing through a handle keeps the archive at exactly ``path``
    # whatever its suffix (".ckpt", none, ...), so a later
    # ``load_module(path)`` always finds it.
    with atomic_write(path) as fh:
        np.savez(fh, **arrays)


def load_module(module: Module, path: str | Path) -> dict:
    """Load parameters saved by :func:`save_module` into ``module``.

    Returns the stored metadata dict.  Raises on version or shape
    mismatches (delegated to ``Module.load_state_dict``).
    """
    path = Path(path)
    if not path.exists():
        # archives written by older save_module versions went through
        # np.savez, which appended ".npz" to suffix-less paths
        legacy = path.with_name(path.name + ".npz")
        if legacy.exists():
            path = legacy
        else:
            raise FileNotFoundError(f"no model archive at {path}")
    with np.load(path) as archive:
        if _HEADER_KEY not in archive:
            raise ValueError(f"{path} is not a repro model archive")
        header = json.loads(bytes(archive[_HEADER_KEY]).decode("utf-8"))
        if header["format_version"] > FORMAT_VERSION:
            raise ValueError(
                f"archive format {header['format_version']} is newer than "
                f"this library ({FORMAT_VERSION})"
            )
        state = {k: archive[k] for k in archive.files if k != _HEADER_KEY}
    module.load_state_dict(state)
    return header["metadata"]
