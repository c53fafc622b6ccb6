"""The one crash-safe writer: checkpoints, model weights, shards, shard
manifests and dataset-cache entries all go through :func:`atomic_write`.

Standard library only, so any layer can import it without a cycle.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Iterator

#: the rename that publishes every write; the tests' ``crash_on_replace``
#: (tests/faults.py) swaps it to simulate a crash between the write and
#: the rename
_replace = os.replace


@contextmanager
def atomic_write(path: str | Path) -> Iterator[BinaryIO]:
    """Yield a binary file whose content replaces ``path`` on success.

    The body writes a ``<name>.<pid>.tmp`` sibling (one per process, so
    concurrent writers never share it), renamed onto ``path`` once the
    body returns.  If the body or the rename raises, the temporary is
    deleted and the exception re-raised: ``path`` keeps its previous
    content, or stays absent.  Missing parent directories are created.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        _replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
