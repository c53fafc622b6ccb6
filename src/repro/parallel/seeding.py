"""Deterministic per-task RNG streams for parallel execution.

Parallel determinism hinges on one rule: a task's random stream must be
a pure function of *which task it is*, never of which worker runs it or
when.  ``numpy.random.SeedSequence.spawn`` provides exactly that — the
``i``-th child of a root sequence is identified by its spawn key, so
spawning ``n`` children up front and shipping child ``i`` with task
``i`` gives every task an independent, reproducible stream regardless
of scheduling (the scheme PyTorch DataLoader workers and JAX use for
sharded RNG).

``SeedSequence`` objects are small and picklable, so they travel inside
task payloads through the spawn-safe :class:`~repro.parallel.pool.WorkerPool`.
"""

from __future__ import annotations

import numpy as np


def spawn_task_seeds(
    root: int | np.random.SeedSequence, n_tasks: int, *, stream: int | None = None
) -> list[np.random.SeedSequence]:
    """Spawn ``n_tasks`` independent child seed sequences from ``root``.

    ``stream`` mixes an extra integer into the root entropy so distinct
    subsystems (dataset generation, fold splitting, fold training) that
    share one user-facing seed still draw from unrelated streams.
    """
    if n_tasks < 0:
        raise ValueError(f"cannot spawn {n_tasks} seeds")
    if isinstance(root, np.random.SeedSequence):
        if stream is not None:
            raise ValueError("stream= only applies to integer roots")
        sequence = root
    else:
        entropy = [int(root)] if stream is None else [int(root), int(stream)]
        sequence = np.random.SeedSequence(entropy)
    return sequence.spawn(n_tasks)
