"""Out-of-core streaming loader over shard directories.

:class:`StreamingDataset` presents a shard directory written by
:mod:`repro.data.sharding` as a random-access sequence of featured
:class:`~repro.graph.graph.Graph` objects without holding the corpus.
Every read returns bitwise the graph the in-memory loader returns; the
pieces below only decide how often a shard is decoded:

- **Planned reads: a graph window.**  :meth:`plan_epoch` announces the
  order the caller is about to read (``fit`` announces its flat
  ``rng.permutation``), and the dataset simulates the window over it
  once — an exact load schedule.  A planned read the window holds
  costs no load; any other planned read loads its shard, and the
  window keeps that shard's upcoming reads, nearest first, while it
  holds at most ``H - 1`` graphs, dropping the farthest.  ``H =
  max_cached_shards · shard_size`` is the memory budget.  A flat order
  over ``N`` graphs then loads each shard about ``⌈N / H⌉`` times
  instead of about once per read.
- **Off-plan reads: an LRU shard window.**  ``dataset[i]`` with no
  plan, or a read other than the next planned one, goes through a
  small ``OrderedDict`` of at most ``max_cached_shards`` decoded
  shards and leaves the plan as it is.
- **Loads on the reading thread.**  A load reads, verifies and
  feature-encodes its shard in the call that needs it, so *which*
  graph comes back for an index never depends on timing or window
  size.
- **Shard-aware deterministic shuffling.**  :meth:`shuffled_order`
  derives a permutation from ``SeedSequence([seed, _SHUFFLE_STREAM])``
  in two levels — shard visit order, then an intra-shard permutation
  per shard keyed by shard id — so an epoch at any corpus scale loads
  every shard exactly once, and the order is a pure function of the
  seed: identical regardless of ``n_workers`` or ``max_cached_shards``.

A planned epoch holds fewer than ``H`` decoded graphs, plus the shard
being decoded — the bound ``benchmarks/test_streaming_memory.py``
gates in CI.
``subset(indices)`` gives the zero-copy fold view
``cross_validate_classification`` hands each worker: folds share one
shard directory on disk instead of rebuilding whole datasets per
process.  See ``docs/streaming.md`` for the full contract.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from collections import OrderedDict
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from repro.data.cache import attach_dataset_features, encoding_dim
from repro.data.sharding import load_manifest, read_shard
from repro.graph.graph import Graph
from repro.observe.metrics import get_registry

#: entropy tag mixed into the user seed for epoch shuffling
_SHUFFLE_STREAM = 12


def _bounds(groups: np.ndarray, count: int) -> np.ndarray:
    """Start offsets of each group id in a stable argsort of ``groups``."""
    sizes = np.bincount(groups, minlength=count)
    return np.concatenate(([0], np.cumsum(sizes)))


class _EpochPlan:
    """An announced read order compiled into an exact load schedule.

    Position ``p`` reads global index ``order[p]``; ``offsets`` holds
    each shard's first global index.  The window holds positions: a
    read it holds is a hit, any other read is a *load* of its shard,
    after which the window keeps the ``capacity`` nearest upcoming
    positions among the ones it held and the loaded shard's next reads.
    Simulating that once gives every load in advance: ``loads`` is the
    shard of each load in order and ``served_by(j)`` the positions load
    ``j`` serves, its own first.
    """

    def __init__(self, order: np.ndarray, offsets: np.ndarray, capacity: int):
        shards = np.searchsorted(offsets, order, side="right")
        shards -= 1
        by_shard = np.argsort(shards, kind="stable")
        bounds = _bounds(shards, len(offsets) - 1)
        #: for every position, the load that serves it
        source = np.full(len(order), -1)
        starts: list[int] = []
        window = np.empty(0, dtype=int)  # held upcoming positions, ascending
        position = 0
        while position < len(order):  # the window misses ``position``
            load = len(starts)
            starts.append(position)
            source[position] = load
            shard = shards[position]
            reads = by_shard[bounds[shard] : bounds[shard + 1]]
            fresh = reads[np.searchsorted(reads, position, side="right") :]
            fresh = fresh[:capacity]
            fresh = fresh[source[fresh] < 0]  # not held already
            held = window
            window = np.sort(np.concatenate((held, fresh)))[:capacity]
            if len(window):
                source[held[held > window[-1]]] = -1
                source[fresh[fresh <= window[-1]]] = load
            # the positions right after this one that the window holds
            # are hits; the first one it does not hold is the next load
            ahead = np.arange(position + 1, position + 1 + len(window))
            gaps = np.flatnonzero(window != ahead)
            hits = int(gaps[0]) if len(gaps) else len(window)
            window = window[hits:]
            position += 1 + hits
        self.order = order
        self.loads = shards[starts]
        del shards, by_shard  # bound the plan's peak memory
        self._served = np.argsort(source, kind="stable")
        self._bounds = _bounds(source, len(starts))
        #: next position to read / next load to make
        self.cursor = 0
        self.next_load = 0

    def served_by(self, load: int) -> np.ndarray:
        return self._served[self._bounds[load] : self._bounds[load + 1]]


class StreamingDataset(Sequence):
    """Random-access view over a shard directory with bounded residency.

    Parameters
    ----------
    shard_dir:
        Directory holding ``manifest.json`` + ``shard_*.npz`` (written
        by :func:`repro.data.sharding.write_shards` or
        :func:`~repro.data.sharding.shard_dataset`).
    max_cached_shards:
        Memory budget in shards (>= 1): the LRU window holds this many
        decoded shards, the planned-read window fewer than this many
        shards' worth of graphs.

    Every load checks the shard's content checksum against the manifest,
    so corruption surfaces as
    :class:`~repro.data.sharding.ShardCorruptionError`.
    """

    def __init__(self, shard_dir: str | Path, *, max_cached_shards: int = 2):
        if max_cached_shards < 1:
            raise ValueError(
                f"max_cached_shards must be >= 1, got {max_cached_shards}"
            )
        self.shard_dir = str(shard_dir)
        self.manifest = load_manifest(shard_dir)
        self.max_cached_shards = int(max_cached_shards)
        #: global index of each shard's first graph, plus the total
        self._offsets = np.concatenate(
            ([0], np.cumsum(self.manifest.counts))
        ).astype(int)
        self._cache: OrderedDict[int, list[Graph]] = OrderedDict()
        self._plan: _EpochPlan | None = None
        #: planned graphs the window holds, keyed by plan position
        self._held: dict[int, Graph] = {}

    # -- metadata (no shard loads) ----------------------------------------

    @property
    def name(self) -> str:
        return self.manifest.name

    @property
    def num_shards(self) -> int:
        return self.manifest.num_shards

    @property
    def num_classes(self) -> int | None:
        return self.manifest.num_classes

    @property
    def feature_dim(self) -> int | None:
        """Feature dimension after encoding (None for raw shard sets)."""
        if self.manifest.encoding is None:
            return None
        return encoding_dim(self.manifest.encoding)

    @property
    def labels(self) -> np.ndarray:
        """Per-graph labels straight from the manifest.

        An int array of class labels, or a float array of regression
        targets.  Lets fold splitting stratify a 1M-graph corpus without
        decoding a single shard.
        """
        if self.manifest.labels is None:
            raise ValueError(
                f"shards under {self.shard_dir} carry no labels "
                "(unlabelled / GED dataset)"
            )
        return np.asarray(self.manifest.labels)

    def __len__(self) -> int:
        return int(self._offsets[-1])

    def shard_of(self, index: int) -> int:
        """Which shard holds global ``index``."""
        return bisect_right(self._offsets, index) - 1

    # -- shard loads -------------------------------------------------------

    def _load(self, shard: int) -> list[Graph]:
        """Read, verify and feature-encode one shard."""
        registry = get_registry()
        start = time.perf_counter()
        graphs = read_shard(self.shard_dir, shard, manifest=self.manifest)
        if self.manifest.encoding is not None:
            graphs, _ = attach_dataset_features(graphs, self.manifest.encoding)
        registry.counter("streaming/load_wait_s").inc(time.perf_counter() - start)
        registry.counter("streaming/shard_loads").inc()
        return graphs

    def _shard(self, shard: int) -> list[Graph]:
        """The decoded, featured graphs of one shard (LRU-cached)."""
        registry = get_registry()
        cached = self._cache.get(shard)
        if cached is not None:
            registry.counter("streaming/cache_hit").inc()
            self._cache.move_to_end(shard)
            return cached
        cached = self._load(shard)
        self._cache[shard] = cached
        while len(self._cache) > self.max_cached_shards:
            self._cache.popitem(last=False)
            registry.counter("streaming/evictions").inc()
        return cached

    def _planned_read(self, plan: _EpochPlan) -> Graph:
        """Serve the plan's next position from the window or its load."""
        position = plan.cursor
        plan.cursor += 1
        graph = self._held.pop(position, None)
        if graph is not None:
            get_registry().counter("streaming/cache_hit").inc()
            return graph
        shard = int(plan.loads[plan.next_load])
        served = plan.served_by(plan.next_load)
        plan.next_load += 1
        graphs = self._load(shard)
        first = self._offsets[shard]
        for later in served[1:].tolist():
            self._held[later] = graphs[plan.order[later] - first]
        return graphs[plan.order[position] - first]

    def __getitem__(self, index: int) -> Graph:
        index = int(index)
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError(
                f"index {index} out of range for {len(self)} graphs"
            )
        plan = self._plan
        if (
            plan is not None
            and plan.cursor < len(plan.order)
            and plan.order[plan.cursor] == index
        ):
            return self._planned_read(plan)
        shard = self.shard_of(index)
        return self._shard(shard)[index - self._offsets[shard]]

    # -- epoch planning and iteration --------------------------------------

    def plan_epoch(self, order: Sequence[int]) -> None:
        """Declare the global-index read order the caller will follow.

        Replaces any earlier plan and drops every graph held for it (and
        the LRU window), then schedules the loads of the new order.
        Reads that follow the plan are served by the graph window; a
        read that departs from it still works, through the LRU window,
        and leaves the plan as it is.
        """
        order = np.asarray(order, dtype=int)
        if len(order) and not (0 <= order.min() and order.max() < len(self)):
            raise IndexError(
                f"plan indices out of range for {len(self)} graphs"
            )
        self._held.clear()
        self._cache.clear()
        self._plan = _EpochPlan(
            order,
            self._offsets,
            self.max_cached_shards * self.manifest.shard_size - 1,
        )

    def shuffled_order(self, seed: int) -> np.ndarray:
        """Deterministic shard-aware epoch permutation of global indices.

        Two-level: the shard visit order comes from
        ``SeedSequence([seed, _SHUFFLE_STREAM])`` and each shard's
        internal order from that sequence's spawned child keyed by
        shard id.  Every shard appears exactly once (single load per
        epoch through either window) and the result is a pure function
        of ``seed`` and the manifest — independent of workers and cache
        state.
        """
        root = np.random.SeedSequence([int(seed), _SHUFFLE_STREAM])
        shard_order = np.random.default_rng(root).permutation(self.num_shards)
        children = root.spawn(self.num_shards)
        parts = []
        for shard in shard_order:
            intra = np.random.default_rng(children[shard]).permutation(
                self.manifest.counts[shard]
            )
            parts.append(self._offsets[shard] + intra)
        return np.concatenate(parts)

    def iter_shuffled(self, seed: int) -> Iterator[Graph]:
        """Stream one shuffled epoch, loading each shard exactly once."""
        order = self.shuffled_order(seed)
        self.plan_epoch(order)
        for index in order:
            yield self[int(index)]

    def __iter__(self) -> Iterator[Graph]:
        self.plan_epoch(np.arange(len(self)))
        for index in range(len(self)):
            yield self[index]

    def subset(self, indices: Sequence[int]) -> "StreamingView":
        """A lazy fold view over a subset of global indices."""
        return StreamingView(self, indices)

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Drop both windows and the plan."""
        self._cache.clear()
        self._held.clear()
        self._plan = None

    def __enter__(self) -> "StreamingDataset":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __getstate__(self) -> dict:
        """Pickle only the configuration — workers reopen the shards."""
        state = self.__dict__.copy()
        state["_cache"] = OrderedDict()
        state["_plan"] = None
        state["_held"] = {}
        return state


class StreamingView(Sequence):
    """Subset of a :class:`StreamingDataset` by global indices.

    The fold-task unit: ``view[i]`` maps through to the parent's
    windows, ``plan_epoch`` translates local orders to global ones, and
    nothing is materialised — two views over one dataset share its
    windows.
    """

    def __init__(self, parent: StreamingDataset, indices: Sequence[int]):
        self.parent = parent
        self._indices = np.asarray(indices, dtype=int)
        if self._indices.ndim != 1:
            raise ValueError("indices must be one-dimensional")
        if len(self._indices) and not (
            0 <= self._indices.min() and self._indices.max() < len(parent)
        ):
            raise IndexError(
                f"subset indices out of range for {len(parent)} graphs"
            )

    def __len__(self) -> int:
        return len(self._indices)

    def __getitem__(self, index: int) -> Graph:
        return self.parent[int(self._indices[int(index)])]

    def __iter__(self) -> Iterator[Graph]:
        self.plan_epoch(np.arange(len(self)))
        for global_index in self._indices:
            yield self.parent[int(global_index)]

    def plan_epoch(self, order: Sequence[int]) -> None:
        """Translate a local read order into the parent's plan."""
        self.parent.plan_epoch(self._indices[np.asarray(order, dtype=int)])

    @property
    def labels(self) -> np.ndarray:
        return self.parent.labels[self._indices]

    @property
    def feature_dim(self) -> int | None:
        return self.parent.feature_dim

    @property
    def num_classes(self) -> int | None:
        return self.parent.num_classes

    def close(self) -> None:
        self.parent.close()
