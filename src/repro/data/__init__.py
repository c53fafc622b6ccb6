"""Datasets and input construction.

Synthetic, seeded substitutes for the paper's benchmark datasets (see
DESIGN.md §1 for the substitution rationale), the VF2-based graph
matching pair generator (Sec. 6.1.1), the GED triplet generator
(Sec. 4.2, Eq. 8-10), feature encodings and split utilities.
"""

from repro.data.encoding import attach_degree_features, attach_label_features, attach_constant_features
from repro.data.datasets import (
    DATASET_BUILDERS,
    dataset_statistics,
    dataset_task,
    make_aids_like,
    make_collab_like,
    make_esol_like,
    make_imdb_b_like,
    make_imdb_m_like,
    make_linux_like,
    make_mutag_like,
    make_proteins_like,
    make_ptc_like,
)
from repro.data.attributed import ATTRIBUTE_DIM, make_attributed_like
from repro.data.batching import GraphBatch, batch_graphs
from repro.data.cache import DatasetCache, clear_memory_cache, load_dataset_cached
from repro.data.io import load_graphs, save_graphs
from repro.data.matching import MatchingPair, make_matching_dataset
from repro.data.sharding import (
    ShardCorruptionError,
    ShardManifest,
    load_manifest,
    read_shard,
    rebuild_shard,
    shard_dataset,
    write_shards,
)
from repro.data.streaming import StreamingDataset, StreamingView
from repro.data.perturb import drop_edges
from repro.data.triplets import GraphTriplet, TripletGenerator
from repro.data.splits import (
    k_fold,
    scaffold_split,
    stratified_k_fold,
    train_val_test_split,
)
from repro.tensor import Slots  # the layout of a GraphBatch's node rows

__all__ = [
    "attach_degree_features",
    "attach_label_features",
    "attach_constant_features",
    "DATASET_BUILDERS",
    "dataset_statistics",
    "dataset_task",
    "make_aids_like",
    "make_collab_like",
    "make_esol_like",
    "make_imdb_b_like",
    "make_imdb_m_like",
    "make_linux_like",
    "make_mutag_like",
    "make_proteins_like",
    "make_ptc_like",
    "ATTRIBUTE_DIM",
    "DatasetCache",
    "clear_memory_cache",
    "load_dataset_cached",
    "GraphBatch",
    "Slots",
    "batch_graphs",
    "load_graphs",
    "save_graphs",
    "make_attributed_like",
    "drop_edges",
    "MatchingPair",
    "make_matching_dataset",
    "ShardCorruptionError",
    "ShardManifest",
    "load_manifest",
    "read_shard",
    "rebuild_shard",
    "shard_dataset",
    "write_shards",
    "StreamingDataset",
    "StreamingView",
    "GraphTriplet",
    "TripletGenerator",
    "k_fold",
    "scaffold_split",
    "stratified_k_fold",
    "train_val_test_split",
]
