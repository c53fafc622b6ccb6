"""Named model factories for every row of the paper's tables.

``make_embedder`` builds the encode+pool stage for any method name used
in Tables 3-7; ``make_classifier`` / ``make_matcher`` /
``make_similarity`` attach the task heads.  Method names match the
paper's rows exactly (e.g. ``"AttPool-global"``, ``"HAP-DiffPool"``).
"""

from __future__ import annotations

import numpy as np

from repro.core.hap import HierarchicalEmbedder, build_hap_embedder
from repro.gnn.encoder import GNNEncoder
from repro.models.classifier import GraphClassifier
from repro.models.embedders import FlatEmbedder
from repro.models.gmn import GMN
from repro.models.matcher import MatchingModel
from repro.models.similarity import SimilarityModel
from repro.models.simgnn import SimGNN
from repro.pooling import (
    ASAP,
    AttPoolGlobal,
    AttPoolLocal,
    DiffPool,
    GCNConcat,
    GPool,
    MaxPool,
    MeanAttPool,
    MeanAttPoolCoarsening,
    MeanPool,
    MeanPoolCoarsening,
    MinCutPool,
    SAGPool,
    Set2Set,
    SortPooling,
    SpectralPool,
    StructPool,
    SumPool,
)

#: Table 3 rows (plus MaxPool and MinCutPool as extensions).
CLASSIFICATION_METHODS = [
    "GCN-concat",
    "SumPool",
    "MeanPool",
    "MeanAttPool",
    "Set2Set",
    "SortPooling",
    "AttPool-global",
    "AttPool-local",
    "gPool",
    "SAGPool",
    "DiffPool",
    "ASAP",
    "StructPool",
    "HAP",
]

#: Table 5 ablation rows.
ABLATION_METHODS = [
    "HAP-MeanPool",
    "HAP-MeanAttPool",
    "HAP-SAGPool",
    "HAP-DiffPool",
    "HAP",
]

_FLAT_READOUTS = {
    "SumPool": lambda dim, rng: SumPool(dim),
    "MeanPool": lambda dim, rng: MeanPool(dim),
    "MaxPool": lambda dim, rng: MaxPool(dim),
    "MeanAttPool": lambda dim, rng: MeanAttPool(dim, rng),
    "Set2Set": lambda dim, rng: Set2Set(dim, rng),
    "SortPooling": lambda dim, rng: SortPooling(dim, k=8),
}


def _hierarchical(
    in_features: int,
    hidden: int,
    rng: np.random.Generator,
    coarsening_factory,
    num_levels: int = 2,
    conv: str = "gcn",
) -> HierarchicalEmbedder:
    """Two-level encode+coarsen stack shared by all grouped baselines."""
    encoders, coarsenings = [], []
    feat = in_features
    for level in range(num_levels):
        encoders.append(GNNEncoder([feat, hidden, hidden], rng, conv=conv))
        coarsenings.append(coarsening_factory(level, hidden, rng))
        feat = hidden
    return HierarchicalEmbedder(encoders, coarsenings)


def make_embedder(
    method: str,
    in_features: int,
    hidden: int,
    rng: np.random.Generator,
    cluster_sizes: tuple[int, ...] = (8, 1),
    conv: str = "gcn",
    **hap_kwargs,
):
    """Build the encode+pool embedder for any named method."""
    if method == "HAP":
        return build_hap_embedder(
            in_features, hidden, list(cluster_sizes), rng, conv=conv, **hap_kwargs
        )
    if method == "GCN-concat":
        return FlatEmbedder(
            None, GCNConcat(GNNEncoder([in_features, hidden, hidden], rng, conv="gcn"))
        )
    if method in _FLAT_READOUTS:
        encoder = GNNEncoder([in_features, hidden, hidden], rng, conv=conv)
        return FlatEmbedder(encoder, _FLAT_READOUTS[method](hidden, rng))
    hierarchical = {
        "AttPool-global": lambda lvl, dim, r: AttPoolGlobal(dim, r, ratio=0.5),
        "AttPool-local": lambda lvl, dim, r: AttPoolLocal(dim, r, ratio=0.5),
        "gPool": lambda lvl, dim, r: GPool(dim, r, ratio=0.5),
        "SAGPool": lambda lvl, dim, r: SAGPool(dim, r, ratio=0.5),
        "ASAP": lambda lvl, dim, r: ASAP(dim, r, ratio=0.5),
        "DiffPool": lambda lvl, dim, r: DiffPool(dim, cluster_sizes[lvl], r),
        "StructPool": lambda lvl, dim, r: StructPool(dim, cluster_sizes[lvl], r),
        "MinCutPool": lambda lvl, dim, r: MinCutPool(dim, cluster_sizes[lvl], r),
        "SpectralPool": lambda lvl, dim, r: SpectralPool(dim, cluster_sizes[lvl], r),
        # Table 5 ablations: HAP framework, coarsening module swapped out.
        "HAP-MeanPool": lambda lvl, dim, r: MeanPoolCoarsening(),
        "HAP-MeanAttPool": lambda lvl, dim, r: MeanAttPoolCoarsening(dim, r),
        "HAP-SAGPool": lambda lvl, dim, r: SAGPool(dim, r, ratio=0.5),
        "HAP-DiffPool": lambda lvl, dim, r: DiffPool(dim, cluster_sizes[lvl], r),
    }
    if method in hierarchical:
        return _hierarchical(
            in_features,
            hidden,
            rng,
            hierarchical[method],
            num_levels=len(cluster_sizes),
            conv=conv,
        )
    raise ValueError(f"unknown method {method!r}")


def make_classifier(
    method: str,
    in_features: int,
    num_classes: int,
    rng: np.random.Generator,
    hidden: int = 32,
    cluster_sizes: tuple[int, ...] = (8, 1),
    conv: str = "gcn",
    task: str = "classification",
    **hap_kwargs,
) -> GraphClassifier:
    """Graph classification model for a Table 3 / Table 5 row.

    ``task="regression"`` swaps in the single-output MSE head (pass
    ``num_classes=0``); combined with ``edge_features=<Fe>`` in
    ``hap_kwargs`` and a non-GCN ``conv`` this is the molecular
    property-prediction configuration (docs/molecular.md).
    """
    embedder = make_embedder(
        method, in_features, hidden, rng, cluster_sizes, conv, **hap_kwargs
    )
    return GraphClassifier(embedder, num_classes, rng, task=task)


def make_matcher(
    method: str,
    in_features: int,
    rng: np.random.Generator,
    hidden: int = 32,
    cluster_sizes: tuple[int, ...] = (8, 1),
    scale: float = 0.5,
    conv: str = "gcn",
    hierarchical: bool = True,
    **hap_kwargs,
) -> MatchingModel:
    """Graph matching model for a Table 4 / Table 7 row."""
    if method == "GMN":
        return MatchingModel(
            GMN(in_features, hidden, rng), scale=scale, hierarchical=hierarchical
        )
    if method == "GMN-HAP":
        hap = build_hap_embedder(
            hidden, hidden, list(cluster_sizes), rng, conv=conv, **hap_kwargs
        )
        return MatchingModel(
            GMN(in_features, hidden, rng, pooling=hap),
            scale=scale,
            hierarchical=hierarchical,
        )
    embedder = make_embedder(
        method, in_features, hidden, rng, cluster_sizes, conv, **hap_kwargs
    )
    return MatchingModel(embedder, scale=scale, hierarchical=hierarchical)


def make_similarity(
    method: str,
    in_features: int,
    rng: np.random.Generator,
    hidden: int = 32,
    cluster_sizes: tuple[int, ...] = (8, 1),
    conv: str = "gcn",
    **hap_kwargs,
) -> SimilarityModel:
    """Graph similarity model for a Fig. 5 / Table 5 row."""
    if method == "GMN":
        return SimilarityModel(GMN(in_features, hidden, rng))
    if method == "GMN-HAP":
        hap = build_hap_embedder(
            hidden, hidden, list(cluster_sizes), rng, conv=conv, **hap_kwargs
        )
        return SimilarityModel(GMN(in_features, hidden, rng, pooling=hap))
    embedder = make_embedder(
        method, in_features, hidden, rng, cluster_sizes, conv, **hap_kwargs
    )
    return SimilarityModel(embedder)


def make_simgnn(
    in_features: int,
    rng: np.random.Generator,
    hidden: int = 32,
    use_hap_pooling: bool = False,
    cluster_sizes: tuple[int, ...] = (8, 1),
    **hap_kwargs,
) -> SimGNN:
    """SimGNN (or SimGNN-HAP) for the Fig. 5 comparison."""
    pooling = None
    if use_hap_pooling:
        pooling = build_hap_embedder(
            in_features, hidden, list(cluster_sizes), rng, **hap_kwargs
        )
    return SimGNN(in_features, hidden, rng, pooling=pooling)
