"""Graph substrate: data structure, generators, algorithms, isomorphism, GED.

Everything downstream (GNN layers, pooling, datasets, GED comparators)
works on the immutable :class:`Graph` value type defined here.
"""

from repro.graph.graph import Graph
from repro.graph.generators import (
    complete_graph,
    cycle_graph,
    erdos_renyi,
    path_graph,
    planted_communities,
    random_connected,
    random_sparse_csr,
    star_graph,
    random_tree,
)
from repro.tensor.sparse import CSRMatrix
from repro.graph.algorithms import (
    connect_components,
    connected_components,
    degrees,
    is_connected,
    random_connected_subgraph,
    shortest_path_lengths,
    wl_colors,
)
from repro.graph.features import (
    FeatureVectorClassifier,
    clustering_coefficient,
    graph_feature_vector,
    spectral_gap,
)
from repro.graph.kernels import (
    KernelNearestCentroid,
    shortest_path_kernel,
    wl_subtree_kernel,
)
from repro.graph.isomorphism import VF2Matcher, is_isomorphic, subgraph_is_isomorphic
from repro.graph.edit_distance import exact_ged
from repro.graph.hashing import graph_hash

__all__ = [
    "Graph",
    "graph_hash",
    "complete_graph",
    "cycle_graph",
    "erdos_renyi",
    "path_graph",
    "planted_communities",
    "random_connected",
    "random_sparse_csr",
    "CSRMatrix",
    "star_graph",
    "random_tree",
    "connect_components",
    "connected_components",
    "degrees",
    "is_connected",
    "random_connected_subgraph",
    "shortest_path_lengths",
    "wl_colors",
    "FeatureVectorClassifier",
    "clustering_coefficient",
    "graph_feature_vector",
    "spectral_gap",
    "KernelNearestCentroid",
    "shortest_path_kernel",
    "wl_subtree_kernel",
    "VF2Matcher",
    "is_isomorphic",
    "subgraph_is_isomorphic",
    "exact_ged",
]
