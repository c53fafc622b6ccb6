"""Canonical graph hashing for the serving layer (docs/serving.md).

``graph_hash`` digests exactly the inputs a model forward consumes —
the adjacency structure/weights, the node feature matrix and the
per-edge attributes (bond types) — into a stable hex string.  Two
graphs hash equal iff a forward pass cannot tell them apart, which is
what makes the hash a safe cache key for the embedding cache of
:mod:`repro.serve`:

- graph labels and node labels are *excluded* (they never enter
  ``embed_levels``), so labelled and unlabelled copies of the same
  featured graph share one cache entry;
- the adjacency is digested in its canonical CSR form (``indptr`` /
  ``indices`` / ``data``, column-sorted rows), so the hash is stable
  across ``Graph`` ↔ :class:`~repro.tensor.sparse.CSRMatrix` round
  trips, whichever adjacency layout the forward is given; edge
  attributes are digested in the same entry order
  (:meth:`~repro.graph.graph.Graph.edge_feature_data`);
- the CSR conversion reuses :meth:`~repro.graph.graph.Graph.to_csr`'s
  per-instance cache, so hashing a graph repeatedly costs one O(N²)
  scan total.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.graph.graph import Graph

#: bumped if the digested byte layout ever changes (v2: edge attributes)
HASH_VERSION = b"repro.graphhash/v2"


def graph_hash(graph: Graph) -> str:
    """Hex digest of the forward-pass-relevant content of ``graph``."""
    csr = graph.to_csr()
    digest = hashlib.sha256(HASH_VERSION)
    digest.update(np.int64(graph.num_nodes).tobytes())
    digest.update(np.ascontiguousarray(csr.indptr, dtype=np.int64).tobytes())
    digest.update(np.ascontiguousarray(csr.indices, dtype=np.int64).tobytes())
    digest.update(np.ascontiguousarray(csr.data, dtype=np.float64).tobytes())
    if graph.features is None:
        digest.update(b"features:none")
    else:
        digest.update(b"features:")
        digest.update(np.int64(graph.features.shape[1]).tobytes())
        digest.update(
            np.ascontiguousarray(graph.features, dtype=np.float64).tobytes()
        )
    if graph.edge_features is None:
        digest.update(b"edge_features:none")
    else:
        digest.update(b"edge_features:")
        digest.update(np.int64(graph.num_edge_features).tobytes())
        digest.update(
            np.ascontiguousarray(graph.edge_feature_data(), dtype=np.float64).tobytes()
        )
    return digest.hexdigest()
