"""Graph neural network layers on dense adjacency matrices.

Implements the two node/cluster-embedding components the paper plugs
into HAP (Sec. 4.3): GCN (Eq. 12) and GAT (Eq. 11), plus a configurable
``GNNEncoder`` stack.  Layers accept the adjacency either as a plain
numpy array (fixed graph) or as a :class:`repro.tensor.Tensor` (the
differentiable coarsened adjacency produced by graph coarsening).
"""

from repro.gnn.layers import GCNLayer, GATLayer
from repro.gnn.edges import EdgeGate
from repro.gnn.extra_layers import GINLayer, SAGELayer
from repro.gnn.encoder import GNNEncoder

__all__ = [
    "EdgeGate",
    "GCNLayer",
    "GATLayer",
    "GINLayer",
    "SAGELayer",
    "GNNEncoder",
]
