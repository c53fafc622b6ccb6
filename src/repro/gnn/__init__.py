"""Graph neural network layers.

Implements the two node/cluster-embedding components the paper plugs
into HAP (Sec. 4.3): GCN (Eq. 12) and GAT (Eq. 11), plus GIN, SAGE and
a configurable ``GNNEncoder`` stack.  Every layer takes level 0 as a
constant :class:`repro.tensor.CSRMatrix` (a graph's ``to_csr()`` or a
ragged batch's block-diagonal adjacency), with bond features as
``(nnz, Fe)`` rows beside it, and a coarsened level as a dense
adjacency: a :class:`repro.tensor.Tensor` (the differentiable
coarsened adjacency produced by graph coarsening) or a numpy array.
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
