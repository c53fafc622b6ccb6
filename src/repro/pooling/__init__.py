"""Graph pooling operators.

Implements every baseline the paper compares against (Table 3), grouped
as in its related-work taxonomy:

- flat universal pooling: ``SumPool``, ``MeanPool``, ``MaxPool``,
  ``GCNConcat``, ``MeanAttPool`` (SimGNN-style), ``GatedAttPool``
  (GG-NN soft attention), ``Set2Set``;
- flat Top-K pooling: ``SortPooling``, ``AttPoolGlobal``,
  ``AttPoolLocal``, ``GPool``, ``SAGPool``;
- hierarchical group pooling: ``DiffPool``, ``ASAP``;
- unsupervised-flavoured: ``StructPool`` (CRF mean-field), and
  ``MinCutPool`` as an extension.

Two interfaces (see :mod:`repro.pooling.base`): a *readout* maps
``(A, H)`` to a graph-level vector; a *coarsening* maps ``(A, H)`` to a
smaller ``(A', H')`` and is what HAP's ablation (Table 5) swaps in for
the graph coarsening module.  A coarsening implements only ``select``,
returning the assignment S in a :class:`Selection`; the shared Reduce
and Connect do the rest.
"""

from repro.pooling.base import Coarsening, Readout, Selection
from repro.pooling.universal import (
    GCNConcat,
    GatedAttPool,
    MaxPool,
    MeanAttPool,
    MeanAttPoolCoarsening,
    MeanPool,
    MeanPoolCoarsening,
    SumPool,
)
from repro.pooling.set2set import Set2Set
from repro.pooling.sort import SortPooling
from repro.pooling.topk import AttPoolGlobal, AttPoolLocal, GPool, SAGPool, TopKCoarsening
from repro.pooling.diffpool import DiffPool
from repro.pooling.asap import ASAP
from repro.pooling.structpool import StructPool
from repro.pooling.mincut import MinCutPool
from repro.pooling.spectral import SpectralPool, normalized_laplacian, spectral_embedding

__all__ = [
    "Coarsening",
    "Readout",
    "Selection",
    "SumPool",
    "MeanPool",
    "MaxPool",
    "GCNConcat",
    "MeanAttPool",
    "GatedAttPool",
    "MeanPoolCoarsening",
    "MeanAttPoolCoarsening",
    "Set2Set",
    "SortPooling",
    "AttPoolGlobal",
    "AttPoolLocal",
    "GPool",
    "SAGPool",
    "TopKCoarsening",
    "DiffPool",
    "ASAP",
    "StructPool",
    "MinCutPool",
    "SpectralPool",
    "normalized_laplacian",
    "spectral_embedding",
]
