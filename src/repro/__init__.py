"""repro — full-stack reproduction of HAP (Hierarchical Adaptive Pooling).

Reproduces "Hierarchical Adaptive Pooling by Capturing High-order
Dependency for Graph Representation Learning" (Liu et al., ICDE 2024
extended abstract / IEEE TKDE) from scratch in numpy: autograd engine,
GNN layers, fifteen pooling operators, the HAP core (GCont + MOA +
graph coarsening), GMN/SimGNN comparators, exact and approximate graph
edit distance, synthetic dataset substitutes and a benchmark harness
regenerating every table and figure of the paper's evaluation.

Package map (see docs/api.md for details):

- :mod:`repro.tensor` — reverse-mode autograd over numpy
- :mod:`repro.nn` — modules, layers, optimisers, losses, persistence
- :mod:`repro.graph` — Graph type, generators, algorithms, VF2, GED, kernels
- :mod:`repro.ged` — beam / Hungarian / VJ / Hausdorff approximations
- :mod:`repro.gnn` — GCN, GAT, GIN, GraphSAGE encoders
- :mod:`repro.pooling` — the baseline pooling operators
- :mod:`repro.core` — GCont, MOA, GraphCoarsening, the HAP framework
- :mod:`repro.models` — task heads, GMN, SimGNN and the model zoo
- :mod:`repro.hetero` — heterogeneous-graph extension
- :mod:`repro.data` — datasets, pairs, triplets, perturbations, splits
- :mod:`repro.training` / :mod:`repro.evaluation` — fit loop, metrics,
  harness, t-SNE, cross-validation
- :mod:`repro.cli` — ``python -m repro`` entry point
- :mod:`repro.atomic` — the one crash-safe writer every archive uses
"""

__version__ = "1.0.0"
