"""Approximate graph edit distance algorithms.

The paper's graph-similarity baselines (Fig. 5): beam-search GED
(Neuhaus, Riesen & Bunke 2006), the bipartite Hungarian approximation
(Riesen & Bunke 2009) and the Volgenant-Jonker variant (Fankhauser,
Riesen & Bunke 2011).  The underlying linear-assignment solvers are
implemented from scratch in :mod:`repro.ged.assignment`.
"""

from repro.ged.assignment import hungarian, jonker_volgenant
from repro.ged.beam import beam_ged
from repro.ged.bipartite import bipartite_ged, hungarian_ged, vj_ged, mapping_edit_cost

__all__ = [
    "hungarian",
    "jonker_volgenant",
    "beam_ged",
    "bipartite_ged",
    "hungarian_ged",
    "vj_ged",
    "mapping_edit_cost",
]
