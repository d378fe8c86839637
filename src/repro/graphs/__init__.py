"""Random-graph substrates for the non-searchability reproduction.

This subpackage implements, from scratch, every graph model the paper
uses or contrasts against:

* :mod:`repro.graphs.base` — the mutable multigraph all models build on;
* :mod:`repro.graphs.frozen` — the immutable CSR snapshot backend the
  search/analysis hot paths run on (freeze once, read many);
* :mod:`repro.graphs.mori` — the Móri random tree and its merged
  ``m``-out variant (the paper's Theorem 1 object);
* :mod:`repro.graphs.cooper_frieze` — the Cooper–Frieze general
  web-graph model (Theorem 2 object);
* :mod:`repro.graphs.barabasi_albert` — the classic BA model
  (total-degree preferential attachment; §3 contrast);
* :mod:`repro.graphs.power_law` / :mod:`repro.graphs.configuration` —
  pure random graphs with power-law degree sequences (Molloy–Reed), the
  substrate of the Adamic et al. comparison;
* :mod:`repro.graphs.kleinberg` — Kleinberg's navigable small-world
  lattice (the positive result the paper contrasts with);
* :mod:`repro.graphs.sampling` — weighted samplers shared by the
  evolving models;
* :mod:`repro.graphs.fastgen` — vectorized builders, bit-identical to
  the serial Móri, Barabási–Albert and Cooper–Frieze ones;
* :mod:`repro.graphs.components` — connected components and induced
  subgraphs;
* :mod:`repro.graphs.delta` — the dynamic overlay backend (tombstones
  + late joins over a frozen base) and its canonical content digest;
* :mod:`repro.graphs.churn` — deterministic, family-faithful peer
  churn driven on the overlay;
* :mod:`repro.graphs.shm` — shared-memory publication of frozen
  snapshots (publish once, attach by name from worker processes);
* :mod:`repro.graphs.corpus` — the memory-mapped snapshot catalog
  ``repro serve --corpus`` loads.
"""

from repro.graphs.base import MultiGraph
from repro.graphs.churn import ChurnProcess
from repro.graphs.delta import DeltaGraph, graph_digest
from repro.graphs.frozen import FrozenGraph, GraphBackend, freeze
from repro.graphs.mori import MoriTree, merged_mori_graph, mori_tree
from repro.graphs.cooper_frieze import CooperFriezeParams, cooper_frieze_graph
from repro.graphs.barabasi_albert import barabasi_albert_graph
from repro.graphs.configuration import configuration_model_graph
from repro.graphs.power_law import power_law_degree_sequence
from repro.graphs.kleinberg import KleinbergGrid, kleinberg_grid
from repro.graphs.shm import (
    SharedGraphSegment,
    ShmFrozenGraph,
    attach_graph,
    publish_graph,
)

# GraphBackend (the Union alias of the two backends) is importable but
# deliberately not in __all__: it is a typing handle, not a callable.
__all__ = [
    "MultiGraph",
    "FrozenGraph",
    "freeze",
    "DeltaGraph",
    "ChurnProcess",
    "graph_digest",
    "MoriTree",
    "mori_tree",
    "merged_mori_graph",
    "CooperFriezeParams",
    "cooper_frieze_graph",
    "barabasi_albert_graph",
    "configuration_model_graph",
    "power_law_degree_sequence",
    "KleinbergGrid",
    "kleinberg_grid",
    "SharedGraphSegment",
    "ShmFrozenGraph",
    "publish_graph",
    "attach_graph",
]
