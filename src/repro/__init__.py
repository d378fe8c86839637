"""repro — reproduction of "Non-Searchability of Random Scale-Free Graphs".

Duchon, Eggemann, Hanusse (PODC 2007).  The paper proves that evolving
scale-free graphs (Móri trees with mixed preferential/uniform
attachment, and Cooper–Frieze web graphs) require ``Ω(√n)`` expected
requests for *any* local search algorithm, despite their logarithmic
diameter — they are small worlds that are **not navigable**.

This library implements, from scratch:

* every graph model involved (:mod:`repro.graphs`): Móri trees and
  merged ``m``-out graphs, Cooper–Frieze, Barabási–Albert, Molloy–Reed
  configuration graphs, Kleinberg lattices;
* the paper's weak/strong local-knowledge oracles and a portfolio of
  search algorithms (:mod:`repro.search`);
* the vertex-equivalence machinery with *exact* Fraction-arithmetic
  verification of Lemmas 2 and 3 (:mod:`repro.equivalence`);
* analysis tools and the experiment engine regenerating every result
  (:mod:`repro.analysis`, :mod:`repro.core`).

Quickstart::

    from repro import merged_mori_graph, run_search
    from repro.search.algorithms import HighDegreeWeakSearch

    g = merged_mori_graph(n=1000, m=2, p=0.5, seed=7)
    result = run_search(
        HighDegreeWeakSearch(), g.graph, start=1, target=950, seed=0
    )
    print(result.found, result.requests)
"""

from repro.errors import (
    AnalysisError,
    ExperimentError,
    GraphConstructionError,
    InvalidParameterError,
    OracleProtocolError,
    ReproError,
    SearchError,
)
from repro.graphs import (
    CooperFriezeParams,
    KleinbergGrid,
    MoriTree,
    MultiGraph,
    barabasi_albert_graph,
    configuration_model_graph,
    cooper_frieze_graph,
    kleinberg_grid,
    merged_mori_graph,
    mori_tree,
    power_law_degree_sequence,
)
from repro.search import (
    SearchCostSummary,
    SearchResult,
    StrongOracle,
    WeakOracle,
    run_search,
)
from repro.equivalence import (
    equivalence_window,
    exact_event_probability,
    lemma1_lower_bound,
    theorem1_weak_bound,
    verify_lemma2,
)
from repro.runner import TrialSpec, TrialStore, run_trials
from repro.core.registry import (
    ExecutionContext,
    ExperimentSpec,
    REGISTRY,
    run_experiment,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "InvalidParameterError",
    "GraphConstructionError",
    "OracleProtocolError",
    "SearchError",
    "AnalysisError",
    "ExperimentError",
    # graphs
    "MultiGraph",
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
    # search
    "WeakOracle",
    "StrongOracle",
    "SearchResult",
    "SearchCostSummary",
    "run_search",
    # equivalence
    "equivalence_window",
    "exact_event_probability",
    "theorem1_weak_bound",
    "lemma1_lower_bound",
    "verify_lemma2",
    # runner
    "TrialSpec",
    "TrialStore",
    "run_trials",
    # experiment registry
    "ExperimentSpec",
    "ExecutionContext",
    "REGISTRY",
    "run_experiment",
]
