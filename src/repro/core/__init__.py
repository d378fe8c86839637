"""Experiment engine: families, measurements, registry, results.

* :mod:`repro.core.families` — uniform build/target handles over the
  paper's graph models;
* :mod:`repro.core.searchability` — Monte-Carlo estimation of expected
  request counts and scaling sweeps;
* :mod:`repro.core.registry` — the declarative experiment registry:
  typed param schemas, capability declarations, and the
  :class:`~repro.core.registry.ExecutionContext` carrying the resolved
  jobs/store/mode axes once per run, and
  :func:`~repro.core.registry.run_experiment`, the one way to run an
  experiment;
* :mod:`repro.core.experiments` — the registered experiments E1–E22
  that regenerate every table/figure of the reproduction;
* :mod:`repro.core.trials` — the pure top-level trial functions the
  runner executes, one Monte-Carlo cell each;
* :mod:`repro.core.results` — printable tables and JSON records;
* :mod:`repro.core.compare` — record-against-record regression checks
  (``repro compare``);
* :mod:`repro.core.plotting` — ASCII plots of scaling curves
  (``--plot``).
"""

from repro.core.families import (
    BarabasiAlbertFamily,
    ConfigurationFamily,
    CooperFriezeFamily,
    GraphFamily,
    MoriFamily,
    theorem_target_for_size,
)
from repro.core.registry import (
    CAPABILITIES,
    ExecutionContext,
    ExperimentSpec,
    Param,
    REGISTRY,
    Registry,
    run_experiment,
)
from repro.core.results import ExperimentResult, Table, load_result, save_result
from repro.core.searchability import (
    CostMeasurement,
    ScalingMeasurement,
    constant_factory,
    measure_scaling,
    measure_search_cost,
    omniscient_factory,
)
from repro.core import experiments  # noqa: F401  (registers E1..E22)

__all__ = [
    "GraphFamily",
    "MoriFamily",
    "CooperFriezeFamily",
    "BarabasiAlbertFamily",
    "ConfigurationFamily",
    "theorem_target_for_size",
    "Table",
    "ExperimentResult",
    "save_result",
    "load_result",
    "CostMeasurement",
    "ScalingMeasurement",
    "measure_search_cost",
    "measure_scaling",
    "constant_factory",
    "omniscient_factory",
    "CAPABILITIES",
    "Param",
    "ExperimentSpec",
    "ExecutionContext",
    "Registry",
    "REGISTRY",
    "run_experiment",
]
