"""Structural and statistical analysis of the generated graphs.

* :mod:`repro.analysis.powerlaw_fit` — discrete power-law exponent
  estimation (the paper's ``k`` in ``[2, 3]`` regime check, E6);
* :mod:`repro.analysis.diameter` — BFS distances and diameter
  estimation (the ``O(log n)`` contrast, E9);
* :mod:`repro.analysis.maxdegree` — a graph's maximum degree (E6,
  E17) and its growth along the construction (Móri's ``t^p`` law, E5);
* :mod:`repro.analysis.scaling` — log-log and semi-log regression for
  extracting empirical scaling exponents;
* :mod:`repro.analysis.correlation` — neighbor-degree dependence
  (the evolving-vs-pure distinction);
* :mod:`repro.analysis.stats` — means, confidence intervals, bootstrap.
"""

from repro.analysis.diameter import (
    bfs_distances,
    diameter,
    estimate_diameter,
)
from repro.analysis.maxdegree import max_degree, max_degree_trajectory
from repro.analysis.powerlaw_fit import PowerLawFit, fit_power_law
from repro.analysis.scaling import (
    LogFit,
    ScalingFit,
    fit_logarithmic,
    fit_power_scaling,
)
from repro.analysis.stats import (
    bootstrap_ci,
    mean,
    mean_ci,
    sample_std,
)

__all__ = [
    "max_degree",
    "bfs_distances",
    "diameter",
    "estimate_diameter",
    "max_degree_trajectory",
    "PowerLawFit",
    "fit_power_law",
    "ScalingFit",
    "LogFit",
    "fit_power_scaling",
    "fit_logarithmic",
    "mean",
    "sample_std",
    "mean_ci",
    "bootstrap_ci",
]
