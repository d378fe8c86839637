"""Degree-distribution summaries.

The paper's scale-free premise is that the number of vertices of degree
``delta`` is proportional to ``n * delta^{-k}`` with ``k`` typically in
``[2, 3]``; these helpers turn a graph into the histogram/CCDF form that
:mod:`repro.analysis.powerlaw_fit` estimates ``k`` from and that
experiment E6 prints.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Tuple

from repro.errors import AnalysisError
from repro.graphs.frozen import (
    GraphBackend,
    vectorized_degree_histogram,
)

__all__ = ["degree_histogram", "ccdf", "mean_degree", "max_degree"]


def degree_histogram(graph: GraphBackend) -> Dict[int, int]:
    """Map ``degree -> number of vertices with that degree``.

    Accepts either backend; a
    :class:`~repro.graphs.frozen.FrozenGraph` is histogrammed with one
    ``bincount`` instead of a Python loop (identical mapping).
    """
    if graph.num_vertices == 0:
        raise AnalysisError("graph has no vertices")
    fast = vectorized_degree_histogram(graph)
    if fast is not None:
        return fast
    return dict(Counter(graph.degree_sequence()))


def ccdf(graph: GraphBackend) -> List[Tuple[int, float]]:
    """Complementary CDF: ``(d, P(degree >= d))`` for each observed ``d``.

    Sorted by ``d`` ascending.  The CCDF is the standard noise-robust
    way to read a power-law tail: a distribution with pmf
    ``~ d^{-k}`` has CCDF ``~ d^{-(k-1)}``.
    """
    histogram = degree_histogram(graph)
    n = graph.num_vertices
    result: List[Tuple[int, float]] = []
    remaining = n
    for degree in sorted(histogram):
        result.append((degree, remaining / n))
        remaining -= histogram[degree]
    return result


def mean_degree(graph: GraphBackend) -> float:
    """Average undirected degree (``2 * num_edges / num_vertices``)."""
    if graph.num_vertices == 0:
        raise AnalysisError("graph has no vertices")
    return 2.0 * graph.num_edges / graph.num_vertices


def max_degree(graph: GraphBackend) -> int:
    """Largest undirected degree in the graph."""
    if graph.num_vertices == 0:
        raise AnalysisError("graph has no vertices")
    return max(graph.degree_sequence())
