"""Maximum degree of a graph (E6, E17) and along a construction (E5).

Theorem 1's strong-model case rests on Móri's result that the maximum
degree of the Móri tree grows like ``t^p``; the paper's Section 3
contrasts this with total-degree preferential models (Barabási–Albert),
whose ``t^{1/2}`` maximum degree makes the strong-model bound trivial.

:func:`max_degree_trajectory` exploits the fact that our
:class:`~repro.graphs.base.MultiGraph` stores edges in insertion order:
replaying the first ``m_t`` edges reproduces the graph at time ``t``,
so one constructed graph yields the whole trajectory.  The caller
supplies the map from checkpoint time to edge count, which is
model-specific (Móri tree: ``t - 1`` vertices hold ``t - 2`` edges...
the edge added at time ``t`` has index ``t - 2``; BA with out-degree
``m``: time ``t`` holds ``1 + m (t - 1)`` edges).  :func:`max_degree`
is the end point of that trajectory, read off a finished graph.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple

from repro.errors import AnalysisError, InvalidParameterError
from repro.graphs.base import MultiGraph
from repro.graphs.frozen import GraphBackend

__all__ = [
    "max_degree",
    "max_degree_trajectory",
    "mori_edge_count",
    "ba_edge_count",
]


def max_degree(graph: GraphBackend) -> int:
    """Largest undirected degree in the graph."""
    if graph.num_vertices == 0:
        raise AnalysisError("graph has no vertices")
    return max(graph.degree_sequence())


def mori_edge_count(t: int) -> int:
    """Edges present in the Móri tree at time ``t`` (``t >= 2``)."""
    if t < 2:
        raise InvalidParameterError(f"Mori time starts at 2, got {t}")
    return t - 1


def ba_edge_count(m: int) -> Callable[[int], int]:
    """Edge-count map for the BA model with out-degree ``m``."""
    if m < 1:
        raise InvalidParameterError(f"m must be >= 1, got {m}")

    def count(t: int) -> int:
        if t < 1:
            raise InvalidParameterError(f"BA time starts at 1, got {t}")
        return 1 + m * (t - 1)

    return count


def max_degree_trajectory(
    graph: MultiGraph,
    checkpoints: Sequence[int],
    edge_count_at: Callable[[int], int],
) -> List[Tuple[int, int]]:
    """``(t, max undirected degree at time t)`` for each checkpoint.

    Replays edges in insertion order, bumping endpoint degrees, and
    snapshots the running maximum whenever a checkpoint's edge count is
    reached.  Checkpoints must be increasing and consistent with the
    graph (``edge_count_at(t) <= num_edges``).
    """
    ordered = list(checkpoints)
    if ordered != sorted(ordered) or len(set(ordered)) != len(ordered):
        raise InvalidParameterError(
            "checkpoints must be strictly increasing"
        )
    if not ordered:
        return []
    targets = [edge_count_at(t) for t in ordered]
    if targets[-1] > graph.num_edges:
        raise InvalidParameterError(
            f"checkpoint {ordered[-1]} needs {targets[-1]} edges, "
            f"graph has {graph.num_edges}"
        )

    degree = [0] * (graph.num_vertices + 1)
    running_max = 0
    results: List[Tuple[int, int]] = []
    next_checkpoint = 0
    edges_seen = 0

    # Snapshot checkpoints that need zero edges (degenerate but legal).
    while next_checkpoint < len(targets) and targets[next_checkpoint] == 0:
        results.append((ordered[next_checkpoint], 0))
        next_checkpoint += 1

    for _, tail, head in graph.edges():
        degree[tail] += 1
        degree[head] += 1
        running_max = max(running_max, degree[tail], degree[head])
        edges_seen += 1
        while (
            next_checkpoint < len(targets)
            and targets[next_checkpoint] == edges_seen
        ):
            results.append((ordered[next_checkpoint], running_max))
            next_checkpoint += 1
        if next_checkpoint >= len(targets):
            break
    return results
