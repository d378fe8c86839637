"""BFS distances, diameter, and average distance.

The paper's headline contrast (experiment E9): the considered scale-free
graphs have **logarithmic diameter** — proved in expectation and w.h.p.
— yet require **polynomially many requests** to search.  These helpers
measure the left side of that contrast.

Exact diameter is ``O(n (n + m))`` (BFS from every vertex) and reserved
for small graphs; :func:`estimate_diameter` runs BFS from a few
farthest-point sweeps, a standard heuristic that lower-bounds (and on
these graph families typically attains) the true diameter.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional, Tuple

from repro.errors import AnalysisError, InvalidParameterError
from repro.graphs.frozen import GraphBackend, vectorized_bfs_distances
from repro.rng import RandomLike, make_rng

__all__ = [
    "bfs_distances",
    "eccentricity",
    "diameter",
    "estimate_diameter",
    "average_distance",
]

_UNREACHED = -1


def bfs_distances(graph: GraphBackend, source: int) -> List[int]:
    """Distances from ``source``; index ``v`` for vertex ``v``, -1 if unreached.

    Index 0 is unused (vertices are 1-based).  Accepts either backend;
    a :class:`~repro.graphs.frozen.FrozenGraph` expands
    whole frontiers at a time through the CSR kernel (BFS distances are
    unique, so the values are identical).
    """
    if not graph.has_vertex(source):
        raise InvalidParameterError(f"source {source} not in graph")
    fast = vectorized_bfs_distances(graph, source)
    if fast is not None:
        return fast
    distances = [_UNREACHED] * (graph.num_vertices + 1)
    distances[source] = 0
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for eid in graph.incident_edges(v):
            w = graph.other_endpoint(eid, v)
            if distances[w] == _UNREACHED:
                distances[w] = distances[v] + 1
                queue.append(w)
    return distances


def eccentricity(graph: GraphBackend, source: int) -> Tuple[int, int]:
    """``(max finite distance from source, a vertex attaining it)``."""
    distances = bfs_distances(graph, source)
    best_distance = 0
    best_vertex = source
    for v in graph.vertices():
        if distances[v] > best_distance:
            best_distance = distances[v]
            best_vertex = v
    return best_distance, best_vertex


def diameter(graph: GraphBackend) -> int:
    """Exact diameter of a connected graph (BFS from every vertex)."""
    if graph.num_vertices == 0:
        raise AnalysisError("graph has no vertices")
    worst = 0
    for v in graph.vertices():
        distances = bfs_distances(graph, v)
        for w in graph.vertices():
            if distances[w] == _UNREACHED:
                raise AnalysisError(
                    "graph is disconnected; diameter is infinite"
                )
            worst = max(worst, distances[w])
    return worst


def estimate_diameter(
    graph: GraphBackend,
    num_sweeps: int = 4,
    seed: RandomLike = None,
) -> int:
    """Lower-bound the diameter by iterated farthest-point sweeps.

    Starts from a random vertex, repeatedly jumps to the farthest vertex
    found, and returns the largest eccentricity observed.  On
    small-world graphs a handful of sweeps is virtually always exact.
    """
    if graph.num_vertices == 0:
        raise AnalysisError("graph has no vertices")
    if num_sweeps < 1:
        raise InvalidParameterError(
            f"num_sweeps must be >= 1, got {num_sweeps}"
        )
    rng = make_rng(seed)
    current = rng.randint(1, graph.num_vertices)
    best = 0
    for _ in range(num_sweeps):
        distance, farthest = eccentricity(graph, current)
        best = max(best, distance)
        current = farthest
    return best


def average_distance(
    graph: GraphBackend,
    num_sources: int = 16,
    seed: RandomLike = None,
) -> float:
    """Mean finite pairwise distance, estimated from sampled BFS sources."""
    n = graph.num_vertices
    if n < 2:
        raise AnalysisError("need at least 2 vertices")
    if num_sources < 1:
        raise InvalidParameterError(
            f"num_sources must be >= 1, got {num_sources}"
        )
    rng = make_rng(seed)
    total = 0
    count = 0
    for _ in range(min(num_sources, n)):
        source = rng.randint(1, n)
        distances = bfs_distances(graph, source)
        for v in graph.vertices():
            if v != source and distances[v] != _UNREACHED:
                total += distances[v]
                count += 1
    if count == 0:
        raise AnalysisError("no reachable pairs sampled")
    return total / count
