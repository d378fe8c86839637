"""Connected components and induced subgraphs.

The evolving models (Móri, Cooper–Frieze, BA) are connected by
construction, but the configuration model is not: for power-law
exponents in ``(2, 3)`` it has a giant component plus dust.  Search
experiments on pure random graphs (E7, E12) therefore restrict source
and target to the largest component, using the helpers here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import InvalidParameterError
from repro.graphs.base import MultiGraph
from repro.graphs.frozen import (
    GraphBackend,
    vectorized_connected_components,
)

__all__ = [
    "connected_components",
    "largest_component",
    "InducedSubgraph",
    "induced_subgraph",
]


def connected_components(graph: GraphBackend) -> List[List[int]]:
    """All connected components, largest first, each sorted ascending.

    Accepts either backend; on a
    :class:`~repro.graphs.frozen.FrozenGraph` the components come from
    the vectorised label-propagation kernel (identical output).
    """
    fast = vectorized_connected_components(graph)
    if fast is not None:
        return fast
    n = graph.num_vertices
    seen = [False] * (n + 1)
    components: List[List[int]] = []
    for start in graph.vertices():
        if seen[start]:
            continue
        component = [start]
        seen[start] = True
        stack = [start]
        while stack:
            v = stack.pop()
            for eid in graph.incident_edges(v):
                w = graph.other_endpoint(eid, v)
                if not seen[w]:
                    seen[w] = True
                    component.append(w)
                    stack.append(w)
        component.sort()
        components.append(component)
    components.sort(key=len, reverse=True)
    return components


def largest_component(graph: GraphBackend) -> List[int]:
    """Vertices of the largest connected component, sorted ascending."""
    components = connected_components(graph)
    if not components:
        raise InvalidParameterError("graph has no vertices")
    return components[0]


@dataclass(frozen=True)
class InducedSubgraph:
    """A vertex-induced subgraph with its relabelling maps.

    Attributes
    ----------
    graph:
        The subgraph, relabelled to ``1 .. k``.
    to_original:
        ``to_original[new_id]`` is the original identity (index 0 unused).
    to_new:
        Original identity -> new identity.
    """

    graph: MultiGraph
    to_original: Tuple[int, ...]
    to_new: Dict[int, int]


def induced_subgraph(
    graph: GraphBackend, vertices: List[int]
) -> InducedSubgraph:
    """The subgraph induced by ``vertices``, relabelled densely.

    Relabelling preserves the *relative order* of identities, so "the
    newest vertex of the component" remains the largest new identity —
    search targets defined by insertion age survive the restriction.
    """
    if not vertices:
        raise InvalidParameterError("vertex list must be non-empty")
    ordered = sorted(set(vertices))
    for v in ordered:
        if not graph.has_vertex(v):
            raise InvalidParameterError(f"vertex {v} not in graph")
    to_new = {v: i + 1 for i, v in enumerate(ordered)}
    sub = MultiGraph(len(ordered))
    member = set(ordered)
    for _, tail, head in graph.edges():
        if tail in member and head in member:
            sub.add_edge(to_new[tail], to_new[head])
    return InducedSubgraph(
        graph=sub,
        to_original=tuple([0] + ordered),
        to_new=to_new,
    )
