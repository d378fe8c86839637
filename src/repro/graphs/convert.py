"""Conversion between :class:`repro.graphs.base.MultiGraph` and networkx.

networkx is an *optional* dependency (the core library is dependency
free); these helpers import it lazily and raise a clear error when it
is unavailable.  They exist so users can hand graphs generated here to
the wider scientific-Python ecosystem, and so the test suite can
cross-validate our BFS/diameter code against an independent
implementation.
"""

from __future__ import annotations

from repro.errors import ReproError
from repro.graphs.base import MultiGraph

__all__ = ["to_networkx", "from_networkx"]


def _require_networkx():
    try:
        import networkx
    except ImportError as exc:  # pragma: no cover - env without networkx
        raise ReproError(
            "networkx is required for graph conversion: "
            "pip install networkx"
        ) from exc
    return networkx


def to_networkx(graph: MultiGraph):
    """Convert to ``networkx.MultiDiGraph`` (construction orientation).

    Edge keys are our stable edge ids, so round-tripping preserves edge
    identity.  Use ``.to_undirected()`` on the result for the search
    view of the graph.
    """
    networkx = _require_networkx()
    result = networkx.MultiDiGraph()
    result.add_nodes_from(graph.vertices())
    for eid, tail, head in graph.edges():
        result.add_edge(tail, head, key=eid)
    return result


def from_networkx(nx_graph) -> MultiGraph:
    """Convert a networkx (multi)graph with nodes ``1..n`` to a MultiGraph.

    Nodes must be exactly the integers ``1 .. n``; edge keys and data
    are ignored (our edge ids are assigned in iteration order).
    """
    _require_networkx()
    nodes = sorted(nx_graph.nodes())
    n = len(nodes)
    if nodes != list(range(1, n + 1)):
        raise ReproError(
            "networkx graph nodes must be exactly the integers 1..n; "
            f"got {nodes[:5]}{'...' if n > 5 else ''}"
        )
    graph = MultiGraph(n)
    for tail, head in nx_graph.edges():
        graph.add_edge(tail, head)
    return graph
