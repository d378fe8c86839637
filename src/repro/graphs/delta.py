"""Overlay view of a frozen graph under deletion and late joins.

The growth models build append-only graphs, but the peer-to-peer
networks the paper models lose peers constantly.  :class:`DeltaGraph`
is the bridge: a thin overlay over an immutable
:class:`~repro.graphs.frozen.FrozenGraph` base that records *tombstones*
(removed vertices and edges) and *join* vertices/edges appended after
the snapshot, while exposing the exact read API of the two static
backends — ``degrees``, ``incident_edges`` (same slot order), edge ids,
``edges()`` triples — so the oracles, every serial search algorithm,
and the generic analysis helpers run on it unchanged.

Identity conventions
--------------------
* Vertex ids are never reused.  ``num_vertices`` is the **id bound**
  (base vertices plus every join vertex, tombstoned ids included) so
  id-indexed buffers sized ``num_vertices + 1`` stay valid; the live
  population is ``num_live_vertices`` and :meth:`vertices` yields only
  live ids, in increasing order.
* Edge ids are never reused either: base edges keep their dense ids
  ``0 .. base_m - 1`` and join edges extend the sequence in arrival
  order.  ``num_edges`` counts *surviving* edges only (it feeds
  :func:`~repro.search.process.default_budget`).
* Incidence order is the base slot order for surviving base edges
  followed by join edges in arrival order; self-loops occupy two slots,
  exactly like both static backends.
* Any edge incident to a removed vertex is removed with it, so a
  surviving edge never touches a dead endpoint.

:meth:`resnapshot` compacts the overlay into a fresh
:class:`FrozenGraph`: live vertices relabeled order-preservingly to
``1 .. k`` and surviving edges re-idd densely in old-eid order — the
same convention as :func:`repro.graphs.components.induced_subgraph`, so
the result is equal, hash-equal, and digest-identical to building the
surviving graph directly.  When the overlay only tombstones a trailing
run of vertex and edge ids the compaction composes with the
buffer-reusing :meth:`FrozenGraph.prefix` instead of rebuilding.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterator, List, Optional, Set, Tuple

import numpy as _np

from repro.errors import GraphConstructionError
from repro.graphs.base import MultiGraph
from repro.graphs.frozen import FrozenGraph, GraphBackend, freeze

__all__ = ["DeltaGraph", "graph_digest"]


def graph_digest(graph) -> str:
    """Canonical sha256 digest of a graph's labeled content.

    Hashes ``num_vertices`` followed by the ``(tail, head)`` pairs in
    edge-id order — the exact tuple :meth:`MultiGraph.__eq__` compares,
    so two graphs are digest-equal iff they compare equal.  Works on
    any backend exposing ``num_vertices`` and ``edges()``.
    """
    hasher = hashlib.sha256()
    hasher.update(f"{graph.num_vertices}\n".encode("ascii"))
    for _, tail, head in graph.edges():
        hasher.update(f"{tail} {head}\n".encode("ascii"))
    return hasher.hexdigest()


class DeltaGraph:
    """Mutable overlay (tombstones + joins) over a frozen base graph.

    The *base* is never modified; all churn is recorded in overlay
    structures sized by the amount of change, so a step of churn costs
    O(degree) instead of an O(n + m) rebuild.  Reads mirror the static
    backends (see the module docstring for the identity conventions).
    """

    def __init__(self, base: GraphBackend):
        self._base: FrozenGraph = freeze(base)
        self._base_n = self._base.num_vertices
        self._base_m = self._base.num_edges
        #: id bound: base vertices + every join vertex ever added.
        self._n = self._base_n
        self._dead_vertices: Set[int] = set()
        self._dead_edges: Set[int] = set()
        #: join edge index -> (tail, head); eid = base_m + index.
        self._join_endpoints: List[Tuple[int, int]] = []
        #: vertex -> join-edge ids in arrival order (loops listed twice).
        self._join_incident: Dict[int, List[int]] = {}
        # Degree deltas relative to the base (only touched vertices).
        self._deg_delta: Dict[int, int] = {}
        self._in_delta: Dict[int, int] = {}
        self._out_delta: Dict[int, int] = {}
        self._num_live = self._base_n
        self._num_edges = self._base_m
        self._num_loops = self._base.num_self_loops()
        # Per-vertex caches, dropped for the vertices a mutation touches.
        self._inc_cache: Dict[int, Tuple[int, ...]] = {}
        self._unique_cache: Dict[int, List[int]] = {}
        # Masked-CSR materialization for the ensemble engine; rebuilt
        # lazily whenever the overlay mutates (see _build_csr).
        self._csr: Optional[tuple] = None

    # ------------------------------------------------------------------
    # Read API (mirrors MultiGraph / FrozenGraph)
    # ------------------------------------------------------------------

    @property
    def base(self) -> FrozenGraph:
        """The immutable snapshot underneath the overlay."""
        return self._base

    @property
    def num_vertices(self) -> int:
        """The vertex **id bound** (tombstoned ids included).

        Buffers indexed by vertex id must be sized ``num_vertices + 1``;
        use :attr:`num_live_vertices` for the surviving population.
        """
        return self._n

    @property
    def num_live_vertices(self) -> int:
        """Number of surviving (non-tombstoned) vertices."""
        return self._num_live

    @property
    def num_edges(self) -> int:
        """Number of surviving edges (tombstoned edges excluded)."""
        return self._num_edges

    def vertices(self) -> List[int]:
        """The live vertex ids, in increasing order."""
        return [
            v
            for v in range(1, self._n + 1)
            if v not in self._dead_vertices
        ]

    def has_vertex(self, v: int) -> bool:
        """Whether ``v`` is a live vertex (tombstoned ids are not)."""
        return 1 <= v <= self._n and v not in self._dead_vertices

    def degree(self, v: int) -> int:
        """Undirected degree of ``v`` (self-loops count twice)."""
        self._check_vertex(v)
        base = self._base.degree(v) if v <= self._base_n else 0
        return base + self._deg_delta.get(v, 0)

    def in_degree(self, v: int) -> int:
        """Number of surviving edges whose head is ``v``."""
        self._check_vertex(v)
        base = self._base.in_degree(v) if v <= self._base_n else 0
        return base + self._in_delta.get(v, 0)

    def out_degree(self, v: int) -> int:
        """Number of surviving edges whose tail is ``v``."""
        self._check_vertex(v)
        base = self._base.out_degree(v) if v <= self._base_n else 0
        return base + self._out_delta.get(v, 0)

    def incident_edges(self, v: int) -> Tuple[int, ...]:
        """Surviving edge ids incident to ``v``, self-loops repeated.

        Order contract: surviving base edges in base slot order, then
        join edges in arrival order — a stable refinement of both
        static backends' insertion order.
        """
        self._check_vertex(v)
        cached = self._inc_cache.get(v)
        if cached is None:
            dead = self._dead_edges
            parts: List[int] = []
            if v <= self._base_n:
                parts.extend(
                    eid
                    for eid in self._base.incident_edges(v)
                    if eid not in dead
                )
            joined = self._join_incident.get(v)
            if joined:
                parts.extend(eid for eid in joined if eid not in dead)
            cached = tuple(parts)
            self._inc_cache[v] = cached
        return cached

    def edge_endpoints(self, eid: int) -> Tuple[int, int]:
        """The ``(tail, head)`` pair of surviving edge ``eid``."""
        self._check_edge(eid)
        if eid < self._base_m:
            return self._base.edge_endpoints(eid)
        return self._join_endpoints[eid - self._base_m]

    def other_endpoint(self, eid: int, v: int) -> int:
        """The endpoint of ``eid`` other than ``v`` (``v`` for a loop)."""
        tail, head = self.edge_endpoints(eid)
        if v == tail:
            return head
        if v == head:
            return tail
        raise GraphConstructionError(
            f"vertex {v} is not an endpoint of edge {eid} ({tail}, {head})"
        )

    def neighbors(self, v: int) -> List[int]:
        """Multiset of live neighbors (one entry per incident slot)."""
        return [
            self.other_endpoint(eid, v) for eid in self.incident_edges(v)
        ]

    def unique_neighbors(self, v: int) -> List[int]:
        """Sorted distinct neighbors of ``v`` (a loop contributes ``v``)."""
        cached = self._unique_cache.get(v)
        if cached is None:
            cached = sorted(set(self.neighbors(v)))
            self._unique_cache[v] = cached
        return list(cached)

    def edges(self) -> Iterator[Tuple[int, int, int]]:
        """Iterate surviving ``(eid, tail, head)`` triples in eid order."""
        dead = self._dead_edges
        for eid, (tail, head) in enumerate(self._base._endpoint_list()):
            if eid not in dead:
                yield eid, tail, head
        for index, (tail, head) in enumerate(self._join_endpoints):
            eid = self._base_m + index
            if eid not in dead:
                yield eid, tail, head

    def degree_sequence(self) -> List[int]:
        """Degrees of the live vertices, in increasing vertex-id order."""
        return [self.degree(v) for v in self.vertices()]

    def num_self_loops(self) -> int:
        """Number of surviving self-loop edges."""
        return self._num_loops

    def is_connected(self) -> bool:
        """Whether the surviving graph is connected (vacuous if <= 1 live)."""
        if self._num_live <= 1:
            return True
        root = next(
            v
            for v in range(1, self._n + 1)
            if v not in self._dead_vertices
        )
        seen = [False] * (self._n + 1)
        seen[root] = True
        stack = [root]
        count = 1
        while stack:
            u = stack.pop()
            for eid in self.incident_edges(u):
                w = self.other_endpoint(eid, u)
                if not seen[w]:
                    seen[w] = True
                    count += 1
                    stack.append(w)
        return count == self._num_live

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(live={self._num_live}/{self._n}, "
            f"m={self._num_edges})"
        )

    # ------------------------------------------------------------------
    # Overlay mutations
    # ------------------------------------------------------------------

    def add_vertex(self) -> int:
        """Append a join vertex; returns its (never reused) id."""
        self._n += 1
        self._num_live += 1
        self._csr = None
        return self._n

    def add_edge(self, tail: int, head: int) -> int:
        """Append a join edge between live vertices; returns its eid."""
        self._check_vertex(tail)
        self._check_vertex(head)
        eid = self._base_m + len(self._join_endpoints)
        self._join_endpoints.append((tail, head))
        self._join_incident.setdefault(tail, []).append(eid)
        if head == tail:
            self._join_incident[tail].append(eid)
            self._deg_delta[tail] = self._deg_delta.get(tail, 0) + 2
            self._num_loops += 1
        else:
            self._join_incident.setdefault(head, []).append(eid)
            self._deg_delta[tail] = self._deg_delta.get(tail, 0) + 1
            self._deg_delta[head] = self._deg_delta.get(head, 0) + 1
        self._out_delta[tail] = self._out_delta.get(tail, 0) + 1
        self._in_delta[head] = self._in_delta.get(head, 0) + 1
        self._num_edges += 1
        self._invalidate(tail, head)
        return eid

    def remove_edge(self, eid: int) -> None:
        """Tombstone a surviving edge."""
        self._check_edge(eid)
        tail, head = self.edge_endpoints(eid)
        self._dead_edges.add(eid)
        if head == tail:
            self._deg_delta[tail] = self._deg_delta.get(tail, 0) - 2
            self._num_loops -= 1
        else:
            self._deg_delta[tail] = self._deg_delta.get(tail, 0) - 1
            self._deg_delta[head] = self._deg_delta.get(head, 0) - 1
        self._out_delta[tail] = self._out_delta.get(tail, 0) - 1
        self._in_delta[head] = self._in_delta.get(head, 0) - 1
        self._num_edges -= 1
        self._invalidate(tail, head)

    def remove_vertex(self, v: int) -> Tuple[int, ...]:
        """Tombstone a live vertex and every surviving incident edge.

        Returns the removed edge ids (each once, loops included once),
        in incidence order.
        """
        self._check_vertex(v)
        removed: List[int] = []
        for eid in self.incident_edges(v):
            if eid not in self._dead_edges:
                self.remove_edge(eid)
                removed.append(eid)
        self._dead_vertices.add(v)
        self._num_live -= 1
        self._invalidate(v)
        return tuple(removed)

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------

    def is_trivial(self) -> bool:
        """Whether the overlay records no change over the base."""
        return (
            self._n == self._base_n
            and not self._dead_vertices
            and not self._dead_edges
            and not self._join_endpoints
        )

    def relabeling(self) -> Dict[int, int]:
        """The order-preserving live-id -> compact-id map of resnapshot."""
        return {
            old: new
            for new, old in enumerate(self.vertices(), start=1)
        }

    def resnapshot(self) -> FrozenGraph:
        """Compact the overlay into a fresh :class:`FrozenGraph`.

        Live vertices are relabeled order-preservingly to ``1 .. k``
        and surviving edges re-idd densely in old-eid order — the
        :func:`~repro.graphs.components.induced_subgraph` convention —
        so the result is equal, hash-equal, and
        :func:`graph_digest`-identical to freezing the directly-built
        surviving graph.  A trivial overlay returns the base snapshot
        itself; a pure trailing truncation (no joins, tombstones
        confined to the highest vertex and edge ids) composes with the
        buffer-reusing :meth:`FrozenGraph.prefix` instead of
        rebuilding.
        """
        if self.is_trivial():
            return self._base
        live_n = self._num_live
        live_m = self._num_edges
        if (
            self._n == self._base_n
            and not self._join_endpoints
            and all(v > live_n for v in self._dead_vertices)
            and all(eid >= live_m for eid in self._dead_edges)
        ):
            return self._base.prefix(live_n, live_m)
        relabel = self.relabeling()
        compact = MultiGraph(live_n)
        for _, tail, head in self.edges():
            compact.add_edge(relabel[tail], relabel[head])
        return compact.freeze()

    # ------------------------------------------------------------------
    # Masked-CSR view (the ensemble engine's array seam)
    # ------------------------------------------------------------------
    #
    # The walker-ensemble kernel reads `_offsets`, `_slot_edges` and
    # `_slot_targets` off its graph (see search/ensemble.py's _Cell).
    # Exposing the same attributes here — offsets indexed by the full
    # id bound with empty rows for tombstoned vertices, slot edge ids
    # in overlay (non-dense) numbering, slot targets the far endpoints
    # in incidence order — lets the kernel run on the overlay without
    # relabeling, so its costs, flags and oracle traces match the
    # serial algorithms' eids exactly.

    def _build_csr(self) -> tuple:
        cached = self._csr
        if cached is not None:
            return cached
        n = self._n
        counts = [0] * (n + 2)
        for v in range(1, n + 1):
            if v not in self._dead_vertices:
                counts[v + 1] = self.degree(v)
        offsets = [0] * (n + 2)
        running = 0
        for v in range(n + 2):
            running += counts[v]
            offsets[v] = running
        slots = offsets[n + 1]
        slot_edges = [0] * slots
        slot_targets = [0] * slots
        for v in range(1, n + 1):
            if v in self._dead_vertices:
                continue
            cursor = offsets[v]
            for eid in self.incident_edges(v):
                slot_edges[cursor] = eid
                slot_targets[cursor] = self.other_endpoint(eid, v)
                cursor += 1
        cached = (
            _np.asarray(offsets, dtype=_np.int64),
            _np.asarray(slot_edges, dtype=_np.int64),
            _np.asarray(slot_targets, dtype=_np.int64),
        )
        self._csr = cached
        return cached

    @property
    def _offsets(self):
        return self._build_csr()[0]

    @property
    def _slot_edges(self):
        return self._build_csr()[1]

    @property
    def _slot_targets(self):
        return self._build_csr()[2]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _invalidate(self, *vertices: int) -> None:
        for v in vertices:
            self._inc_cache.pop(v, None)
            self._unique_cache.pop(v, None)
        self._csr = None

    def _check_vertex(self, v: int) -> None:
        if not 1 <= v <= self._n:
            raise GraphConstructionError(
                f"vertex {v} out of range [1, {self._n}]"
            )
        if v in self._dead_vertices:
            raise GraphConstructionError(
                f"vertex {v} has been removed from the overlay"
            )

    def _check_edge(self, eid: int) -> None:
        bound = self._base_m + len(self._join_endpoints)
        if not 0 <= eid < bound:
            raise GraphConstructionError(
                f"edge id {eid} out of range [0, {bound - 1}]"
            )
        if eid in self._dead_edges:
            raise GraphConstructionError(
                f"edge {eid} has been removed from the overlay"
            )
