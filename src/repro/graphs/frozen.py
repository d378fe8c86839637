"""Immutable CSR snapshot of a finished :class:`~repro.graphs.base.MultiGraph`.

The evolving models *must* build through the mutable
:class:`~repro.graphs.base.MultiGraph` (vertices and edges arrive one at
a time), but everything downstream of construction — searching,
component analysis, BFS, degree statistics — only ever *reads* the
graph, and reads it many times: one generated topology typically serves
a whole batch of (algorithm, start, target, seed) search cells plus an
analysis pass.  :class:`FrozenGraph` is the read-optimised form: a
compressed-sparse-row (CSR) snapshot taken once, after which

* per-vertex incidence lists are contiguous slices (``incident_edges``
  returns a cached tuple — no per-call copy, unlike the mutable graph);
* the analysis hot paths (degree sequence, connected
  components, BFS distances) run as vectorised numpy kernels;
* the object is genuinely immutable, so hashing it is sound (see the
  freeze-then-hash contract on :meth:`MultiGraph.__hash__`).

Faithfulness is the contract: a snapshot preserves **edge ids, parallel
edges, insertion order of incidence slots, and the self-loop-counts-
twice degree convention** exactly, so every query answers bit-for-bit
what the source :class:`MultiGraph` would have answered
(``tests/test_frozen_graph.py`` pins this across all graph models).
Oracles and search algorithms therefore accept either backend.

A snapshot is array-native: the CSR plus the endpoint and
directed-degree columns are numpy int64 arrays (which may be views into
a shared-memory segment or a memory-mapped corpus blob), and the Python
lists the scalar API indexes (``edge_endpoints``, ``in_degree``, ...)
are built on its first call.  A snapshot that is only walked through
the CSR therefore costs its arrays and nothing per edge.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

import numpy as _np

from repro.errors import GraphConstructionError
from repro.graphs.base import MultiGraph

__all__ = [
    "BLOB_ARRAYS",
    "FrozenGraph",
    "GraphBackend",
    "blob_layout",
    "freeze",
    "vectorized_bfs_distances",
    "vectorized_connected_components",
]

#: The seven int64 arrays of a snapshot's blob, in storage order: the
#: endpoint columns, the CSR (offsets, incidence slots, far endpoints)
#: and the directed degrees.  A corpus blob (:mod:`repro.graphs.corpus`)
#: and a shared-memory segment (:mod:`repro.graphs.shm`) both hold them
#: little-endian and back to back, as :func:`blob_layout` describes.
BLOB_ARRAYS = (
    "tails",
    "heads",
    "offsets",
    "slot_edges",
    "slot_targets",
    "indegree",
    "outdegree",
)


class FrozenGraph:
    """Read-only CSR snapshot of a multigraph.

    Construct with :meth:`from_multigraph` (or the
    :func:`freeze` / :meth:`MultiGraph.freeze` conveniences); the
    constructor itself is an implementation detail.

    The query API is a strict mirror of :class:`MultiGraph`'s — same
    method names, same return values, same exceptions — plus the
    guarantee of immutability: ``add_vertex`` / ``add_edge`` raise.

    Examples
    --------
    >>> g = MultiGraph(2)
    >>> _ = g.add_edge(2, 1)
    >>> fg = g.freeze()
    >>> fg.degree(1), fg.incident_edges(2)
    (1, (0,))
    """

    __slots__ = (
        "_n",
        "_m",
        "_columns",
        "_endpoints",
        "_indegree",
        "_outdegree",
        "_offsets",
        "_slot_edges",
        "_slot_targets",
        "_num_loops",
        "_inc_cache",
        "_neighbor_cache",
        "_unique_cache",
        "_hash",
    )

    def __init__(
        self,
        num_vertices: int,
        offsets,
        slot_edges,
        slot_targets,
        num_loops: int,
        *,
        columns,
    ):
        self._n = num_vertices
        #: The per-edge and per-vertex columns: ``(tails, heads,
        #: indegree, outdegree)`` int64 arrays, possibly views into a
        #: shared-memory segment or a memory-mapped corpus blob.
        self._columns = columns
        #: edge id -> (tail, head), and the directed degrees, as plain
        #: Python lists: scalar access from the oracle request loop must
        #: not pay numpy boxing.  Each list is built from ``_columns`` on
        #: its first scalar access, so a snapshot that is only searched
        #: through the CSR arrays (the ensemble engine) never holds one.
        self._endpoints: Optional[List[Tuple[int, int]]] = None
        self._indegree: Optional[List[int]] = None
        self._outdegree: Optional[List[int]] = None
        self._m = len(columns[0])
        #: CSR offsets indexed by vertex: slots of v are
        #: ``offsets[v] .. offsets[v + 1]`` (offsets[0] == offsets[1] == 0
        #: because vertex ids are 1-based).
        self._offsets = offsets
        #: slot -> incident edge id (self-loops occupy two slots).
        self._slot_edges = slot_edges
        #: slot -> far endpoint of that slot's edge (v itself for loops).
        self._slot_targets = slot_targets
        self._num_loops = num_loops
        # Lazily filled per-vertex caches, keyed by vertex: a search
        # touches few vertices, so an n-slot list would be mostly empty
        # (and one more large container for every full GC pass to walk).
        # Safe to share across every search on the snapshot because the
        # graph can never change underneath them.
        self._inc_cache: Dict[int, Tuple[int, ...]] = {}
        self._neighbor_cache: Dict[int, List[int]] = {}
        self._unique_cache: Dict[int, List[int]] = {}
        self._hash: Optional[int] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_multigraph(cls, graph: MultiGraph) -> "FrozenGraph":
        """Take a CSR snapshot of ``graph`` (the graph is not modified)."""
        if not isinstance(graph, MultiGraph):
            if isinstance(graph, FrozenGraph):
                return graph
            raise GraphConstructionError(
                "can only freeze a MultiGraph, got "
                f"{type(graph).__name__}"
            )
        n = graph.num_vertices
        # Private-field access is deliberate: the public accessors copy
        # per call, and freezing is exactly the moment to pay one bulk
        # copy instead of n small ones.
        endpoints = graph._endpoints
        incident = graph._incident
        degrees = [len(incident[v]) for v in range(n + 1)]
        total_slots = sum(degrees)

        offsets = _np.zeros(n + 2, dtype=_np.int64)
        _np.cumsum(degrees, out=offsets[1:])
        slot_edges = _np.fromiter(
            chain.from_iterable(incident),
            dtype=_np.int64,
            count=total_slots,
        )
        pairs = _np.array(endpoints, dtype=_np.int64).reshape(-1, 2)
        tails, heads = pairs[:, 0], pairs[:, 1]
        # Far endpoint per slot: tail + head - owner (a self-loop's
        # owner is both endpoints, so the identity falls out).
        owners = _np.repeat(_np.arange(n + 1, dtype=_np.int64), degrees)
        slot_targets = tails[slot_edges] + heads[slot_edges] - owners
        return cls(
            n, offsets, slot_edges, slot_targets,
            int(_np.count_nonzero(tails == heads)),
            columns=(
                tails,
                heads,
                _np.array(graph._indegree, dtype=_np.int64),
                _np.array(graph._outdegree, dtype=_np.int64),
            ),
        )

    def add_vertex(self) -> int:
        """Snapshots are immutable; always raises."""
        raise GraphConstructionError(
            "FrozenGraph is immutable; mutate the MultiGraph and "
            "re-freeze"
        )

    def add_edge(self, tail: int, head: int) -> int:
        """Snapshots are immutable; always raises."""
        raise GraphConstructionError(
            "FrozenGraph is immutable; mutate the MultiGraph and "
            "re-freeze"
        )

    # ------------------------------------------------------------------
    # Queries (mirror of MultiGraph)
    # ------------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        """Number of vertices (vertex identities are ``1 .. n``)."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of edges (edge ids are ``0 .. num_edges - 1``)."""
        return self._m

    def vertices(self) -> range:
        """The vertex identities, as the range ``1 .. n``."""
        return range(1, self._n + 1)

    def has_vertex(self, v: int) -> bool:
        """Whether ``v`` is a valid vertex identity."""
        return 1 <= v <= self._n

    def degree(self, v: int) -> int:
        """Undirected degree of ``v`` (self-loops count twice)."""
        self._check_vertex(v)
        return int(self._offsets[v + 1] - self._offsets[v])

    def in_degree(self, v: int) -> int:
        """Number of edges whose head is ``v`` (construction orientation)."""
        self._check_vertex(v)
        indegree = self._indegree
        if indegree is None:
            indegree = self._indegree = self._columns[2].tolist()
        return indegree[v]

    def out_degree(self, v: int) -> int:
        """Number of edges whose tail is ``v`` (construction orientation)."""
        self._check_vertex(v)
        outdegree = self._outdegree
        if outdegree is None:
            outdegree = self._outdegree = self._columns[3].tolist()
        return outdegree[v]

    def incident_edges(self, v: int) -> Tuple[int, ...]:
        """Edge ids incident to ``v``, self-loops repeated, insertion order.

        Unlike the mutable backend, repeated calls return the *same*
        cached tuple object — the per-request copy this saves is one of
        the snapshot's main wins in oracle-driven search loops.
        """
        self._check_vertex(v)
        try:
            # Subscript, not .get: this is the per-request hit path.
            return self._inc_cache[v]
        except KeyError:
            pass
        lo = int(self._offsets[v])
        hi = int(self._offsets[v + 1])
        cached = tuple(self._slot_edges[lo:hi].tolist())
        self._inc_cache[v] = cached
        return cached

    def edge_endpoints(self, eid: int) -> Tuple[int, int]:
        """The ``(tail, head)`` pair of edge ``eid``."""
        self._check_edge(eid)
        endpoints = self._endpoints
        if endpoints is None:
            endpoints = self._endpoint_list()
        return endpoints[eid]

    def other_endpoint(self, eid: int, v: int) -> int:
        """The endpoint of ``eid`` other than ``v`` (``v`` for a self-loop)."""
        self._check_edge(eid)
        endpoints = self._endpoints
        if endpoints is None:
            endpoints = self._endpoint_list()
        tail, head = endpoints[eid]
        if v == tail:
            return head
        if v == head:
            return tail
        raise GraphConstructionError(
            f"vertex {v} is not an endpoint of edge {eid} ({tail}, {head})"
        )

    def neighbors(self, v: int) -> List[int]:
        """Multiset of neighbors of ``v`` (one entry per incident edge slot).

        Slot order matches the mutable backend exactly: a self-loop
        contributes ``v`` twice, a parallel edge its far endpoint once
        per copy.  Returns a fresh list (callers may mutate it); the
        cached master copy stays private.
        """
        return list(self._slot_target_list(v))

    def _slot_target_list(self, v: int) -> List[int]:
        """The cached master far-endpoint list behind :meth:`neighbors`.

        Internal: shared, must not be mutated.  Hot loops (the flooding
        kernel) iterate it to skip the defensive copy ``neighbors``
        makes.
        """
        self._check_vertex(v)
        cached = self._neighbor_cache.get(v)
        if cached is None:
            lo = int(self._offsets[v])
            hi = int(self._offsets[v + 1])
            cached = self._slot_targets[lo:hi].tolist()
            self._neighbor_cache[v] = cached
        return cached

    def unique_neighbors(self, v: int) -> List[int]:
        """Sorted distinct neighbors of ``v`` (self-loop contributes ``v``)."""
        cached = self._unique_cache.get(v)
        if cached is None:
            cached = sorted(set(self.neighbors(v)))
            self._unique_cache[v] = cached
        return list(cached)

    def edges(self) -> Iterator[Tuple[int, int, int]]:
        """Iterate ``(eid, tail, head)`` triples in insertion order."""
        for eid, (tail, head) in enumerate(self._endpoint_list()):
            yield eid, tail, head

    def degree_sequence(self) -> List[int]:
        """Undirected degrees of all vertices, indexed ``0 .. n-1`` for ``1 .. n``."""
        return _np.diff(self._offsets[1:]).tolist()

    def num_self_loops(self) -> int:
        """Number of self-loop edges."""
        return self._num_loops

    def is_connected(self) -> bool:
        """Whether the undirected graph is connected (vacuously true if n <= 1)."""
        if self._n <= 1:
            return True
        distances = vectorized_bfs_distances(self, 1)
        return all(d >= 0 for d in distances[1:])

    # ------------------------------------------------------------------
    # Column arrays and the lazily built scalar lists
    # ------------------------------------------------------------------

    def _endpoint_list(self) -> List[Tuple[int, int]]:
        """The edge id -> ``(tail, head)`` list, built on first use."""
        if self._endpoints is None:
            tails, heads = self._columns[0], self._columns[1]
            self._endpoints = list(zip(tails.tolist(), heads.tolist()))
        return self._endpoints

    def blob_columns(self) -> List[_np.ndarray]:
        """The seven arrays in :data:`BLOB_ARRAYS` order, as contiguous
        little-endian int64 buffers.

        These are the snapshot's own arrays (no copy unless one is
        strided), so a writer copies each array once, straight into its
        blob or segment.
        """
        tails, heads, indegree, outdegree = self._columns
        return [
            _np.ascontiguousarray(column, dtype="<i8")
            for column in (
                tails,
                heads,
                self._offsets,
                self._slot_edges,
                self._slot_targets,
                indegree,
                outdegree,
            )
        ]

    @classmethod
    def from_blob(
        cls,
        words,
        layout: List[Dict[str, Any]],
        num_vertices: int,
        num_loops: int,
    ) -> "FrozenGraph":
        """A snapshot whose arrays are views of ``words``.

        ``words`` is one flat int64 array (a memory map, a shared
        buffer) holding the arrays as the ``{name, offset, length}``
        table ``layout`` (see :func:`blob_layout`) places them.  Only
        slices are taken, so this is O(1) in the graph size and shares
        the buffer's read-only flag.
        """
        views = {
            entry["name"]: words[
                entry["offset"]: entry["offset"] + entry["length"]
            ]
            for entry in layout
        }
        return cls(
            num_vertices,
            views["offsets"],
            views["slot_edges"],
            views["slot_targets"],
            num_loops,
            columns=(
                views["tails"],
                views["heads"],
                views["indegree"],
                views["outdegree"],
            ),
        )

    # ------------------------------------------------------------------
    # Prefix snapshots (growth-trajectory checkpoints)
    # ------------------------------------------------------------------

    def prefix(self, num_vertices: int, num_edges: int) -> "FrozenGraph":
        """Snapshot of the source graph's *past state* at the given counts.

        The source multigraph is append-only, so the state in which it
        had ``num_vertices`` vertices and ``num_edges`` edges is the
        prefix of everything: the first ``num_edges`` endpoint pairs,
        and for each vertex the leading run of incidence slots whose
        edge id is below ``num_edges`` (incidence lists grow in edge-id
        order).  The result is therefore bit-identical — same edge ids,
        same incidence order, equal and hash-equal — to freezing an
        independent construction stopped at that point, which is the
        contract the growth-trajectory checkpoint engine is built on.

        Slicing reads this snapshot's CSR buffers and endpoint columns
        instead of re-walking a mutable graph, so a whole checkpoint
        grid costs one full freeze plus one masked copy per checkpoint.
        A proper prefix is always a plain :class:`FrozenGraph`; its edge
        columns view this snapshot's, except that
        :class:`~repro.graphs.shm.ShmFrozenGraph` copies them, so the
        prefix of an attached graph outlives the mapping.

        Raises :class:`~repro.errors.GraphConstructionError` if the
        requested prefix is not a state the graph passed through (an
        edge in the prefix touches a vertex beyond ``num_vertices``).
        """
        if not 0 <= num_vertices <= self._n:
            raise GraphConstructionError(
                f"prefix num_vertices {num_vertices} out of range "
                f"[0, {self._n}]"
            )
        if not 0 <= num_edges <= self._m:
            raise GraphConstructionError(
                f"prefix num_edges {num_edges} out of range "
                f"[0, {self._m}]"
            )
        if num_vertices == self._n and num_edges == self._m:
            return self

        tails, heads, _, _ = self._columns
        tails = tails[:num_edges]
        heads = heads[:num_edges]
        if num_edges and int(max(tails.max(), heads.max())) > num_vertices:
            raise GraphConstructionError(
                f"prefix of {num_edges} edges touches vertices "
                f"beyond {num_vertices}; not a past state"
            )
        indegree = _np.bincount(heads, minlength=num_vertices + 1)
        outdegree = _np.bincount(tails, minlength=num_vertices + 1)
        num_loops = int((tails == heads).sum())
        sub_offsets = self._offsets[: num_vertices + 2]
        end = int(sub_offsets[-1])
        mask = self._slot_edges[:end] < num_edges
        cum = _np.zeros(end + 1, dtype=_np.int64)
        _np.cumsum(mask, out=cum[1:])
        offsets = _np.zeros(num_vertices + 2, dtype=_np.int64)
        offsets[1:] = cum[sub_offsets[1:]]
        slot_edges = self._slot_edges[:end][mask]
        slot_targets = self._slot_targets[:end][mask]
        return FrozenGraph(
            num_vertices, offsets, slot_edges, slot_targets,
            num_loops, columns=(tails, heads, indegree, outdegree),
        )

    def close(self) -> None:
        """Release any mapping behind the arrays (none for a heap snapshot).

        :class:`~repro.graphs.shm.ShmFrozenGraph` overrides this to drop
        its shared-memory mapping; on a plain snapshot it does nothing,
        so any snapshot can be closed the same way.
        """

    # ------------------------------------------------------------------
    # Dunder / internals
    # ------------------------------------------------------------------

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(n={self.num_vertices}, "
            f"m={self.num_edges})"
        )

    def __eq__(self, other: object) -> bool:
        """Equality as *labeled* multigraphs with ordered edge lists.

        A snapshot compares equal to the :class:`MultiGraph` it was
        frozen from (and to any other graph with the same content).
        """
        if isinstance(other, FrozenGraph):
            return (
                self._n == other._n
                and self._m == other._m
                and self._endpoint_list() == other._endpoint_list()
            )
        if isinstance(other, MultiGraph):
            return (
                self._n == other.num_vertices
                and self._endpoint_list() == other._endpoints
            )
        return NotImplemented

    def __hash__(self) -> int:
        """Content hash; cached — immutability makes that sound.

        Matches :meth:`MultiGraph.__hash__`'s formula so that a graph
        and its snapshot (which compare equal) also hash equal.
        """
        if self._hash is None:
            self._hash = hash((self._n, tuple(self._endpoint_list())))
        return self._hash

    def _check_vertex(self, v: int) -> None:
        if not 1 <= v <= self._n:
            raise GraphConstructionError(
                f"vertex {v} out of range [1, {self._n}]"
            )

    def _check_edge(self, eid: int) -> None:
        if not 0 <= eid < self._m:
            raise GraphConstructionError(
                f"edge id {eid} out of range [0, {self._m - 1}]"
            )


#: Either graph backend; public read-only APIs accept both.
GraphBackend = Union[MultiGraph, FrozenGraph]


def blob_layout(columns) -> List[Dict[str, Any]]:
    """The ``{name, offset, length}`` table of blob-ordered ``columns``.

    Offsets and lengths count int64 words from the start of the
    arrays; the corpus manifest and the shared-memory header both
    store this table as their ``arrays`` field.
    """
    layout = []
    offset = 0
    for name, column in zip(BLOB_ARRAYS, columns):
        layout.append(
            {"name": name, "offset": offset, "length": len(column)}
        )
        offset += len(column)
    return layout


def freeze(graph: GraphBackend) -> FrozenGraph:
    """Snapshot ``graph``; a no-op (same object) if already frozen."""
    if isinstance(graph, FrozenGraph):
        return graph
    return FrozenGraph.from_multigraph(graph)


# ----------------------------------------------------------------------
# Vectorised analysis kernels
# ----------------------------------------------------------------------
#
# Each kernel answers exactly what the generic pure-Python algorithm on
# the mutable backend answers (same values, same Python types, same
# ordering conventions), or returns None when it cannot apply (not a
# FrozenGraph) so the caller falls back to its generic loop.


def vectorized_bfs_distances(
    graph: GraphBackend, source: int
) -> Optional[List[int]]:
    """Frontier-at-a-time BFS over the CSR arrays.

    Returns distances indexed by vertex (index 0 unused, -1 for
    unreached) — identical to the generic BFS, whose distances are
    unique — or ``None`` for a graph that is not a :class:`FrozenGraph`.
    """
    if not isinstance(graph, FrozenGraph):
        return None
    n = graph._n
    offsets = graph._offsets
    targets = graph._slot_targets
    distances = _np.full(n + 1, -1, dtype=_np.int64)
    distances[0] = -1
    distances[source] = 0
    frontier = _np.array([source], dtype=_np.int64)
    level = 0
    while frontier.size:
        starts = offsets[frontier]
        counts = offsets[frontier + 1] - starts
        total = int(counts.sum())
        if total == 0:
            break
        # Gather all slots of the frontier: for each frontier vertex i
        # the slots starts[i] .. starts[i]+counts[i].
        bases = _np.repeat(starts, counts)
        running = _np.arange(total, dtype=_np.int64)
        resets = _np.repeat(
            _np.cumsum(counts) - counts, counts
        )
        reached = targets[bases + running - resets]
        reached = reached[distances[reached] < 0]
        if reached.size == 0:
            break
        frontier = _np.unique(reached)
        level += 1
        distances[frontier] = level
    return distances.tolist()


def vectorized_connected_components(
    graph: GraphBackend,
) -> Optional[List[List[int]]]:
    """Label propagation with pointer jumping over the edge arrays.

    Matches the generic implementation's output exactly: components
    largest first (ties broken by smallest member, which is what the
    generic discovery-order + stable sort produces), each sorted
    ascending.  ``None`` for a graph that is not a :class:`FrozenGraph`.
    """
    if not isinstance(graph, FrozenGraph):
        return None
    n = graph._n
    if n == 0:
        return []
    labels = _np.arange(n + 1, dtype=_np.int64)
    if graph._m:
        tails, heads, _, _ = graph._columns
        while True:
            # Hook: pull each edge's endpoints down to the edge minimum.
            edge_min = _np.minimum(labels[tails], labels[heads])
            _np.minimum.at(labels, tails, edge_min)
            _np.minimum.at(labels, heads, edge_min)
            # Jump: compress label chains to their roots.
            while True:
                jumped = labels[labels]
                if _np.array_equal(jumped, labels):
                    break
                labels = jumped
            if _np.array_equal(labels[tails], labels[heads]):
                break
    member_labels = labels[1:]
    order = _np.argsort(member_labels, kind="stable")
    vertices = _np.arange(1, n + 1, dtype=_np.int64)[order]
    sorted_labels = member_labels[order]
    boundaries = _np.flatnonzero(_np.diff(sorted_labels)) + 1
    groups = _np.split(vertices, boundaries)
    components = [group.tolist() for group in groups]
    components.sort(key=lambda c: (-len(c), c[0]))
    return components
