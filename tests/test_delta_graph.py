"""Overlay-equivalence battery for :class:`~repro.graphs.delta.DeltaGraph`.

The overlay layer's contract: after any sequence of vertex/edge
removals and family-style joins, the DeltaGraph *is* the surviving
graph — same degrees, same components, same oracle answers — and
:meth:`~repro.graphs.delta.DeltaGraph.resnapshot` compacts it into a
FrozenGraph equal, hash-equal, and digest-identical to building the
surviving graph directly.  Pinned here across all five graph models
and both static backends as the base, plus the ``prefix`` fast path
(a pure trailing truncation must not rebuild) and the
:func:`~repro.graphs.delta.graph_digest` canonicalisation itself.
"""

from __future__ import annotations

import random

import pytest

from repro.core.families import (
    BarabasiAlbertFamily,
    CooperFriezeFamily,
    MoriFamily,
)
from repro.errors import GraphConstructionError
from repro.graphs import freeze
from repro.graphs.base import MultiGraph
from repro.graphs.components import connected_components
from repro.graphs.configuration import power_law_configuration_graph
from repro.graphs.delta import DeltaGraph, graph_digest
from repro.graphs.kleinberg import kleinberg_grid
from repro.rng import make_rng
from repro.search.algorithms import (
    DegreeBiasedWalkSearch,
    RandomWalkSearch,
)
from repro.search.oracle import StrongOracle, WeakOracle


def model_graph(model: str, seed: int) -> MultiGraph:
    """One modest instance of each model the paper touches."""
    if model == "mori":
        return MoriFamily(p=0.5, m=2).build(120, seed=seed)
    if model == "cooper-frieze":
        return CooperFriezeFamily().build(100, seed=seed)
    if model == "ba":
        return BarabasiAlbertFamily(m=2).build(120, seed=seed)
    if model == "config":
        # Disconnected, with loops and parallel edges — the
        # adversarial case for the masking logic.
        return power_law_configuration_graph(120, 2.5, seed=seed)
    if model == "kleinberg":
        return kleinberg_grid(10, r=2.0, q=1, seed=seed).graph
    raise AssertionError(model)


MODELS = ("mori", "cooper-frieze", "ba", "config", "kleinberg")
BACKENDS = ("multigraph", "frozen")


def as_backend(graph: MultiGraph, backend: str):
    return graph if backend == "multigraph" else freeze(graph)


def churn_overlay(graph, rng: random.Random, removals: int, joins: int):
    """Random vertex removals, edge removals, and joins on an overlay.

    Mixes all three mutation kinds (vertex tombstones cascade to their
    incident edges; lone edge tombstones leave both endpoints live;
    joins attach to surviving vertices) so the survivor exercises every
    masking path at once.
    """
    delta = DeltaGraph(graph)
    for _ in range(removals):
        live = delta.vertices()
        if len(live) <= 2:
            break
        if rng.random() < 0.3 and delta.num_edges > 0:
            eid = rng.choice([eid for eid, _, _ in delta.edges()])
            delta.remove_edge(eid)
        else:
            delta.remove_vertex(rng.choice(live))
    for _ in range(joins):
        live = delta.vertices()
        v = delta.add_vertex()
        for target in rng.sample(live, k=min(2, len(live))):
            delta.add_edge(v, target)
    return delta


def built_directly(delta: DeltaGraph) -> MultiGraph:
    """The surviving graph built from scratch, bypassing the overlay.

    Live vertices relabeled order-preservingly to ``1..k``, surviving
    edges added in old-eid order — the resnapshot/induced_subgraph
    convention.
    """
    relabel = {
        old: new for new, old in enumerate(delta.vertices(), start=1)
    }
    direct = MultiGraph(len(relabel))
    for _, tail, head in delta.edges():
        direct.add_edge(relabel[tail], relabel[head])
    return direct


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("backend", BACKENDS)
class TestOverlayMatchesDirectBuild:
    def overlay(self, model, backend, seed=7):
        graph = model_graph(model, seed=seed)
        rng = random.Random(1000 + seed)
        return churn_overlay(
            as_backend(graph, backend), rng, removals=30, joins=10
        )

    def test_resnapshot_equals_direct_build(self, model, backend):
        delta = self.overlay(model, backend)
        expected = freeze(built_directly(delta))
        snapshot = delta.resnapshot()
        assert snapshot == expected
        assert hash(snapshot) == hash(expected)
        assert graph_digest(snapshot) == graph_digest(expected)

    def test_degrees_match_direct_build(self, model, backend):
        delta = self.overlay(model, backend)
        direct = built_directly(delta)
        relabel = delta.relabeling()
        assert delta.num_live_vertices == direct.num_vertices
        assert delta.num_edges == direct.num_edges
        assert delta.num_self_loops() == direct.num_self_loops()
        for old, new in relabel.items():
            assert delta.degree(old) == direct.degree(new)
            assert delta.in_degree(old) == direct.in_degree(new)
            assert delta.out_degree(old) == direct.out_degree(new)
        assert delta.degree_sequence() == direct.degree_sequence()

    def test_components_match_direct_build(self, model, backend):
        delta = self.overlay(model, backend)
        direct = built_directly(delta)
        relabel = delta.relabeling()
        ours = sorted(
            sorted(relabel[v] for v in component)
            for component in connected_components(delta)
        )
        theirs = sorted(
            sorted(component)
            for component in connected_components(direct)
        )
        assert ours == theirs
        assert delta.is_connected() == direct.is_connected()

    def test_incidence_is_masked_base_order_then_joins(
        self, model, backend
    ):
        delta = self.overlay(model, backend)
        base = delta.base
        for v in delta.vertices():
            incident = delta.incident_edges(v)
            # No tombstoned edge, no edge into a tombstoned peer.
            for eid in incident:
                other = delta.other_endpoint(eid, v)
                assert delta.has_vertex(other)
            base_part = [e for e in incident if e < base.num_edges]
            join_part = [e for e in incident if e >= base.num_edges]
            assert list(incident) == base_part + join_part
            if v <= base.num_vertices:
                masked = [
                    e
                    for e in base.incident_edges(v)
                    if e in set(base_part)
                ]
                assert base_part == masked
            assert join_part == sorted(join_part)


@pytest.mark.parametrize("model", MODELS)
def test_oracle_traces_match_direct_build(model):
    """Request-for-request oracle equivalence, modulo the relabel.

    A weak and a strong search run on the overlay, then again on the
    compacted snapshot with relabeled endpoints and identical rng
    seeds; every journaled (request, answer) entry must map across
    under the vertex/edge relabeling — the oracle sees *only* the
    surviving graph.
    """
    graph = model_graph(model, seed=11)
    rng = random.Random(2024)
    delta = churn_overlay(freeze(graph), rng, removals=25, joins=8)
    snapshot = delta.resnapshot()
    vmap = delta.relabeling()
    emap = {
        old: new for new, (old, _, _) in enumerate(delta.edges())
    }

    live = delta.vertices()
    start, target = live[0], live[-1]
    for algorithm_factory, mapper in (
        (
            RandomWalkSearch,
            lambda kind, u, eid, answer: (
                kind, vmap[u], emap[eid], vmap[answer]
            ),
        ),
        (
            lambda: DegreeBiasedWalkSearch(beta=1.0),
            lambda kind, u, answer: (
                kind, vmap[u], tuple(vmap[w] for w in answer)
            ),
        ),
    ):
        algorithm = algorithm_factory()
        oracle_cls = (
            WeakOracle if algorithm.model == "weak" else StrongOracle
        )
        traces = []
        for run_graph, run_start, run_target in (
            (delta, start, target),
            (snapshot, vmap[start], vmap[target]),
        ):
            oracle = oracle_cls(run_graph, run_start, run_target)
            journal = []
            original = oracle.request

            def journaling_request(*args, _orig=original, _j=journal):
                answer = _orig(*args)
                _j.append((*args, answer))
                return answer

            oracle.request = journaling_request
            result = algorithm.run(oracle, make_rng(99), 400)
            traces.append((result.requests, result.found, journal))

        overlay_requests, overlay_found, overlay_journal = traces[0]
        direct_requests, direct_found, direct_journal = traces[1]
        assert overlay_requests == direct_requests
        assert overlay_found == direct_found
        mapped = [
            mapper(algorithm.model, *entry)
            for entry in overlay_journal
        ]
        direct = [
            (algorithm.model, *entry) for entry in direct_journal
        ]
        assert mapped == direct


class TestResnapshotFastPaths:
    def test_trivial_overlay_returns_base_itself(self):
        base = freeze(model_graph("mori", seed=3))
        delta = DeltaGraph(base)
        assert delta.is_trivial()
        assert delta.resnapshot() is base

    def test_any_change_makes_the_overlay_nontrivial(self):
        base = freeze(model_graph("mori", seed=3))
        removed_vertex = DeltaGraph(base)
        removed_vertex.remove_vertex(base.num_vertices)
        removed_edge = DeltaGraph(base)
        removed_edge.remove_edge(0)
        joined = DeltaGraph(base)
        joined.add_vertex()
        for delta in (removed_vertex, removed_edge, joined):
            assert not delta.is_trivial()
            assert delta.resnapshot() is not base
        # An edgeless join still counts: it is an isolated vertex.
        snapshot = joined.resnapshot()
        assert snapshot.num_vertices == base.num_vertices + 1
        assert snapshot.degree(snapshot.num_vertices) == 0
        assert list(snapshot.edges()) == list(base.edges())

    def test_trailing_truncation_uses_prefix(self, monkeypatch):
        """Tombstoning only the newest vertices (and with them the
        newest edges) must compose with FrozenGraph.prefix — no
        MultiGraph rebuild."""
        base = freeze(MoriFamily(p=0.5, m=2).build(80, seed=5))
        delta = DeltaGraph(base)
        for v in range(80, 70, -1):
            delta.remove_vertex(v)

        import repro.graphs.delta as delta_module

        def forbidden(*args, **kwargs):
            raise AssertionError(
                "trailing truncation must not rebuild via MultiGraph"
            )

        monkeypatch.setattr(delta_module, "MultiGraph", forbidden)
        snapshot = delta.resnapshot()
        expected = base.prefix(
            delta.num_live_vertices, delta.num_edges
        )
        assert snapshot == expected
        assert graph_digest(snapshot) == graph_digest(expected)

    def test_interior_removal_still_rebuilds_correctly(self):
        base = freeze(MoriFamily(p=0.5, m=2).build(60, seed=5))
        delta = DeltaGraph(base)
        delta.remove_vertex(10)
        rebuilt = delta.resnapshot()
        assert rebuilt == freeze(built_directly(delta))


class TestOverlayProtocol:
    def test_dead_vertex_rejected_everywhere(self):
        delta = DeltaGraph(freeze(model_graph("ba", seed=1)))
        delta.remove_vertex(7)
        for operation in (
            lambda: delta.degree(7),
            lambda: delta.incident_edges(7),
            lambda: delta.remove_vertex(7),
            lambda: delta.add_edge(1, 7),
            lambda: delta.add_edge(7, 1),
        ):
            with pytest.raises(GraphConstructionError):
                operation()
        assert not delta.has_vertex(7)
        assert 7 not in delta.vertices()

    def test_dead_edge_rejected_everywhere(self):
        delta = DeltaGraph(freeze(model_graph("ba", seed=1)))
        eid = delta.incident_edges(delta.vertices()[0])[0]
        delta.remove_edge(eid)
        for operation in (
            lambda: delta.edge_endpoints(eid),
            lambda: delta.remove_edge(eid),
        ):
            with pytest.raises(GraphConstructionError):
                operation()

    def test_edge_ids_never_reused(self):
        delta = DeltaGraph(freeze(model_graph("mori", seed=2)))
        base_m = delta.base.num_edges
        removed = delta.remove_vertex(delta.vertices()[-1])
        assert removed
        v = delta.add_vertex()
        eid = delta.add_edge(v, delta.vertices()[0])
        # New ids extend the sequence; tombstoned ids stay dead.
        assert eid >= base_m
        assert eid not in removed

    def test_num_vertices_is_id_bound_not_population(self):
        delta = DeltaGraph(freeze(model_graph("mori", seed=2)))
        n = delta.num_vertices
        delta.remove_vertex(3)
        assert delta.num_vertices == n
        assert delta.num_live_vertices == n - 1
        v = delta.add_vertex()
        assert v == n + 1
        assert delta.num_vertices == n + 1


class TestGraphDigest:
    def test_digest_equal_iff_graphs_equal(self):
        a = MultiGraph(3)
        a.add_edge(1, 2)
        a.add_edge(2, 3)
        b = MultiGraph(3)
        b.add_edge(1, 2)
        b.add_edge(2, 3)
        c = MultiGraph(3)
        c.add_edge(1, 2)
        c.add_edge(3, 2)  # same undirected edge, different orientation
        assert a == b
        assert graph_digest(a) == graph_digest(b)
        assert a != c
        assert graph_digest(a) != graph_digest(c)

    def test_digest_spans_backends_and_overlay(self):
        graph = model_graph("mori", seed=9)
        frozen = freeze(graph)
        assert graph_digest(graph) == graph_digest(frozen)
        assert graph_digest(frozen) == graph_digest(DeltaGraph(frozen))
