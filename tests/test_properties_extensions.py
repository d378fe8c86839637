"""Property-based tests for the extension features.

Covers the code added beyond the paper's minimal scope: Cooper–Frieze
step traces and the Adamic ``neighbor_success`` oracle mode.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.cooper_frieze import (
    CooperFriezeParams,
    cooper_frieze_graph,
)
from repro.graphs.mori import merged_mori_graph
from repro.search.algorithms import FloodingSearch, RandomWalkSearch
from repro.search.oracle import WeakOracle
from repro.search.process import run_search

seeds = st.integers(min_value=0, max_value=2**32 - 1)


class TestTraceProperties:
    @given(
        n=st.integers(min_value=2, max_value=40),
        alpha=st.floats(min_value=0.4, max_value=1.0),
        seed=seeds,
    )
    @settings(max_examples=40, deadline=None)
    def test_trace_is_complete_and_consistent(self, n, alpha, seed):
        cf = cooper_frieze_graph(
            n,
            CooperFriezeParams(alpha=alpha),
            seed=seed,
            record_trace=True,
        )
        # One record per step; NEW records in vertex order.
        assert len(cf.trace) == cf.num_steps
        new_vertices = [
            r.vertex for r in cf.trace if r.kind == "new"
        ]
        assert new_vertices == list(range(2, n + 1))
        # Traced edges tile 1..num_edges (edge 0 is the initial loop).
        traced = [e for r in cf.trace for e in r.edge_ids]
        assert traced == list(range(1, cf.graph.num_edges))
        # Every record's edges have the record's vertex as tail.
        for record in cf.trace:
            for eid in record.edge_ids:
                tail, _ = cf.graph.edge_endpoints(eid)
                assert tail == record.vertex

    @given(
        n=st.integers(min_value=2, max_value=40),
        seed=seeds,
    )
    @settings(max_examples=30, deadline=None)
    def test_trace_does_not_change_the_graph(self, n, seed):
        with_trace = cooper_frieze_graph(
            n, seed=seed, record_trace=True
        )
        without = cooper_frieze_graph(n, seed=seed, record_trace=False)
        assert with_trace.graph == without.graph


class TestNeighborSuccessProperties:
    @given(
        n=st.integers(min_value=4, max_value=40),
        graph_seed=seeds,
        algo_seed=seeds,
    )
    @settings(max_examples=40, deadline=None)
    def test_neighbor_success_never_slower(
        self, n, graph_seed, algo_seed
    ):
        """The relaxed criterion can only stop earlier (deterministic
        request sequence => prefix property)."""
        graph = merged_mori_graph(n, 1, 0.5, seed=graph_seed).graph
        strict = run_search(
            FloodingSearch(), graph, 1, n, seed=algo_seed
        )
        relaxed = run_search(
            FloodingSearch(),
            graph,
            1,
            n,
            seed=algo_seed,
            neighbor_success=True,
        )
        assert relaxed.requests <= strict.requests
        assert relaxed.found

    @given(
        n=st.integers(min_value=4, max_value=30),
        graph_seed=seeds,
    )
    @settings(max_examples=40, deadline=None)
    def test_neighbor_success_zone_is_correct(self, n, graph_seed):
        """Under the relaxed rule, found <=> some discovered vertex is
        the target or adjacent to it."""
        graph = merged_mori_graph(n, 2, 0.5, seed=graph_seed).graph
        target = n
        oracle = WeakOracle(graph, 1, target, neighbor_success=True)
        import random

        RandomWalkSearch().run(
            oracle, random.Random(0), graph.num_edges
        )
        zone = {target} | set(graph.unique_neighbors(target))
        touched = any(
            oracle.knowledge.is_discovered(v) for v in zone
        )
        assert oracle.found == touched
