"""Property-based tests for the search layer (oracle honesty, termination,
and the walker-ensemble kernel's invariants)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.mori import merged_mori_graph
from repro.search.algorithms import (
    AgeGreedySearch,
    DegreeBiasedWalkSearch,
    FloodingSearch,
    HighDegreeStrongSearch,
    HighDegreeWeakSearch,
    MixedStrategySearch,
    RandomWalkSearch,
    RestartingWalkSearch,
    SelfAvoidingWalkSearch,
)
from repro.search.algorithms.base import MOVES_PER_REQUEST
from repro.search.ensemble import run_ensemble
from repro.search.oracle import StrongOracle, WeakOracle
from repro.search.process import run_search

seeds = st.integers(min_value=0, max_value=2**32 - 1)
small_n = st.integers(min_value=3, max_value=40)

ALGORITHM_BUILDERS = [
    RandomWalkSearch,
    FloodingSearch,
    HighDegreeWeakSearch,
    lambda: AgeGreedySearch("oldest"),
    lambda: AgeGreedySearch("closest-id"),
    lambda: MixedStrategySearch(0.3),
    HighDegreeStrongSearch,
    lambda: DegreeBiasedWalkSearch(1.0),
]


class TestSearchProperties:
    @given(
        n=small_n,
        m=st.integers(min_value=1, max_value=3),
        graph_seed=seeds,
        algo_seed=seeds,
        algo_index=st.integers(0, len(ALGORITHM_BUILDERS) - 1),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_terminates_and_respects_budget(
        self, n, m, graph_seed, algo_seed, algo_index, data
    ):
        graph = merged_mori_graph(n, m, 0.5, seed=graph_seed).graph
        target = data.draw(
            st.integers(min_value=1, max_value=n), label="target"
        )
        start = data.draw(
            st.integers(min_value=1, max_value=n), label="start"
        )
        budget = data.draw(
            st.integers(min_value=0, max_value=4 * graph.num_edges),
            label="budget",
        )
        algorithm = ALGORITHM_BUILDERS[algo_index]()
        result = run_search(
            algorithm, graph, start, target, budget=budget, seed=algo_seed
        )
        # Budget is a hard cap.
        assert result.requests <= budget
        # Result metadata is faithful.
        assert result.start == start
        assert result.target == target
        # Connected graph + full budget >= edges: flooding always finds.
        if (
            isinstance(algorithm, FloodingSearch)
            and budget >= graph.num_edges
        ):
            assert result.found

    @given(n=small_n, graph_seed=seeds, algo_seed=seeds)
    @settings(max_examples=50, deadline=None)
    def test_weak_oracle_counts_every_discovery(
        self, n, graph_seed, algo_seed
    ):
        """Discovered vertices never exceed requests + 1 in the weak model."""
        graph = merged_mori_graph(n, 1, 0.5, seed=graph_seed).graph
        oracle = WeakOracle(graph, start=1, target=n)
        algorithm = FloodingSearch()
        import random

        algorithm.run(oracle, random.Random(algo_seed), graph.num_edges)
        assert (
            oracle.knowledge.num_discovered <= oracle.request_count + 1
        )

    @given(n=small_n, graph_seed=seeds)
    @settings(max_examples=50, deadline=None)
    def test_strong_oracle_discovery_bound(self, n, graph_seed):
        """Each strong request discovers at most max-degree new vertices."""
        graph = merged_mori_graph(n, 1, 0.5, seed=graph_seed).graph
        oracle = StrongOracle(graph, start=1, target=n)
        import random

        HighDegreeStrongSearch().run(
            oracle, random.Random(0), graph.num_vertices
        )
        max_deg = max(graph.degree_sequence())
        assert (
            oracle.knowledge.num_discovered
            <= 1 + oracle.request_count * max_deg
        )

    @given(n=small_n, graph_seed=seeds, algo_seed=seeds)
    @settings(max_examples=50, deadline=None)
    def test_found_iff_target_discovered(self, n, graph_seed, algo_seed):
        graph = merged_mori_graph(n, 2, 0.5, seed=graph_seed).graph
        oracle = WeakOracle(graph, start=1, target=n)
        import random

        RandomWalkSearch().run(
            oracle, random.Random(algo_seed), 2 * graph.num_edges
        )
        assert oracle.found == oracle.knowledge.is_discovered(n)

    @given(n=small_n, graph_seed=seeds, algo_seed=seeds)
    @settings(max_examples=30, deadline=None)
    def test_knowledge_inference_is_sound(self, n, graph_seed, algo_seed):
        """Every inferred far endpoint matches the true graph."""
        graph = merged_mori_graph(n, 2, 0.5, seed=graph_seed).graph
        oracle = WeakOracle(graph, start=1, target=n)
        import random

        FloodingSearch().run(
            oracle, random.Random(algo_seed), graph.num_edges
        )
        knowledge = oracle.knowledge
        for v in knowledge.discovered():
            for eid in knowledge.edges_of(v):
                inferred = knowledge.far_endpoint(v, eid)
                if inferred is not None:
                    assert inferred == graph.other_endpoint(eid, v)


class TestEnsembleKernelProperties:
    """Invariants of the walker-ensemble kernel itself."""

    @given(n=small_n, graph_seed=seeds, cell_seed=seeds)
    @settings(max_examples=40, deadline=None)
    def test_self_avoiding_never_revisits_a_node_within_a_run(
        self, n, graph_seed, cell_seed
    ):
        """Every self-avoiding request discovers a *fresh* vertex.

        The walk prefers unresolved edges, whose far endpoint is by
        definition undiscovered in that run — so within one run's
        request trace no vertex is ever discovered twice, and the
        start vertex (discovered at time zero) never reappears.
        """
        graph = merged_mori_graph(n, 2, 0.5, seed=graph_seed).graph
        run_seeds = [cell_seed + run for run in range(4)]
        _, traces = run_ensemble(
            SelfAvoidingWalkSearch(),
            graph,
            1,
            n,
            run_seeds,
            budget=2 * graph.num_edges,
            collect_traces=True,
        )
        for trace in traces:
            answers = [answer for (_, _, _, answer) in trace]
            assert len(set(answers)) == len(answers)
            assert 1 not in answers  # the start is known from step 0

    @given(
        n=small_n,
        graph_seed=seeds,
        cell_seed=seeds,
        budget=st.integers(min_value=0, max_value=30),
        restart_prob=st.floats(min_value=0.0, max_value=0.9),
    )
    @settings(max_examples=40, deadline=None)
    def test_restarting_respects_hop_and_request_budgets(
        self, n, graph_seed, cell_seed, budget, restart_prob
    ):
        """Hop guard and request budget are hard caps for every run."""
        graph = merged_mori_graph(n, 1, 0.5, seed=graph_seed).graph
        run_seeds = [cell_seed + run for run in range(4)]
        results = run_ensemble(
            RestartingWalkSearch(restart_prob=restart_prob),
            graph,
            1,
            n,
            run_seeds,
            budget=budget,
        )
        max_moves = MOVES_PER_REQUEST * max(budget, 1)
        for result in results:
            assert result.requests <= budget
            assert result.extra["hops"] <= max_moves
            assert result.extra["restarts"] <= result.extra["hops"]

    @given(
        n=small_n,
        graph_seed=seeds,
        cell_seed=seeds,
        order=st.permutations(list(range(5))),
    )
    @settings(max_examples=40, deadline=None)
    def test_run_order_permutation_never_changes_a_run(
        self, n, graph_seed, cell_seed, order
    ):
        """Runs are independent: permuting a cell permutes its results.

        The kernel may schedule runs in lock step or per run; either
        way a run's outcome is a function of its own seed only, so
        submitting the ensemble in any order returns the same
        per-seed results (and traces), merely reordered.
        """
        graph = merged_mori_graph(n, 2, 0.5, seed=graph_seed).graph
        run_seeds = [cell_seed + run for run in range(5)]
        for algorithm_builder in (
            RandomWalkSearch,
            SelfAvoidingWalkSearch,
            lambda: DegreeBiasedWalkSearch(beta=1.0),
        ):
            baseline, base_traces = run_ensemble(
                algorithm_builder(), graph, 1, n, run_seeds,
                budget=25, collect_traces=True,
            )
            permuted, permuted_traces = run_ensemble(
                algorithm_builder(), graph, 1, n,
                [run_seeds[position] for position in order],
                budget=25, collect_traces=True,
            )
            for new_position, position in enumerate(order):
                assert permuted[new_position] == baseline[position]
                assert (
                    permuted_traces[new_position]
                    == base_traces[position]
                )
