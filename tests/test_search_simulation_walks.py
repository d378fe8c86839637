"""Unit tests for the simulation adapter and the extra walk strategies."""

from __future__ import annotations

import pytest

from repro.analysis.maxdegree import max_degree
from repro.errors import InvalidParameterError, OracleProtocolError
from repro.graphs.base import MultiGraph
from repro.graphs.mori import merged_mori_graph, mori_tree
from repro.search.algorithms import (
    DegreeBiasedWalkSearch,
    HighDegreeStrongSearch,
    RandomWalkSearch,
    RestartingWalkSearch,
    SelfAvoidingWalkSearch,
    WeakSimulationOfStrong,
)
from repro.search.process import run_search


@pytest.fixture(scope="module")
def mori_instance():
    return merged_mori_graph(80, 2, 0.5, seed=23).graph


class TestWeakSimulationOfStrong:
    def test_rejects_weak_inner(self):
        with pytest.raises(OracleProtocolError):
            WeakSimulationOfStrong(RandomWalkSearch())

    def test_name_and_model(self):
        simulated = WeakSimulationOfStrong(HighDegreeStrongSearch())
        assert simulated.model == "weak"
        assert "high-degree" in simulated.name

    def test_finds_target(self, mori_instance):
        simulated = WeakSimulationOfStrong(HighDegreeStrongSearch())
        result = run_search(simulated, mori_instance, 1, 75, seed=0)
        assert result.found
        assert result.model == "weak"
        assert result.extra["strong_requests"] >= 1

    def test_same_outcome_as_native_strong(self, mori_instance):
        """The emulation is faithful: the inner algorithm sees the same
        neighbor sets, so a deterministic inner algorithm succeeds on
        exactly the same instances."""
        native = run_search(
            HighDegreeStrongSearch(), mori_instance, 1, 75, seed=0
        )
        simulated = run_search(
            WeakSimulationOfStrong(HighDegreeStrongSearch()),
            mori_instance,
            1,
            75,
            seed=0,
        )
        assert native.found == simulated.found

    def test_slowdown_inequality(self):
        """The paper's Section-2 argument, instance by instance."""
        for seed in range(5):
            graph = mori_tree(150, 0.25, seed=seed).graph
            native = run_search(
                HighDegreeStrongSearch(), graph, 1, 140, seed=0
            )
            simulated = run_search(
                WeakSimulationOfStrong(HighDegreeStrongSearch()),
                graph,
                1,
                140,
                seed=0,
            )
            bound = max(native.requests, 1) * max_degree(graph)
            assert simulated.requests <= bound

    def test_budget_respected(self, mori_instance):
        simulated = WeakSimulationOfStrong(HighDegreeStrongSearch())
        result = run_search(
            simulated, mori_instance, 1, 75, budget=5, seed=0
        )
        assert result.requests <= 5

    def test_works_with_randomized_inner(self, mori_instance):
        simulated = WeakSimulationOfStrong(
            DegreeBiasedWalkSearch(beta=1.0)
        )
        result = run_search(simulated, mori_instance, 1, 75, seed=3)
        assert result.found


class TestSelfAvoidingWalk:
    def test_finds_target(self, mori_instance):
        result = run_search(
            SelfAvoidingWalkSearch(), mori_instance, 1, 75, seed=1
        )
        assert result.found

    def test_never_wastes_requests_on_resolved_edges(self, triangle):
        # On a triangle every edge gets requested at most once.
        result = run_search(
            SelfAvoidingWalkSearch(), triangle, 1, 3, seed=0
        )
        assert result.found
        assert result.requests <= 3

    def test_isolated_start(self):
        graph = MultiGraph(2)
        result = run_search(
            SelfAvoidingWalkSearch(), graph, 1, 2, seed=0
        )
        assert not result.found
        assert result.requests == 0

    def test_no_cheaper_than_plain_walk_on_average(self, mori_instance):
        """Self-avoidance helps (fewer or equal requests on average)."""
        plain_total = 0
        avoiding_total = 0
        for seed in range(10):
            plain_total += run_search(
                RandomWalkSearch(), mori_instance, 1, 75, seed=seed
            ).requests
            avoiding_total += run_search(
                SelfAvoidingWalkSearch(),
                mori_instance,
                1,
                75,
                seed=seed,
            ).requests
        assert avoiding_total <= plain_total


class TestRestartingWalk:
    def test_restart_prob_validation(self):
        with pytest.raises(InvalidParameterError):
            RestartingWalkSearch(-0.1)
        with pytest.raises(InvalidParameterError):
            RestartingWalkSearch(1.0)

    def test_name_encodes_parameter(self):
        assert "r0.2" in RestartingWalkSearch(0.2).name

    def test_finds_target(self, mori_instance):
        result = run_search(
            RestartingWalkSearch(0.1), mori_instance, 1, 75, seed=2
        )
        assert result.found
        assert "restarts" in result.extra

    def test_zero_restart_behaves_like_walk(self, path4):
        result = run_search(RestartingWalkSearch(0.0), path4, 1, 4, seed=1)
        assert result.found
        assert result.extra["restarts"] == 0

    def test_heavy_restarts_terminate(self, mori_instance):
        result = run_search(
            RestartingWalkSearch(0.9),
            mori_instance,
            1,
            75,
            budget=50,
            seed=3,
        )
        assert result.requests <= 50
