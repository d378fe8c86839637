"""Property-based tests (hypothesis) for the graph substrates."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.barabasi_albert import barabasi_albert_graph
from repro.graphs.configuration import configuration_model_graph
from repro.graphs.cooper_frieze import (
    CooperFriezeParams,
    cooper_frieze_graph,
)
from repro.graphs.mori import merged_mori_graph, mori_tree
from repro.graphs.power_law import power_law_degree_sequence

# Shared strategies: keep sizes modest so the whole module runs in
# seconds while still exploring the parameter space.
sizes = st.integers(min_value=2, max_value=60)
probabilities = st.floats(
    min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False
)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


class TestMoriProperties:
    @given(n=sizes, p=probabilities, seed=seeds)
    @settings(max_examples=60, deadline=None)
    def test_tree_invariants(self, n, p, seed):
        tree = mori_tree(n, p, seed=seed)
        graph = tree.graph
        # It is a tree.
        assert graph.num_edges == n - 1
        assert graph.is_connected()
        # Every parent is strictly older.
        assert all(
            1 <= tree.parents[k] < k for k in range(2, n + 1)
        )
        # Degree sum identity.
        assert sum(graph.degree_sequence()) == 2 * graph.num_edges
        # Construction orientation: out-degree 1 except the root.
        assert graph.out_degree(1) == 0
        assert all(
            graph.out_degree(v) == 1 for v in range(2, n + 1)
        )

    @given(
        n=st.integers(min_value=2, max_value=25),
        m=st.integers(min_value=1, max_value=5),
        p=probabilities,
        seed=seeds,
    )
    @settings(max_examples=40, deadline=None)
    def test_merged_invariants(self, n, m, p, seed):
        merged = merged_mori_graph(n, m, p, seed=seed)
        graph = merged.graph
        assert graph.num_vertices == n
        assert graph.num_edges == n * m - 1
        assert graph.is_connected()
        # Degree mass conserved by merging.
        assert sum(graph.degree_sequence()) == sum(
            merged.tree.graph.degree_sequence()
        )


class TestCooperFriezeProperties:
    @given(
        n=st.integers(min_value=2, max_value=50),
        alpha=st.floats(min_value=0.3, max_value=1.0),
        beta=probabilities,
        gamma=probabilities,
        delta=probabilities,
        seed=seeds,
    )
    @settings(max_examples=40, deadline=None)
    def test_invariants(self, n, alpha, beta, gamma, delta, seed):
        params = CooperFriezeParams(
            alpha=alpha, beta=beta, gamma=gamma, delta=delta
        )
        result = cooper_frieze_graph(n, params, seed=seed)
        graph = result.graph
        assert graph.num_vertices == n
        assert graph.is_connected()
        assert result.num_new_steps == n - 1
        assert result.num_steps >= result.num_new_steps
        assert sum(graph.degree_sequence()) == 2 * graph.num_edges


class TestBAProperties:
    @given(
        n=st.integers(min_value=2, max_value=50),
        m=st.integers(min_value=1, max_value=4),
        seed=seeds,
    )
    @settings(max_examples=40, deadline=None)
    def test_invariants(self, n, m, seed):
        graph = barabasi_albert_graph(n, m, seed=seed)
        assert graph.num_vertices == n
        assert graph.num_edges == 1 + m * (n - 1)
        assert graph.is_connected()


class TestConfigurationProperties:
    @given(
        n=st.integers(min_value=2, max_value=60),
        exponent=st.floats(min_value=1.5, max_value=3.5),
        seed=seeds,
    )
    @settings(max_examples=40, deadline=None)
    def test_degrees_realized_exactly(self, n, exponent, seed):
        degrees = power_law_degree_sequence(n, exponent, seed=seed)
        graph = configuration_model_graph(degrees, seed=seed)
        assert graph.degree_sequence() == degrees

    @given(
        n=st.integers(min_value=1, max_value=80),
        exponent=st.floats(min_value=1.5, max_value=3.5),
        seed=seeds,
    )
    @settings(max_examples=40, deadline=None)
    def test_sequence_sum_even(self, n, exponent, seed):
        degrees = power_law_degree_sequence(n, exponent, seed=seed)
        assert sum(degrees) % 2 == 0
        assert len(degrees) == n
