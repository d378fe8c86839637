"""Unit tests for merge and components graph utilities."""

from __future__ import annotations

import pytest

from repro.errors import InvalidParameterError
from repro.graphs.base import MultiGraph
from repro.graphs.components import (
    connected_components,
    induced_subgraph,
    largest_component,
)
from repro.graphs.merge import merge_consecutive, quotient_graph
from repro.graphs.mori import mori_tree


class TestMerge:
    def test_merge_consecutive_pairs(self):
        graph = MultiGraph.from_edges(4, [(2, 1), (3, 2), (4, 3)])
        merged = merge_consecutive(graph, 2)
        assert merged.num_vertices == 2
        assert merged.num_edges == 3
        # Edge (2,1) becomes a self-loop at block 1.
        assert merged.num_self_loops() >= 1

    def test_merge_block_one_is_identity(self, triangle):
        merged = merge_consecutive(triangle, 1)
        assert merged == triangle

    def test_degree_mass_conserved(self):
        tree = mori_tree(24, 0.5, seed=0).graph
        merged = merge_consecutive(tree, 4)
        assert sum(merged.degree_sequence()) == sum(
            tree.degree_sequence()
        )

    def test_merge_validates(self, triangle):
        with pytest.raises(InvalidParameterError):
            merge_consecutive(triangle, 0)
        with pytest.raises(InvalidParameterError):
            merge_consecutive(triangle, 2)  # 3 not divisible by 2

    def test_quotient_graph_custom_blocks(self):
        graph = MultiGraph.from_edges(4, [(2, 1), (3, 2), (4, 3)])
        merged = quotient_graph(graph, [1, 2, 1, 2], 2)
        assert merged.num_vertices == 2
        assert merged.num_edges == 3

    def test_quotient_validates_block_range(self):
        graph = MultiGraph(2)
        with pytest.raises(InvalidParameterError):
            quotient_graph(graph, [1, 3], 2)
        with pytest.raises(InvalidParameterError):
            quotient_graph(graph, [1], 1)
        with pytest.raises(InvalidParameterError):
            quotient_graph(graph, [1, 1], 2)  # block 2 empty
        with pytest.raises(InvalidParameterError):
            quotient_graph(graph, [1, 1], 0)


class TestComponents:
    def test_connected_components_sorted(self):
        graph = MultiGraph(5)
        graph.add_edge(2, 1)
        graph.add_edge(4, 3)
        graph.add_edge(5, 4)
        components = connected_components(graph)
        assert components == [[3, 4, 5], [1, 2]]

    def test_largest_component(self):
        graph = MultiGraph(4)
        graph.add_edge(2, 1)
        assert largest_component(graph) == [1, 2]

    def test_largest_component_empty_graph(self):
        with pytest.raises(InvalidParameterError):
            largest_component(MultiGraph(0))

    def test_induced_subgraph_relabels_in_order(self):
        graph = MultiGraph(5)
        graph.add_edge(3, 2)
        graph.add_edge(5, 3)
        sub = induced_subgraph(graph, [2, 3, 5])
        assert sub.graph.num_vertices == 3
        assert sub.graph.num_edges == 2
        assert sub.to_original[1:] == (2, 3, 5)
        assert sub.to_new == {2: 1, 3: 2, 5: 3}
        # Order preservation: newest original id maps to largest new id.
        assert sub.to_new[5] == 3

    def test_induced_subgraph_drops_external_edges(self):
        graph = MultiGraph(3)
        graph.add_edge(2, 1)
        graph.add_edge(3, 2)
        sub = induced_subgraph(graph, [1, 2])
        assert sub.graph.num_edges == 1

    def test_induced_subgraph_validates(self):
        graph = MultiGraph(2)
        with pytest.raises(InvalidParameterError):
            induced_subgraph(graph, [])
        with pytest.raises(InvalidParameterError):
            induced_subgraph(graph, [3])


class TestNetworkxOracle:
    def test_cross_validate_bfs_with_networkx(self):
        """networkx is an independent BFS for ``bfs_distances``."""
        networkx = pytest.importorskip("networkx")
        from repro.analysis.diameter import bfs_distances

        tree = mori_tree(60, 0.5, seed=3).graph
        nx_graph = networkx.MultiGraph()
        nx_graph.add_nodes_from(tree.vertices())
        nx_graph.add_edges_from(
            (tail, head) for _, tail, head in tree.edges()
        )
        ours = bfs_distances(tree, 1)
        theirs = networkx.single_source_shortest_path_length(nx_graph, 1)
        for v in tree.vertices():
            assert ours[v] == theirs[v]
