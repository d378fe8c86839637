"""Unit tests for the connected-components graph utilities."""

from __future__ import annotations

import pytest

from repro.errors import InvalidParameterError
from repro.graphs.base import MultiGraph
from repro.graphs.components import (
    connected_components,
    induced_subgraph,
    largest_component,
)
from repro.graphs.configuration import power_law_configuration_graph
from repro.graphs.mori import mori_tree


def _sparse_graph():
    """A power-law configuration graph at min degree 1: many pieces."""
    return power_law_configuration_graph(200, 2.5, seed=5)


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

    def test_components_partition_the_vertices(self):
        graph = _sparse_graph()
        components = connected_components(graph)
        assert len(components) > 1
        members = [v for component in components for v in component]
        assert sorted(members) == list(graph.vertices())
        sizes = [len(component) for component in components]
        assert sizes == sorted(sizes, reverse=True)

    def test_induced_giant_is_connected_and_keeps_its_edges(self):
        graph = _sparse_graph()
        giant = largest_component(graph)
        sub = induced_subgraph(graph, giant)
        assert sub.graph.is_connected()
        member = set(giant)
        assert sub.graph.num_edges == sum(
            1 for _, tail, _ in graph.edges() if tail in member
        )

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

    def test_cross_validate_components_with_networkx(self):
        """networkx is an independent labelling for the components."""
        networkx = pytest.importorskip("networkx")

        graph = _sparse_graph()
        nx_graph = networkx.MultiGraph()
        nx_graph.add_nodes_from(graph.vertices())
        nx_graph.add_edges_from(
            (tail, head) for _, tail, head in graph.edges()
        )
        theirs = sorted(
            sorted(c) for c in networkx.connected_components(nx_graph)
        )
        assert sorted(connected_components(graph)) == theirs
