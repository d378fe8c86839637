"""Unit tests for merge, components, convert, and io graph utilities."""

from __future__ import annotations

import pytest

from repro.errors import InvalidParameterError, ReproError
from repro.graphs.base import MultiGraph
from repro.graphs.components import (
    connected_components,
    induced_subgraph,
    largest_component,
)
from repro.graphs.convert import from_networkx, to_networkx
from repro.graphs.io import load_edge_list, save_edge_list
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


class TestConvert:
    def test_roundtrip(self, triangle):
        nx_graph = to_networkx(triangle)
        back = from_networkx(nx_graph)
        assert back == triangle

    def test_to_networkx_preserves_multiplicity(self, parallel_graph):
        nx_graph = to_networkx(parallel_graph)
        assert nx_graph.number_of_edges() == 2

    def test_to_networkx_orientation(self):
        graph = MultiGraph.from_edges(2, [(2, 1)])
        nx_graph = to_networkx(graph)
        assert nx_graph.has_edge(2, 1)
        assert not nx_graph.has_edge(1, 2)

    def test_from_networkx_requires_dense_labels(self):
        import networkx

        bad = networkx.Graph()
        bad.add_edge(0, 1)  # nodes 0,1 instead of 1,2
        with pytest.raises(ReproError):
            from_networkx(bad)

    def test_cross_validate_bfs_with_networkx(self):
        import networkx

        tree = mori_tree(60, 0.5, seed=3).graph
        nx_graph = to_networkx(tree).to_undirected()
        from repro.analysis.diameter import bfs_distances

        ours = bfs_distances(tree, 1)
        theirs = networkx.single_source_shortest_path_length(nx_graph, 1)
        for v in tree.vertices():
            assert ours[v] == theirs[v]


class TestIO:
    def test_roundtrip(self, tmp_path, small_merged):
        path = tmp_path / "graph.edges"
        save_edge_list(small_merged.graph, path)
        loaded = load_edge_list(path)
        assert loaded == small_merged.graph

    def test_roundtrip_with_isolated_vertices(self, tmp_path):
        graph = MultiGraph(5)
        graph.add_edge(2, 1)
        path = tmp_path / "g.edges"
        save_edge_list(graph, path)
        assert load_edge_list(path) == graph

    def test_roundtrip_preserves_edge_ids_loops_and_parallels(
        self, tmp_path
    ):
        """The adversarial pin: ids, loop counts, parallel bundles.

        The format writes one line per edge in edge-id order and the
        loader re-adds in line order, so the round-trip must preserve
        the *labeled* edge list — a permutation of the parallel bundle
        would pass plain isomorphism yet break the incidence-slot
        order the walk oracles read.
        """
        from repro.graphs.frozen import freeze

        graph = MultiGraph(4)
        graph.add_edge(1, 1)  # self-loop first, id 0
        graph.add_edge(2, 1)
        graph.add_edge(2, 1)  # parallel bundle, ids 1-2
        graph.add_edge(1, 2)  # reverse orientation, id 3
        graph.add_edge(3, 3)
        graph.add_edge(3, 3)  # doubled self-loop, ids 4-5
        graph.add_edge(4, 3)
        path = tmp_path / "adversarial.edges"
        save_edge_list(graph, path)
        loaded = load_edge_list(path)
        assert loaded == graph
        assert list(loaded.edges()) == list(graph.edges())
        assert loaded.num_self_loops() == 3
        assert loaded.incident_edges(1) == graph.incident_edges(1)
        assert loaded.incident_edges(3) == graph.incident_edges(3)
        assert hash(freeze(loaded)) == hash(freeze(graph))

    def test_roundtrip_matches_vectorized_snapshot(self, tmp_path):
        """A thawed fastgen snapshot survives the text round-trip."""
        from repro.graphs.fastgen import fast_merged_mori_frozen
        from repro.graphs.frozen import freeze

        snapshot = fast_merged_mori_frozen(60, 2, 0.5, seed=0)
        path = tmp_path / "fast.edges"
        save_edge_list(snapshot.thaw(), path)
        loaded = load_edge_list(path)
        assert freeze(loaded) == snapshot
        assert list(loaded.edges()) == list(snapshot.edges())

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("nonsense\n")
        with pytest.raises(ReproError):
            load_edge_list(path)

    def test_missing_vertex_line_rejected(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("# repro edge list v1\n1 2\n")
        with pytest.raises(ReproError):
            load_edge_list(path)

    def test_malformed_edge_rejected(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text(
            "# repro edge list v1\n# vertices: 3\n1 2 3\n"
        )
        with pytest.raises(ReproError):
            load_edge_list(path)

    def test_non_integer_endpoint_rejected(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text(
            "# repro edge list v1\n# vertices: 2\na b\n"
        )
        with pytest.raises(ReproError):
            load_edge_list(path)
