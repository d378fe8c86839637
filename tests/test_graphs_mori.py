"""Unit tests for repro.graphs.mori (Móri tree and merged m-out graph)."""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter

import pytest

from repro.errors import InvalidParameterError
from repro.graphs.base import MultiGraph
from repro.graphs.mori import merged_mori_graph, mori_tree


class TestMoriTree:
    def test_minimal_tree(self):
        tree = mori_tree(2, 0.5, seed=0)
        assert tree.n == 2
        assert tree.graph.num_edges == 1
        assert tree.parents == (0, 0, 1)

    def test_tree_shape(self, small_tree):
        graph = small_tree.graph
        assert graph.num_edges == graph.num_vertices - 1
        assert graph.is_connected()
        assert graph.num_self_loops() == 0

    def test_parents_are_older(self, small_tree):
        for k in range(2, small_tree.n + 1):
            assert 1 <= small_tree.parent(k) < k

    def test_parent_matches_graph_edges(self, small_tree):
        for eid, tail, head in small_tree.graph.edges():
            assert tail == eid + 2  # edge added at time eid + 2
            assert head == small_tree.parents[tail]

    def test_parent_out_of_range_rejected(self, small_tree):
        with pytest.raises(InvalidParameterError):
            small_tree.parent(1)
        with pytest.raises(InvalidParameterError):
            small_tree.parent(small_tree.n + 1)

    def test_n_below_two_rejected(self):
        with pytest.raises(InvalidParameterError):
            mori_tree(1, 0.5)

    def test_p_out_of_range_rejected(self):
        with pytest.raises(InvalidParameterError):
            mori_tree(10, -0.1)
        with pytest.raises(InvalidParameterError):
            mori_tree(10, 1.5)

    def test_deterministic_with_seed(self):
        t1 = mori_tree(50, 0.5, seed=11)
        t2 = mori_tree(50, 0.5, seed=11)
        assert t1.parents == t2.parents

    def test_different_seeds_differ(self):
        t1 = mori_tree(50, 0.5, seed=1)
        t2 = mori_tree(50, 0.5, seed=2)
        assert t1.parents != t2.parents

    def test_p_one_is_star_at_root(self):
        # Pure indegree preference: vertex 2 has weight 0 forever, so
        # every later vertex attaches to vertex 1.
        tree = mori_tree(20, 1.0, seed=3)
        assert all(tree.parents[k] == 1 for k in range(3, 21))

    def test_p_zero_is_uniform_attachment(self):
        # Uniform attachment: P(N_3 = 1) = 1/2; check empirically.
        hits = sum(
            mori_tree(3, 0.0, seed=s).parents[3] == 1
            for s in range(2000)
        )
        assert 0.44 < hits / 2000 < 0.56

    def test_preferential_bias_toward_root(self):
        # At p close to 1 the root (earliest, highest-indegree) vertex
        # should collect far more children than under uniform.
        big_p = mori_tree(500, 0.9, seed=7)
        small_p = mori_tree(500, 0.0, seed=7)
        assert big_p.graph.in_degree(1) > small_p.graph.in_degree(1)

    def test_indegree_is_the_child_count(self, small_tree):
        children = Counter(small_tree.parents[2:])
        for v in range(1, small_tree.n + 1):
            assert small_tree.graph.in_degree(v) == children[v]

    def test_satisfies_event(self):
        tree = mori_tree(6, 1.0, seed=0)  # star: all parents are 1
        assert tree.satisfies_event(2, 6)
        assert tree.satisfies_event(1, 6)

    def test_satisfies_event_validates(self, small_tree):
        with pytest.raises(InvalidParameterError):
            small_tree.satisfies_event(0, 5)
        with pytest.raises(InvalidParameterError):
            small_tree.satisfies_event(5, small_tree.n + 1)

    def test_attachment_distribution_time3(self):
        # At t = 3: weight(1) = p*1 + (1-p), weight(2) = (1-p);
        # P(N_3 = 1) = (p + (1-p)) / (p + 2(1-p)) = 1 / (2 - p).
        p = 0.5
        expected = 1.0 / (2.0 - p)
        hits = sum(
            mori_tree(3, p, seed=s).parents[3] == 1 for s in range(4000)
        )
        assert abs(hits / 4000 - expected) < 0.03


#: Recorded on the urn-based sampler that built a MultiGraph while it
#: drew: (n, p) -> (rng.random() after ``mori_tree(n, p, seed=rng)``
#: with ``rng = random.Random(20261017)``, sha256 of the tree's JSON
#: edge list).  The parents-only sampler must consume the generator
#: variate for variate and derive the same graph.
_SAMPLER_SEED = 20261017
_SAMPLER_PINS = {
    (12, 0.0): (
        0.3268723039107998,
        "0c8670c8235f01a6673c156352f04b40f13def4febc2dfaecaa5470c61295ba4",
    ),
    (12, 0.5): (
        0.709226622055351,
        "fb3cf940683b59bec5a581eae12ff1a2e96604127ef511087ed6fedbc811c19b",
    ),
    (12, 1.0): (
        0.13653676740248955,
        "f624dc5cb459eba81bc96dc11347ffd5cea7ec2a7767d615fe0892db87d78618",
    ),
    (500, 0.0): (
        0.8168693733085697,
        "a54beff02dd187ba35e8a082fbb07dcb08a73dbc1f3159673453566e9787e252",
    ),
    (500, 0.5): (
        0.7742939934906314,
        "fbf989aea3ed6e1a88fe643cee4e0cc4ca13b6e982a29fb0e275f8c166259aac",
    ),
    (500, 1.0): (
        0.7742939934906314,
        "d9ecc06d25bf2f145501ffd2cd7796356c25a6073483e59d4e21ae4f4d2db765",
    ),
}


def _edges_digest(graph) -> str:
    edges = [
        list(graph.edge_endpoints(eid))
        for eid in range(graph.num_edges)
    ]
    return hashlib.sha256(json.dumps(edges).encode()).hexdigest()


def _grown_graph(parents) -> MultiGraph:
    """The tree grown one vertex and edge at a time, as it is drawn."""
    graph = MultiGraph(2)
    graph.add_edge(2, 1)
    for t in range(3, len(parents)):
        graph.add_vertex()
        graph.add_edge(t, parents[t])
    return graph


class TestParentsOnlySampler:
    """E4's sampler draws the parent vector only; the graph is lazy."""

    @pytest.mark.parametrize("n, p", sorted(_SAMPLER_PINS))
    def test_generator_end_state_pinned(self, n, p):
        rng = random.Random(_SAMPLER_SEED)
        mori_tree(n, p, seed=rng)
        assert rng.random() == _SAMPLER_PINS[(n, p)][0]

    @pytest.mark.parametrize("n, p", sorted(_SAMPLER_PINS))
    def test_lazy_graph_equals_the_grown_tree(self, n, p):
        tree = mori_tree(n, p, seed=random.Random(_SAMPLER_SEED))
        assert tree.graph is tree.graph
        assert _edges_digest(tree.graph) == _SAMPLER_PINS[(n, p)][1]
        grown = _grown_graph(tree.parents)
        assert tree.graph == grown
        assert hash(tree.graph) == hash(grown)
        assert tree.n == n == tree.graph.num_vertices

    def test_event_estimate_builds_no_graph(self, monkeypatch):
        from repro.equivalence.events import estimate_event_probability

        def forbidden(self, tail, head):
            raise AssertionError("E4's sampler must not build a graph")

        monkeypatch.setattr(MultiGraph, "add_edge", forbidden)
        estimate = estimate_event_probability(10, 13, 0.5, 50, seed=4)
        assert 0.0 < estimate <= 1.0


def _textbook_mori_parents(n, p, rng):
    """The Móri step through the public ``randrange``/``randint`` API.

    The reference for :func:`mori_tree`, which writes its bounded draws
    out inline: same coin, same urn, same generator calls.
    """
    parents = [0, 0, 1]
    for t in range(3, n + 1):
        num_edges = t - 2
        num_vertices = t - 1
        preferential_mass = p * num_edges
        total_mass = preferential_mass + (1.0 - p) * num_vertices
        if rng.random() * total_mass < preferential_mass:
            parents.append(parents[2 + rng.randrange(num_edges)])
        else:
            parents.append(rng.randint(1, num_vertices))
    return tuple(parents)


class TestInlineDraws:
    """``mori_tree`` equals the textbook ``randrange`` loop, draw for draw."""

    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("n", [2, 3, 4, 17, 300, 2049])
    def test_equals_textbook_loop(self, n, p):
        for seed in range(8):
            inline = random.Random(seed)
            reference = random.Random(seed)
            tree = mori_tree(n, p, seed=inline)
            assert tree.parents == _textbook_mori_parents(n, p, reference)
            assert inline.getstate() == reference.getstate()


class TestMergedMoriGraph:
    def test_m1_is_the_tree(self):
        merged = merged_mori_graph(30, 1, 0.5, seed=5)
        tree = mori_tree(30, 0.5, seed=5)
        assert merged.graph.num_edges == tree.graph.num_edges
        assert [
            merged.graph.edge_endpoints(e)
            for e in range(merged.graph.num_edges)
        ] == [
            tree.graph.edge_endpoints(e)
            for e in range(tree.graph.num_edges)
        ]

    def test_sizes(self, small_merged):
        assert small_merged.n == 20
        assert small_merged.graph.num_vertices == 20
        # Tree on 40 vertices has 39 edges, all survive merging.
        assert small_merged.graph.num_edges == 39

    def test_connected(self, small_merged):
        assert small_merged.graph.is_connected()

    def test_out_degree_is_m(self, small_merged):
        graph = small_merged.graph
        m = small_merged.m
        # Vertex 1 absorbs tree vertex 1 (no out-edge): out-degree m-1.
        assert graph.out_degree(1) == m - 1
        for v in range(2, graph.num_vertices + 1):
            assert graph.out_degree(v) == m

    def test_degree_mass_conserved(self, small_merged):
        tree = small_merged.tree
        graph = small_merged.graph
        assert sum(graph.degree_sequence()) == sum(
            tree.graph.degree_sequence()
        )

    def test_tree_vertex_to_merged(self, small_merged):
        assert small_merged.tree_vertex_to_merged(1) == 1
        assert small_merged.tree_vertex_to_merged(2) == 1
        assert small_merged.tree_vertex_to_merged(3) == 2
        assert small_merged.tree_vertex_to_merged(40) == 20

    def test_tree_vertex_to_merged_validates(self, small_merged):
        with pytest.raises(InvalidParameterError):
            small_merged.tree_vertex_to_merged(0)

    def test_edges_respect_merge_mapping(self, small_merged):
        tree = small_merged.tree
        graph = small_merged.graph
        for eid in range(graph.num_edges):
            tail, head = graph.edge_endpoints(eid)
            tree_tail, tree_head = tree.graph.edge_endpoints(eid)
            assert tail == small_merged.tree_vertex_to_merged(tree_tail)
            assert head == small_merged.tree_vertex_to_merged(tree_head)

    @pytest.mark.parametrize("p", (0.0, 1.0))
    def test_edges_point_to_older_blocks(self, p):
        """Tree edges point to older vertices, so a merged head is never
        newer than its tail."""
        for seed in range(5):
            graph = merged_mori_graph(30, 3, p, seed=seed).graph
            assert all(head <= tail for _, tail, head in graph.edges())

    def test_search_cost_far_exceeds_the_diameter(self):
        """The paper's contrast on the merged graph: a weak search
        for a new vertex pays far more than the ~7-hop diameter."""
        from repro.analysis.diameter import estimate_diameter
        from repro.search.algorithms import HighDegreeWeakSearch
        from repro.search.process import run_search

        graph = merged_mori_graph(400, 2, 0.5, seed=4).graph
        result = run_search(
            HighDegreeWeakSearch(), graph, 1, 380, seed=0
        )
        assert result.found
        assert estimate_diameter(graph, seed=0) <= 10
        assert result.requests > 20 * 10

    def test_keep_tree_false(self):
        merged = merged_mori_graph(10, 2, 0.5, seed=1, keep_tree=False)
        assert merged.tree is None

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            merged_mori_graph(1, 1, 0.5)
        with pytest.raises(InvalidParameterError):
            merged_mori_graph(10, 0, 0.5)
        with pytest.raises(InvalidParameterError):
            merged_mori_graph(10, 1, 2.0)

    def test_deterministic_with_seed(self):
        g1 = merged_mori_graph(20, 3, 0.25, seed=9)
        g2 = merged_mori_graph(20, 3, 0.25, seed=9)
        assert g1.graph == g2.graph

    def test_self_loops_possible_with_merging(self):
        # With m large, consecutive tree vertices merge together and
        # in-block attachments become self-loops; check they are kept.
        counts = Counter()
        for seed in range(30):
            merged = merged_mori_graph(5, 8, 0.5, seed=seed)
            counts["loops"] += merged.graph.num_self_loops()
        assert counts["loops"] > 0
