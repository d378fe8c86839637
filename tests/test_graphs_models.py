"""Unit tests for BA, power-law sequences, configuration, and Kleinberg models."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.errors import GraphConstructionError, InvalidParameterError
from repro.graphs.barabasi_albert import barabasi_albert_graph
from repro.graphs.configuration import (
    configuration_model_graph,
    power_law_configuration_graph,
)
from repro.graphs.kleinberg import kleinberg_grid
from repro.graphs.power_law import (
    power_law_degree_sequence,
    power_law_pmf,
    power_law_weights,
)


class TestBarabasiAlbert:
    def test_sizes(self):
        graph = barabasi_albert_graph(100, 2, seed=0)
        assert graph.num_vertices == 100
        # Initial loop + 2 edges per vertex 2..100.
        assert graph.num_edges == 1 + 2 * 99

    def test_connected(self):
        assert barabasi_albert_graph(200, 1, seed=1).is_connected()

    def test_rich_get_richer(self):
        graph = barabasi_albert_graph(2000, 1, seed=2)
        degrees = sorted(graph.degree_sequence(), reverse=True)
        # The maximum degree should dwarf the median in a PA graph.
        assert degrees[0] > 10 * degrees[len(degrees) // 2]

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            barabasi_albert_graph(1, 1)
        with pytest.raises(InvalidParameterError):
            barabasi_albert_graph(10, 0)

    def test_deterministic(self):
        assert barabasi_albert_graph(50, 2, seed=3) == (
            barabasi_albert_graph(50, 2, seed=3)
        )


class TestPowerLawSequence:
    def test_weights_shape(self):
        weights = power_law_weights(2.0, 1, 4)
        assert weights == pytest.approx([1.0, 0.25, 1 / 9, 1 / 16])

    def test_pmf_normalized(self):
        pmf = power_law_pmf(2.5, 1, 100)
        assert sum(pmf) == pytest.approx(1.0)

    def test_pmf_ratio_follows_the_exponent(self):
        pmf = power_law_pmf(2.5, 2, 40)
        for d, (q, q_next) in enumerate(zip(pmf, pmf[1:]), start=2):
            assert q / q_next == pytest.approx(((d + 1) / d) ** 2.5)

    def test_sequence_even_sum(self):
        for seed in range(20):
            degrees = power_law_degree_sequence(101, 2.5, seed=seed)
            assert sum(degrees) % 2 == 0

    def test_sequence_respects_bounds(self):
        degrees = power_law_degree_sequence(
            500, 2.5, min_degree=2, max_degree=30, seed=0
        )
        assert min(degrees) >= 2
        assert max(degrees) <= 31  # +1 allowed via parity fix

    def test_parity_fix_only_bumps_entries_below_the_cutoff(self):
        for seed in range(30):
            degrees = power_law_degree_sequence(
                51, 2.0, min_degree=1, max_degree=4, seed=seed
            )
            assert sum(degrees) % 2 == 0
            assert 1 <= min(degrees) and max(degrees) <= 4

    def test_empirical_distribution(self):
        degrees = power_law_degree_sequence(
            50000, 2.5, min_degree=1, max_degree=1000, seed=1
        )
        counts = Counter(degrees)
        pmf = power_law_pmf(2.5, 1, 1000)
        assert abs(counts[1] / 50000 - pmf[0]) < 0.01
        assert abs(counts[2] / 50000 - pmf[1]) < 0.01

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            power_law_degree_sequence(0, 2.5)
        with pytest.raises(InvalidParameterError):
            power_law_weights(-1.0, 1, 5)
        with pytest.raises(InvalidParameterError):
            power_law_weights(2.5, 0, 5)
        with pytest.raises(InvalidParameterError):
            power_law_weights(2.5, 5, 4)


class TestConfigurationModel:
    def test_degrees_exact(self):
        degrees = [3, 2, 2, 1]
        graph = configuration_model_graph(degrees, seed=0)
        assert graph.degree_sequence() == degrees

    def test_odd_sum_rejected(self):
        with pytest.raises(InvalidParameterError):
            configuration_model_graph([1, 1, 1])

    def test_negative_degree_rejected(self):
        with pytest.raises(InvalidParameterError):
            configuration_model_graph([2, -1, 1])

    def test_empty_rejected(self):
        with pytest.raises(InvalidParameterError):
            configuration_model_graph([])

    def test_simple_mode(self):
        graph = configuration_model_graph(
            [2, 2, 2, 2], seed=3, simple=True
        )
        seen = set()
        for _, tail, head in graph.edges():
            assert tail != head
            key = (min(tail, head), max(tail, head))
            assert key not in seen
            seen.add(key)

    def test_simple_mode_gives_up(self):
        # Degree sequence [4, 4] can only be realised with multi-edges.
        with pytest.raises(GraphConstructionError):
            configuration_model_graph(
                [4, 4], seed=0, simple=True, max_attempts=5
            )

    def test_power_law_convenience(self):
        graph = power_law_configuration_graph(300, 2.5, seed=4)
        assert graph.num_vertices == 300
        assert sum(graph.degree_sequence()) % 2 == 0

    def test_deterministic(self):
        g1 = power_law_configuration_graph(100, 2.5, seed=5)
        g2 = power_law_configuration_graph(100, 2.5, seed=5)
        assert g1 == g2


class TestKleinbergGrid:
    def test_sizes(self):
        grid = kleinberg_grid(5, r=2.0, q=1, seed=0)
        assert grid.n == 25
        # 2 lattice edges per vertex + 1 long-range contact each.
        assert grid.graph.num_edges == 2 * 25 + 25

    def test_no_long_range(self):
        grid = kleinberg_grid(4, r=2.0, q=0, seed=0)
        assert grid.graph.num_edges == 2 * 16

    def test_coordinates_roundtrip(self):
        grid = kleinberg_grid(6, q=0)
        for v in range(1, grid.n + 1):
            row, column = grid.coordinates(v)
            assert grid.vertex_at(row, column) == v

    def test_coordinates_validate(self):
        grid = kleinberg_grid(4, q=0)
        with pytest.raises(InvalidParameterError):
            grid.coordinates(0)
        with pytest.raises(InvalidParameterError):
            grid.coordinates(17)

    def test_torus_distance(self):
        grid = kleinberg_grid(5, q=0)
        v = grid.vertex_at(0, 0)
        w = grid.vertex_at(4, 4)
        # Wraps around: distance 1+1, not 4+4.
        assert grid.distance(v, w) == 2
        assert grid.distance(v, v) == 0
        assert grid.distance(v, w) == grid.distance(w, v)

    def test_lattice_neighbors_at_distance_one(self):
        grid = kleinberg_grid(5, q=0)
        for v in range(1, grid.n + 1):
            for w in grid.graph.unique_neighbors(v):
                assert grid.distance(v, w) == 1

    def test_connected(self):
        assert kleinberg_grid(4, r=2.0, q=1, seed=1).graph.is_connected()

    def test_long_range_bias(self):
        # At large r, long-range contacts concentrate at distance 1;
        # at r=0 they are uniform, so mean contact distance is larger.
        near = kleinberg_grid(15, r=6.0, q=1, seed=2)
        far = kleinberg_grid(15, r=0.0, q=1, seed=2)

        def mean_contact_distance(grid):
            total = 0
            count = 0
            # Long-range edges follow the 2*n lattice edges.
            for eid in range(2 * grid.n, grid.graph.num_edges):
                tail, head = grid.graph.edge_endpoints(eid)
                total += grid.distance(tail, head)
                count += 1
            return total / count

        assert mean_contact_distance(near) < mean_contact_distance(far)

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            kleinberg_grid(1)
        with pytest.raises(InvalidParameterError):
            kleinberg_grid(4, r=-1.0)
        with pytest.raises(InvalidParameterError):
            kleinberg_grid(4, q=-1)

    def test_deterministic(self):
        g1 = kleinberg_grid(6, r=2.0, q=2, seed=7)
        g2 = kleinberg_grid(6, r=2.0, q=2, seed=7)
        assert g1.graph == g2.graph
