"""Unit tests for the analysis toolkit."""

from __future__ import annotations

import math

import pytest

from repro.analysis.diameter import (
    bfs_distances,
    diameter,
    eccentricity,
    estimate_diameter,
)
from repro.analysis.maxdegree import (
    ba_edge_count,
    max_degree,
    max_degree_trajectory,
    mori_edge_count,
)
from repro.analysis.powerlaw_fit import fit_power_law
from repro.analysis.scaling import (
    fit_logarithmic,
    fit_power_scaling,
    prefers_logarithmic,
)
from repro.analysis.stats import bootstrap_ci, mean, mean_ci, sample_std
from repro.errors import AnalysisError, InvalidParameterError
from repro.graphs.base import MultiGraph
from repro.graphs.mori import mori_tree
from repro.graphs.power_law import power_law_degree_sequence


class TestDegrees:
    def test_max_degree(self, loop_graph):
        assert max_degree(loop_graph) == 3

    def test_max_degree_of_star_is_its_hub(self):
        # p = 1 attaches every vertex to the root: a star on n vertices.
        star = mori_tree(25, 1.0, seed=0).graph
        assert max_degree(star) == 24

    def test_max_degree_empty_graph_raises(self):
        with pytest.raises(AnalysisError):
            max_degree(MultiGraph(0))


class TestDiameter:
    def test_bfs_distances(self, path4):
        assert bfs_distances(path4, 1)[1:] == [0, 1, 2, 3]

    def test_bfs_unreachable(self):
        graph = MultiGraph(3)
        graph.add_edge(2, 1)
        assert bfs_distances(graph, 1)[3] == -1

    def test_bfs_validates_source(self, path4):
        with pytest.raises(InvalidParameterError):
            bfs_distances(path4, 9)

    def test_eccentricity(self, path4):
        distance, vertex = eccentricity(path4, 1)
        assert distance == 3
        assert vertex == 4

    def test_diameter_path(self, path4):
        assert diameter(path4) == 3

    def test_diameter_triangle(self, triangle):
        assert diameter(triangle) == 1

    def test_diameter_disconnected_raises(self):
        graph = MultiGraph(3)
        graph.add_edge(2, 1)
        with pytest.raises(AnalysisError):
            diameter(graph)

    def test_diameter_empty_graph_raises(self):
        with pytest.raises(AnalysisError):
            diameter(MultiGraph(0))

    def test_eccentricity_skips_unreached_vertices(self):
        graph = MultiGraph.from_edges(4, [(2, 1), (3, 2)])
        assert eccentricity(graph, 1) == (2, 3)
        assert eccentricity(graph, 4) == (0, 4)  # isolated: itself

    def test_estimate_matches_exact_on_trees(self):
        for seed in range(5):
            graph = mori_tree(60, 0.5, seed=seed).graph
            estimate = estimate_diameter(graph, num_sweeps=4, seed=seed)
            exact = diameter(graph)
            assert estimate <= exact
            assert estimate >= exact - 1  # sweeps are near-exact on trees

    def test_estimate_deterministic_with_seed(self):
        graph = mori_tree(200, 0.5, seed=3).graph
        assert estimate_diameter(graph, seed=8) == (
            estimate_diameter(graph, seed=8)
        )

    def test_estimate_validates(self, path4):
        with pytest.raises(AnalysisError):
            estimate_diameter(MultiGraph(0))
        with pytest.raises(InvalidParameterError):
            estimate_diameter(path4, num_sweeps=0)


class TestMaxDegreeTrajectory:
    def test_mori_edge_count(self):
        assert mori_edge_count(2) == 1
        assert mori_edge_count(10) == 9
        with pytest.raises(InvalidParameterError):
            mori_edge_count(1)

    def test_ba_edge_count(self):
        count = ba_edge_count(2)
        assert count(1) == 1
        assert count(5) == 9
        with pytest.raises(InvalidParameterError):
            ba_edge_count(0)
        with pytest.raises(InvalidParameterError):
            count(0)

    def test_trajectory_monotone(self):
        tree = mori_tree(200, 0.75, seed=1).graph
        checkpoints = [10, 50, 100, 200]
        trajectory = max_degree_trajectory(
            tree, checkpoints, mori_edge_count
        )
        values = [v for _, v in trajectory]
        assert values == sorted(values)
        assert len(trajectory) == 4

    def test_trajectory_final_matches_graph(self):
        tree = mori_tree(100, 0.5, seed=2).graph
        trajectory = max_degree_trajectory(
            tree, [100], mori_edge_count
        )
        assert trajectory[0][1] == max_degree(tree)

    def test_trajectory_validates(self):
        tree = mori_tree(50, 0.5, seed=0).graph
        with pytest.raises(InvalidParameterError):
            max_degree_trajectory(tree, [20, 10], mori_edge_count)
        with pytest.raises(InvalidParameterError):
            max_degree_trajectory(tree, [60], mori_edge_count)

    def test_empty_checkpoints(self):
        tree = mori_tree(50, 0.5, seed=0).graph
        assert max_degree_trajectory(tree, [], mori_edge_count) == []


class TestPowerLawFit:
    def test_recovers_exponent(self):
        degrees = power_law_degree_sequence(
            30000, 2.5, min_degree=1, max_degree=500, seed=0
        )
        fit = fit_power_law(degrees, d_min=1)
        assert abs(fit.exponent - 2.5) < 0.15

    def test_auto_dmin(self):
        degrees = power_law_degree_sequence(
            20000, 2.2, min_degree=2, max_degree=300, seed=1
        )
        fit = fit_power_law(degrees)
        assert abs(fit.exponent - 2.2) < 0.3
        assert fit.num_tail >= 10

    def test_fast_decay_gives_huge_exponent(self):
        # Decay by 10x per degree step is far steeper than any
        # scale-free tail: the fitted exponent must be huge.
        degrees = [5] * 300 + [6] * 30 + [7] * 3
        fit = fit_power_law(degrees, d_min=5)
        assert fit.exponent > 4.0

    def test_too_few_points(self):
        with pytest.raises(AnalysisError):
            fit_power_law([3, 4])

    def test_degenerate_tail(self):
        with pytest.raises(AnalysisError):
            fit_power_law([5] * 100, d_min=5)

    def test_dmin_validation(self):
        with pytest.raises(InvalidParameterError):
            fit_power_law(list(range(1, 100)), d_min=0)

    def test_zero_degrees_ignored(self):
        degrees = [0] * 50 + list(
            power_law_degree_sequence(5000, 2.5, seed=3)
        )
        fit = fit_power_law(degrees, d_min=1)
        assert fit.exponent > 1.5


class TestScalingFits:
    def test_exact_power_law(self):
        xs = [10.0, 100.0, 1000.0]
        ys = [3 * x ** 0.5 for x in xs]
        fit = fit_power_scaling(xs, ys)
        assert fit.exponent == pytest.approx(0.5)
        assert fit.prefactor == pytest.approx(3.0)
        assert fit.r_squared == pytest.approx(1.0)
        assert fit.predict(400.0) == pytest.approx(60.0)

    def test_exact_logarithm(self):
        xs = [math.e, math.e ** 2, math.e ** 3]
        ys = [1 + 2 * math.log(x) for x in xs]
        fit = fit_logarithmic(xs, ys)
        assert fit.coefficient == pytest.approx(2.0)
        assert fit.intercept == pytest.approx(1.0)
        assert fit.predict(math.e ** 4) == pytest.approx(9.0)

    def test_prefers_logarithmic(self):
        xs = [float(2 ** k) for k in range(3, 11)]
        log_ys = [5 * math.log(x) for x in xs]
        power_ys = [x ** 0.8 for x in xs]
        assert prefers_logarithmic(xs, log_ys)
        assert not prefers_logarithmic(xs, power_ys)

    def test_validation(self):
        with pytest.raises(AnalysisError):
            fit_power_scaling([1.0], [1.0])
        with pytest.raises(AnalysisError):
            fit_power_scaling([1.0, 2.0], [1.0])
        with pytest.raises(AnalysisError):
            fit_power_scaling([1.0, -2.0], [1.0, 2.0])
        with pytest.raises(AnalysisError):
            fit_logarithmic([0.0, 2.0], [1.0, 2.0])

    def test_constant_y(self):
        fit = fit_power_scaling([1.0, 2.0, 4.0], [5.0, 5.0, 5.0])
        assert fit.exponent == pytest.approx(0.0)
        assert fit.r_squared == pytest.approx(1.0)

    def test_identical_x_rejected(self):
        with pytest.raises(AnalysisError):
            fit_power_scaling([2.0, 2.0], [1.0, 3.0])


class TestStats:
    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == pytest.approx(2.0)
        with pytest.raises(AnalysisError):
            mean([])

    def test_sample_std(self):
        assert sample_std([5.0]) == 0.0
        assert sample_std([1.0, 3.0]) == pytest.approx(math.sqrt(2.0))
        with pytest.raises(AnalysisError):
            sample_std([])

    def test_mean_ci_contains_mean(self):
        m, low, high = mean_ci([1.0, 2.0, 3.0, 4.0])
        assert low <= m <= high

    def test_mean_ci_level_validation(self):
        with pytest.raises(InvalidParameterError):
            mean_ci([1.0, 2.0], confidence=0.5)

    def test_bootstrap_contains_point(self):
        values = [float(v) for v in range(1, 30)]
        point, low, high = bootstrap_ci(
            values, mean, num_resamples=200, seed=0
        )
        assert low <= point <= high
        assert point == pytest.approx(15.0)

    def test_bootstrap_validation(self):
        with pytest.raises(AnalysisError):
            bootstrap_ci([], mean)
        with pytest.raises(InvalidParameterError):
            bootstrap_ci([1.0], mean, num_resamples=5)
        with pytest.raises(InvalidParameterError):
            bootstrap_ci([1.0], mean, confidence=1.5)
