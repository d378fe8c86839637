"""Unit tests for the core experiment engine (families, measurements, results)."""

from __future__ import annotations

import json
import math

import pytest

from repro.core.families import (
    BarabasiAlbertFamily,
    ConfigurationFamily,
    CooperFriezeFamily,
    MoriFamily,
    theorem_target_for_size,
)
from repro.core.results import ExperimentResult, Table, load_result, save_result
from repro.core.searchability import (
    constant_factory,
    measure_scaling,
    measure_search_cost,
    omniscient_factory,
)
from repro.core.trials import (
    choose_start,
    result_from_dict,
    result_to_dict,
)
from repro.errors import ExperimentError, InvalidParameterError
from repro.search.algorithms import FloodingSearch, HighDegreeWeakSearch


class TestTheoremTarget:
    def test_window_fits(self):
        for size in (10, 100, 1000):
            target = theorem_target_for_size(size)
            b = (target - 1) + math.isqrt(target - 2)
            assert b <= size
            # Next target up would overflow.
            b_next = target + math.isqrt(target - 1)
            assert b_next > size or target == size

    def test_small_sizes(self):
        assert theorem_target_for_size(4) >= 3
        with pytest.raises(InvalidParameterError):
            theorem_target_for_size(3)


class TestFamilies:
    def test_mori_family(self):
        family = MoriFamily(p=0.5, m=2)
        graph = family.build(50, seed=0)
        assert graph.num_vertices == 50
        assert graph.is_connected()
        assert "mori" in family.name
        assert family.default_start(graph) == 1

    def test_cooper_frieze_family(self):
        family = CooperFriezeFamily()
        graph = family.build(50, seed=0)
        assert graph.num_vertices == 50
        assert graph.is_connected()

    def test_ba_family(self):
        family = BarabasiAlbertFamily(m=2)
        graph = family.build(50, seed=0)
        assert graph.num_vertices == 50

    def test_configuration_family_giant_component(self):
        family = ConfigurationFamily(exponent=2.3, min_degree=2)
        graph = family.build(300, seed=0)
        assert graph.is_connected()
        assert graph.num_vertices <= 300
        assert family.theorem_target(graph) == graph.num_vertices

    def test_family_determinism(self):
        family = MoriFamily(p=0.5, m=1)
        assert family.build(40, seed=5) == family.build(40, seed=5)


class TestMeasureSearchCost:
    def test_basic_measurement(self):
        family = MoriFamily(p=0.5, m=1)
        factories = {
            "flooding": constant_factory(FloodingSearch()),
            "high-degree": constant_factory(HighDegreeWeakSearch()),
        }
        cell = measure_search_cost(
            family, 60, factories, num_graphs=3, runs_per_graph=2, seed=0
        )
        assert set(cell.summaries) == {"flooding", "high-degree"}
        for summary in cell.summaries.values():
            assert summary.num_runs == 6
            assert summary.success_rate == 1.0
            assert summary.mean_requests > 0

    def test_omniscient_factory_integration(self):
        family = MoriFamily(p=0.5, m=1)
        cell = measure_search_cost(
            family,
            100,
            {"omniscient": omniscient_factory()},
            num_graphs=2,
            runs_per_graph=2,
            seed=1,
        )
        assert cell.summaries["omniscient"].success_rate == 1.0

    def test_determinism(self):
        family = MoriFamily(p=0.5, m=1)
        factories = {"flooding": constant_factory(FloodingSearch())}
        c1 = measure_search_cost(
            family, 50, factories, num_graphs=2, runs_per_graph=1, seed=7
        )
        c2 = measure_search_cost(
            family, 50, factories, num_graphs=2, runs_per_graph=1, seed=7
        )
        assert (
            c1.summaries["flooding"].mean_requests
            == c2.summaries["flooding"].mean_requests
        )

    def test_validation(self):
        family = MoriFamily()
        with pytest.raises(ExperimentError):
            measure_search_cost(family, 50, {}, num_graphs=0)


class TestOmniscientWindowClip:
    """Exact audit of the factory's window clip against Lemma 1.

    Lemma 1's window is ``V = [[target, b]]`` with
    ``b = (target - 1) + ⌊√(target - 2)⌋`` (``equivalence_window``),
    both ends inclusive; the factory realises it as
    ``range(target, min(b, n) + 1)``.  These tests pin that the clip
    keeps exactly the members of ``[[target, b]]`` that exist in the
    graph — no off-by-one at either end, including targets at and near
    the newest vertex ``n`` where ``b`` overshoots the graph.
    """

    def _window_for(self, graph, target):
        factory = omniscient_factory()
        return factory(graph, target).window

    def test_theorem_target_window_is_unclipped_lemma1_set(self):
        import math

        family = MoriFamily(p=0.5, m=1)
        graph = family.build(200, seed=2)
        target = family.theorem_target(graph)
        window = self._window_for(graph, target)
        b = (target - 1) + math.isqrt(target - 2)
        # theorem_target_for_size guarantees b <= n: no clipping.
        assert b <= graph.num_vertices
        assert window == tuple(range(target, b + 1))
        assert len(window) == math.isqrt(target - 2)
        assert window[0] == target

    def test_target_at_newest_vertex_degenerates_to_singleton(self):
        import math

        family = MoriFamily(p=0.5, m=1)
        graph = family.build(100, seed=3)
        n = graph.num_vertices
        b = (n - 1) + math.isqrt(n - 2)
        assert b > n  # the unclipped window would leave the graph
        window = self._window_for(graph, n)
        assert window == (n,)  # [[n, b]] ∩ [1, n] — the target alone

    def test_targets_near_n_clip_to_existing_vertices_exactly(self):
        import math

        family = MoriFamily(p=0.5, m=1)
        graph = family.build(100, seed=4)
        n = graph.num_vertices
        for target in range(n - 6, n + 1):
            window = self._window_for(graph, target)
            b = (target - 1) + math.isqrt(target - 2)
            expected = tuple(
                k for k in range(target, b + 1) if k <= n
            )
            assert window == expected, target
            # Inclusive at both surviving ends, never beyond n.
            assert window[0] == target
            assert window[-1] == min(b, n)
            assert all(graph.has_vertex(k) for k in window)

    def test_clipped_window_searches_still_succeed(self):
        from repro.search.process import run_search

        family = MoriFamily(p=0.5, m=1)
        graph = family.build(100, seed=5)
        n = graph.num_vertices
        factory = omniscient_factory()
        for target in (n, n - 1):
            algorithm = factory(graph, target)
            result = run_search(algorithm, graph, 1, target, seed=0)
            assert result.found

class TestMeasureScaling:
    def test_scaling_and_exponent(self):
        family = MoriFamily(p=0.5, m=1)
        factories = {"flooding": constant_factory(FloodingSearch())}
        measurement = measure_scaling(
            family,
            (50, 100, 200),
            factories,
            num_graphs=3,
            runs_per_graph=1,
            seed=2,
        )
        assert measurement.sizes == [50, 100, 200]
        means = measurement.mean_requests("flooding")
        assert len(means) == 3
        # Flooding cost grows with n.
        assert means[-1] > means[0]
        exponent = measurement.fitted_exponent("flooding")
        assert 0.3 < exponent < 1.5

    def test_needs_two_sizes(self):
        family = MoriFamily()
        with pytest.raises(ExperimentError):
            measure_scaling(
                family, (50,), {"f": constant_factory(FloodingSearch())}
            )


class TestTable:
    def test_add_row_validates_width(self):
        table = Table(title="t", columns=("a", "b"))
        table.add_row(1, 2)
        with pytest.raises(ExperimentError):
            table.add_row(1)

    def test_format_contains_data(self):
        table = Table(title="My Table", columns=("x", "value"))
        table.add_row(10, 0.125)
        table.notes.append("a note")
        text = table.format()
        assert "My Table" in text
        assert "0.125" in text
        assert "a note" in text

    def test_format_scientific_for_extremes(self):
        table = Table(title="t", columns=("v",))
        table.add_row(1.5e-7)
        assert "e-07" in table.format()

    def test_roundtrip(self):
        table = Table(title="t", columns=("a",), rows=[(1,)], notes=["n"])
        assert Table.from_dict(table.to_dict()) == table


class TestExperimentResult:
    def test_format(self):
        result = ExperimentResult(
            experiment_id="E0",
            title="demo",
            params={"n": 10},
            derived={"x": 1.5},
        )
        text = result.format()
        assert "E0" in text
        assert "n=10" in text
        assert "x = 1.5" in text

    def test_json_roundtrip(self, tmp_path):
        table = Table(title="t", columns=("a", "b"))
        table.add_row("row", 2.5)
        result = ExperimentResult(
            experiment_id="E99",
            title="roundtrip",
            params={"seed": 3},
            tables=[table],
            derived={"metric": 0.25},
        )
        path = tmp_path / "result.json"
        save_result(result, path)
        loaded = load_result(path)
        assert loaded.experiment_id == "E99"
        assert loaded.params == {"seed": 3}
        assert loaded.derived == {"metric": 0.25}
        assert loaded.tables[0].rows == [("row", 2.5)]


class TestStartRules:
    """``choose_start`` resolves a trial's start rule to one vertex."""

    def _instance(self):
        family = MoriFamily(p=0.5, m=2)
        graph = family.build(40, seed=3)
        return family, graph, family.theorem_target(graph)

    def test_default_is_the_family_start(self):
        family, graph, target = self._instance()
        assert choose_start(family, graph, target, "default", 3) == (
            family.default_start(graph)
        )

    def test_newest_other_sits_next_to_the_target(self):
        family, graph, _ = self._instance()
        assert choose_start(family, graph, 30, "newest-other", 3) == 29
        # Target 1 has no older neighbour, so the rule steps up.
        assert choose_start(family, graph, 1, "newest-other", 3) == 2

    def test_random_is_seeded_and_never_the_target(self):
        family, graph, target = self._instance()
        starts = [
            choose_start(family, graph, target, "random", seed)
            for seed in range(40)
        ]
        assert starts == [
            choose_start(family, graph, target, "random", seed)
            for seed in range(40)
        ]
        assert target not in starts
        assert all(1 <= s <= graph.num_vertices for s in starts)
        assert len(set(starts)) > 1

    def test_unknown_rule_rejected(self):
        family, graph, target = self._instance()
        with pytest.raises(ExperimentError):
            choose_start(family, graph, target, "oldest", 3)


class TestResultSerialization:
    def test_roundtrip_is_lossless(self):
        from repro.search.metrics import SearchResult

        result = SearchResult(
            algorithm="flooding",
            model="weak",
            found=True,
            requests=17,
            start=1,
            target=38,
            extra={"hops": 4},
        )
        data = result_to_dict(result)
        assert json.loads(json.dumps(data)) == data
        assert result_from_dict(data) == result

    def test_extra_is_copied_not_shared(self):
        from repro.search.metrics import SearchResult

        extra = {"hops": 2}
        result = SearchResult("walk", "weak", False, 5, 1, 9, extra)
        data = result_to_dict(result)
        data["extra"]["hops"] = 99
        assert result.extra == {"hops": 2}
        assert result_from_dict(data).extra is not data["extra"]


class TestCompareResults:
    def _make(self, **overrides):
        from repro.core.results import ExperimentResult

        base = dict(
            experiment_id="E1",
            title="t",
            params={"n": 100, "seed": 1},
            derived={"exponent": 0.95, "floor": 10.0},
        )
        base.update(overrides)
        return ExperimentResult(**base)

    def test_identical_records_match(self):
        from repro.core.compare import compare_results

        report = compare_results(self._make(), self._make())
        assert report.matches
        assert report.num_compared == 2
        assert "MATCH" in report.format()

    def test_within_tolerance_matches(self):
        from repro.core.compare import compare_results

        new = self._make(derived={"exponent": 1.05, "floor": 10.0})
        assert compare_results(self._make(), new, rtol=0.25).matches

    def test_outside_tolerance_reported(self):
        from repro.core.compare import compare_results

        new = self._make(derived={"exponent": 3.0, "floor": 10.0})
        report = compare_results(self._make(), new, rtol=0.25)
        assert not report.matches
        assert any("exponent" in d for d in report.metric_diffs)

    def test_parameter_change_reported(self):
        from repro.core.compare import compare_results

        new = self._make(params={"n": 200, "seed": 1})
        report = compare_results(self._make(), new)
        assert not report.matches
        assert any("n:" in d for d in report.parameter_diffs)

    def test_missing_metric_reported(self):
        from repro.core.compare import compare_results

        new = self._make(derived={"exponent": 0.95})
        report = compare_results(self._make(), new)
        assert "floor" in report.missing_metrics

    def test_different_experiments_rejected(self):
        from repro.core.compare import compare_results
        from repro.errors import ExperimentError

        other = self._make(experiment_id="E2")
        with pytest.raises(ExperimentError):
            compare_results(self._make(), other)

    def test_negative_rtol_rejected(self):
        from repro.core.compare import compare_results
        from repro.errors import ExperimentError

        with pytest.raises(ExperimentError):
            compare_results(self._make(), self._make(), rtol=-0.1)

    def test_zero_metrics_compare_clean(self):
        from repro.core.compare import compare_results

        a = self._make(derived={"x": 0.0})
        b = self._make(derived={"x": 0.0})
        assert compare_results(a, b).matches


class TestStartRules:
    def test_start_rules_accepted(self):
        from repro.core.families import MoriFamily
        from repro.core.searchability import (
            constant_factory,
            measure_search_cost,
        )
        from repro.search.algorithms import FloodingSearch

        family = MoriFamily()
        factories = {"f": constant_factory(FloodingSearch())}
        for rule in ("default", "random", "newest-other"):
            cell = measure_search_cost(
                family, 60, factories, num_graphs=2,
                runs_per_graph=1, seed=0, start_rule=rule,
            )
            assert cell.summaries["f"].success_rate == 1.0

    def test_unknown_start_rule_rejected(self):
        from repro.core.families import MoriFamily
        from repro.core.searchability import (
            constant_factory,
            measure_search_cost,
        )
        from repro.search.algorithms import FloodingSearch

        with pytest.raises(ExperimentError):
            measure_search_cost(
                MoriFamily(),
                60,
                {"f": constant_factory(FloodingSearch())},
                start_rule="teleport",
            )

    def test_random_start_never_equals_target(self):
        from repro.core.families import MoriFamily, theorem_target_for_size
        from repro.core.searchability import (
            constant_factory,
            measure_search_cost,
        )
        from repro.search.algorithms import FloodingSearch

        family = MoriFamily()
        cell = measure_search_cost(
            family,
            50,
            {"f": constant_factory(FloodingSearch())},
            num_graphs=5,
            runs_per_graph=1,
            seed=3,
            start_rule="random",
        )
        target = theorem_target_for_size(50)
        for result in cell.results["f"]:
            assert result.start != target


class TestBenchRecording:
    def test_record_result_writes_both_artifacts(self, tmp_path, capsys):
        """The bench helper persists JSON + text and prints the table."""
        import importlib.util
        import os
        import sys

        spec = importlib.util.spec_from_file_location(
            "bench_utils_under_test",
            os.path.join(
                os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                "benchmarks",
                "bench_utils.py",
            ),
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        module.RESULTS_DIR = str(tmp_path)

        from repro.core.results import ExperimentResult, load_result

        result = ExperimentResult(
            experiment_id="E99", title="probe", derived={"x": 1.0}
        )
        returned = module.record_result(result)
        assert returned is result
        assert load_result(tmp_path / "e99.json").derived == {"x": 1.0}
        assert "probe" in (tmp_path / "e99.txt").read_text()
        assert "E99" in capsys.readouterr().out
