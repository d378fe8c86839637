"""Ensemble-vs-serial equivalence battery for the walker kernel.

The vectorized ensemble engine (:mod:`repro.search.ensemble`) claims
*bit-identical* equivalence to the serial oracle path: per-run request
counts, success flags, result extras, and the oracle request journal
itself.  This battery pins that claim for every walk-family algorithm
across all five graph models and both graph backends, plus:

* the trial layer's engine choice (grouped ensemble dispatch and the
  serial fallback for non-walk algorithms give the same cell values as
  the ``reference_arms`` fixture's serial engine);
* the serial reference arm never reaches the kernel;
* golden pins of :func:`repro.rng.run_substream` — the one derivation
  both paths draw their per-run seeds from — including the first-draw
  traces of the generators it seeds.
"""

from __future__ import annotations

import pytest

from repro.core.families import (
    BarabasiAlbertFamily,
    CooperFriezeFamily,
    MoriFamily,
)
from repro.core.trials import batched_search_trial, search_cost_graph_trial
from repro.errors import ExperimentError, InvalidParameterError
from repro.graphs import freeze
from repro.graphs.base import MultiGraph
from repro.graphs.configuration import power_law_configuration_graph
from repro.graphs.kleinberg import kleinberg_grid
from repro.rng import make_rng, run_substream, substream
from repro.search.algorithms import (
    DegreeBiasedWalkSearch,
    FloodingSearch,
    RandomWalkSearch,
    RestartingWalkSearch,
    SelfAvoidingWalkSearch,
)
from repro.search.ensemble import (
    ENSEMBLE_ALGORITHMS,
    ensemble_supported,
    run_ensemble,
)
from repro.search.oracle import StrongOracle, WeakOracle
from repro.search.process import run_search


def model_graph(model: str, seed: int) -> MultiGraph:
    """One modest instance of each model the paper touches."""
    if model == "mori":
        return MoriFamily(p=0.5, m=2).build(150, seed=seed)
    if model == "cooper-frieze":
        return CooperFriezeFamily().build(120, seed=seed)
    if model == "ba":
        return BarabasiAlbertFamily(m=2).build(150, seed=seed)
    if model == "config":
        # Unrestricted configuration graph: disconnected, with loops
        # and parallel edges — the adversarial case for the kernel.
        return power_law_configuration_graph(150, 2.5, seed=seed)
    if model == "kleinberg":
        return kleinberg_grid(10, r=2.0, q=1, seed=seed).graph
    raise AssertionError(model)


MODELS = ("mori", "cooper-frieze", "ba", "config", "kleinberg")

#: Fresh walk-family instances, every ensemble-capable shape.
WALK_BUILDERS = (
    RandomWalkSearch,
    SelfAvoidingWalkSearch,
    lambda: RestartingWalkSearch(restart_prob=0.1),
    lambda: DegreeBiasedWalkSearch(beta=0.0),
    lambda: DegreeBiasedWalkSearch(beta=1.0),
)


class TracingWeakOracle(WeakOracle):
    """Weak oracle that journals every (request, answer) pair."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.trace = []

    def request(self, u, eid):
        answer = super().request(u, eid)
        self.trace.append(("weak", u, eid, answer))
        return answer


class TracingStrongOracle(StrongOracle):
    """Strong oracle that journals every (request, answer) pair."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.trace = []

    def request(self, u):
        answer = super().request(u)
        self.trace.append(("strong", u, answer))
        return answer


def serial_traced(
    algorithm, graph, start, target, budget, seed, neighbor_success=False
):
    """One serial run through a tracing oracle: (result, trace)."""
    oracle_cls = (
        TracingWeakOracle
        if algorithm.model == "weak"
        else TracingStrongOracle
    )
    oracle = oracle_cls(
        graph, start, target, neighbor_success=neighbor_success
    )
    result = algorithm.run(oracle, make_rng(seed), budget)
    return result, oracle.trace


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize(
    "builder", WALK_BUILDERS, ids=lambda b: b().name
)
class TestEnsembleEquivalence:
    """Costs, flags, extras, and traces identical, run for run."""

    def test_bit_identical_on_both_backends(self, model, builder):
        graph = model_graph(model, seed=3)
        target = graph.num_vertices
        budget = 2 * graph.num_edges + 17
        algorithm = builder()
        seeds = [
            run_substream(31, algorithm.name, run) for run in range(6)
        ]
        expected = [
            serial_traced(builder(), graph, 1, target, budget, s)
            for s in seeds
        ]
        for backend in (graph, freeze(graph)):
            results, traces = run_ensemble(
                builder(),
                backend,
                1,
                target,
                seeds,
                budget=budget,
                collect_traces=True,
            )
            for run, (serial_result, serial_trace) in enumerate(
                expected
            ):
                assert results[run] == serial_result
                assert traces[run] == serial_trace

    def test_truncating_budgets_identical(self, model, builder):
        graph = model_graph(model, seed=7)
        target = graph.num_vertices
        algorithm = builder()
        seeds = [
            run_substream(5, algorithm.name, run) for run in range(3)
        ]
        for budget in (0, 1, 5):
            results = run_ensemble(
                builder(), graph, 1, target, seeds, budget=budget
            )
            for run, seed in enumerate(seeds):
                serial = run_search(
                    builder(), graph, 1, target,
                    budget=budget, seed=seed,
                )
                assert results[run] == serial
                assert results[run].requests <= budget


class TestEnsembleSpecialCases:
    def test_neighbor_success_zone_identical(self):
        graph = model_graph("mori", seed=11)
        target = graph.num_vertices
        budget = graph.num_edges
        for builder in WALK_BUILDERS:
            algorithm = builder()
            seeds = [
                run_substream(13, algorithm.name, run)
                for run in range(4)
            ]
            results, traces = run_ensemble(
                builder(), graph, 1, target, seeds,
                budget=budget, neighbor_success=True,
                collect_traces=True,
            )
            for run, seed in enumerate(seeds):
                serial_result, serial_trace = serial_traced(
                    builder(), graph, 1, target, budget, seed,
                    neighbor_success=True,
                )
                assert results[run] == serial_result
                assert traces[run] == serial_trace

    def test_isolated_start_identical(self):
        # Vertex 3 has no edges at all: walks must stop cleanly.
        graph = MultiGraph(3)
        graph.add_edge(2, 1)
        for builder in WALK_BUILDERS:
            algorithm = builder()
            seeds = [
                run_substream(3, algorithm.name, run)
                for run in range(4)
            ]
            results = run_ensemble(
                builder(), graph, 3, 1, seeds, budget=9
            )
            for run, seed in enumerate(seeds):
                serial = run_search(
                    builder(), graph, 3, 1, budget=9, seed=seed
                )
                assert results[run] == serial

    def test_loops_and_parallel_edges_identical(self):
        graph = MultiGraph(3)
        graph.add_edge(1, 1)
        graph.add_edge(2, 1)
        graph.add_edge(2, 1)
        graph.add_edge(2, 2)
        graph.add_edge(3, 2)
        for builder in WALK_BUILDERS:
            algorithm = builder()
            seeds = [
                run_substream(17, algorithm.name, run)
                for run in range(8)
            ]
            results, traces = run_ensemble(
                builder(), graph, 1, 3, seeds, budget=40,
                collect_traces=True,
            )
            for run, seed in enumerate(seeds):
                serial_result, serial_trace = serial_traced(
                    builder(), graph, 1, 3, 40, seed
                )
                assert results[run] == serial_result
                assert traces[run] == serial_trace

    @pytest.mark.parametrize("model", MODELS)
    def test_wide_ensemble_lock_step_identical(self, model):
        # More runs than the scalar cutover: the lock-step phase, its
        # hand-off of the stragglers to the scalar path, and the
        # traces of both.
        graph = model_graph(model, seed=5)
        target = graph.num_vertices
        budget = 2 * graph.num_edges + 17
        for builder in (
            RandomWalkSearch,
            lambda: RestartingWalkSearch(restart_prob=0.1),
        ):
            algorithm = builder()
            seeds = [
                run_substream(41, algorithm.name, run)
                for run in range(24)
            ]
            results, traces = run_ensemble(
                builder(), graph, 1, target, seeds,
                budget=budget, collect_traces=True,
            )
            for run, seed in enumerate(seeds):
                assert (results[run], traces[run]) == serial_traced(
                    builder(), graph, 1, target, budget, seed
                )

    def test_long_narrow_walk_switches_views_invisibly(self):
        # One run walking more hops than the graph has vertices moves
        # its CSR views from memoryviews to lists mid-run.
        graph = model_graph("mori", seed=2)
        target = graph.num_vertices
        budget = 4 * graph.num_edges + 16
        for builder in (RandomWalkSearch, SelfAvoidingWalkSearch):
            seeds = [run_substream(43, builder().name, 0)]
            results, traces = run_ensemble(
                builder(), graph, 1, target, seeds,
                budget=budget, collect_traces=True,
            )
            assert results[0].extra["hops"] > graph.num_vertices
            assert (results[0], traces[0]) == serial_traced(
                builder(), graph, 1, target, budget, seeds[0]
            )

    def test_empty_ensemble_is_empty(self):
        graph = model_graph("mori", seed=1)
        assert run_ensemble(
            RandomWalkSearch(), graph, 1, 5, [], budget=3
        ) == []

    def test_unsupported_algorithm_rejected(self):
        graph = model_graph("mori", seed=1)
        with pytest.raises(InvalidParameterError, match="no ensemble"):
            run_ensemble(FloodingSearch(), graph, 1, 5, [0], budget=3)

    def test_subclass_not_supported(self):
        class TweakedWalk(RandomWalkSearch):
            pass

        assert not ensemble_supported(TweakedWalk())
        assert all(
            ensemble_supported(builder()) for builder in WALK_BUILDERS
        )
        assert len(ENSEMBLE_ALGORITHMS) == 4


class TestEngineTrialAxis:
    """The default (ensemble) engine through the trial layer equals
    the serial reference arms: same values."""

    FAMILY = {"model": "mori", "p": 0.5, "m": 2}

    def test_batched_search_trial_engine_equality(self, reference_arms):
        # A batch mixing walk cells (ensemble kernel) with non-walk
        # cells (serial fallback) and explicit overrides.
        cells = [
            {"algorithm": "random-walk", "run_index": 1},
            {"algorithm": "flooding", "run_index": 0},
            {"algorithm": "self-avoiding-walk", "run_index": 0},
            {"algorithm": "random-walk", "run_index": 0, "start": 7},
            {"algorithm": "restart-walk-0.1", "run_index": 2},
            {"algorithm": "high-degree", "run_index": 0},
        ]
        kwargs = dict(
            family=self.FAMILY,
            size=120,
            portfolio="weak",
            cells=cells,
            seed=23,
        )
        ensemble = batched_search_trial(**kwargs)
        with reference_arms():
            serial = batched_search_trial(**kwargs)
        assert ensemble == serial

    @pytest.mark.parametrize("portfolio", ("weak", "strong"))
    def test_search_cost_graph_trial_engine_equality(
        self, portfolio, reference_arms
    ):
        kwargs = dict(
            family=self.FAMILY,
            size=100,
            portfolio=portfolio,
            runs_per_graph=3,
            seed=29,
        )
        ensemble = search_cost_graph_trial(**kwargs)
        with reference_arms():
            serial = search_cost_graph_trial(**kwargs)
        assert ensemble == serial

    def test_trajectory_trial_engine_equality(self, reference_arms):
        from repro.core.trials import trajectory_scaling_trial

        kwargs = dict(
            family={"model": "mori", "p": 0.5, "m": 1},
            sizes=[60, 100],
            portfolio="weak",
            runs_per_graph=2,
            seed=31,
        )
        ensemble = trajectory_scaling_trial(**kwargs)
        with reference_arms():
            serial = trajectory_scaling_trial(**kwargs)
        assert ensemble == serial


class TestEngineValidation:
    def test_unknown_engine_rejected(self):
        from repro.core.trials import ENGINES, fastest_available

        with pytest.raises(ExperimentError, match="serial, ensemble"):
            fastest_available("warp", ENGINES)

    def test_serial_engine_never_reaches_the_kernel(
        self, monkeypatch, reference_arms
    ):
        import repro.search.ensemble as ensemble_module

        def kernel(*args, **kwargs):
            raise AssertionError("the serial engine ran the ensemble kernel")

        monkeypatch.setattr(ensemble_module, "run_ensemble", kernel)
        with reference_arms():
            values = batched_search_trial(
                family={"model": "mori", "p": 0.5, "m": 1},
                size=40,
                portfolio="weak",
                cells=[{"algorithm": "random-walk"}],
                seed=1,
            )
        assert len(values) == 1
        assert values[0]["algorithm"] == "random-walk"


class TestRunSubstreamGolden:
    """Golden pins of the one per-run seed derivation.

    These values were produced by the pre-ensemble serial formula
    ``substream(seed, (crc32(name) << 16) ^ run_index)``; they must
    never change, or every cached trial and published number drifts.
    """

    GOLDEN = {
        (0, "random-walk", 0): 3377021487772509732,
        (0, "random-walk", 1): 352815842856230813,
        (97, "self-avoiding-walk", 5): 7399835566238392520,
        (1234, "restart-walk-r0.1", 7): 3677803635822176180,
        (42, "biased-walk-b1", 0): 17998675025207313459,
    }

    def test_golden_values(self):
        for (seed, name, run), expected in self.GOLDEN.items():
            assert run_substream(seed, name, run) == expected

    def test_matches_legacy_inline_formula(self):
        import zlib

        for seed in (0, 7, 2**63):
            for name in ("random-walk", "flooding"):
                for run in (0, 1, 13, 65535):
                    code = zlib.crc32(name.encode("utf-8"))
                    assert run_substream(seed, name, run) == substream(
                        seed, (code << 16) ^ run
                    )

    def test_distinct_across_runs_and_names(self):
        seeds = {
            run_substream(3, name, run)
            for name in ("random-walk", "self-avoiding-walk")
            for run in range(64)
        }
        assert len(seeds) == 128

    def test_out_of_field_run_index_rejected(self):
        with pytest.raises(ValueError, match="16-bit"):
            run_substream(0, "random-walk", 1 << 16)
        with pytest.raises(ValueError, match="16-bit"):
            run_substream(0, "random-walk", -1)

    def test_golden_draw_trace(self):
        """First draws of an ensemble run seed, pinned forever."""
        rng = make_rng(run_substream(42, "random-walk", 3))
        assert [rng.randrange(d) for d in (7, 7, 3, 100, 2)] == [
            1, 3, 1, 68, 1,
        ]
        rng = make_rng(run_substream(42, "random-walk", 3))
        assert [rng.random() for _ in range(3)] == [
            0.9266951468051364,
            0.4377196728748688,
            0.3318692634372482,
        ]
