"""Tests for the parallel trial-execution engine (`repro.runner`).

The properties that make the runner safe to put under every
experiment: parallel output is bit-identical to serial, per-trial seed
derivation never collides across a grid, results come back in spec
order regardless of completion order, and worker failures surface with
the failing spec attached.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.errors import ExperimentError
from repro.rng import make_rng, substream
from repro.runner import (
    MISS,
    TrialExecutionError,
    TrialSpec,
    TrialStore,
    resolve_trial,
    run_trials,
    trial_ref,
)


def draw_trial(*, rounds: int, seed: int = 0) -> dict:
    """A tiny pure trial: a few RNG draws, pure in (rounds, seed)."""
    rng = make_rng(seed)
    values = [rng.random() for _ in range(rounds)]
    return {"seed": seed, "first": values[0], "sum": sum(values)}


def slow_when_even_trial(*, index: int, seed: int = 0) -> int:
    """Finishes out of submission order under parallel execution."""
    import time

    if index % 2 == 0:
        time.sleep(0.05)
    return index * 1000 + seed


def failing_trial(*, threshold: int, seed: int = 0) -> int:
    if seed >= threshold:
        raise ValueError(f"seed {seed} over threshold {threshold}")
    return seed


def kill_self_trial(*, victim: int, seed: int = 0) -> int:
    """SIGKILLs its own worker process at ``seed == victim``.

    The innocent bystander at ``victim - 1`` sleeps long enough to
    still be in flight when the worker dies, so a naive executor
    (first poisoned future wins) attributes the death to it.
    """
    if seed == victim:
        os.kill(os.getpid(), signal.SIGKILL)
    if seed == victim - 1:
        time.sleep(0.5)
    return seed


def record_seed_trial(*, seed: int = 0) -> int:
    return seed


DRAW = trial_ref(draw_trial)


def _draw_specs(count: int, base_seed: int = 7) -> list:
    return [
        TrialSpec(
            experiment_id="T",
            trial=DRAW,
            params={"rounds": 5},
            seed=seed,
        )
        for seed in (substream(base_seed, i) for i in range(count))
    ]


class TestTrialRef:
    def test_roundtrip(self):
        assert resolve_trial(trial_ref(draw_trial)) is draw_trial

    def test_rejects_nested_functions(self):
        def nested(*, seed=0):
            return seed

        with pytest.raises(ExperimentError):
            trial_ref(nested)

    def test_rejects_malformed_reference(self):
        with pytest.raises(ExperimentError):
            resolve_trial("no-colon")
        with pytest.raises(ExperimentError):
            resolve_trial("nonexistent_module_xyz:fn")


class TestDeterminism:
    def test_parallel_matches_serial(self):
        specs = _draw_specs(8)
        serial = run_trials(specs, jobs=1)
        parallel = run_trials(specs, jobs=4)
        assert [r.value for r in serial] == [r.value for r in parallel]

    def test_results_in_spec_order_despite_completion_order(self):
        specs = [
            TrialSpec("T", trial_ref(slow_when_even_trial),
                      {"index": i}, seed=i)
            for i in range(6)
        ]
        outcomes = run_trials(specs, jobs=3)
        assert [o.value for o in outcomes] == [
            i * 1000 + i for i in range(6)
        ]

    def test_repeated_invocations_identical(self):
        specs = _draw_specs(4)
        first = run_trials(specs, jobs=2)
        second = run_trials(specs, jobs=2)
        assert [r.value for r in first] == [r.value for r in second]


class TestSeedDerivation:
    def test_substreams_never_collide(self):
        seeds = [substream(1, i) for i in range(20_000)]
        assert len(set(seeds)) == len(seeds)

    def test_grid_substreams_never_collide(self):
        # The experiment pattern: substream(substream(seed, i), j)
        # across a (sizes x graphs) grid, for several base seeds.
        derived = [
            substream(substream(base, i), j)
            for base in range(1, 19)
            for i in range(32)
            for j in range(32)
        ]
        assert len(set(derived)) == len(derived)

    def test_sibling_experiments_get_distinct_seeds(self):
        a = {substream(1, i) for i in range(1000)}
        b = {substream(2, i) for i in range(1000)}
        assert not (a & b)


class TestFailures:
    def _failing_specs(self):
        reference = trial_ref(failing_trial)
        return [
            TrialSpec("T", reference, {"threshold": 2}, seed=seed)
            for seed in range(4)
        ]

    def test_serial_failure_carries_spec(self):
        with pytest.raises(TrialExecutionError) as info:
            run_trials(self._failing_specs(), jobs=1)
        assert info.value.spec.seed == 2
        assert info.value.spec.params["threshold"] == 2
        assert "ValueError" in str(info.value)

    def test_parallel_failure_carries_spec(self):
        with pytest.raises(TrialExecutionError) as info:
            run_trials(self._failing_specs(), jobs=2)
        assert info.value.spec.seed >= 2
        assert info.value.spec.trial == trial_ref(failing_trial)

    def test_rejects_nonpositive_jobs(self):
        with pytest.raises(ExperimentError):
            run_trials(_draw_specs(2), jobs=0)


class TestWriteBackOnFailure:
    """Regression: a failure must not discard finished trials.

    ``store.put`` used to run only after the whole batch returned, so
    one bad trial threw away every completed miss and the post-fix
    re-run recomputed all of them.
    """

    def _specs(self, threshold: int, count: int):
        reference = trial_ref(failing_trial)
        return [
            TrialSpec("T", reference, {"threshold": threshold},
                      seed=seed)
            for seed in range(count)
        ]

    def test_serial_failure_keeps_completed_prefix(self, tmp_path):
        store = TrialStore(tmp_path)
        specs = self._specs(threshold=3, count=5)
        with pytest.raises(TrialExecutionError):
            run_trials(specs, jobs=1, store=store)
        # Trials 0..2 completed before trial 3 raised; they must be
        # on disk already.
        for spec in specs[:3]:
            assert store.get(spec) is not MISS
        rerun = run_trials(specs[:3], jobs=1, store=store)
        assert all(result.from_cache for result in rerun)
        assert [result.value for result in rerun] == [0, 1, 2]

    def test_parallel_failure_keeps_completed_work(self, tmp_path):
        store = TrialStore(tmp_path)
        specs = self._specs(threshold=6, count=8)
        with pytest.raises(TrialExecutionError):
            run_trials(specs, jobs=2, store=store)
        # Completion order is nondeterministic under the pool, but the
        # passing trials vastly outnumber the failing ones and at
        # least one must have finished before the raise propagated.
        written = [
            spec for spec in specs[:6] if store.get(spec) is not MISS
        ]
        assert written, "no completed trial was written back"
        rerun = run_trials(written, jobs=1, store=store)
        assert all(result.from_cache for result in rerun)


class TestWorkerDeathAttribution:
    """Regression: a dead worker must be pinned to the right spec.

    ``BrokenProcessPool`` poisons every in-flight future identically,
    and the first poisoned future is usually an innocent bystander
    (the test pins that: the innocent sleeps, so it is in flight when
    the killer dies and *its* future fails first).
    """

    def test_worker_death_names_the_killer(self):
        reference = trial_ref(kill_self_trial)
        specs = [
            TrialSpec("T", reference, {"victim": 5}, seed=seed)
            for seed in range(6)
        ]
        with pytest.raises(TrialExecutionError) as info:
            run_trials(specs, jobs=2)
        assert info.value.spec.seed == 5
        assert "worker process died" in str(info.value)

    def test_innocent_suspects_are_completed_by_probe(self, tmp_path):
        store = TrialStore(tmp_path)
        reference = trial_ref(kill_self_trial)
        specs = [
            TrialSpec("T", reference, {"victim": 5}, seed=seed)
            for seed in range(6)
        ]
        with pytest.raises(TrialExecutionError) as info:
            run_trials(specs, jobs=2, store=store)
        assert info.value.spec.seed == 5
        # The sleeping innocent (seed 4) was in flight when the worker
        # died; the isolated probe completed it and wrote it back.
        assert store.get(specs[4]) == 4


class _RecordingPool:
    """ThreadPool-backed stand-in that records the in-flight watermark.

    Threads keep ``os.kill``-free trials honest while letting the test
    observe submissions without pickling anything.
    """

    max_observed = 0

    def __init__(self, max_workers=None, mp_context=None,
                 initializer=None, initargs=()):
        from concurrent.futures import ThreadPoolExecutor

        type(self).max_observed = 0
        self._outstanding = 0
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers,
            initializer=initializer,
            initargs=initargs,
        )

    def submit(self, fn, *args):
        self._outstanding += 1
        type(self).max_observed = max(
            type(self).max_observed, self._outstanding
        )

        def tracked():
            try:
                return fn(*args)
            finally:
                self._outstanding -= 1

        return self._pool.submit(tracked)

    def shutdown(self, wait=True):
        self._pool.shutdown(wait=wait)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.shutdown()
        return False


class TestBoundedSubmission:
    """Submission is windowed; the window never changes any value."""

    def test_window_caps_in_flight_submissions(self, monkeypatch):
        import repro.runner.executor as executor_module

        monkeypatch.setattr(
            executor_module, "ProcessPoolExecutor", _RecordingPool
        )
        specs = _draw_specs(20)
        results = run_trials(specs, jobs=2, max_inflight=3)
        assert _RecordingPool.max_observed <= 3
        serial = run_trials(specs, jobs=1)
        assert [r.value for r in results] == [r.value for r in serial]

    def test_default_window_scales_with_workers(self, monkeypatch):
        import repro.runner.executor as executor_module

        monkeypatch.setattr(
            executor_module, "ProcessPoolExecutor", _RecordingPool
        )
        specs = _draw_specs(40)
        run_trials(specs, jobs=2)
        assert _RecordingPool.max_observed <= 8  # 4 per worker

    def test_windowed_output_bit_identical_with_processes(self):
        specs = _draw_specs(12)
        serial = run_trials(specs, jobs=1)
        windowed = run_trials(specs, jobs=3, max_inflight=2)
        assert [r.value for r in windowed] == [r.value for r in serial]

    def test_rejects_nonpositive_window(self):
        with pytest.raises(ExperimentError):
            run_trials(_draw_specs(2), jobs=2, max_inflight=0)


class TestSearchCostTrialEquivalence:
    """The runner path reproduces the legacy in-process loop exactly."""

    def test_named_portfolio_matches_factory_dict(self):
        from repro.core.families import MoriFamily
        from repro.core.searchability import measure_search_cost
        from repro.core.trials import portfolio_factories

        family = MoriFamily(p=0.5, m=1)
        legacy = measure_search_cost(
            family, 60, portfolio_factories("high-degree"),
            num_graphs=2, runs_per_graph=2, seed=5,
        )
        runner = measure_search_cost(
            family, 60, "high-degree",
            num_graphs=2, runs_per_graph=2, seed=5,
        )
        assert legacy.results == runner.results
        assert legacy.summaries == runner.summaries

    def test_scaling_validates_on_runner_path(self):
        from repro.core.families import MoriFamily
        from repro.core.searchability import measure_scaling

        family = MoriFamily(p=0.5, m=1)
        with pytest.raises(ExperimentError, match="start_rule"):
            measure_scaling(
                family, (60, 120), "high-degree",
                num_graphs=2, runs_per_graph=1, seed=5,
                start_rule="typo",
            )
        with pytest.raises(ExperimentError, match="num_graphs"):
            measure_scaling(
                family, (60, 120), "high-degree",
                num_graphs=0, runs_per_graph=1, seed=5,
            )

    def test_trial_rejects_unknown_start_rule(self):
        from repro.core.trials import search_cost_graph_trial

        with pytest.raises(ExperimentError, match="start_rule"):
            search_cost_graph_trial(
                family={"model": "mori", "p": 0.5, "m": 1},
                size=40,
                portfolio="high-degree",
                runs_per_graph=1,
                start_rule="typo",
                seed=1,
            )

    def test_factory_dict_rejects_jobs(self):
        from repro.core.families import MoriFamily
        from repro.core.searchability import measure_search_cost
        from repro.core.trials import portfolio_factories

        with pytest.raises(ExperimentError):
            measure_search_cost(
                MoriFamily(p=0.5, m=1), 60,
                portfolio_factories("high-degree"),
                num_graphs=2, runs_per_graph=1, seed=5, jobs=2,
            )

    @pytest.mark.slow
    def test_scaling_sweep_parallel_matches_serial(self):
        from repro.core.families import MoriFamily
        from repro.core.searchability import measure_scaling

        family = MoriFamily(p=0.5, m=1)
        kwargs = dict(
            num_graphs=2, runs_per_graph=1, seed=5, experiment_id="T",
        )
        serial = measure_scaling(
            family, (60, 120), "weak-omniscient", jobs=1, **kwargs
        )
        parallel = measure_scaling(
            family, (60, 120), "weak-omniscient", jobs=4, **kwargs
        )
        for size in serial.sizes:
            assert (
                serial.cells[size].summaries
                == parallel.cells[size].summaries
            )
            assert (
                serial.cells[size].results
                == parallel.cells[size].results
            )
