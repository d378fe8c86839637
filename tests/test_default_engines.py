"""The fastest-available search engine and graph generator.

Experiments do not choose an engine or a generator: the trial
functions resolve ``None`` to the numpy arms (``ensemble``/
``vectorized``).  The ``serial`` arms stay as the reference, reached
only through the ``reference_arms`` fixture: this module checks that

* every experiment that grows or searches graphs gives byte-identical
  records at the default and on the reference arms (the
  ``reference_arms`` fixture; the slow arms as a differential oracle);
* a default run on the reference arms is keyless, like one on the fast
  arms;
* the cache-key policy: no engine or generator ever enters trial
  params, so a record replays whichever arms computed it.
"""

from __future__ import annotations

import inspect
import json

import pytest

import repro.core.registry as registry_module
import repro.core.searchability as searchability_module
import repro.graphs.fastgen as fastgen_module
import repro.search.ensemble as ensemble_module
from repro.cli import QUICK_OVERRIDES
from repro.core.families import (
    BarabasiAlbertFamily,
    ConfigurationFamily,
    CooperFriezeFamily,
    MoriFamily,
)
from repro.core.registry import run_experiment
from repro.core.trials import (
    ENGINES,
    GENERATORS,
    build_family,
    build_graph_snapshot,
    family_spec,
    fastest_available,
)
from repro.graphs.cooper_frieze import CooperFriezeParams

#: The experiments whose trials grow or search graphs through the
#: engine and generator arms (the ids that once declared either axis).
ARM_IDS = [
    "E1", "E2", "E3", "E7", "E9", "E11", "E13", "E14", "E17", "E18",
    "E19", "E20", "E21", "E22",
]


def _canonical(result) -> str:
    return json.dumps(
        result.to_dict(), sort_keys=True, separators=(",", ":")
    )


@pytest.fixture
def captured_specs(monkeypatch):
    """Every :class:`TrialSpec` an experiment dispatches, in order."""
    seen = []

    def capture(original):
        def run_trials(specs, *args, **kwargs):
            specs = list(specs)
            seen.extend(specs)
            return original(specs, *args, **kwargs)

        return run_trials

    for module in (registry_module, searchability_module):
        monkeypatch.setattr(
            module, "run_trials", capture(module.run_trials)
        )
    return seen


@pytest.mark.parametrize("experiment_id", ARM_IDS)
def test_default_run_equals_serial_reference(
    experiment_id, reference_arms
):
    """The slow arms as a differential oracle for the default."""
    overrides = QUICK_OVERRIDES[experiment_id]
    default = run_experiment(experiment_id, **overrides)
    with reference_arms():
        reference = run_experiment(experiment_id, **overrides)
    assert _canonical(default) == _canonical(reference)


class TestResolution:
    def test_default_is_the_numpy_arm(self):
        assert fastest_available(None, ENGINES) == "ensemble"
        assert fastest_available(None, GENERATORS) == "vectorized"

    @pytest.mark.parametrize("axis", [ENGINES, GENERATORS])
    def test_default_is_the_fast_arm_unconditionally(self, axis):
        """``None`` is always the fast arm; the reference arm and
        every other explicit member resolve to themselves."""
        assert fastest_available(None, axis) == axis[1]
        for arm in axis:
            assert fastest_available(arm, axis) == arm

    def test_default_run_reaches_the_numpy_arms(self, monkeypatch):
        calls = {"ensemble": 0, "vectorized": 0}

        def counting(module, name, arm):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[arm] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counting(ensemble_module, "run_ensemble", "ensemble")
        counting(fastgen_module, "fast_merged_mori_frozen", "vectorized")
        run_experiment("E1", **QUICK_OVERRIDES["E1"])
        assert calls["ensemble"] > 0
        assert calls["vectorized"] > 0


class TestReferenceArms:
    """A default run on the reference arms stays serial and keyless."""

    @pytest.mark.parametrize("experiment_id", ["E1", "E17", "E21"])
    def test_default_run_is_serial_and_keyless(
        self, experiment_id, captured_specs, reference_arms, monkeypatch
    ):
        def fast_arm(*args, **kwargs):
            raise AssertionError("a fast arm ran on the reference arms")

        monkeypatch.setattr(ensemble_module, "run_ensemble", fast_arm)
        monkeypatch.setattr(
            fastgen_module, "frozen_from_pairs", fast_arm
        )
        with reference_arms():
            result = run_experiment(
                experiment_id, **QUICK_OVERRIDES[experiment_id]
            )
        assert result.derived
        assert captured_specs
        for spec in captured_specs:
            assert "engine" not in spec.params
            assert "generator" not in spec.params


class TestCacheKeyPolicy:
    """No engine or generator in experiment trial params."""

    def test_build_cell_specs(self):
        from repro.core.searchability import _build_cell_specs

        (spec,) = _build_cell_specs(
            "E1", MoriFamily(p=0.5, m=1), 60, "weak", 1, 1, None,
            1, False, "default",
        )
        assert "engine" not in spec.params
        assert "generator" not in spec.params

    @pytest.mark.parametrize("mode", ["independent", "trajectory"])
    def test_experiment_specs(self, mode, captured_specs, reference_arms):
        """The default and the reference arms dispatch the same keys,
        so one store serves both."""
        overrides = dict(QUICK_OVERRIDES["E18"], mode=mode)
        run_experiment("E18", **overrides)
        default_specs = list(captured_specs)
        del captured_specs[:]
        with reference_arms():
            run_experiment("E18", **overrides)
        assert default_specs
        assert [spec.key() for spec in captured_specs] == [
            spec.key() for spec in default_specs
        ]
        for spec in default_specs:
            assert "engine" not in spec.params
            assert "generator" not in spec.params


class TestOneRouteToTheReferenceArms:
    """The ``reference_arms`` patch is the only way to the serial
    arms: no trial and no service entry point takes a graph-form
    (``backend``) or search-engine (``engine``) keyword."""

    @pytest.mark.parametrize("name", [
        "search_cost_graph_trial",
        "batched_search_trial",
        "churn_search_trial",
        "churn_survival_trial",
        "trajectory_scaling_trial",
        "trajectory_slowdown_trial",
        "degree_fit_trial",
        "simulation_slowdown_trial",
        "build_graph_snapshot",
    ])
    def test_trials_take_no_arm_keyword(self, name):
        import repro.core.trials as trials

        parameters = inspect.signature(getattr(trials, name)).parameters
        assert "backend" not in parameters
        assert "engine" not in parameters

    def test_service_takes_no_engine_keyword(self):
        from repro.service import SearchService

        parameters = inspect.signature(SearchService).parameters
        assert "engine" not in parameters

    def test_service_batch_needs_the_daemons_engine(self):
        from repro.service.core import execute_service_batch

        engine = inspect.signature(execute_service_batch).parameters[
            "engine"
        ]
        assert engine.default is inspect.Parameter.empty


class TestE6Specimens:
    """E6's family specimens are built on the generator axis too."""

    #: E6's four family specimens (Kleinberg is not a family).
    SPECS = [
        family_spec(MoriFamily(p=0.5, m=2)),
        family_spec(CooperFriezeFamily(CooperFriezeParams(alpha=0.75))),
        family_spec(BarabasiAlbertFamily(m=2)),
        family_spec(ConfigurationFamily(exponent=2.5)),
    ]

    @pytest.mark.parametrize(
        "spec", SPECS, ids=[spec["model"] for spec in SPECS]
    )
    def test_degree_sequences_equal_on_reference_arms(
        self, spec, reference_arms
    ):
        default = build_graph_snapshot(build_family(spec), 1500, 61)
        with reference_arms():
            reference = build_graph_snapshot(
                build_family(spec), 1500, 61
            )
        assert (
            default.degree_sequence() == reference.degree_sequence()
        )

    def test_default_run_reaches_the_vectorized_generator(
        self, monkeypatch
    ):
        built = []
        for name in (
            "fast_merged_mori_frozen",
            "fast_cooper_frieze_frozen",
            "fast_barabasi_albert_frozen",
        ):
            original = getattr(fastgen_module, name)

            def wrapper(*args, _original=original, _name=name, **kwargs):
                built.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(fastgen_module, name, wrapper)
        run_experiment("E6", **QUICK_OVERRIDES["E6"])
        assert sorted(built) == [
            "fast_barabasi_albert_frozen",
            "fast_cooper_frieze_frozen",
            "fast_merged_mori_frozen",
        ]

    def test_default_run_equals_serial_reference(self, reference_arms):
        default = run_experiment("E6", **QUICK_OVERRIDES["E6"])
        with reference_arms():
            reference = run_experiment("E6", **QUICK_OVERRIDES["E6"])
        assert _canonical(default) == _canonical(reference)
