"""The fastest-available search engine and graph generator.

Experiments do not choose an engine or a generator: the trial
functions resolve ``None`` to the numpy arms (``ensemble``/
``vectorized``) when numpy imports and to the stdlib ``serial`` arms
otherwise.  The serial arms stay as the reference: this module checks
that

* every experiment that grows or searches graphs gives byte-identical
  records at the default and on the reference arms (the
  ``reference_arms`` fixture; the slow arms as a differential oracle);
* without numpy the default resolves to serial and runs cleanly;
* the cache-key policy: no engine or generator ever enters trial
  params, so a record replays whichever arms computed it.
"""

from __future__ import annotations

import json

import pytest

import repro.core.registry as registry_module
import repro.core.searchability as searchability_module
import repro.core.trials as trials_module
import repro.graphs.fastgen as fastgen_module
import repro.search.ensemble as ensemble_module
from repro.cli import QUICK_OVERRIDES
from repro.core.families import MoriFamily
from repro.core.registry import run_experiment
from repro.core.trials import ENGINES, GENERATORS, fastest_available
from repro.graphs.frozen import HAVE_NUMPY

needs_numpy = pytest.mark.skipif(
    not HAVE_NUMPY, reason="the fast arms require numpy"
)

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


@needs_numpy
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
    @needs_numpy
    def test_default_is_the_numpy_arm(self):
        assert fastest_available(None, ENGINES) == "ensemble"
        assert fastest_available(None, GENERATORS) == "vectorized"

    @needs_numpy
    def test_default_run_reaches_the_numpy_arms(self, monkeypatch):
        calls = {"ensemble": 0, "vectorized": 0}

        def counting(module, name, arm):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[arm] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counting(ensemble_module, "run_ensemble", "ensemble")
        counting(fastgen_module, "require_fastgen_engine", "vectorized")
        run_experiment("E1", **QUICK_OVERRIDES["E1"])
        assert calls["ensemble"] > 0
        assert calls["vectorized"] > 0


class TestWithoutNumpy:
    """numpy import-blocked: the default falls back to serial."""

    @pytest.fixture(autouse=True)
    def _no_numpy(self, monkeypatch):
        monkeypatch.setattr(trials_module, "HAVE_NUMPY", False)
        # Were the default to pick a numpy arm anyway, these raise
        # EngineUnavailableError.
        monkeypatch.setattr(ensemble_module, "HAVE_NUMPY", False)
        monkeypatch.setattr(fastgen_module, "HAVE_FASTGEN", False)

    def test_default_resolves_to_serial(self):
        assert fastest_available(None, ENGINES) == "serial"
        assert fastest_available(None, GENERATORS) == "serial"

    @pytest.mark.parametrize("experiment_id", ["E1", "E17", "E21"])
    def test_default_run_is_serial_and_keyless(
        self, experiment_id, captured_specs
    ):
        result = run_experiment(
            experiment_id, **QUICK_OVERRIDES[experiment_id]
        )
        assert result.derived
        assert captured_specs
        for spec in captured_specs:
            assert "engine" not in spec.params
            assert "generator" not in spec.params


class TestCacheKeyPolicy:
    """No engine or generator in experiment trial params; an explicit
    choice at the trial level (``batched_specs``) still enters."""

    def test_build_cell_specs(self):
        from repro.core.searchability import _build_cell_specs

        (spec,) = _build_cell_specs(
            "E1", MoriFamily(p=0.5, m=1), 60, "weak", 1, 1, None,
            1, False, "default",
        )
        assert "engine" not in spec.params
        assert "generator" not in spec.params

    def test_batched_specs(self):
        from repro.runner import batched_specs

        cells = [{"algorithm": "random-walk", "run_index": 0}]
        (default,) = batched_specs("EX", "m:f", {}, cells, [0])
        assert "engine" not in default.params
        for engine in ENGINES:
            (explicit,) = batched_specs(
                "EX", "m:f", {}, cells, [0], engine=engine
            )
            assert explicit.params["engine"] == engine
            assert explicit.key() != default.key()

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
