"""The fastest-available default for the engine and generator axes.

``engine`` and ``generator`` default to ``None``: the trial functions
resolve it to the numpy arms (``ensemble``/``vectorized``) when numpy
imports and to the stdlib ``serial`` arms otherwise.  The serial arms
stay as the reference: this module checks that

* every experiment declaring either axis gives byte-identical records
  at the default and pinned to ``engine="serial", generator="serial"``
  (the slow arms as a differential oracle);
* without numpy the default resolves to serial and runs cleanly;
* the cache-key policy: ``None`` never enters trial params, so default
  runs keep their earlier keys, while any explicit choice enters.
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
from repro.core.registry import REGISTRY, run_experiment
from repro.core.trials import ENGINES, GENERATORS, fastest_available
from repro.graphs.frozen import HAVE_NUMPY

needs_numpy = pytest.mark.skipif(
    not HAVE_NUMPY, reason="the fast arms require numpy"
)

#: Every registry id that declares the engine or generator axis.
AXIS_IDS = [
    spec.id
    for spec in REGISTRY.specs()
    if {"engine", "generator"} & set(spec.capabilities)
]


def _canonical(result) -> str:
    return json.dumps(
        result.to_dict(), sort_keys=True, separators=(",", ":")
    )


def _serial_pins(experiment_id: str):
    capabilities = REGISTRY.get(experiment_id).capabilities
    pins = {}
    if "engine" in capabilities:
        pins["engine"] = "serial"
    if "generator" in capabilities:
        pins["generator"] = "serial"
    return pins


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
@pytest.mark.parametrize("experiment_id", AXIS_IDS)
def test_default_run_equals_serial_reference(experiment_id):
    """The slow arms as a differential oracle for the default."""
    overrides = QUICK_OVERRIDES[experiment_id]
    default = run_experiment(experiment_id, **overrides)
    reference = run_experiment(
        experiment_id, **overrides, **_serial_pins(experiment_id)
    )
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
    """``None`` stays out of trial params; explicit choices enter."""

    def test_build_cell_specs(self):
        from repro.core.searchability import _build_cell_specs

        def params(engine, generator):
            (spec,) = _build_cell_specs(
                "E1", MoriFamily(p=0.5, m=1), 60, "weak", 1, 1, None,
                1, False, "default", "frozen", engine, generator,
            )
            return spec.params

        default = params(None, None)
        assert "engine" not in default and "generator" not in default
        for engine, generator in (
            ("serial", "serial"), ("ensemble", "vectorized")
        ):
            explicit = params(engine, generator)
            assert explicit["engine"] == engine
            assert explicit["generator"] == generator

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
    def test_experiment_specs(self, mode, captured_specs):
        overrides = dict(QUICK_OVERRIDES["E18"], mode=mode)
        run_experiment("E18", **overrides)
        default_specs = list(captured_specs)
        del captured_specs[:]
        run_experiment(
            "E18", **overrides, engine="serial", generator="serial"
        )
        assert default_specs and len(captured_specs) == len(
            default_specs
        )
        for default, explicit in zip(default_specs, captured_specs):
            assert "engine" not in default.params
            assert "generator" not in default.params
            assert explicit.params["engine"] == "serial"
            assert explicit.params["generator"] == "serial"
            stripped = {
                k: v
                for k, v in explicit.params.items()
                if k not in ("engine", "generator")
            }
            assert stripped == default.params
