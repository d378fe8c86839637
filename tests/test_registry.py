"""The declarative experiment registry and its CLI surface.

Three layers are pinned here:

1. **Wrapper/spec parity** — every registered spec's declared params
   and capabilities must match its public ``e<n>_...`` wrapper
   signature exactly (names, order, defaults).  The wrappers are thin
   registry delegates kept for API stability; this test is what
   prevents the two views from drifting apart.
2. **Registry semantics** — capability declarations resolve to
   execution contexts, undeclared capabilities are rejected from the
   Python API, axis vocabularies are validated once.
3. **CLI derivation** — ``repro list`` prints the capability matrix,
   ``--set key=value`` coerces (and rejects) per the typed schema,
   capability warnings come from declarations, comma-separated ids
   and ``all`` enumerate the registry, and E20 runs end-to-end with
   no experiment-specific CLI code.
"""

from __future__ import annotations

import inspect

import pytest

from repro.cli import QUICK_OVERRIDES, format_listing, main
from repro.core.experiments import ALL_EXPERIMENTS
from repro.core.registry import (
    CAPABILITIES,
    CAPABILITY_PARAMS,
    ExecutionContext,
    ExperimentSpec,
    Param,
    REGISTRY,
    Registry,
    run_experiment,
    INT,
)
from repro.errors import ExperimentError
from repro.graphs.frozen import HAVE_NUMPY

needs_numpy = pytest.mark.skipif(
    not HAVE_NUMPY, reason="ensemble engine requires numpy"
)


class TestWrapperSpecParity:
    """The drift guard: spec schema == public wrapper signature."""

    @pytest.mark.parametrize("experiment_id", REGISTRY.ids())
    def test_signature_matches_declaration(self, experiment_id):
        spec = REGISTRY.get(experiment_id)
        wrapper = ALL_EXPERIMENTS[experiment_id]
        signature = inspect.signature(wrapper)
        expected = [param.name for param in spec.params] + [
            CAPABILITY_PARAMS[capability][0]
            for capability in spec.capabilities
        ]
        assert list(signature.parameters) == expected

    @pytest.mark.parametrize("experiment_id", REGISTRY.ids())
    def test_defaults_match_declaration(self, experiment_id):
        spec = REGISTRY.get(experiment_id)
        wrapper = ALL_EXPERIMENTS[experiment_id]
        signature = inspect.signature(wrapper)
        declared = {p.name: p.default for p in spec.params}
        declared.update(
            {
                CAPABILITY_PARAMS[capability][0]: default
                for capability, default in spec.capabilities.items()
            }
        )
        for name, parameter in signature.parameters.items():
            assert parameter.default == declared[name], (
                f"{experiment_id}.{name}: wrapper default "
                f"{parameter.default!r} != declared {declared[name]!r}"
            )

    @pytest.mark.parametrize("experiment_id", REGISTRY.ids())
    def test_capabilities_are_canonical(self, experiment_id):
        spec = REGISTRY.get(experiment_id)
        declared = tuple(spec.capabilities)
        assert set(declared) <= set(CAPABILITIES)
        # Canonical order: declaration order never leaks into the
        # wrapper parameter order.
        assert declared == tuple(
            c for c in CAPABILITIES if c in declared
        )

    @pytest.mark.parametrize("experiment_id", REGISTRY.ids())
    def test_quick_overrides_match_declared_params(self, experiment_id):
        spec = REGISTRY.get(experiment_id)
        assert set(QUICK_OVERRIDES[experiment_id]) <= set(
            spec.param_names
        )

    def test_wrapper_and_spec_run_identically(self):
        from repro.core.experiments import e10_equivalence_exact

        via_wrapper = e10_equivalence_exact(n=6, p_values=(0.5, 1.0))
        via_spec = REGISTRY.get("E10").run(
            {"n": 6, "p_values": (0.5, 1.0)}
        )
        assert via_wrapper.derived == via_spec.derived


class TestRegistrySemantics:
    def test_ids_are_e1_to_e22(self):
        assert REGISTRY.ids() == [f"E{i}" for i in range(1, 23)]

    def test_unknown_id_error_lists_registry(self):
        with pytest.raises(ExperimentError, match="E20"):
            REGISTRY.get("E99")

    def test_undeclared_capability_rejected_from_python_api(self):
        # E4 declares no capabilities at all.
        with pytest.raises(ExperimentError, match="jobs"):
            run_experiment("E4", jobs=4)

    def test_unknown_param_rejected(self):
        with pytest.raises(ExperimentError, match="bogus"):
            run_experiment("E10", bogus=1)

    def test_axis_vocabulary_validated_once(self):
        spec = REGISTRY.get("E17")
        with pytest.raises(ExperimentError, match="unknown mode"):
            spec.make_context(mode="coupled")
        spec = REGISTRY.get("E1")
        with pytest.raises(ExperimentError, match="unknown graph backend"):
            spec.make_context(backend="sparse")
        with pytest.raises(ExperimentError, match="unknown search engine"):
            spec.make_context(engine="gpu")

    def test_declared_defaults_reach_the_context(self):
        context = REGISTRY.get("E19").make_context()
        assert context.mode == "trajectory"
        assert context.experiment_id == "E19"
        assert context.jobs == 1
        assert context.store is None

    def test_cache_dir_resolves_to_a_store(self, tmp_path):
        context = REGISTRY.get("E1").make_context(
            cache_dir=str(tmp_path / "cache")
        )
        assert context.store is not None

    def test_registration_validates_body_signature(self):
        registry = Registry()
        with pytest.raises(ExperimentError, match="declares"):

            @registry.register(
                "EX",
                title="drifting body",
                params=(Param("n", INT, 1),),
            )
            def _body(ctx, *, wrong_name):  # pragma: no cover
                return None

    def test_registration_rejects_capability_name_clash(self):
        registry = Registry()
        with pytest.raises(ExperimentError, match="collide"):

            @registry.register(
                "EX",
                title="param shadows capability",
                params=(Param("jobs", INT, 1),),
            )
            def _body(ctx, *, jobs):  # pragma: no cover
                return None

    def test_context_defaults_match_capability_params(self):
        """The axis defaults are spelled in CAPABILITY_PARAMS *and* as
        ExecutionContext field defaults (undeclared capabilities fall
        back to the latter); this pins the two against drifting."""
        context = ExecutionContext()
        assert context.jobs == CAPABILITY_PARAMS["jobs"][1]
        assert context.store is CAPABILITY_PARAMS["cache"][1]
        assert context.backend == CAPABILITY_PARAMS["backend"][1]
        assert context.engine == CAPABILITY_PARAMS["engine"][1]
        assert context.mode == CAPABILITY_PARAMS["mode"][1]
        assert context.generator == CAPABILITY_PARAMS["generator"][1]
        assert context.store_backend is CAPABILITY_PARAMS["store"][1]
        # engine/generator default to None: "fastest available",
        # resolved inside the trial functions.
        assert CAPABILITY_PARAMS["engine"][1] is None
        assert CAPABILITY_PARAMS["generator"][1] is None
        assert context.engine is None and context.generator is None

    def test_trial_params_extra_policy(self):
        # Defaults (None engine/generator, frozen backend) stay out of
        # trial params (cache-key stability); any explicit engine or
        # generator enters, serial included, as a forced non-default
        # backend does.
        assert ExecutionContext().trial_params_extra() == {}
        assert ExecutionContext(
            backend="multigraph", engine="ensemble"
        ).trial_params_extra() == {
            "backend": "multigraph",
            "engine": "ensemble",
        }
        assert ExecutionContext(
            engine="serial", generator="serial"
        ).trial_params_extra() == {
            "engine": "serial",
            "generator": "serial",
        }


#: The registry's whole surface: every id in order, with the axes it
#: declares.  Adding or re-declaring an experiment changes this on
#: purpose, alongside the README index.
_SEARCH_AXES = ("jobs", "cache", "backend", "engine", "generator", "store")
EXPECTED_CAPABILITY_MATRIX = {
    "E1": _SEARCH_AXES,
    "E2": _SEARCH_AXES,
    "E3": _SEARCH_AXES,
    "E4": (),
    "E5": (),
    "E6": ("jobs", "cache", "backend", "store"),
    "E7": ("jobs", "cache", "backend", "engine", "store"),
    # E8 stays axis-free on purpose: greedy routing navigates by
    # lattice coordinates, not through the oracle machinery.
    "E8": (),
    "E9": _SEARCH_AXES,
    "E10": (),
    "E11": _SEARCH_AXES,
    "E12": ("backend",),
    "E13": _SEARCH_AXES,
    "E14": _SEARCH_AXES,
    "E15": (),
    "E16": (),
    "E17": ("jobs", "cache", "backend", "mode", "generator", "store"),
    "E18": (
        "jobs", "cache", "backend", "engine", "mode", "generator",
        "store",
    ),
    "E19": (
        "jobs", "cache", "backend", "engine", "mode", "generator",
        "store",
    ),
    "E20": _SEARCH_AXES,
    "E21": _SEARCH_AXES,
    "E22": ("jobs", "cache", "backend", "generator", "store"),
}


class TestAuditedAxes:
    """The audited capability surface (E9/E12/E18/E19 gained their
    missing axes), pinned whole: every id in order, every row."""

    def test_matrix_rows(self):
        assert REGISTRY.ids() == [f"E{index}" for index in range(1, 23)]
        assert REGISTRY.capability_matrix() == EXPECTED_CAPABILITY_MATRIX

    def test_e12_backend_invariant(self):
        from repro.core.experiments import e12_percolation

        kwargs = dict(
            n=400, replica_counts=(0, 8), num_queries=5, seed=12
        )
        frozen = e12_percolation(**kwargs)
        multigraph = e12_percolation(**kwargs, backend="multigraph")
        assert frozen.derived == multigraph.derived

    def test_e9_backend_invariant(self):
        from repro.core.experiments import e9_diameter_vs_search

        kwargs = dict(sizes=(100, 200), num_graphs=2, seed=9)
        frozen = e9_diameter_vs_search(**kwargs)
        multigraph = e9_diameter_vs_search(
            **kwargs, backend="multigraph"
        )
        assert frozen.derived == multigraph.derived

    @needs_numpy
    def test_e18_engine_invariant(self):
        from repro.core.experiments import e18_start_rule

        kwargs = dict(
            sizes=(60, 120), num_graphs=2, runs_per_graph=1, seed=18
        )
        serial = e18_start_rule(**kwargs)
        ensemble = e18_start_rule(**kwargs, engine="ensemble")
        assert serial.derived == ensemble.derived

    @needs_numpy
    def test_e19_engine_invariant(self):
        from repro.core.experiments import e19_trajectory_scaling

        kwargs = dict(
            sizes=(100, 200), num_graphs=2, runs_per_graph=1, seed=19
        )
        serial = e19_trajectory_scaling(**kwargs)
        ensemble = e19_trajectory_scaling(**kwargs, engine="ensemble")
        assert serial.derived == ensemble.derived


class TestE20:
    """The registry's extension proof: a pure-spec experiment."""

    QUICK = dict(
        sizes=(60, 120), num_graphs=2, runs_per_graph=1, seed=20
    )

    def test_shape(self):
        from repro.core.experiments import e20_cross_model

        result = e20_cross_model(**self.QUICK)
        assert result.experiment_id == "E20"
        families = (
            "mori(m=2,p=0.5)",
            "cooper-frieze(a=0.75)",
            "config(k=2.5)",
        )
        for portfolio in ("weak", "strong"):
            for family in families:
                assert (
                    f"cheapest_exponent/{portfolio}/{family}"
                    in result.derived
                )
                assert (
                    f"mean@largest/{portfolio}/{family}"
                    in result.derived
                )
        assert "min_exponent" in result.derived
        grid, fits = result.tables
        # 2 portfolios x 3 families x 2 sizes x portfolio width.
        assert len(grid.rows) == 2 * 3 * (8 + 3)
        assert len(fits.rows) == 3 * (8 + 3)

    def test_jobs_and_cache_compose(self, tmp_path, monkeypatch):
        from repro.core.experiments import e20_cross_model
        from repro.runner import TrialSpec

        cache = str(tmp_path / "cache")
        first = e20_cross_model(**self.QUICK, jobs=2, cache_dir=cache)
        serial = e20_cross_model(**self.QUICK)
        assert first.derived == serial.derived

        def exploding_execute(self):
            raise AssertionError("recomputed despite warm cache")

        monkeypatch.setattr(TrialSpec, "execute", exploding_execute)
        second = e20_cross_model(**self.QUICK, cache_dir=cache)
        assert second.derived == first.derived

    def test_backend_invariant(self):
        from repro.core.experiments import e20_cross_model

        frozen = e20_cross_model(**self.QUICK)
        multigraph = e20_cross_model(
            **self.QUICK, backend="multigraph"
        )
        assert frozen.derived == multigraph.derived

    @needs_numpy
    def test_engine_invariant(self):
        from repro.core.experiments import e20_cross_model

        serial = e20_cross_model(**self.QUICK)
        ensemble = e20_cross_model(**self.QUICK, engine="ensemble")
        assert serial.derived == ensemble.derived

    def test_cli_acceptance_flags(self, capsys, tmp_path):
        """The ISSUE acceptance shape, downsized: E20 through the real
        CLI with jobs/backend (and engine under numpy) — no
        experiment-specific CLI code exists for it."""
        argv = [
            "run", "E20", "--quick", "--jobs", "2",
            "--backend", "frozen",
            "--cache-dir", str(tmp_path / "cache"),
            "--store-backend", "sqlite",
        ]
        if HAVE_NUMPY:
            argv += ["--engine", "ensemble"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "warning:" not in captured.err
        assert "E20" in captured.out
        assert "store: 0 hits," in captured.out
        assert (tmp_path / "cache" / "trials.sqlite").exists()


class TestCLIListing:
    def test_list_prints_capability_matrix(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert len(lines) == 22
        assert any(
            line.split()[0] == "E1"
            and "jobs,cache,backend,engine" in line
            for line in lines
        )
        # Axis-free experiments show a dash, not an empty cell.
        assert any(
            line.strip().startswith("E4") and " - " in line
            for line in lines
        )
        assert any("E20" in line for line in lines)

    def test_markdown_listing_is_a_table(self):
        rendered = format_listing(markdown=True)
        lines = rendered.splitlines()
        assert lines[0] == "| id | experiment | parameters | capabilities |"
        assert lines[1] == "|---|---|---|---|"
        assert len(lines) == 2 + 22
        assert any(line.startswith("| `E20` |") for line in lines)
        assert any(line.startswith("| `E21` |") for line in lines)
        # Every declared capability cell uses canonical names.
        for line in lines[2:]:
            cell = line.rsplit("|", 2)[-2].strip()
            if cell != "—":
                assert set(cell.split(", ")) <= set(CAPABILITIES)


class TestCLISetOverrides:
    def test_typed_coercion_applies(self, capsys):
        assert main(
            ["run", "E10", "--set", "n=6", "--set", "p_values=0.5,1"]
        ) == 0
        out = capsys.readouterr().out
        assert "n=6" in out
        assert "p_values=[0.5, 1.0]" in out

    def test_bad_value_rejected_nonzero(self, capsys):
        assert main(["run", "E10", "--set", "n=six"]) == 1
        err = capsys.readouterr().err
        assert "cannot parse 'six' as int" in err

    def test_unknown_key_rejected_nonzero_with_schema(self, capsys):
        assert main(["run", "E10", "--set", "bogus=1"]) == 1
        err = capsys.readouterr().err
        assert "takes no parameter 'bogus'" in err
        assert "n, p_values" in err

    def test_malformed_pair_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "E10", "--set", "n6"])
        assert "key=value" in capsys.readouterr().err

    def test_multi_run_warns_instead_of_failing(self, capsys):
        # a_values belongs to E4 only; E10 warns and still runs.
        assert main(
            ["run", "E10,E4", "--quick", "--set", "a_values=10,50"]
        ) == 0
        captured = capsys.readouterr()
        assert "--set a_values=10,50 has no effect on E10" in captured.err
        assert "E4" in captured.out


class TestCLICapabilityDerivation:
    def test_warning_comes_from_declaration_not_signature(self, capsys):
        # E17 declares jobs/cache/backend/mode but not engine.
        assert main(
            ["run", "E17", "--quick", "--engine", "serial"]
        ) == 0
        err = capsys.readouterr().err
        assert err.count("warning:") == 1
        assert "--engine serial has no effect on E17" in err

    def test_declared_axes_never_warn(self, capsys, tmp_path):
        assert main(
            [
                "run", "E18", "--quick",
                "--jobs", "2",
                "--cache-dir", str(tmp_path / "cache"),
                "--backend", "frozen",
                "--engine", "serial",
                "--mode", "trajectory",
            ]
        ) == 0
        captured = capsys.readouterr()
        assert "warning:" not in captured.err
        assert "mode=trajectory" in captured.out


class TestCLICommaLists:
    def test_comma_separated_ids_run_in_order(self, capsys):
        assert main(["run", "E10,E4", "--quick"]) == 0
        out = capsys.readouterr().out
        assert out.index("E10") < out.index("E4")

    def test_comma_list_writes_json_dir(self, tmp_path, capsys):
        import os

        json_dir = tmp_path / "records"
        assert main(
            [
                "run", "E10,E16", "--quick",
                "--json-dir", str(json_dir),
            ]
        ) == 0
        assert sorted(os.listdir(json_dir)) == ["e10.json", "e16.json"]

    def test_json_flag_warns_on_multi_runs(self, tmp_path, capsys):
        out_path = tmp_path / "out.json"
        assert main(
            ["run", "E10,E16", "--quick", "--json", str(out_path)]
        ) == 0
        captured = capsys.readouterr()
        assert "--json applies to single-experiment runs" in captured.err
        assert not out_path.exists()

    def test_unknown_member_exits_with_registry_ids(self, capsys):
        assert main(["run", "E1,E99", "--quick"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err
        assert "E20" in err

    def test_lowercase_and_spaces_tolerated(self, capsys):
        assert main(["run", "e10, e16", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "E10" in out and "E16" in out
