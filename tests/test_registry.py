"""The declarative experiment registry and its CLI surface.

Three layers are pinned here:

1. **Spec declarations** — every registered spec's declared params
   match its body's keyword-only signature exactly (names, order, no
   defaults of its own), every declared default survives the
   ``--set`` parser unchanged, capabilities come in canonical order,
   and its ``--quick`` grid names only declared params.
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
import os

import pytest

from repro.cli import QUICK_OVERRIDES, format_listing, main
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
    INT_TUPLE,
)
from repro.errors import ExperimentError

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _as_cli_text(value):
    """``value`` spelled as the text ``--set name=<text>`` takes."""
    if isinstance(value, tuple):
        return ",".join(repr(item) for item in value)
    return value if isinstance(value, str) else repr(value)


class TestSpecDeclarations:
    """What each registered spec declares."""

    @pytest.mark.parametrize("experiment_id", REGISTRY.ids())
    def test_signature_matches_declaration(self, experiment_id):
        # The body takes the context and the result shell, then exactly
        # the declared params as keyword-only arguments with no
        # defaults: the declaration is the one place a default is
        # spelled.
        spec = REGISTRY.get(experiment_id)
        parameters = list(inspect.signature(spec.body).parameters.values())
        assert [p.name for p in parameters[:2]] == ["ctx", "result"]
        for parameter in parameters[:2]:
            assert (
                parameter.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
            )
        rest = parameters[2:]
        assert [p.name for p in rest] == list(spec.param_names)
        for parameter in rest:
            assert parameter.kind is inspect.Parameter.KEYWORD_ONLY
            assert parameter.default is inspect.Parameter.empty, (
                f"{experiment_id}.{parameter.name}: the body spells a "
                f"default ({parameter.default!r}) beside the declared one"
            )

    @pytest.mark.parametrize("experiment_id", REGISTRY.ids())
    def test_defaults_match_declaration(self, experiment_id):
        # ``--set name=<default>`` must reproduce the declared default
        # exactly, element types included: a default the parser cannot
        # give back (a list for a tuple type, an int in a float grid)
        # would make the CLI and Python runs differ.
        for param in REGISTRY.get(experiment_id).params:
            parsed = param.coerce(_as_cli_text(param.default))
            assert parsed == param.default, (
                f"{experiment_id}.{param.name}: --set gives {parsed!r}, "
                f"declared {param.default!r}"
            )
            if isinstance(parsed, tuple):
                assert [type(v) for v in parsed] == [
                    type(v) for v in param.default
                ]
            else:
                assert type(parsed) is type(param.default)

    @pytest.mark.parametrize("experiment_id", REGISTRY.ids())
    def test_capabilities_are_canonical(self, experiment_id):
        spec = REGISTRY.get(experiment_id)
        declared = tuple(spec.capabilities)
        assert set(declared) <= set(CAPABILITIES)
        # Canonical order: declaration order never leaks into the
        # capability matrix.
        assert declared == tuple(
            c for c in CAPABILITIES if c in declared
        )

    @pytest.mark.parametrize("experiment_id", REGISTRY.ids())
    def test_quick_overrides_match_declared_params(self, experiment_id):
        spec = REGISTRY.get(experiment_id)
        assert set(QUICK_OVERRIDES[experiment_id]) <= set(
            spec.param_names
        )

    def test_run_experiment_and_spec_run_identically(self):
        via_function = run_experiment("E10", n=6, p_values=(0.5, 1.0))
        via_spec = REGISTRY.get("E10").run(
            {"n": 6, "p_values": (0.5, 1.0)}
        )
        assert via_function.derived == via_spec.derived


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

    def test_cache_dir_on_a_cacheless_experiment_creates_nothing(
        self, tmp_path
    ):
        # E4 declares no cache: the argument is refused before any
        # store is opened.
        cache = tmp_path / "cache"
        with pytest.raises(ExperimentError, match="cache_dir"):
            run_experiment("E4", cache_dir=str(cache))
        assert not cache.exists()

    def test_registration_validates_body_signature(self):
        registry = Registry()
        with pytest.raises(ExperimentError, match="declares"):

            @registry.register(
                "EX",
                title="drifting body",
                params=(Param("n", INT, 1),),
            )
            def _body(ctx, result, *, wrong_name):  # pragma: no cover
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
        assert CAPABILITIES == ("jobs", "cache", "mode")
        context = ExecutionContext()
        assert context.jobs == CAPABILITY_PARAMS["jobs"][1]
        assert context.store is CAPABILITY_PARAMS["cache"][1]
        assert context.mode == CAPABILITY_PARAMS["mode"][1]

    @pytest.mark.parametrize(
        "experiment_id, extra",
        [("E6", {}), ("E17", {"mode": "trajectory"}), ("E21", {})],
    )
    def test_no_backend_in_default_trial_params(
        self, experiment_id, extra, monkeypatch
    ):
        # No trial param of a default run names a graph backend, so
        # stores filled before the axis was retired keep replaying.
        import repro.core.registry as registry_module

        seen = []
        original = registry_module.run_trials

        def capture(specs, *args, **kwargs):
            seen.extend(specs)
            return original(specs, *args, **kwargs)

        monkeypatch.setattr(registry_module, "run_trials", capture)
        run_experiment(
            experiment_id, **QUICK_OVERRIDES[experiment_id], **extra
        )
        assert seen
        assert all("backend" not in spec.params for spec in seen)


#: The registry's whole surface: every id in order, with the axes it
#: declares.  Adding or re-declaring an experiment changes this on
#: purpose, alongside the README index.
_SEARCH_AXES = ("jobs", "cache")
EXPECTED_CAPABILITY_MATRIX = {
    "E1": _SEARCH_AXES,
    "E2": _SEARCH_AXES,
    "E3": _SEARCH_AXES,
    "E4": (),
    "E5": (),
    "E6": _SEARCH_AXES,
    "E7": _SEARCH_AXES,
    # E8 stays axis-free on purpose: greedy routing navigates by
    # lattice coordinates, not through the oracle machinery.
    "E8": (),
    "E9": _SEARCH_AXES,
    "E10": (),
    "E11": _SEARCH_AXES,
    "E12": (),
    "E13": _SEARCH_AXES,
    "E14": _SEARCH_AXES,
    "E15": (),
    "E16": (),
    "E17": ("jobs", "cache", "mode"),
    "E18": ("jobs", "cache", "mode"),
    "E19": ("jobs", "cache", "mode"),
    "E20": _SEARCH_AXES,
    "E21": _SEARCH_AXES,
    "E22": _SEARCH_AXES,
}


def _probe_spec(capabilities=()):
    """A synthetic spec whose body records what the registry hands it."""
    registry = Registry()
    received = {}

    @registry.register(
        "EX",
        title="shell probe",
        capabilities=capabilities,
        params=(Param("sizes", INT_TUPLE, (3, 5)), Param("n", INT, 7)),
    )
    def _body(ctx, result, *, sizes, n):
        received.update(
            ctx=ctx,
            result=result,
            params=dict(result.params),
            sizes=sizes,
            n=n,
        )

    return registry.get("EX"), received


class TestResultShell:
    """:meth:`ExperimentSpec.run` builds the result and the body fills it."""

    def test_shell_comes_from_the_spec(self):
        spec, received = _probe_spec()
        result = spec.run({"n": 9})
        assert received["result"] is result
        assert result.experiment_id == "EX"
        assert result.title == "shell probe"
        # Tuples reach the shell as lists and the body as given.
        assert received["params"] == {"sizes": [3, 5], "n": 9}
        assert received["sizes"] == (3, 5)
        assert received["n"] == 9
        assert result.tables == [] and result.derived == {}

    def test_mode_only_when_declared(self):
        spec, _ = _probe_spec()
        assert "mode" not in spec.run().params
        spec, received = _probe_spec(capabilities=("mode",))
        assert spec.run().params["mode"] == "independent"
        result = spec.run(mode="trajectory")
        assert result.params["mode"] == received["ctx"].mode
        assert received["params"]["mode"] == "trajectory"
        spec, _ = _probe_spec(capabilities=(("mode", "trajectory"),))
        assert spec.run().params["mode"] == "trajectory"

    def test_body_without_the_shell_argument_is_rejected(self):
        registry = Registry()
        with pytest.raises(ExperimentError, match="declares"):

            @registry.register(
                "EX",
                title="no shell argument",
                params=(Param("n", INT, 1),),
            )
            def _body(ctx, *, n):  # pragma: no cover
                return None

    @pytest.mark.parametrize("experiment_id", REGISTRY.ids())
    def test_every_spec_gets_its_shell(self, experiment_id):
        spec = REGISTRY.get(experiment_id)
        overrides = QUICK_OVERRIDES[experiment_id]
        result = spec.run(overrides)
        assert result.experiment_id == spec.id
        assert result.title == spec.title
        for name, value in spec.resolve_params(overrides).items():
            expected = list(value) if isinstance(value, tuple) else value
            assert result.params[name] == expected, name
            assert type(result.params[name]) is type(expected), name
        assert ("mode" in result.params) == ("mode" in spec.capabilities)


class TestAuditedAxes:
    """The audited capability surface (E9/E12/E18/E19 gained their
    missing axes), pinned whole: every id in order, every row."""

    def test_matrix_rows(self):
        assert REGISTRY.ids() == [f"E{index}" for index in range(1, 23)]
        assert REGISTRY.capability_matrix() == EXPECTED_CAPABILITY_MATRIX

    def test_e12_backend_invariant(self, reference_arms):
        kwargs = dict(
            n=400, replica_counts=(0, 8), num_queries=5, seed=12
        )
        default = run_experiment("E12", **kwargs)
        with reference_arms() as frozen:
            multigraph = run_experiment("E12", **kwargs)
        assert not frozen
        assert default.derived == multigraph.derived

    def test_e9_backend_invariant(self, reference_arms):
        kwargs = dict(sizes=(100, 200), num_graphs=2, seed=9)
        default = run_experiment("E9", **kwargs)
        with reference_arms() as frozen:
            multigraph = run_experiment("E9", **kwargs)
        assert not frozen
        assert default.derived == multigraph.derived

    def test_e18_engine_invariant(self, reference_arms):
        kwargs = dict(
            sizes=(60, 120), num_graphs=2, runs_per_graph=1, seed=18
        )
        default = run_experiment("E18", **kwargs)
        with reference_arms():
            serial = run_experiment("E18", **kwargs)
        assert serial.derived == default.derived

    def test_e19_engine_invariant(self, reference_arms):
        kwargs = dict(
            sizes=(100, 200), num_graphs=2, runs_per_graph=1, seed=19
        )
        default = run_experiment("E19", **kwargs)
        with reference_arms():
            serial = run_experiment("E19", **kwargs)
        assert serial.derived == default.derived


class TestE20:
    """The registry's extension proof: a pure-spec experiment."""

    QUICK = dict(
        sizes=(60, 120), num_graphs=2, runs_per_graph=1, seed=20
    )

    def test_shape(self):
        result = run_experiment("E20", **self.QUICK)
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
        from repro.runner import TrialSpec

        cache = str(tmp_path / "cache")
        first = run_experiment("E20", **self.QUICK, jobs=2, cache_dir=cache)
        serial = run_experiment("E20", **self.QUICK)
        assert first.derived == serial.derived

        def exploding_execute(self):
            raise AssertionError("recomputed despite warm cache")

        monkeypatch.setattr(TrialSpec, "execute", exploding_execute)
        second = run_experiment("E20", **self.QUICK, cache_dir=cache)
        assert second.derived == first.derived

    def test_backend_invariant(self, reference_arms):
        default = run_experiment("E20", **self.QUICK)
        with reference_arms() as frozen:
            multigraph = run_experiment("E20", **self.QUICK)
        assert not frozen
        assert default.derived == multigraph.derived

    def test_engine_invariant(self, reference_arms):
        default = run_experiment("E20", **self.QUICK)
        with reference_arms():
            serial = run_experiment("E20", **self.QUICK)
        assert serial.derived == default.derived

    def test_cli_acceptance_flags(self, capsys, tmp_path):
        """E20 through the real CLI with every axis it declares — no
        experiment-specific CLI code exists for it."""
        argv = [
            "run", "E20", "--quick", "--jobs", "2",
            "--cache-dir", str(tmp_path / "cache"),
        ]
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
            line.split()[:2] == ["E1", "jobs,cache"]
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

    def test_readme_index_is_current(self):
        """The README experiment index is ``repro list --markdown``
        verbatim: re-declaring an experiment without regenerating the
        index fails here."""
        with open(README, encoding="utf-8") as handle:
            assert format_listing(markdown=True) in handle.read()


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
        # E1 declares jobs/cache but not mode.
        assert main(
            ["run", "E1", "--quick", "--mode", "trajectory"]
        ) == 0
        err = capsys.readouterr().err
        assert err.count("warning:") == 1
        assert "--mode trajectory has no effect on E1" in err

    def test_seed_warns_on_seedless_experiment(self, capsys):
        # E10 is exact enumeration: it takes no seed parameter.
        assert main(["run", "E10", "--quick", "--seed", "3"]) == 0
        err = capsys.readouterr().err
        assert err.count("warning:") == 1
        assert "--seed 3 has no effect on E10" in err
        assert main(["run", "E1,E10", "--quick", "--seed", "3"]) == 0
        captured = capsys.readouterr()
        assert captured.err.count("warning:") == 1
        assert "--seed 3 has no effect on E10" in captured.err
        assert "seed=3" in captured.out

    def test_declared_axes_never_warn(self, capsys, tmp_path):
        assert main(
            [
                "run", "E18", "--quick",
                "--jobs", "2",
                "--cache-dir", str(tmp_path / "cache"),
                "--mode", "trajectory",
            ]
        ) == 0
        captured = capsys.readouterr()
        assert "warning:" not in captured.err
        assert "mode=trajectory" in captured.out

    def test_backend_axis_is_gone(self, capsys):
        # Every realisation is searched frozen: no flag, no keyword.
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "E1", "--quick", "--backend", "frozen"])
        assert exit_info.value.code == 2
        assert "--backend" in capsys.readouterr().err
        with pytest.raises(ExperimentError, match="backend"):
            run_experiment("E1", backend="frozen")

    def test_store_backend_axis_is_gone(self, capsys):
        # One store layout: no flag, no keyword.
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "E17", "--quick", "--store-backend", "sqlite"])
        assert exit_info.value.code == 2
        assert "--store-backend" in capsys.readouterr().err
        with pytest.raises(ExperimentError, match="store_backend"):
            run_experiment("E17", store_backend="sqlite")


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
