"""Smoke/shape tests for the named experiments and the CLI.

Experiments run on deliberately tiny grids here; the benchmark harness
exercises the paper-scale versions.  Shape assertions target the claims
each experiment exists to check (exponent floors, bound margins) with
tolerances loose enough to be seed-robust at these sizes.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.core import REGISTRY, run_experiment


class TestExperimentRegistry:
    def test_all_registered(self):
        assert len(REGISTRY) == 22
        assert REGISTRY.ids() == [f"E{i}" for i in range(1, 23)]

    def test_registry_is_the_only_entry_point(self):
        import repro.core
        import repro.core.experiments as experiments

        assert experiments.__all__ == []
        assert "run_experiment" in repro.core.__all__
        assert not any(
            name.startswith("e") and name[1:2].isdigit()
            for name in vars(experiments)
        )

    def test_all_have_docstrings(self):
        for spec in REGISTRY.specs():
            assert spec.body.__doc__, spec.id


class TestE1:
    def test_shape(self):
        result = run_experiment(
            "E1", sizes=(60, 120, 240), num_graphs=2, runs_per_graph=1, seed=1
        )
        assert result.experiment_id == "E1"
        assert result.tables
        # Every algorithm present with a fitted exponent.
        exponents = {
            k: v
            for k, v in result.derived.items()
            if k.startswith("exponent/")
        }
        assert len(exponents) == 9  # 8-member portfolio + omniscient
        assert result.derived["floor@largest"] > 0


class TestE3:
    def test_shape(self):
        result = run_experiment(
            "E3", sizes=(60, 120), num_graphs=2, runs_per_graph=1, seed=3
        )
        assert result.experiment_id == "E3"
        assert any(
            k.startswith("exponent/") for k in result.derived
        )


class TestE4:
    def test_bound_never_violated(self):
        result = run_experiment(
            "E4",
            a_values=(10, 40), p_values=(0.25, 0.75), num_samples=300,
            seed=4,
        )
        # Lemma 3 is a theorem: the exact margin must be non-negative.
        assert result.derived["min_margin_exact_minus_bound"] >= 0


class TestE5:
    def test_exponent_ordering(self):
        result = run_experiment(
            "E5", n=3000, p_values=(0.25, 0.75), num_trees=3, seed=5
        )
        low = result.derived["mori_exponent/p=0.25"]
        high = result.derived["mori_exponent/p=0.75"]
        # Max-degree growth increases with p.
        assert low < high
        # And BA sits near 1/2.
        assert 0.3 < result.derived["ba_exponent"] < 0.7


class TestE6:
    def test_scale_free_vs_lattice(self):
        result = run_experiment("E6", n=3000, seed=6)
        ba_exp = result.derived["exponent/ba(m=2)"]
        assert 1.5 < ba_exp < 4.0
        kleinberg_keys = [
            k for k in result.derived if "kleinberg" in k and "exponent" in k
        ]
        assert kleinberg_keys
        # Kleinberg's concentrated degrees produce a huge fitted
        # exponent (no heavy tail).
        assert result.derived[kleinberg_keys[0]] > 4.0


class TestE8:
    def test_navigability_crossover(self):
        result = run_experiment(
            "E8",
            sides=(8, 12, 18), r_values=(0.0, 2.0, 4.0),
            pairs_per_grid=10, seed=8,
        )
        e0 = result.derived["exponent/r=0"]
        e2 = result.derived["exponent/r=2"]
        e4 = result.derived["exponent/r=4"]
        # r=2 grows slowest (poly-log => smallest fitted exponent).
        assert e2 < e0
        assert e2 < e4


class TestE9:
    def test_contrast(self):
        result = run_experiment(
            "E9", sizes=(100, 200, 400), num_graphs=2, seed=9
        )
        assert result.derived["diameter_log_r2"] > 0.5
        assert result.derived["search_cost_exponent"] > 0.3


class TestE10:
    def test_exact_lemma2(self):
        result = run_experiment("E10", n=6, p_values=(0.5, 1.0))
        assert result.derived["all_windows_hold"] == 1.0


class TestE11:
    def test_floor_respected(self):
        result = run_experiment(
            "E11", sizes=(100, 200), num_graphs=3, runs_per_graph=1, seed=11
        )
        # Lemma 1 is a theorem; sampled means can fluctuate below the
        # floor only via Monte-Carlo noise, so allow a small slack.
        assert result.derived["min_ratio"] > 0.5


class TestE12:
    def test_replication_helps(self):
        result = run_experiment(
            "E12",
            n=800,
            replica_counts=(0, 32),
            num_queries=12,
            seed=12,
        )
        assert (
            result.derived["hit_rate/replicas=32"]
            >= result.derived["hit_rate/replicas=0"]
        )


class TestE13:
    def test_runs_across_p(self):
        result = run_experiment(
            "E13", sizes=(60, 120), p_values=(0.0, 1.0), num_graphs=2, seed=13
        )
        assert "exponent/p=0" in result.derived
        assert "exponent/p=1" in result.derived


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "E1" in out
        assert "E14" in out

    def test_unknown_experiment(self, capsys):
        assert main(["run", "E99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_e10_with_json(self, tmp_path, capsys):
        json_path = tmp_path / "e10.json"
        assert main(["run", "e10", "--json", str(json_path)]) == 0
        out = capsys.readouterr().out
        assert "E10" in out
        data = json.loads(json_path.read_text())
        assert data["experiment_id"] == "E10"

    def test_run_e4_quick_with_seed_override(self, capsys):
        assert main(["run", "E4", "--quick", "--seed", "99"]) == 0
        out = capsys.readouterr().out
        assert "seed=99" in out

    def test_quick_overrides_cover_all_experiments(self):
        from repro.cli import QUICK_OVERRIDES

        assert set(QUICK_OVERRIDES) == set(REGISTRY.ids())

    def test_seed_passthrough_to_runner_dispatched_experiment(
        self, capsys
    ):
        # E17 is dispatched through repro.runner; the seed override
        # must reach it (read off its declared ``seed`` parameter).
        assert main(
            ["run", "E17", "--quick", "--seed", "123", "--jobs", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "seed=123" in out

    def test_ignored_runner_flags_warn_on_non_runner_experiment(
        self, capsys, tmp_path
    ):
        """E4 never consults --jobs/--cache-dir/--mode;
        the CLI must say so instead of letting the user believe results
        were cached or parallelised."""
        cache = str(tmp_path / "cache")
        assert main(
            [
                "run", "E4", "--quick",
                "--jobs", "4",
                "--cache-dir", cache,
                "--mode", "trajectory",
            ]
        ) == 0
        err = capsys.readouterr().err
        assert "--jobs 4 has no effect on E4" in err
        assert f"--cache-dir {cache} has no effect on E4" in err
        assert "--mode trajectory has no effect on E4" in err
        assert err.count("warning:") == 3

    @pytest.mark.parametrize(
        "experiment_id", ("E5", "E8", "E10", "E12", "E15", "E16")
    )
    def test_every_non_runner_experiment_warns(
        self, experiment_id, capsys, tmp_path
    ):
        cache = str(tmp_path / "cache")
        assert main(
            [
                "run", experiment_id, "--quick",
                "--jobs", "2", "--cache-dir", cache,
            ]
        ) == 0
        err = capsys.readouterr().err
        assert f"has no effect on {experiment_id}" in err
        assert err.count("warning:") == 2

    def test_runner_experiment_flags_do_not_warn(
        self, capsys, tmp_path
    ):
        cache = str(tmp_path / "cache")
        assert main(
            [
                "run", "E17", "--quick",
                "--jobs", "2",
                "--cache-dir", cache,
                "--mode", "trajectory",
            ]
        ) == 0
        captured = capsys.readouterr()
        assert "warning:" not in captured.err
        assert "mode=trajectory" in captured.out

    def test_default_flags_never_warn(self, capsys):
        assert main(["run", "E4", "--quick"]) == 0
        assert "warning:" not in capsys.readouterr().err

    def test_runner_experiment_missing_only_one_knob_warns_precisely(
        self, capsys
    ):
        """E1 takes jobs but not mode: --jobs applies silently while
        --mode warns, and the message names the missing parameter
        rather than (wrongly) claiming E1 bypasses the runner."""
        assert main(
            ["run", "E1", "--quick", "--jobs", "2",
             "--mode", "trajectory"]
        ) == 0
        err = capsys.readouterr().err
        assert err.count("warning:") == 1
        assert "--mode trajectory has no effect on E1" in err
        assert "takes no 'mode' parameter" in err
        assert "--jobs" not in err

    def test_mode_passthrough_to_measure_scaling_experiment(
        self, capsys
    ):
        assert main(
            ["run", "E18", "--quick", "--mode", "trajectory"]
        ) == 0
        assert "mode=trajectory" in capsys.readouterr().out

    def test_seed_reaches_the_registered_body(self, monkeypatch):
        """--seed is resolved against the spec's declared params (no
        signature inspection): the body receives the override."""
        from repro import cli
        from repro.core.registry import REGISTRY
        from repro.core import experiments

        captured = {}
        spec = REGISTRY.get("E17")
        original_body = spec.body

        def capturing_body(ctx, result, **kwargs):
            captured.update(kwargs)
            original_body(ctx, result, **kwargs)

        fake = type(REGISTRY)()
        for other in REGISTRY.specs():
            fake.add(other)
        fake.add(
            type(spec)(
                id=spec.id,
                title=spec.title,
                params=spec.params,
                capabilities=spec.capabilities,
                body=capturing_body,
            )
        )
        monkeypatch.setattr(cli, "REGISTRY", fake)
        assert cli.main(["run", "E17", "--quick", "--seed", "77"]) == 0
        assert captured["seed"] == 77


class TestE15:
    def test_window_probability_positive(self):
        result = run_experiment(
            "E15", sizes=(60, 120), num_samples=100, seed=15
        )
        assert result.derived["min_p_untouched"] > 0.2
        assert result.derived["profile_spread"] >= 0.0


class TestE16:
    def test_evolving_vs_pure(self):
        result = run_experiment("E16", n=1500, seed=16)
        for name in (
            "mori(p=0.5, m=2)",
            "cooper-frieze(a=0.75)",
            "ba(m=2)",
        ):
            assert result.derived[f"age_corr/{name}"] < -0.1
        assert abs(result.derived["age_corr/config(k=2.5)"]) < 0.1


class TestE17:
    def test_simulation_inequality(self):
        result = run_experiment("E17", sizes=(100, 200), num_graphs=2, seed=17)
        assert result.derived["worst_ratio"] <= 1.0

    def test_independent_mode_preserves_grid_order_and_repeats(self):
        """The mode refactor must keep the serial loop's one-row-per-
        grid-position behaviour: repeated sizes are separate cells
        (distinct seed substreams) and the caller's order is kept."""
        result = run_experiment(
            "E17", sizes=(200, 200, 100), num_graphs=1, seed=17
        )
        assert [row[0] for row in result.tables[0].rows] == [
            200, 200, 100,
        ]


class TestCLIPlot:
    def test_plot_flag_renders_ascii(self, capsys):
        from repro.cli import main

        assert main(["run", "E1", "--quick", "--plot"]) == 0
        out = capsys.readouterr().out
        assert "log-log" in out


class TestCLICompare:
    def test_compare_roundtrip_matches(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "e10.json"
        assert main(["run", "E10", "--quick", "--json", str(path)]) == 0
        capsys.readouterr()
        assert main(["compare", str(path), str(path)]) == 0
        assert "MATCH" in capsys.readouterr().out

    def test_compare_flags_divergence(self, tmp_path, capsys):
        import json

        from repro.cli import main

        path_a = tmp_path / "a.json"
        assert main(
            ["run", "E10", "--quick", "--json", str(path_a)]
        ) == 0
        data = json.loads(path_a.read_text())
        data["derived"]["all_windows_hold"] = 0.0
        path_b = tmp_path / "b.json"
        path_b.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["compare", str(path_a), str(path_b)]) == 1
        out = capsys.readouterr().out
        assert "metric" in out


class TestCLIBadPaths:
    """A bad user path is one ``error: <path>: <reason>`` line, exit 1."""

    @pytest.mark.parametrize(
        "argv, bad, reason",
        [
            (
                ["run", "E17", "--quick", "--cache-dir", "{file}/x"],
                "{file}/x",
                "Not a directory",
            ),
            (
                ["run", "E17", "--quick", "--json", "{missing}/out.json"],
                "{missing}/out.json",
                "No such file or directory",
            ),
            (
                ["compare", "{missing}.json", "{missing}.json"],
                "{missing}.json",
                "No such file or directory",
            ),
            (
                ["compare", "{text}", "{text}"],
                "{text}",
                "not valid JSON",
            ),
        ],
        ids=["cache-dir-under-file", "json-in-missing-dir",
             "compare-missing", "compare-not-json"],
    )
    def test_bad_path_is_one_error_line(
        self, argv, bad, reason, tmp_path, capsys
    ):
        (tmp_path / "file").write_text("")
        (tmp_path / "text.json").write_text("not json\n")
        names = {
            "file": str(tmp_path / "file"),
            "missing": str(tmp_path / "missing"),
            "text": str(tmp_path / "text.json"),
        }
        argv = [arg.format(**names) for arg in argv]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        (line,) = err.strip().splitlines()
        assert line.startswith(f"error: {bad.format(**names)}: {reason}")


    def test_bad_json_directory_fails_before_the_run(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.core.registry import ExperimentSpec

        def forbidden(*args, **kwargs):
            raise AssertionError("the experiment ran")

        monkeypatch.setattr(ExperimentSpec, "run", forbidden)
        (tmp_path / "file").write_text("")
        for bad, reason in (
            (tmp_path / "missing" / "out.json", "No such file or directory"),
            (tmp_path / "file" / "out.json", "Not a directory"),
            (tmp_path, "Is a directory"),
        ):
            assert main(["run", "E17", "--quick", "--json", str(bad)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {bad}: {reason}\n"


class TestE18:
    def test_start_rules_all_measured(self):
        result = run_experiment(
            "E18", sizes=(60, 120), num_graphs=2, runs_per_graph=1, seed=18
        )
        for rule in ("default", "random", "newest-other"):
            assert f"exponent/start={rule}" in result.derived

    def test_trajectory_mode_runs_all_rules(self):
        result = run_experiment(
            "E18",
            sizes=(60, 120), num_graphs=2, runs_per_graph=1, seed=18,
            mode="trajectory",
        )
        assert result.params["mode"] == "trajectory"
        for rule in ("default", "random", "newest-other"):
            assert f"exponent/start={rule}" in result.derived


class TestE19:
    def test_shape_and_confidence_bands(self):
        result = run_experiment(
            "E19", sizes=(100, 200), num_graphs=3, runs_per_graph=1, seed=19
        )
        assert result.experiment_id == "E19"
        assert result.params["mode"] == "trajectory"
        table = result.tables[0]
        assert "ci95 halfwidth" in table.columns
        # One row per (family, size); both families measured.
        families = {row[0] for row in table.rows}
        assert len(families) == 2
        assert len(table.rows) == 4
        for row in table.rows:
            mean_requests = row[2]
            ci_halfwidth = row[3]
            assert mean_requests > 0
            assert ci_halfwidth >= 0
        assert "min_exponent" in result.derived

    def test_unknown_mode_rejected(self):
        from repro.errors import ExperimentError

        with pytest.raises(ExperimentError):
            run_experiment(
                "E17", sizes=(100, 200), num_graphs=1, mode="coupled"
            )

    def test_e19_accepts_only_trajectory_mode(self, capsys):
        """Coupled trajectories are E19's subject: `--mode trajectory`
        composes without a bogus 'flag was ignored' warning, and
        independent mode is rejected with a pointer to E1/E3."""
        from repro.errors import ExperimentError

        assert main(
            ["run", "E19", "--quick", "--mode", "trajectory"]
        ) == 0
        assert "warning:" not in capsys.readouterr().err
        with pytest.raises(ExperimentError):
            run_experiment(
                "E19", sizes=(100, 200), num_graphs=1, mode="independent"
            )
        # An *explicitly typed* --mode independent must reach E19 and
        # be rejected there — not silently dropped as "the default" —
        # and the CLI turns the rejection into a clean error, not a
        # traceback.
        assert main(
            ["run", "E19", "--quick", "--mode", "independent"]
        ) == 1
        err = capsys.readouterr().err
        assert "error: E19 failed:" in err
        assert "coupled trajectories by definition" in err

    def test_run_all_survives_a_failing_experiment(
        self, capsys, monkeypatch
    ):
        """One experiment rejecting a knob must not abort the sweep."""
        from repro import cli
        from repro.core.registry import REGISTRY, ExperimentSpec, Registry
        from repro.errors import ExperimentError

        def exploding(ctx, result):
            raise ExperimentError("boom")

        subset = Registry()
        subset.add(
            ExperimentSpec(
                id="E10",
                title="exploding stand-in",
                params=(),
                capabilities={},
                body=exploding,
            )
        )
        subset.add(REGISTRY.get("E17"))
        monkeypatch.setattr(cli, "REGISTRY", subset)
        assert main(["run", "all", "--quick"]) == 1
        captured = capsys.readouterr()
        assert "error: E10 failed: boom" in captured.err
        # Experiments after the failure still ran.
        assert "E17:" in captured.out


class TestCLIRunAll:
    @pytest.mark.slow
    def test_run_all_quick_with_json_dir(self, tmp_path, capsys):
        import os

        json_dir = tmp_path / "records"
        assert (
            main(
                [
                    "run",
                    "all",
                    "--quick",
                    "--json-dir",
                    str(json_dir),
                ]
            )
            == 0
        )
        written = sorted(os.listdir(json_dir))
        assert written == sorted(
            f"e{i}.json" for i in range(1, 23)
        )
        out = capsys.readouterr().out
        for i in range(1, 23):
            assert f"E{i}:" in out
