"""Determinism and invariance battery for the churn layer.

:class:`~repro.graphs.churn.ChurnProcess` claims a churn trajectory is
a pure function of ``(family, base graph, churn parameters, seed)`` —
independent of ``--jobs`` fan-out, of the search engine, and of the
``resnapshot_every`` compaction cadence (rank-based Fenwick sampling
draws "the j-th survivor", never "id j", so order-preserving
relabeling cannot change a draw).  This battery pins those claims:
golden digests of churned graphs, compaction-invariance across
cadences for every model, family-faithful join arity, serial-vs-
ensemble and jobs=1-vs-jobs=2 equality of whole churn trials, and the
E21/E22 registry surface.  The Fenwick membership tree itself is
checked against a naive reference under random operation sequences.
"""

from __future__ import annotations

import random

import pytest

from repro.core import run_experiment
from repro.core.families import (
    BarabasiAlbertFamily,
    ConfigurationFamily,
    CooperFriezeFamily,
    GraphFamily,
    MoriFamily,
)
from repro.core.trials import (
    churn_search_trial,
    churn_survival_trial,
    family_spec,
)
from repro.errors import InvalidParameterError
from repro.graphs.churn import CHURN_BIASES, ChurnProcess
from repro.graphs.cooper_frieze import CooperFriezeParams
from repro.graphs.delta import graph_digest
from repro.graphs.sampling import FenwickFlags

#: (key, family, base size) — every family with a churn join rule.
FAMILIES = (
    ("mori", MoriFamily(p=0.5, m=2), 120),
    ("cooper-frieze", CooperFriezeFamily(), 100),
    ("ba", BarabasiAlbertFamily(m=2), 120),
    ("config", ConfigurationFamily(exponent=2.5), 120),
)


def family_by_key(key: str):
    for name, family, size in FAMILIES:
        if name == key:
            return family, size
    raise AssertionError(key)


class TestFenwickFlags:
    def test_matches_naive_reference_under_random_ops(self):
        rng = random.Random(17)
        tree = FenwickFlags(0)
        flags: list = []
        for _ in range(600):
            action = rng.random()
            if action < 0.4 or not flags:
                flag = rng.random() < 0.7
                tree.append(flag)
                flags.append(flag)
            elif action < 0.6:
                position = rng.randrange(len(flags))
                tree.set(position)
                flags[position] = True
            elif action < 0.8:
                position = rng.randrange(len(flags))
                tree.clear(position)
                flags[position] = False
            else:
                alive = [i for i, f in enumerate(flags) if f]
                assert tree.count == len(alive)
                for rank, position in enumerate(alive):
                    assert tree.select(rank) == position
        alive = [i for i, f in enumerate(flags) if f]
        assert tree.count == len(alive)
        assert [tree.select(r) for r in range(len(alive))] == alive

    def test_initially_set_constructor(self):
        tree = FenwickFlags(5)
        assert tree.count == 5
        assert [tree.select(r) for r in range(5)] == [0, 1, 2, 3, 4]

    def test_set_and_clear_are_idempotent(self):
        tree = FenwickFlags(3)
        tree.clear(1)
        tree.clear(1)
        assert tree.count == 2
        tree.set(1)
        tree.set(1)
        assert tree.count == 3


class TestChurnDeterminism:
    def test_golden_digests(self):
        """The exact churned graph, pinned: any change to the sampling
        order, the join rules, or the rng layering shows up here."""
        family = MoriFamily(p=0.5, m=2)
        base = family.build_frozen(120, seed=5)
        digests = {}
        for bias in CHURN_BIASES:
            process = ChurnProcess(family, base, churn_bias=bias, seed=9)
            digests[bias] = graph_digest(process.run(30).resnapshot())
        assert digests == {
            "uniform": (
                "760b5781dd7e7d58e14dd63f0de94eaa"
                "826aa2deb1d9d003abc8f9d0bf6b0091"
            ),
            "degree": (
                "c48c402b4cc24b1a6f69de1e66fca080"
                "d674a970ca257899188770194bf11d04"
            ),
        }

    def test_replay_is_exact_and_seed_sensitive(self):
        family = BarabasiAlbertFamily(m=2)
        base = family.build_frozen(100, seed=3)

        def digest(seed):
            process = ChurnProcess(
                family, base, churn_bias="uniform", seed=seed
            )
            return graph_digest(process.run(20).resnapshot())

        assert digest(1) == digest(1)
        assert digest(1) != digest(2)

    @pytest.mark.parametrize("key", [name for name, _, _ in FAMILIES])
    @pytest.mark.parametrize("bias", CHURN_BIASES)
    def test_compaction_invariance(self, key, bias):
        """resnapshot_every is purely an execution knob: every cadence
        must land on the identical surviving graph."""
        family, size = family_by_key(key)
        base = family.build_frozen(size, seed=4)
        digests = set()
        for every in (0, 3, 7):
            process = ChurnProcess(
                family,
                base,
                churn_bias=bias,
                resnapshot_every=every,
                seed=6,
            )
            digests.add(graph_digest(process.run(25).resnapshot()))
        assert len(digests) == 1

    def test_decay_compaction_invariance(self):
        family = MoriFamily(p=0.5, m=2)
        base = family.build_frozen(100, seed=8)
        digests = set()
        for every in (0, 4):
            process = ChurnProcess(
                family, base, churn_bias="degree",
                resnapshot_every=every, seed=2,
            )
            digests.add(
                graph_digest(process.run(60, decay=True).resnapshot())
            )
        assert len(digests) == 1


class TestChurnSemantics:
    @pytest.mark.parametrize("key", [name for name, _, _ in FAMILIES])
    def test_join_arity_follows_the_family(self, key):
        """Each join adds the family's own number of attachment edges."""
        family, size = family_by_key(key)
        base = family.build_frozen(size, seed=4)
        process = ChurnProcess(family, base, seed=1)
        expected_new_edges = {
            "mori": lambda: family.m,
            "ba": lambda: family.m,
            "config": lambda: family.min_degree,
        }.get(key)
        for _ in range(10):
            edges_before = process.num_edges
            live_before = process.num_live_vertices
            process.step()
            assert process.num_live_vertices == live_before
            if expected_new_edges is not None:
                # Population-preserving: the leave dropped some edges,
                # the join added exactly the family's arity.
                assert process.graph.degree(
                    process.graph.num_vertices
                ) == expected_new_edges()
            assert process.num_edges <= edges_before + max(
                expected_new_edges() if expected_new_edges else 10, 10
            )

    def test_population_held_by_step_and_shrunk_by_decay(self):
        family = MoriFamily(p=0.5, m=2)
        base = family.build_frozen(80, seed=1)
        process = ChurnProcess(family, base, seed=1)
        assert process.num_live_vertices == 80
        process.run(15)
        assert process.num_live_vertices == 80
        process.run(10, decay=True)
        assert process.num_live_vertices == 70
        assert process.steps_taken == 25

    def test_leave_refuses_last_vertex(self):
        family = MoriFamily(p=0.5, m=1)
        base = family.build_frozen(2, seed=1)
        process = ChurnProcess(family, base, seed=1)
        process.decay_step()
        with pytest.raises(InvalidParameterError):
            process.decay_step()

    def test_invalid_parameters_rejected(self):
        family = MoriFamily(p=0.5, m=1)
        base = family.build_frozen(10, seed=1)
        with pytest.raises(InvalidParameterError):
            ChurnProcess(family, base, churn_bias="oldest")
        with pytest.raises(InvalidParameterError):
            ChurnProcess(family, base, resnapshot_every=-1)
        with pytest.raises(InvalidParameterError):
            ChurnProcess(family, base, seed=1).run(-1)

    def test_many_steps_stay_in_substream_range(self):
        """Step counters beyond the 16-bit run-index field must keep
        drawing (the stream name blocks the counter)."""
        family = MoriFamily(p=0.5, m=1)
        base = family.build_frozen(4, seed=1)
        process = ChurnProcess(family, base, seed=1)
        process._steps_taken = (1 << 16) + 5  # deep into block 1
        process.step()  # must not raise InvalidParameterError
        assert process.steps_taken == (1 << 16) + 6


class _KindSampler:
    """A live-population sampler that answers with the kind of draw.

    Each primitive returns a sentinel vertex naming itself, so a join
    rule's target list spells out which draws the rule made.
    """

    UNIFORM, DEGREE, INDEGREE = -1, -2, -3

    def __init__(self, num_edges=30, num_live_vertices=10):
        self.num_edges = num_edges
        self.num_live_vertices = num_live_vertices

    def uniform_vertex(self, rng):
        return self.UNIFORM

    def degree_vertex(self, rng):
        return self.DEGREE

    def indegree_vertex(self, rng):
        return self.INDEGREE


class TestChurnJoinRules:
    """Each family re-expresses its growth step in the churn draws."""

    S = _KindSampler

    def test_default_is_one_degree_preferential_edge(self):
        joins = GraphFamily().churn_join_edges(self.S(), random.Random(0))
        assert joins == [self.S.DEGREE]

    def test_mori_endpoints_are_the_p_mixture(self):
        rng = random.Random(1)
        assert MoriFamily(p=1.0, m=3).churn_join_edges(self.S(), rng) == (
            [self.S.INDEGREE] * 3
        )
        assert MoriFamily(p=0.0, m=2).churn_join_edges(self.S(), rng) == (
            [self.S.UNIFORM] * 2
        )

    def test_mori_mixture_weighs_edges_against_vertices(self):
        # p = 1/2 over 30 edges and 10 vertices: preferential mass 15
        # against uniform mass 5, so 3 draws in 4 go by indegree.
        rng = random.Random(2)
        family = MoriFamily(p=0.5, m=1)
        draws = [
            family.churn_join_edges(self.S(), rng)[0]
            for _ in range(4000)
        ]
        share = draws.count(self.S.INDEGREE) / len(draws)
        assert abs(share - 0.75) < 0.03

    def test_ba_endpoints_prefer_total_degree(self):
        joins = BarabasiAlbertFamily(m=2).churn_join_edges(
            self.S(), random.Random(0)
        )
        assert joins == [self.S.DEGREE] * 2

    def test_configuration_wires_min_degree_uniform_edges(self):
        joins = ConfigurationFamily(min_degree=3).churn_join_edges(
            self.S(), random.Random(0)
        )
        assert joins == [self.S.UNIFORM] * 3

    def test_cooper_frieze_terminals_follow_beta_and_preference(self):
        rng = random.Random(3)
        cases = {
            (1.0, "indegree"): self.S.UNIFORM,
            (0.0, "indegree"): self.S.INDEGREE,
            (0.0, "total"): self.S.DEGREE,
        }
        for (beta, preference), kind in cases.items():
            family = CooperFriezeFamily(
                params=CooperFriezeParams(
                    beta=beta, preferential_by=preference
                )
            )
            assert family.churn_join_edges(self.S(), rng) == [kind]

    def test_cooper_frieze_edge_count_follows_q(self):
        # q puts all mass on three edges.
        family = CooperFriezeFamily(
            params=CooperFriezeParams(
                beta=1.0, new_edge_distribution=(0.0, 0.0, 1.0)
            )
        )
        joins = family.churn_join_edges(self.S(), random.Random(4))
        assert joins == [self.S.UNIFORM] * 3


class TestChurnTrials:
    def trial_kwargs(self, **overrides):
        kwargs = {
            "family": family_spec(MoriFamily(p=0.5, m=2)),
            "size": 100,
            "portfolio": "weak",
            "churn_rate": 0.15,
            "churn_bias": "uniform",
            "runs_per_graph": 2,
            "budget": 300,
            "seed": 12,
        }
        kwargs.update(overrides)
        return kwargs

    def test_trial_shape_and_population(self):
        outcome = churn_search_trial(**self.trial_kwargs())
        assert outcome["steps"] == 15
        assert outcome["live_vertices"] == 100
        assert outcome["start"] != outcome["target"]
        for results in outcome["results"].values():
            assert len(results) == 2

    def test_serial_and_ensemble_engines_identical(self, reference_arms):
        ensemble = churn_search_trial(**self.trial_kwargs())
        with reference_arms():
            serial = churn_search_trial(**self.trial_kwargs())
        assert serial == ensemble

    def test_degree_bias_changes_the_trial(self):
        uniform = churn_search_trial(**self.trial_kwargs())
        degree = churn_search_trial(
            **self.trial_kwargs(churn_bias="degree")
        )
        assert uniform != degree

    def test_survival_trial_checkpoints(self):
        outcome = churn_survival_trial(
            family=family_spec(MoriFamily(p=0.5, m=2)),
            size=120,
            remove_fractions=[0.1, 0.5, 0.9],
            churn_bias="uniform",
            seed=7,
        )
        checkpoints = outcome["checkpoints"]
        assert [c["fraction"] for c in checkpoints] == [0.1, 0.5, 0.9]
        lives = [c["live_vertices"] for c in checkpoints]
        assert lives == sorted(lives, reverse=True)
        for checkpoint in checkpoints:
            assert 1 <= checkpoint["giant"] <= checkpoint["live_vertices"]

    def test_survival_trial_rejects_bad_fractions(self):
        from repro.errors import ExperimentError

        spec = family_spec(MoriFamily(p=0.5, m=2))
        with pytest.raises(ExperimentError):
            churn_survival_trial(
                family=spec, size=50, remove_fractions=[0.5, 0.1]
            )
        with pytest.raises(ExperimentError):
            churn_survival_trial(
                family=spec, size=50, remove_fractions=[1.5]
            )

    def test_degree_decay_shatters_faster_than_uniform(self):
        """The paper-level sanity check behind E22: hub-first decay
        collapses the giant component at far smaller removed
        fractions (scale-free robustness/fragility)."""
        spec = family_spec(MoriFamily(p=0.5, m=2))
        giants = {}
        for bias in CHURN_BIASES:
            outcome = churn_survival_trial(
                family=spec,
                size=300,
                remove_fractions=[0.6],
                churn_bias=bias,
                seed=3,
            )
            checkpoint = outcome["checkpoints"][0]
            giants[bias] = (
                checkpoint["giant"] / checkpoint["live_vertices"]
            )
        assert giants["degree"] < giants["uniform"]


class TestChurnExperiments:
    E21_KWARGS = {
        "size": 80,
        "churn_rates": (0.0, 0.2),
        "num_graphs": 2,
        "runs_per_graph": 1,
    }

    def test_e21_and_e22_registered_with_capabilities(self):
        from repro.core.registry import REGISTRY

        assert "E21" in REGISTRY.ids()
        assert "E22" in REGISTRY.ids()
        e21 = REGISTRY.get("E21")
        assert set(e21.capabilities) == {"jobs", "cache"}
        for name in (
            "churn_rates", "churn_bias", "resnapshot_every",
        ):
            assert name in e21.param_names
        e22 = REGISTRY.get("E22")
        assert "remove_fractions" in e22.param_names

    def test_cli_sets_churn_parameters_through_set(self, tmp_path):
        """The churn parameters are ordinary registry parameters: the
        CLI sets them with ``--set`` and has no churn flags."""
        import json

        from repro.cli import main

        path = tmp_path / "e21.json"
        assert main([
            "run", "E21", "--quick", "--set", "churn_rates=0.1",
            "--set", "churn_bias=degree", "--set", "resnapshot_every=5",
            "--json", str(path),
        ]) == 0
        params = json.loads(path.read_text())["params"]
        assert params["churn_rates"] == [0.1]
        assert params["churn_bias"] == "degree"
        assert params["resnapshot_every"] == 5
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "E21", "--quick", "--churn-rate", "0.1"])
        assert exit_info.value.code == 2

    def test_e21_identical_across_jobs(self):
        solo = run_experiment("E21", **self.E21_KWARGS, jobs=1)
        fanned = run_experiment("E21", **self.E21_KWARGS, jobs=2)
        assert solo.derived == fanned.derived
        assert solo.tables == fanned.tables

    def test_e21_identical_across_engines(self, reference_arms):
        default = run_experiment("E21", **self.E21_KWARGS)
        with reference_arms():
            serial = run_experiment("E21", **self.E21_KWARGS)
        assert serial.derived == default.derived
        assert serial.tables == default.tables

    def test_e22_derived_surface(self):
        result = run_experiment(
            "E22", size=80, remove_fractions=(0.2, 0.6), num_graphs=2
        )
        assert "bias_gap@mid" in result.derived
        for bias in CHURN_BIASES:
            for fraction in (0.2, 0.6):
                assert f"giant/{bias}@{fraction:g}" in result.derived
