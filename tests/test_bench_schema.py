"""Fast validation of the committed benchmark-trajectory records.

``BENCH_PR2.json`` .. ``BENCH_PR10.json`` are frozen history: each
recorded one point of the old per-PR bench trajectory and nothing
regenerates them any more (current measurements come from
``perfbench/``; see ``perfbench/README.md``).  These tests never run a
benchmark but pin the committed artifacts, so a stray edit to the
history fails here: the schema the trajectory tooling consumes and
each point's recorded acceptance claim (>= 3x on the PR2 flooding/BFS
cell batch; >= 2x on the PR3 grid-realisation workload; >= 3x on the
PR4 ensemble-vs-serial walk cell, frozen backend with numpy; the PR5
registry-enumeration block covering E1..E20; >= 5x on the PR6
vectorized-vs-serial Mori generation at n=10^6, with the bench-built
corpus passing ``verify``; >= 2x warm trial replay and >= 5x fewer
inodes for the PR7 sqlite store vs the json-files baseline, with the
in-bench migration verifying every record bit-identical; >= 3x for
the PR8 overlay churn+search workload vs rebuilding a snapshot per
churn step, with both strategies digest- and request-identical;
>= 2x for the PR9 shared-memory dispatch vs pickling the CSR into
every spec, on bit-identical trial values, with the service-load
block recording p50/p99 latency and sustained qps under >= 4
concurrent clients; the PR10 serving arms and their gates).  The live
registry surface is pinned in ``tests/test_registry.py``.
"""

from __future__ import annotations

import json
import os

import pytest

_ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
BENCH_PATH = os.path.join(_ROOT, "BENCH_PR2.json")
BENCH_PR3_PATH = os.path.join(_ROOT, "BENCH_PR3.json")
BENCH_PR4_PATH = os.path.join(_ROOT, "BENCH_PR4.json")
BENCH_PR5_PATH = os.path.join(_ROOT, "BENCH_PR5.json")
BENCH_PR6_PATH = os.path.join(_ROOT, "BENCH_PR6.json")
BENCH_PR7_PATH = os.path.join(_ROOT, "BENCH_PR7.json")
BENCH_PR8_PATH = os.path.join(_ROOT, "BENCH_PR8.json")
BENCH_PR9_PATH = os.path.join(_ROOT, "BENCH_PR9.json")
BENCH_PR10_PATH = os.path.join(_ROOT, "BENCH_PR10.json")

VALID_BACKENDS = {"frozen", "multigraph"}
VALID_MODES = {"independent", "trajectory"}
VALID_ENGINES = {"serial", "ensemble"}
VALID_GENERATORS = {"serial", "vectorized"}
VALID_STORE_BACKENDS = {"json-files", "sqlite"}
VALID_STRATEGIES = {"overlay", "rebuild-per-step"}
VALID_DISPATCHES = {"pickle-per-spec", "shared-memory", "service"}
#: PR 10's serving arms get their own dispatch vocabulary — PR 9's
#: schema test pins its records to exactly VALID_DISPATCHES.
VALID_SERVING_DISPATCHES = {"per-query", "coalesced", "cache-warm"}


def _load_frozen(path):
    assert os.path.exists(path), (
        f"{os.path.basename(path)} missing; it is frozen history and "
        "must stay committed"
    )
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def payload():
    return _load_frozen(BENCH_PATH)


class TestBenchSchema:
    def test_schema_version(self, payload):
        assert payload["schema"] == "repro-bench/v1"

    def test_records_shape(self, payload):
        records = payload["records"]
        assert records, "bench trajectory must not be empty"
        for record in records:
            assert isinstance(record["experiment"], str)
            assert record["experiment"].startswith("E")
            assert isinstance(record["n"], int) and record["n"] > 0
            assert isinstance(record["wall_seconds"], (int, float))
            assert record["wall_seconds"] >= 0
            assert record["backend"] in VALID_BACKENDS

    def test_both_backends_per_experiment(self, payload):
        seen: dict = {}
        for record in payload["records"]:
            seen.setdefault(record["experiment"], set()).add(
                record["backend"]
            )
        for experiment_id in ("E1", "E3", "E17"):
            assert seen.get(experiment_id) == VALID_BACKENDS, (
                f"{experiment_id} must be timed on both backends"
            )

    def test_speedup_block(self, payload):
        speedup = payload["speedup"]
        assert speedup["workload"] == "e1-flooding-bfs-cells"
        assert speedup["n"] == 100_000
        assert speedup["cells"] >= 1
        for key in (
            "multigraph_rebuild_seconds",
            "multigraph_shared_seconds",
            "frozen_batched_seconds",
        ):
            assert speedup[key] > 0

    def test_recorded_acceptance_speedup(self, payload):
        """The committed run met the PR's >= 3x acceptance bar."""
        speedup = payload["speedup"]
        assert speedup["speedup_vs_rebuild"] >= 3.0
        # Self-consistency of the recorded ratios (2 d.p. rounding).
        expected = (
            speedup["multigraph_rebuild_seconds"]
            / speedup["frozen_batched_seconds"]
        )
        assert speedup["speedup_vs_rebuild"] == pytest.approx(
            expected, abs=0.01
        )


@pytest.fixture(scope="module")
def pr3_payload():
    return _load_frozen(BENCH_PR3_PATH)


class TestBenchPR3Schema:
    """The growth-trajectory checkpoint-engine point."""

    def test_schema_version(self, pr3_payload):
        assert pr3_payload["schema"] == "repro-bench/v1"

    def test_records_shape(self, pr3_payload):
        records = pr3_payload["records"]
        assert records, "bench trajectory must not be empty"
        for record in records:
            assert isinstance(record["experiment"], str)
            assert record["experiment"].startswith("E")
            assert isinstance(record["n"], int) and record["n"] > 0
            assert isinstance(record["wall_seconds"], (int, float))
            assert record["wall_seconds"] >= 0
            assert record["backend"] in VALID_BACKENDS
            assert record["mode"] in VALID_MODES

    def test_e17_timed_per_backend_and_mode(self, pr3_payload):
        seen: dict = {}
        for record in pr3_payload["records"]:
            if record["experiment"] == "E17":
                seen.setdefault(record["backend"], set()).add(
                    record["mode"]
                )
        assert set(seen) == VALID_BACKENDS
        for backend, modes in seen.items():
            assert modes == VALID_MODES, (
                f"E17 must be timed in both modes on {backend}"
            )

    def test_e19_recorded(self, pr3_payload):
        backends = {
            record["backend"]
            for record in pr3_payload["records"]
            if record["experiment"] == "E19"
        }
        assert backends == VALID_BACKENDS

    def test_trajectory_speedup_block(self, pr3_payload):
        speedup = pr3_payload["trajectory_speedup"]
        assert speedup["workload"] == "e17-grid-realisations"
        assert speedup["family"].startswith("mori")
        assert len(speedup["sizes"]) >= 4
        assert speedup["sizes"] == sorted(speedup["sizes"])
        assert set(speedup["per_backend"]) == VALID_BACKENDS
        for numbers in speedup["per_backend"].values():
            assert numbers["independent_seconds"] > 0
            assert numbers["trajectory_seconds"] > 0
            expected = (
                numbers["independent_seconds"]
                / numbers["trajectory_seconds"]
            )
            assert numbers["speedup"] == pytest.approx(
                expected, abs=0.01
            )

    def test_recorded_acceptance_speedup(self, pr3_payload):
        """The committed run met the PR's >= 2x acceptance bar on the
        gate backend, and the trajectory layout wins on every backend."""
        speedup = pr3_payload["trajectory_speedup"]
        gate = speedup["per_backend"][speedup["acceptance_backend"]]
        assert gate["speedup"] >= 2.0
        for numbers in speedup["per_backend"].values():
            assert numbers["speedup"] >= 1.0


@pytest.fixture(scope="module")
def pr4_payload():
    return _load_frozen(BENCH_PR4_PATH)


class TestBenchPR4Schema:
    """The vectorized walker-ensemble engine point."""

    def test_schema_version(self, pr4_payload):
        assert pr4_payload["schema"] == "repro-bench/v1"

    def test_records_shape(self, pr4_payload):
        records = pr4_payload["records"]
        assert records, "bench trajectory must not be empty"
        for record in records:
            assert isinstance(record["experiment"], str)
            assert record["experiment"].startswith("E")
            assert isinstance(record["n"], int) and record["n"] > 0
            assert isinstance(record["wall_seconds"], (int, float))
            assert record["wall_seconds"] >= 0
            assert record["backend"] in VALID_BACKENDS
            assert record["engine"] in VALID_ENGINES

    def test_walk_experiments_timed_per_engine(self, pr4_payload):
        seen: dict = {}
        for record in pr4_payload["records"]:
            seen.setdefault(record["experiment"], set()).add(
                record["engine"]
            )
        for experiment_id in ("E1", "E3"):
            assert seen.get(experiment_id) == VALID_ENGINES, (
                f"{experiment_id} must be timed under both engines"
            )

    def test_ensemble_speedup_block(self, pr4_payload):
        speedup = pr4_payload["ensemble_speedup"]
        assert speedup["workload"] == "walk-cells"
        assert speedup["family"].startswith("mori")
        assert speedup["n"] == 100_000
        assert speedup["runs_per_cell"] >= 1
        assert speedup["budget"] >= 1
        assert speedup["backend"] == "frozen"
        per_algorithm = speedup["per_algorithm"]
        # The whole walk family is measured, not a favourable subset.
        assert set(per_algorithm) == {
            "random-walk",
            "self-avoiding-walk",
            "restart-walk-r0.1",
        }
        for numbers in per_algorithm.values():
            assert numbers["serial_seconds"] > 0
            assert numbers["ensemble_seconds"] > 0
            expected = (
                numbers["serial_seconds"] / numbers["ensemble_seconds"]
            )
            assert numbers["speedup"] == pytest.approx(
                expected, abs=0.01
            )

    def test_recorded_acceptance_speedup(self, pr4_payload):
        """The committed run met the PR's >= 3x acceptance bar on the
        gate cell, and the ensemble engine wins on every walk cell."""
        speedup = pr4_payload["ensemble_speedup"]
        gate = speedup["per_algorithm"][
            speedup["acceptance_algorithm"]
        ]
        assert gate["speedup"] >= 3.0
        for numbers in speedup["per_algorithm"].values():
            assert numbers["speedup"] >= 1.0


@pytest.fixture(scope="module")
def pr5_payload():
    return _load_frozen(BENCH_PR5_PATH)


class TestBenchPR5Schema:
    """The declarative experiment-registry point."""

    def test_schema_version(self, pr5_payload):
        assert pr5_payload["schema"] == "repro-bench/v1"

    def test_records_shape(self, pr5_payload):
        records = pr5_payload["records"]
        assert records, "bench trajectory must not be empty"
        for record in records:
            assert isinstance(record["experiment"], str)
            assert record["experiment"].startswith("E")
            assert isinstance(record["n"], int) and record["n"] > 0
            assert isinstance(record["wall_seconds"], (int, float))
            assert record["wall_seconds"] >= 0
            assert record["backend"] in VALID_BACKENDS
            assert record["engine"] in VALID_ENGINES

    def test_e20_timed_per_declared_engine(self, pr5_payload):
        engines = {
            record["engine"]
            for record in pr5_payload["records"]
            if record["experiment"] == "E20"
        }
        assert engines == VALID_ENGINES, (
            "E20 must be timed under both declared engines"
        )

    def test_registry_block_shape(self, pr5_payload):
        registry = pr5_payload["registry"]
        # The artifact is a frozen snapshot of the registry at the
        # time it was written; the PR5 claim is that the original
        # E1..E20 surface is fully declared in it.
        assert registry["count"] == len(registry["experiments"])
        assert registry["count"] >= 20
        for experiment_id in (f"E{i}" for i in range(1, 21)):
            assert experiment_id in registry["experiments"]
        assert registry["enumeration_seconds"] >= 0
        matrix = registry["capability_matrix"]
        assert set(matrix) == set(registry["experiments"])
        valid_capabilities = {"jobs", "cache", "backend", "engine",
                              "mode", "generator", "store"}
        for capabilities in matrix.values():
            assert set(capabilities) <= valid_capabilities


@pytest.fixture(scope="module")
def pr6_payload():
    return _load_frozen(BENCH_PR6_PATH)


class TestBenchPR6Schema:
    """The vectorized generation engine + corpus store point."""

    def test_schema_version(self, pr6_payload):
        assert pr6_payload["schema"] == "repro-bench/v1"

    def test_records_shape(self, pr6_payload):
        records = pr6_payload["records"]
        assert records, "bench trajectory must not be empty"
        for record in records:
            assert isinstance(record["experiment"], str)
            assert record["experiment"].startswith("E")
            assert isinstance(record["n"], int) and record["n"] > 0
            assert isinstance(record["wall_seconds"], (int, float))
            assert record["wall_seconds"] >= 0
            assert record["backend"] in VALID_BACKENDS
            assert record["generator"] in VALID_GENERATORS

    def test_e17_timed_per_generator(self, pr6_payload):
        generators = {
            record["generator"]
            for record in pr6_payload["records"]
            if record["experiment"] == "E17"
        }
        assert generators == VALID_GENERATORS, (
            "E17 must be timed under both generators"
        )

    def test_generation_speedup_block(self, pr6_payload):
        speedup = pr6_payload["generation_speedup"]
        assert speedup["workload"] == "graph-generation"
        assert speedup["backend"] == "frozen"
        per_model = speedup["per_model"]
        # The whole kernel family is measured, not a favourable subset.
        assert set(per_model) == {"mori", "ba", "cooper-frieze"}
        for numbers in per_model.values():
            assert numbers["n"] >= 100_000
            assert numbers["serial_seconds"] > 0
            assert numbers["vectorized_seconds"] > 0
            expected = (
                numbers["serial_seconds"]
                / numbers["vectorized_seconds"]
            )
            assert numbers["speedup"] == pytest.approx(
                expected, abs=0.01
            )

    def test_recorded_acceptance_speedup(self, pr6_payload):
        """The committed run met the PR's >= 5x acceptance bar on the
        gate model, and the vectorized engine wins on every kernel."""
        speedup = pr6_payload["generation_speedup"]
        gate = speedup["per_model"][speedup["acceptance_model"]]
        assert gate["speedup"] >= 5.0
        for numbers in speedup["per_model"].values():
            assert numbers["speedup"] >= 1.0

    def test_corpus_block(self, pr6_payload):
        corpus = pr6_payload["corpus"]
        assert corpus["family"].startswith("mori")
        assert len(corpus["sizes"]) >= 2
        assert corpus["entries"] == len(corpus["sizes"])
        assert corpus["cold_seconds"] > 0
        assert corpus["warm_seconds"] > 0
        expected = corpus["cold_seconds"] / corpus["warm_seconds"]
        assert corpus["speedup"] == pytest.approx(expected, abs=0.01)
        # The bench run verified every entry it wrote.
        assert corpus["verify_ok"] is True
        assert corpus["verified_entries"] == corpus["entries"]


@pytest.fixture(scope="module")
def pr7_payload():
    return _load_frozen(BENCH_PR7_PATH)


class TestBenchPR7Schema:
    """The pluggable trial-store point."""

    def test_schema_version(self, pr7_payload):
        assert pr7_payload["schema"] == "repro-bench/v1"

    def test_records_shape(self, pr7_payload):
        records = pr7_payload["records"]
        assert records, "bench trajectory must not be empty"
        for record in records:
            assert isinstance(record["experiment"], str)
            assert record["experiment"].startswith("E")
            assert isinstance(record["n"], int) and record["n"] > 0
            assert isinstance(record["wall_seconds"], (int, float))
            assert record["wall_seconds"] >= 0
            assert record["backend"] in VALID_BACKENDS
            assert record["store_backend"] in VALID_STORE_BACKENDS
            assert record["phase"] in {"cold", "warm"}

    def test_e17_timed_cold_and_warm_per_store_backend(
        self, pr7_payload
    ):
        seen: dict = {}
        for record in pr7_payload["records"]:
            if record["experiment"] == "E17":
                seen.setdefault(record["store_backend"], set()).add(
                    record["phase"]
                )
        assert set(seen) == VALID_STORE_BACKENDS
        for backend, phases in seen.items():
            assert phases == {"cold", "warm"}, (
                f"E17 must be timed cold and warm on {backend}"
            )

    def test_store_speedup_block(self, pr7_payload):
        speedup = pr7_payload["store_speedup"]
        assert speedup["workload"] == "trial-replay"
        assert speedup["entries"] >= 100_000
        per_backend = speedup["per_backend"]
        # Both backends are measured, not a favourable subset.
        assert set(per_backend) == VALID_STORE_BACKENDS
        for numbers in per_backend.values():
            assert numbers["entries"] == speedup["entries"]
            assert numbers["put_seconds"] > 0
            assert numbers["warm_get_seconds"] > 0
            assert numbers["inodes"] >= 1
            assert numbers["bytes"] > 0
        baseline = per_backend[speedup["acceptance_baseline"]]
        candidate = per_backend["sqlite"]
        assert speedup["warm_replay_speedup"] == pytest.approx(
            baseline["warm_get_seconds"]
            / candidate["warm_get_seconds"],
            abs=0.01,
        )
        assert speedup["inode_ratio"] == pytest.approx(
            baseline["inodes"] / candidate["inodes"], abs=0.01
        )

    def test_recorded_acceptance_gates(self, pr7_payload):
        """The committed run met both acceptance bars: warm replay
        >= 2x faster and >= 5x fewer inodes than json-files."""
        speedup = pr7_payload["store_speedup"]
        assert speedup["acceptance_baseline"] == "json-files"
        assert speedup["warm_replay_speedup"] >= 2.0
        assert speedup["inode_ratio"] >= 5.0

    def test_migrate_block(self, pr7_payload):
        """The bench migrated the populated json tree and verified
        every replayed value bit-identical."""
        migrate = pr7_payload["store_speedup"]["migrate"]
        assert migrate["source"] == "json-files"
        assert migrate["destination"] == "sqlite"
        assert migrate["migrated"] == (
            pr7_payload["store_speedup"]["entries"]
        )
        assert migrate["skipped_stale"] == 0
        assert migrate["verify_failed"] == 0
        assert migrate["seconds"] > 0
        assert migrate["verified_identical"] is True


@pytest.fixture(scope="module")
def pr8_payload():
    return _load_frozen(BENCH_PR8_PATH)


class TestBenchPR8Schema:
    """The dynamic-graph overlay (churn + search) point."""

    def test_schema_version(self, pr8_payload):
        assert pr8_payload["schema"] == "repro-bench/v1"

    def test_records_shape(self, pr8_payload):
        records = pr8_payload["records"]
        assert records, "bench trajectory must not be empty"
        for record in records:
            assert isinstance(record["experiment"], str)
            assert record["experiment"].startswith("E")
            assert isinstance(record["n"], int) and record["n"] > 0
            assert isinstance(record["wall_seconds"], (int, float))
            assert record["wall_seconds"] >= 0
            assert record["backend"] in VALID_BACKENDS
            assert record["engine"] in VALID_ENGINES
            assert record["strategy"] in VALID_STRATEGIES

    def test_e21_timed_per_declared_engine(self, pr8_payload):
        engines = {
            record["engine"]
            for record in pr8_payload["records"]
            if record["experiment"] == "E21"
            and record["strategy"] == "overlay"
        }
        assert engines == VALID_ENGINES, (
            "E21 must be timed under both declared engines"
        )

    def test_both_strategies_timed_at_gate_scale(self, pr8_payload):
        strategies = {
            record["strategy"]
            for record in pr8_payload["records"]
            if record["n"] == 100_000
        }
        assert strategies == VALID_STRATEGIES

    def test_overlay_speedup_block(self, pr8_payload):
        speedup = pr8_payload["overlay_speedup"]
        assert speedup["workload"] == "churn-then-search"
        assert speedup["family"].startswith("mori")
        assert speedup["n"] == 100_000
        assert speedup["churn_steps"] >= 1
        assert speedup["search_budget"] >= 1
        assert speedup["search_runs"] >= 1
        per_strategy = speedup["per_strategy"]
        # Both strategies are measured, not a favourable subset.
        assert set(per_strategy) == VALID_STRATEGIES
        for numbers in per_strategy.values():
            assert numbers["churn_seconds"] >= 0
            assert numbers["search_seconds"] > 0
            assert numbers["total_seconds"] > 0
            assert numbers["search_requests"] >= 1
        expected = (
            per_strategy["rebuild-per-step"]["total_seconds"]
            / per_strategy["overlay"]["total_seconds"]
        )
        assert speedup["speedup_vs_rebuild"] == pytest.approx(
            expected, rel=0.01
        )

    def test_recorded_acceptance_speedup(self, pr8_payload):
        """The committed run met the PR's >= 3x acceptance bar, on
        identical outputs: both strategies ended on digest-equal
        graphs and spent identical search requests."""
        speedup = pr8_payload["overlay_speedup"]
        assert speedup["acceptance_baseline"] == "rebuild-per-step"
        assert speedup["speedup_vs_rebuild"] >= 3.0
        assert speedup["digests_equal"] is True
        assert speedup["requests_equal"] is True
        assert len(speedup["graph_digest"]) == 64
        per_strategy = speedup["per_strategy"]
        assert (
            per_strategy["overlay"]["search_requests"]
            == per_strategy["rebuild-per-step"]["search_requests"]
        )


@pytest.fixture(scope="module")
def pr9_payload():
    return _load_frozen(BENCH_PR9_PATH)


class TestBenchPR9Schema:
    """The shared-memory dispatch + search-service point."""

    def test_schema_version(self, pr9_payload):
        assert pr9_payload["schema"] == "repro-bench/v1"

    def test_records_shape(self, pr9_payload):
        records = pr9_payload["records"]
        assert records, "bench trajectory must not be empty"
        for record in records:
            assert isinstance(record["experiment"], str)
            assert record["experiment"].startswith("E")
            assert isinstance(record["n"], int) and record["n"] > 0
            assert isinstance(record["wall_seconds"], (int, float))
            assert record["wall_seconds"] >= 0
            assert record["backend"] in VALID_BACKENDS
            assert record["dispatch"] in VALID_DISPATCHES

    def test_both_dispatch_arms_timed(self, pr9_payload):
        dispatches = {
            record["dispatch"] for record in pr9_payload["records"]
        }
        assert dispatches == VALID_DISPATCHES, (
            "both dispatch arms and the service run must be timed"
        )

    def test_shm_speedup_block(self, pr9_payload):
        speedup = pr9_payload["shm_speedup"]
        assert speedup["workload"] == "per-spec-graph-dispatch"
        assert speedup["family"].startswith("mori")
        assert speedup["n"] >= 10_000
        assert speedup["specs"] >= 1
        assert speedup["cells_per_spec"] >= 1
        assert speedup["budget"] >= 1
        assert speedup["jobs"] >= 2
        per_dispatch = speedup["per_dispatch"]
        # Both arms are measured, not a favourable subset.
        assert set(per_dispatch) == {
            "pickle-per-spec", "shared-memory",
        }
        for numbers in per_dispatch.values():
            assert numbers["seconds"] > 0
        expected = (
            per_dispatch["pickle-per-spec"]["seconds"]
            / per_dispatch["shared-memory"]["seconds"]
        )
        assert speedup["speedup_vs_pickle"] == pytest.approx(
            expected, rel=0.01
        )

    def test_service_load_block(self, pr9_payload):
        load = pr9_payload["service_load"]
        assert load["workload"] == "service-query-load"
        assert load["family"].startswith("mori")
        assert load["graphs"] >= 1
        assert load["workers"] >= 1
        assert load["queries"] >= load["clients"]
        assert load["wall_seconds"] > 0
        assert load["qps"] > 0
        assert 0 < load["p50_ms"] <= load["p99_ms"]
        assert load["mean_ms"] > 0

    def test_recorded_acceptance_speedup(self, pr9_payload):
        """The committed run met the PR's >= 2x acceptance bar on
        bit-identical trial values, and measured the service under
        the required >= 4 concurrent clients."""
        speedup = pr9_payload["shm_speedup"]
        assert speedup["acceptance_baseline"] == "pickle-per-spec"
        assert speedup["speedup_vs_pickle"] >= 2.0
        assert speedup["outputs_identical"] is True
        load = pr9_payload["service_load"]
        assert load["clients"] >= 4
        assert load["batch_identical"] is True


@pytest.fixture(scope="module")
def pr10_payload():
    return _load_frozen(BENCH_PR10_PATH)


class TestBenchPR10Schema:
    """The coalesced-serving + answer-cache point."""

    def test_schema_version(self, pr10_payload):
        assert pr10_payload["schema"] == "repro-bench/v1"

    def test_records_shape(self, pr10_payload):
        records = pr10_payload["records"]
        assert records, "bench trajectory must not be empty"
        for record in records:
            assert isinstance(record["experiment"], str)
            assert record["experiment"].startswith("E")
            assert isinstance(record["n"], int) and record["n"] > 0
            assert isinstance(record["wall_seconds"], (int, float))
            assert record["wall_seconds"] >= 0
            assert record["backend"] in VALID_BACKENDS
            assert record["dispatch"] in VALID_SERVING_DISPATCHES

    def test_all_serving_arms_timed(self, pr10_payload):
        dispatches = {
            record["dispatch"] for record in pr10_payload["records"]
        }
        assert dispatches == VALID_SERVING_DISPATCHES, (
            "the baseline, coalesced, and cache arms must all be timed"
        )

    def test_serving_block(self, pr10_payload):
        block = pr10_payload["serving_speedup"]
        assert block["workload"] == "service-query-coalescing"
        assert block["family"].startswith("mori")
        assert block["graphs"] >= 2
        assert block["workers"] >= 1
        assert block["queries"] >= block["clients"]
        assert block["batch_window_ms"] > 0
        assert block["batch_max"] >= 1
        assert block["cache_size"] >= 1
        assert block["engine"] in VALID_ENGINES
        per_dispatch = block["per_dispatch"]
        # Every arm measured, including the decomposition arm — not a
        # favourable subset.
        assert set(per_dispatch) == {
            "per-query",
            "per-query-nodelay",
            "coalesced",
            "cache-warm",
            "pool-cold-fill",
        }
        for numbers in per_dispatch.values():
            assert numbers["qps"] > 0
            assert numbers["wall_seconds"] > 0
            assert 0 < numbers["p50_ms"] <= numbers["p99_ms"]
        assert per_dispatch["coalesced"]["batches"] >= 1
        assert per_dispatch["coalesced"]["mean_batch"] >= 1.0
        assert per_dispatch["cache-warm"]["cache_hits"] >= 1

    def test_open_loop_block(self, pr10_payload):
        open_loop = pr10_payload["serving_speedup"]["open_loop"]
        assert set(open_loop) == {"coalesced", "per-query"}
        for arm in open_loop.values():
            assert arm["offered_qps"] > 0
            assert arm["clients"] > 1
            assert arm["qps"] > 0
            assert 0 < arm["p50_ms"] <= arm["p99_ms"]
        # The overload probe is where coalescing shows real depth:
        # the dispatcher must have formed multi-query batches.
        assert open_loop["coalesced"]["mean_batch"] > 1.0

    def test_service_stats_plumbed(self, pr10_payload):
        snapshot = pr10_payload["serving_speedup"]["service_stats"]
        assert snapshot["routes"]["search"]["count"] >= 1
        assert snapshot["batches"]["count"] >= 1
        assert snapshot["batches"]["size_distribution"]
        assert "hits" in snapshot["cache"]
        assert "p99_ms" in snapshot["routes"]["search"]

    def test_recorded_acceptance_gates(self, pr10_payload):
        """The committed run met the PR's acceptance bars: >= 3x
        sustained qps for batched dispatch over the PR 9 per-query
        path, cache-warm p50 below the pool-dispatch p50, and every
        answer bit-identical to the batch path."""
        block = pr10_payload["serving_speedup"]
        assert block["acceptance_baseline"].startswith("per-query")
        assert block["qps_speedup_vs_per_query"] >= 3.0
        per_dispatch = block["per_dispatch"]
        expected = (
            per_dispatch["coalesced"]["qps"]
            / per_dispatch["per-query"]["qps"]
        )
        assert block["qps_speedup_vs_per_query"] == pytest.approx(
            expected, rel=0.01
        )
        assert block["cache_p50_below_pool_p50"] is True
        assert (
            per_dispatch["cache-warm"]["p50_ms"]
            < per_dispatch["pool-cold-fill"]["p50_ms"]
        )
        assert block["outputs_identical"] is True
        assert block["clients"] >= 4
