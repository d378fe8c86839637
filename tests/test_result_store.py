"""Tests for the persistent trial-result store (`repro.runner.store`).

Covers the cache round-trip, params-hash stability under dict
reordering, recovery from a corrupted entry or database, processes and
connections sharing one directory, and the core promise: a warm cache
means zero recomputation.
"""

from __future__ import annotations

import os
import sqlite3
import threading

import pytest

from repro.runner import (
    MISS,
    TrialSpec,
    TrialStore,
    params_hash,
    run_trials,
    trial_ref,
)

#: Incremented by every *execution* of counting_trial (cache hits must
#: leave it untouched).  Reset per-test via the fixture below.
CALLS = []


def counting_trial(*, label: str, seed: int = 0) -> dict:
    CALLS.append((label, seed))
    return {"label": label, "seed": seed, "value": seed * 3 + 1}


@pytest.fixture(autouse=True)
def _reset_calls():
    CALLS.clear()
    yield
    CALLS.clear()


COUNTING = trial_ref(counting_trial)


def _spec(seed: int = 1, label: str = "x") -> TrialSpec:
    return TrialSpec(
        experiment_id="T",
        trial=COUNTING,
        params={"label": label},
        seed=seed,
    )


class TestRoundTrip:
    def test_put_then_get(self, tmp_path):
        store = TrialStore(tmp_path)
        spec = _spec()
        assert store.get(spec) is MISS
        store.put(spec, {"a": 1, "b": [1, 2.5, "s"]})
        assert store.get(spec) == {"a": 1, "b": [1, 2.5, "s"]}

    def test_none_is_a_valid_cached_value(self, tmp_path):
        store = TrialStore(tmp_path)
        spec = _spec()
        store.put(spec, None)
        assert store.get(spec) is None

    def test_keys_partition_by_experiment_params_and_seed(self, tmp_path):
        store = TrialStore(tmp_path)
        base = _spec(seed=1, label="x")
        store.put(base, "base")
        assert store.get(_spec(seed=2, label="x")) is MISS
        assert store.get(_spec(seed=1, label="y")) is MISS
        other_experiment = TrialSpec(
            "U", COUNTING, {"label": "x"}, seed=1
        )
        assert store.get(other_experiment) is MISS

    def test_floats_round_trip_bit_exact(self, tmp_path):
        # Replayed tables must print the same digits as computed ones.
        store = TrialStore(tmp_path)
        values = [0.1 + 0.2, 1 / 3, 2.0**-1074, 1e308, -0.0]
        specs = [_spec(seed=s) for s in range(len(values))]
        for spec, value in zip(specs, values):
            store.put(spec, value)
        for replayed in (
            [store.get(spec) for spec in specs],
            store.get_many(specs),
        ):
            assert [v.hex() for v in replayed] == [
                v.hex() for v in values
            ]

    def test_values_survive_reopening_the_directory(self, tmp_path):
        first = TrialStore(tmp_path)
        first.put(_spec(), {"kept": True})
        first._reset_connection()
        assert TrialStore(tmp_path).get(_spec()) == {"kept": True}


class TestParamsHash:
    def test_stable_across_dict_ordering(self):
        forward = {"size": 100, "portfolio": "weak", "budget": None}
        backward = {"budget": None, "portfolio": "weak", "size": 100}
        assert params_hash("m:f", forward) == params_hash(
            "m:f", backward
        )

    def test_nested_ordering_and_sequences(self):
        a = {"family": {"model": "mori", "p": 0.5, "m": 1}, "grid": [1, 2]}
        b = {"grid": [1, 2], "family": {"m": 1, "p": 0.5, "model": "mori"}}
        assert params_hash("m:f", a) == params_hash("m:f", b)
        # Tuples and lists serialize identically (both JSON arrays).
        assert params_hash("m:f", {"grid": (1, 2)}) == params_hash(
            "m:f", {"grid": [1, 2]}
        )

    def test_sensitive_to_values_and_trial(self):
        params = {"size": 100}
        assert params_hash("m:f", params) != params_hash(
            "m:f", {"size": 101}
        )
        assert params_hash("m:f", params) != params_hash(
            "m:g", params
        )

    def test_rejects_unserializable_params(self):
        with pytest.raises(TypeError):
            params_hash("m:f", {"fn": object()})


class TestCorruptionRecovery:
    def test_corrupted_entry_recomputes_through_runner(self, tmp_path):
        store = TrialStore(tmp_path)
        spec = _spec()
        run_trials([spec], store=store)
        experiment_id, digest, seed = spec.key()
        connection = sqlite3.connect(store.db_path)
        with connection:
            connection.execute(
                "UPDATE trials SET value = 'garbage' WHERE "
                "experiment_id = ? AND params_hash = ? AND seed = ?",
                (experiment_id, digest, str(seed)),
            )
        connection.close()
        outcomes = run_trials([spec], store=store)
        assert outcomes[0].from_cache is False
        assert outcomes[0].value["value"] == spec.seed * 3 + 1
        assert len(CALLS) == 2  # recomputed exactly once
        assert store.get(spec) == outcomes[0].value  # and rewritten

    def test_truncated_value_treated_as_miss_and_rewritten(self, tmp_path):
        # A value column cut off mid-JSON (foreign bytes, not a torn
        # transaction) is a miss in both lookups and the runner's next
        # put replaces it.
        store = TrialStore(tmp_path)
        spec = _spec()
        run_trials([spec], store=store)
        experiment_id, digest, seed = spec.key()
        connection = sqlite3.connect(store.db_path)
        with connection:
            connection.execute(
                "UPDATE trials SET value = substr(value, 1, 9) WHERE "
                "experiment_id = ? AND params_hash = ? AND seed = ?",
                (experiment_id, digest, str(seed)),
            )
        connection.close()
        assert store.get(spec) is MISS
        assert store.get_many([spec]) == [MISS]
        outcomes = run_trials([spec], store=store)
        assert outcomes[0].from_cache is False
        assert store.get(spec) == outcomes[0].value

    def test_foreign_trials_table_reads_as_misses(self, tmp_path):
        # A trials.sqlite written by something else, with a table of
        # the same name and another shape: lookups are misses.
        connection = sqlite3.connect(tmp_path / TrialStore.DB_FILENAME)
        with connection:
            connection.execute("CREATE TABLE trials (x)")
            connection.execute("INSERT INTO trials VALUES (1)")
        connection.close()
        store = TrialStore(tmp_path)
        assert store.get(_spec()) is MISS
        assert store.get_many([_spec(seed=s) for s in range(3)]) == (
            [MISS] * 3
        )

    def test_unopenable_database_path_reads_as_misses(self, tmp_path):
        # A directory where the database file belongs cannot be opened
        # at all; lookups are misses and the directory is left alone.
        os.mkdir(tmp_path / TrialStore.DB_FILENAME)
        store = TrialStore(tmp_path)
        assert store.get(_spec()) is MISS
        assert store.get_many([_spec(), _spec(seed=2)]) == [MISS, MISS]
        assert os.path.isdir(tmp_path / TrialStore.DB_FILENAME)


class TestSharedCacheRaces:
    """Two processes sharing one --cache-dir never lose each other's
    committed entries and never raise."""

    def test_two_process_churn_never_loses_a_committed_put(
        self, tmp_path
    ):
        """Process B keeps putting one entry while A keeps reading it.
        A must only ever see MISS or a valid value (never an
        exception), and a final committed put must stick.
        """
        import subprocess
        import sys
        import textwrap

        store = TrialStore(tmp_path)
        spec = _spec()
        script = textwrap.dedent(
            f"""
            import sys
            sys.path.insert(0, {os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")!r})
            sys.path.insert(0, {os.path.dirname(os.path.abspath(__file__))!r})
            from test_result_store import _spec
            from repro.runner import TrialStore
            store = TrialStore({str(tmp_path)!r})
            spec = _spec()
            for round in range(300):
                store.put(spec, {{"round": round}})
            """
        )
        writer = subprocess.Popen([sys.executable, "-c", script])
        try:
            observed = []
            while writer.poll() is None:
                observed.append(store.get(spec))
                observed.extend(store.get_many([spec, _spec(seed=2)]))
        finally:
            assert writer.wait(timeout=120) == 0
        assert observed
        for value in observed:
            assert value is MISS or (
                isinstance(value, dict) and "round" in value
            )
        assert store.get(spec) == {"round": 299}
        store.put(spec, {"round": "final"})
        assert TrialStore(tmp_path).get(spec) == {"round": "final"}

    def test_rewrite_by_another_connection_is_seen(self, tmp_path):
        # The store caches no values: a row rewritten by another
        # process after this store opened its connection is read fresh.
        store = TrialStore(tmp_path)
        spec = _spec()
        store.put(spec, "old")
        assert store.get(spec) == "old"
        TrialStore(tmp_path).put(spec, "new")
        assert store.get(spec) == "new"
        assert store.get_many([spec]) == ["new"]

    def test_uncommitted_write_elsewhere_does_not_block_reads(
        self, tmp_path
    ):
        # WAL readers see the last committed row while another
        # connection holds the write lock mid-transaction.
        store = TrialStore(tmp_path)
        spec = _spec()
        store.put(spec, "committed")
        other = sqlite3.connect(store.db_path, isolation_level=None)
        try:
            other.execute("BEGIN IMMEDIATE")
            other.execute("UPDATE trials SET value = '\"uncommitted\"'")
            assert store.get(spec) == "committed"
            assert store.get_many([spec]) == ["committed"]
        finally:
            other.execute("ROLLBACK")
            other.close()
        assert store.get(spec) == "committed"

    def test_put_waits_out_another_writers_lock(self, tmp_path):
        # A put that meets another connection's open write transaction
        # waits for it instead of failing, and both writes land.
        store = TrialStore(tmp_path)
        store.put(_spec(seed=1), "first")
        other = sqlite3.connect(
            store.db_path, isolation_level=None, check_same_thread=False
        )
        other.execute("BEGIN IMMEDIATE")
        other.execute("UPDATE trials SET value = '\"other\"'")
        releaser = threading.Timer(0.5, other.execute, ("COMMIT",))
        releaser.start()
        try:
            assert other.in_transaction
            store.put(_spec(seed=2), "second")
        finally:
            releaser.join(timeout=60)
            other.close()
        assert store.get_many([_spec(seed=1), _spec(seed=2)]) == [
            "other", "second",
        ]

    def test_two_stores_in_one_process_share_the_directory(
        self, tmp_path
    ):
        # Two stores over one directory (two experiments of one
        # ``run all``) each see what the other committed.
        left, right = TrialStore(tmp_path), TrialStore(tmp_path)
        for seed in range(6):
            (left if seed % 2 else right).put(_spec(seed=seed), seed)
        specs = [_spec(seed=s) for s in range(6)]
        assert left.get_many(specs) == list(range(6))
        assert right.get_many(specs) == list(range(6))


class TestCacheSkipsRecompute:
    def test_second_run_executes_nothing(self, tmp_path):
        store = TrialStore(tmp_path)
        specs = [_spec(seed=s) for s in range(5)]
        first = run_trials(specs, store=store)
        assert len(CALLS) == 5
        assert all(not r.from_cache for r in first)

        second = run_trials(specs, store=store)
        assert len(CALLS) == 5  # no new executions
        assert all(r.from_cache for r in second)
        assert [r.value for r in first] == [r.value for r in second]

    def test_partial_cache_runs_only_misses(self, tmp_path):
        store = TrialStore(tmp_path)
        specs = [_spec(seed=s) for s in range(4)]
        run_trials(specs[:2], store=store)
        CALLS.clear()
        outcomes = run_trials(specs, store=store)
        assert [c[1] for c in CALLS] == [2, 3]
        assert [o.from_cache for o in outcomes] == [
            True, True, False, False,
        ]

    def test_reopened_store_replays_without_recompute(self, tmp_path):
        specs = [_spec(seed=s) for s in range(3)]
        first = run_trials(specs, store=TrialStore(tmp_path))
        again = run_trials(specs, store=TrialStore(tmp_path))
        assert len(CALLS) == 3
        assert all(r.from_cache for r in again)
        assert [r.value for r in again] == [r.value for r in first]

    def test_cached_experiment_rerun_executes_no_trials(
        self, tmp_path, monkeypatch
    ):
        """E6 with a warm cache completes without recomputing a trial."""
        from repro.core import run_experiment

        cache = str(tmp_path / "cache")
        first = run_experiment("E6", n=300, seed=6, cache_dir=cache)

        def exploding_execute(self):
            raise AssertionError(
                f"trial recomputed despite warm cache: {self}"
            )

        monkeypatch.setattr(TrialSpec, "execute", exploding_execute)
        second = run_experiment("E6", n=300, seed=6, cache_dir=cache)
        assert first.derived == second.derived

    def test_different_params_do_not_share_cache(self, tmp_path):
        from repro.core import run_experiment

        cache = str(tmp_path / "cache")
        small = run_experiment("E6", n=300, seed=6, cache_dir=cache)
        larger = run_experiment("E6", n=400, seed=6, cache_dir=cache)
        assert small.derived != larger.derived
