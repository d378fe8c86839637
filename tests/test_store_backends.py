"""Tests for the trial store (`repro.runner.store`).

Five batteries:

* the store contract — round trip, key partitioning, ``get_many``
  order (including past the batching chunk), one connection serving
  several threads;
* versioned-record semantics — stale-fingerprint and old-format rows
  are MISS, never replayed, and a fresh ``put`` overwrites them;
* crash consistency — a half-committed transaction from a died
  process, a torn value column, flipped bytes and a garbage database
  file are always MISS and never an exception;
* the older json-files layout — a directory still holding one warns
  once, is not read and is left in place;
* the ``repro store stat/compact`` CLI, which never creates a store.
"""

from __future__ import annotations

import json
import os
import sqlite3
import stat as stat_module
import subprocess
import sys
import textwrap
import threading

import pytest

import repro
from repro.cli import main
from repro.runner import (
    MISS,
    RECORD_FORMAT,
    TrialSpec,
    TrialStore,
    record_fingerprint,
    run_trials,
    store_for,
    store_stats,
    reset_store_stats,
    trial_ref,
)
from repro.runner import store as store_module


def sample_trial(*, label: str, seed: int = 0) -> dict:
    return {"label": label, "seed": seed, "value": seed * 3 + 1}


def other_trial(*, label: str, seed: int = 0) -> int:
    return seed


SAMPLE = trial_ref(sample_trial)
OTHER = trial_ref(other_trial)


def _spec(seed: int = 1, label: str = "x") -> TrialSpec:
    return TrialSpec(
        experiment_id="T",
        trial=SAMPLE,
        params={"label": label},
        seed=seed,
    )


def _put_row(store, spec, value, /, **columns) -> None:
    """Write ``spec``'s row as ``store.put`` would, with ``columns``
    (``format``, ``fingerprint``, raw ``value`` text) overridden."""
    store.put(spec, value)
    experiment_id, digest, seed = spec.key()
    connection = sqlite3.connect(store.db_path)
    with connection:
        for column, text in columns.items():
            connection.execute(
                f"UPDATE trials SET {column} = ? WHERE experiment_id = ? "
                "AND params_hash = ? AND seed = ?",
                (text, experiment_id, digest, str(seed)),
            )
    connection.close()


def _json_tree(cache_dir, count=3):
    """An older json-files layout tree: one file per trial."""
    paths = []
    for seed in range(count):
        experiment_id, digest, _ = _spec(seed=seed).key()
        directory = os.path.join(cache_dir, experiment_id, digest)
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"{seed}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "experiment_id": experiment_id,
                    "trial": SAMPLE,
                    "params": {"label": "x"},
                    "seed": seed,
                    "value": seed,
                    "format": RECORD_FORMAT,
                    "fingerprint": record_fingerprint(SAMPLE),
                },
                handle,
            )
        paths.append(path)
    return paths


@pytest.fixture
def store(tmp_path):
    return TrialStore(tmp_path)


class TestStoreContract:
    """The get/put/get_many contract of the one store."""

    def test_round_trip(self, store):
        spec = _spec()
        assert store.get(spec) is MISS
        store.put(spec, {"a": 1, "b": [1, 2.5, "s", None]})
        assert store.get(spec) == {"a": 1, "b": [1, 2.5, "s", None]}

    def test_none_is_a_valid_cached_value(self, store):
        spec = _spec()
        store.put(spec, None)
        assert store.get(spec) is None

    def test_keys_partition(self, store):
        store.put(_spec(seed=1, label="x"), "base")
        assert store.get(_spec(seed=2, label="x")) is MISS
        assert store.get(_spec(seed=1, label="y")) is MISS
        assert (
            store.get(TrialSpec("U", SAMPLE, {"label": "x"}, 1))
            is MISS
        )

    def test_put_overwrites(self, store):
        spec = _spec()
        store.put(spec, "first")
        store.put(spec, "second")
        assert store.get(spec) == "second"

    def test_huge_seeds_round_trip(self, store):
        # Substream-derived trial seeds are arbitrary-precision ints,
        # far beyond a signed 64-bit column.
        spec = _spec(seed=2**96 + 17)
        store.put(spec, "wide")
        assert store.get(spec) == "wide"

    def test_get_many_preserves_order_past_chunking(self, store):
        # 2x the batching chunk plus change, half of them missing, in
        # interleaved order.
        present = [_spec(seed=s) for s in range(0, 1300, 2)]
        absent = [_spec(seed=s) for s in range(1, 1300, 2)]
        for index, spec in enumerate(present):
            store.put(spec, index)
        interleaved = [
            spec
            for pair in zip(present, absent)
            for spec in pair
        ]
        values = store.get_many(interleaved)
        assert values[0::2] == list(range(len(present)))
        assert all(value is MISS for value in values[1::2])

    def test_get_many_feeds_the_runner_tally(self, store):
        for seed in range(3):
            store.put(_spec(seed=seed), seed)
        reset_store_stats()
        results = run_trials(
            [_spec(seed=s) for s in range(4)], store=store
        )
        assert [r.from_cache for r in results] == [
            True, True, True, False,
        ]
        assert store_stats() == {"hits": 3, "misses": 1}

    def test_stat_counts_entries(self, store):
        for seed in range(4):
            store.put(_spec(seed=seed), seed)
        stats = store.stat()
        assert stats["entries"] == 4
        assert stats["stale"] == 0
        assert stats["bytes"] > 0
        assert stats["inodes"] >= 1

    def test_store_for(self, tmp_path):
        assert isinstance(store_for(tmp_path), TrialStore)
        assert store_for(None) is None

    def test_connection_serves_other_threads(self, store):
        # The connection is opened in this thread; a second thread that
        # is alive at the same time reads and writes through it.
        store.put(_spec(seed=1), "main")
        seen = {}

        def worker():
            seen["get"] = store.get(_spec(seed=1))
            seen["many"] = store.get_many([_spec(seed=1), _spec(seed=2)])
            store.put(_spec(seed=2), "worker")

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=60)
        assert seen == {"get": "main", "many": ["main", MISS]}
        assert store.get(_spec(seed=2)) == "worker"

    def test_threads_hammering_one_store(self, store):
        # Concurrent puts and gets through the one connection, more
        # threads than cores and frequent switches: every read is MISS
        # or the value its key was written with, every write lands and
        # the process tally counts every lookup.
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        reset_store_stats()
        errors = []

        def worker(offset):
            try:
                for seed in range(offset, 200, 8):
                    store.put(_spec(seed=seed), seed)
                    for probe in (seed, seed + 1):
                        value = store.get(_spec(seed=probe))
                        assert value is MISS or value == probe
            except Exception as error:  # noqa: BLE001 - asserted below
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(offset,))
            for offset in range(8)
        ]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert sum(store_stats().values()) == 2 * 200
        assert store.get_many([_spec(seed=s) for s in range(200)]) == (
            list(range(200))
        )


    def test_get_many_of_nothing(self, store):
        assert store.get_many([]) == []
        assert not os.path.exists(store.db_path)

    def test_get_many_repeated_spec(self, store):
        store.put(_spec(seed=1), "one")
        assert store.get_many(
            [_spec(seed=1), _spec(seed=2), _spec(seed=1)]
        ) == ["one", MISS, "one"]

    def test_get_many_decodes_awkward_values_in_one_batch(self, store):
        # The hot path joins every hit into one JSON array; values with
        # commas, brackets, quotes, nesting and nulls must come back
        # one per spec.
        values = [
            "a,b]", '"[', {"k": [1, {"n": None}]}, None, [], {}, -0.5,
            "\u00e9\u2192", True,
        ]
        specs = [_spec(seed=s) for s in range(len(values))]
        for spec, value in zip(specs, values):
            store.put(spec, value)
        assert store.get_many(specs) == values

    def test_sparse_batch_takes_keyed_lookups_past_chunking(self, store):
        # A batch covering under a quarter of the table reads by key,
        # TrialStore._SCAN_CHUNK keys per SELECT.
        total = 5 * (TrialStore._SCAN_CHUNK + 20)
        for seed in range(total):
            store.put(_spec(seed=seed), seed)
        wanted = list(range(total - 1, 0, -5)) + [total + 1]
        assert len(wanted) > TrialStore._SCAN_CHUNK
        assert len(wanted) * 4 < total
        values = store.get_many([_spec(seed=s) for s in wanted])
        assert values == wanted[:-1] + [MISS]

    def test_mixed_trial_batch_replays_each_trial(self, store):
        # Two trial functions in one batch: one scan per fingerprint.
        mixed = [
            TrialSpec("T", trial, {"label": "x"}, seed)
            for seed in range(3)
            for trial in (SAMPLE, OTHER)
        ]
        for index, spec in enumerate(mixed[:-1]):
            store.put(spec, index)
        assert store.get_many(mixed) == list(range(5)) + [MISS]

    def test_put_records_trial_and_params(self, store):
        # stat/compact judge staleness from the trial column; params
        # are kept readable beside the hash.
        store.put(_spec(label="y"), 1)
        connection = sqlite3.connect(store.db_path)
        try:
            rows = connection.execute(
                "SELECT trial, params, format, fingerprint FROM trials"
            ).fetchall()
        finally:
            connection.close()
        assert rows == [
            (
                SAMPLE,
                '{"label": "y"}',
                RECORD_FORMAT,
                record_fingerprint(SAMPLE),
            )
        ]


class TestVersionedRecords:
    """Records carry format + code fingerprint; a mismatch is a MISS."""

    def test_fingerprint_is_version_plus_trial(self):
        assert record_fingerprint(SAMPLE) == (
            f"{repro.__version__}/{SAMPLE}"
        )

    def test_stale_fingerprint_is_a_miss_until_overwritten(self, store):
        spec = _spec()
        _put_row(store, spec, "stale", fingerprint="0.0.0/old:fn")
        assert store.get(spec) is MISS
        assert store.get_many([spec]) == [MISS]
        store.put(spec, "fresh")
        assert store.get(spec) == "fresh"

    def test_format_bump_is_a_miss(self, store):
        spec = _spec()
        _put_row(store, spec, "v1", format=RECORD_FORMAT - 1)
        assert store.get(spec) is MISS
        assert store.get_many([spec]) == [MISS]

    def test_another_trials_fingerprint_is_a_miss(self, store):
        # A row stamped with a fingerprint that is current, but for a
        # different trial, is not replayed by either scan plan.
        spec = _spec()
        _put_row(
            store, spec, "foreign", fingerprint=record_fingerprint(OTHER)
        )
        other = TrialSpec("T", OTHER, {"label": "x"}, 5)
        store.put(other, "other")
        assert store.get(spec) is MISS
        assert store.get_many([spec]) == [MISS]
        assert store.get_many([spec, other]) == [MISS, "other"]

    def test_stale_rows_count_as_misses_in_the_tally(self, store):
        _put_row(store, _spec(seed=1), "old", fingerprint="0.0.0/old:fn")
        store.put(_spec(seed=2), "current")
        reset_store_stats()
        store.get(_spec(seed=1))
        store.get_many([_spec(seed=1), _spec(seed=2)])
        assert store_stats() == {"hits": 1, "misses": 2}

    def test_compact_of_a_current_store_removes_nothing(self, store):
        for seed in range(3):
            store.put(_spec(seed=seed), seed)
        assert store.compact() == 0
        assert store.get_many([_spec(seed=s) for s in range(3)]) == [
            0, 1, 2,
        ]

    def test_stat_and_compact_report_stale(self, store):
        store.put(_spec(seed=1), "current")
        _put_row(store, _spec(seed=2), "old", fingerprint="0.0.0/old:fn")
        stats = store.stat()
        assert (stats["entries"], stats["stale"]) == (1, 1)
        assert store.compact() == 1
        after = store.stat()
        assert (after["entries"], after["stale"]) == (1, 0)
        assert store.get(_spec(seed=1)) == "current"


@pytest.mark.skipif(os.name != "posix", reason="umask is POSIX")
class TestPutPermissions:
    def test_put_honours_process_umask(self, tmp_path):
        # A cache directory shared across users/CI stages must stay
        # readable per whatever policy the umask states.
        previous = os.umask(0o022)
        try:
            store = TrialStore(tmp_path)
            store.put(_spec(), 1)
            mode = stat_module.S_IMODE(os.stat(store.db_path).st_mode)
            assert mode == 0o644
        finally:
            os.umask(previous)


class TestCrashConsistency:
    """Every torn entry is a MISS, never an exception."""

    def test_torn_value_column_is_a_miss(self, store):
        # Foreign bytes in one value column: that row reads as a miss,
        # its neighbours in the same batched scan still replay.
        _put_row(store, _spec(seed=1), "x", value='{"ok": tr')
        store.put(_spec(seed=2), "intact")
        assert store.get(_spec(seed=1)) is MISS
        assert store.get_many([_spec(seed=1), _spec(seed=2)]) == [
            MISS, "intact",
        ]

    def test_sqlite_writer_killed_before_commit_leaves_a_miss(
        self, tmp_path
    ):
        # The half-committed transaction: a process INSERTs and dies
        # without COMMIT.  WAL atomicity makes the row simply not
        # exist; the database stays healthy.
        store = TrialStore(tmp_path)
        spec = _spec()
        store.put(_spec(seed=99), "committed")  # create the schema
        experiment_id, digest, seed = spec.key()
        script = textwrap.dedent(
            f"""
            import os, sqlite3
            connection = sqlite3.connect({store.db_path!r})
            connection.execute("BEGIN")
            connection.execute(
                "INSERT INTO trials (experiment_id, params_hash, "
                "seed, trial, params, value, format, fingerprint) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                ({experiment_id!r}, {digest!r}, {str(seed)!r},
                 {SAMPLE!r}, '{{}}', '"torn"', 2, 'x/y'),
            )
            os._exit(1)
            """
        )
        process = subprocess.run(
            [sys.executable, "-c", script], timeout=60
        )
        assert process.returncode == 1
        assert store.get(spec) is MISS
        assert store.get(_spec(seed=99)) == "committed"

    def test_writer_killed_after_commit_keeps_its_row(self, tmp_path):
        # A put returns once committed: a process that dies right after
        # (its row still only in the WAL) loses nothing.
        store = TrialStore(tmp_path)
        store.put(_spec(seed=99), "before")
        tests_dir = os.path.dirname(os.path.abspath(__file__))
        src_dir = os.path.join(os.path.dirname(tests_dir), "src")
        script = textwrap.dedent(
            f"""
            import os, sys
            sys.path.insert(0, {src_dir!r})
            sys.path.insert(0, {tests_dir!r})
            from test_store_backends import _spec
            from repro.runner import TrialStore
            TrialStore({str(tmp_path)!r}).put(_spec(), "durable")
            os._exit(1)
            """
        )
        process = subprocess.run(
            [sys.executable, "-c", script], timeout=60
        )
        assert process.returncode == 1
        assert store.get(_spec()) == "durable"
        assert TrialStore(tmp_path).get_many(
            [_spec(), _spec(seed=99)]
        ) == ["durable", "before"]

    def test_truncated_database_file_never_raises(self, tmp_path):
        store = TrialStore(tmp_path)
        specs = [_spec(seed=s) for s in range(50)]
        for index, spec in enumerate(specs):
            store.put(spec, index)
        store._reset_connection()
        with open(store.db_path, "r+b") as handle:
            handle.truncate(os.path.getsize(store.db_path) // 2)
        fresh = TrialStore(tmp_path)
        values = fresh.get_many(specs)
        assert all(v is MISS or v in range(50) for v in values)
        fresh.put(specs[0], "recovered")
        assert fresh.get(specs[0]) == "recovered"

    def test_flipped_byte_in_database_never_raises(self, tmp_path):
        store = TrialStore(tmp_path)
        specs = [_spec(seed=s) for s in range(20)]
        for index, spec in enumerate(specs):
            store.put(spec, index)
        store._reset_connection()
        size = os.path.getsize(store.db_path)
        with open(store.db_path, "r+b") as handle:
            for offset in (16, size // 2, size - 7):
                handle.seek(offset)
                byte = handle.read(1)
                handle.seek(offset)
                handle.write(bytes([byte[0] ^ 0xFF]))
        fresh = TrialStore(tmp_path)
        values = fresh.get_many(specs)  # MISS or value, never a raise
        assert all(v is MISS or v in range(20) for v in values)
        fresh.put(specs[0], "recovered")
        assert fresh.get(specs[0]) == "recovered"

    def test_garbage_database_file_quarantined_and_rebuilt(
        self, tmp_path
    ):
        db_path = os.path.join(tmp_path, TrialStore.DB_FILENAME)
        with open(db_path, "wb") as handle:
            handle.write(b"this is not a sqlite database at all")
        store = TrialStore(tmp_path)
        spec = _spec()
        assert store.get(spec) is MISS
        store.put(spec, "fresh")
        assert store.get(spec) == "fresh"
        sidecars = [
            name
            for name in os.listdir(tmp_path)
            if ".corrupt-" in name
        ]
        assert len(sidecars) == 1  # the garbage is kept for autopsy


class TestJsonFilesTree:
    """A directory still holding the older one-file-per-trial layout."""

    @pytest.fixture(autouse=True)
    def _fresh_warnings(self, monkeypatch):
        monkeypatch.setattr(store_module, "_WARNED_TREES", set())

    def test_one_warning_no_hits_files_left(self, tmp_path, capsys):
        paths = _json_tree(tmp_path)
        reset_store_stats()
        first = TrialStore(tmp_path)
        specs = [_spec(seed=s) for s in range(len(paths))]
        assert first.get_many(specs) == [MISS] * len(paths)
        first.get(specs[0])
        # A second store over the same directory in this process.
        assert TrialStore(tmp_path).get(specs[1]) is MISS
        assert store_stats()["hits"] == 0
        err = capsys.readouterr().err
        assert err.count("warning:") == 1
        assert str(tmp_path) in err
        assert "json-files" in err
        assert all(os.path.exists(path) for path in paths)

    def test_each_tree_directory_warns_once(self, tmp_path, capsys):
        left, right = tmp_path / "left", tmp_path / "right"
        _json_tree(left)
        _json_tree(right, count=2)
        for _ in range(2):
            TrialStore(left).get(_spec())
            TrialStore(right).get(_spec())
        err = capsys.readouterr().err
        assert err.count("warning:") == 2
        assert f"{left} holds a json-files trial tree (3 files)" in err
        assert f"{right} holds a json-files trial tree (2 files)" in err

    def test_tree_count_is_json_files_below_the_top(self, tmp_path):
        # The older layout kept records two levels down; loose files
        # beside the database, other suffixes and a missing directory
        # count nothing.
        assert store_module.json_tree_files(tmp_path / "absent") == 0
        (tmp_path / "notes.json").write_text("{}")
        nested = tmp_path / "E1" / "abc"
        nested.mkdir(parents=True)
        (nested / "1.json").write_text("{}")
        (nested / "2.json.corrupt-1-1").write_text("")
        (nested / "README").write_text("")
        assert store_module.json_tree_files(tmp_path) == 1

    def test_sqlite_only_directory_does_not_warn(self, tmp_path, capsys):
        store = TrialStore(tmp_path)
        store.put(_spec(), 1)
        assert TrialStore(tmp_path).get(_spec()) == 1
        assert capsys.readouterr().err == ""

    def test_run_over_a_tree_recomputes_into_the_store(
        self, tmp_path, capsys
    ):
        cache = tmp_path / "cache"
        paths = _json_tree(cache)
        arguments = ["run", "E6", "--quick", "--cache-dir", str(cache)]
        assert main(arguments) == 0
        cold = capsys.readouterr()
        assert "store: 0 hits, " in cold.out
        assert cold.err.count(f"warning: {cache} holds") == 1
        assert all(os.path.exists(path) for path in paths)
        assert os.path.exists(cache / TrialStore.DB_FILENAME)


class TestStoreCLI:
    def _fill(self, cache_dir, count=4):
        store = TrialStore(cache_dir)
        for seed in range(count):
            store.put(_spec(seed=seed), seed)
        return store

    def test_stat_reports_the_store(self, tmp_path, capsys):
        store = self._fill(tmp_path)
        assert main(["store", "stat", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert f"{store.db_path}: 4 entries, 0 stale" in out
        assert "corrupt" not in out and "debris" not in out

    def test_stat_reports_a_json_tree(self, tmp_path, capsys):
        _json_tree(tmp_path, count=3)
        assert main(["store", "stat", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert f"{tmp_path}: json-files tree of 3 files" in out
        assert not os.path.exists(
            os.path.join(tmp_path, TrialStore.DB_FILENAME)
        )

    def test_stat_reports_stale_rows(self, tmp_path, capsys):
        store = self._fill(tmp_path, count=2)
        _put_row(store, _spec(seed=7), "old", format=RECORD_FORMAT - 1)
        assert main(["store", "stat", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert f"{store.db_path}: 2 entries, 1 stale" in out

    def test_stat_reports_store_and_tree_together(self, tmp_path, capsys):
        _json_tree(tmp_path, count=2)
        store = self._fill(tmp_path, count=3)
        assert main(["store", "stat", str(tmp_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith(f"{tmp_path}: json-files tree of 2")
        assert lines[1].startswith(f"{store.db_path}: 3 entries, 0 stale")

    def test_compact_keeps_a_run_replaying(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        arguments = ["run", "E6", "--quick", "--cache-dir", cache]
        assert main(arguments) == 0
        cold = capsys.readouterr().out
        assert main(["store", "compact", cache]) == 0
        assert capsys.readouterr().out.endswith(": 0 stale removed\n")
        assert main(arguments) == 0
        warm = capsys.readouterr().out
        assert " hits, 0 misses" in warm
        strip = lambda text: [
            line for line in text.splitlines()
            if not line.startswith("store:")
        ]
        assert strip(warm) == strip(cold)

    @pytest.mark.parametrize("command", ["stat", "compact"])
    def test_read_only_commands_create_nothing(
        self, tmp_path, capsys, command
    ):
        empty = tmp_path / "empty"
        empty.mkdir()
        missing = tmp_path / "misspelled" / "cache"
        for directory in (empty, missing):
            assert main(["store", command, str(directory)]) == 0
            out = capsys.readouterr().out
            assert out == f"no trial store in {directory}\n"
        assert os.listdir(empty) == []
        assert sorted(os.listdir(tmp_path)) == ["empty"]

    def test_compact_sweeps_stale(self, tmp_path, capsys):
        store = self._fill(tmp_path)
        _put_row(store, _spec(seed=9), "old", fingerprint="0.0.0/old:fn")
        assert main(["store", "compact", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out == f"{store.db_path}: 1 stale removed\n"
        assert store.stat()["stale"] == 0

    def test_run_reports_store_tally(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        arguments = ["run", "E6", "--quick", "--cache-dir", cache]
        assert main(arguments) == 0
        cold = capsys.readouterr().out
        assert "store: 0 hits, " in cold
        assert main(arguments) == 0
        warm = capsys.readouterr().out
        assert " hits, 0 misses" in warm
        assert "store: 0 hits" not in warm

    def test_migrate_command_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["store", "migrate", "."])
        assert exit_info.value.code == 2
        assert "migrate" in capsys.readouterr().err

    def test_no_tally_without_cache_dir(self, tmp_path, capsys):
        assert main(["run", "E6", "--quick"]) == 0
        assert "store:" not in capsys.readouterr().out
