"""Tests for the persistent trial-result store (`repro.runner.store`).

Covers the cache round-trip, params-hash stability under dict
reordering, recovery from corrupted cache files, and the core promise:
a warm cache means zero recomputation.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.runner import (
    MISS,
    ResultStore,
    TrialSpec,
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
        store = ResultStore(tmp_path)
        spec = _spec()
        assert store.get(spec) is MISS
        store.put(spec, {"a": 1, "b": [1, 2.5, "s"]})
        assert store.get(spec) == {"a": 1, "b": [1, 2.5, "s"]}
        assert spec in store

    def test_none_is_a_valid_cached_value(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = _spec()
        store.put(spec, None)
        assert store.get(spec) is None
        assert spec in store

    def test_keys_partition_by_experiment_params_and_seed(self, tmp_path):
        store = ResultStore(tmp_path)
        base = _spec(seed=1, label="x")
        store.put(base, "base")
        assert store.get(_spec(seed=2, label="x")) is MISS
        assert store.get(_spec(seed=1, label="y")) is MISS
        other_experiment = TrialSpec(
            "U", COUNTING, {"label": "x"}, seed=1
        )
        assert store.get(other_experiment) is MISS


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
    def test_truncated_json_treated_as_miss_and_removed(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = _spec()
        store.put(spec, {"ok": True})
        path = store.path_for(spec)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"value": {"ok": tr')  # torn write
        assert store.get(spec) is MISS
        assert not os.path.exists(path)

    def test_wrong_shape_record_treated_as_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = _spec()
        path = store.path_for(spec)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(["not", "a", "record"], handle)
        assert store.get(spec) is MISS

    def test_corrupted_entry_recomputes_through_runner(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = _spec()
        run_trials([spec], store=store)
        with open(store.path_for(spec), "w") as handle:
            handle.write("garbage")
        outcomes = run_trials([spec], store=store)
        assert outcomes[0].from_cache is False
        assert outcomes[0].value["value"] == spec.seed * 3 + 1
        assert len(CALLS) == 2  # recomputed exactly once


class TestSharedCacheRaces:
    """Two processes sharing one --cache-dir must never eat each other's
    entries: a corrupt read is retried once (a concurrent atomic
    rewrite may have landed in between) and cleanup tolerates the
    entry vanishing or being locked."""

    def test_concurrent_rewrite_between_read_and_discard(
        self, tmp_path, monkeypatch
    ):
        """Writer B replaces the corrupt entry while A is reacting to it.

        Pre-fix, A's ``get`` would unlink B's fresh valid record and
        report MISS; now A re-reads once, returns B's value, and the
        entry survives.
        """
        store = ResultStore(tmp_path)
        spec = _spec()
        path = store.path_for(spec)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"value": {"ok": tr')  # torn write from a crash

        real_load = json.load
        state = {"loads": 0}

        def racing_load(handle):
            state["loads"] += 1
            try:
                return real_load(handle)
            except json.JSONDecodeError:
                # Between A's failed parse and its reaction, writer B's
                # atomic put lands on the same key.
                ResultStore(tmp_path).put(spec, {"from": "writer-b"})
                raise

        monkeypatch.setattr(json, "load", racing_load)
        assert store.get(spec) == {"from": "writer-b"}
        assert state["loads"] == 2  # exactly one re-read
        assert os.path.exists(path)  # B's entry was not unlinked

    def test_entry_vanishing_mid_recovery_is_a_plain_miss(
        self, tmp_path, monkeypatch
    ):
        """Another process removes the corrupt entry first: still MISS."""
        store = ResultStore(tmp_path)
        spec = _spec()
        path = store.path_for(spec)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("garbage")

        real_remove = os.remove

        def concurrent_remove(target):
            real_remove(target)  # the other process won the unlink...
            raise FileNotFoundError(target)  # ...so ours sees ENOENT

        monkeypatch.setattr(os, "remove", concurrent_remove)
        assert store.get(spec) is MISS

    def test_locked_entry_mid_recovery_is_a_plain_miss(
        self, tmp_path, monkeypatch
    ):
        """EPERM from a peer holding the file (Windows rewrite): still MISS."""
        store = ResultStore(tmp_path)
        spec = _spec()
        path = store.path_for(spec)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("garbage")

        def locked_remove(target):
            raise PermissionError(target)

        monkeypatch.setattr(os, "remove", locked_remove)
        assert store.get(spec) is MISS
        # The entry could not be cleaned up, but a later writer can
        # still atomically replace it and be read normally.
        store.put(spec, 42)
        assert store.get(spec) == 42

    def test_put_landing_during_recovery_is_returned_not_unlinked(
        self, tmp_path, monkeypatch
    ):
        """Writer B's atomic put lands *after* both of A's failed
        reads — the exact window the old implementation documented:
        its ``os.remove`` would unlink B's fresh record.  Recovery now
        quarantine-renames first and re-checks: B's record is found
        valid under the quarantine name, restored, and returned.
        """
        store = ResultStore(tmp_path)
        spec = _spec()
        path = store.path_for(spec)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"value": {"ok": tr')  # torn write

        real_load = json.load
        state = {"loads": 0}

        def racing_load(handle):
            state["loads"] += 1
            if state["loads"] <= 2:
                # Both of A's reads see the torn bytes; B's atomic
                # put lands just after the second one, before A
                # reacts.
                if state["loads"] == 2:
                    ResultStore(tmp_path).put(
                        spec, {"from": "writer-b"}
                    )
                return real_load(handle)  # raises JSONDecodeError
            return real_load(handle)  # the quarantine re-check

        monkeypatch.setattr(json, "load", racing_load)
        assert store.get(spec) == {"from": "writer-b"}
        assert state["loads"] == 3
        # B's entry survives at its path; no quarantine debris.
        monkeypatch.undo()
        assert store.get(spec) == {"from": "writer-b"}
        directory = os.path.dirname(path)
        assert [
            name
            for name in os.listdir(directory)
            if "quarantine" in name
        ] == []

    def test_two_process_churn_never_loses_a_committed_put(
        self, tmp_path
    ):
        """The real two-process regression: process B keeps atomically
        rewriting one entry while A's reader keeps hitting it with
        corruption recovery.  A must only ever see MISS or a valid
        value (never an exception), and B's final committed put must
        still be on disk afterwards — pre-fix, A's recovery could
        unlink it.
        """
        import subprocess
        import sys
        import textwrap

        store = ResultStore(tmp_path)
        spec = _spec()
        path = store.path_for(spec)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        script = textwrap.dedent(
            f"""
            import sys
            sys.path.insert(0, {os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")!r})
            sys.path.insert(0, {os.path.dirname(os.path.abspath(__file__))!r})
            from test_result_store import _spec
            from repro.runner import ResultStore
            store = ResultStore({str(tmp_path)!r})
            spec = _spec()
            for round in range(300):
                store.put(spec, {{"round": round}})
            """
        )
        writer = subprocess.Popen([sys.executable, "-c", script])
        try:
            observed = []
            while writer.poll() is None:
                # Keep shoving torn bytes at the entry so A's reads
                # exercise the recovery path against B's rewrites.
                try:
                    with open(path, "a", encoding="utf-8") as handle:
                        handle.write("}{torn")
                except OSError:
                    pass
                observed.append(store.get(spec))
        finally:
            assert writer.wait(timeout=120) == 0
        for value in observed:
            assert value is MISS or (
                isinstance(value, dict) and "round" in value
            )
        # B's last committed put: recovery may classify it torn (A's
        # appends corrupt it), but never unlinks a *valid* record —
        # so after one clean rewrite the entry must stick.
        store.put(spec, {"round": "final"})
        assert store.get(spec) == {"round": "final"}
        assert os.path.exists(path)

    def test_persistently_corrupt_entry_still_removed(self, tmp_path):
        """The re-read is one retry, not a corruption leak: a file that
        stays garbage is discarded exactly as before."""
        store = ResultStore(tmp_path)
        spec = _spec()
        store.put(spec, {"ok": True})
        path = store.path_for(spec)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("garbage")
        assert store.get(spec) is MISS
        assert not os.path.exists(path)


class TestCacheSkipsRecompute:
    def test_second_run_executes_nothing(self, tmp_path):
        store = ResultStore(tmp_path)
        specs = [_spec(seed=s) for s in range(5)]
        first = run_trials(specs, store=store)
        assert len(CALLS) == 5
        assert all(not r.from_cache for r in first)

        second = run_trials(specs, store=store)
        assert len(CALLS) == 5  # no new executions
        assert all(r.from_cache for r in second)
        assert [r.value for r in first] == [r.value for r in second]

    def test_partial_cache_runs_only_misses(self, tmp_path):
        store = ResultStore(tmp_path)
        specs = [_spec(seed=s) for s in range(4)]
        run_trials(specs[:2], store=store)
        CALLS.clear()
        outcomes = run_trials(specs, store=store)
        assert [c[1] for c in CALLS] == [2, 3]
        assert [o.from_cache for o in outcomes] == [
            True, True, False, False,
        ]

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
