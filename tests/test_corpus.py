"""Corpus battery: the memory-mapped snapshot store must be safe.

The corpus is a cache keyed purely by content identity ``(model
params, n, seed)``; like every other execution axis it may only change
wall-clock time.  The battery pins:

* **round-trips** — ``put`` then ``get`` reproduces the snapshot bit
  for bit (edge ids included) for every model with a family, and the
  loaded arrays are memory-mapped **read-only** (writes raise);
* **integrity** — a single flipped blob byte fails ``verify``; ``get``
  stays structural-only (a digest check per lookup would defeat the
  cache), mirroring the documented split;
* **races** — two writers landing on one key leave exactly one valid
  entry (easy here because both writers produce identical bytes);
* **the cache protocol** — hit/miss accounting, build-once semantics,
  environment activation, and the ``build_graph_snapshot`` wiring that
  serves experiment runs from the corpus;
* **cache keys** — the ``generator`` axis follows the backend/engine
  policy: the default never enters trial params, so corpus-less and
  pre-corpus cache entries keep replaying.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.core.families import (
    BarabasiAlbertFamily,
    CooperFriezeFamily,
    MoriFamily,
)
from repro.core.trials import build_graph_snapshot, family_spec
from repro.errors import ExperimentError
from repro.graphs import FrozenGraph, freeze
from repro.graphs.corpus import (
    CORPUS_DIR_VARIABLE,
    CORPUS_SCHEMA,
    GraphCorpus,
    active_corpus,
    corpus_stats,
    reset_corpus_stats,
)

FAMILIES = {
    "mori": lambda: MoriFamily(p=0.5, m=2),
    "cooper-frieze": lambda: CooperFriezeFamily(),
    "ba": lambda: BarabasiAlbertFamily(m=2),
}


def _blob_path(manifest_path: str) -> str:
    return manifest_path[: -len(".json")] + ".bin"


class TestRoundTrip:
    @pytest.mark.parametrize("model", sorted(FAMILIES))
    def test_put_get_is_bit_identical(self, tmp_path, model):
        family = FAMILIES[model]()
        built = freeze(family.build(90, seed=3))
        corpus = GraphCorpus(tmp_path)
        corpus.put(family_spec(family), 90, 3, built)
        loaded = corpus.get(family_spec(family), 90, 3)
        assert isinstance(loaded, FrozenGraph)
        assert loaded == built
        assert hash(loaded) == hash(built)
        assert list(loaded.edges()) == list(built.edges())
        assert loaded.degree_sequence() == built.degree_sequence()
        assert loaded.num_self_loops() == built.num_self_loops()

    def test_put_accepts_mutable_graphs(self, tmp_path):
        family = MoriFamily(p=0.5, m=1)
        corpus = GraphCorpus(tmp_path)
        corpus.put(family_spec(family), 50, 0, family.build(50, seed=0))
        loaded = corpus.get(family_spec(family), 50, 0)
        assert loaded == freeze(family.build(50, seed=0))

    def test_loaded_arrays_are_read_only(self, tmp_path):
        family = MoriFamily(p=0.5, m=1)
        corpus = GraphCorpus(tmp_path)
        corpus.put(
            family_spec(family), 50, 0,
            family.build_frozen(50, seed=0),
        )
        loaded = corpus.get(family_spec(family), 50, 0)
        with pytest.raises(ValueError):
            loaded._slot_targets[0] = 99
        with pytest.raises(ValueError):
            loaded._offsets[0] = 99

    def test_distinct_keys_do_not_collide(self, tmp_path):
        corpus = GraphCorpus(tmp_path)
        family = MoriFamily(p=0.5, m=1)
        spec = family_spec(family)
        corpus.put(spec, 50, 0, family.build_frozen(50, seed=0))
        assert corpus.get(spec, 50, 1) is None
        assert corpus.get(spec, 60, 0) is None
        assert corpus.get(family_spec(MoriFamily(p=0.25, m=1)), 50, 0) \
            is None

    def test_put_rejects_mismatched_n(self, tmp_path):
        family = MoriFamily(p=0.5, m=1)
        corpus = GraphCorpus(tmp_path)
        with pytest.raises(ExperimentError, match="n=60"):
            corpus.put(
                family_spec(family), 60, 0,
                family.build_frozen(50, seed=0),
            )

    def test_writes_are_deterministic(self, tmp_path):
        """Same key, two writers: byte-identical entry files."""
        family = MoriFamily(p=0.5, m=2)
        spec = family_spec(family)
        first = GraphCorpus(tmp_path / "a")
        second = GraphCorpus(tmp_path / "b")
        path_a = first.put(spec, 70, 1, family.build_frozen(70, seed=1))
        path_b = second.put(spec, 70, 1, family.build_frozen(70, seed=1))
        with open(path_a, "rb") as handle:
            manifest_a = handle.read()
        with open(path_b, "rb") as handle:
            manifest_b = handle.read()
        assert manifest_a == manifest_b
        with open(_blob_path(path_a), "rb") as handle:
            blob_a = handle.read()
        with open(_blob_path(path_b), "rb") as handle:
            blob_b = handle.read()
        assert blob_a == blob_b


class TestIntegrity:
    def _one_entry(self, tmp_path):
        family = MoriFamily(p=0.5, m=2)
        corpus = GraphCorpus(tmp_path)
        manifest_path = corpus.put(
            family_spec(family), 60, 0,
            family.build_frozen(60, seed=0),
        )
        return corpus, family, manifest_path

    def test_verify_passes_on_clean_entries(self, tmp_path):
        corpus, _, _ = self._one_entry(tmp_path)
        report = corpus.verify()
        assert len(report) == 1
        assert all(ok for _, ok, _ in report)

    def test_flipped_blob_byte_fails_verify(self, tmp_path):
        corpus, _, manifest_path = self._one_entry(tmp_path)
        blob_path = _blob_path(manifest_path)
        with open(blob_path, "r+b") as handle:
            handle.seek(17)
            byte = handle.read(1)
            handle.seek(17)
            handle.write(bytes([byte[0] ^ 0x01]))
        report = corpus.verify()
        assert [(ok, msg) for _, ok, msg in report] == [
            (False, "sha256 mismatch")
        ]

    def test_truncated_blob_fails_verify_and_misses(self, tmp_path):
        corpus, family, manifest_path = self._one_entry(tmp_path)
        blob_path = _blob_path(manifest_path)
        with open(blob_path, "r+b") as handle:
            handle.truncate(32)
        assert not corpus.verify()[0][1]
        # And the size check already rejects it on the read path.
        assert corpus.get(family_spec(family), 60, 0) is None

    def test_garbage_manifest_is_a_miss_but_verify_reports(
        self, tmp_path
    ):
        corpus, family, manifest_path = self._one_entry(tmp_path)
        with open(manifest_path, "w", encoding="utf-8") as handle:
            handle.write('{"schema": "repro-corpus/v1", "n": tr')
        assert corpus.get(family_spec(family), 60, 0) is None
        path, ok, message = corpus.verify()[0]
        assert path == manifest_path
        assert not ok
        assert message == "unreadable manifest"

    def test_entries_lists_manifests_sorted(self, tmp_path):
        family = MoriFamily(p=0.5, m=2)
        corpus = GraphCorpus(tmp_path)
        spec = family_spec(family)
        for n in (80, 40, 60):
            corpus.put(spec, n, 0, family.build_frozen(n, seed=0))
        listed = list(corpus.entries())
        assert [path for path, _ in listed] == sorted(
            path for path, _ in listed
        )
        assert [m["n"] for _, m in listed] == [40, 60, 80]
        assert all(
            m["schema"] == CORPUS_SCHEMA for _, m in listed
        )

    def test_empty_or_missing_root_has_no_entries(self, tmp_path):
        corpus = GraphCorpus(tmp_path / "nowhere")
        assert list(corpus.entries()) == []
        assert corpus.verify() == []


class TestCacheProtocol:
    def setup_method(self):
        reset_corpus_stats()

    def test_get_or_build_counts_miss_then_hit(self, tmp_path):
        family = MoriFamily(p=0.5, m=1)
        spec = family_spec(family)
        corpus = GraphCorpus(tmp_path)
        calls = []

        def build():
            calls.append(1)
            return family.build(60, seed=0)

        first = corpus.get_or_build(spec, 60, 0, build)
        second = corpus.get_or_build(spec, 60, 0, build)
        assert calls == [1]  # built exactly once
        assert first == second
        assert corpus_stats() == {"hits": 1, "misses": 1}

    def test_two_writer_race_leaves_one_valid_entry(self, tmp_path):
        """Writer B lands a full entry while A is still building.

        A's subsequent put overwrites with byte-identical content, so
        whichever rename lands last, the key holds one valid entry and
        both writers return the same snapshot.
        """
        family = MoriFamily(p=0.5, m=2)
        spec = family_spec(family)
        corpus = GraphCorpus(tmp_path)

        def racing_build():
            # B's whole get_or_build completes inside A's miss window.
            GraphCorpus(tmp_path).put(
                spec, 70, 5, family.build_frozen(70, seed=5)
            )
            return family.build(70, seed=5)

        built = corpus.get_or_build(spec, 70, 5, racing_build)
        assert built == family.build_frozen(70, seed=5)
        report = corpus.verify()
        assert len(report) == 1
        assert report[0][1]  # the surviving entry is valid
        assert corpus.get(spec, 70, 5) == built

    def test_active_corpus_tracks_environment(self, tmp_path, monkeypatch):
        monkeypatch.delenv(CORPUS_DIR_VARIABLE, raising=False)
        assert active_corpus() is None
        monkeypatch.setenv(CORPUS_DIR_VARIABLE, "")
        assert active_corpus() is None
        monkeypatch.setenv(CORPUS_DIR_VARIABLE, str(tmp_path))
        corpus = active_corpus()
        assert isinstance(corpus, GraphCorpus)
        assert corpus.root == str(tmp_path)

    def test_build_graph_snapshot_serves_from_corpus(
        self, tmp_path, monkeypatch
    ):
        """The experiment build path fills, then hits, the corpus —
        and a serial-built entry serves a vectorized run (the stored
        bytes are generator-independent by the equivalence contract)."""
        monkeypatch.setenv(CORPUS_DIR_VARIABLE, str(tmp_path))
        reset_corpus_stats()
        family = MoriFamily(p=0.5, m=2)
        first = build_graph_snapshot(family, 60, 2, "frozen", "serial")
        again = build_graph_snapshot(family, 60, 2, "frozen", "serial")
        crossed = build_graph_snapshot(
            family, 60, 2, "frozen", "vectorized"
        )
        assert corpus_stats() == {"hits": 2, "misses": 1}
        assert first == again == crossed

    def test_multigraph_backend_bypasses_corpus(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(CORPUS_DIR_VARIABLE, str(tmp_path))
        reset_corpus_stats()
        family = MoriFamily(p=0.5, m=1)
        build_graph_snapshot(family, 50, 0, "multigraph", "serial")
        assert corpus_stats() == {"hits": 0, "misses": 0}
        assert list(GraphCorpus(tmp_path).entries()) == []

    def test_inexact_size_family_bypasses_corpus(
        self, tmp_path, monkeypatch
    ):
        """The configuration family's giant component has fewer than
        ``n`` vertices, so it cannot honour the corpus's exact-size
        key — it must build past the store, not crash ``put``."""
        from repro.core.families import ConfigurationFamily

        assert ConfigurationFamily.exact_size is False
        monkeypatch.setenv(CORPUS_DIR_VARIABLE, str(tmp_path))
        reset_corpus_stats()
        family = ConfigurationFamily(exponent=2.5, min_degree=2)
        snapshot = build_graph_snapshot(
            family, 120, 7, "frozen", "serial"
        )
        assert snapshot.num_vertices <= 120
        assert corpus_stats() == {"hits": 0, "misses": 0}
        assert list(GraphCorpus(tmp_path).entries()) == []


class TestGeneratorCacheKey:
    """The generator never enters experiment trial params: the stored
    numbers are generator-independent."""

    def test_default_generator_stays_out_of_trial_params(self):
        from repro.core.searchability import _build_cell_specs

        specs = _build_cell_specs(
            "E1", MoriFamily(p=0.5, m=1), 60, "weak", 2, 1, None,
            1, False, "default",
        )
        assert all("generator" not in spec.params for spec in specs)


class TestCorpusCli:
    def test_build_list_verify_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        root = str(tmp_path / "corpus")
        assert main([
            "corpus", "build", root, "--model", "mori",
            "--sizes", "40,60", "--seeds", "0,1",
        ]) == 0
        assert "4 built" in capsys.readouterr().out
        # Rebuilding is a no-op: everything is already present.
        assert main([
            "corpus", "build", root, "--model", "mori",
            "--sizes", "40,60", "--seeds", "0,1",
        ]) == 0
        assert "0 built, 4 already present" in capsys.readouterr().out
        assert main(["corpus", "list", root]) == 0
        assert "4 entries" in capsys.readouterr().out
        assert main(["corpus", "verify", root]) == 0
        assert "4/4 entries ok" in capsys.readouterr().out

    def test_verify_exits_nonzero_on_corruption(self, tmp_path, capsys):
        from repro.cli import main

        root = str(tmp_path / "corpus")
        main(["corpus", "build", root, "--sizes", "40"])
        capsys.readouterr()
        blob = next(
            os.path.join(directory, name)
            for directory, _, names in os.walk(root)
            for name in sorted(names)
            if name.endswith(".bin")
        )
        with open(blob, "r+b") as handle:
            handle.seek(3)
            byte = handle.read(1)
            handle.seek(3)
            handle.write(bytes([byte[0] ^ 0xFF]))
        assert main(["corpus", "verify", root]) == 1
        captured = capsys.readouterr()
        assert "sha256 mismatch" in captured.err
        assert "0/1 entries ok" in captured.out

    def test_run_reports_hits_on_second_pass(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.cli import main

        monkeypatch.delenv(CORPUS_DIR_VARIABLE, raising=False)
        root = str(tmp_path / "corpus")
        argv = [
            "run", "E17", "--quick", "--set", "sizes=60",
            "--set", "num_graphs=1", "--corpus-dir", root,
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "corpus: 0 hits, 1 misses" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "corpus: 1 hits, 0 misses" in second
        # The replayed numbers are identical to the cold-cache run.
        assert first == second.replace(
            "corpus: 1 hits, 0 misses", "corpus: 0 hits, 1 misses"
        )
        # --corpus-dir activates the corpus for the run (and its
        # workers) only: the process environment is restored, so later
        # in-process main() calls do not inherit a corpus they never
        # asked for.
        assert CORPUS_DIR_VARIABLE not in os.environ
