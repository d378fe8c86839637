"""Corpus battery: the memory-mapped snapshot catalog must be safe.

The corpus is the graph catalog ``repro serve --corpus`` serves, keyed
purely by content identity ``(model params, n, seed)``.  The battery
pins:

* **round-trips** — ``put`` then ``get`` reproduces the snapshot bit
  for bit (edge ids included) for every model with a family, and the
  loaded arrays are memory-mapped **read-only** (writes raise);
* **the bytes** — a manifest and blob pinned by sha256, and the blob
  layout shared with shared-memory segments
  (:func:`~repro.graphs.frozen.blob_layout`);
* **integrity** — a single flipped blob byte fails ``verify``; ``get``
  stays structural-only (a digest check per lookup would make every
  catalog load read every blob), mirroring the documented split;
* **races** — two writers landing on one key leave exactly one valid
  entry (easy here because both writers produce identical bytes);
* **batch runs** — ``repro run`` builds in memory and never touches a
  corpus, whatever the environment says;
* **cache keys** — the ``generator`` axis follows the engine policy:
  the default never enters trial params.
"""

from __future__ import annotations

import hashlib
import os

import pytest

from repro.core.families import (
    BarabasiAlbertFamily,
    CooperFriezeFamily,
    MoriFamily,
)
from repro.core.trials import family_spec
from repro.errors import ExperimentError
from repro.graphs import FrozenGraph, freeze
from repro.graphs.corpus import CORPUS_SCHEMA, GraphCorpus, spec_digest
from repro.graphs.frozen import BLOB_ARRAYS, blob_layout

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


class TestAddressing:
    def test_spec_digest_is_canonical(self):
        spec = {"model": "mori", "p": 0.5, "m": 2}
        reordered = {"m": 2, "p": 0.5, "model": "mori"}
        digest = spec_digest(spec)
        assert digest == spec_digest(reordered)
        assert len(digest) == 16
        int(digest, 16)  # hex
        # A tuple and a list serialise alike, so they name one entry.
        assert spec_digest({"q": (0.5, 0.5)}) == spec_digest(
            {"q": [0.5, 0.5]}
        )

    def test_spec_digest_separates_parameters(self):
        assert spec_digest({"model": "mori", "p": 0.25}) != (
            spec_digest({"model": "mori", "p": 0.5})
        )

    def test_stem_names_model_size_seed_and_digest(self, tmp_path):
        corpus = GraphCorpus(tmp_path)
        spec = {"model": "mori", "p": 0.5, "m": 2}
        assert corpus.stem_for(spec, 120, 3) == os.path.join(
            str(tmp_path), "mori", f"n120-s3-{spec_digest(spec)}"
        )
        bare = {"k": 1}
        assert corpus.stem_for(bare, 10, 0) == os.path.join(
            str(tmp_path), "adhoc", f"n10-s0-{spec_digest(bare)}"
        )


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


class TestBlobBytes:
    """The on-disk bytes and the layout both blob readers share."""

    @pytest.mark.parametrize("family, manifest_sha, blob_sha", [
        (
            MoriFamily(p=0.5, m=2),
            "a81f6200142448d7b3160f8879ded5f1"
            "fb1c2ba7adf651a3341f65d6c6e23549",
            "d8f1fd5e2091b1eaefb7750d7a16e800"
            "04df08a19576c821ca56701fde3fac5e",
        ),
        (
            CooperFriezeFamily(),
            "074928a14214f6f743294a064ba9fef9"
            "ee91fb7b552052d035d8466da1008e92",
            "5d5e414a4fe49fecd437a17e9dfcc8c1"
            "de28917b2b719c1fe1aef766bb3e6d94",
        ),
    ])
    def test_entry_bytes_are_pinned(
        self, tmp_path, family, manifest_sha, blob_sha
    ):
        """A corpus written today is byte-identical to one written by
        every earlier version of ``repro-corpus/v1``."""
        manifest_path = GraphCorpus(tmp_path).put(
            family_spec(family), 60, 0,
            family.build_frozen(60, seed=0, generator="vectorized"),
            generator="vectorized",
        )
        with open(manifest_path, "rb") as handle:
            assert hashlib.sha256(handle.read()).hexdigest() == \
                manifest_sha
        with open(_blob_path(manifest_path), "rb") as handle:
            assert hashlib.sha256(handle.read()).hexdigest() == blob_sha

    def test_manifest_and_segment_share_one_layout(self, tmp_path):
        from repro.graphs.shm import attach_graph, publish_graph

        family = MoriFamily(p=0.5, m=2)
        snapshot = family.build_frozen(70, seed=4)
        layout = blob_layout(snapshot.blob_columns())
        assert [entry["name"] for entry in layout] == list(BLOB_ARRAYS)
        corpus = GraphCorpus(tmp_path)
        corpus.put(family_spec(family), 70, 4, snapshot)
        (_, manifest), = corpus.entries()
        assert manifest["arrays"] == layout
        segment = publish_graph(snapshot)
        try:
            assert segment.header["arrays"] == layout
            attached = attach_graph(segment.name)
            assert attached == snapshot
            attached.close()
        finally:
            segment.close()
            segment.unlink()


class TestConcurrentWriters:
    def test_two_writer_race_leaves_one_valid_entry(self, tmp_path):
        """Writer B lands a full entry while A is still building.

        A's subsequent put overwrites with byte-identical content, so
        whichever rename lands last, the key holds one valid entry and
        both writers' snapshots read back the same.
        """
        family = MoriFamily(p=0.5, m=2)
        spec = family_spec(family)
        corpus = GraphCorpus(tmp_path)
        assert corpus.get(spec, 70, 5) is None
        built = family.build(70, seed=5)
        # B's whole build-and-put completes inside A's miss window.
        GraphCorpus(tmp_path).put(
            spec, 70, 5, family.build_frozen(70, seed=5)
        )
        corpus.put(spec, 70, 5, built)
        report = corpus.verify()
        assert len(report) == 1
        assert report[0][1]  # the surviving entry is valid
        assert corpus.get(spec, 70, 5) == freeze(built)


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

    def test_run_has_no_corpus_flag(self, tmp_path, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main([
                "run", "E17", "--quick",
                "--corpus-dir", str(tmp_path / "corpus"),
            ])
        assert exit_info.value.code == 2
        assert "--corpus-dir" in capsys.readouterr().err
        assert not (tmp_path / "corpus").exists()

    def test_run_ignores_a_corpus_variable(
        self, tmp_path, monkeypatch, capsys
    ):
        """Batch builds are in memory: a leftover ``REPRO_CORPUS_DIR``
        neither fills a corpus nor changes a printed line."""
        from repro.cli import main

        argv = [
            "run", "E17", "--quick", "--set", "sizes=60",
            "--set", "num_graphs=1",
        ]
        monkeypatch.delenv("REPRO_CORPUS_DIR", raising=False)
        assert main(argv) == 0
        plain = capsys.readouterr().out
        root = tmp_path / "corpus"
        root.mkdir()
        monkeypatch.setenv("REPRO_CORPUS_DIR", str(root))
        assert main(argv) == 0
        assert capsys.readouterr().out == plain
        assert list(root.iterdir()) == []
