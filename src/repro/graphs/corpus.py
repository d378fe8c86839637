"""Memory-mapped on-disk corpus of generated CSR graph snapshots.

A corpus is the graph catalog of the search service: ``repro corpus
build`` fills it, ``repro corpus list/verify`` enumerates and
digest-checks it, and ``repro serve --corpus`` (plus ``POST /reload``)
serves every snapshot in it.  Batch runs never read it; each builds its
graphs in memory.  An entry is identified entirely by ``(model
parameters, n, seed)`` and stored as

* one **CSR blob** — the seven int64 arrays of a
  :class:`~repro.graphs.frozen.FrozenGraph` in
  :data:`~repro.graphs.frozen.BLOB_ARRAYS` order, concatenated
  little-endian, loaded back with ``numpy.memmap`` so the buffers are
  shared, lazily paged, and **read-only** (a write through a loaded
  array raises, preserving the frozen-graph immutability contract);
* one **JSON manifest** carrying the identifying key (model, canonical
  parameter spec, its sha256 hash, ``n``, ``seed``), the array layout
  (:func:`~repro.graphs.frozen.blob_layout`), and a sha256 digest of
  the blob so :meth:`GraphCorpus.verify` (and ``repro corpus verify``)
  can detect any byte-level corruption.

Entries are deterministic — the same key always serialises to the same
bytes, with no timestamps — and are committed atomically (temp file +
``os.replace``, blob before manifest), so concurrent writers racing on
the same key are harmless: whichever order their renames land in, the
files always hold one complete, valid entry.  A reader that finds
anything unusable treats it as absent; only ``verify`` judges.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

import numpy as _np

from repro.errors import ExperimentError
from repro.graphs.frozen import FrozenGraph, blob_layout, freeze
from repro.ioatomic import write_atomic

__all__ = [
    "CORPUS_SCHEMA",
    "GraphCorpus",
    "spec_digest",
]

CORPUS_SCHEMA = "repro-corpus/v1"


def _spec_hash(spec: Mapping[str, Any]) -> str:
    """Canonical-JSON sha256 of a family spec (tuples == lists)."""
    payload = json.dumps(
        dict(spec), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def spec_digest(spec: Mapping[str, Any]) -> str:
    """The 16-hex-digit spec-hash prefix that names a corpus entry.

    Two families that differ in any parameter (Móri ``p = 0.25`` and
    ``0.5``, say) get different digests, so ``(model, n, seed)`` plus
    this digest names one graph.
    """
    return _spec_hash(spec)[:16]


class GraphCorpus:
    """A directory of memory-mapped frozen-graph snapshots."""

    def __init__(self, root):
        self.root = os.fspath(root)

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------

    def stem_for(self, spec: Mapping[str, Any], n: int, seed: int) -> str:
        """Path stem (no extension) of the entry for this key."""
        model = str(spec.get("model", "adhoc"))
        return os.path.join(
            self.root, model, f"n{n}-s{seed}-{spec_digest(spec)}"
        )

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------

    def get(
        self, spec: Mapping[str, Any], n: int, seed: int
    ) -> Optional[FrozenGraph]:
        """The stored snapshot for this key, or ``None``.

        Cheap by design: structural checks only (schema, key match,
        blob size) — no digesting.  Anything unusable is a miss, never
        an error; :meth:`verify` is the integrity judge.
        """
        stem = self.stem_for(spec, n, seed)
        try:
            with open(stem + ".json", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return None
        if not self._manifest_matches(manifest, spec, n, seed):
            return None
        try:
            blob = _np.memmap(stem + ".bin", dtype="<i8", mode="r")
        except (OSError, ValueError):
            return None
        if blob.size * 8 != manifest["blob_bytes"]:
            return None
        try:
            return FrozenGraph.from_blob(
                blob, manifest["arrays"], n, manifest["num_loops"]
            )
        except (KeyError, ValueError, TypeError):
            return None

    @staticmethod
    def _manifest_matches(manifest, spec, n, seed) -> bool:
        return (
            isinstance(manifest, dict)
            and manifest.get("schema") == CORPUS_SCHEMA
            and manifest.get("n") == n
            and manifest.get("seed") == seed
            and manifest.get("params_hash") == _spec_hash(spec)
        )

    # ------------------------------------------------------------------
    # Write side
    # ------------------------------------------------------------------

    def put(
        self,
        spec: Mapping[str, Any],
        n: int,
        seed: int,
        graph,
        generator: str = "serial",
    ) -> str:
        """Persist a snapshot for this key; returns the manifest path.

        ``graph`` may be either backend; it is frozen if needed and
        must have ``n`` vertices.  Writes are deterministic (no
        timestamps) and atomic, blob before manifest — a reader never
        sees a manifest whose blob has not landed.
        """
        snapshot = freeze(graph)
        if snapshot.num_vertices != n:
            raise ExperimentError(
                f"corpus key says n={n} but the snapshot has "
                f"{snapshot.num_vertices} vertices"
            )
        columns = snapshot.blob_columns()
        blob = b"".join(column.tobytes() for column in columns)
        manifest = {
            "schema": CORPUS_SCHEMA,
            "model": str(spec.get("model", "adhoc")),
            "params": dict(spec),
            "params_hash": _spec_hash(spec),
            "n": n,
            "seed": seed,
            "num_edges": snapshot.num_edges,
            "num_loops": snapshot.num_self_loops(),
            "generator": generator,
            "blob_bytes": len(blob),
            "sha256": hashlib.sha256(blob).hexdigest(),
            "arrays": blob_layout(columns),
        }
        stem = self.stem_for(spec, n, seed)
        os.makedirs(os.path.dirname(stem), exist_ok=True)
        write_atomic(stem + ".bin", blob, prefix=".corpus-")
        write_atomic(
            stem + ".json",
            (json.dumps(manifest, indent=2, sort_keys=True) + "\n")
            .encode("utf-8"),
            prefix=".corpus-",
        )
        return stem + ".json"

    # ------------------------------------------------------------------
    # Enumeration and integrity
    # ------------------------------------------------------------------

    def entries(self) -> Iterator[Tuple[str, Dict[str, Any]]]:
        """Yield ``(manifest_path, manifest)`` pairs, sorted by path.

        Unparseable manifests yield ``(path, {})`` so callers (the
        CLI, :meth:`verify`) can report them instead of skipping
        corruption silently.
        """
        if not os.path.isdir(self.root):
            return
        for directory, _, names in sorted(os.walk(self.root)):
            for name in sorted(names):
                if not name.endswith(".json"):
                    continue
                path = os.path.join(directory, name)
                try:
                    with open(path, encoding="utf-8") as handle:
                        manifest = json.load(handle)
                    if not isinstance(manifest, dict):
                        manifest = {}
                except (OSError, json.JSONDecodeError,
                        UnicodeDecodeError):
                    manifest = {}
                yield path, manifest

    def verify(self) -> List[Tuple[str, bool, str]]:
        """Digest-check every entry; ``(path, ok, message)`` each.

        Recomputes the blob sha256 against the manifest — a single
        flipped byte anywhere in the blob fails the entry.
        """
        report = []
        for path, manifest in self.entries():
            if manifest.get("schema") != CORPUS_SCHEMA:
                report.append((path, False, "unreadable manifest"))
                continue
            blob_path = path[: -len(".json")] + ".bin"
            try:
                with open(blob_path, "rb") as handle:
                    blob = handle.read()
            except OSError as error:
                report.append((path, False, f"blob unreadable: {error}"))
                continue
            if len(blob) != manifest.get("blob_bytes"):
                report.append((
                    path, False,
                    f"blob is {len(blob)} bytes, manifest says "
                    f"{manifest.get('blob_bytes')}",
                ))
                continue
            digest = hashlib.sha256(blob).hexdigest()
            if digest != manifest.get("sha256"):
                report.append((path, False, "sha256 mismatch"))
                continue
            report.append((
                path, True,
                f"{manifest.get('model')} n={manifest.get('n')} "
                f"seed={manifest.get('seed')}",
            ))
        return report
