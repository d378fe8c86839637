"""Memory-mapped on-disk corpus of generated CSR graph snapshots.

Generating a scale-free graph is now the dominant cost of many
experiment cells (the searches themselves were vectorised in the
walker-ensemble PR, the generators in :mod:`repro.graphs.fastgen`), and
the *same* snapshot — identified entirely by ``(model parameters, n,
seed)`` — recurs across experiments, grids and repeated runs.  A
:class:`GraphCorpus` persists each snapshot once:

* one **CSR blob** per entry — the seven int64 arrays of a
  :class:`~repro.graphs.frozen.FrozenGraph` (endpoint columns, CSR
  offsets, incidence slots, directed degrees) concatenated
  little-endian, loaded back with ``numpy.memmap`` so the buffers are
  shared, lazily paged, and **read-only** (a write through a loaded
  array raises, preserving the frozen-graph immutability contract);
* one **JSON manifest** per entry carrying the identifying key
  (model, canonical parameter spec, its sha256 hash, ``n``, ``seed``),
  the array layout, and a sha256 digest of the blob so
  :meth:`GraphCorpus.verify` (and ``repro corpus verify``) can detect
  any byte-level corruption.

Entries are deterministic — the same key always serialises to the same
bytes, with no timestamps — and are committed atomically (temp file +
``os.replace``, blob before manifest), so concurrent writers racing on
the same key are harmless: whichever order their renames land in, the
files always hold one complete, valid entry (this mirrors the
ResultStore's shared-directory guarantees, with content-identity making
the corpus case strictly easier).  A reader that finds anything
unusable treats it as a miss and rebuilds; only ``verify`` judges.

The corpus activates through the ``REPRO_CORPUS_DIR`` environment
variable (see :func:`active_corpus`): the generator-aware build helper
in :mod:`repro.core.trials` consults it on every independent frozen
snapshot build, and the variable is inherited by worker processes.
Hit/miss counters are process-local; the CLI reports the parent
process's tally after a run.

numpy is required (the whole point is mapped array sharing); without
it :func:`active_corpus` reports no corpus, so callers silently fall
back to building in memory, and explicit :class:`GraphCorpus` use
raises :class:`~repro.errors.EngineUnavailableError`.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.errors import EngineUnavailableError, ExperimentError
from repro.graphs.frozen import FrozenGraph, freeze
from repro.ioatomic import write_atomic

try:  # pragma: no cover - exercised implicitly by every test run
    import numpy as _np

    HAVE_CORPUS = True
except ImportError:  # pragma: no cover - the container always has numpy
    _np = None
    HAVE_CORPUS = False

__all__ = [
    "HAVE_CORPUS",
    "CORPUS_SCHEMA",
    "CORPUS_DIR_VARIABLE",
    "GraphCorpus",
    "active_corpus",
    "corpus_stats",
    "reset_corpus_stats",
]

CORPUS_SCHEMA = "repro-corpus/v1"
CORPUS_DIR_VARIABLE = "REPRO_CORPUS_DIR"

#: Array names in blob order; lengths are functions of (n, num_edges).
_ARRAY_NAMES = (
    "tails",
    "heads",
    "offsets",
    "slot_edges",
    "slot_targets",
    "indegree",
    "outdegree",
)

_STATS = {"hits": 0, "misses": 0}


def corpus_stats() -> Dict[str, int]:
    """This process's corpus hit/miss tally (since the last reset)."""
    return dict(_STATS)


def reset_corpus_stats() -> None:
    """Zero the hit/miss tally (one CLI run = one tally)."""
    _STATS["hits"] = 0
    _STATS["misses"] = 0


def active_corpus() -> Optional["GraphCorpus"]:
    """The corpus named by ``REPRO_CORPUS_DIR``, or ``None``.

    ``None`` when the variable is unset/empty or numpy is missing —
    the build paths silently fall back to in-memory construction, so
    setting the variable can never make a run fail.
    """
    root = os.environ.get(CORPUS_DIR_VARIABLE)
    if not root or not HAVE_CORPUS:
        return None
    return GraphCorpus(root)


def _require_corpus_engine() -> None:
    if not HAVE_CORPUS:
        raise EngineUnavailableError(
            "the graph corpus requires numpy, which is not available"
        )


def _spec_hash(spec: Mapping[str, Any]) -> str:
    """Canonical-JSON sha256 of a family spec (tuples == lists)."""
    payload = json.dumps(
        dict(spec), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class GraphCorpus:
    """A directory of memory-mapped frozen-graph snapshots."""

    def __init__(self, root):
        _require_corpus_engine()
        self.root = os.fspath(root)

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------

    def stem_for(self, spec: Mapping[str, Any], n: int, seed: int) -> str:
        """Path stem (no extension) of the entry for this key."""
        model = str(spec.get("model", "adhoc"))
        digest = _spec_hash(spec)[:16]
        return os.path.join(self.root, model, f"n{n}-s{seed}-{digest}")

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
            return self._assemble(manifest, blob)
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

    @staticmethod
    def _assemble(manifest, blob) -> FrozenGraph:
        views = {}
        for entry in manifest["arrays"]:
            offset, length = entry["offset"], entry["length"]
            views[entry["name"]] = blob[offset:offset + length]
        return FrozenGraph(
            manifest["n"],
            views["offsets"],
            views["slot_edges"],
            views["slot_targets"],
            manifest["num_loops"],
            columns=(
                views["tails"],
                views["heads"],
                views["indegree"],
                views["outdegree"],
            ),
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
        arrays = []
        chunks = []
        offset = 0
        for name, column in zip(_ARRAY_NAMES, snapshot._blob_arrays()):
            data = _np.ascontiguousarray(column, dtype="<i8")
            arrays.append(
                {"name": name, "offset": offset, "length": len(data)}
            )
            chunks.append(data.tobytes())
            offset += len(data)
        blob = b"".join(chunks)
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
            "arrays": arrays,
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
    # The cache protocol
    # ------------------------------------------------------------------

    def get_or_build(
        self,
        spec: Mapping[str, Any],
        n: int,
        seed: int,
        build: Callable[[], Any],
        generator: str = "serial",
    ) -> FrozenGraph:
        """Return the stored snapshot, or build, store and return it.

        The race between concurrent builders of the same key is
        benign: both compute identical bytes (generation is seeded and
        serialisation deterministic) and both commit atomically, so
        the survivor is always one valid entry.
        """
        snapshot = self.get(spec, n, seed)
        if snapshot is not None:
            _STATS["hits"] += 1
            return snapshot
        _STATS["misses"] += 1
        snapshot = freeze(build())
        self.put(spec, n, seed, snapshot, generator=generator)
        return snapshot

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
