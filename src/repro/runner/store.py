"""The on-disk store of completed trials.

One WAL-mode SQLite database per cache directory
(``<cache_dir>/trials.sqlite``), one row per trial, keyed by the
spec's ``(experiment_id, params_hash, seed)`` triple:

* ``get(spec)`` — the stored value, or :data:`MISS`;
* ``put(spec, value)`` — persist in one transaction (a killed run
  leaves the old row or the new one, never a torn entry);
* ``get_many(specs)`` — the replay scan the executor uses, one SELECT
  per batch instead of one per spec.

**Versioned records.**  Every row carries a ``format``
(:data:`RECORD_FORMAT`) and a code ``fingerprint`` from
:func:`record_fingerprint`.  A row whose format or fingerprint does
not match the running code reads as :data:`MISS` (and is overwritten
by the next ``put``); ``repro store compact`` deletes such rows.

**Shared directories and threads.**  The store is a cache: a row or a
database it cannot read is a miss, never an error, so a crashed run
cannot poison later ones.  Parallel processes share one directory
through SQLite's own locking.  Within a process one connection serves
every thread (the daemon's HTTP threads read and write through it),
serialised by the store's lock.

An older layout kept one JSON file per trial under
``<cache_dir>/<experiment_id>/<params_hash>/``.  Such a tree is not
read: a process that opens a store over it warns once on stderr, and
``repro store stat`` reports it.
"""

from __future__ import annotations

import json
import os
import sqlite3
import sys
import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ExperimentError
from repro.ioatomic import sidecar_path
from repro.runner.trial import TrialSpec

__all__ = [
    "MISS",
    "RECORD_FORMAT",
    "TrialStore",
    "json_tree_files",
    "record_fingerprint",
    "reset_store_stats",
    "store_for",
    "store_stats",
]

#: Record format written by this code; bumping it invalidates every
#: existing row at once.
RECORD_FORMAT = 2


class _Miss:
    """Sentinel for a cache miss (``None`` is a valid trial value)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "MISS"


#: Returned by :meth:`TrialStore.get` when no usable entry exists.
MISS = _Miss()

#: Process-local replay tally: ``repro run`` reports it after a cached
#: run.  Workers spawned with ``--jobs`` are not counted (the replay
#: scan happens in the parent).
_STATS = {"hits": 0, "misses": 0}

#: Cache directories already warned about holding a json-files tree.
_WARNED_TREES: set = set()

_PACKAGE_VERSION: Optional[str] = None


def store_stats() -> Dict[str, int]:
    """This process's store replay tally: ``{"hits": ..., "misses": ...}``."""
    return dict(_STATS)


def reset_store_stats() -> None:
    """Zero the tally (``repro run`` calls this before each invocation)."""
    _STATS["hits"] = 0
    _STATS["misses"] = 0


def _package_version() -> str:
    # Imported lazily: repro/__init__ imports this module during its
    # own initialisation, before __version__ is bound.
    global _PACKAGE_VERSION
    if _PACKAGE_VERSION is None:
        from repro import __version__

        _PACKAGE_VERSION = __version__
    return _PACKAGE_VERSION


def record_fingerprint(trial: str) -> str:
    """The code fingerprint stamped into (and demanded of) records.

    It is ``repro.__version__`` plus the trial-function reference
    (``module:qualname``), nothing more.  Renaming or moving a trial
    function, or bumping the version, turns its old records into
    misses.  Editing the code does not: ``__version__`` has stayed
    ``1.0.0`` across every kernel change, so a record written by older
    code still replays.  A fingerprint of the code's content is an
    open ROADMAP item (item 6, stale replay).
    """
    return f"{_package_version()}/{trial}"


def store_for(
    cache_dir: Optional[Union[str, os.PathLike]],
) -> Optional["TrialStore"]:
    """A store rooted at ``cache_dir``, or ``None``.

    The one resolution of a directory-or-nothing cache knob: the
    experiment registry's
    :class:`~repro.core.registry.ExecutionContext`, ``repro serve
    --cache-store`` and benchmarks honouring ``REPRO_BENCH_CACHE_DIR``
    all funnel through it.
    """
    return TrialStore(cache_dir) if cache_dir else None


def json_tree_files(cache_dir: Union[str, os.PathLike]) -> int:
    """``.json`` files of the older one-file-per-trial layout under
    ``cache_dir`` (0 when there is no such tree)."""
    try:
        subdirs = [
            entry.path
            for entry in os.scandir(cache_dir)
            if entry.is_dir()
        ]
    except OSError:
        return 0
    return sum(
        name.endswith(".json")
        for subdir in subdirs
        for _directory, _dirs, files in os.walk(subdir)
        for name in files
    )


def _warn_json_tree(cache_dir: str) -> None:
    """One stderr line per process for a directory holding the older
    json-files layout; its files are neither read nor deleted."""
    if cache_dir in _WARNED_TREES:
        return
    _WARNED_TREES.add(cache_dir)
    files = json_tree_files(cache_dir)
    if files:
        print(
            f"warning: {cache_dir} holds a json-files trial tree "
            f"({files} files) that is no longer read; its trials are "
            f"recomputed into {TrialStore.DB_FILENAME} and the files "
            "are left in place",
            file=sys.stderr,
        )


class TrialStore:
    """One WAL-mode SQLite database of trial records per cache dir.

    A corrupted database file, or one whose ``trials`` table has
    another shape, is quarantined (sidecar-renamed) and recreated
    rather than raised.  One connection, opened on first use, shared
    by every thread under :attr:`_lock` and dropped by :meth:`close`.
    """

    #: Database filename inside the cache directory.
    DB_FILENAME = "trials.sqlite"

    # Seeds are stored as TEXT: substream-derived trial seeds are
    # arbitrary-precision ints, far beyond SQLite's signed 64-bit
    # INTEGER.
    _SCHEMA_SQL = """
        CREATE TABLE IF NOT EXISTS trials (
            experiment_id TEXT    NOT NULL,
            params_hash   TEXT    NOT NULL,
            seed          TEXT    NOT NULL,
            trial         TEXT    NOT NULL,
            params        TEXT    NOT NULL,
            value         TEXT    NOT NULL,
            format        INTEGER NOT NULL,
            fingerprint   TEXT    NOT NULL,
            PRIMARY KEY (experiment_id, params_hash, seed)
        )
    """

    #: The ``trials`` table's columns, in schema order.
    _COLUMNS = (
        "experiment_id", "params_hash", "seed", "trial", "params",
        "value", "format", "fingerprint",
    )

    #: Keys per batched replay SELECT: 3 bound variables each, kept
    #: well under SQLite's default 999-variable limit.
    _SCAN_CHUNK = 300

    def __init__(self, cache_dir: Union[str, os.PathLike]):
        self.cache_dir = os.fspath(cache_dir)
        self.db_path = os.path.join(self.cache_dir, self.DB_FILENAME)
        self._connection: Optional[sqlite3.Connection] = None
        self._lock = threading.Lock()

    def close(self) -> None:
        """Drop the connection; the next call opens a new one."""
        with self._lock:
            self._reset_connection()

    # -- connection management (callers hold self._lock) ---------------

    def _connect(self) -> sqlite3.Connection:
        if self._connection is not None:
            return self._connection
        _warn_json_tree(self.cache_dir)
        os.makedirs(self.cache_dir, exist_ok=True)
        for attempt in range(2):
            connection = sqlite3.connect(
                self.db_path, timeout=30.0, check_same_thread=False
            )
            try:
                connection.execute("PRAGMA journal_mode=WAL")
                connection.execute("PRAGMA synchronous=NORMAL")
                connection.execute(self._SCHEMA_SQL)
                connection.commit()
                columns = tuple(
                    row[1] for row in
                    connection.execute("PRAGMA table_info(trials)")
                )
                if columns != self._COLUMNS:
                    raise sqlite3.DatabaseError(
                        f"trials table has columns {columns}"
                    )
            except sqlite3.DatabaseError as error:
                # Not a database (truncated, bit-flipped, or foreign
                # bytes) or not ours (a ``trials`` table of another
                # shape): quarantine the file and start fresh — a
                # corrupted cache must read as misses, not exceptions.
                connection.close()
                if attempt == 0:
                    self._quarantine_database()
                    continue
                raise ExperimentError(
                    f"cannot open result store {self.db_path!r}: "
                    f"{error}"
                ) from error
            self._connection = connection
            return connection
        raise AssertionError("unreachable")  # pragma: no cover

    def _reset_connection(self) -> None:
        if self._connection is not None:
            try:
                self._connection.close()
            except sqlite3.Error:  # pragma: no cover - close is lenient
                pass
            self._connection = None

    def _quarantine_database(self) -> None:
        sidecar = sidecar_path(self.db_path, "corrupt")
        try:
            os.replace(self.db_path, sidecar)
        except OSError:
            pass
        for suffix in ("-wal", "-shm"):
            try:
                os.remove(self.db_path + suffix)
            except OSError:
                pass

    # -- the runner-facing contract ------------------------------------

    def get(self, spec: TrialSpec) -> Any:
        """The stored value for ``spec``, or :data:`MISS`."""
        experiment_id, digest, seed = spec.key()
        with self._lock:
            try:
                row = self._connect().execute(
                    "SELECT value, format, fingerprint FROM trials "
                    "WHERE experiment_id = ? AND params_hash = ? "
                    "AND seed = ?",
                    (experiment_id, digest, str(seed)),
                ).fetchone()
            except (sqlite3.DatabaseError, ExperimentError):
                self._reset_connection()
                row = None
            value = (
                MISS if row is None else self._row_value(row, spec.trial)
            )
            _STATS["hits" if value is not MISS else "misses"] += 1
        return value

    @staticmethod
    def _row_value(row: Tuple[Any, Any, Any], trial: str) -> Any:
        value_text, record_format, fingerprint = row
        if (
            record_format != RECORD_FORMAT
            or fingerprint != record_fingerprint(trial)
        ):
            return MISS
        try:
            return json.loads(value_text)
        except (TypeError, ValueError):
            return MISS

    def put(self, spec: TrialSpec, value: Any) -> None:
        """Persist ``value`` for ``spec`` in one transaction."""
        experiment_id, digest, seed = spec.key()
        row = (
            experiment_id,
            digest,
            str(seed),
            spec.trial,
            json.dumps(dict(spec.params), sort_keys=True),
            json.dumps(value, sort_keys=True),
            RECORD_FORMAT,
            record_fingerprint(spec.trial),
        )
        with self._lock:
            connection = self._connect()
            with connection:  # one transaction: atomic by construction
                connection.execute(
                    "INSERT OR REPLACE INTO trials (experiment_id, "
                    "params_hash, seed, trial, params, value, format, "
                    "fingerprint) VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                    row,
                )

    def get_many(self, specs: Sequence[TrialSpec]) -> List[Any]:
        """Values (or :data:`MISS`) for ``specs``, in order.

        Two plans, chosen by how much of the table the batch covers.
        A warm full replay asks for (nearly) every row, so one
        sequential scan per fingerprint — filtered down to current
        records inside SQL — beats thousands of primary-key probes.
        Sparse batches (a sweep sharing a directory with much larger
        runs) fall back to chunked keyed lookups: one SELECT per
        :data:`_SCAN_CHUNK` keys instead of one per spec.
        """
        if not specs:
            return []
        bound = []
        trials = set()
        for spec in specs:
            experiment_id, digest, seed = spec.key()
            bound.append((experiment_id, digest, str(seed)))
            trials.add(spec.trial)
        fingerprints = sorted(record_fingerprint(t) for t in trials)
        with self._lock:
            try:
                found = self._scan(specs, bound, fingerprints)
            except (sqlite3.DatabaseError, ExperimentError):
                self._reset_connection()
                found = {}
            values = self._decode_values([found.get(key) for key in bound])
            hits = sum(value is not MISS for value in values)
            _STATS["hits"] += hits
            _STATS["misses"] += len(bound) - hits
        return values

    def _scan(
        self,
        specs: Sequence[TrialSpec],
        bound: List[Tuple[str, str, str]],
        fingerprints: List[str],
    ) -> Dict[Tuple[str, str, str], str]:
        """Key -> value text of the current rows :meth:`get_many`
        asked for (plus, on the full-scan plan, rows it did not)."""
        connection = self._connect()
        total = connection.execute(
            "SELECT COUNT(*) FROM trials"
        ).fetchone()[0]
        scan_sql = (
            "SELECT experiment_id, params_hash, seed, value "
            "FROM trials WHERE format = ? AND fingerprint = ?"
        )
        if len(bound) * 4 >= total and len(fingerprints) == 1:
            # Rows outside the batch land in the result too; they are
            # simply never looked up.
            return {
                (row[0], row[1], row[2]): row[3]
                for row in connection.execute(
                    scan_sql, (RECORD_FORMAT, fingerprints[0])
                )
            }
        expected = {
            key: record_fingerprint(spec.trial)
            for spec, key in zip(specs, bound)
        }
        found: Dict[Tuple[str, str, str], str] = {}
        if len(bound) * 4 >= total:
            for fingerprint in fingerprints:
                for row in connection.execute(
                    scan_sql, (RECORD_FORMAT, fingerprint)
                ):
                    key = (row[0], row[1], row[2])
                    if expected.get(key) == fingerprint:
                        found[key] = row[3]
            return found
        for start in range(0, len(bound), self._SCAN_CHUNK):
            chunk = bound[start:start + self._SCAN_CHUNK]
            placeholders = ",".join("(?,?,?)" for _ in chunk)
            cursor = connection.execute(
                "SELECT experiment_id, params_hash, seed, "
                "value, fingerprint FROM trials WHERE "
                "format = ? AND "
                "(experiment_id, params_hash, seed) IN "
                f"(VALUES {placeholders})",
                [RECORD_FORMAT] + [part for key in chunk for part in key],
            )
            for row in cursor:
                key = (row[0], row[1], row[2])
                if expected.get(key) == row[4]:
                    found[key] = row[3]
        return found

    @staticmethod
    def _decode_values(texts: List[Optional[str]]) -> List[Any]:
        """Decode fetched value columns, ``None`` becoming ``MISS``.

        The hot path parses every hit in one ``json.loads`` call on a
        synthesized array — an order of magnitude cheaper than 1e5
        separate calls during a full warm replay.  If the combined
        parse fails or misaligns (foreign bytes in a value column),
        fall back to one-by-one decoding so only the bad rows read as
        misses.
        """
        present = [text for text in texts if text is not None]
        decoded: Optional[List[Any]] = None
        if present:
            try:
                decoded = json.loads("[%s]" % ",".join(present))
            except (TypeError, ValueError):
                decoded = None
        if decoded is not None and len(decoded) == len(present):
            replay = iter(decoded)
            return [
                MISS if text is None else next(replay)
                for text in texts
            ]
        values: List[Any] = []
        for text in texts:
            if text is None:
                values.append(MISS)
                continue
            try:
                values.append(json.loads(text))
            except (TypeError, ValueError):
                values.append(MISS)
        return values

    # -- maintenance surface (repro store stat/compact) ----------------

    def stat(self) -> Optional[Dict[str, int]]:
        """Entry/staleness/size/inode counts, or ``None`` when the
        directory holds no database (nothing is created)."""
        if not os.path.exists(self.db_path):
            return None
        entries = stale = 0
        with self._lock:
            try:
                cursor = self._connect().execute(
                    "SELECT trial, format, fingerprint FROM trials"
                )
                for trial, record_format, fingerprint in cursor:
                    if (
                        record_format == RECORD_FORMAT
                        and fingerprint == record_fingerprint(trial)
                    ):
                        entries += 1
                    else:
                        stale += 1
            except (sqlite3.DatabaseError, ExperimentError):
                self._reset_connection()
        total_bytes = 0
        inodes = 0
        for suffix in ("", "-wal", "-shm"):
            try:
                total_bytes += os.path.getsize(self.db_path + suffix)
                inodes += 1
            except OSError:
                continue
        return {
            "entries": entries,
            "stale": stale,
            "bytes": total_bytes,
            "inodes": inodes,
        }

    def compact(self) -> Optional[int]:
        """Delete stale rows, checkpoint the WAL and VACUUM; the number
        of rows removed, or ``None`` when there is no database."""
        if not os.path.exists(self.db_path):
            return None
        removed_stale = 0
        with self._lock:
            try:
                connection = self._connect()
                with connection:
                    for trial, record_format, fingerprint in (
                        connection.execute(
                            "SELECT DISTINCT trial, format, "
                            "fingerprint FROM trials"
                        ).fetchall()
                    ):
                        if (
                            record_format == RECORD_FORMAT
                            and fingerprint == record_fingerprint(trial)
                        ):
                            continue
                        cursor = connection.execute(
                            "DELETE FROM trials WHERE trial = ? "
                            "AND format = ? AND fingerprint = ?",
                            (trial, record_format, fingerprint),
                        )
                        removed_stale += cursor.rowcount
                connection.execute("PRAGMA wal_checkpoint(TRUNCATE)")
                connection.execute("VACUUM")
            except (sqlite3.DatabaseError, ExperimentError):
                self._reset_connection()
        return removed_stale
