"""Shared-memory publication of frozen CSR snapshots.

A :class:`~repro.graphs.frozen.FrozenGraph` is immutable, so its CSR
arrays can be *published once* into a ``multiprocessing.shared_memory``
segment and attached read-only by any number of worker processes —
instead of pickling the whole graph into every task (the cost that
dominates per-trial dispatch at search scale).  The layout reuses the
corpus blob convention (:mod:`repro.graphs.corpus`): the seven int64
arrays (endpoint columns, CSR offsets, incidence slots, directed
degrees) concatenated little-endian, here prefixed by a length-framed
JSON header so an attach needs nothing but the segment *name*::

    [magic "REPROSHM"][uint64 header length][header JSON][pad to 8]
    [tails][heads][offsets][slot_edges][slot_targets][indegree][outdegree]

:func:`publish_graph` serialises a snapshot and returns the owner-side
:class:`SharedGraphSegment` handle (the owner — a service daemon, a
benchmark driver — is responsible for ``unlink()`` on shutdown).
Segments are named ``repro-<owner pid>-<token>``, so an owner killed
before it could unlink leaves names that
:func:`sweep_dead_segments` recognises and removes;
:func:`attach_graph` maps a segment by name into an
:class:`ShmFrozenGraph`, a plain :class:`FrozenGraph` whose big slot
arrays are views straight into the shared buffer.  Attached views are
read-only, preserving the frozen-graph immutability contract.

The views are zero-copy numpy ``frombuffer`` arrays, all seven of them,
so an attach parses the header and builds nothing else — O(1) in the
graph size.  The endpoint and degree lists the scalar API needs
(``edge_endpoints``, ``in_degree``, ...) are built only if a search
calls it; the ensemble engine never does.
"""

from __future__ import annotations

import json
import os
import struct
from multiprocessing import shared_memory
from typing import Any, Dict, List, Optional

import numpy as _np

from repro.errors import ExperimentError
from repro.graphs.frozen import FrozenGraph, freeze

__all__ = [
    "SHM_SCHEMA",
    "SharedGraphSegment",
    "ShmFrozenGraph",
    "attach_graph",
    "publish_graph",
    "sweep_dead_segments",
]

SHM_SCHEMA = "repro-shm/v1"

#: Where POSIX shared-memory segments appear as files (Linux).
SHM_DIR = "/dev/shm"

_MAGIC = b"REPROSHM"
_PREFIX = struct.Struct("<8sQ")

#: Array names in blob order — the corpus convention.
_ARRAY_NAMES = (
    "tails",
    "heads",
    "offsets",
    "slot_edges",
    "slot_targets",
    "indegree",
    "outdegree",
)


def _blob_columns(snapshot: FrozenGraph) -> List[Any]:
    """The seven arrays as contiguous little-endian int64 buffers.

    These are the snapshot's own arrays (no copy unless one is
    strided), so publishing copies each array once, straight into the
    segment.
    """
    return [
        _np.ascontiguousarray(column, dtype="<i8")
        for column in snapshot._blob_arrays()
    ]


class SharedGraphSegment:
    """Owner-side handle of one published snapshot.

    The owner keeps the segment alive; workers attach by
    :attr:`name`.  ``close()`` drops this process's mapping,
    ``unlink()`` removes the segment system-wide (idempotent — a
    double unlink on shutdown paths is harmless).
    """

    def __init__(self, shm, header: Dict[str, Any]):
        self._shm = shm
        self.header = header
        self._unlinked = False

    @property
    def name(self) -> str:
        return self._shm.name

    @property
    def size(self) -> int:
        return self._shm.size

    def close(self) -> None:
        try:
            self._shm.close()
        except (BufferError, OSError):  # pragma: no cover - defensive
            pass

    def unlink(self) -> None:
        if self._unlinked:
            return
        self._unlinked = True
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SharedGraphSegment(name={self.name!r}, "
            f"n={self.header.get('n')}, m={self.header.get('num_edges')})"
        )


def publish_graph(graph, *, name: Optional[str] = None) -> SharedGraphSegment:
    """Serialise ``graph`` into a new shared-memory segment.

    ``graph`` may be either backend; it is frozen if needed.  Returns
    the owner handle; the caller owns the segment's lifetime and must
    ``unlink()`` it eventually (a leaked segment outlives the process).
    ``name`` defaults to ``repro-<this pid>-<random token>``.
    """
    if name is None:
        name = f"repro-{os.getpid()}-{os.urandom(8).hex()}"
    snapshot = freeze(graph)
    columns = _blob_columns(snapshot)
    arrays = []
    offset = 0
    for array_name, column in zip(_ARRAY_NAMES, columns):
        length = len(column)
        arrays.append(
            {"name": array_name, "offset": offset, "length": length}
        )
        offset += length
    header = {
        "schema": SHM_SCHEMA,
        "n": snapshot.num_vertices,
        "num_edges": snapshot.num_edges,
        "num_loops": snapshot.num_self_loops(),
        "arrays": arrays,
    }
    header_bytes = json.dumps(
        header, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    payload_offset = _PREFIX.size + len(header_bytes)
    payload_offset += (-payload_offset) % 8  # 8-align the arrays
    total = payload_offset + 8 * offset
    shm = shared_memory.SharedMemory(
        create=True, size=max(total, 1), name=name
    )
    try:
        shm.buf[: _PREFIX.size] = _PREFIX.pack(_MAGIC, len(header_bytes))
        shm.buf[
            _PREFIX.size: _PREFIX.size + len(header_bytes)
        ] = header_bytes
        cursor = payload_offset
        for column in columns:
            size = 8 * len(column)
            shm.buf[cursor: cursor + size] = memoryview(column).cast("B")
            cursor += size
    except BaseException:  # pragma: no cover - allocation races only
        shm.close()
        shm.unlink()
        raise
    return SharedGraphSegment(shm, header)


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # alive, owned by another user
        return True
    return True


def sweep_dead_segments(directory: str = SHM_DIR) -> List[str]:
    """Unlink every ``repro-<pid>-*`` segment whose owner pid is gone.

    An owner killed by SIGKILL never runs its ``unlink()``, and its
    segments would outlive it until reboot.  A segment whose owner is
    alive (or whose pid was reused) is left alone.  Returns the names
    removed; a host without ``directory`` has nothing to sweep.
    """
    try:
        names = os.listdir(directory)
    except OSError:
        return []
    removed = []
    for name in names:
        prefix, _, rest = name.partition("-")
        pid, _, token = rest.partition("-")
        if prefix != "repro" or not pid.isdigit() or not token:
            continue
        if _pid_alive(int(pid)):
            continue
        try:
            os.unlink(os.path.join(directory, name))
        except FileNotFoundError:  # a concurrent sweep won the race
            continue
        removed.append(name)
    return removed


class ShmFrozenGraph(FrozenGraph):
    """A :class:`FrozenGraph` whose CSR arrays live in shared memory.

    Behaviourally identical to any other snapshot — same queries, same
    immutability — plus a reference to the mapped segment so the
    buffer outlives the views.  Drop with :meth:`close` (or just let
    the worker process exit; attached mappings do not pin the segment
    once the owner unlinks it).
    """

    __slots__ = ("_segment", "shm_name")

    def close(self) -> None:
        """Release this process's mapping of the segment.

        The numpy slices export the buffer, so they are dropped first; the graph is unusable afterwards.
        """
        self._offsets = None
        self._slot_edges = None
        self._slot_targets = None
        self._columns = None
        segment = self._segment
        self._segment = None
        if segment is not None:
            try:
                segment.close()
            except (BufferError, OSError):  # pragma: no cover
                pass


def _attach_segment(name: str):
    """Map an existing segment without resource-tracker interference.

    Before Python 3.13 (``track=False``) the resource tracker of an
    *attaching* process registers the segment and unlinks it when that
    process exits — destroying a segment it never owned.  On those
    versions the registration is suppressed at the source (the
    after-the-fact ``unregister`` workaround floods the shared tracker
    with duplicate messages when several forked workers attach the
    same segment).
    """
    try:
        return shared_memory.SharedMemory(
            name=name, create=False, track=False
        )
    except TypeError:
        from multiprocessing import resource_tracker

        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name, create=False)
        finally:
            resource_tracker.register = original


def attach_graph(name: str) -> ShmFrozenGraph:
    """Attach the published snapshot ``name`` from this process.

    Raises :class:`FileNotFoundError` if no such segment exists (the
    owner was never started, or already unlinked it) and
    :class:`~repro.errors.ExperimentError` if the segment is not a
    published graph.
    """
    shm = _attach_segment(name)
    try:
        magic, header_length = _PREFIX.unpack_from(shm.buf, 0)
        if magic != _MAGIC:
            raise ExperimentError(
                f"shared-memory segment {name!r} is not a published "
                "graph (bad magic)"
            )
        header = json.loads(
            bytes(shm.buf[_PREFIX.size: _PREFIX.size + header_length])
        )
        if header.get("schema") != SHM_SCHEMA:
            raise ExperimentError(
                f"shared-memory segment {name!r} has schema "
                f"{header.get('schema')!r}, expected {SHM_SCHEMA!r}"
            )
        payload_offset = _PREFIX.size + header_length
        payload_offset += (-payload_offset) % 8
        total_words = sum(
            entry["length"] for entry in header["arrays"]
        )
        views: Dict[str, Any] = {}
        base = _np.frombuffer(
            shm.buf, dtype="<i8",
            count=total_words, offset=payload_offset,
        )
        base.flags.writeable = False
        for entry in header["arrays"]:
            lo = entry["offset"]
            views[entry["name"]] = base[lo: lo + entry["length"]]
        snapshot = ShmFrozenGraph(
            header["n"],
            views["offsets"],
            views["slot_edges"],
            views["slot_targets"],
            header["num_loops"],
            columns=(
                views["tails"],
                views["heads"],
                views["indegree"],
                views["outdegree"],
            ),
        )
    except BaseException:
        shm.close()
        raise
    snapshot._segment = SharedGraphSegment(shm, header)
    snapshot.shm_name = name
    return snapshot
