"""Atomic filesystem idioms shared by the on-disk layers.

The graph corpus (:mod:`repro.graphs.corpus`) writes files by
serializing into a same-directory temp file created by
:func:`tempfile.mkstemp`, then :func:`os.replace`-ing it over the
destination, so readers only ever observe absent-or-complete files and
crashed writers leave nothing at the destination path.  The trial
store (:mod:`repro.runner.store`) moves a corrupted database aside
under a private sidecar name before starting a fresh one.

This module is the single home of those mechanics (temp-file
lifecycle, sidecar uniquification, forgiving cleanup); policy stays
with the callers.
"""

from __future__ import annotations

import itertools
import os
import tempfile

__all__ = [
    "discard",
    "sidecar_path",
    "write_atomic",
]

#: Uniquifies sidecar names within one process.  Shared across all
#: callers on purpose: a single counter means two subsystems moving
#: files aside in the same directory can never collide.
_SIDECAR_IDS = itertools.count(1)


def discard(path: str) -> None:
    """Best-effort ``os.remove`` for shared-directory cleanup."""
    # ENOENT: another process already removed (or is atomically
    # replacing) the entry.  EPERM/EACCES: a Windows peer holds
    # the file open mid-rewrite.  Both are benign in a shared
    # cache directory, as is any other OSError here — cleanup
    # must never fail a run.
    try:
        os.remove(path)
    except OSError:
        pass


def sidecar_path(path: str, tag: str) -> str:
    """A private sidecar name for ``path`` no other process will pick.

    ``tag`` spells the sidecar's role (``"corrupt"``); the pid plus a
    process-wide counter make the name unique even when one process
    moves the same path aside repeatedly.
    """
    return f"{path}.{tag}-{os.getpid()}-{next(_SIDECAR_IDS)}"


def write_atomic(
    path: str,
    data: bytes,
    *,
    prefix: str = ".tmp-",
) -> None:
    """Write ``data`` to ``path`` atomically (temp file + rename).

    The temp file is created next to ``path`` (same filesystem, so the
    rename is atomic) with the given ``prefix``, making half-written
    debris recognisable to each caller's cleanup.  On any failure the
    temp file is discarded and the destination is untouched.
    """
    descriptor, temp_path = tempfile.mkstemp(
        prefix=prefix, suffix=".tmp", dir=os.path.dirname(path)
    )
    try:
        with os.fdopen(descriptor, "wb") as handle:
            handle.write(data)
        os.replace(temp_path, path)
    except BaseException:
        discard(temp_path)
        raise
