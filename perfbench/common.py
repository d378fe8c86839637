"""Shared pieces of the benchmark.

Paths of the checkout, the host reference slice, exact sample
percentiles, span recording around public functions, and process
inspection (PSS, children, shared-memory segments).  Stdlib only, so the
benchmark's own code never depends on what it measures.
"""

from __future__ import annotations

import compileall
import functools
import json
import os
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
#: Scratch output of a run (traces); listed in the root .gitignore.
OUT_DIR = ROOT / ".perfbench"

#: Reference-host speed: one reference slice takes this long on the
#: host ``wall_s`` is rescaled to (2 vCPU, Python 3.11).
REF_NOMINAL_MS = 12.0
_REF_LOOP = 200_000
_REF_REPEATS = 9


class BenchError(Exception):
    """The benchmark cannot run (missing sources, dead daemon)."""


def require_sources() -> None:
    """Fail fast when the checkout has no program to measure."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(
            f"no repro package under {SRC}; run from a full checkout"
        )


def put_sources_on_path() -> None:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    """Environment for every child: the checkout's sources first."""
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        f"{SRC}{os.pathsep}{existing}" if existing else str(SRC)
    )
    # A corpus would serve graph builds from disk; the builds are measured.
    env.pop("REPRO_CORPUS_DIR", None)
    return env


def compile_sources() -> None:
    """Byte-compile the program and the benchmark before any timing."""
    for directory in (SRC, BENCH_DIR):
        compileall.compile_dir(str(directory), quiet=1)


def ref_slice_ms() -> float:
    """Median time of a fixed pure-Python loop: the host's speed now.

    Timed only while the measured program is idle, so it reads the
    host, not contention with the program.
    """
    samples = []
    for _ in range(_REF_REPEATS):
        begin = time.perf_counter()
        total = 0
        for value in range(_REF_LOOP):
            total += value * value % 7
        samples.append((time.perf_counter() - begin) * 1000.0)
    return statistics.median(samples)


def quantile(values: Sequence[float], q: float) -> float:
    """Exact sample quantile with linear interpolation (numpy's default)."""
    if not values:
        raise ValueError("quantile of an empty sample")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


# ----------------------------------------------------------------------
# Tracing: spans recorded around public functions, from outside
# ----------------------------------------------------------------------


class Tracer:
    """In-memory span recorder.

    A span is ``(name, start, end, parent, query_id)`` with times from
    ``perf_counter`` and ``parent`` the index of the enclosing span of
    this thread (or ``-1``).  :meth:`wrap` replaces a function at the
    name its caller resolves, so no source file changes.
    """

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self._stack: List[int] = []
        self._patched: List[tuple] = []

    def span(self, name: str, query_id: Optional[int] = None):
        return _Span(self, name, query_id)

    def wrap(self, module: Any, attribute: str, name: str) -> None:
        original = getattr(module, attribute)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with tracer.span(name):
                return original(*args, **kwargs)

        setattr(module, attribute, traced)
        self._patched.append((module, attribute, original))

    def unwrap_all(self) -> None:
        for module, attribute, original in reversed(self._patched):
            setattr(module, attribute, original)
        self._patched.clear()

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: Dict[str, Dict[str, float]] = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            entry = totals.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[index]
        return totals

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans}, handle)


class _Span:
    __slots__ = ("tracer", "name", "query_id", "index")

    def __init__(self, tracer: Tracer, name: str, query_id):
        self.tracer = tracer
        self.name = name
        self.query_id = query_id

    def __enter__(self):
        tracer = self.tracer
        parent = tracer._stack[-1] if tracer._stack else -1
        self.index = len(tracer.spans)
        tracer.spans.append(
            [self.name, time.perf_counter(), 0.0, parent, self.query_id]
        )
        tracer._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        tracer = self.tracer
        tracer.spans[self.index][2] = time.perf_counter()
        tracer._stack.pop()
        return False


def load_spans(path: Path) -> Tracer:
    tracer = Tracer()
    with open(path, encoding="utf-8") as handle:
        tracer.spans = json.load(handle)["spans"]
    return tracer


# ----------------------------------------------------------------------
# Process inspection
# ----------------------------------------------------------------------


def shm_segments() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:
        return set()


def descendants(pid: int) -> List[int]:
    """Every live descendant of ``pid`` (scanned from ``/proc``)."""
    parents: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as handle:
                stat = handle.read()
        except OSError:
            continue
        fields = stat[stat.rfind(")") + 2:].split()
        parents[int(entry)] = int(fields[1])
    found, frontier = [], [pid]
    while frontier:
        current = frontier.pop()
        for child, parent in parents.items():
            if parent == current:
                found.append(child)
                frontier.append(child)
    return sorted(found)


def pss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/smaps_rollup", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("Pss:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no Pss line for process {pid}")


def cmdline(pid: int) -> bytes:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as handle:
            return handle.read()
    except OSError:
        return b""


def mapped_segments(pid: int) -> set:
    """Names of ``/dev/shm`` segments mapped into process ``pid``."""
    names = set()
    try:
        with open(f"/proc/{pid}/maps", encoding="utf-8") as handle:
            for line in handle:
                marker = line.find("/dev/shm/")
                if marker >= 0:
                    names.add(line[marker + 9:].split()[0])
    except OSError:
        pass
    return names
