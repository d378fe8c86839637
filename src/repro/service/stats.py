"""Service observability: latency histograms and serving counters.

One histogram implementation serves every latency number the system
reports: the daemon's ``GET /stats`` route, the ``--stats-interval``
log line, and the load generator's summary all funnel through
:class:`LatencyHistogram`, so a percentile printed by ``loadgen`` and
one printed by the daemon are the same estimator over the same bucket
layout — comparable by construction, never two codepaths drifting.

The histogram is fixed-size (geometric buckets from 0.1 ms to ~2
minutes, each 25% wider than the last) so recording a sample is O(1)
and the daemon's memory footprint is constant no matter how many
queries it serves — the property a per-request ``list.append`` would
lose at million-user volumes.

:class:`ServiceStats` aggregates the daemon-side view: per-route
request/error counts and latency, the batch-size distribution of
answered cache misses (the daemon runs one cell per batch, inline or
as a pool call) with its inline and spilled (pooled) counts,
answer-cache hits/misses, shed (429) and timeout (503) counts, and the
in-flight gauge.  Everything is guarded by one lock
and snapshots to a plain JSON-able dict.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Any, Dict, Optional

__all__ = ["LatencyHistogram", "ServiceStats"]

#: Lowest bucket upper bound, seconds.  Anything faster lands in
#: bucket 0 — sub-0.1ms resolution is measurement noise over HTTP.
_FLOOR = 1e-4
#: Geometric growth per bucket: each bucket spans 25% of its lower
#: bound, so percentiles (bucket upper bounds) can read up to 25% high.
_GROWTH = 1.25
#: 64 buckets: _FLOOR * _GROWTH**63 ≈ 124 s, past any sane timeout.
_BUCKETS = 64
_LOG_GROWTH = math.log(_GROWTH)


def _bucket_index(seconds: float) -> int:
    if seconds <= _FLOOR:
        return 0
    index = int(math.log(seconds / _FLOOR) / _LOG_GROWTH) + 1
    return min(index, _BUCKETS - 1)


def _bucket_bound(index: int) -> float:
    """Upper bound of bucket ``index``, seconds."""
    return _FLOOR * _GROWTH ** index


class LatencyHistogram:
    """Fixed-size geometric latency histogram (thread-safe).

    ``record`` is O(1); ``percentile`` is a nearest-rank scan over the
    64 buckets returning the matched bucket's upper bound (clamped to
    the exact observed max), so a reported percentile is never below
    the true one and at most one 25%-wide bucket above it — fine for
    p50/p90/p99 serving dashboards, too coarse to tell apart two arms
    less than 25% apart.
    """

    def __init__(self) -> None:
        self._counts = [0] * _BUCKETS
        self._count = 0
        self._sum = 0.0
        self._max = 0.0
        self._lock = threading.Lock()

    def record(self, seconds: float) -> None:
        seconds = max(0.0, float(seconds))
        with self._lock:
            self._counts[_bucket_index(seconds)] += 1
            self._count += 1
            self._sum += seconds
            if seconds > self._max:
                self._max = seconds

    @property
    def count(self) -> int:
        return self._count

    def mean(self) -> float:
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile in seconds (0 when empty)."""
        with self._lock:
            if not self._count:
                return 0.0
            rank = max(1, math.ceil(q * self._count))
            seen = 0
            for index, bucket in enumerate(self._counts):
                seen += bucket
                if seen >= rank:
                    return min(_bucket_bound(index), self._max)
            return self._max  # pragma: no cover - rank <= count

    def snapshot(self) -> Dict[str, Any]:
        """``{"count", "mean_ms", "p50_ms", "p90_ms", "p99_ms",
        "max_ms"}`` — the shape every latency report shares."""
        return {
            "count": self._count,
            "mean_ms": round(self.mean() * 1000.0, 3),
            "p50_ms": round(self.percentile(0.50) * 1000.0, 3),
            "p90_ms": round(self.percentile(0.90) * 1000.0, 3),
            "p99_ms": round(self.percentile(0.99) * 1000.0, 3),
            "max_ms": round(self._max * 1000.0, 3),
        }


class ServiceStats:
    """The daemon's aggregate serving counters (thread-safe).

    Routes are tracked by name (``"search"``, ``"graphs"``, ...);
    only routes that actually served a request appear in snapshots.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._started = time.monotonic()
        self._route_counts: Dict[str, int] = {}
        self._route_errors: Dict[str, int] = {}
        self._route_latency: Dict[str, LatencyHistogram] = {}
        self._batch_sizes: Dict[int, int] = {}
        self._batch_queries = 0
        self._inline = 0
        self._spilled = 0
        self._batch_failures = 0
        self._cache_hits = 0
        self._cache_misses = 0
        self._shed = 0
        self._timeouts = 0
        self._in_flight = 0

    # -- request accounting -------------------------------------------

    def record_request(
        self, route: str, seconds: float, *, error: bool = False
    ) -> None:
        with self._lock:
            self._route_counts[route] = (
                self._route_counts.get(route, 0) + 1
            )
            if error:
                self._route_errors[route] = (
                    self._route_errors.get(route, 0) + 1
                )
            histogram = self._route_latency.get(route)
            if histogram is None:
                histogram = LatencyHistogram()
                self._route_latency[route] = histogram
        histogram.record(seconds)

    def enter(self) -> None:
        with self._lock:
            self._in_flight += 1

    def leave(self) -> None:
        with self._lock:
            self._in_flight -= 1

    @property
    def in_flight(self) -> int:
        with self._lock:
            return self._in_flight

    # -- batch accounting ---------------------------------------------

    def record_batch(self, size: int, *, inline: bool) -> None:
        """A batch of ``size`` cells answered in the daemon's own thread
        (``inline``) or sent to the pool (spilled)."""
        with self._lock:
            self._batch_sizes[size] = self._batch_sizes.get(size, 0) + 1
            self._batch_queries += size
            if inline:
                self._inline += size
            else:
                self._spilled += size

    def record_batch_failure(self) -> None:
        with self._lock:
            self._batch_failures += 1

    # -- cache / shedding ---------------------------------------------

    def cache_hit(self) -> None:
        with self._lock:
            self._cache_hits += 1

    def cache_miss(self) -> None:
        with self._lock:
            self._cache_misses += 1

    def record_shed(self) -> None:
        with self._lock:
            self._shed += 1

    def record_timeout(self) -> None:
        with self._lock:
            self._timeouts += 1

    # -- reporting -----------------------------------------------------

    def snapshot(
        self, *, cache_info: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        """One JSON-able view of everything (the ``/stats`` body)."""
        with self._lock:
            batches = sum(self._batch_sizes.values())
            routes = {
                route: {
                    "count": self._route_counts[route],
                    "errors": self._route_errors.get(route, 0),
                    **self._route_latency[route].snapshot(),
                }
                for route in sorted(self._route_counts)
            }
            payload: Dict[str, Any] = {
                "uptime_s": round(
                    time.monotonic() - self._started, 3
                ),
                "in_flight": self._in_flight,
                "routes": routes,
                "batches": {
                    "count": batches,
                    "queries": self._batch_queries,
                    "inline": self._inline,
                    "spilled": self._spilled,
                    "failed": self._batch_failures,
                    "mean_size": round(
                        self._batch_queries / batches, 3
                    ) if batches else 0.0,
                    "size_distribution": {
                        str(size): self._batch_sizes[size]
                        for size in sorted(self._batch_sizes)
                    },
                },
                "cache": {
                    "hits": self._cache_hits,
                    "misses": self._cache_misses,
                    **(cache_info or {}),
                },
                "shed": self._shed,
                "timeouts": self._timeouts,
            }
        return payload

    def log_line(self) -> str:
        """The one-line operator summary ``--stats-interval`` prints."""
        snap = self.snapshot()
        search = snap["routes"].get("search", {})
        batches = snap["batches"]
        cache = snap["cache"]
        return (
            f"stats: served={search.get('count', 0)} "
            f"p50={search.get('p50_ms', 0.0):.1f}ms "
            f"p99={search.get('p99_ms', 0.0):.1f}ms "
            f"in_flight={snap['in_flight']} "
            f"batches={batches['count']} "
            f"inline={batches['inline']} "
            f"spilled={batches['spilled']} "
            f"cache={cache['hits']}/{cache['hits'] + cache['misses']} "
            f"shed={snap['shed']} timeouts={snap['timeouts']}"
        )
