"""Stdlib client and load generator for the search daemon.

:class:`ServiceClient` is one keep-alive connection speaking the
daemon's JSON routes; :func:`run_load` drives N concurrent clients
over a fixed query list and reports latency percentiles and sustained
throughput — the serving-performance numbers the P2P resource-
discovery literature reports.

Responses come back *in query order* regardless of which client
thread carried which query, so a load run doubles as a determinism
check against the batch path.

Two arrival models (the distinction the serving literature insists
on):

* **closed-loop** (default): each client issues its next query the
  moment the previous answer lands.  Concurrency is capped at
  ``clients``, so the measured qps is throttled by latency (a fast
  server just makes the loop spin faster, it never sees deep queues).
* **open-loop** (``arrival=<qps>``): query *i* is due at
  ``i/qps`` seconds regardless of how the previous one fared.  When
  the daemon falls behind, queries queue up, and their latency shows
  the wait.

Latency percentiles come from the same
:class:`~repro.service.stats.LatencyHistogram` the daemon's
``/stats`` route uses, so client-side and server-side numbers share
one estimator.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ExperimentError
from repro.service.stats import LatencyHistogram

__all__ = ["ServiceClient", "ServiceHTTPError", "run_load"]


class ServiceHTTPError(ExperimentError):
    """A non-2xx daemon response; carries the HTTP status."""

    def __init__(self, status: int, message: str):
        self.status = status
        super().__init__(f"HTTP {status}: {message}")


class ServiceClient:
    """One persistent connection to a running search daemon."""

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._conn: Optional[http.client.HTTPConnection] = None

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def _request(
        self, method: str, path: str, payload: Any = None
    ) -> Any:
        body = (
            None if payload is None
            else json.dumps(payload).encode("utf-8")
        )
        headers = (
            {} if body is None
            else {"Content-Type": "application/json"}
        )
        # One reconnect on a dropped keep-alive: the daemon may have
        # recycled the connection between requests.
        for attempt in (0, 1):
            conn = self._connection()
            try:
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
                raw = response.read()
                break
            except (http.client.HTTPException, ConnectionError,
                    BrokenPipeError, OSError):
                self.close()
                if attempt:
                    raise
        try:
            decoded = json.loads(raw) if raw else None
        except json.JSONDecodeError as error:
            raise ExperimentError(
                f"daemon returned non-JSON for {path}: {raw[:200]!r}"
            ) from error
        if response.status >= 400:
            message = (
                decoded.get("error", "")
                if isinstance(decoded, dict) else str(decoded)
            )
            raise ServiceHTTPError(response.status, message)
        return decoded

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        return self._request("GET", "/healthz")

    def graphs(self) -> List[Dict[str, Any]]:
        return self._request("GET", "/graphs")

    def stats(self) -> Dict[str, Any]:
        return self._request("GET", "/stats")

    def reload(self) -> Dict[str, Any]:
        return self._request("POST", "/reload", payload={})

    def search(
        self,
        graph: str,
        algorithm: str,
        run_index: int = 0,
        *,
        start: Optional[int] = None,
        target: Optional[int] = None,
    ) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "graph": graph,
            "algorithm": algorithm,
            "run_index": run_index,
        }
        if start is not None:
            payload["start"] = start
        if target is not None:
            payload["target"] = target
        return self._request("POST", "/search", payload=payload)


def run_load(
    host: str,
    port: int,
    queries: List[Dict[str, Any]],
    *,
    clients: int = 4,
    timeout: float = 60.0,
    arrival: Optional[float] = None,
    duration: Optional[float] = None,
) -> Tuple[List[Any], Dict[str, float]]:
    """Drive ``queries`` through ``clients`` concurrent connections.

    A shared counter hands out query indices, so each client thread
    (one keep-alive connection apiece) pulls the next pending query as
    soon as it is free.  Returns ``(responses, stats)`` with responses
    in *query order* and stats in seconds/qps: ``{"p50_ms", "p90_ms",
    "p99_ms", "mean_ms", "qps", "wall_s", "queries", "clients"}``.

    ``arrival`` switches to open-loop mode: query *i* is released no
    earlier than ``i/arrival`` seconds into the run (queries due in
    the past fire immediately, so a lagging daemon faces the backlog
    an open-loop generator is supposed to expose).  ``duration`` runs
    for a wall-clock budget instead of a fixed count: the query list
    is cycled modulo its length until the budget expires.
    """
    if clients < 1:
        raise ExperimentError(f"clients must be >= 1, got {clients}")
    if not queries:
        raise ExperimentError("run_load needs at least one query")
    if arrival is not None and arrival <= 0:
        raise ExperimentError(
            f"arrival rate must be > 0 qps, got {arrival}"
        )
    if duration is None:
        clients = min(clients, len(queries))
    histogram = LatencyHistogram()
    responses: Dict[int, Any] = {}
    errors: List[BaseException] = []
    lock = threading.Lock()
    state = {"next": 0}
    wall_begin = time.perf_counter()
    deadline = (
        wall_begin + duration if duration is not None else None
    )

    def worker() -> None:
        client = ServiceClient(host, port, timeout=timeout)
        try:
            while True:
                with lock:
                    index = state["next"]
                    if duration is None and index >= len(queries):
                        return
                    state["next"] = index + 1
                if arrival is not None:
                    due = wall_begin + index / arrival
                    if deadline is not None:
                        due = min(due, deadline)
                    delay = due - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                if (
                    deadline is not None
                    and time.perf_counter() >= deadline
                ):
                    return
                query = queries[index % len(queries)]
                begin = time.perf_counter()
                answer = client.search(**query)
                histogram.record(time.perf_counter() - begin)
                with lock:
                    responses[index] = answer
        except BaseException as error:  # noqa: BLE001 - reraised below
            errors.append(error)
        finally:
            client.close()

    threads = [
        threading.Thread(target=worker, daemon=True)
        for _ in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - wall_begin
    if errors:
        raise errors[0]
    ordered = [responses[index] for index in sorted(responses)]
    latency = histogram.snapshot()
    stats = {
        "queries": len(ordered),
        "clients": clients,
        "wall_s": wall,
        "qps": len(ordered) / wall if wall > 0 else 0.0,
        "mean_ms": latency["mean_ms"],
        "p50_ms": latency["p50_ms"],
        "p90_ms": latency["p90_ms"],
        "p99_ms": latency["p99_ms"],
    }
    if arrival is not None:
        stats["offered_qps"] = arrival
    return ordered, stats
