"""The long-lived search daemon behind ``repro serve``.

Stdlib only: a :class:`http.server.ThreadingHTTPServer` front end over
a :class:`concurrent.futures.ProcessPoolExecutor` of search workers.
The load-once/serve-many shape:

1. the catalog of :class:`~repro.service.core.GraphEntry` is built (or
   loaded from a corpus) in the daemon process;
2. every snapshot is published into shared memory
   (:func:`repro.graphs.shm.publish_graph`) and the daemon then drops
   its own copy: the CSR exists once, system-wide, in the segment.
   The daemon keeps a read-only view of each segment it publishes
   (an O(1) attach) and closes it before the segment is unlinked;
3. the worker pool starts with
   :func:`~repro.service.core.service_worker_init` as initializer, on
   the pinned start method (:data:`repro.runner.executor.POOL_START_METHOD`),
   and is warmed before any server thread exists: every worker attaches
   every graph before the daemon answers ``/healthz``;
4. HTTP threads validate queries.  A query that misses the hot-cell
   :class:`AnswerCache` first runs in its HTTP thread, on the daemon's
   view, through the same :func:`~repro.service.core.serve_cells` call
   the workers make, with the small request budget
   :data:`INLINE_BUDGET`.  A run that finds the target within it is
   exactly the unbounded run, so it is the answer.  Otherwise — or when
   the algorithm is not in :data:`INLINE_ALGORITHMS` — the cell reruns
   from scratch as its own pool call, under the query's own budget.
   Cells are independent (each RNG substream depends only on ``(graph
   seed, algorithm, run_index)``), so the rerun is bit-identical and
   grouping cells would only add a wait.  A cache hit skips both
   (optionally write-through/read-through against a trial store, so
   cached answers persist as ordinary versioned trial records).

Robustness: pool calls submitted but not yet answered are bounded
(over ``max_queue`` -> 429 shed instead of thread pile-up), every
query carries a deadline (timeout -> 503 with a structured body, and a
pool call that has not started is cancelled so it never reaches a
worker), and a worker death fails only the queries it was running —
the daemon swaps in a fresh pool and keeps serving.

Lifecycle: :meth:`SearchService.stop` is idempotent and run from
``finally`` blocks and SIGTERM handlers alike — HTTP server down,
pool calls that have not started cancelled (their queries get 503,
never hang), pool down, every shared segment closed *and unlinked* so
nothing outlives the daemon in ``/dev/shm``.

Routes
------
``GET /healthz``
    liveness: ``{"status": "ok", "graphs": N}``.
``GET /graphs``
    the catalog: one descriptor per entry (id, family, n, seed,
    target, start, shm segment name).
``GET /stats``
    the serving counters: per-route request counts and latency
    histogram (p50/p90/p99); under ``batches``, every cache miss that
    was answered, as a batch of one whether it ran inline or in the
    pool, split into ``inline`` and ``spilled`` (sent to the pool);
    cache hits/misses (an inline answer is a miss), shed/timeout
    counts, and the number of pool calls in flight (``queue_depth``).
``POST /search``
    one query ``{"graph", "algorithm", "run_index", "start"?,
    "target"?}`` -> one serialized SearchResult, bit-identical to the
    batch path's cell whether it ran inline, in the pool or came from
    the cache.  A body whose ``Content-Length`` is not a non-negative
    integer gets a 400 and the connection closes (on every POST).
``POST /reload``
    corpus hot-reload: re-scan the corpus directory and publish any
    graphs that appeared since start; ``{"added": [...], "total": N}``.
"""

from __future__ import annotations

import gc
import json
import threading
import time
from collections import OrderedDict
from concurrent.futures import CancelledError, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple

from repro.core.trials import ENGINES, fastest_available
from repro.errors import ExperimentError
from repro.graphs.shm import (
    attach_graph,
    publish_graph,
    sweep_dead_segments,
)
from repro.runner.executor import process_pool
from repro.search.process import default_budget
from repro.service.core import (
    GraphEntry,
    QueryError,
    answer_spec,
    attach_manifest_graphs,
    execute_service_batch,
    load_corpus_entries,
    query_cell,
    serve_cells,
    service_worker_init,
    validate_query,
    worker_manifest,
)
from repro.service.stats import ServiceStats

__all__ = [
    "INLINE_ALGORITHMS",
    "INLINE_BUDGET",
    "AnswerCache",
    "SearchService",
]


#: ``serve_forever``'s shutdown-poll interval, in seconds.
_POLL_INTERVAL_S = 0.02

#: Request budget of a cache miss's inline attempt in its HTTP thread
#: (``0`` sends every miss to the pool).  Measured in the daemon at
#: n = 1e6 (Móri, p = 1/2, 2 workers, 2 vCPUs, ensemble engine): a
#: one-request hop costs 0.88 ms at p50 as a pool call and 0.16 ms
#: inline, and 64 requests of a random walk that misses its target
#: cost 0.15-0.23 ms at p50 (256 cost ~0.6 ms, as much as the trip
#: they would save).  So a long walk wastes about a quarter of a round
#: trip, and every walk that ends within 64 requests skips the pool.
INLINE_BUDGET = 64

#: The portfolio algorithms an inline attempt may run: those whose
#: ``INLINE_BUDGET`` requests cost O(budget), measured as above from the
#: root: random-walk 0.15-0.21 ms, restart-walk-0.1 0.11 ms, flooding
#: 0.20 ms, uniform-walk-strong 0.37 ms.  Every other algorithm goes
#: straight to the pool.  ``omniscient-window`` builds a BFS tree over
#: the whole graph before its first request.  The rest pay O(degree)
#: per request around hubs: 64 requests took 0.7-9 ms for the weak
#: greedy searches, self-avoiding-walk and biased-walk-strong, and
#: ~200 ms for high-degree-strong, whose every request reveals a whole
#: neighbourhood — all of it holding the daemon's GIL.
INLINE_ALGORITHMS = frozenset({
    "random-walk",
    "restart-walk-0.1",
    "flooding",
    "uniform-walk-strong",
})


def _publish(entry: GraphEntry) -> None:
    """Publish ``entry``'s snapshot, attach it, drop the daemon's copy.

    The daemon answers inline cells on its read-only view of the
    segment (an O(1) attach), so keeping the snapshot would double the
    graph's memory.
    """
    entry.segment = publish_graph(entry.snapshot)
    entry.shm_name = entry.segment.name
    entry.view = attach_graph(entry.shm_name)
    entry.snapshot = None


class AnswerCache:
    """Bounded LRU of served answers (thread-safe).

    ``capacity <= 0`` disables storage — ``get`` always misses and
    ``put`` drops — so callers never need a second code path.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._data: "OrderedDict[Tuple, Any]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: Tuple) -> Optional[Dict[str, Any]]:
        with self._lock:
            value = self._data.get(key)
            if value is not None:
                self._data.move_to_end(key)
            return value

    def put(self, key: Tuple, value: Dict[str, Any]) -> None:
        if self.capacity <= 0:
            return
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)

    def info(self) -> Dict[str, int]:
        return {"size": len(self._data), "capacity": self.capacity}


class SearchService:
    """One serving daemon: catalog + shared segments + pool + HTTP.

    Parameters
    ----------
    entries:
        The graph catalog to serve (see
        :func:`~repro.service.core.build_grid_entries` /
        :func:`~repro.service.core.load_corpus_entries`).
    portfolio:
        The served portfolio name; queries name algorithms inside it.
    workers:
        Search worker processes.
    host / port:
        Bind address; ``port=0`` picks a free port (read it back from
        :attr:`port` after :meth:`start`).
    corpus_dir:
        When set, ``POST /reload`` re-scans this corpus directory and
        publishes newly appeared snapshots without a restart.
    max_queue:
        Bound on pool calls submitted but not yet answered; a query
        over it sheds with 429.
    query_timeout:
        Seconds an HTTP thread waits for its answer before returning
        a structured 503; a pool call that has not started by then is
        cancelled and never runs.
    cache_size:
        Hot-cell answer-cache capacity (entries); ``0`` disables.
    cache_store:
        Optional :class:`~repro.runner.store.TrialStore` the cache
        writes through to (and reads through from): served answers
        persist as replay-addressable trial records.
    engine:
        Cell execution engine; default ensemble (``"serial"`` runs
        the reference arm).
    stats_interval:
        Seconds between operator log lines (``0`` disables).
    """

    def __init__(
        self,
        entries: List[GraphEntry],
        *,
        portfolio: str = "adamic",
        workers: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        corpus_dir: Optional[str] = None,
        max_queue: int = 1024,
        query_timeout: float = 30.0,
        cache_size: int = 2048,
        cache_store: Any = None,
        engine: Optional[str] = None,
        stats_interval: float = 0.0,
    ):
        if not entries:
            raise ExperimentError("a service needs at least one graph")
        if workers < 1:
            raise ExperimentError(
                f"workers must be >= 1, got {workers}"
            )
        if max_queue < 1:
            raise ExperimentError(
                f"max_queue must be >= 1, got {max_queue}"
            )
        engine = fastest_available(engine, ENGINES)
        if query_timeout <= 0:
            raise ExperimentError(
                f"query_timeout must be > 0, got {query_timeout}"
            )
        self.entries: Dict[str, GraphEntry] = {
            entry.graph_id: entry for entry in entries
        }
        self.portfolio = portfolio
        self.workers = workers
        self.host = host
        self.port = port
        self.corpus_dir = corpus_dir
        self.max_queue = max_queue
        self.query_timeout = query_timeout
        self.engine = engine
        self.stats = ServiceStats()
        self.cache = AnswerCache(cache_size)
        self.cache_store = cache_store
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_lock = threading.Lock()
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._server: Optional[ThreadingHTTPServer] = None
        self._server_thread: Optional[threading.Thread] = None
        self._stats_interval = stats_interval
        self._stats_stop = threading.Event()
        self._stats_thread: Optional[threading.Thread] = None
        self._reload_lock = threading.Lock()
        self._stopped = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Publish, spawn, warm, bind, serve — in that order.

        The first pool is created and warmed before any thread exists,
        so its workers fork from a single-threaded parent.  Later pools
        do not: a respawn after a worker death and a ``/reload`` that
        adds graphs each create a pool whose workers fork at its first
        submit, from this process with its HTTP threads running.  The
        stats thread starts next; the socket binds last, so a bind
        failure (``EADDRINUSE``) still tears every segment down via
        the ``except`` path — no leak on the double-start error.
        Segments a SIGKILLed daemon left behind are swept first.
        """
        try:
            sweep_dead_segments()
            for entry in self.entries.values():
                if entry.segment is None:
                    _publish(entry)
            # Pool before any thread: workers fork from a
            # single-threaded parent.  Freezing the parent's objects
            # first keeps the workers' collections off them: a
            # collection writes to every object it visits, which
            # would copy each inherited page, one query at a time.
            gc.freeze()
            self._pool = self._spawn_pool(warm=True)
            if self._stats_interval > 0:
                self._stats_thread = threading.Thread(
                    target=self._stats_loop,
                    name="repro-serve-stats",
                    daemon=True,
                )
                self._stats_thread.start()
            self._server = _Server((self.host, self.port), _Handler)
            self._server.daemon_threads = True
            self._server.service = self  # type: ignore[attr-defined]
            self.port = self._server.server_address[1]
            # A short poll interval: shutdown() waits for the serving
            # loop's next poll, so the stdlib's 0.5 s default would put
            # up to half a second on every stop() and SIGTERM.
            self._server_thread = threading.Thread(
                target=self._server.serve_forever,
                kwargs={"poll_interval": _POLL_INTERVAL_S},
                name="repro-serve-http",
                daemon=True,
            )
            self._server_thread.start()
        except BaseException:
            self.stop()
            raise

    def stop(self) -> None:
        """Tear everything down; safe to call twice or half-started.

        Order matters: the HTTP server stops accepting first, then
        the pool cancels every call that has not started (its query
        gets 503, so no handler thread is left waiting on a future
        nobody will resolve) and finishes the running ones, then the
        handlers get a moment to reply, then the daemon closes its
        views and the segments unlink.
        """
        if self._stopped:
            return
        self._stopped = True
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        if self._server_thread is not None:
            self._server_thread.join(timeout=5)
            self._server_thread = None
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
        # Handler threads are daemons; give the ones whose queries
        # just resolved (503 on cancel, or a final pool answer) a
        # bounded moment to flush their responses before the process
        # can exit under them.
        deadline = time.monotonic() + 2.0
        while (
            self.stats.in_flight > 0
            and time.monotonic() < deadline
        ):
            time.sleep(0.01)
        self._stats_stop.set()
        if self._stats_thread is not None:
            self._stats_thread.join(timeout=5)
            self._stats_thread = None
        for entry in self.entries.values():
            if entry.view is not None:
                entry.view.close()
                entry.view = None
            if entry.segment is not None:
                entry.segment.close()
                entry.segment.unlink()
                entry.segment = None

    def __enter__(self) -> "SearchService":
        self.start()
        return self

    def __exit__(self, *exc) -> bool:
        self.stop()
        return False

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    def _manifest(self) -> str:
        return worker_manifest(
            list(self.entries.values()), self.portfolio
        )

    def _spawn_pool(self, *, warm: bool) -> ProcessPoolExecutor:
        pool = process_pool(
            self.workers,
            initializer=service_worker_init,
            initargs=(self._manifest(),),
        )
        if warm:
            # Repeat until every worker has run the warm-up task (one
            # worker may take several), so each has attached every
            # graph before the daemon answers.
            warmed: set = set()
            while len(warmed) < self.workers:
                warmed.update(
                    future.result() for future in [
                        pool.submit(attach_manifest_graphs)
                        for _ in range(self.workers)
                    ]
                )
        return pool

    def _stats_loop(self) -> None:
        while not self._stats_stop.wait(self._stats_interval):
            print(self.stats.log_line(), flush=True)

    # ------------------------------------------------------------------
    # Pool dispatch and recovery (called from HTTP threads)
    # ------------------------------------------------------------------

    def _submit_batch(self, graph_id: str, cells: List[Dict[str, Any]]):
        """One worker call for a (graph, cells) batch; self-healing.

        A broken pool (a worker died) is replaced once, and the call
        retried on the fresh pool *only if its submission itself
        failed* — a call that died mid-execution is reported to its
        query, not silently re-run.
        """
        for attempt in (0, 1):
            pool = self._pool
            if pool is None or self._stopped:
                raise QueryError(503, "service is shutting down")
            try:
                return pool.submit(
                    execute_service_batch,
                    graph_id, cells, self.engine,
                )
            except (BrokenProcessPool, RuntimeError) as error:
                self._respawn_pool(pool)
                if attempt:
                    raise QueryError(
                        503,
                        "worker pool unavailable: "
                        f"{type(error).__name__}: {error}",
                    ) from error
        raise AssertionError("unreachable")  # pragma: no cover

    def _submit_query(self, graph_id: str, cell: Dict[str, Any]):
        """Submit one query as its own pool call, within ``max_queue``.

        The bound counts pool calls submitted but not yet answered; a
        call's slot frees when its future resolves, however it
        resolves (answer, failure or cancellation).
        """
        with self._inflight_lock:
            depth = self._inflight
            if depth < self.max_queue:
                self._inflight = depth + 1
        if depth >= self.max_queue:
            self.stats.record_shed()
            raise QueryError(
                429,
                f"{depth} queries in flight; retry later",
                queue_depth=depth,
            )
        self.stats.record_batch(1, inline=False)
        try:
            future = self._submit_batch(graph_id, [cell])
        except QueryError:
            self._release_slot()
            self.stats.record_batch_failure()
            raise
        future.add_done_callback(self._release_slot)
        return future

    def _release_slot(self, _future=None) -> None:
        with self._inflight_lock:
            self._inflight -= 1

    def _respawn_pool(self, broken: ProcessPoolExecutor) -> None:
        """Replace ``broken`` if it is still the active pool."""
        with self._pool_lock:
            if self._stopped or self._pool is not broken:
                return
            self._pool = self._spawn_pool(warm=False)
        broken.shutdown(wait=False)

    # ------------------------------------------------------------------
    # Request handling (called from HTTP threads)
    # ------------------------------------------------------------------

    def handle_search(self, payload: Any) -> Dict[str, Any]:
        graph_id, algorithm, run_index, start, target = validate_query(
            payload, self.entries, self.portfolio
        )
        key = (graph_id, algorithm, run_index, start, target)
        caching = self.cache.capacity > 0 or self.cache_store is not None
        if caching:
            answer = self.cache.get(key) if self.cache.capacity > 0 else None
            if answer is None:
                answer = self._store_read(
                    graph_id, algorithm, run_index, start, target
                )
                if answer is not None:
                    self.cache.put(key, answer)
            if answer is not None:
                self.stats.cache_hit()
                return answer
            self.stats.cache_miss()
        cell = query_cell(algorithm, run_index, start, target)
        answer = self._answer_inline(self.entries[graph_id], cell)
        if answer is None:
            answer = self._answer_in_pool(graph_id, cell)
        self.cache.put(key, answer)
        self._store_write(
            graph_id, algorithm, run_index, start, target, answer
        )
        return answer

    def _answer_inline(
        self, entry: GraphEntry, cell: Dict[str, Any]
    ) -> Optional[Dict[str, Any]]:
        """The cell's answer from a bounded run in this thread, or ``None``.

        The run gets at most :data:`INLINE_BUDGET` requests, and never
        more than the query's own budget.  A budget only stops a run, it
        never steers one, so a run that finds the target within it
        returns exactly what the unbounded run returns.  A run that
        does not is discarded (``None``): the cell reruns from scratch
        in the pool, and at most ``INLINE_BUDGET`` requests were spent
        here.
        """
        view = entry.view
        if (
            INLINE_BUDGET <= 0
            or view is None
            or self._stopped
            or cell["algorithm"] not in INLINE_ALGORITHMS
        ):
            return None
        try:
            (answer,) = serve_cells(
                view,
                [cell],
                portfolio=self.portfolio,
                seed=entry.seed,
                start=entry.start,
                target=entry.target,
                engine=self.engine,
                budget=min(INLINE_BUDGET, default_budget(view)),
            )
        except Exception as error:  # noqa: BLE001 - as a failed pool call
            self.stats.record_batch_failure()
            raise QueryError(
                503,
                "query execution failed: "
                f"{type(error).__name__}: {error}",
            ) from error
        if not answer["found"]:
            return None
        self.stats.record_batch(1, inline=True)
        return answer

    def _answer_in_pool(
        self, graph_id: str, cell: Dict[str, Any]
    ) -> Dict[str, Any]:
        """Run the cell as its own pool call and wait for its answer."""
        future = self._submit_query(graph_id, cell)
        try:
            (answer,) = future.result(timeout=self.query_timeout)
        except FutureTimeoutError:
            # A pool call that has not started is cancelled, and the
            # executor skips it: the query never reaches a worker.
            future.cancel()
            self.stats.record_timeout()
            raise QueryError(
                503,
                "query timed out after "
                f"{self.query_timeout:g}s in dispatch/execution",
                timeout_s=self.query_timeout,
            ) from None
        except CancelledError:
            # stop() cancelled the call before a worker took it.
            raise QueryError(503, "service is shutting down") from None
        except Exception as error:  # noqa: BLE001 - the call failed
            self.stats.record_batch_failure()
            if isinstance(error, BrokenProcessPool):
                # A worker died under this call; the pool object is
                # permanently broken, so swap in a fresh one.
                pool = self._pool
                if pool is not None:
                    self._respawn_pool(pool)
            raise QueryError(
                503,
                "query execution failed: "
                f"{type(error).__name__}: {error}",
            ) from error
        return answer

    def _store_read(
        self, graph_id, algorithm, run_index, start, target
    ) -> Optional[Dict[str, Any]]:
        if self.cache_store is None:
            return None
        from repro.runner.store import MISS

        spec = answer_spec(
            self.entries[graph_id], self.portfolio,
            algorithm, run_index, start, target,
        )
        value = self.cache_store.get(spec)
        return None if value is MISS else value

    def _store_write(
        self, graph_id, algorithm, run_index, start, target, answer
    ) -> None:
        if self.cache_store is None:
            return
        spec = answer_spec(
            self.entries[graph_id], self.portfolio,
            algorithm, run_index, start, target,
        )
        self.cache_store.put(spec, answer)

    def handle_graphs(self) -> List[Dict[str, Any]]:
        return [
            entry.describe()
            for _, entry in sorted(self.entries.items())
        ]

    def handle_stats(self) -> Dict[str, Any]:
        snapshot = self.stats.snapshot(cache_info=self.cache.info())
        snapshot["graphs"] = len(self.entries)
        snapshot["workers"] = self.workers
        snapshot["engine"] = self.engine
        snapshot["queue_depth"] = self._inflight
        return snapshot

    def handle_reload(self) -> Dict[str, Any]:
        """Publish corpus entries that appeared since the last scan.

        Existing graphs keep their segments; each new one is published
        and attached by the daemon, so inline cells reach it at once.  A
        pool initializer cannot be re-run in live workers, so when
        anything new appears the daemon swaps in a fresh pool whose
        initializer carries the extended manifest (in-flight queries
        drain on the old pool first).  Each query resolves the active
        pool when it is submitted, so later queries land on the new
        one.  With no corpus directory the call is a no-op reporting
        the current catalog size.
        """
        with self._reload_lock:
            if self.corpus_dir is None:
                return {"added": [], "total": len(self.entries)}
            added = []
            for entry in load_corpus_entries(self.corpus_dir):
                if entry.graph_id in self.entries:
                    continue
                _publish(entry)
                self.entries[entry.graph_id] = entry
                added.append(entry.graph_id)
            if added:
                # Swap in a pool whose workers know the new graphs;
                # in-flight queries finish on the old pool first.
                with self._pool_lock:
                    old_pool = self._pool
                    self._pool = self._spawn_pool(warm=False)
                if old_pool is not None:
                    old_pool.shutdown(wait=True)
            return {"added": added, "total": len(self.entries)}


class _Server(ThreadingHTTPServer):
    """The daemon's HTTP front end.

    socketserver's default listen backlog is 5; a burst of
    load-generator connections overflows it and the kernel resets the
    excess SYNs.  128 rides out any sane client fleet without resets.
    """

    request_queue_size = 128


class _Handler(BaseHTTPRequestHandler):
    """Thin JSON-over-HTTP face of :class:`SearchService`."""

    protocol_version = "HTTP/1.1"
    # The reply is two small sends (header block, then body); without
    # TCP_NODELAY the second stalls behind Nagle + delayed ACK for up
    # to ~40ms — which would put a floor under the cache hit path.
    disable_nagle_algorithm = True

    # Quiet by default; the daemon's stdout is the operator surface.
    def log_message(self, format, *args):  # noqa: A002
        pass

    @property
    def _service(self) -> SearchService:
        return self.server.service  # type: ignore[attr-defined]

    def _reply(self, status: int, payload: Any) -> None:
        body = json.dumps(payload).encode("utf-8")
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            if self.close_connection:
                self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError, OSError):
            # The client hung up mid-response; this connection is
            # dead, the daemon is fine.
            self.close_connection = True

    def _reply_error(self, error: QueryError) -> None:
        self._reply(error.status, {
            "error": str(error),
            "status": error.status,
            **error.extra,
        })

    def _drain_body(self) -> bytes:
        """Consume the request body (keep-alive correctness).

        Every POST body must be read off the socket even when the
        route ignores it — leftover bytes would be parsed as the start
        of the *next* request line on this connection.  A
        ``Content-Length`` that is not a non-negative integer leaves the
        body's end unknown: the request is a 400 and the connection
        closes after the reply.
        """
        header = self.headers.get("Content-Length") or "0"
        try:
            length = int(header)
        except ValueError:
            length = -1
        if length < 0:
            self.close_connection = True
            raise QueryError(
                400, f"malformed Content-Length header {header!r}"
            )
        return self.rfile.read(length) if length else b""

    def _read_json(self) -> Any:
        raw = self._drain_body()
        if not raw:
            raise QueryError(400, "empty request body")
        try:
            return json.loads(raw)
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            raise QueryError(
                400, f"request body is not valid JSON: {error}"
            ) from error

    def _route(self, route: str, handler) -> None:
        """Run one route handler with stats + error accounting."""
        service = self._service
        service.stats.enter()
        begin = time.perf_counter()
        error = False
        try:
            try:
                self._reply(200, handler())
            except QueryError as query_error:
                error = True
                self._reply_error(query_error)
            except (BrokenPipeError, ConnectionResetError):
                error = True
                self.close_connection = True
            except Exception as exc:  # pragma: no cover - last resort
                error = True
                self._reply(500, {
                    "error": f"{type(exc).__name__}: {exc}",
                    "status": 500,
                })
        finally:
            service.stats.leave()
            service.stats.record_request(
                route, time.perf_counter() - begin, error=error
            )

    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        if self.path == "/healthz":
            self._route("healthz", lambda: {
                "status": "ok",
                "graphs": len(self._service.entries),
            })
        elif self.path == "/graphs":
            self._route("graphs", self._service.handle_graphs)
        elif self.path == "/stats":
            self._route("stats", self._service.handle_stats)
        else:
            self._reply(404, {"error": f"unknown path {self.path!r}"})

    def do_POST(self) -> None:  # noqa: N802 - stdlib casing
        if self.path == "/search":
            self._route(
                "search",
                lambda: self._service.handle_search(
                    self._read_json()
                ),
            )
        elif self.path == "/reload":
            self._route("reload", self._reload)
        else:
            try:
                self._drain_body()
            except QueryError as error:
                self._reply_error(error)
                return
            self._reply(
                404, {"error": f"unknown path {self.path!r}"}
            )

    def _reload(self) -> Dict[str, Any]:
        self._drain_body()
        return self._service.handle_reload()
