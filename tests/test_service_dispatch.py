"""Tests for the batched dispatch layer (`repro.service.dispatch`,
`repro.service.stats`, and the daemon wiring around them).

The serving-optimization invariants: coalesced answers are bit-
identical to the batch path no matter how queries regroup, cache hits
return the same bytes the pool would have, the dispatcher flushes on
both its triggers (window deadline, batch-max), overload sheds with
429 instead of piling threads, a dead worker fails one batch — never
the daemon — and SIGTERM with a non-empty queue still exits clean.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import Future

import pytest

from repro.core.families import MoriFamily
from repro.core.trials import batched_search_trial, family_spec
from repro.graphs.shm import attach_graph
from repro.service import (
    AnswerCache,
    BatchDispatcher,
    LatencyHistogram,
    QueryError,
    SearchService,
    ServiceClient,
    ServiceStats,
    build_grid_entries,
    run_load,
)
from repro.service.client import ServiceHTTPError
from repro.service.core import portfolio_algorithms
from repro.service.loadgen import build_queries, parse_arrival

SIZE = 120
SEED = 3
PORTFOLIO = "adamic"
GRAPH_ID = f"mori-n{SIZE}-s{SEED}"
FAMILY = MoriFamily(p=0.5, m=1)


def _entries(sizes=(SIZE,), seeds=(SEED,)):
    return build_grid_entries(FAMILY, list(sizes), list(seeds))


def _expected(cells, *, size=SIZE, seed=SEED):
    return batched_search_trial(
        family=family_spec(FAMILY),
        size=size,
        portfolio=PORTFOLIO,
        cells=cells,
        seed=seed,
    )


# ----------------------------------------------------------------------
# BatchDispatcher unit tests (fake submit_batch, no daemon)
# ----------------------------------------------------------------------


class _FakePool:
    """Records batches; answers each cell with an echo dict."""

    def __init__(self):
        self.batches = []
        self.lock = threading.Lock()

    def submit(self, graph_id, cells):
        with self.lock:
            self.batches.append((graph_id, list(cells)))
        done = Future()
        done.set_result([
            {"graph": graph_id, **cell} for cell in cells
        ])
        return done


class _BlockingPool(_FakePool):
    """A :class:`_FakePool` whose first batch stays in flight until
    ``blocker`` resolves, holding its graph's only busy slot."""

    def __init__(self):
        super().__init__()
        self.blocker = Future()

    def submit(self, graph_id, cells):
        answered = super().submit(graph_id, cells)
        return self.blocker if len(self.batches) == 1 else answered

    def wait_for_first_batch(self):
        deadline = time.monotonic() + 5
        while not self.batches and time.monotonic() < deadline:
            time.sleep(0.005)

    def run_indexes(self):
        return [
            [cell["run_index"] for cell in cells]
            for _, cells in self.batches
        ]


class TestBatchDispatcher:
    def test_batch_max_flushes_before_window(self):
        pool = _FakePool()
        dispatcher = BatchDispatcher(
            pool.submit, window=30.0, batch_max=4
        )
        try:
            futures = [
                dispatcher.submit("g", {"run_index": index})
                for index in range(4)
            ]
            # The 30s window cannot have elapsed; only batch-max can
            # have flushed this.
            answers = [
                future.result(timeout=5) for future in futures
            ]
            assert [a["run_index"] for a in answers] == [0, 1, 2, 3]
            assert len(pool.batches) == 1
            assert len(pool.batches[0][1]) == 4
        finally:
            dispatcher.close()

    def test_window_flushes_partial_batch(self):
        pool = _FakePool()
        dispatcher = BatchDispatcher(
            pool.submit, window=0.02, batch_max=1000
        )
        try:
            futures = [
                dispatcher.submit("g", {"run_index": index})
                for index in range(3)
            ]
            begin = time.monotonic()
            answers = [
                future.result(timeout=5) for future in futures
            ]
            assert time.monotonic() - begin < 5
            assert [a["run_index"] for a in answers] == [0, 1, 2]
            assert len(pool.batches) == 1
        finally:
            dispatcher.close()

    def test_batches_group_per_graph(self):
        pool = _FakePool()
        dispatcher = BatchDispatcher(
            pool.submit, window=0.02, batch_max=1000
        )
        try:
            futures = [
                dispatcher.submit(graph, {"run_index": index})
                for index, graph in enumerate(["a", "b", "a", "b"])
            ]
            answers = [
                future.result(timeout=5) for future in futures
            ]
            assert [a["graph"] for a in answers] == [
                "a", "b", "a", "b",
            ]
            flushed = {
                graph_id: cells
                for graph_id, cells in pool.batches
            }
            assert set(flushed) == {"a", "b"}
            assert len(flushed["a"]) == 2
            assert len(flushed["b"]) == 2
        finally:
            dispatcher.close()

    def test_oversized_queue_drains_in_batch_max_chunks(self):
        pool = _FakePool()
        stats = ServiceStats()
        dispatcher = BatchDispatcher(
            pool.submit, window=0.01, batch_max=4, stats=stats
        )
        try:
            futures = [
                dispatcher.submit("g", {"run_index": index})
                for index in range(10)
            ]
            for future in futures:
                future.result(timeout=5)
            sizes = sorted(
                len(cells) for _, cells in pool.batches
            )
            assert sum(sizes) == 10
            assert max(sizes) <= 4
            snap = stats.snapshot()
            assert snap["batches"]["queries"] == 10
        finally:
            dispatcher.close()

    def test_full_queue_sheds_with_429(self):
        pool = _FakePool()
        stats = ServiceStats()
        dispatcher = BatchDispatcher(
            pool.submit,
            window=30.0,
            batch_max=1000,
            max_pending=2,
            stats=stats,
        )
        try:
            dispatcher.submit("g", {"run_index": 0})
            dispatcher.submit("g", {"run_index": 1})
            with pytest.raises(QueryError) as info:
                dispatcher.submit("g", {"run_index": 2})
            assert info.value.status == 429
            assert info.value.extra["queue_depth"] == 2
            assert stats.snapshot()["shed"] == 1
        finally:
            dispatcher.close()

    def test_close_fails_queued_queries_with_503(self):
        pool = _FakePool()
        dispatcher = BatchDispatcher(
            pool.submit, window=30.0, batch_max=1000
        )
        future = dispatcher.submit("g", {"run_index": 0})
        dispatcher.close()
        with pytest.raises(QueryError) as info:
            future.result(timeout=5)
        assert info.value.status == 503
        with pytest.raises(QueryError):
            dispatcher.submit("g", {"run_index": 1})
        dispatcher.close()  # idempotent

    def test_cancelled_query_is_dropped_and_frees_the_slot(self):
        pool = _BlockingPool()
        dispatcher = BatchDispatcher(
            pool.submit, window=0.005, batch_max=8
        )
        try:
            first = dispatcher.submit("g", {"run_index": 0})
            pool.wait_for_first_batch()
            # Queued behind the blocked batch, then abandoned.
            abandoned = dispatcher.submit("g", {"run_index": 1})
            assert abandoned.cancel()
            pool.blocker.set_result([{"run_index": 0}])
            assert first.result(timeout=5) == {"run_index": 0}
            # The all-cancelled group took no busy slot: a later
            # query for the same graph still dispatches.
            later = dispatcher.submit("g", {"run_index": 2})
            assert later.result(timeout=5)["run_index"] == 2
            assert pool.run_indexes() == [[0], [2]]
        finally:
            dispatcher.close()

    def test_batch_failure_isolated_to_its_graph(self):
        seen_errors = []

        def submit(graph_id, cells):
            done = Future()
            if graph_id == "bad":
                done.set_exception(RuntimeError("worker died"))
            else:
                done.set_result([dict(cell) for cell in cells])
            return done

        stats = ServiceStats()
        dispatcher = BatchDispatcher(
            submit,
            window=0.01,
            batch_max=1000,
            stats=stats,
            on_batch_error=seen_errors.append,
        )
        try:
            doomed = dispatcher.submit("bad", {"run_index": 0})
            fine = dispatcher.submit("good", {"run_index": 1})
            assert fine.result(timeout=5)["run_index"] == 1
            with pytest.raises(QueryError) as info:
                doomed.result(timeout=5)
            assert info.value.status == 503
            assert "worker died" in str(info.value)
            assert len(seen_errors) == 1
            assert isinstance(seen_errors[0], RuntimeError)
            assert stats.snapshot()["batches"]["failed"] == 1
        finally:
            dispatcher.close()


# ----------------------------------------------------------------------
# AnswerCache / LatencyHistogram units
# ----------------------------------------------------------------------


class TestAnswerCache:
    def test_lru_evicts_least_recently_used(self):
        cache = AnswerCache(2)
        cache.put(("a",), {"v": 1})
        cache.put(("b",), {"v": 2})
        assert cache.get(("a",)) == {"v": 1}  # refresh a
        cache.put(("c",), {"v": 3})           # evicts b
        assert cache.get(("b",)) is None
        assert cache.get(("a",)) == {"v": 1}
        assert cache.get(("c",)) == {"v": 3}
        assert len(cache) == 2
        assert cache.info() == {"size": 2, "capacity": 2}

    def test_zero_capacity_disables_storage(self):
        cache = AnswerCache(0)
        cache.put(("a",), {"v": 1})
        assert cache.get(("a",)) is None
        assert len(cache) == 0


class TestLatencyHistogram:
    def test_percentiles_within_bucket_resolution(self):
        histogram = LatencyHistogram()
        for _ in range(90):
            histogram.record(0.010)
        for _ in range(10):
            histogram.record(0.100)
        assert histogram.count == 100
        # Geometric buckets are 25% wide; p50 must land at ~10ms
        # and p99 at ~100ms within one bucket either way.
        assert 0.010 / 1.25 <= histogram.percentile(0.50) <= 0.010 * 1.25
        assert 0.100 / 1.25 <= histogram.percentile(0.99) <= 0.100 * 1.25
        assert histogram.percentile(0.99) <= 0.100  # clamped to max
        snap = histogram.snapshot()
        assert set(snap) == {
            "count", "mean_ms", "p50_ms", "p90_ms", "p99_ms",
            "max_ms",
        }
        assert snap["max_ms"] == 100.0

    def test_empty_histogram_reports_zeros(self):
        snap = LatencyHistogram().snapshot()
        assert snap["count"] == 0
        assert snap["p99_ms"] == 0.0


class TestParseArrival:
    def test_modes(self):
        assert parse_arrival(None) is None
        assert parse_arrival("closed") is None
        assert parse_arrival("open:150") == 150.0
        for bad in ("open:0", "open:-1", "open:x", "poisson:5"):
            with pytest.raises(SystemExit):
                parse_arrival(bad)


# ----------------------------------------------------------------------
# Integration: coalescing daemon end to end
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def coalescing_service():
    with SearchService(
        _entries(),
        portfolio=PORTFOLIO,
        workers=2,
        batch_window=0.01,
        batch_max=16,
        cache_size=64,
    ) as running:
        yield running


class TestCoalescedServing:
    def test_coalesced_answers_bit_identical_under_load(
        self, coalescing_service
    ):
        service = coalescing_service
        algorithms = list(portfolio_algorithms(PORTFOLIO))
        queries = build_queries(
            service.handle_graphs(), algorithms, 24
        )
        responses, stats = run_load(
            service.host, service.port, queries, clients=8
        )
        cells = [
            {
                "algorithm": query["algorithm"],
                "run_index": query["run_index"],
            }
            for query in queries
        ]
        assert responses == _expected(cells)
        assert stats["queries"] == 24
        snap = service.stats.snapshot()
        batches = snap["batches"]
        assert batches["queries"] >= 24
        assert batches["count"] <= batches["queries"]

    def test_cache_hits_are_identical_and_skip_the_pool(
        self, coalescing_service
    ):
        service = coalescing_service
        with ServiceClient(service.host, service.port) as client:
            cold = client.search(GRAPH_ID, "random-walk", 7)
            before = service.stats.snapshot()
            warm = client.search(GRAPH_ID, "random-walk", 7)
            after = service.stats.snapshot()
        assert warm == cold
        assert warm == _expected(
            [{"algorithm": "random-walk", "run_index": 7}]
        )[0]
        assert (
            after["cache"]["hits"] == before["cache"]["hits"] + 1
        )
        # The hit never touched the dispatcher.
        assert (
            after["batches"]["queries"]
            == before["batches"]["queries"]
        )

    def test_stats_route_shape(self, coalescing_service):
        service = coalescing_service
        with ServiceClient(service.host, service.port) as client:
            client.search(GRAPH_ID, "high-degree-strong", 0)
            snap = client.stats()
        search = snap["routes"]["search"]
        assert search["count"] >= 1
        for key in ("p50_ms", "p90_ms", "p99_ms", "mean_ms"):
            assert key in search
        assert snap["in_flight"] >= 0
        assert snap["engine"] in ("serial", "ensemble")
        assert snap["batch_window_ms"] == pytest.approx(10.0)
        assert "size_distribution" in snap["batches"]
        assert snap["cache"]["capacity"] == 64
        assert snap["queue_depth"] >= 0

    def test_open_loop_load_reports_offered_qps(
        self, coalescing_service
    ):
        service = coalescing_service
        queries = build_queries(
            service.handle_graphs(), ["random-walk"], 8
        )
        responses, stats = run_load(
            service.host, service.port, queries,
            clients=4, arrival=400.0,
        )
        assert len(responses) == 8
        assert stats["offered_qps"] == 400.0
        assert responses == _expected([
            {
                "algorithm": query["algorithm"],
                "run_index": query["run_index"],
            }
            for query in queries
        ])

    def test_duration_mode_cycles_queries(self, coalescing_service):
        service = coalescing_service
        queries = build_queries(
            service.handle_graphs(), ["high-degree-strong"], 2
        )
        responses, stats = run_load(
            service.host, service.port, queries,
            clients=2, duration=0.4,
        )
        assert stats["queries"] == len(responses)
        assert len(responses) >= 2
        expected = _expected([
            {
                "algorithm": query["algorithm"],
                "run_index": query["run_index"],
            }
            for query in queries
        ])
        for index, response in enumerate(responses):
            assert response == expected[index % len(queries)]


class TestRobustness:
    def test_query_timeout_is_structured_503(self):
        # A 10s window with a huge batch-max never flushes before the
        # 50ms timeout: the query deterministically times out while
        # still queued.
        with SearchService(
            _entries(),
            portfolio=PORTFOLIO,
            workers=1,
            batch_window=10.0,
            batch_max=10_000,
            query_timeout=0.05,
            cache_size=0,
        ) as service:
            with ServiceClient(service.host, service.port) as client:
                with pytest.raises(ServiceHTTPError) as info:
                    client.search(GRAPH_ID, "random-walk", 0)
            assert info.value.status == 503
            assert service.stats.snapshot()["timeouts"] == 1

    def test_timed_out_query_never_reaches_a_worker(self):
        pool = _BlockingPool()
        service = SearchService(
            _entries(),
            portfolio=PORTFOLIO,
            workers=1,
            batch_window=0.005,
            query_timeout=0.2,
            cache_size=0,
        )
        # The dispatcher binds the pool hook at start(); this one
        # holds the graph's only in-flight slot until released.
        service._submit_batch = pool.submit
        with service:
            query = {"graph": GRAPH_ID, "algorithm": "random-walk"}
            head_statuses = []

            def head_query():
                try:
                    service.handle_search({**query, "run_index": 0})
                except QueryError as error:
                    head_statuses.append(error.status)

            head = threading.Thread(target=head_query)
            head.start()
            pool.wait_for_first_batch()
            with pytest.raises(QueryError) as info:
                service.handle_search({**query, "run_index": 1})
            assert info.value.status == 503
            head.join(timeout=5)
            assert head_statuses == [503]
            pool.blocker.set_result([{"run_index": 0}])
            later = service.handle_search({**query, "run_index": 2})
            assert later["run_index"] == 2
        assert pool.run_indexes() == [[0], [2]]

    def test_timeout_error_body_carries_timeout_s(self):
        import http.client

        with SearchService(
            _entries(),
            portfolio=PORTFOLIO,
            workers=1,
            batch_window=10.0,
            batch_max=10_000,
            query_timeout=0.05,
            cache_size=0,
        ) as service:
            conn = http.client.HTTPConnection(
                service.host, service.port, timeout=10
            )
            try:
                conn.request(
                    "POST", "/search",
                    body=json.dumps({
                        "graph": GRAPH_ID,
                        "algorithm": "random-walk",
                    }).encode(),
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                payload = json.loads(response.read())
            finally:
                conn.close()
            assert response.status == 503
            assert payload["timeout_s"] == 0.05

    def test_overload_sheds_with_429(self):
        with SearchService(
            _entries(),
            portfolio=PORTFOLIO,
            workers=1,
            batch_window=10.0,
            batch_max=10_000,
            max_queue=2,
            query_timeout=0.5,
            cache_size=0,
        ) as service:
            statuses = []

            def fire(run_index):
                try:
                    with ServiceClient(
                        service.host, service.port
                    ) as client:
                        client.search(
                            GRAPH_ID, "random-walk", run_index
                        )
                    statuses.append(200)
                except ServiceHTTPError as error:
                    statuses.append(error.status)

            threads = [
                threading.Thread(target=fire, args=(index,))
                for index in range(5)
            ]
            for thread in threads:
                thread.start()
                time.sleep(0.02)  # deterministic queue build-up
            for thread in threads:
                thread.join(timeout=10)
            # Two fit the queue (and later time out at 0.5s); the
            # other three shed immediately with 429.
            assert statuses.count(429) == 3
            assert service.stats.snapshot()["shed"] == 3

    def test_worker_death_fails_one_batch_not_the_daemon(self):
        with SearchService(
            _entries(),
            portfolio=PORTFOLIO,
            workers=1,
            batch_window=0.005,
            cache_size=0,
        ) as service:
            with ServiceClient(service.host, service.port) as client:
                baseline = client.search(GRAPH_ID, "random-walk", 0)
                # Kill every worker while the pool is idle: the next
                # dispatched batch lands on a broken pool and must
                # fail alone, after which the daemon swaps in a fresh
                # pool.
                for pid in list(service._pool._processes):
                    os.kill(pid, signal.SIGKILL)
                outcomes = []
                for attempt in range(10):
                    try:
                        client.search(
                            GRAPH_ID, "random-walk", attempt + 1
                        )
                        outcomes.append("ok")
                    except ServiceHTTPError as error:
                        outcomes.append(error.status)
                # The daemon never died, and it recovered: the tail
                # queries succeed on the respawned pool.
                assert outcomes[-1] == "ok"
                failures = [o for o in outcomes if o != "ok"]
                assert all(status == 503 for status in failures)
                assert client.health()["status"] == "ok"
                # Recovery preserves the determinism contract.
                assert (
                    client.search(GRAPH_ID, "random-walk", 0)
                    == baseline
                )


class TestStoreWriteThrough:
    def test_answers_persist_and_prewarm_a_fresh_daemon(
        self, tmp_path
    ):
        from repro.runner.store import open_store

        store = open_store(tmp_path)
        with SearchService(
            _entries(),
            portfolio=PORTFOLIO,
            workers=1,
            cache_size=8,
            cache_store=store,
        ) as first:
            with ServiceClient(first.host, first.port) as client:
                cold = client.search(GRAPH_ID, "random-walk", 3)
            assert first.stats.snapshot()["cache"]["misses"] == 1
        # A brand-new daemon (empty in-process cache) over the same
        # store serves the persisted answer as a hit.
        with SearchService(
            _entries(),
            portfolio=PORTFOLIO,
            workers=1,
            cache_size=8,
            cache_store=open_store(tmp_path),
        ) as second:
            with ServiceClient(second.host, second.port) as client:
                warm = client.search(GRAPH_ID, "random-walk", 3)
            assert warm == cold
            snap = second.stats.snapshot()
            assert snap["cache"]["hits"] == 1
            assert snap["batches"]["queries"] == 0  # never hit the pool
        assert warm == _expected(
            [{"algorithm": "random-walk", "run_index": 3}]
        )[0]


class TestSigtermWithQueue:
    def test_clean_exit_with_nonempty_dispatch_queue(self, tmp_path):
        port_file = tmp_path / "serve.port"
        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + (
            os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH") else ""
        )
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--sizes", "60", "--seeds", "1",
                "--workers", "1", "--port", "0",
                "--port-file", str(port_file),
                # A 30s window with a huge batch-max parks every
                # query in the dispatch queue until shutdown.
                "--batch-window", "30000",
                "--batch-max", "100000",
                "--query-timeout", "120",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        raw = None
        try:
            deadline = time.monotonic() + 60
            while not port_file.exists():
                assert process.poll() is None, process.stderr.read()
                assert time.monotonic() < deadline
                time.sleep(0.05)
            port = int(port_file.read_text().strip())
            with ServiceClient("127.0.0.1", port) as probe:
                shm_names = [
                    graph["shm"] for graph in probe.graphs()
                ]
            # Park a query in the dispatch queue (unread response).
            raw = socket.create_connection(
                ("127.0.0.1", port), timeout=10
            )
            body = json.dumps({
                "graph": "mori-n60-s1", "algorithm": "random-walk",
            }).encode()
            raw.sendall(
                b"POST /search HTTP/1.1\r\n"
                b"Host: x\r\nContent-Type: application/json\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode()
                + body
            )
            time.sleep(0.3)  # let it enqueue, well inside the window
            process.send_signal(signal.SIGTERM)
            stdout, stderr = process.communicate(timeout=30)
            assert process.returncode == 0, stderr
            assert "shutting down" in stdout
            # The queued query was answered with a 503, not dropped
            # on the floor with the socket left hanging.
            raw.settimeout(10)
            reply = raw.recv(4096)
            assert b"503" in reply
            for name in shm_names:
                with pytest.raises(FileNotFoundError):
                    attach_graph(name)
        finally:
            if raw is not None:
                raw.close()
            if process.poll() is None:
                process.kill()
                process.communicate()
