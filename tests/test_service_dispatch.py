"""Tests for the daemon's per-query dispatch (`repro.service.daemon`),
its answer cache and `repro.service.stats`.

The serving invariants: answers under concurrent load are bit-
identical to the batch path, every miss is answered inline or as one
pool call (a batch of one), cache hits return the same bytes the pool
would have, the in-flight bound sheds overload with 429 instead of
piling threads, a timed-out or shutdown-cancelled query gets a
structured 503 and never reaches a worker, a dead worker fails one
query — never the daemon — and SIGTERM with a query in flight still
exits clean.
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
from concurrent.futures import Future, ThreadPoolExecutor

import pytest

from repro.core.families import MoriFamily
from repro.core.trials import batched_search_trial, family_spec
from repro.graphs.shm import attach_graph
from repro.service import (
    AnswerCache,
    LatencyHistogram,
    QueryError,
    SearchService,
    ServiceClient,
    build_grid_entries,
    run_load,
)
from repro.service.client import ServiceHTTPError
from repro.service.core import portfolio_algorithms
from repro.service.loadgen import build_queries, parse_arrival
from repro.service.stats import ServiceStats

SIZE = 120
SEED = 3
PORTFOLIO = "adamic"
GRAPH_ID = f"mori-n{SIZE}-s{SEED}-e49ee3716b80aaef"
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
# Per-query dispatch unit tests (fake pool, no worker processes)
# ----------------------------------------------------------------------


class _FakePool:
    """An executor-shaped stand-in for the daemon's process pool.

    Answers each cell with an echo dict (or fails every call with
    ``error``).  While ``held`` it queues calls unanswered until
    :meth:`release`.  Like ``ProcessPoolExecutor`` it claims a call
    with ``set_running_or_notify_cancel()`` before running it, so a
    cancelled call never runs, and ``shutdown(cancel_futures=True)``
    cancels the calls still queued.
    """

    def __init__(self, *, held=False, error=None):
        self.held = held
        self.error = error
        self.queued = []
        self.ran = []
        self.lock = threading.Lock()

    def submit(self, fn, graph_id, cells, engine):
        future = Future()
        with self.lock:
            self.queued.append((future, graph_id, cells))
        if not self.held:
            self._run_queued()
        return future

    def release(self):
        self.held = False
        self._run_queued()

    def _run_queued(self):
        with self.lock:
            queued, self.queued = self.queued, []
        for future, graph_id, cells in queued:
            if not future.set_running_or_notify_cancel():
                continue
            self.ran.append([cell["run_index"] for cell in cells])
            if self.error is not None:
                future.set_exception(self.error)
            else:
                future.set_result(
                    [{"graph": graph_id, **cell} for cell in cells]
                )

    def wait_for_queued(self, count):
        deadline = time.monotonic() + 5
        while len(self.queued) < count:
            assert time.monotonic() < deadline, "calls never queued"
            time.sleep(0.005)

    def shutdown(self, wait=True, *, cancel_futures=False):
        if cancel_futures:
            with self.lock:
                queued, self.queued = self.queued, []
            for future, _, _ in queued:
                future.cancel()


@pytest.fixture
def pool_only(monkeypatch):
    """Send every cache miss to the pool: no inline attempt."""
    import repro.service.daemon as daemon

    monkeypatch.setattr(daemon, "INLINE_BUDGET", 0)


def _fake_service(pool, **options):
    """A service whose process pool is ``pool`` (no workers spawn)."""
    options = {"workers": 1, "cache_size": 0, **options}
    service = SearchService(_entries(), portfolio=PORTFOLIO, **options)
    service._spawn_pool = lambda *, warm: pool
    return service


def _query(run_index):
    return {
        "graph": GRAPH_ID,
        "algorithm": "random-walk",
        "run_index": run_index,
    }


def _search_in_thread(service, run_index, outcomes):
    """Run one ``handle_search`` in a thread; its outcome lands in
    ``outcomes[run_index]`` (the answer, or the :class:`QueryError`)."""

    def search():
        try:
            outcomes[run_index] = service.handle_search(
                _query(run_index)
            )
        except QueryError as error:
            outcomes[run_index] = error

    thread = threading.Thread(target=search)
    thread.start()
    return thread


@pytest.mark.usefixtures("pool_only")
class TestPerQueryDispatch:
    def test_every_pool_call_is_a_batch_of_one(self):
        pool = _FakePool()
        with _fake_service(pool) as service:
            for run_index in range(5):
                answer = service.handle_search(_query(run_index))
                assert answer["run_index"] == run_index
            batches = service.handle_stats()["batches"]
        assert pool.ran == [[0], [1], [2], [3], [4]]
        assert batches["size_distribution"] == {"1": 5}
        assert batches["count"] == batches["queries"] == 5

    def test_bound_released_on_success(self):
        pool = _FakePool()
        with _fake_service(pool, max_queue=1) as service:
            for run_index in range(3):
                service.handle_search(_query(run_index))
            assert service.handle_stats()["queue_depth"] == 0
            assert service.stats.snapshot()["shed"] == 0

    def test_bound_released_on_failure(self):
        pool = _FakePool(error=RuntimeError("worker died"))
        with _fake_service(pool, max_queue=1) as service:
            for run_index in range(2):
                # A leaked slot would turn the second 503 into a 429.
                with pytest.raises(QueryError) as info:
                    service.handle_search(_query(run_index))
                assert info.value.status == 503
                assert "worker died" in str(info.value)
            snap = service.handle_stats()
        assert snap["queue_depth"] == 0
        assert snap["batches"]["failed"] == 2

    def test_bound_released_on_timeout(self):
        pool = _FakePool(held=True)
        with _fake_service(
            pool, max_queue=1, query_timeout=0.05
        ) as service:
            for run_index in range(2):
                with pytest.raises(QueryError) as info:
                    service.handle_search(_query(run_index))
                assert info.value.status == 503
                assert info.value.extra["timeout_s"] == 0.05
            snap = service.handle_stats()
        assert snap["queue_depth"] == 0
        assert snap["timeouts"] == 2
        assert snap["shed"] == 0

    def test_max_queue_bounds_pool_calls_in_flight(self):
        pool = _FakePool(held=True)
        outcomes = {}
        with _fake_service(pool, max_queue=2) as service:
            threads = [
                _search_in_thread(service, run_index, outcomes)
                for run_index in range(2)
            ]
            pool.wait_for_queued(2)
            for run_index in range(2, 5):
                with pytest.raises(QueryError) as info:
                    service.handle_search(_query(run_index))
                assert info.value.status == 429
                assert info.value.extra["queue_depth"] == 2
            snap = service.handle_stats()
            assert snap["shed"] == 3
            assert snap["queue_depth"] == 2
            pool.release()
            for thread in threads:
                thread.join(timeout=5)
            assert service.handle_stats()["queue_depth"] == 0
        assert [outcomes[i]["run_index"] for i in (0, 1)] == [0, 1]
        assert pool.ran == [[0], [1]]

    def test_queue_depth_counts_pool_calls_in_flight(self):
        pool = _FakePool(held=True)
        outcomes = {}
        with _fake_service(pool) as service:
            threads = [
                _search_in_thread(service, run_index, outcomes)
                for run_index in range(3)
            ]
            pool.wait_for_queued(3)
            snap = service.handle_stats()
            assert snap["queue_depth"] == 3
            assert "batch_window_ms" not in snap
            assert "batch_max" not in snap
            pool.release()
            for thread in threads:
                thread.join(timeout=5)
            assert service.handle_stats()["queue_depth"] == 0
        assert sorted(outcomes) == [0, 1, 2]

    def test_stop_cancels_a_waiting_query_with_503(self):
        pool = _FakePool(held=True)
        outcomes = {}
        service = _fake_service(pool)
        service.start()
        try:
            thread = _search_in_thread(service, 0, outcomes)
            pool.wait_for_queued(1)
        finally:
            service.stop()
        thread.join(timeout=5)
        error = outcomes[0]
        assert isinstance(error, QueryError)
        assert error.status == 503
        assert "shutting down" in str(error)
        assert pool.ran == []

    def test_query_after_stop_is_503_and_frees_its_slot(self):
        pool = _FakePool()
        service = _fake_service(pool, max_queue=1)
        service.start()
        service.stop()
        for run_index in range(2):
            with pytest.raises(QueryError) as info:
                service.handle_search(_query(run_index))
            assert info.value.status == 503
            assert "shutting down" in str(info.value)
        assert service.handle_stats()["queue_depth"] == 0
        assert pool.ran == []

    def test_in_flight_count_survives_concurrent_queries(self):
        class ThreadedPool(ThreadPoolExecutor):
            def submit(self, fn, graph_id, cells, engine):
                return super().submit(
                    lambda: [{"graph": graph_id, **c} for c in cells]
                )

        clients, per_client = 16, 40
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            service = _fake_service(ThreadedPool(max_workers=4))

            def client(first):
                for run_index in range(first, first + per_client):
                    service.handle_search(_query(run_index))

            with service:
                threads = [
                    threading.Thread(
                        target=client, args=(index * per_client,)
                    )
                    for index in range(clients)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                    assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        # stop() joined the pool threads, so every release ran; a
        # lost update would leave the count off zero.
        snap = service.handle_stats()
        assert snap["queue_depth"] == 0
        assert snap["batches"]["count"] == clients * per_client
        assert snap["shed"] == 0

    def test_coalescing_knobs_are_gone(self):
        from repro.cli import build_parser

        for option in ("batch_window", "batch_max"):
            with pytest.raises(TypeError):
                SearchService(_entries(), **{option: 1})
        for flag in ("--batch-window", "--batch-max"):
            with pytest.raises(SystemExit) as info:
                build_parser().parse_args(["serve", flag, "5"])
            assert info.value.code == 2


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

    def test_negative_durations_record_as_zero(self):
        histogram = LatencyHistogram()
        histogram.record(-0.5)
        assert histogram.count == 1
        assert histogram.mean() == 0.0
        assert histogram.percentile(0.99) == 0.0


class TestServiceStats:
    def test_routes_count_requests_and_errors(self):
        stats = ServiceStats()
        stats.record_request("search", 0.002)
        stats.record_request("search", 0.004, error=True)
        stats.record_request("graphs", 0.001)
        routes = stats.snapshot()["routes"]
        assert sorted(routes) == ["graphs", "search"]  # served only
        assert routes["search"]["count"] == 2
        assert routes["search"]["errors"] == 1
        assert routes["graphs"]["errors"] == 0
        assert routes["search"]["max_ms"] == 4.0

    def test_batches_split_inline_and_spilled(self):
        stats = ServiceStats()
        for _ in range(3):
            stats.record_batch(1, inline=True)
        stats.record_batch(4, inline=False)
        stats.record_batch_failure()
        assert stats.snapshot()["batches"] == {
            "count": 4,
            "queries": 7,
            "inline": 3,
            "spilled": 4,
            "failed": 1,
            "mean_size": 1.75,
            "size_distribution": {"1": 3, "4": 1},
        }

    def test_counters_gauge_and_cache_info(self):
        stats = ServiceStats()
        stats.cache_hit()
        stats.cache_hit()
        stats.cache_miss()
        stats.record_shed()
        stats.record_timeout()
        stats.enter()
        stats.enter()
        stats.leave()
        snap = stats.snapshot(cache_info={"entries": 5})
        assert snap["cache"] == {"hits": 2, "misses": 1, "entries": 5}
        assert (snap["shed"], snap["timeouts"]) == (1, 1)
        assert snap["in_flight"] == stats.in_flight == 1
        assert json.loads(json.dumps(snap)) == snap

    def test_log_line_summarises_the_search_route(self):
        stats = ServiceStats()
        assert stats.log_line().startswith("stats: served=0 p50=0.0ms")
        stats.record_request("search", 0.010)
        stats.record_batch(1, inline=False)
        stats.cache_hit()
        stats.cache_miss()
        line = stats.log_line()
        assert "served=1 " in line
        assert "p99=10.0ms" in line
        assert "inline=0 spilled=1 cache=1/2 shed=0 timeouts=0" in line


class TestParseArrival:
    def test_modes(self):
        assert parse_arrival(None) is None
        assert parse_arrival("closed") is None
        assert parse_arrival("open:150") == 150.0
        for bad in ("open:0", "open:-1", "open:x", "poisson:5"):
            with pytest.raises(SystemExit):
                parse_arrival(bad)


# ----------------------------------------------------------------------
# Integration: default daemon end to end
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def default_service():
    with SearchService(
        _entries(),
        portfolio=PORTFOLIO,
        workers=2,
        cache_size=64,
    ) as running:
        yield running


class TestServingUnderLoad:
    def test_answers_bit_identical_under_load(self, default_service):
        service = default_service
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
        assert batches["count"] == batches["queries"]

    def test_cache_hits_are_identical_and_skip_the_pool(
        self, default_service
    ):
        service = default_service
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
        # The hit never touched the pool.
        assert (
            after["batches"]["queries"]
            == before["batches"]["queries"]
        )

    def test_stats_route_shape(self, default_service):
        service = default_service
        with ServiceClient(service.host, service.port) as client:
            client.search(GRAPH_ID, "high-degree-strong", 0)
            snap = client.stats()
        search = snap["routes"]["search"]
        assert search["count"] >= 1
        for key in ("p50_ms", "p90_ms", "p99_ms", "mean_ms"):
            assert key in search
        assert snap["in_flight"] >= 0
        assert snap["engine"] in ("serial", "ensemble")
        assert set(snap["batches"]["size_distribution"]) == {"1"}
        assert snap["cache"]["capacity"] == 64
        assert snap["queue_depth"] >= 0

    def test_open_loop_load_reports_offered_qps(
        self, default_service
    ):
        service = default_service
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

    def test_duration_mode_cycles_queries(self, default_service):
        service = default_service
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


@pytest.mark.usefixtures("pool_only")
class TestRobustness:
    def test_query_timeout_is_structured_503(self):
        # The held pool never answers, so the query deterministically
        # times out.
        pool = _FakePool(held=True)
        with _fake_service(pool, query_timeout=0.05) as service:
            with ServiceClient(service.host, service.port) as client:
                with pytest.raises(ServiceHTTPError) as info:
                    client.search(GRAPH_ID, "random-walk", 0)
            assert info.value.status == 503
            assert service.stats.snapshot()["timeouts"] == 1

    def test_timed_out_query_never_reaches_a_worker(self):
        pool = _FakePool(held=True)
        with _fake_service(pool, query_timeout=0.2) as service:
            with pytest.raises(QueryError) as info:
                service.handle_search(_query(1))
            assert info.value.status == 503
            # The timed-out call was cancelled before any worker took
            # it; releasing the pool runs nothing.
            pool.release()
            assert pool.ran == []
            later = service.handle_search(_query(2))
            assert later["run_index"] == 2
        assert pool.ran == [[2]]

    def test_timeout_error_body_carries_timeout_s(self):
        import http.client

        pool = _FakePool(held=True)
        with _fake_service(pool, query_timeout=0.05) as service:
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
        pool = _FakePool(held=True)
        with _fake_service(pool, max_queue=2) as service:
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

            held = [
                threading.Thread(target=fire, args=(index,))
                for index in range(2)
            ]
            for thread in held:
                thread.start()
            pool.wait_for_queued(2)
            # Two pool calls are in flight: the next three shed at
            # once, without waiting for either.
            for index in range(2, 5):
                fire(index)
            assert statuses == [429, 429, 429]
            pool.release()
            for thread in held:
                thread.join(timeout=10)
            assert sorted(statuses) == [200, 200, 429, 429, 429]
            assert service.stats.snapshot()["shed"] == 3

    def test_worker_death_fails_one_query_not_the_daemon(self):
        with SearchService(
            _entries(),
            portfolio=PORTFOLIO,
            workers=1,
            cache_size=0,
        ) as service:
            with ServiceClient(service.host, service.port) as client:
                baseline = client.search(GRAPH_ID, "random-walk", 0)
                # Kill every worker while the pool is idle: the next
                # pool call lands on a broken pool and must fail
                # alone, after which the daemon swaps in a fresh pool.
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
        from repro.runner.store import TrialStore

        store = TrialStore(tmp_path)
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
            cache_store=TrialStore(tmp_path),
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

    def test_concurrent_clients_share_one_store(self, tmp_path):
        # The daemon's HTTP threads read and write the store's one
        # connection concurrently (inline answers and pool spills
        # alike); every answer must still equal the batch path and
        # persist for a fresh daemon.
        from repro.runner.store import TrialStore

        algorithms = portfolio_algorithms(PORTFOLIO)
        cells = [
            {"algorithm": algorithm, "run_index": run_index}
            for algorithm in algorithms
            for run_index in range(3)
        ]
        expected = _expected(cells)
        clients = 4

        def serve_all(service):
            barrier = threading.Barrier(clients)

            def drive(offset):
                with ServiceClient(service.host, service.port) as client:
                    barrier.wait(timeout=60)
                    return [
                        (index, client.search(
                            GRAPH_ID,
                            cells[index]["algorithm"],
                            cells[index]["run_index"],
                        ))
                        for index in range(offset, len(cells), clients)
                    ]

            with ThreadPoolExecutor(clients) as threads:
                batches = list(threads.map(drive, range(clients)))
            return dict(pair for batch in batches for pair in batch)

        with SearchService(
            _entries(),
            portfolio=PORTFOLIO,
            workers=1,
            cache_size=64,
            cache_store=TrialStore(tmp_path),
        ) as first:
            cold = serve_all(first)
            assert first.stats.snapshot()["cache"]["misses"] == len(cells)
        assert [cold[i] for i in range(len(cells))] == expected
        with SearchService(
            _entries(),
            portfolio=PORTFOLIO,
            workers=1,
            cache_size=64,
            cache_store=TrialStore(tmp_path),
        ) as second:
            warm = serve_all(second)
            snap = second.stats.snapshot()
        assert warm == cold
        assert snap["cache"]["hits"] == len(cells)
        assert snap["batches"]["queries"] == 0


class TestSigterm:
    def test_clean_exit_with_a_query_in_flight(self, tmp_path):
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
            # Send a query and leave its response unread.
            raw = socket.create_connection(
                ("127.0.0.1", port), timeout=10
            )
            body = json.dumps({
                "graph": "mori-n60-s1-e49ee3716b80aaef",
                "algorithm": "random-walk",
            }).encode()
            raw.sendall(
                b"POST /search HTTP/1.1\r\n"
                b"Host: x\r\nContent-Type: application/json\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode()
                + body
            )
            time.sleep(0.3)
            process.send_signal(signal.SIGTERM)
            stdout, stderr = process.communicate(timeout=30)
            assert process.returncode == 0, stderr
            assert "shutting down" in stdout
            # The query got a reply — its answer, or a 503 if shutdown
            # cancelled its pool call — never a hung socket.
            raw.settimeout(10)
            reply = raw.recv(4096)
            assert reply.split(b" ")[1] in (b"200", b"503"), reply
            for name in shm_names:
                with pytest.raises(FileNotFoundError):
                    attach_graph(name)
        finally:
            if raw is not None:
                raw.close()
            if process.poll() is None:
                process.kill()
                process.communicate()
