"""The ``serve-hop`` workload: ``repro serve`` driven over its HTTP routes.

One Móri graph (p = 1/2, m = 1) at n = 1e6 is served by the daemon's
defaults (portfolio ``adamic``, 2 workers, coalescing on).  Every query
is a random walk from a uniformly drawn leaf to its only neighbour,
which takes exactly 1 request, so the time is the per-query fixed cost
of serving, not walk work.  Each run:

1. starts the daemon three times, one after another, and reports the
   median set-up time (spawn until ``/healthz`` answers and every worker
   has attached the graph, through zero-request warm-up cells);
2. on each daemon, sends a few untimed real cells, then alternates
   blocks of a closed phase (2 connections, fixed query count) and of an
   open phase (fixed rate and count, each query timed from when it was
   due), and reads ``/stats``;
3. on the last daemon, reads the PSS of its processes and, when traced,
   times the search layer in-process on the workload's own cells and the
   ``/healthz`` round trip;
4. stops each daemon with SIGTERM, fails on any leaked ``/dev/shm``
   segment, and checks every answer against ``batched_search_trial``.

All phases use disjoint ``run_index`` ranges, so no answer can come
from the daemon's answer cache.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from common import (
    BENCH_DIR,
    OUT_DIR,
    ROOT,
    BenchError,
    Tracer,
    child_env,
    cmdline,
    descendants,
    load_spans,
    mapped_segments,
    pss_mb,
    quantile,
    ref_slice_ms,
    shm_segments,
)

WARM_RUNS = (0, 1024)
PREWARM_RUNS = (1024, 4096)
CLOSED_RUNS = (4096, 32768)
OPEN_RUNS = (32768, 65536)
#: An answer slower than this counts as a miss in ok_share.
ANSWER_LIMIT_S = 1.0
WORKERS = 2
CONNECTIONS = 2
#: The first real cells after start-up run slower than the rest (the
#: warm-up cells take no walk step); this many more, untimed, finish
#: warming the workers.
PREWARM_QUERIES = 10
BLOCKS_PER_DAEMON = 2


@dataclass(frozen=True)
class ServeConfig:
    size: int
    #: Closed-phase queries per second of ``--seconds``.
    closed_per_s: float
    #: Open-phase offered rate (qps) and queries per second of
    #: ``--seconds``.
    rate: float
    open_per_s: float
    #: Daemon starts per run; setup_s is their median.
    setups: int
    probe_cells: int
    healthz_probes: int


CONFIG = ServeConfig(
    size=1_000_000, closed_per_s=7.5, rate=4.0, open_per_s=5.0,
    setups=3, probe_cells=20, healthz_probes=50,
)
TOY_CONFIG = ServeConfig(
    size=3000, closed_per_s=2.0, rate=20.0, open_per_s=2.0,
    setups=2, probe_cells=4, healthz_probes=5,
)


# ----------------------------------------------------------------------
# Wire
# ----------------------------------------------------------------------


class Connection:
    """One keep-alive HTTP connection to the daemon."""

    def __init__(self, port: int):
        self._port = port
        self._conn: Optional[http.client.HTTPConnection] = None

    def request(self, method: str, path: str, payload: Any = None):
        """``(status, decoded body)``; status 0 on a transport error."""
        body = None if payload is None else json.dumps(payload).encode()
        headers = {} if body is None else {
            "Content-Type": "application/json"
        }
        try:
            if self._conn is None:
                self._conn = http.client.HTTPConnection(
                    "127.0.0.1", self._port, timeout=60
                )
            self._conn.request(method, path, body=body, headers=headers)
            response = self._conn.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            return 0, None
        return response.status, json.loads(raw) if raw else None

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


# ----------------------------------------------------------------------
# Daemon lifecycle
# ----------------------------------------------------------------------


class Daemon:
    """A ``repro serve`` subprocess, started and warmed by :meth:`start`."""

    def __init__(self, size: int, spans_path=None):
        self.size = size
        self.spans_path = spans_path
        self.port_file = OUT_DIR / f"serve-{os.getpid()}.port"
        self.process: Optional[subprocess.Popen] = None
        self.port = 0
        self.graph: Dict[str, Any] = {}

    def start(self) -> float:
        """Spawn, wait for ``/healthz``, warm every worker; set-up seconds."""
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        if self.port_file.exists():
            self.port_file.unlink()
        serve_args = [
            "serve", "--sizes", str(self.size), "--seeds", "0",
            "--generator", "vectorized", "--workers", str(WORKERS),
            "--port-file", str(self.port_file),
        ]
        if self.spans_path is not None:
            command = [
                sys.executable, str(BENCH_DIR / "serve_daemon.py"),
                str(self.spans_path), *serve_args,
            ]
        else:
            command = [sys.executable, "-m", "repro", *serve_args]
        begin = time.perf_counter()
        self.process = subprocess.Popen(
            command, cwd=str(ROOT), env=child_env(),
            stdout=subprocess.DEVNULL,
        )
        self.port = self._wait_port(begin + 150)
        probe = Connection(self.port)
        try:
            while probe.request("GET", "/healthz")[0] != 200:
                self._check_alive()
                time.sleep(0.01)
            status, graphs = probe.request("GET", "/graphs")
            if status != 200:
                raise BenchError(f"GET /graphs answered {status}")
        finally:
            probe.close()
        (self.graph,) = graphs
        self._warm()
        return time.perf_counter() - begin

    def _check_alive(self) -> None:
        if self.process.poll() is not None:
            raise BenchError(
                f"daemon exited with {self.process.returncode} "
                "during start-up"
            )

    def _wait_port(self, deadline: float) -> int:
        while time.perf_counter() < deadline:
            self._check_alive()
            try:
                text = self.port_file.read_text(encoding="utf-8")
            except FileNotFoundError:
                text = ""
            if text.endswith("\n"):
                return int(text)
            time.sleep(0.01)
        raise BenchError("daemon did not bind within 150 s")

    def workers(self) -> List[int]:
        """The pool's worker processes (forks share the daemon's argv)."""
        own = cmdline(self.process.pid)
        return [
            pid for pid in descendants(self.process.pid)
            if cmdline(pid) == own
        ]

    def _warm(self) -> None:
        """Send warm-up pairs until every worker mapped the graph.

        A worker attaches a graph lazily on its first query for it, and
        a pair sent at once coalesces into one batch on one worker, so
        this repeats until each worker got one.
        """
        connections = [Connection(self.port) for _ in range(CONNECTIONS)]
        cells = [
            {
                "graph": self.graph["id"], "algorithm": "high-degree-strong",
                "run_index": run_index, "start": 1, "target": 1,
            }
            for run_index in range(*WARM_RUNS)
        ]
        try:
            for first in range(0, len(cells), CONNECTIONS):
                workers = self.workers()
                if len(workers) == WORKERS and all(
                    self.graph["shm"] in mapped_segments(pid)
                    for pid in workers
                ):
                    return
                threads = [
                    threading.Thread(
                        target=connection.request,
                        args=("POST", "/search", cell),
                    )
                    for connection, cell in zip(
                        connections, cells[first:first + CONNECTIONS]
                    )
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
        finally:
            for connection in connections:
                connection.close()
        raise BenchError("warm-up never reached every worker")

    def stop(self) -> int:
        """SIGTERM and wait; the exit code."""
        if self.process is None or self.process.poll() is not None:
            return self.process.returncode if self.process else 0
        self.process.send_signal(signal.SIGTERM)
        try:
            return self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
            raise BenchError("daemon ignored SIGTERM for 60 s") from None
        finally:
            if self.port_file.exists():
                self.port_file.unlink()

    def memory(self) -> Dict[str, float]:
        workers = self.workers()
        everyone = [self.process.pid] + descendants(self.process.pid)
        return {
            "total": sum(pss_mb(pid) for pid in everyone),
            "daemon": pss_mb(self.process.pid),
            "worker": statistics.mean(pss_mb(pid) for pid in workers),
        }


# ----------------------------------------------------------------------
# Queries
# ----------------------------------------------------------------------


def leaf_hops(graph_info, rng: random.Random, count: int):
    """``count`` distinct (leaf, neighbour) pairs drawn uniformly, in
    draw order."""
    from repro.graphs.shm import attach_graph

    graph = attach_graph(graph_info["shm"])
    try:
        n = graph.num_vertices
        hops: Dict[int, int] = {}
        while len(hops) < count:
            vertex = rng.randint(1, n)
            if vertex in hops or graph.degree(vertex) != 1:
                continue
            (neighbour,) = graph.neighbors(vertex)
            if neighbour != vertex:
                hops[vertex] = neighbour
        return list(hops.items())
    finally:
        graph.close()


def hop_queries(graph_id, hops, rng, bounds):
    """One random walk per (leaf, neighbour) hop: exactly 1 request."""
    return [
        {
            "graph": graph_id,
            "algorithm": "random-walk",
            "run_index": run_index,
            "start": leaf,
            "target": neighbour,
        }
        for run_index, (leaf, neighbour) in zip(
            rng.sample(range(*bounds), len(hops)), hops
        )
    ]


# ----------------------------------------------------------------------
# Load generation
# ----------------------------------------------------------------------


@dataclass
class Outcome:
    status: int
    latency_s: float
    late_s: float
    answer: Any


def closed_loop(port: int, queries) -> tuple:
    """Each connection sends its next query when its answer lands."""
    outcomes: List[Optional[Outcome]] = [None] * len(queries)
    cursor = iter(range(len(queries)))
    lock = threading.Lock()

    def client() -> None:
        connection = Connection(port)
        try:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                begin = time.perf_counter()
                status, answer = connection.request(
                    "POST", "/search", queries[index]
                )
                outcomes[index] = Outcome(
                    status, time.perf_counter() - begin, 0.0, answer
                )
        finally:
            connection.close()

    begin = time.perf_counter()
    _run_clients(client)
    return outcomes, time.perf_counter() - begin


def open_loop(port: int, queries, rate: float) -> List[Outcome]:
    """Query ``i`` is due at ``i / rate``; latency counts from due time."""
    outcomes: List[Optional[Outcome]] = [None] * len(queries)
    cursor = iter(range(len(queries)))
    lock = threading.Lock()
    origin = time.perf_counter() + 0.05

    def client() -> None:
        connection = Connection(port)
        try:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                due = origin + index / rate
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                status, answer = connection.request(
                    "POST", "/search", queries[index]
                )
                outcomes[index] = Outcome(
                    status, time.perf_counter() - due, sent - due, answer
                )
        finally:
            connection.close()

    _run_clients(client)
    return outcomes


def _block(queries, block: int, blocks: int):
    """The ``block``-th of ``blocks`` consecutive, near-equal slices."""
    return queries[
        block * len(queries) // blocks:(block + 1) * len(queries) // blocks
    ]


def _run_clients(client) -> None:
    threads = [threading.Thread(target=client) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


# ----------------------------------------------------------------------
# Checks and layer probes
# ----------------------------------------------------------------------


def _check_answers(graph, queries, outcomes) -> List[bool]:
    """Which answers arrived and equal ``batched_search_trial``."""
    from repro.core.trials import batched_search_trial

    expected = batched_search_trial(
        family=graph["family"],
        size=graph["n"],
        portfolio="adamic",
        cells=[_cell(query) for query in queries],
        generator="vectorized",
        seed=graph["seed"],
    )
    return [
        outcome.status == 200 and outcome.answer == reference
        for outcome, reference in zip(outcomes, expected)
    ]


def _cell(query: Dict[str, Any]) -> Dict[str, Any]:
    return {key: value for key, value in query.items() if key != "graph"}


def _search_probe(graph, queries, count: int):
    """Time ``execute_service_batch`` in this process on own cells.

    Runs after the memory reading, so this process's mapping does not
    dilute the daemon's PSS; the graph is dropped again afterwards.
    """
    import repro.service.core as service_core

    tracer = Tracer()
    manifest = json.dumps({
        graph["id"]: {
            "shm": graph["shm"], "seed": graph["seed"],
            "target": graph["target"], "start": graph["start"],
            "portfolio": "adamic",
        }
    })
    service_core.service_worker_init(manifest)
    tracer.wrap(service_core, "attach_graph", "graphs.shm.attach")
    traced_attach = service_core.attach_graph
    attached = []

    def keep(name):
        attached.append(traced_attach(name))
        return attached[-1]

    service_core.attach_graph = keep
    cells = [_cell(query) for query in queries[:count]]
    single, pairs = [], []
    try:
        # A zero-request cell attaches the graph before any timing.
        service_core.execute_service_batch(
            graph["id"],
            [{"algorithm": "random-walk", "start": 1, "target": 1}],
            "ensemble",
        )
        for index, cell in enumerate(cells):
            begin = time.perf_counter()
            with tracer.span("search.cell", query_id=index):
                service_core.execute_service_batch(
                    graph["id"], [cell], "ensemble"
                )
            single.append((time.perf_counter() - begin) * 1000.0)
        for index in range(0, len(cells) - 1, 2):
            begin = time.perf_counter()
            with tracer.span("search.pair", query_id=index):
                service_core.execute_service_batch(
                    graph["id"], cells[index:index + 2], "ensemble"
                )
            pairs.append((time.perf_counter() - begin) * 1000.0)
    finally:
        tracer.unwrap_all()
        service_core.service_worker_init(manifest)
        for attached_graph in attached:
            attached_graph.close()
    attach = tracer.totals()["graphs.shm.attach"]
    return {
        "search.cell_p50_ms": quantile(single, 0.5),
        "search.cell_p90_ms": quantile(single, 0.9),
        "search.pair_ms": statistics.median(pairs),
        "graphs.shm.attach_ms": 1000.0 * attach["total_s"] / attach["calls"],
    }


def _healthz_p50_ms(port: int, count: int) -> float:
    connection = Connection(port)
    samples = []
    try:
        for _ in range(count):
            begin = time.perf_counter()
            status, _ = connection.request("GET", "/healthz")
            if status != 200:
                raise BenchError(f"/healthz answered {status}")
            samples.append((time.perf_counter() - begin) * 1000.0)
    finally:
        connection.close()
    return quantile(samples, 0.5)


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------


def run(seed: int, seconds: float, trace: bool, toy: bool):
    config = TOY_CONFIG if toy else CONFIG
    rng = random.Random(f"serve-hop:{seed}")
    counts = (
        PREWARM_QUERIES,
        max(4, round(config.closed_per_s * seconds)),
        max(4, round(config.open_per_s * seconds)),
    )
    blocks = config.setups * BLOCKS_PER_DAEMON
    segments_before = shm_segments()
    spans_path = OUT_DIR / "serve-daemon-spans.json" if trace else None
    if spans_path is not None and spans_path.exists():
        spans_path.unlink()

    setups, refs, block_qps, exit_codes = [], [ref_slice_ms()], [], []
    closed_outcomes, open_outcomes = [], []
    batch_sizes: Dict[str, int] = {}
    cache_hits = lookups = 0
    layers: Dict[str, float] = {}
    queries = None
    # Every daemon start is timed for setup_s and then serves its share
    # of the blocks: a daemon's speed differs from start to start by up
    # to a quarter, so each run's figures span all of its daemons.
    for start in range(config.setups):
        last = start == config.setups - 1
        daemon = Daemon(config.size, spans_path if last else None)
        try:
            setups.append(daemon.start())
            graph = daemon.graph
            if queries is None:
                queries = _split_queries(graph, rng, counts)
            prewarm, closed, opened = queries
            closed_loop(daemon.port, prewarm)
            # Closed and open blocks alternate, so both phases sample
            # the whole run: the host slows in bursts of a few seconds.
            for block in range(start * BLOCKS_PER_DAEMON,
                               (start + 1) * BLOCKS_PER_DAEMON):
                refs.append(ref_slice_ms())
                outcomes, wall = closed_loop(
                    daemon.port, _block(closed, block, blocks)
                )
                closed_outcomes += outcomes
                block_qps.append(len(outcomes) / wall)
                refs.append(ref_slice_ms())
                open_outcomes += open_loop(
                    daemon.port, _block(opened, block, blocks), config.rate
                )
            probe = Connection(daemon.port)
            status, stats = probe.request("GET", "/stats")
            probe.close()
            if status != 200:
                raise BenchError(f"GET /stats answered {status}")
            cache_hits += stats["cache"]["hits"]
            lookups += stats["cache"]["hits"] + stats["cache"]["misses"]
            for size, count in stats["batches"]["size_distribution"].items():
                batch_sizes[size] = batch_sizes.get(size, 0) + count
            if last:
                memory = daemon.memory()
                if trace:
                    layers["service.healthz_p50_ms"] = _healthz_p50_ms(
                        daemon.port, config.healthz_probes
                    )
                    layers.update(
                        _search_probe(graph, closed, config.probe_cells)
                    )
        finally:
            exit_codes.append(daemon.stop())
    leaked = sorted(shm_segments() - segments_before)

    qps = statistics.median(block_qps)
    outcomes = closed_outcomes + open_outcomes
    matched = _check_answers(graph, closed + opened, outcomes)
    in_time = [
        ok and outcome.latency_s <= ANSWER_LIMIT_S
        for ok, outcome in zip(matched, outcomes)
    ]
    answered = [o for o in outcomes if o.status == 200]
    closed_ms = [o.latency_s * 1000.0 for o in closed_outcomes]
    open_ms = [o.latency_s * 1000.0 for o in open_outcomes]
    batches = sum(batch_sizes.values())
    result = {
        "attempted": len(outcomes),
        "failed": matched.count(False),
        "checks": {
            "answers equal batched_search_trial": all(matched),
            "no answer from the answer cache": cache_hits == 0,
            f"no leaked /dev/shm segment {leaked}": not leaked,
            "daemons exited 0 on SIGTERM": not any(exit_codes),
        },
        "end_to_end": {
            "setup_s": statistics.median(setups),
            "wall_s": len(closed) / qps,
            "qps": qps,
            "p50_ms": quantile(open_ms, 0.5),
            "p90_ms": quantile(open_ms, 0.9),
            "mem_mb": memory["total"],
            "ok_share": in_time.count(True) / len(in_time),
        },
        "per_layer": {
            "host.ref_ms": statistics.median(refs),
            "loadgen.closed_p50_ms": quantile(closed_ms, 0.5),
            "loadgen.closed_p90_ms": quantile(closed_ms, 0.9),
            "loadgen.late_p90_ms": quantile(
                [o.late_s * 1000.0 for o in open_outcomes], 0.9
            ),
            "search.requests_mean": statistics.mean(
                o.answer["requests"] for o in answered
            ) if answered else 0.0,
            "service.batch_size_mean": (
                sum(int(size) * count for size, count in batch_sizes.items())
                / batches
            ),
            "service.batches": batches,
            "service.cache_hit_share": cache_hits / lookups,
            "service.daemon_mb": memory["daemon"],
            "service.worker_mb": memory["worker"],
            **layers,
        },
        "report": {
            "setups_s": [round(value, 3) for value in setups],
            "refs_ms": [round(value, 2) for value in refs],
            "closed_block_qps": [round(value, 2) for value in block_qps],
            "batch_sizes": dict(sorted(batch_sizes.items())),
            "closed_queries": len(closed),
            "open_queries": len(opened),
            "offered_qps": config.rate,
        },
    }
    if trace:
        result["per_layer"].update(_daemon_layers(spans_path))
        result["report"]["spans"] = str(spans_path)
    return result


def _split_queries(graph, rng: random.Random, counts):
    """Pre-warm, closed and open queries over distinct leaves."""
    hops = leaf_hops(graph, rng, sum(counts))
    cut = (0, counts[0], counts[0] + counts[1], sum(counts))
    return [
        hop_queries(graph["id"], hops[low:high], rng, bounds)
        for low, high, bounds in zip(
            cut, cut[1:], (PREWARM_RUNS, CLOSED_RUNS, OPEN_RUNS)
        )
    ]


def _daemon_layers(spans_path) -> Dict[str, float]:
    totals = load_spans(spans_path).totals()
    return {
        "graphs.build_s": totals["graphs.build"]["total_s"],
        "graphs.shm.publish_ms": (
            1000.0 * totals["graphs.shm.publish"]["total_s"]
        ),
    }
