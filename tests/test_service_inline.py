"""Tests for the daemon's inline attempt (`repro.service.daemon`).

A cache miss first runs in its HTTP thread on the daemon's attached
view with the request budget ``INLINE_BUDGET``; a run that finds the
target is the answer, anything else reruns from scratch in the pool.
The invariants: a run that finds the target within a budget equals the
unbounded run (for every portfolio algorithm, under both engines), so
every served answer — inline, spilled or cached — equals
``batched_search_trial``; concurrent inline cells on one view agree
with a single thread; ``/reload``ed graphs are answered inline; the
daemon's views close before their segments unlink.  Also here: the
typed 400 for a malformed ``Content-Length`` and the typed 413 for an
oversized one, ``GET /graphs`` after ``stop()``, and the start method
both kinds of pool run on.
"""

from __future__ import annotations

import json
import os
import socket
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro.service.daemon as daemon
from repro.core.families import MoriFamily
from repro.core.trials import (
    ENGINES,
    PORTFOLIOS,
    batched_search_trial,
    family_spec,
)
from repro.graphs.shm import SHM_DIR, attach_graph, publish_graph
from repro.runner import TrialSpec, run_trials
from repro.runner.executor import POOL_START_METHOD
from repro.runner.trial import trial_ref
from repro.service import SearchService, ServiceClient, build_grid_entries
from repro.service.core import entry_from_snapshot, serve_cells

SIZE = 150
SEED = 4
PORTFOLIO = "adamic"
FAMILY = MoriFamily(p=0.5, m=1)
GRAPH_ID = f"mori-n{SIZE}-s{SEED}-e49ee3716b80aaef"


def _oracle(cells, *, size=SIZE, seed=SEED, portfolio=PORTFOLIO):
    return batched_search_trial(
        family=family_spec(FAMILY),
        size=size,
        portfolio=portfolio,
        cells=cells,
        seed=seed,
    )


def _hop_cells(graph, count, algorithm="random-walk"):
    """Cells from a leaf to its only neighbour: found at request 1."""
    cells = []
    for vertex in range(graph.num_vertices, 1, -1):
        if graph.degree(vertex) == 1:
            cells.append({
                "algorithm": algorithm,
                "run_index": len(cells),
                "start": vertex,
                "target": graph.neighbors(vertex)[0],
            })
            if len(cells) == count:
                break
    return cells


def _service(**options):
    options = {"portfolio": PORTFOLIO, "workers": 1, **options}
    return SearchService(
        build_grid_entries(FAMILY, [SIZE], [SEED]), **options
    )


@pytest.fixture(scope="module")
def published():
    """The served graph's entry and an attached view of its segment."""
    entry = entry_from_snapshot(
        family_spec(FAMILY), SIZE, SEED,
        FAMILY.build_frozen(SIZE, seed=SEED),
    )
    segment = publish_graph(entry.snapshot)
    view = attach_graph(segment.name)
    yield entry, view
    view.close()
    segment.close()
    segment.unlink()


# ----------------------------------------------------------------------
# A bounded run that finds the target is the unbounded run
# ----------------------------------------------------------------------


def _near_cells(graph, algorithm, runs):
    """Default cells plus cells whose target is 1-3 hops from start.

    Targets stay >= 3, where the omniscient window is non-empty.
    """
    cells = []
    for run_index in range(runs):
        cells.append({"algorithm": algorithm, "run_index": run_index})
        for start in (graph.num_vertices, 17, 40):
            far = start
            for _ in range(1 + run_index % 3):
                far = graph.neighbors(far)[0]
            if far < 3 or far == start:
                continue
            cells.append({
                "algorithm": algorithm, "run_index": run_index,
                "start": start, "target": far,
            })
    return cells


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("portfolio", sorted(PORTFOLIOS))
def test_found_within_budget_equals_unbounded(published, portfolio, engine):
    entry, view = published

    def run(cells, budget):
        return serve_cells(
            view, cells, portfolio=portfolio, seed=entry.seed,
            start=entry.start, target=entry.target, engine=engine,
            budget=budget,
        )

    for algorithm in PORTFOLIOS[portfolio]():
        cells = _near_cells(view, algorithm, runs=3)
        unbounded = run(cells, None)
        found = [
            (cell, full) for cell, full in zip(cells, unbounded)
            if full["found"]
        ]
        assert found, algorithm
        for cell, full in found:
            used = full["requests"]
            # Found exactly at the budget, and with room to spare.
            for budget in {used, used + 1, max(used, daemon.INLINE_BUDGET)}:
                assert run([cell], budget) == [full], (cell, budget)
            if used:
                (short,) = run([cell], used - 1)
                assert not short["found"], cell


# ----------------------------------------------------------------------
# Inline answers on a running daemon
# ----------------------------------------------------------------------


def test_inline_and_spilled_answers_equal_the_batch_path():
    cells = [
        {"algorithm": algorithm, "run_index": run_index}
        for algorithm in ("random-walk", "high-degree-strong")
        for run_index in range(12)
    ]
    with _service(cache_size=0) as service:
        cells += _hop_cells(service.entries[GRAPH_ID].view, 6)
        answers = [
            service.handle_search({"graph": GRAPH_ID, **cell})
            for cell in cells
        ]
        batches = service.handle_stats()["batches"]
    assert answers == _oracle(cells)
    # Hops and short walks ran inline; long walks and the pool-only
    # high-degree-strong cells spilled.
    assert batches["inline"] >= 6
    assert batches["spilled"] >= 12
    assert batches["inline"] + batches["spilled"] == len(cells)
    assert batches["size_distribution"] == {"1": len(cells)}


def test_pool_only_algorithms_never_run_inline():
    portfolio = "weak-omniscient"
    with _service(portfolio=portfolio, cache_size=0) as service:
        view = service.entries[GRAPH_ID].view
        cells = [
            cell
            for algorithm in PORTFOLIOS[portfolio]()
            if algorithm not in daemon.INLINE_ALGORITHMS
            for cell in _hop_cells(view, 2, algorithm=algorithm)
            if cell["target"] >= 3  # a non-empty omniscient window
        ]
        answers = [
            service.handle_search({"graph": GRAPH_ID, **cell})
            for cell in cells
        ]
        batches = service.handle_stats()["batches"]
    assert {cell["algorithm"] for cell in cells} == (
        set(PORTFOLIOS[portfolio]()) - daemon.INLINE_ALGORITHMS
    )
    assert answers == _oracle(cells, portfolio=portfolio)
    assert batches["inline"] == 0
    assert batches["spilled"] == len(cells)


def test_inline_answer_is_a_cache_miss():
    with _service(cache_size=8) as service:
        (cell,) = _hop_cells(service.entries[GRAPH_ID].view, 1)
        query = {"graph": GRAPH_ID, **cell}
        first = service.handle_search(query)
        second = service.handle_search(query)
        snap = service.handle_stats()
    assert first == second == _oracle([cell])[0]
    assert snap["cache"]["hits"] == 1
    assert snap["cache"]["misses"] == 1
    assert snap["batches"]["inline"] == 1
    assert snap["batches"]["spilled"] == 0


def test_inline_budget_never_exceeds_the_querys_own(monkeypatch):
    # Shrink the query's own (default) budget to one request in the
    # daemon's eyes: only one-request cells may then finish inline.
    monkeypatch.setattr(daemon, "default_budget", lambda graph: 1)
    with _service(cache_size=0) as service:
        hops = _hop_cells(service.entries[GRAPH_ID].view, 4)
        walks = [
            {"algorithm": "random-walk", "run_index": run_index}
            for run_index in range(8)
        ]
        answers = [
            service.handle_search({"graph": GRAPH_ID, **cell})
            for cell in hops + walks
        ]
        batches = service.handle_stats()["batches"]
    assert answers == _oracle(hops + walks)
    longer = sum(answer["requests"] > 1 for answer in answers)
    assert longer > 0
    assert batches["inline"] == len(answers) - longer
    assert batches["spilled"] == longer


def test_budget_zero_sends_every_miss_to_the_pool(monkeypatch):
    monkeypatch.setattr(daemon, "INLINE_BUDGET", 0)
    with _service() as service:
        cells = _hop_cells(service.entries[GRAPH_ID].view, 5)
        answers = [
            service.handle_search({"graph": GRAPH_ID, **cell})
            for cell in cells
        ]
        snap = service.handle_stats()
    assert answers == _oracle(cells)
    assert snap["batches"]["inline"] == 0
    assert snap["batches"]["spilled"] == snap["cache"]["misses"] == 5


def test_concurrent_inline_cells_match_one_thread():
    """4 threads on one attached view, caches built under contention."""

    def serve(threads):
        with _service(portfolio="weak", cache_size=0) as service:
            view = service.entries[GRAPH_ID].view
            cells = [
                cell
                for algorithm in sorted(daemon.INLINE_ALGORITHMS)
                if algorithm != "uniform-walk-strong"
                for cell in _hop_cells(view, 15, algorithm=algorithm)
            ] + [
                {"algorithm": "random-walk", "run_index": run_index}
                for run_index in range(20)
            ]
            queries = [{"graph": GRAPH_ID, **cell} for cell in cells]
            with ThreadPoolExecutor(threads) as pool:
                answers = list(pool.map(service.handle_search, queries))
            inline = service.handle_stats()["batches"]["inline"]
        return cells, answers, inline

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        cells, threaded, inline = serve(4)
    finally:
        sys.setswitchinterval(interval)
    _, single, _ = serve(1)
    assert inline >= 45
    assert threaded == single
    assert threaded == _oracle(cells, portfolio="weak")


def test_reloaded_graph_is_answered_inline(tmp_path):
    from repro.graphs.corpus import GraphCorpus
    from repro.service import load_corpus_entries

    spec = family_spec(FAMILY)
    corpus = GraphCorpus(tmp_path)
    corpus.put(spec, 60, 1, FAMILY.build_frozen(60, seed=1))
    new_graph = FAMILY.build_frozen(60, seed=2)
    cells = _hop_cells(new_graph, 4)
    service = SearchService(
        load_corpus_entries(str(tmp_path)),
        portfolio=PORTFOLIO,
        workers=1,
        corpus_dir=str(tmp_path),
    )
    with service:
        with ServiceClient(service.host, service.port) as client:
            corpus.put(spec, 60, 2, new_graph)
            new_id = "mori-n60-s2-e49ee3716b80aaef"
            assert client.reload()["added"] == [new_id]
            answers = [
                client.search(
                    new_id, cell["algorithm"], cell["run_index"],
                    start=cell["start"], target=cell["target"],
                )
                for cell in cells
            ]
            batches = client.stats()["batches"]
    assert answers == _oracle(cells, size=60, seed=2)
    assert batches["inline"] == len(cells)
    assert batches["spilled"] == 0


def test_stop_closes_views_and_unlinks_segments():
    service = SearchService(
        build_grid_entries(FAMILY, [60], [1, 2]),
        portfolio=PORTFOLIO,
        workers=1,
    )
    service.start()
    names = [entry.shm_name for entry in service.entries.values()]
    assert all(entry.view is not None for entry in service.entries.values())
    service.stop()
    for entry in service.entries.values():
        assert entry.view is None and entry.segment is None
    for name in names:
        assert not os.path.exists(os.path.join(SHM_DIR, name))
        with pytest.raises(FileNotFoundError):
            attach_graph(name)
    # The catalog outlives the segments: no AttributeError.
    assert [graph["num_edges"] for graph in service.handle_graphs()] == [
        59, 59,
    ]


# ----------------------------------------------------------------------
# Malformed or oversized Content-Length: a typed 400 or 413, then the
# connection closes
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def http_service():
    with _service() as running:
        yield running


def _raw_post(port, path, length):
    """Send a bodyless POST; everything the server sends until EOF."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(
            f"POST {path} HTTP/1.1\r\nHost: x\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {length}\r\n\r\n".encode()
        )
        received = b""
        while True:
            chunk = sock.recv(4096)
            if not chunk:
                return received
            received += chunk


@pytest.mark.parametrize("length", ["abc", "-1"])
@pytest.mark.parametrize("path", ["/search", "/reload", "/nowhere"])
def test_malformed_content_length_is_400_and_closes(
    http_service, path, length
):
    reply = _raw_post(http_service.port, path, length)
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 400 "), reply
    assert b"Connection: close" in head
    payload = json.loads(body)
    assert payload["status"] == 400
    assert "Content-Length" in payload["error"]
    assert http_service.stats.in_flight == 0


@pytest.mark.parametrize("length", [2 * 10**9, 10**12])
@pytest.mark.parametrize("path", ["/search", "/reload"])
def test_oversized_body_is_413_unread_and_closes(
    http_service, path, length
):
    """The daemon answers a body it will not read at once: no
    allocation of the claimed length, no wait for its bytes."""
    reply = _raw_post(http_service.port, path, length)
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 413 "), reply
    assert b"Connection: close" in head
    payload = json.loads(body)
    assert payload["status"] == 413
    assert payload["max_body_bytes"] == daemon.MAX_BODY_BYTES
    assert str(length) in payload["error"]
    assert http_service.stats.in_flight == 0


# ----------------------------------------------------------------------
# Both kinds of pool run on the pinned start method
# ----------------------------------------------------------------------

_MARKER = "as imported"


def marker_trial(*, seed: int = 0) -> str:
    return _MARKER


def _marker() -> str:
    return _MARKER


def test_pools_run_on_the_pinned_start_method(monkeypatch):
    """Only ``fork`` workers see a patch made before the pool starts."""
    assert POOL_START_METHOD == "fork"
    monkeypatch.setattr(sys.modules[__name__], "_MARKER", "patched")
    specs = [
        TrialSpec(
            experiment_id="T", trial=trial_ref(marker_trial),
            params={}, seed=seed,
        )
        for seed in range(4)
    ]
    results = run_trials(specs, jobs=2)
    assert [result.value for result in results] == ["patched"] * 4
    with _service() as service:
        pool = service._pool
        assert pool._mp_context.get_start_method() == POOL_START_METHOD
        assert pool.submit(_marker).result(timeout=60) == "patched"
