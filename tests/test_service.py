"""Tests for the search service (`repro.service`).

The properties that make a long-lived daemon trustworthy: served
answers are bit-identical to the batch path, every failure mode (bad
query, unknown ids, client disconnects, double-start, SIGTERM) ends in
a clean error or clean exit — never a stuck daemon — and shared-memory
segments never outlive their service.
"""

from __future__ import annotations

import json
import http.client
import multiprocessing
import os
import signal
import socket
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.core.families import MoriFamily
from repro.core.trials import batched_search_trial, family_spec
from repro.graphs.shm import (
    SHM_DIR,
    attach_graph,
    publish_graph,
    sweep_dead_segments,
)
from repro.service import (
    QueryError,
    SearchService,
    ServiceClient,
    build_grid_entries,
    run_load,
    validate_query,
)
from repro.service.client import ServiceHTTPError
from repro.service.core import (
    _PARENT_POLL_INTERVAL,
    portfolio_algorithms,
    service_worker_init,
)

SIZE = 120
SEED = 3
PORTFOLIO = "adamic"


def _proc_stat(pid):
    """The fields of ``/proc/<pid>/stat`` after the command name."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            text = handle.read()
    except OSError:
        return None
    return text[text.rindex(")") + 2:].split()


def _pid_running(pid):
    """Alive and not a zombie (an unreaped orphan does not run)."""
    fields = _proc_stat(pid)
    return fields is not None and fields[0] not in ("Z", "X")


def _children(pid):
    children = []
    for name in os.listdir("/proc"):
        if name.isdigit():
            fields = _proc_stat(name)
            if fields is not None and fields[1] == str(pid):
                children.append(int(name))
    return children


def _descendants(pid):
    found = []
    for child in _children(pid):
        found.append(child)
        found.extend(_descendants(child))
    return found


def _cmdline(pid):
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as handle:
            return handle.read()
    except OSError:
        return None


@pytest.fixture(scope="module")
def service():
    entries = build_grid_entries(
        MoriFamily(p=0.5, m=1), [SIZE], [SEED]
    )
    with SearchService(
        entries, portfolio=PORTFOLIO, workers=2
    ) as running:
        yield running


@pytest.fixture()
def client(service):
    with ServiceClient(service.host, service.port) as handle:
        yield handle


GRAPH_ID = f"mori-n{SIZE}-s{SEED}-e49ee3716b80aaef"


class TestServing:
    def test_health_and_catalog(self, client):
        assert client.health()["status"] == "ok"
        graphs = client.graphs()
        assert [graph["id"] for graph in graphs] == [GRAPH_ID]
        assert graphs[0]["n"] == SIZE
        assert graphs[0]["shm"]

    def test_answers_bit_identical_to_batch_path(self, service):
        algorithms = list(portfolio_algorithms(PORTFOLIO))
        queries = [
            {
                "graph": GRAPH_ID,
                "algorithm": algorithm,
                "run_index": run_index,
            }
            for algorithm in algorithms
            for run_index in range(3)
        ]
        responses, stats = run_load(
            service.host, service.port, queries, clients=4
        )
        cells = [
            {
                "algorithm": query["algorithm"],
                "run_index": query["run_index"],
            }
            for query in queries
        ]
        expected = batched_search_trial(
            family=family_spec(MoriFamily(p=0.5, m=1)),
            size=SIZE,
            portfolio=PORTFOLIO,
            cells=cells,
            seed=SEED,
        )
        assert responses == expected
        assert stats["queries"] == len(queries)

    def test_explicit_start_target_overrides(self, client):
        response = client.search(
            GRAPH_ID, "random-walk", 0, start=7, target=2
        )
        assert response["start"] == 7
        assert response["target"] == 2


class TestFailureModes:
    def test_malformed_json_body_is_400(self, service):
        conn = http.client.HTTPConnection(
            service.host, service.port, timeout=10
        )
        try:
            conn.request(
                "POST", "/search", body=b"{not json",
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            payload = json.loads(response.read())
            assert response.status == 400
            assert "JSON" in payload["error"]
        finally:
            conn.close()

    def test_missing_fields_are_400(self, client):
        with pytest.raises(ServiceHTTPError) as info:
            client._request("POST", "/search", payload={})
        assert info.value.status == 400

    def test_unknown_graph_is_404(self, client):
        with pytest.raises(ServiceHTTPError) as info:
            client.search("no-such-graph", "random-walk")
        assert info.value.status == 404
        assert GRAPH_ID in str(info.value)

    def test_unknown_algorithm_is_404(self, client):
        with pytest.raises(ServiceHTTPError) as info:
            client.search(GRAPH_ID, "quantum-oracle")
        assert info.value.status == 404

    def test_bad_run_index_and_vertices_are_400(self, client):
        for payload in (
            {"graph": GRAPH_ID, "algorithm": "random-walk",
             "run_index": -1},
            {"graph": GRAPH_ID, "algorithm": "random-walk",
             "run_index": 1 << 16},
            {"graph": GRAPH_ID, "algorithm": "random-walk",
             "start": 0},
            {"graph": GRAPH_ID, "algorithm": "random-walk",
             "target": SIZE + 1},
            {"graph": GRAPH_ID, "algorithm": "random-walk",
             "bogus": 1},
        ):
            with pytest.raises(ServiceHTTPError) as info:
                client._request("POST", "/search", payload=payload)
            assert info.value.status == 400, payload

    def test_client_disconnect_mid_response_not_fatal(
        self, service, client
    ):
        # Open a raw connection, fire a valid query, and slam the
        # socket shut without reading the response; the daemon must
        # keep serving other clients.
        raw = socket.create_connection(
            (service.host, service.port), timeout=10
        )
        body = json.dumps({
            "graph": GRAPH_ID, "algorithm": "random-walk",
        }).encode()
        raw.sendall(
            b"POST /search HTTP/1.1\r\n"
            b"Host: x\r\nContent-Type: application/json\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode()
            + body
        )
        raw.close()
        time.sleep(0.1)
        assert client.health()["status"] == "ok"
        assert client.search(GRAPH_ID, "random-walk")["requests"] >= 0

    def test_double_start_on_bound_port_fails_clean(self, service):
        entries = build_grid_entries(
            MoriFamily(p=0.5, m=1), [60], [1]
        )
        second = SearchService(
            entries,
            portfolio=PORTFOLIO,
            workers=1,
            host=service.host,
            port=service.port,
        )
        with pytest.raises(OSError):
            second.start()
        # The failed start must not leak what it published.
        for entry in second.entries.values():
            assert entry.segment is None
            if entry.shm_name:
                with pytest.raises(FileNotFoundError):
                    attach_graph(entry.shm_name)
        # And the original daemon is untouched.
        with ServiceClient(service.host, service.port) as probe:
            assert probe.health()["status"] == "ok"


class TestValidateQuery:
    def _entries(self):
        family = MoriFamily(p=0.5, m=1)
        return {
            entry.graph_id: entry
            for entry in build_grid_entries(family, [60], [1])
        }

    def test_rejects_non_object(self):
        with pytest.raises(QueryError) as info:
            validate_query([], self._entries(), PORTFOLIO)
        assert info.value.status == 400

    def test_boolean_run_index_rejected(self):
        entries = self._entries()
        graph_id = next(iter(entries))
        with pytest.raises(QueryError) as info:
            validate_query(
                {"graph": graph_id, "algorithm": "random-walk",
                 "run_index": True},
                entries, PORTFOLIO,
            )
        assert info.value.status == 400


class TestSharedCopyOnly:
    """After publishing, the shared segment is the graph's only copy.

    The daemon drops its snapshot, and a worker's attached snapshot
    stays array-only while it answers ensemble-engine cells.
    """

    def test_daemon_drops_its_snapshot(self, service, client):
        entry = service.entries[GRAPH_ID]
        assert entry.snapshot is None
        (graph,) = client.graphs()
        # A Mori tree (m = 1) has n - 1 edges; read from the header.
        assert graph["num_edges"] == SIZE - 1

    def test_served_cells_build_no_scalar_lists(self):
        from repro.graphs.shm import publish_graph
        from repro.service.core import (
            _WORKER_STATE,
            execute_service_batch,
            service_worker_init,
            worker_manifest,
        )

        (entry,) = build_grid_entries(
            MoriFamily(p=0.5, m=1), [SIZE], [SEED]
        )
        segment = publish_graph(entry.snapshot)
        entry.shm_name = segment.name
        cells = [
            {"algorithm": "high-degree-strong", "run_index": 0},
            {"algorithm": "random-walk", "run_index": 1},
        ]
        try:
            service_worker_init(worker_manifest([entry], PORTFOLIO))
            answers = [
                execute_service_batch(entry.graph_id, [cell], "ensemble")[0]
                for cell in cells
            ]
            graph = _WORKER_STATE["graphs"][entry.graph_id]
            assert graph._endpoints is None
            assert graph._indegree is None
            assert graph._outdegree is None
        finally:
            for graph in _WORKER_STATE["graphs"].values():
                graph.close()
            service_worker_init("{}")
            segment.close()
            segment.unlink()
        assert answers == batched_search_trial(
            family=family_spec(MoriFamily(p=0.5, m=1)),
            size=SIZE,
            portfolio=PORTFOLIO,
            cells=cells,
            seed=SEED,
        )


class TestLifecycle:
    def test_stop_unlinks_segments_and_is_idempotent(self):
        entries = build_grid_entries(
            MoriFamily(p=0.5, m=1), [60], [2]
        )
        running = SearchService(
            entries, portfolio=PORTFOLIO, workers=1
        )
        running.start()
        names = [
            entry.shm_name for entry in running.entries.values()
        ]
        assert all(names)
        for name in names:
            attached = attach_graph(name)
            attached.close()
        running.stop()
        running.stop()  # idempotent
        for name in names:
            with pytest.raises(FileNotFoundError):
                attach_graph(name)

    def test_sigterm_cleans_up_daemon_subprocess(self, tmp_path):
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
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            deadline = time.monotonic() + 60
            while not port_file.exists():
                assert process.poll() is None, process.stderr.read()
                assert time.monotonic() < deadline, "daemon never bound"
                time.sleep(0.05)
            port = int(port_file.read_text().strip())
            with ServiceClient("127.0.0.1", port) as probe:
                graphs = probe.graphs()
                shm_names = [graph["shm"] for graph in graphs]
                assert shm_names and all(shm_names)
                assert probe.search(
                    graphs[0]["id"], "random-walk"
                )["target"] == graphs[0]["target"]
            process.send_signal(signal.SIGTERM)
            stdout, stderr = process.communicate(timeout=30)
            assert process.returncode == 0, stderr
            assert "shutting down" in stdout
            for name in shm_names:
                with pytest.raises(FileNotFoundError):
                    attach_graph(name)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()

    @pytest.mark.skipif(
        not os.path.isdir(SHM_DIR), reason="segments are not files here"
    )
    def test_next_start_sweeps_a_sigkilled_daemons_segments(
        self, tmp_path
    ):
        port_file = tmp_path / "serve.port"
        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + (
            os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH") else ""
        )
        # Its own session, so one killpg takes the daemon, its pool
        # workers and its resource tracker down together: nothing of
        # the first daemon is left to unlink its segments.
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--sizes", "60", "--seeds", "1,2",
                "--workers", "1", "--port", "0",
                "--port-file", str(port_file),
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        live_owner = subprocess.Popen(
            [sys.executable, "-c", "import time; time.sleep(120)"]
        )
        live = publish_graph(
            MoriFamily(p=0.5, m=1).build(40, seed=0),
            name=f"repro-{live_owner.pid}-live",
        )
        try:
            deadline = time.monotonic() + 60
            while not port_file.exists() or not port_file.read_text():
                assert process.poll() is None, process.stderr.read()
                assert time.monotonic() < deadline, "daemon never bound"
                time.sleep(0.05)
            port = int(port_file.read_text().strip())
            with ServiceClient("127.0.0.1", port) as probe:
                killed = [graph["shm"] for graph in probe.graphs()]
            assert len(killed) == 2
            assert all(
                name.startswith(f"repro-{process.pid}-")
                for name in killed
            )
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate(timeout=30)
            time.sleep(0.2)  # let the killed group finish exiting
            for name in killed:
                assert os.path.exists(os.path.join(SHM_DIR, name))
            second = SearchService(
                build_grid_entries(MoriFamily(p=0.5, m=1), [60], [3]),
                portfolio=PORTFOLIO,
                workers=1,
            )
            with second:
                for name in killed:
                    assert not os.path.exists(os.path.join(SHM_DIR, name))
                attach_graph(live.name).close()  # live owner: kept
        finally:
            if process.poll() is None:
                os.killpg(process.pid, signal.SIGKILL)
                process.communicate()
            live_owner.kill()
            live_owner.wait()
            live.close()
            live.unlink()

    @pytest.mark.skipif(
        not os.path.isdir("/proc"), reason="child pids read from /proc"
    )
    @pytest.mark.parametrize("start_method", ["fork", "forkserver", "spawn"])
    def test_sigkilled_daemons_workers_exit(self, tmp_path, start_method):
        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {start_method} start method here")
        port_file = tmp_path / "serve.port"
        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + (
            os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH") else ""
        )
        # The daemon's pool runs on the pinned start method; the test
        # re-pins it to the one under test.
        launch = (
            "import sys\n"
            "import repro.runner.executor as executor\n"
            "executor.POOL_START_METHOD = sys.argv[1]\n"
            "from repro.cli import main\n"
            "raise SystemExit(main(sys.argv[2:]))\n"
        )
        process = subprocess.Popen(
            [
                sys.executable, "-c", launch, start_method, "serve",
                "--sizes", "60", "--seeds", "1",
                "--workers", "1", "--port", "0",
                "--port-file", str(port_file),
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        workers = []
        try:
            deadline = time.monotonic() + 60
            while not port_file.exists() or not port_file.read_text():
                assert process.poll() is None, process.stderr.read()
                assert time.monotonic() < deadline, "daemon never bound"
                time.sleep(0.05)
            # The pool is warmed before the port is published.  Its
            # workers are the daemon's leaf descendants other than the
            # resource tracker: children under fork and spawn,
            # grandchildren (below the fork server) under forkserver.
            workers = [
                pid for pid in _descendants(process.pid)
                if not _children(pid)
                and b"resource_tracker" not in (_cmdline(pid) or b"")
            ]
            assert len(workers) == 1
            os.kill(process.pid, signal.SIGKILL)  # the daemon alone
            process.communicate(timeout=30)
            deadline = time.monotonic() + 5
            while any(_pid_running(pid) for pid in workers):
                assert time.monotonic() < deadline, (
                    f"orphaned workers still running: {workers}"
                )
                time.sleep(0.1)
        finally:
            if process.poll() is None:
                os.killpg(process.pid, signal.SIGKILL)
                process.communicate()
            for pid in workers:
                if _pid_running(pid):
                    os.kill(pid, signal.SIGKILL)
            sweep_dead_segments()

    def test_watchdog_keeps_a_forkserver_worker(self):
        # A forkserver worker's OS parent is the fork server, not the
        # process that made the pool: the watchdog must watch the
        # former, or every worker exits right after its initializer.
        if "forkserver" not in multiprocessing.get_all_start_methods():
            pytest.skip("no forkserver start method here")
        with ProcessPoolExecutor(
            max_workers=1,
            mp_context=multiprocessing.get_context("forkserver"),
            initializer=service_worker_init,
            initargs=("{}",),
        ) as pool:
            first = pool.submit(os.getpid).result(timeout=60)
            time.sleep(2.5 * _PARENT_POLL_INTERVAL)
            assert pool.submit(os.getpid).result(timeout=60) == first

    def test_corpus_hot_reload_serves_new_graphs(self, tmp_path):
        from repro.graphs.corpus import GraphCorpus
        from repro.service import load_corpus_entries

        family = MoriFamily(p=0.5, m=1)
        spec = family_spec(family)
        corpus = GraphCorpus(tmp_path)
        corpus.put(spec, 60, 1, family.build_frozen(60, seed=1), )
        entries = load_corpus_entries(str(tmp_path))
        running = SearchService(
            entries,
            portfolio=PORTFOLIO,
            workers=1,
            corpus_dir=str(tmp_path),
        )
        with running:
            with ServiceClient(
                running.host, running.port
            ) as probe:
                assert probe.reload() == {
                    "added": [], "total": 1,
                }
                corpus.put(
                    spec, 60, 2, family.build_frozen(60, seed=2)
                )
                report = probe.reload()
                new_id = "mori-n60-s2-e49ee3716b80aaef"
                assert report["added"] == [new_id]
                assert report["total"] == 2
                response = probe.search(new_id, "random-walk")
        expected = batched_search_trial(
            family=spec, size=60, portfolio=PORTFOLIO,
            cells=[{"algorithm": "random-walk", "run_index": 0}],
            seed=2,
        )[0]
        assert response == expected


class TestCorpusIds:
    """Two families of one model, one ``(n, seed)``: two graphs."""

    def test_each_family_is_served_its_own_graph(self, tmp_path):
        from repro.cli import main
        from repro.service import load_corpus_entries

        root = str(tmp_path / "corpus")
        for p in ("0.25", "0.5"):
            assert main([
                "corpus", "build", root, "--model", "mori",
                "--p", p, "--sizes", "100",
            ]) == 0
        entries = load_corpus_entries(root)
        assert len({entry.graph_id for entry in entries}) == 2
        cells = [
            {"algorithm": algorithm, "run_index": run_index}
            for algorithm in ("random-walk", "high-degree-strong")
            for run_index in range(2)
        ]
        with SearchService(
            entries, portfolio=PORTFOLIO, workers=1
        ) as running:
            with ServiceClient(running.host, running.port) as probe:
                graphs = probe.graphs()
                served = {
                    graph["family"]["p"]: [
                        probe.search(
                            graph["id"], cell["algorithm"],
                            cell["run_index"],
                        )
                        for cell in cells
                    ]
                    for graph in graphs
                }
        assert sorted(served) == [0.25, 0.5]
        for p, answers in served.items():
            assert answers == batched_search_trial(
                family=family_spec(MoriFamily(p=p, m=1)), size=100,
                portfolio=PORTFOLIO, cells=cells, seed=0,
            )
        assert served[0.25] != served[0.5]


class TestServeGenerator:
    """``repro serve`` builds with the fastest available generator
    unless ``--generator`` names one."""

    def _generators(self, monkeypatch, argv=()):
        import repro.service.core as service_core
        from repro.cli import _serve_entries, build_parser

        seen = []
        original = service_core.build_graph_snapshot

        def recording(family_obj, size, seed, generator):
            seen.append(generator)
            return original(family_obj, size, seed, generator)

        args = build_parser().parse_args(
            ["serve", "--sizes", "60", "--seeds", "1", *argv]
        )
        with monkeypatch.context() as patch:
            patch.setattr(service_core, "build_graph_snapshot", recording)
            (entry,) = _serve_entries(args)
        return seen, list(entry.snapshot.edges())

    def test_default_is_vectorized_with_numpy(
        self, monkeypatch, reference_arms
    ):
        seen, edges = self._generators(monkeypatch)
        assert seen == ["vectorized"]
        with reference_arms():
            reference, reference_edges = self._generators(monkeypatch)
        assert reference == ["serial"]
        assert reference_edges == edges

    def test_default_is_serial_on_reference_arms(
        self, monkeypatch, reference_arms
    ):
        with reference_arms():
            seen, _ = self._generators(monkeypatch)
        assert seen == ["serial"]
        explicit, _ = self._generators(
            monkeypatch, ["--generator", "serial"]
        )
        assert explicit == ["serial"]
