"""Service core: graph catalog, query validation, worker execution.

Everything here is importable from worker processes (top-level
functions only) and free of daemon state.  The daemon layer
(:mod:`repro.service.daemon`) owns sockets and lifecycles; this module
owns the *meaning* of a query:

* a :class:`GraphEntry` pins one served snapshot to the exact
  ``(family, size, seed)`` key the batch path uses, plus the derived
  theorem target and default start — so a served answer and a
  :func:`~repro.core.trials.batched_search_trial` answer for the same
  cell are the same function application;
* :func:`validate_query` maps malformed input to 400 and unknown
  graph/algorithm ids to 404 before anything reaches a worker;
* :func:`serve_cells` is the one ``_execute_cells`` call behind every
  served answer, with ``seed = graph seed`` — the same
  ``run_substream`` fan-out as every batch loop.  The daemon calls it
  on its own attached view for an inline attempt;
  :func:`execute_service_batch` calls it inside a pool worker, on the
  entry's shared-memory segment attached once per process.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.trials import (
    GENERATORS,
    _execute_cells,
    build_family,
    build_graph_snapshot,
    choose_start,
    family_spec,
    fastest_available,
    portfolio_factories,
)
from repro.errors import ExperimentError
from repro.graphs.frozen import FrozenGraph
from repro.graphs.shm import attach_graph

__all__ = [
    "GraphEntry",
    "QueryError",
    "answer_spec",
    "build_grid_entries",
    "entry_from_snapshot",
    "execute_service_batch",
    "load_corpus_entries",
    "portfolio_algorithms",
    "query_cell",
    "serve_cells",
    "service_answer_trial",
    "service_worker_init",
    "validate_query",
]

#: Run indices feed a 16-bit substream field (see
#: :func:`repro.rng.run_substream`); anything larger is rejected at
#: the door instead of erroring inside a worker.
MAX_RUN_INDEX = (1 << 16) - 1


#: Portfolio name -> tuple of its algorithm names, cached because
#: validation runs per query on the daemon's request threads.
_PORTFOLIO_NAMES: Dict[str, Tuple[str, ...]] = {}


def portfolio_algorithms(portfolio: str) -> Tuple[str, ...]:
    """The algorithm names a portfolio serves (stable order)."""
    names = _PORTFOLIO_NAMES.get(portfolio)
    if names is None:
        names = tuple(portfolio_factories(portfolio))
        _PORTFOLIO_NAMES[portfolio] = names
    return names


class QueryError(ExperimentError):
    """A rejected query; carries the HTTP status the daemon returns.

    ``400`` for malformed requests (bad JSON, missing/ill-typed
    fields, out-of-range vertices), ``404`` for well-formed requests
    naming an unknown graph or algorithm id, ``429`` when too many
    queries are in flight, ``503`` for timeouts and shutdown.  ``extra``
    keys are merged into the JSON error body so machine clients get a
    structured reason (``timeout_s``, ``queue_depth``, ...) alongside
    the message.
    """

    def __init__(self, status: int, message: str, **extra: Any):
        self.status = status
        self.extra = extra
        super().__init__(message)


@dataclass
class GraphEntry:
    """One served snapshot and its batch-path identity.

    ``target`` and ``start`` are resolved once at load time with the
    exact calls ``batched_search_trial`` makes per invocation
    (``theorem_target`` then ``choose_start`` under the default rule),
    so serving skips the per-query resolution without changing it.

    ``snapshot`` is ``None`` once a daemon has published the graph into
    ``segment``: from then on the shared segment is the only copy, and
    ``view`` is the daemon's read-only attachment of it.  Both are
    ``None`` again after the daemon stops; ``num_edges`` is recorded
    up front, so the descriptor never needs either.
    """

    graph_id: str
    family: Dict[str, Any]
    size: int
    seed: int
    snapshot: Optional[FrozenGraph]
    target: int
    start: int
    num_edges: int
    shm_name: Optional[str] = None
    segment: Any = field(default=None, repr=False)
    view: Optional[FrozenGraph] = field(default=None, repr=False)

    def describe(self) -> Dict[str, Any]:
        """The JSON descriptor ``GET /graphs`` returns per entry."""
        return {
            "id": self.graph_id,
            "family": dict(self.family),
            "n": self.size,
            "seed": self.seed,
            "num_edges": self.num_edges,
            "target": self.target,
            "start": self.start,
            "shm": self.shm_name,
        }


def entry_from_snapshot(
    spec: Dict[str, Any],
    size: int,
    seed: int,
    snapshot: FrozenGraph,
) -> GraphEntry:
    """Wrap an already-built snapshot in its catalog entry."""
    family_obj = build_family(spec)
    target = family_obj.theorem_target(snapshot)
    start = choose_start(family_obj, snapshot, target, "default", seed)
    graph_id = f"{spec.get('model', 'adhoc')}-n{size}-s{seed}"
    return GraphEntry(
        graph_id=graph_id,
        family=dict(spec),
        size=size,
        seed=seed,
        snapshot=snapshot,
        target=target,
        start=start,
        num_edges=snapshot.num_edges,
    )


def build_grid_entries(
    family_obj,
    sizes,
    seeds,
    *,
    generator: Optional[str] = None,
) -> List[GraphEntry]:
    """Build the catalog for a ``(family, sizes, seeds)`` grid.

    Each graph is built through :func:`build_graph_snapshot` with the
    grid seed — the very call the batch trial makes — so the served
    topology is the batch topology, not merely an equivalent one.
    ``generator=None`` takes the fastest available generator
    (:func:`~repro.core.trials.fastest_available`).
    """
    generator = fastest_available(generator, GENERATORS)
    spec = family_spec(family_obj)
    entries = []
    for size in sizes:
        for seed in seeds:
            snapshot = build_graph_snapshot(
                family_obj, size, seed, "frozen", generator
            )
            entries.append(
                entry_from_snapshot(spec, size, seed, snapshot)
            )
    return entries


def load_corpus_entries(corpus_dir: str) -> List[GraphEntry]:
    """The catalog of every readable entry of an on-disk corpus.

    Unreadable or schema-mismatched entries are skipped (the corpus
    CLI's ``verify`` is the integrity judge, not the serving path).
    """
    from repro.graphs.corpus import CORPUS_SCHEMA, GraphCorpus

    corpus = GraphCorpus(corpus_dir)
    entries = []
    for _, manifest in corpus.entries():
        if manifest.get("schema") != CORPUS_SCHEMA:
            continue
        spec = manifest.get("params")
        if not isinstance(spec, dict):
            continue
        size, seed = manifest["n"], manifest["seed"]
        snapshot = corpus.get(spec, size, seed)
        if snapshot is None:
            continue
        entries.append(entry_from_snapshot(spec, size, seed, snapshot))
    entries.sort(key=lambda entry: entry.graph_id)
    return entries


# ----------------------------------------------------------------------
# Query validation (daemon side)
# ----------------------------------------------------------------------


def validate_query(
    payload: Any,
    entries: Dict[str, GraphEntry],
    portfolio: str,
) -> Tuple[str, str, int, Optional[int], Optional[int]]:
    """Normalize one query or raise :class:`QueryError`.

    Returns ``(graph_id, algorithm, run_index, start, target)`` with
    ``start``/``target`` as ``None`` when the query defers to the
    entry's defaults.
    """
    if not isinstance(payload, dict):
        raise QueryError(400, "query body must be a JSON object")
    graph_id = payload.get("graph")
    if not isinstance(graph_id, str):
        raise QueryError(400, "missing or non-string 'graph' id")
    entry = entries.get(graph_id)
    if entry is None:
        raise QueryError(
            404,
            f"unknown graph id {graph_id!r}; serving: "
            f"{', '.join(sorted(entries)) or '(none)'}",
        )
    algorithm = payload.get("algorithm")
    if not isinstance(algorithm, str):
        raise QueryError(400, "missing or non-string 'algorithm'")
    valid = portfolio_algorithms(portfolio)
    if algorithm not in valid:
        raise QueryError(
            404,
            f"algorithm {algorithm!r} is not in the served "
            f"portfolio {portfolio!r}; valid: "
            f"{', '.join(sorted(valid))}",
        )
    run_index = payload.get("run_index", 0)
    if (
        not isinstance(run_index, int)
        or isinstance(run_index, bool)
        or not 0 <= run_index <= MAX_RUN_INDEX
    ):
        raise QueryError(
            400,
            f"'run_index' must be an integer in [0, {MAX_RUN_INDEX}]",
        )
    overrides = []
    for name in ("start", "target"):
        value = payload.get(name)
        if value is None:
            overrides.append(None)
            continue
        if not isinstance(value, int) or isinstance(value, bool):
            raise QueryError(400, f"'{name}' must be an integer")
        if not 1 <= value <= entry.size:
            raise QueryError(
                400,
                f"'{name}'={value} out of range for graph "
                f"{graph_id!r} (1..{entry.size})",
            )
        overrides.append(value)
    unknown = set(payload) - {
        "graph", "algorithm", "run_index", "start", "target"
    }
    if unknown:
        raise QueryError(
            400, f"unknown query fields: {', '.join(sorted(unknown))}"
        )
    return graph_id, algorithm, run_index, overrides[0], overrides[1]


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

#: Per-worker state: the serving manifest (set by the pool
#: initializer) and the lazily attached shared graphs, keyed by id.
_WORKER_STATE: Dict[str, Any] = {"manifest": {}, "graphs": {}}


#: Seconds between a worker's checks that its daemon is still alive.
_PARENT_POLL_INTERVAL = 1.0


def service_worker_init(manifest_json: str) -> None:
    """Pool initializer: install the serving manifest in this worker.

    ``manifest_json`` maps graph id to ``{"shm", "seed", "target",
    "start", "portfolio"}`` — everything a worker needs to answer any
    query without ever unpickling a graph.

    In a pool worker (a :mod:`multiprocessing` child) this also starts
    the parent watchdog: a daemon thread that exits the worker once
    the daemon that made the pool is gone.  A SIGKILLed daemon runs no
    shutdown, and its workers would otherwise be reparented and live
    on.  The query path is untouched.
    """
    _WORKER_STATE["manifest"] = json.loads(manifest_json)
    _WORKER_STATE["graphs"] = {}
    parent = multiprocessing.parent_process()
    if parent is not None:
        threading.Thread(
            target=_exit_with_parent,
            args=(parent, os.getppid()),
            name="parent-watchdog",
            daemon=True,
        ).start()


def _exit_with_parent(parent, parent_pid: int) -> None:
    """Poll about once a second; ``os._exit`` once the daemon is gone.

    Two signs, because neither alone covers every start method:

    * the OS parent changed (the worker was reparented).  Under
      ``fork`` and ``spawn`` the OS parent is the daemon.  Under
      ``forkserver`` it is the fork server, which outlives the daemon
      while any worker lives, so this sign never comes.
    * ``parent.is_alive()`` is false: the sentinel pipe whose write end
      only the daemon holds has closed.  Under ``spawn`` and
      ``forkserver`` no other process holds that end.  Under ``fork``
      every worker forked later inherits a copy, so it alone could
      wait on a sibling.
    """
    while os.getppid() == parent_pid and parent.is_alive():
        time.sleep(_PARENT_POLL_INTERVAL)
    os._exit(1)


def _worker_graph(graph_id: str) -> FrozenGraph:
    graph = _WORKER_STATE["graphs"].get(graph_id)
    if graph is None:
        graph = attach_graph(_WORKER_STATE["manifest"][graph_id]["shm"])
        _WORKER_STATE["graphs"][graph_id] = graph
    return graph


def attach_manifest_graphs() -> int:
    """Attach every graph of this worker's manifest; the worker's pid.

    The daemon's warm-up task: each worker maps every graph before the
    daemon answers ``/healthz``.  A graph published later (``/reload``)
    is attached on the first query that reaches a worker for it.
    """
    for graph_id in _WORKER_STATE["manifest"]:
        _worker_graph(graph_id)
    return os.getpid()


def serve_cells(
    graph: FrozenGraph,
    cells: List[Dict[str, Any]],
    *,
    portfolio: str,
    seed: int,
    start: int,
    target: int,
    engine: str,
    budget: Optional[int] = None,
) -> List[Dict[str, Any]]:
    """Answer validated query cells on one served graph.

    The seed handed to ``_execute_cells`` is the graph's *build* seed
    and each cell carries its query's ``run_index`` — exactly how
    ``batched_search_trial`` seeds the same cells, which is the whole
    determinism contract: per-cell RNG substreams depend only on
    ``(seed, algorithm, run_index)``, never on how cells are grouped
    or which process runs them.  ``budget=None`` is the batch path's
    default budget; the daemon's inline attempt passes a smaller one.
    """
    return _execute_cells(
        graph,
        portfolio_factories(portfolio),
        cells,
        default_start=start,
        default_target=target,
        budget=budget,
        neighbor_success=False,
        seed=seed,
        engine=engine,
    )


def execute_service_batch(
    graph_id: str,
    cells: List[Dict[str, Any]],
    engine: str = "serial",
) -> List[Dict[str, Any]]:
    """Answer a batch of validated queries in one worker call.

    The daemon sends one cell per call.  Runs :func:`serve_cells` on
    this worker's attachment of the graph, under the query's own
    (default) budget.
    """
    info = _WORKER_STATE["manifest"][graph_id]
    return serve_cells(
        _worker_graph(graph_id),
        cells,
        portfolio=info["portfolio"],
        seed=info["seed"],
        start=info["start"],
        target=info["target"],
        engine=engine,
    )


def query_cell(
    algorithm: str,
    run_index: int,
    start: Optional[int],
    target: Optional[int],
) -> Dict[str, Any]:
    """The ``_execute_cells`` cell dict of one validated query."""
    cell: Dict[str, Any] = {
        "algorithm": algorithm, "run_index": run_index,
    }
    if start is not None:
        cell["start"] = start
    if target is not None:
        cell["target"] = target
    return cell


def worker_manifest(entries: List[GraphEntry], portfolio: str) -> str:
    """The JSON manifest :func:`service_worker_init` consumes."""
    return json.dumps({
        entry.graph_id: {
            "shm": entry.shm_name,
            "seed": entry.seed,
            "target": entry.target,
            "start": entry.start,
            "portfolio": portfolio,
        }
        for entry in entries
    })


# ----------------------------------------------------------------------
# Cached answers as replay-addressable trials
# ----------------------------------------------------------------------


def service_answer_trial(
    *,
    family: Dict[str, Any],
    size: int,
    portfolio: str,
    algorithm: str,
    run_index: int = 0,
    start: Optional[int] = None,
    target: Optional[int] = None,
    seed: int = 0,
) -> Dict[str, Any]:
    """Recompute one served answer from scratch (the cache's oracle).

    This is the trial function behind the answer cache's TrialStore
    write-through: a cached answer persists as a normal versioned
    trial record whose replay rebuilds the graph and re-runs the cell
    through :func:`~repro.core.trials.batched_search_trial` — so a
    store written by a serving daemon is interchangeable with one
    written by a batch run, and ``repro store stat/compact`` apply
    unchanged.
    """
    from repro.core.trials import batched_search_trial

    return batched_search_trial(
        family=family,
        size=size,
        portfolio=portfolio,
        cells=[query_cell(algorithm, run_index, start, target)],
        seed=seed,
    )[0]


def answer_spec(
    entry: GraphEntry,
    portfolio: str,
    algorithm: str,
    run_index: int,
    start: Optional[int],
    target: Optional[int],
):
    """The :class:`~repro.runner.trial.TrialSpec` of one served cell.

    Keyed exactly like :func:`service_answer_trial` replays it, so a
    store hit is the bit-identical answer by the versioned-record
    contract (stale fingerprints read as MISS).
    """
    from repro.runner.trial import TrialSpec, trial_ref

    params: Dict[str, Any] = {
        "family": dict(entry.family),
        "size": entry.size,
        "portfolio": portfolio,
        "algorithm": algorithm,
        "run_index": run_index,
    }
    if start is not None:
        params["start"] = start
    if target is not None:
        params["target"] = target
    return TrialSpec(
        experiment_id="service",
        trial=trial_ref(service_answer_trial),
        params=params,
        seed=entry.seed,
    )
