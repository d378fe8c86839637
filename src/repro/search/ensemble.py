"""Vectorized walker-ensemble kernel for Monte-Carlo search cells.

Every walk-heavy experiment estimates an expectation by repeating the
same (algorithm, start, target) search cell over many independent runs
on one graph snapshot.  The serial path steps each run through the
oracle machinery one Python object at a time — per move that is a
``Knowledge`` dict lookup or three, and per request the oracle's
protocol checks plus ``_add_vertex`` bookkeeping, all proportional to
vertex degree.  This module advances the *whole ensemble of runs* of a
cell directly on :class:`~repro.graphs.frozen.FrozenGraph`'s CSR
arrays instead:

* the uniform-step walks (random walk, restarting walk) run in **lock
  step** — state is a ``(n_runs,)`` array of current vertices plus a
  ``(n_runs, n+1)`` discovered bitmap, and each step is one gather
  into the slot arrays for every live run plus one scalar RNG draw per
  run (the draw is the only per-run Python left);
* the variable-candidate walks (self-avoiding, degree-biased) run
  per-run on flat state — discovered/requested sets, CSR slot views,
  shared per-vertex answer/weight caches — because their candidate
  filter is a variable-length scan that vectorises per vertex, not per
  ensemble.  Runs are independent, so per-run and lock-step scheduling
  are interchangeable (pinned by the run-order-permutation property
  test);
* a narrow ensemble (at most ``_SCALAR_CUTOVER`` runs, e.g. one served
  query) costs O(walk), not O(n): the scalar paths keep sets, not
  bitmaps, and index no-copy memoryviews of the CSR arrays until the
  walk has done O(n) work of its own.

Bit-identical determinism is the contract, not an aspiration:

* each run ``i`` draws from its own ``make_rng(run_seeds[i])``
  generator — the caller derives those seeds with
  :func:`repro.rng.run_substream`, exactly as the serial loops do;
* the kernel replays each algorithm's draw sequence *in loop order*
  (restart coin before edge draw, unresolved-preferring choice before
  the uniform fallback), so run ``i`` consumes its Mersenne Twister
  stream variate-for-variate as the serial algorithm would.  Draws go
  through the bound ``Random._randbelow`` — what ``randrange(n)``
  itself calls for ``n > 0`` — skipping only argument validation,
  never changing a variate;
* the oracle protocol is simulated using the one
  :class:`~repro.search.oracle.Knowledge` invariant that holds while a
  single walk drives the oracle: ``far_endpoint(u, eid)`` is inferable
  exactly when the edge's other endpoint has been discovered (a
  self-loop resolves the moment its owner is).

Consequently per-run costs, success flags, result extras, and oracle
request traces are equal — as Python objects — to what
:func:`~repro.search.process.run_search` produces run by run
(``tests/test_search_ensemble.py`` pins this for every walk-family
algorithm, all five graph models, and both graph backends).

The kernel accepts either backend and freezes internally (snapshots
preserve every answer bit-for-bit, so this changes nothing but speed).
A :class:`~repro.graphs.delta.DeltaGraph` overlay is accepted too and
is *not* frozen: the overlay exposes the same masked-CSR attributes
(empty rows for tombstoned vertices, overlay edge ids in the slot
table), so the kernel's neighbor gathers skip dead peers natively and
reported edge ids match the serial algorithms' — costs, flags, and
oracle traces stay serial-equivalent on a churned graph
(``tests/test_churn.py`` pins it).

Supported algorithms are exactly the walk family.  The deterministic
and heap-driven portfolio members (flooding, degree/age greedy,
omniscient, mixtures) keep their serial path;
:func:`repro.core.trials._execute_cells` falls back per algorithm.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as _np

from repro.errors import InvalidParameterError, OracleProtocolError
from repro.graphs.delta import DeltaGraph
from repro.graphs.frozen import FrozenGraph, GraphBackend, freeze
from repro.rng import make_rng
from repro.search.algorithms.base import SearchAlgorithm
from repro.search.algorithms.biased_walk import DegreeBiasedWalkSearch
from repro.search.algorithms.random_walk import RandomWalkSearch
from repro.search.algorithms.walks import (
    RestartingWalkSearch,
    SelfAvoidingWalkSearch,
)
from repro.search.metrics import SearchResult
from repro.search.process import default_budget

__all__ = [
    "ENSEMBLE_ALGORITHMS",
    "ensemble_supported",
    "run_ensemble",
]


#: Exact algorithm types the kernel can advance.  Strict ``type`` checks
#: (mirroring flooding's fast-path guard) — a subclass may override
#: stepping semantics the kernel would silently ignore.
ENSEMBLE_ALGORITHMS = (
    RandomWalkSearch,
    SelfAvoidingWalkSearch,
    RestartingWalkSearch,
    DegreeBiasedWalkSearch,
)


def ensemble_supported(algorithm: SearchAlgorithm) -> bool:
    """Whether :func:`run_ensemble` can advance ``algorithm``.

    True exactly for unsubclassed walk-family instances; everything
    else (flooding, greedy heaps, mixtures, omniscient, subclasses)
    must take the serial per-run path.
    """
    return type(algorithm) in ENSEMBLE_ALGORITHMS


class _Cell:
    """One validated (algorithm, start, target) cell and its buffers."""

    def __init__(
        self,
        graph,  # FrozenGraph or DeltaGraph (same CSR attribute seam)
        start: int,
        target: int,
        run_seeds: Sequence[int],
        budget: int,
        neighbor_success: bool,
        collect_traces: bool,
    ):
        n = graph.num_vertices
        self.graph = graph
        self.start = start
        self.target = target
        self.budget = budget
        self.n_runs = len(run_seeds)
        # asarray: a no-copy plain-ndarray view, also of the memmap
        # columns of a corpus-loaded snapshot.
        self.offsets = _np.asarray(graph._offsets, dtype=_np.int64)
        self.slot_targets = _np.asarray(
            graph._slot_targets, dtype=_np.int64
        )
        self.slot_edges = _np.asarray(graph._slot_edges, dtype=_np.int64)
        zone = {target}
        if neighbor_success:
            zone.update(graph.unique_neighbors(target))
        self.zone = frozenset(zone)
        self.rngs = [make_rng(seed) for seed in run_seeds]
        self.start_found = start in self.zone
        self.traces: Optional[List[List[tuple]]] = (
            [[] for _ in range(self.n_runs)] if collect_traces else None
        )
        # Scalar-path state is O(walk), never O(n): discovered sets,
        # not bitmaps, and no-copy memoryviews of the CSR arrays.  A
        # memoryview index costs more than a list index, so once the
        # cell's scalar runs have taken as many steps as the graph has
        # vertices (the walk has done work comparable to an O(n)
        # conversion) the views switch to lists for the rest of it.
        self.edge_view = (
            memoryview(self.slot_edges) if collect_traces else None
        )
        self._csr_views = (
            memoryview(self.offsets),
            memoryview(self.slot_targets),
        )
        self._view_steps = n

    def advance(self, run, state: tuple, max_moves: int) -> tuple:
        """Drive one scalar run to completion on the CSR views.

        ``run(offsets, slot_targets, cap, *state)`` continues a run
        until it finishes or its hop count (``state[3]``) reaches
        ``cap``, returning the new state.  Pausing at a cap and
        resuming is invisible to the run — the whole loop state is in
        ``state`` and the run's generator — so the switch from
        memoryviews to lists changes no draw and no number.
        """
        if self._view_steps > 0:
            hops = state[3]
            cap = min(max_moves, hops + self._view_steps)
            state = run(*self._csr_views, cap, *state)
            self._view_steps -= state[3] - hops
            if self._view_steps > 0:
                return state
            self._csr_views = (
                self.offsets.tolist(),
                self.slot_targets.tolist(),
            )
        return run(*self._csr_views, max_moves, *state)

    def results(
        self,
        algorithm: SearchAlgorithm,
        found,
        requests,
        **extras,
    ) -> List[SearchResult]:
        """Per-run :class:`SearchResult` list, in run order.

        ``extras`` are per-run diagnostic sequences keyed by the
        ``extra`` name the serial algorithm reports (``hops``,
        ``restarts``); everything is cast to plain Python types so
        results compare equal to serial ones and round-trip through
        the JSON store identically.
        """
        return [
            SearchResult(
                algorithm=algorithm.name,
                model=algorithm.model,
                found=bool(found[i]),
                requests=int(requests[i]),
                start=self.start,
                target=self.target,
                extra={
                    key: int(values[i])
                    for key, values in extras.items()
                },
            )
            for i in range(self.n_runs)
        ]


def run_ensemble(
    algorithm: SearchAlgorithm,
    graph: GraphBackend,
    start: int,
    target: int,
    run_seeds: Sequence[int],
    budget: Optional[int] = None,
    neighbor_success: bool = False,
    collect_traces: bool = False,
):
    """Advance every run of one search cell through the array kernel.

    Parameters mirror :func:`~repro.search.process.run_search`, except
    that ``run_seeds`` carries one integer seed per run (derive them
    with :func:`repro.rng.run_substream` to match the serial loops).

    Returns the list of per-run :class:`SearchResult` — element ``i``
    equals ``run_search(algorithm, graph, start, target, budget=budget,
    seed=run_seeds[i], neighbor_success=neighbor_success)`` exactly.
    With ``collect_traces=True`` returns ``(results, traces)`` where
    ``traces[i]`` is run ``i``'s oracle request journal in the tracing
    format of the golden-trace gauntlet: ``("weak", u, eid, answer)``
    per weak request, ``("strong", u, answers)`` per strong request.

    Raises :class:`~repro.errors.InvalidParameterError` for algorithms
    outside the walk family (see :func:`ensemble_supported`).
    """
    if not ensemble_supported(algorithm):
        supported = ", ".join(
            cls.__name__ for cls in ENSEMBLE_ALGORITHMS
        )
        raise InvalidParameterError(
            f"{type(algorithm).__name__} has no ensemble kernel "
            f"(supported: {supported}); run it with engine='serial'"
        )
    if not graph.has_vertex(start):
        raise OracleProtocolError(f"start vertex {start} not in graph")
    if not graph.has_vertex(target):
        raise OracleProtocolError(f"target vertex {target} not in graph")
    if budget is None:
        budget = default_budget(graph)
    if budget < 0:
        raise InvalidParameterError(f"budget must be >= 0, got {budget}")

    cell = _Cell(
        # Overlays carry their own masked-CSR view; freezing one would
        # relabel ids and break trace equivalence with the serial path.
        graph if isinstance(graph, DeltaGraph) else freeze(graph),
        start,
        target,
        run_seeds,
        budget,
        neighbor_success,
        collect_traces,
    )
    if type(algorithm) is RandomWalkSearch:
        results = _uniform_walk_kernel(cell, algorithm, restart_prob=None)
    elif type(algorithm) is RestartingWalkSearch:
        results = _uniform_walk_kernel(
            cell, algorithm, restart_prob=algorithm.restart_prob
        )
    elif type(algorithm) is SelfAvoidingWalkSearch:
        results = _self_avoiding_kernel(cell, algorithm)
    else:
        results = _degree_biased_kernel(cell, algorithm)
    if collect_traces:
        return results, cell.traces
    return results


# ----------------------------------------------------------------------
# Lock-step kernel: uniform-step weak walks
# ----------------------------------------------------------------------

#: Below this many live runs the lock-step gathers cost more than they
#: amortise (one fancy-index pays for the whole ensemble width), so the
#: kernel finishes the stragglers on the scalar flat-array path.  Purely
#: a wall-clock knob: both paths replay the identical draw sequence.
_SCALAR_CUTOVER = 8


def _uniform_run(
    cell: _Cell,
    run: int,
    restart_prob: Optional[float],
    discovered: set,
    offsets: Sequence[int],
    slot_targets: Sequence[int],
    max_moves: int,
    v: int,
    found: bool,
    requests: int,
    hops: int,
    restarts: int,
):
    """Advance one run on flat scalar state (see :meth:`_Cell.advance`).

    Continues the serial loop exactly from wherever the lock-step
    phase (or an earlier stretch) left it — same guards, same draw
    order — until the run ends or ``hops`` reaches ``max_moves``, and
    returns ``(v, found, requests, hops, restarts)``.
    """
    rng = cell.rngs[run]
    draw = rng._randbelow  # == randrange(n) for n > 0
    coin = rng.random
    zone = cell.zone
    budget = cell.budget
    trace = cell.traces[run] if cell.traces is not None else None
    start = cell.start
    while not found and requests < budget and hops < max_moves:
        if restart_prob is not None and coin() < restart_prob:
            v = start
            restarts += 1
            hops += 1  # restarts count toward the move guard
            continue
        lo = offsets[v]
        hi = offsets[v + 1]
        if lo == hi:
            break  # isolated start vertex: nowhere to go
        slot = lo + draw(hi - lo)
        far = slot_targets[slot]
        if far not in discovered:
            requests += 1
            discovered.add(far)
            if far in zone:
                found = True
            if trace is not None:
                trace.append(("weak", v, cell.edge_view[slot], far))
        v = far
        hops += 1
    return v, found, requests, hops, restarts


def _uniform_walk_kernel(
    cell: _Cell,
    algorithm: SearchAlgorithm,
    restart_prob: Optional[float],
) -> List[SearchResult]:
    """Random walk, with or without restart coins.

    Wide ensembles advance in lock step (:func:`_lock_step`) until at
    most ``_SCALAR_CUTOVER`` runs are live; the scalar path finishes
    the stragglers, and runs a narrow ensemble from the start.  Per-run
    state is ``(v, found, requests, hops, restarts)``.
    """
    budget = cell.budget
    max_moves = algorithm._MOVES_PER_REQUEST * max(budget, 1)
    # A walk can only stand on the start vertex or a vertex it moved
    # into along an edge, so a degree-0 position is possible only at
    # the (isolated) start — precompute that one flag instead of
    # checking every iteration.
    start_isolated = cell.graph.degree(cell.start) == 0
    if cell.start_found or budget == 0 or (
        # Serial: empty incidence list -> immediate break, zero hops.
        start_isolated and restart_prob is None
    ):
        live: List[int] = []
    else:
        live = list(range(cell.n_runs))
    states = [(cell.start, cell.start_found, 0, 0, 0)] * cell.n_runs
    discovered = None
    if len(live) > _SCALAR_CUTOVER:
        live, states, discovered = _lock_step(
            cell, restart_prob, max_moves, live, start_isolated
        )
    # Narrow ensemble (or lock-step stragglers): the scalar path
    # finishes each remaining run without paying one numpy dispatch
    # per surviving step.
    for i in live:
        seen = (
            {cell.start}
            if discovered is None
            else set(_np.flatnonzero(discovered[i]).tolist())
        )
        states[i] = cell.advance(
            partial(_uniform_run, cell, i, restart_prob, seen),
            states[i],
            max_moves,
        )

    found = [state[1] for state in states]
    requests = [state[2] for state in states]
    hops = [state[3] for state in states]
    if restart_prob is None:
        return cell.results(algorithm, found, requests, hops=hops)
    restarts = [state[4] for state in states]
    return cell.results(
        algorithm, found, requests, hops=hops, restarts=restarts
    )


def _lock_step(
    cell: _Cell,
    restart_prob: Optional[float],
    max_moves: int,
    live: List[int],
    start_isolated: bool,
):
    """Advance a wide ensemble in lock step until it narrows.

    One iteration advances every live run by exactly one serial loop
    iteration.  Liveness is event-driven: a run leaves the live set
    when it finds the target, exhausts its budget, or (isolated start
    only) has nowhere to move; the global move guard is the iteration
    counter, because every live run has taken exactly one move per
    iteration since the start — the serial ``hops`` of all live runs
    are equal by construction.

    Returns ``(live, states, discovered)``: the runs the scalar path
    must finish (none once the move guard is spent), every run's state
    tuple, and the ``(n_runs, n+1)`` discovered bitmap.
    """
    graph = cell.graph
    budget = cell.budget
    n_runs = cell.n_runs
    offsets, targets = cell.offsets, cell.slot_targets
    tracing = cell.traces is not None

    current = _np.full(n_runs, cell.start, dtype=_np.int64)
    requests = _np.zeros(n_runs, dtype=_np.int64)
    hops = _np.zeros(n_runs, dtype=_np.int64)
    found = _np.full(n_runs, cell.start_found, dtype=bool)
    restarts = _np.zeros(n_runs, dtype=_np.int64)
    discovered = _np.zeros((n_runs, graph.num_vertices + 1), dtype=bool)
    discovered[:, cell.start] = True
    zone_mask = _np.zeros(graph.num_vertices + 1, dtype=bool)
    zone_mask[list(cell.zone)] = True
    # degrees indexed by vertex, saving one gather+subtract per step.
    degrees = _np.diff(offsets)
    # randrange(n) for n > 0 *is* self._randbelow(n); binding it skips
    # per-draw argument validation without changing a single variate.
    draw = [rng._randbelow for rng in cell.rngs]
    coin = [rng.random for rng in cell.rngs]
    # Live-set views are cached and rebuilt only on departures (the
    # restart variant re-derives the movers each iteration — its coin
    # flips repartition the live set every time).
    idx = _np.array(live, dtype=_np.int64)
    draw_live = [draw[i] for i in live]

    iteration = 0
    while len(live) > _SCALAR_CUTOVER and iteration < max_moves:
        iteration += 1
        if restart_prob is not None:
            movers = []
            for i in live:
                if coin[i]() < restart_prob:
                    # Restart: jump home, count the move, no draw.
                    current[i] = cell.start
                    restarts[i] += 1
                    hops[i] += 1
                else:
                    movers.append(i)
            if not movers:
                continue
            if start_isolated:
                # A non-restart coin at the isolated start is the
                # serial ``break``: leaves without moving.
                departed = set(movers)
                live = [i for i in live if i not in departed]
                continue
            idx = _np.array(movers, dtype=_np.int64)
            draw_live = [draw[i] for i in movers]
        else:
            movers = live

        cur = current[idx]
        deg = degrees[cur]
        draws = _np.fromiter(
            (
                d_i(d)
                for d_i, d in zip(draw_live, deg.tolist())
            ),
            dtype=_np.int64,
            count=len(movers),
        )
        slots = offsets[cur] + draws
        far = targets[slots]
        known = discovered[idx, far]
        current[idx] = far
        hops[idx] += 1
        if not known.all():
            req = ~known
            rows = idx[req]
            answers = far[req]
            requests[rows] += 1
            discovered[rows, answers] = True
            hit = zone_mask[answers]
            if hit.any():
                found[rows[hit]] = True
            if tracing:
                eids = cell.slot_edges[slots[req]]
                for i, u, eid, v in zip(
                    rows.tolist(),
                    cur[req].tolist(),
                    eids.tolist(),
                    answers.tolist(),
                ):
                    cell.traces[i].append(("weak", u, eid, v))
            done = hit | (requests[rows] >= budget)
            if done.any():
                departed = set(rows[done].tolist())
                live = [i for i in live if i not in departed]
                if restart_prob is None:
                    idx = _np.array(live, dtype=_np.int64)
                    draw_live = [draw[i] for i in live]

    states = list(
        zip(
            current.tolist(),
            found.tolist(),
            requests.tolist(),
            hops.tolist(),
            restarts.tolist(),
        )
    )
    return (live if iteration < max_moves else []), states, discovered


# ----------------------------------------------------------------------
# Per-run flat-array kernels: variable-candidate walks
# ----------------------------------------------------------------------


def _self_avoiding_run(
    cell: _Cell,
    run: int,
    discovered: set,
    offsets: Sequence[int],
    slot_targets: Sequence[int],
    max_moves: int,
    v: int,
    found: bool,
    requests: int,
    hops: int,
):
    """Advance one self-avoiding run (see :meth:`_Cell.advance`).

    Returns ``(v, found, requests, hops)`` once the run ends or
    ``hops`` reaches ``max_moves``.
    """
    draw = cell.rngs[run]._randbelow  # == randrange(n) for n > 0
    zone = cell.zone
    budget = cell.budget
    trace = cell.traces[run] if cell.traces is not None else None
    while not found and requests < budget and hops < max_moves:
        lo = offsets[v]
        hi = offsets[v + 1]
        if lo == hi:
            break  # isolated start vertex
        candidates = [
            slot
            for slot in range(lo, hi)
            if slot_targets[slot] not in discovered
        ]
        if candidates:
            slot = candidates[draw(len(candidates))]
            far = slot_targets[slot]
            requests += 1
            discovered.add(far)
            if far in zone:
                found = True
            if trace is not None:
                trace.append(("weak", v, cell.edge_view[slot], far))
        else:
            # All edges resolved: a free move (a self-loop slot
            # targets v itself, matching the serial fallback).
            far = slot_targets[lo + draw(hi - lo)]
        v = far
        hops += 1
    return v, found, requests, hops


def _self_avoiding_kernel(
    cell: _Cell, algorithm: SelfAvoidingWalkSearch
) -> List[SearchResult]:
    """Flat-array self-avoiding walk, one run at a time.

    The unresolved-edge preference is a per-step scan over the current
    vertex's slots; with a discovered set the scan is a pure
    membership test per slot, against the serial path's tuple-key dict
    probe per edge plus the oracle's per-request bookkeeping.  Slot
    order equals edge-tuple order, so candidate index ``k`` picks the
    same edge the serial ``randrange`` picks.
    """
    max_moves = algorithm._MOVES_PER_REQUEST * max(cell.budget, 1)
    found_list = []
    requests_list = []
    hops_list = []
    for run in range(cell.n_runs):
        _, found, requests, hops = cell.advance(
            partial(_self_avoiding_run, cell, run, {cell.start}),
            (cell.start, cell.start_found, 0, 0),
            max_moves,
        )
        found_list.append(found)
        requests_list.append(requests)
        hops_list.append(hops)

    return cell.results(
        algorithm, found_list, requests_list, hops=hops_list
    )


def _degree_biased_kernel(
    cell: _Cell, algorithm: DegreeBiasedWalkSearch
) -> List[SearchResult]:
    """Flat-array :class:`DegreeBiasedWalkSearch`, one run at a time.

    A strong request's answer is a pure function of the graph, so the
    per-vertex answer (sorted unique neighbors), its zone verdict, and
    — for biased variants — the running-sum weight table are computed
    once and shared by every run and step.  The weight table replays
    the serial accumulation exactly: Python-float left-to-right sums,
    so ``bisect_right``'s strict comparisons decide each pick on the
    very doubles the serial linear scan compares against.
    """
    graph = cell.graph
    budget = cell.budget
    beta = algorithm.beta
    max_moves = algorithm._MOVES_PER_REQUEST * max(budget, 1)
    zone = cell.zone

    answer_cache: Dict[int, Tuple[tuple, bool]] = {}
    weight_cache: Dict[int, Tuple[List[float], float]] = {}

    def neighbors_of(v: int) -> Tuple[tuple, bool]:
        cached = answer_cache.get(v)
        if cached is None:
            uniq = graph.unique_neighbors(v)
            cached = (
                tuple(uniq),
                any(w in zone for w in uniq),
            )
            answer_cache[v] = cached
        return cached

    def weights_of(v: int) -> Tuple[List[float], float]:
        cached = weight_cache.get(v)
        if cached is None:
            answer, _ = neighbors_of(v)
            # knowledge.degree(w) of a discovered vertex is its true
            # degree; the serial per-step recomputation is replayed
            # once here, with the identical left-to-right float sums.
            weights = [
                max(graph.degree(w), 1) ** beta for w in answer
            ]
            total = sum(weights)
            running = []
            acc = 0.0
            for weight in weights:
                acc += weight
                running.append(acc)
            cached = (running, total)
            weight_cache[v] = cached
        return cached

    found_list = []
    requests_list = []
    hops_list = []
    for run, rng in enumerate(cell.rngs):
        draw = rng._randbelow
        uniform = rng.random
        trace = cell.traces[run] if cell.traces is not None else None
        requested = set()
        v = cell.start
        found = cell.start_found
        requests = 0
        hops = 0
        while not found and hops < max_moves:
            if v not in requested:
                if requests >= budget:
                    break
                answer, zone_hit = neighbors_of(v)
                requests += 1
                requested.add(v)
                if trace is not None:
                    trace.append(("strong", v, answer))
                if zone_hit:
                    found = True
                    break  # serial: `if oracle.found: break`
            else:
                answer, _ = neighbors_of(v)
            if not answer:
                break  # isolated vertex: nowhere to go
            if beta == 0.0:
                v = answer[draw(len(answer))]
            else:
                running, total = weights_of(v)
                pick = uniform() * total
                k = bisect_right(running, pick)
                if k >= len(answer):
                    k = len(answer) - 1  # serial: neighbors[-1]
                v = answer[k]
            hops += 1
        found_list.append(found)
        requests_list.append(requests)
        hops_list.append(hops)

    return cell.results(
        algorithm, found_list, requests_list, hops=hops_list
    )
