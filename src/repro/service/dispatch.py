"""Query coalescing and answer caching for the search daemon.

Per-query dispatch pays one pool round-trip — one pickle, one IPC
hop, one serially executed cell — per HTTP request.  This module
amortizes that cost two ways:

* :class:`BatchDispatcher` — HTTP threads enqueue validated queries
  into a per-graph coalescing queue and block on a future; a single
  dispatcher thread drains the queues every *batch window* (or as soon
  as any queue reaches *batch max*) and submits each graph's batch as
  **one** worker call, holding each graph to one in-flight batch so a
  backlog coalesces in the queue instead of fragmenting into the
  pool's internal backlog.  The worker answers the whole batch through
  ``_execute_cells`` on its already-attached shared-memory snapshot —
  with the ensemble engine, the batch's same-``(algorithm, start,
  target)`` cells advance in one lock-step kernel call — then the
  dispatcher fans the per-query answers back to the waiting threads.
  Queries regroup freely because every cell's RNG substream depends
  only on ``(graph seed, algorithm, run_index)``: coalesced answers
  are bit-identical to per-query answers by the same contract that
  pins the batch path.

* :class:`AnswerCache` — served answers are replay-addressable cells
  (same determinism contract), so a repeated query is a dictionary
  lookup, not a pool trip.  A bounded LRU over ``(graph, algorithm,
  run_index, start, target)`` keys, with hit/miss accounting delegated
  to :class:`~repro.service.stats.ServiceStats`.

Load shedding is the dispatcher's third job: the pending-query pool is
bounded, and a submit over the bound raises a 429-carrying
:class:`~repro.service.core.QueryError` immediately instead of letting
HTTP threads pile up behind a queue that cannot drain in time.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from concurrent.futures import Future
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.service.core import QueryError
from repro.service.stats import ServiceStats

__all__ = ["AnswerCache", "BatchDispatcher"]


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


class _Pending:
    """One enqueued query: its cell and the future its thread awaits."""

    __slots__ = ("cell", "future")

    def __init__(self, cell: Dict[str, Any]):
        self.cell = cell
        self.future: "Future[Dict[str, Any]]" = Future()


class BatchDispatcher:
    """Per-graph query coalescing onto single worker calls.

    Parameters
    ----------
    submit_batch:
        ``submit_batch(graph_id, cells) -> Future`` returning the list
        of answer dicts in cell order.  Raising
        :class:`~repro.service.core.QueryError` fails just the batch
        being dispatched.  Any exception the returned future resolves
        to likewise fails only that batch's queries.
    window:
        Coalescing window in **seconds**, measured from the moment the
        dispatcher sees a query while idle.  Longer windows build
        bigger batches (better amortization) at the cost of adding up
        to ``window`` to every miss-path p50.
    batch_max:
        Flush a graph's queue immediately once it holds this many
        queries — the window is a deadline, not a mandatory delay.
    max_pending:
        Bound on queries enqueued-but-not-dispatched across all
        graphs; beyond it :meth:`submit` sheds with a 429.
    inflight_per_graph:
        Batches a single graph may have executing at once (default
        1).  This is the backpressure that makes coalescing work
        under load: while a graph's batch runs, new queries for it
        keep accumulating in its queue instead of trickling into the
        pool's internal backlog as window-sized fragments — the queue
        drains in ``batch_max`` chunks exactly as fast as the workers
        actually finish.
    stats:
        Batch-size distribution and failure accounting sink.
    on_batch_error:
        Called with the exception when a dispatched batch future
        fails (the daemon uses it to respawn a broken pool).
    """

    def __init__(
        self,
        submit_batch: Callable[[str, List[Dict[str, Any]]], Any],
        *,
        window: float = 0.005,
        batch_max: int = 64,
        max_pending: int = 1024,
        inflight_per_graph: int = 1,
        stats: Optional[ServiceStats] = None,
        on_batch_error: Optional[Callable[[BaseException], None]] = None,
    ):
        if batch_max < 1:
            raise ValueError(f"batch_max must be >= 1, got {batch_max}")
        if max_pending < 1:
            raise ValueError(
                f"max_pending must be >= 1, got {max_pending}"
            )
        if inflight_per_graph < 1:
            raise ValueError(
                "inflight_per_graph must be >= 1, got "
                f"{inflight_per_graph}"
            )
        self._submit_batch = submit_batch
        self._window = max(0.0, window)
        self._batch_max = batch_max
        self._max_pending = max_pending
        self._inflight = inflight_per_graph
        self._stats = stats
        self._on_batch_error = on_batch_error
        self._cond = threading.Condition()
        self._queues: Dict[str, List[_Pending]] = {}
        self._busy: Dict[str, int] = {}
        self._total = 0
        self._closed = False
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-dispatch", daemon=True
        )
        self._thread.start()

    # -- HTTP-thread side ----------------------------------------------

    @property
    def pending(self) -> int:
        return self._total

    def submit(
        self, graph_id: str, cell: Dict[str, Any]
    ) -> "Future[Dict[str, Any]]":
        """Enqueue one validated query; returns the answer future.

        Raises ``QueryError(503)`` after :meth:`close` and
        ``QueryError(429)`` when the pending bound is hit.
        """
        item = _Pending(cell)
        with self._cond:
            if self._closed:
                raise QueryError(503, "service is shutting down")
            if self._total >= self._max_pending:
                if self._stats is not None:
                    self._stats.record_shed()
                raise QueryError(
                    429,
                    f"dispatch queue full ({self._total} pending); "
                    "retry later",
                    queue_depth=self._total,
                )
            self._queues.setdefault(graph_id, []).append(item)
            self._total += 1
            self._cond.notify_all()
        return item.future

    def close(self) -> None:
        """Stop dispatching; fail every still-queued query with 503.

        Idempotent.  Batches already handed to ``submit_batch`` keep
        running — their futures resolve whenever the pool finishes.
        """
        with self._cond:
            if self._closed:
                return
            self._closed = True
            drained = [
                item
                for queue in self._queues.values()
                for item in queue
            ]
            self._queues.clear()
            self._total = 0
            self._cond.notify_all()
        error = QueryError(503, "service is shutting down")
        for item in drained:
            if not item.future.done():
                item.future.set_exception(error)
        self._thread.join(timeout=5)

    # -- dispatcher thread ---------------------------------------------

    def _eligible(self, graph_id: str) -> bool:
        """May ``graph_id`` dispatch another batch right now?"""
        return self._busy.get(graph_id, 0) < self._inflight

    def _dispatchable(self) -> bool:
        return any(
            queue and self._eligible(graph_id)
            for graph_id, queue in self._queues.items()
        )

    def _flush_ready(self) -> bool:
        """An eligible queue already holds a full batch."""
        return any(
            len(queue) >= self._batch_max and self._eligible(graph_id)
            for graph_id, queue in self._queues.items()
        )

    def _run(self) -> None:
        while True:
            with self._cond:
                # Idle until some graph has queued queries AND head-
                # room to execute them; a graph whose batch is still
                # running keeps accumulating (that backpressure is
                # what builds real batches under sustained load).
                while not self._closed and not self._dispatchable():
                    self._cond.wait()
                if self._closed:
                    return
                # The window opens when dispatchable work appears;
                # a full eligible batch cuts it short.
                deadline = time.monotonic() + self._window
                while (
                    not self._closed
                    and self._dispatchable()
                    and not self._flush_ready()
                ):
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    self._cond.wait(remaining)
                if self._closed:
                    return
                batches = []
                for graph_id, queue in list(self._queues.items()):
                    if not self._eligible(graph_id):
                        continue
                    take = queue[: self._batch_max]
                    rest = queue[self._batch_max:]
                    if rest:
                        self._queues[graph_id] = rest
                    else:
                        del self._queues[graph_id]
                    self._total -= len(take)
                    # Claim each item; a cancelled one (its query
                    # timed out while queued) never reaches a worker,
                    # and an all-cancelled group takes no busy slot.
                    take = [
                        item for item in take
                        if item.future.set_running_or_notify_cancel()
                    ]
                    if take:
                        self._busy[graph_id] = (
                            self._busy.get(graph_id, 0) + 1
                        )
                        batches.append((graph_id, take))
            for graph_id, group in batches:
                self._dispatch(graph_id, group)

    def _dispatch(self, graph_id: str, group: List[_Pending]) -> None:
        if self._stats is not None:
            self._stats.record_batch(len(group))
        cells = [item.cell for item in group]
        try:
            batch_future = self._submit_batch(graph_id, cells)
        except BaseException as error:  # noqa: BLE001 - fanned out
            self._release(graph_id)
            self._fail_group(group, error)
            return
        batch_future.add_done_callback(
            lambda done, group=group: self._finish(
                graph_id, group, done
            )
        )

    def _release(self, graph_id: str) -> None:
        """One of ``graph_id``'s batches finished; wake the drain."""
        with self._cond:
            count = self._busy.get(graph_id, 0) - 1
            if count > 0:
                self._busy[graph_id] = count
            else:
                self._busy.pop(graph_id, None)
            self._cond.notify_all()

    def _finish(self, graph_id: str, group: List[_Pending], done) -> None:
        self._release(graph_id)
        self._fan_out(group, done)

    def _fan_out(self, group: List[_Pending], done) -> None:
        try:
            values = done.result()
        except BaseException as error:  # noqa: BLE001 - fanned out
            self._fail_group(group, error)
            return
        for item, value in zip(group, values):
            if not item.future.done():
                item.future.set_result(value)

    def _fail_group(
        self, group: List[_Pending], error: BaseException
    ) -> None:
        """One batch failed: fail exactly its queries, nothing else."""
        if self._stats is not None:
            self._stats.record_batch_failure()
        if self._on_batch_error is not None:
            try:
                self._on_batch_error(error)
            except Exception:  # pragma: no cover - advisory hook
                pass
        if isinstance(error, QueryError):
            failure = error
        else:
            failure = QueryError(
                503,
                "batch execution failed: "
                f"{type(error).__name__}: {error}",
            )
        for item in group:
            if not item.future.done():
                item.future.set_exception(failure)
