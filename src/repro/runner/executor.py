"""The trial executor: serial and multi-process backends.

:func:`run_trials` dispatches a list of :class:`TrialSpec` and returns
their :class:`TrialResult` in *spec order*, regardless of backend or
completion order.  Because every trial is a pure function of its spec
(the seed is derived upstream with :mod:`repro.rng` substreams, never
drawn from shared state), ``jobs=8`` output is bit-identical to
``jobs=1`` — the scheduler affects wall-clock time only.

With a :class:`~repro.runner.store.TrialStore`, completed cells are
replayed from disk (one batched ``get_many`` scan, so the backend can
amortize lookup cost) and only the misses are dispatched; fresh values
are written back **as they complete**, not after the whole batch: when
a later trial raises, everything that already finished is on disk, so
the re-run after a fix replays those cells instead of recomputing them.

Failure reporting carries the failing spec even when a worker process
dies outright (OOM-kill, segfault): the pool cannot say which task its
dead worker was running, so every in-flight suspect is re-executed
alone in a fresh single-worker pool — the one that kills its worker
again is the culprit, and suspects that complete during the probe are
written back like any other finished trial.

Submission is windowed: at most ``max_inflight`` specs (default
``4 * workers``) are queued in the executor at once, so a 10^5-trial
batch does not hold every pickled spec in memory up front.  Results
are placed by spec index, so the window size — like the worker count —
never changes any value.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import (
    FIRST_COMPLETED,
    CancelledError,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.errors import ExperimentError
from repro.runner.store import MISS, TrialStore
from repro.runner.trial import (
    TrialExecutionError,
    TrialResult,
    TrialSpec,
)

__all__ = ["POOL_START_METHOD", "process_pool", "run_trials"]

#: The start method of every process pool in ``repro`` (the trial
#: executor's pools and the serving daemon's), pinned rather than left
#: to the interpreter: CPython 3.14 makes ``forkserver`` the Linux
#: default.  Measured for a 2-worker pool with ``repro.service.core``
#: imported (2 vCPUs, Python 3.11): the summed PSS of the parent and
#: its children is 44 MB under ``fork`` and 95 MB under ``forkserver``
#: (the fork server and the resource tracker each hold their own
#: imports), and the pool starts in 10-14 ms against 0.49-0.51 s.  Only
#: ``fork`` workers also inherit the parent's module state, so a patch
#: made before the pool starts (the tests' ``reference_arms``) reaches
#: them.
POOL_START_METHOD = "fork"

#: Submission window per worker: enough in-flight specs to keep every
#: worker busy across completions without queuing the entire batch
#: (pickled graphs included) in executor memory up front.
_INFLIGHT_PER_WORKER = 4


def process_pool(max_workers: int, **options: Any) -> ProcessPoolExecutor:
    """A :class:`ProcessPoolExecutor` on :data:`POOL_START_METHOD`."""
    return ProcessPoolExecutor(
        max_workers=max_workers,
        mp_context=multiprocessing.get_context(POOL_START_METHOD),
        **options,
    )


def _execute_spec(spec: TrialSpec) -> Any:
    """Top-level worker entry point (must be picklable)."""
    return spec.execute()


def run_trials(
    specs: Sequence[TrialSpec],
    jobs: int = 1,
    store: Optional[TrialStore] = None,
    *,
    initializer: Optional[Callable[..., None]] = None,
    initargs: Tuple[Any, ...] = (),
    max_inflight: Optional[int] = None,
) -> List[TrialResult]:
    """Execute ``specs`` and return results in spec order.

    Parameters
    ----------
    specs:
        The trials to run.
    jobs:
        Worker processes.  ``1`` runs everything in-process; ``>1``
        fans misses out over a :class:`ProcessPoolExecutor`.
    store:
        Optional persistent cache; hits skip execution entirely and
        fresh values are written back as they complete (so a failure
        later in the batch never discards finished work).
    initializer / initargs:
        Optional per-worker setup hook, forwarded to the process pool
        (the shared-memory graph path uses it to attach published CSR
        segments once per worker instead of pickling a graph into
        every spec).  The serial path calls it once in-process so
        trials see the same environment at any ``jobs`` value.
    max_inflight:
        Cap on specs queued in the executor at once (default
        ``4 * workers``).  A scheduling knob only: results are placed
        by spec index, so any window produces bit-identical output.

    Raises
    ------
    TrialExecutionError
        If any trial raises; the failing :class:`TrialSpec` is attached
        as ``error.spec``.  When a worker process dies outright the
        culprit is identified by isolated re-execution of the in-flight
        suspects.
    """
    if jobs < 1:
        raise ExperimentError(f"jobs must be >= 1, got {jobs}")
    if max_inflight is not None and max_inflight < 1:
        raise ExperimentError(
            f"max_inflight must be >= 1, got {max_inflight}"
        )

    results: List[Optional[TrialResult]] = [None] * len(specs)
    pending: List[int] = []
    cached_values = (
        store.get_many(specs) if store is not None
        else [MISS] * len(specs)
    )
    for index, (spec, cached) in enumerate(zip(specs, cached_values)):
        if cached is not MISS:
            results[index] = TrialResult(
                spec=spec, value=cached, from_cache=True
            )
        else:
            pending.append(index)

    if pending:

        def complete(index: int, value: Any) -> None:
            # Write-back happens here, per completion — never deferred
            # to the end of the batch, so a later failure cannot
            # discard work that already finished.
            spec = specs[index]
            if store is not None:
                store.put(spec, value)
            results[index] = TrialResult(
                spec=spec, value=value, from_cache=False
            )

        if jobs == 1 or len(pending) == 1:
            _run_serial(specs, pending, complete, initializer, initargs)
        else:
            _run_pool(
                specs,
                pending,
                jobs,
                complete,
                initializer=initializer,
                initargs=initargs,
                max_inflight=max_inflight,
            )

    return [result for result in results if result is not None]


def _run_serial(
    specs: Sequence[TrialSpec],
    pending: Sequence[int],
    complete: Callable[[int, Any], None],
    initializer: Optional[Callable[..., None]] = None,
    initargs: Tuple[Any, ...] = (),
) -> None:
    if initializer is not None:
        initializer(*initargs)
    for index in pending:
        spec = specs[index]
        try:
            value = _execute_spec(spec)
        except TrialExecutionError:
            raise
        except Exception as error:
            raise TrialExecutionError(spec, error) from error
        complete(index, value)


def _run_pool(
    specs: Sequence[TrialSpec],
    pending: Sequence[int],
    jobs: int,
    complete: Callable[[int, Any], None],
    *,
    initializer: Optional[Callable[..., None]] = None,
    initargs: Tuple[Any, ...] = (),
    max_inflight: Optional[int] = None,
) -> None:
    max_workers = min(jobs, len(pending))
    window = max_inflight or _INFLIGHT_PER_WORKER * max_workers
    queue = iter(pending)
    failure: Optional[Tuple[int, BaseException]] = None
    with process_pool(
        max_workers, initializer=initializer, initargs=initargs
    ) as pool:
        in_flight = {}  # future -> spec index

        def submit_next() -> bool:
            for index in queue:
                try:
                    future = pool.submit(_execute_spec, specs[index])
                except BrokenProcessPool as error:
                    # A worker died in the instant between a
                    # completion and this submit; fold the would-be
                    # submission into the suspect probe (harmless for
                    # it — the probe completes innocents).
                    suspects = sorted(
                        [index] + list(in_flight.values())
                    )
                    in_flight.clear()
                    _raise_broken_pool(
                        specs, suspects, complete, error,
                        initializer, initargs,
                    )
                in_flight[future] = index
                return True
            return False

        while len(in_flight) < window and submit_next():
            pass

        while in_flight:
            done, _ = wait(
                list(in_flight), return_when=FIRST_COMPLETED
            )
            broken: Optional[BaseException] = None
            broken_indices: List[int] = []
            for future in done:
                index = in_flight.pop(future)
                try:
                    value = future.result()
                except CancelledError:
                    continue  # cancelled after an earlier failure
                except BrokenProcessPool as error:
                    broken = error
                    broken_indices.append(index)
                except Exception as error:
                    if failure is None:
                        failure = (index, error)
                        # Unstarted futures are dropped; running ones
                        # are harvested below so their values are not
                        # lost.
                        for other in in_flight:
                            other.cancel()
                else:
                    complete(index, value)
                    if failure is None and broken is None:
                        submit_next()
            if broken is not None:
                # Every in-flight future is poisoned by the dead
                # worker; the survivors' indices join the suspect
                # list and the probe below finds the real culprit.
                suspects = sorted(
                    broken_indices + list(in_flight.values())
                )
                in_flight.clear()
                pool.shutdown(wait=False)
                _raise_broken_pool(
                    specs, suspects, complete, broken,
                    initializer, initargs,
                )
    if failure is not None:
        index, error = failure
        raise TrialExecutionError(specs[index], error) from error


def _raise_broken_pool(
    specs: Sequence[TrialSpec],
    suspects: Sequence[int],
    complete: Callable[[int, Any], None],
    error: BaseException,
    initializer: Optional[Callable[..., None]],
    initargs: Tuple[Any, ...],
) -> None:
    """Identify which in-flight spec killed its worker, then raise.

    A dead worker poisons every queued future with the same bare
    :class:`BrokenProcessPool`, so the executor alone cannot attribute
    the death (completion order need not match submit order, and the
    first poisoned future is usually an innocent bystander).  Trials
    are pure, so each suspect is re-executed alone in a fresh
    single-worker pool: the one that breaks its pool again is the
    culprit; suspects that complete are written back like any other
    finished trial, so the post-fix re-run replays them from the
    store.
    """
    for index in suspects:
        spec = specs[index]
        with process_pool(
            1, initializer=initializer, initargs=initargs
        ) as probe:
            future = probe.submit(_execute_spec, spec)
            try:
                value = future.result()
            except BrokenProcessPool:
                raise TrialExecutionError(
                    spec,
                    error,
                    note=(
                        "the worker process died while executing "
                        "this trial (confirmed by isolated "
                        "re-execution)"
                    ),
                ) from error
            except Exception as cause:
                # The retry surfaced an ordinary failure the broken
                # pool swallowed; report it with exact attribution.
                raise TrialExecutionError(spec, cause) from cause
            complete(index, value)
    # No suspect reproduced the crash — a transient death (e.g. the
    # OS OOM-killer under momentary pressure).  All suspects were
    # completed and written back above; attribute the death to the
    # earliest one so the caller still gets a spec to look at.
    raise TrialExecutionError(
        specs[suspects[0]],
        error,
        note=(
            "a worker process died, but no in-flight trial "
            "reproduced the crash in isolation; all in-flight "
            "trials were completed by the probe and written back"
        ),
    ) from error
