"""Batched per-graph scheduling: many cells, one trial, one snapshot.

The runner's unit of dispatch is the :class:`~repro.runner.trial.TrialSpec`
— but the natural unit of *work* in the search experiments is finer: a
single (algorithm, start, target, seed) **cell**.  Scheduling one spec
per cell would regenerate the graph realisation for every cell; these
helpers instead pack a whole cell list into each spec (one per graph
seed) so the trial function builds the topology once, snapshots it, and
serves every cell from the snapshot — the batched layout
:func:`repro.core.trials.batched_search_trial` executes.  The optional
``engine`` axis rides along the same way: under the ensemble engine
(the default whenever numpy imports) the trial advances each
walk-family cell group through the lock-step numpy kernel
(:mod:`repro.search.ensemble`), bit-identically to serial.

The helpers are trial-agnostic: any pure trial whose parameters carry a
list of cells and whose value is the same-length list of per-cell
results fits.  :func:`batched_specs` packs, :func:`unbatch_values`
unpacks and validates; between them runs the ordinary
:func:`~repro.runner.executor.run_trials` (so ``jobs`` fan-out and the
result store apply to batches unchanged).

:func:`trajectory_specs` / :func:`split_trajectory_values` do the same
for the *size* axis: a trajectory trial carries the whole checkpoint
grid in one spec (one per realisation seed) and returns a
string-size-keyed dict of per-checkpoint values, which the splitter
re-fans into per-size, per-graph streams.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.errors import ExperimentError
from repro.runner.trial import TrialResult, TrialSpec

__all__ = [
    "batched_specs",
    "split_trajectory_values",
    "trajectory_specs",
    "unbatch_values",
]


def batched_specs(
    experiment_id: str,
    trial: str,
    base_params: Mapping[str, Any],
    cells: Sequence[Mapping[str, Any]],
    graph_seeds: Sequence[int],
    cells_key: str = "cells",
    engine: Optional[str] = None,
) -> List[TrialSpec]:
    """One :class:`TrialSpec` per graph seed, each carrying every cell.

    Parameters
    ----------
    experiment_id, trial:
        As on :class:`TrialSpec` (``trial`` is a ``module:qualname``
        reference, e.g. from :func:`~repro.runner.trial.trial_ref`).
    base_params:
        Per-graph parameters shared by all cells (family spec, size,
        portfolio, backend, ...).
    cells:
        The per-search cells; stored under ``cells_key`` in every
        spec's params, so they hash into the cache key.
    graph_seeds:
        One spec is emitted per seed, in order — callers derive these
        with :func:`repro.rng.substream` exactly as for unbatched specs.
    engine:
        Cell execution strategy forwarded to the trial (see
        :data:`repro.core.trials.ENGINES`).  The default ``None`` lets
        the trial pick the fastest available engine and stays out of
        the params, so default specs keep their earlier cache keys;
        values are engine-independent, and only an explicit engine
        (``"serial"`` included) enters the params and gets its own
        cache entries.
    """
    if not cells:
        raise ExperimentError("batched specs need at least one cell")
    params: Dict[str, Any] = dict(base_params)
    if engine is not None:
        params["engine"] = engine
    params[cells_key] = [dict(cell) for cell in cells]
    return [
        TrialSpec(
            experiment_id=experiment_id,
            trial=trial,
            params=params,
            seed=graph_seed,
        )
        for graph_seed in graph_seeds
    ]


def trajectory_specs(
    experiment_id: str,
    trial: str,
    base_params: Mapping[str, Any],
    sizes: Sequence[int],
    graph_seeds: Sequence[int],
    sizes_key: str = "sizes",
) -> List[TrialSpec]:
    """One :class:`TrialSpec` per trajectory seed, each carrying the grid.

    Parameters
    ----------
    experiment_id, trial:
        As on :class:`TrialSpec` (``trial`` is a trajectory trial whose
        value is a ``str(size) -> cell value`` dict).
    base_params:
        Parameters shared by every checkpoint (family spec, portfolio,
        backend, ...).
    sizes:
        The checkpoint grid; stored sorted and de-duplicated under
        ``sizes_key`` so it hashes into the cache key canonically.
    graph_seeds:
        One spec is emitted per seed, in order — each seed names one
        coupled realisation whose checkpoints serve every size.
    """
    ordered = sorted(set(sizes))
    if not ordered:
        raise ExperimentError(
            "trajectory specs need at least one checkpoint size"
        )
    params: Dict[str, Any] = dict(base_params)
    params[sizes_key] = ordered
    return [
        TrialSpec(
            experiment_id=experiment_id,
            trial=trial,
            params=params,
            seed=graph_seed,
        )
        for graph_seed in graph_seeds
    ]


def split_trajectory_values(
    outcomes: Sequence[TrialResult],
    sizes: Sequence[int],
) -> Dict[int, List[Any]]:
    """Per-size lists of per-graph values from trajectory outcomes.

    Validates the trajectory-trial contract — each outcome's value is a
    dict with a ``str(size)`` entry for every grid size (string keys
    survive the JSON result store) — and returns ``size -> [value per
    graph, in outcome order]``.
    """
    ordered = sorted(set(sizes))
    split: Dict[int, List[Any]] = {size: [] for size in ordered}
    for outcome in outcomes:
        value = outcome.value
        if not isinstance(value, dict):
            raise ExperimentError(
                f"trajectory trial {outcome.spec.trial} returned "
                f"{type(value).__name__}; expected a dict keyed by "
                "str(size)"
            )
        for size in ordered:
            key = str(size)
            if key not in value:
                raise ExperimentError(
                    f"trajectory trial {outcome.spec.trial} value is "
                    f"missing checkpoint {key!r} (has "
                    f"{sorted(value)})"
                )
            split[size].append(value[key])
    return split


def unbatch_values(
    outcomes: Sequence[TrialResult],
    num_cells: int,
) -> List[List[Any]]:
    """Per-graph cell-value lists from batched trial outcomes.

    Validates the batched-trial contract — each outcome's value is a
    list with exactly one entry per cell — and returns the values in
    (graph, cell) order.  Flatten for a cell-major stream.
    """
    values: List[List[Any]] = []
    for outcome in outcomes:
        value = outcome.value
        if not isinstance(value, list) or len(value) != num_cells:
            raise ExperimentError(
                f"batched trial {outcome.spec.trial} returned "
                f"{type(value).__name__} of length "
                f"{len(value) if isinstance(value, list) else 'n/a'}; "
                f"expected a list of {num_cells} cell values"
            )
        values.append(value)
    return values
