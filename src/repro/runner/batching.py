"""Trajectory scheduling: one spec carries a whole size grid.

The runner's unit of dispatch is the :class:`~repro.runner.trial.TrialSpec`.
A trajectory trial evolves one realisation to the largest grid size and
serves every size from a checkpoint snapshot, so
:func:`trajectory_specs` packs the whole checkpoint grid into one spec
per realisation seed, and :func:`split_trajectory_values` re-fans the
string-size-keyed values it returns into per-size, per-graph streams.
Between them runs the ordinary :func:`~repro.runner.executor.run_trials`
(so ``jobs`` fan-out and the result store apply unchanged).
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Sequence

from repro.errors import ExperimentError
from repro.runner.trial import TrialResult, TrialSpec

__all__ = [
    "split_trajectory_values",
    "trajectory_specs",
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
        ...).
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

