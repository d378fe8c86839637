"""Parallel trial execution with a persistent result store.

The runner is the scaling seam of the reproduction: experiments express
their Monte-Carlo grids as lists of pure :class:`TrialSpec` units,
:func:`run_trials` executes them serially or across worker processes
(bit-identically, thanks to substream-derived per-trial seeds), and a
:class:`TrialStore` (one WAL-mode SQLite database per cache
directory) replays completed cells across invocations, refusing
entries whose code fingerprint does not match.
:func:`trajectory_specs` / :func:`split_trajectory_values` pack a whole
size grid into one spec per realisation, so one evolved graph serves
every checkpoint (see :mod:`repro.runner.batching`).
"""

from repro.runner.batching import (
    split_trajectory_values,
    trajectory_specs,
)
from repro.runner.executor import run_trials
from repro.runner.store import (
    MISS,
    RECORD_FORMAT,
    TrialStore,
    record_fingerprint,
    reset_store_stats,
    store_for,
    store_stats,
)
from repro.runner.trial import (
    TrialExecutionError,
    TrialResult,
    TrialSpec,
    params_hash,
    resolve_trial,
    trial_ref,
)

__all__ = [
    "MISS",
    "RECORD_FORMAT",
    "TrialExecutionError",
    "TrialResult",
    "TrialSpec",
    "TrialStore",
    "params_hash",
    "record_fingerprint",
    "reset_store_stats",
    "resolve_trial",
    "run_trials",
    "split_trajectory_values",
    "store_for",
    "store_stats",
    "trajectory_specs",
    "trial_ref",
]
