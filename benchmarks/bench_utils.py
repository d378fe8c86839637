"""Shared helpers for the benchmark harness.

Every benchmark regenerates one experiment (a "table/figure" of the
reproduction — see the README's "How to reproduce each table?"
index) through :func:`repro.core.run_experiment`, records the result
under ``benchmarks/results/`` (JSON for machines, text for humans),
prints it (visible with ``pytest -s``), and asserts the *shape* claims
the paper makes — who wins, which exponents clear which floors — never
absolute numbers.

Runner-dispatched benchmarks (E1, E2, E3, E6, E17, E20) honour two
environment variables so BENCH numbers can exercise the parallel and
cached paths without editing code::

    REPRO_BENCH_JOBS=8 pytest -s benchmarks/bench_e1_mori_weak.py
    REPRO_BENCH_CACHE_DIR=.repro-cache pytest -s benchmarks/...

Neither changes a single published number: trial seeds are substream
functions of the experiment seed, so the parallel path is bit-identical
to serial, and the cache only replays values it previously computed.
"""

from __future__ import annotations

import os

from repro.core.results import ExperimentResult, save_result

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def runner_kwargs() -> dict:
    """``jobs``/``cache_dir`` overrides from the environment.

    Returns an empty dict when neither variable is set, so the
    experiment runs at its registered ``jobs``/``cache_dir`` defaults.
    """
    kwargs = {}
    jobs = int(os.environ.get("REPRO_BENCH_JOBS", "1"))
    if jobs != 1:
        kwargs["jobs"] = jobs
    cache_dir = os.environ.get("REPRO_BENCH_CACHE_DIR")
    if cache_dir:
        kwargs["cache_dir"] = cache_dir
    return kwargs


def record_result(result: ExperimentResult) -> ExperimentResult:
    """Persist and print an experiment result; returns it for chaining."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    stem = os.path.join(RESULTS_DIR, result.experiment_id.lower())
    save_result(result, stem + ".json")
    text = result.format()
    with open(stem + ".txt", "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
    print()
    print(text)
    return result
