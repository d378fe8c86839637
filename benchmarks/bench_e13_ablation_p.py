"""E13 — Ablation: the attachment mixture p does not rescue
searchability.

Theorem 1 holds for every 0 < p <= 1; this ablation sweeps p (including
the out-of-theorem uniform case p = 0) and checks the fitted search
exponent never dips toward the navigable (poly-log, exponent ~ 0)
regime.
"""

from __future__ import annotations

from bench_utils import record_result

from repro.core import run_experiment

P_VALUES = (0.0, 0.25, 0.5, 0.75, 1.0)


def test_e13_ablation_p(benchmark):
    result = benchmark.pedantic(
        lambda: run_experiment(
            "E13",
            sizes=(200, 400, 800, 1600),
            p_values=P_VALUES,
            num_graphs=4,
            seed=13,
        ),
        rounds=1,
        iterations=1,
    )
    record_result(result)

    for p in P_VALUES:
        exponent = result.derived[f"exponent/p={p:g}"]
        assert exponent > 0.4, f"p={p}: fitted exponent {exponent}"
