"""E16 — Neighbor-degree dependence: evolving vs pure random graphs.

The paper's structural distinction ("Related works"): in pure random
graphs neighbor degrees are independent; in evolving models degree and
age correlate — the reason mean-field analyses mislead there.  The
age-degree correlation is the fingerprint: strongly negative for every
evolving model, ~0 for the configuration model.
"""

from __future__ import annotations

from bench_utils import record_result

from repro.core import run_experiment

EVOLVING = ("mori(p=0.5, m=2)", "cooper-frieze(a=0.75)", "ba(m=2)")


def test_e16_neighbor_dependence(benchmark):
    result = benchmark.pedantic(
        lambda: run_experiment("E16", n=10000, seed=16),
        rounds=1,
        iterations=1,
    )
    record_result(result)

    for name in EVOLVING:
        assert result.derived[f"age_corr/{name}"] < -0.15, name
    assert abs(result.derived["age_corr/config(k=2.5)"]) < 0.05
