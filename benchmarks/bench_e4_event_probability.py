"""E4 — Lemma 3: P(E_{a,b}) >= e^{-(1-p)} at b = a + ⌊√(a-1)⌋.

Regenerates the event-probability table: the exact closed-form product,
a Monte-Carlo cross-check from the actual tree sampler, and the paper's
bound, over a (p, a) grid.  The shape claims: the bound is never
violated, the exact and sampled values agree, and P(E) increases in p.
"""

from __future__ import annotations

from bench_utils import record_result

from repro.core import run_experiment


def test_e4_event_probability(benchmark):
    result = benchmark.pedantic(
        lambda: run_experiment(
            "E4",
            a_values=(10, 50, 100, 400, 1000),
            p_values=(0.1, 0.25, 0.5, 0.75, 1.0),
            num_samples=2000,
            seed=4,
        ),
        rounds=1,
        iterations=1,
    )
    record_result(result)

    # Lemma 3 is a theorem about the exact quantity: zero tolerance.
    assert result.derived["min_margin_exact_minus_bound"] >= 0

    # Monte Carlo tracks the exact value on every row.
    table = result.tables[0]
    columns = list(table.columns)
    exact_index = columns.index("exact P(E)")
    mc_index = columns.index("monte-carlo P(E)")
    for row in table.rows:
        assert abs(row[exact_index] - row[mc_index]) < 0.05, row
