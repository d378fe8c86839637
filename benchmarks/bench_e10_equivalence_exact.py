"""E10 — Lemma 2, verified exactly.

Exhaustive enumeration of all recursive trees at n = 8 (5040 trees),
exact Fraction probabilities, and permutation-invariance checks for
several windows and every mixture parameter — the lemma holds with
literal equality, not within tolerance.
"""

from __future__ import annotations

from bench_utils import record_result

from repro.core import run_experiment


def test_e10_equivalence_exact(benchmark):
    result = benchmark.pedantic(
        lambda: run_experiment("E10", n=8, p_values=(0.25, 0.5, 0.75, 1.0)),
        rounds=1,
        iterations=1,
    )
    record_result(result)

    assert result.derived["all_windows_hold"] == 1.0
    # The table carries exact event probabilities; all in (0, 1].
    table = result.tables[0]
    p_index = list(table.columns).index("P(E) exact")
    holds_index = list(table.columns).index("lemma2 holds")
    for row in table.rows:
        assert 0.0 < row[p_index] <= 1.0
        assert row[holds_index] == "True"
