"""E12 — Percolation search with replication (Sarshar et al. [SBR04]).

The paper cites this as the P2P workaround for non-searchability:
replicate contents along short random walks, then answer queries with a
probabilistic (bond-percolation) broadcast.  The regenerated table
sweeps the replication factor; the shape claims are that hit rate rises
with replication while the message cost stays a sublinear-ish fraction
of flooding the whole graph.
"""

from __future__ import annotations

from bench_utils import record_result

from repro.core import run_experiment

REPLICAS = (0, 4, 16, 64)


def test_e12_percolation(benchmark):
    result = benchmark.pedantic(
        lambda: run_experiment(
            "E12",
            n=4000,
            exponent=2.3,
            replica_counts=REPLICAS,
            broadcast_probability=0.25,
            num_queries=30,
            seed=12,
        ),
        rounds=1,
        iterations=1,
    )
    record_result(result)

    hit_rates = [
        result.derived[f"hit_rate/replicas={r}"] for r in REPLICAS
    ]
    # Replication helps: the heaviest replication beats none.
    assert hit_rates[-1] > hit_rates[0]
    assert hit_rates[-1] >= 0.5
    # The broadcast touches well under the full edge set.
    for r in REPLICAS:
        assert result.derived[f"messages_per_n/replicas={r}"] < 1.0
