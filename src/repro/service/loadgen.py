"""Load-generator CLI: hammer a running daemon, print the numbers.

Usage::

    python -m repro.service.loadgen --port 8642 \
        --queries 200 --clients 4 [--algorithm random-walk] \
        [--arrival open:150] [--duration 10]

Discovers the served catalog via ``GET /graphs``, builds a
deterministic round-robin query stream over (graph, algorithm,
run_index), runs it through :func:`repro.service.client.run_load`,
and prints one JSON summary line (p50/p90/p99 latency, sustained qps)
to stdout — the shape the bench artifacts embed.

``--arrival open:<qps>`` switches from the default closed loop to an
open-loop schedule (query *i* due at ``i/qps`` seconds — the mode
that exposes queueing delay, because a closed loop never builds a
queue); ``--duration <s>`` runs for a wall-clock budget,
cycling the query list, instead of a fixed count.  Percentiles come
from the same histogram code as the daemon's ``/stats`` route.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional

from repro.service.client import ServiceClient, run_load
from repro.service.core import MAX_RUN_INDEX, portfolio_algorithms

__all__ = ["build_queries", "main", "parse_arrival"]


def parse_arrival(text: Optional[str]) -> Optional[float]:
    """``"open:<qps>"`` -> qps; ``None``/``"closed"`` -> None."""
    if text is None or text == "closed":
        return None
    if text.startswith("open:"):
        try:
            qps = float(text[len("open:"):])
        except ValueError:
            qps = 0.0
        if qps > 0:
            return qps
    raise SystemExit(
        f"error: --arrival must be 'closed' or 'open:<qps>' "
        f"with qps > 0, got {text!r}"
    )


def build_queries(
    graphs: List[Dict[str, Any]],
    algorithms: List[str],
    count: int,
) -> List[Dict[str, Any]]:
    """A deterministic round-robin stream over the served catalog."""
    queries = []
    for index in range(count):
        graph = graphs[index % len(graphs)]
        algorithm = algorithms[index % len(algorithms)]
        queries.append({
            "graph": graph["id"],
            "algorithm": algorithm,
            "run_index": (
                index // (len(graphs) * len(algorithms))
            ) % (MAX_RUN_INDEX + 1),
        })
    return queries


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.loadgen",
        description="generate query load against a repro serve daemon",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument(
        "--queries", type=int, default=100,
        help="total queries to issue (default 100)",
    )
    parser.add_argument(
        "--clients", type=int, default=4,
        help="concurrent client connections (default 4)",
    )
    parser.add_argument(
        "--portfolio", default="adamic",
        help="portfolio whose algorithms to cycle (default adamic)",
    )
    parser.add_argument(
        "--algorithm", action="append", default=None,
        help="restrict to specific algorithm(s); repeatable",
    )
    parser.add_argument(
        "--arrival", default=None,
        help="'closed' (default) or 'open:<qps>' open-loop schedule",
    )
    parser.add_argument(
        "--duration", type=float, default=None,
        help="run for this many seconds, cycling the query list, "
        "instead of a fixed count",
    )
    args = parser.parse_args(argv)
    arrival = parse_arrival(args.arrival)
    if args.duration is not None and args.duration <= 0:
        print("error: --duration must be > 0", file=sys.stderr)
        return 1

    with ServiceClient(args.host, args.port) as probe:
        graphs = probe.graphs()
    if not graphs:
        print("error: the daemon serves no graphs", file=sys.stderr)
        return 1
    algorithms = (
        args.algorithm
        if args.algorithm
        else list(portfolio_algorithms(args.portfolio))
    )
    queries = build_queries(graphs, algorithms, args.queries)
    responses, stats = run_load(
        args.host, args.port, queries,
        clients=args.clients,
        arrival=arrival,
        duration=args.duration,
    )
    found = sum(
        1 for response in responses
        if isinstance(response, dict) and response.get("found")
    )
    summary = {
        "queries": int(stats["queries"]),
        "clients": int(stats["clients"]),
        "found": found,
        "qps": round(stats["qps"], 2),
        "p50_ms": round(stats["p50_ms"], 3),
        "p90_ms": round(stats["p90_ms"], 3),
        "p99_ms": round(stats["p99_ms"], 3),
        "mean_ms": round(stats["mean_ms"], 3),
    }
    if "offered_qps" in stats:
        summary["offered_qps"] = stats["offered_qps"]
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI face
    sys.exit(main())
