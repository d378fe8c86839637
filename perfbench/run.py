"""Benchmark entry point: one workload, one run, one JSON result line.

Usage (from the checkout root)::

    python3 perfbench/run.py --workload batch --seed 0 --seconds 20 --trace 0

Workloads (see README.md in this directory):

* ``batch``     seven experiments through ``run_experiment``;
* ``serve-hop`` one-request hops served by ``repro serve`` at n = 1e6.

Human-readable lines go first; the last line of standard output is
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
``--toy`` shrinks every workload to seconds for the self-test.
"""

from __future__ import annotations

import argparse
import json
import sys

import batch
import serve
from common import (
    BenchError,
    compile_sources,
    put_sources_on_path,
    require_sources,
)

WORKLOADS = ("batch", "serve-hop")

#: End-to-end metric -> unit.  Every workload reports each of them.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "qps": "1/s",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "mem_mb": "MB",
    "ok_share": "share",
}

_BATCH = "batch wall_s"
_SETUP = "serve-hop setup_s"
_PAIRS = "serve-hop qps (closed pairs)"

#: Per-layer metric -> (unit, the end-to-end metric it should move).
#: A workload that does not exercise a layer reports it as 0.
PER_LAYER = {
    **{
        f"core.experiments.{experiment}_s": ("s", _BATCH)
        for experiment in ("E1", "E3", "E4", "E6", "E11", "E15", "E20")
    },
    "core.trials.search_s": ("s", _BATCH),
    "core.trials.search_calls": ("count", _BATCH),
    "equivalence.events_s": ("s", _BATCH),
    "graphs.mori_tree_s": ("s", _BATCH),
    "graphs.mori_tree_calls": ("count", _BATCH),
    "equivalence.cooper_frieze_s": ("s", _BATCH),
    "analysis.powerlaw_fit_s": ("s", _BATCH),
    "runner.executor.run_trials_s": ("s", _BATCH),
    "runner.executor.trials": ("count", _BATCH),
    "graphs.build_s": ("s", _SETUP),
    "graphs.shm.publish_ms": ("ms", _SETUP),
    "graphs.shm.attach_ms": ("ms", _SETUP),
    "search.cell_p50_ms": ("ms", "serve-hop p50_ms (open, singles)"),
    "search.cell_p90_ms": ("ms", "serve-hop p90_ms"),
    "search.pair_ms": ("ms", _PAIRS),
    "search.requests_mean": ("requests", "nothing; repeats exactly"),
    "service.healthz_p50_ms": ("ms", "floor of serve-hop p50_ms"),
    "service.batch_size_mean": ("queries", _PAIRS),
    "service.batches": ("count", _PAIRS),
    "service.cache_hit_share": ("share", "nothing; must stay 0"),
    "service.daemon_mb": ("MB", "serve-hop mem_mb"),
    "service.worker_mb": ("MB", "serve-hop mem_mb"),
    "loadgen.closed_p50_ms": ("ms", _PAIRS),
    "loadgen.closed_p90_ms": ("ms", _PAIRS),
    "loadgen.late_p90_ms": ("ms", "serve-hop p90_ms; generator's own"),
    "host.ref_ms": ("ms", "nothing; diagnostic"),
    "batch.raw_wall_s": ("s", "nothing; diagnostic"),
    "trace.overhead_s": ("s", "nothing; tracing cost"),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="python3 perfbench/run.py", description=__doc__.split("\n")[0]
    )
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--toy", action="store_true",
        help="toy sizes for the self-test (not comparable numbers)",
    )
    return parser.parse_args(argv)


def measure(args) -> dict:
    if args.workload == "batch":
        return batch.run(args.seed, bool(args.trace), args.toy)
    return serve.run(args.seed, args.seconds, bool(args.trace), args.toy)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        require_sources()
        put_sources_on_path()
        compile_sources()
        result = measure(args)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1

    for name, value in result["end_to_end"].items():
        print(f"{args.workload:12s} {name:28s} {value:14.4f} "
              f"{END_TO_END[name]}")
    if args.trace:
        for name, (unit, moves) in PER_LAYER.items():
            value = result["per_layer"].get(name, 0)
            print(f"{args.workload:12s} {name:28s} {value:14.4f} "
                  f"{unit:8s} moves {moves}")
    for name, value in result["report"].items():
        print(f"{args.workload:12s} {name}: {value}")
    for check, ok in result["checks"].items():
        print(f"{args.workload:12s} check {'ok  ' if ok else 'FAIL'} {check}")

    if args.trace:
        metrics = {
            name: {"value": result["per_layer"].get(name, 0), "unit": unit}
            for name, (unit, _) in PER_LAYER.items()
        }
    else:
        metrics = {
            name: {"value": result["end_to_end"][name], "unit": unit}
            for name, unit in END_TO_END.items()
        }
    print(json.dumps({
        "correct": all(result["checks"].values()),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
