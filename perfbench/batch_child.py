"""One fresh interpreter of the ``batch`` workload.

Usage (from the checkout root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/batch_child.py --variant 3 [--trace 1] [--toy]
    python3 perfbench/batch_child.py --setup-only

Prints ``ready`` as soon as the experiment registry is loaded (the
parent times set-up up to that line), then calls ``run_experiment`` for
each experiment in order with a host reference slice before the first
and after every experiment, and prints one JSON object as its last
line: per-experiment raw times and record digests, the slices, peak
RSS and, when traced, per-function span totals and call counts.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import resource
import sys
import time

from repro.core.registry import REGISTRY, run_experiment
import repro.core.experiments  # noqa: F401  (registers E1..E22)

print("ready", flush=True)

from common import OUT_DIR, Tracer, ref_slice_ms  # noqa: E402

EXPERIMENTS = ("E1", "E3", "E4", "E6", "E11", "E15", "E20")

#: Registered seeds of the experiments whose work does not depend on
#: the draw (fixed sample counts and graph sizes); workload variant
#: ``k`` shifts each by ``1000 * k``.  The search experiments (E1, E3,
#: E11, E20) keep their registered seeds: their time follows the walk
#: lengths drawn, which would make run times differ by variant.
_VARIED_SEEDS = {"E4": 4, "E6": 6, "E15": 15}

#: The only departures from registered defaults: E4 and E15 sample
#: fewer trees, so the run fits the benchmark's time budget.
_CUTS = {"E4": {"num_samples": 200}, "E15": {"num_samples": 100}}

#: Toy sizes for the benchmark's self-test (seconds, not minutes).
_TOY = {
    "E1": {"sizes": (50, 100), "num_graphs": 2, "runs_per_graph": 1},
    "E3": {"sizes": (50, 100), "num_graphs": 2, "runs_per_graph": 1},
    "E4": {"a_values": (10, 50), "p_values": (0.5,), "num_samples": 5},
    "E6": {"n": 400},
    "E11": {"sizes": (50, 100), "num_graphs": 2, "runs_per_graph": 1},
    "E15": {"sizes": (100, 200), "num_samples": 5},
    "E20": {"sizes": (50, 100), "num_graphs": 1, "runs_per_graph": 1},
}


def experiment_kwargs(experiment_id: str, variant: int, toy: bool):
    kwargs = dict(_CUTS.get(experiment_id, {}))
    if experiment_id in _VARIED_SEEDS:
        kwargs["seed"] = _VARIED_SEEDS[experiment_id] + 1000 * variant
    if toy:
        kwargs.update(_TOY[experiment_id])
    return kwargs


def expected_calls(kwargs_by_id):
    """Calls of each wrapped function that the experiment grid implies."""

    def resolved(experiment_id):
        spec = REGISTRY.get(experiment_id)
        merged = {param.name: param.default for param in spec.params}
        merged.update(kwargs_by_id[experiment_id])
        return merged

    searches = 0
    for experiment_id, grids in (("E1", 1), ("E3", 1), ("E11", 1),
                                 ("E20", 6)):
        params = resolved(experiment_id)
        searches += grids * len(params["sizes"]) * params["num_graphs"]
    e4 = resolved("E4")
    events = len(e4["a_values"]) * len(e4["p_values"])
    return {
        "core.trials.search": searches,
        "equivalence.events": events,
        "graphs.mori_tree": events * e4["num_samples"],
        "equivalence.cooper_frieze": len(resolved("E15")["sizes"]),
        "analysis.powerlaw_fit": 5,
        "runner.executor.run_trials": 10,
    }


def install_wrappers(tracer: Tracer) -> None:
    """Wrap each layer function at the name its caller resolves."""
    import repro.core.registry as registry
    import repro.core.searchability as searchability
    import repro.core.trials as trials
    import repro.equivalence.cooper_frieze as cooper_frieze
    import repro.equivalence.events as events
    import repro.core.experiments as experiments

    # Trial specs resolve "repro.core.trials:search_cost_graph_trial"
    # by attribute at execution time; the wrapper keeps the qualname.
    tracer.wrap(trials, "search_cost_graph_trial", "core.trials.search")
    tracer.wrap(
        experiments, "estimate_event_probability", "equivalence.events"
    )
    tracer.wrap(events, "mori_tree", "graphs.mori_tree")
    tracer.wrap(
        cooper_frieze, "estimate_untouched_probability",
        "equivalence.cooper_frieze",
    )
    tracer.wrap(trials, "fit_power_law", "analysis.powerlaw_fit")
    tracer.wrap(registry, "run_trials", "runner.executor.run_trials")
    tracer.wrap(searchability, "run_trials", "runner.executor.run_trials")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--variant", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    if args.setup_only:
        return 0

    kwargs_by_id = {
        experiment_id: experiment_kwargs(experiment_id, args.variant,
                                         args.toy)
        for experiment_id in EXPERIMENTS
    }
    tracer = Tracer() if args.trace else None
    trials_seen = [0]
    if tracer is not None:
        install_wrappers(tracer)
        _count_specs(trials_seen)
    search_times: list = []
    _time_searches(search_times)

    refs = [ref_slice_ms()]
    records = []
    for experiment_id in EXPERIMENTS:
        del search_times[:]
        begin = time.perf_counter()
        if tracer is not None:
            with tracer.span(f"core.experiments.{experiment_id}"):
                result = run_experiment(
                    experiment_id, **kwargs_by_id[experiment_id]
                )
        else:
            result = run_experiment(
                experiment_id, **kwargs_by_id[experiment_id]
            )
        elapsed = time.perf_counter() - begin
        record = json.dumps(
            result.to_dict(), sort_keys=True, separators=(",", ":")
        )
        records.append({
            "id": experiment_id,
            "raw_s": elapsed,
            "search_s": list(search_times),
            "digest": hashlib.sha256(record.encode("utf-8")).hexdigest(),
        })
        refs.append(ref_slice_ms())

    report = {
        "experiments": records,
        "refs_ms": refs,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF
        ).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.unwrap_all()
        path = OUT_DIR / f"batch-spans-{args.variant}.json"
        tracer.dump(path)
        report["spans_path"] = str(path)
        report["totals"] = tracer.totals()
        report["expected_calls"] = expected_calls(kwargs_by_id)
        report["trials"] = trials_seen[0]
    print(json.dumps(report), flush=True)
    return 0


def _time_searches(durations: list) -> None:
    """Append the duration of every search trial to ``durations``.

    A search trial (one graph realisation searched by a portfolio) is
    the runner's unit of work; two clock reads per call cost nothing
    next to it.
    """
    import repro.core.trials as trials

    original = trials.search_cost_graph_trial

    @functools.wraps(original)
    def timed(**kwargs):
        begin = time.perf_counter()
        try:
            return original(**kwargs)
        finally:
            durations.append(time.perf_counter() - begin)

    trials.search_cost_graph_trial = timed


def _count_specs(counter) -> None:
    """Count the specs every ``run_trials`` call receives."""
    import repro.core.registry as registry
    import repro.core.searchability as searchability

    for module in (registry, searchability):
        traced = module.run_trials

        def counting(specs, *args, _traced=traced, **kwargs):
            counter[0] += len(specs)
            return _traced(specs, *args, **kwargs)

        module.run_trials = counting


if __name__ == "__main__":
    sys.exit(main())
