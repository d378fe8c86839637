"""The ``batch`` workload: what a researcher waits for.

Seven experiments (E1, E3, E4, E6, E11, E15, E20) run through
``run_experiment`` in a fresh interpreter at registered defaults, except
E4/E15's sample counts and the seeds of E4, E6 and E15, which the
workload seed shifts (see ``batch_child.py``).  Each record is checked
against the digest pinned for that seed variant (``digests.json``), and
each experiment's time is rescaled to the reference host speed with the
reference slices timed just before and after it.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Tuple

from common import (
    BENCH_DIR,
    REF_NOMINAL_MS,
    ROOT,
    BenchError,
    child_env,
    quantile,
)

#: Distinct reproductions the benchmark ships a digest for; the
#: workload seed picks one as ``seed % NUM_VARIANTS``.
NUM_VARIANTS = 10
#: Fresh batch interpreters per run.  Each experiment's time is the
#: least of its rescaled times over them: the host slows down in bursts
#: of a few seconds, which only ever add time.
REPEATS = 2
#: Interpreter starts per run (the batch interpreters included):
#: setup_s is their median.
SETUP_SAMPLES = 6
DIGESTS_PATH = BENCH_DIR / "digests.json"

#: Per-layer metric -> (span name, field, unit) of the traced child.
SPAN_METRICS = {
    "core.trials.search_s": ("core.trials.search", "total_s"),
    "core.trials.search_calls": ("core.trials.search", "calls"),
    "equivalence.events_s": ("equivalence.events", "total_s"),
    "graphs.mori_tree_s": ("graphs.mori_tree", "total_s"),
    "graphs.mori_tree_calls": ("graphs.mori_tree", "calls"),
    "equivalence.cooper_frieze_s": (
        "equivalence.cooper_frieze", "total_s"
    ),
    "analysis.powerlaw_fit_s": ("analysis.powerlaw_fit", "total_s"),
    "runner.executor.run_trials_s": (
        "runner.executor.run_trials", "total_s"
    ),
}


def _spawn(arguments: List[str]) -> Tuple[subprocess.Popen, float]:
    """Start a batch interpreter; return it and its set-up time."""
    begin = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "batch_child.py"), *arguments],
        cwd=str(ROOT),
        env=child_env(),
        stdout=subprocess.PIPE,
        text=True,
    )
    line = process.stdout.readline()
    setup = time.perf_counter() - begin
    if line.strip() != "ready":
        process.kill()
        process.wait()
        raise BenchError(f"batch interpreter failed to start: {line!r}")
    return process, setup


def _run_child(arguments: List[str]) -> Tuple[Dict[str, Any], float]:
    process, setup = _spawn(arguments)
    try:
        output, _ = process.communicate(timeout=170)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        raise BenchError("batch interpreter ran over 170 s") from None
    if process.returncode != 0:
        raise BenchError(
            f"batch interpreter exited with {process.returncode}"
        )
    return json.loads(output.strip().splitlines()[-1]), setup


def _scales(report: Dict[str, Any]) -> List[float]:
    """Per experiment: reference host speed over the host speed around it."""
    refs = report["refs_ms"]
    return [
        REF_NOMINAL_MS / ((refs[i] + refs[i + 1]) / 2)
        for i in range(len(report["experiments"]))
    ]


def _scaled_times(report: Dict[str, Any]) -> List[float]:
    """Each experiment's time at the reference host speed."""
    return [
        record["raw_s"] * scale
        for record, scale in zip(report["experiments"], _scales(report))
    ]


def _scaled_searches_ms(report: Dict[str, Any]) -> List[float]:
    """Each search trial's time at the reference host speed."""
    return [
        1000.0 * seconds * scale
        for record, scale in zip(report["experiments"], _scales(report))
        for seconds in record["search_s"]
    ]


def pinned_digests() -> Dict[str, Dict[str, str]]:
    with open(DIGESTS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def run(seed: int, trace: bool, toy: bool) -> Dict[str, Any]:
    variant = seed % NUM_VARIANTS
    arguments = ["--variant", str(variant)]
    if toy:
        arguments.append("--toy")
    setups = []
    for _ in range(SETUP_SAMPLES - REPEATS):
        process, setup = _spawn(["--setup-only"])
        process.communicate()
        setups.append(setup)
    reports = []
    for _ in range(REPEATS):
        report, setup = _run_child(arguments + ["--trace", "0"])
        reports.append(report)
        setups.append(setup)

    if toy:
        # Toy records are not pinned: the repeats must agree instead.
        expected = {r["id"]: r["digest"] for r in reports[-1]["experiments"]}
    else:
        expected = pinned_digests().get(str(variant), {})
    records = [r for report in reports for r in report["experiments"]]
    matched = [
        record["digest"] == expected.get(record["id"]) for record in records
    ]
    ids = [record["id"] for record in reports[0]["experiments"]]
    scaled = [min(times) for times in zip(*map(_scaled_times, reports))]
    raw_walls = [
        sum(record["raw_s"] for record in report["experiments"])
        for report in reports
    ]
    wall = sum(scaled)
    # The interpreters run the same search trials in the same order.
    search_ms = [min(times) for times in zip(*map(_scaled_searches_ms, reports))]
    all_refs = [ref for report in reports for ref in report["refs_ms"]]
    result: Dict[str, Any] = {
        "attempted": len(matched),
        "failed": matched.count(False),
        "checks": {
            f"{experiment_id} digest": all(
                ok for record, ok in zip(records, matched)
                if record["id"] == experiment_id
            )
            for experiment_id in ids
        },
        "end_to_end": {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "qps": len(scaled) / wall,
            "p50_ms": quantile(search_ms, 0.5),
            "p90_ms": quantile(search_ms, 0.9),
            "mem_mb": max(report["peak_rss_mb"] for report in reports),
            "ok_share": matched.count(True) / len(matched),
        },
        "per_layer": {
            "host.ref_ms": statistics.median(all_refs),
            "batch.raw_wall_s": min(raw_walls),
        },
        "report": {
            "experiments_s": {
                experiment_id: round(value, 3)
                for experiment_id, value in zip(ids, scaled)
            },
            "raw_walls_s": [round(value, 3) for value in raw_walls],
            "refs_ms": [round(value, 2) for value in all_refs],
        },
    }
    if trace:
        traced, _ = _run_child(arguments + ["--trace", "1"])
        untraced = statistics.mean(sum(_scaled_times(r)) for r in reports)
        result["per_layer"].update(_layer_metrics(traced, untraced))
        result["checks"].update(_call_checks(traced))
        result["report"]["spans"] = traced["spans_path"]
        result["report"]["self_s"] = {
            name: round(entry["self_s"], 4)
            for name, entry in traced["totals"].items()
        }
    return result


def _layer_metrics(traced: Dict[str, Any], untraced_wall: float):
    totals = traced["totals"]
    layers: Dict[str, float] = {}
    for experiment in traced["experiments"]:
        name = f"core.experiments.{experiment['id']}"
        layers[f"{name}_s"] = totals[name]["total_s"]
    for metric, (span, field) in SPAN_METRICS.items():
        layers[metric] = totals.get(span, {}).get(field, 0)
    layers["runner.executor.trials"] = traced["trials"]
    # Both rescaled: the raw difference is mostly the host's drift.
    layers["trace.overhead_s"] = sum(_scaled_times(traced)) - untraced_wall
    return layers


def pin_digests() -> None:
    """Rewrite ``digests.json`` from the current checkout.

    Run only on a commit whose numbers are the reference; every later
    commit must reproduce these records bit for bit.
    """
    digests = {}
    for variant in range(NUM_VARIANTS):
        report, _ = _run_child(["--variant", str(variant)])
        digests[str(variant)] = {
            record["id"]: record["digest"]
            for record in report["experiments"]
        }
        print(f"variant {variant}: {digests[str(variant)]}", flush=True)
    with open(DIGESTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")


def _call_checks(traced: Dict[str, Any]) -> Dict[str, bool]:
    """Each wrapped function was called exactly as often as implied.

    A count of zero means the wrapper missed a name bound by a
    ``from`` import.
    """
    totals = traced["totals"]
    return {
        f"{span} calls == {count}":
            totals.get(span, {}).get("calls", 0) == count
        for span, count in traced["expected_calls"].items()
    }


if __name__ == "__main__":
    # python3 perfbench/batch.py --pin-digests
    if sys.argv[1:] != ["--pin-digests"]:
        sys.exit("usage: python3 perfbench/batch.py --pin-digests")
    pin_digests()
