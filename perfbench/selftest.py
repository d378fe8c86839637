"""Self-test of the benchmark: every workload at toy size, in seconds.

Usage (from the checkout root)::

    python3 perfbench/selftest.py

Runs ``run.py --toy`` for each workload of ``BENCHMARK.json``, untraced
and traced, and fails unless each run exits 0, reports ``correct``, and
emits exactly the declared metrics with their declared units.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

from common import BENCH_DIR, ROOT


def check_run(workload: str, trace: int, declared) -> list:
    begin = time.perf_counter()
    process = subprocess.run(
        [
            sys.executable, str(BENCH_DIR / "run.py"), "--toy",
            "--workload", workload, "--seed", "7", "--seconds", "4",
            "--trace", str(trace),
        ],
        cwd=str(ROOT), capture_output=True, text=True, timeout=300,
    )
    label = f"{workload} --trace {trace}"
    if process.returncode != 0:
        return [f"{label}: exit {process.returncode}\n{process.stderr}"]
    result = json.loads(process.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result["correct"] is not True:
        problems.append(f"{label}: not correct\n{process.stdout}")
    emitted = {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    if emitted != declared:
        problems.append(
            f"{label}: emitted {emitted} but declared {declared}"
        )
    print(f"{label}: {time.perf_counter() - begin:.1f}s, "
          f"{len(emitted)} metrics", flush=True)
    return problems


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    problems = []
    for workload in (entry["name"] for entry in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in spec[key]}
            problems += check_run(workload, trace, declared)
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("selftest:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
