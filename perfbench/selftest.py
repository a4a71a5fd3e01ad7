"""Smoke test of the benchmark harness itself.

    python3 perfbench/selftest.py

Runs every workload once untraced and once traced with a one-second budget
(one pass each) on seed 0, and checks that the last output line parses as the
result object and that every metric named in BENCHMARK.json is emitted with its
unit.  Takes about a minute and a half on a 2-core box.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_workload(workload: str, trace: int) -> dict:
    argv = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", "0", "--seconds", "1", "--trace", str(trace),
    ]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300, check=False)
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_result(result: dict, expected: dict, label: str) -> list:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: keys {sorted(result)}")
    if not isinstance(result.get("correct"), bool):
        problems.append(f"{label}: correct is not a boolean")
    attempted, failed = result.get("attempted"), result.get("failed")
    counts_ok = isinstance(attempted, int) and isinstance(failed, int) and 0 <= failed <= attempted
    if not (counts_ok and attempted >= 1):
        problems.append(f"{label}: attempted={attempted!r} failed={failed!r}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(
            f"{label}: missing {sorted(set(expected) - set(metrics))}, "
            f"unexpected {sorted(set(metrics) - set(expected))}"
        )
    for name, metric in metrics.items():
        value = metric.get("value")
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            problems.append(f"{label}: {name} = {value!r}")
        if name in expected and metric.get("unit") != expected[name]:
            problems.append(f"{label}: {name} unit {metric.get('unit')!r}, expected {expected[name]!r}")
    return problems


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, expected in ((0, end_to_end), (1, per_layer)):
            label = f"{workload} trace={trace}"
            problems += check_result(run_workload(workload, trace), expected, label)
            print(f"selftest: {label} done", flush=True)
    for problem in problems:
        print(f"selftest: FAIL {problem}")
    print("selftest: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
