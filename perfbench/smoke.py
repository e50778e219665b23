"""Quick check of the benchmark harness, at K=4 instead of the anchor.

    python3 perfbench/smoke.py

Runs every workload in BENCHMARK.json once untraced and once traced, the
way the benchmark is invoked, and checks that each result line is
well-formed, correct, and carries exactly the named metrics with their
units.  Exits 0 when all of them pass.  Takes well under a minute.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 180


def problems_of(result, expected):
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return [f"result keys {sorted(result)}"]
    if result["correct"] is not True or result["failed"] != 0:
        problems.append(f"correct={result['correct']} failed={result['failed']}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append(f"attempted={result['attempted']}")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        problems.append(f"metric names differ: missing {sorted(set(expected) - set(metrics))}, "
                        f"extra {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        entry = metrics.get(name)
        if entry is None:
            continue
        if entry.get("unit") != unit:
            problems.append(f"{name}: unit {entry.get('unit')!r} != {unit!r}")
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r}")
    return problems


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures = 0
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            command = [*bench["command"], "--workload", workload, "--seed", "0",
                       "--seconds", "1", "--trace", str(trace), "--smoke"]
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                                  timeout=RUN_TIMEOUT_S)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                problems = [f"exit code {done.returncode}: {done.stderr.strip()[-500:]}"]
            else:
                problems = problems_of(json.loads(lines[-1]), expected[trace])
            failures += bool(problems)
            print(f"{workload} trace={trace}: {'; '.join(problems) or 'ok'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
