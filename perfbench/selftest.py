"""Smoke-size self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload at ``--size smoke`` untraced and traced, and checks
that each run exits 0, ends with one JSON object with exactly the keys
``correct``, ``attempted``, ``failed`` and ``metrics``, is correct, and
emits exactly the metric names and units of ``BENCHMARK.json``
(``end_to_end`` untraced, ``per_layer`` traced) with end-to-end values
above 0; that traced and untraced passes produced the same digests; and
that in a directory holding only ``BENCHMARK.json`` and the benchmark's
files the harness exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench-runs" / "selftest"


def run(command: list, cwd: Path) -> tuple[int, list]:
    completed = subprocess.run(command, cwd=cwd, stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE, text=True,
                               timeout=600)
    return completed.returncode, completed.stdout.strip().splitlines()


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    code, lines = run([sys.executable, "perfbench/run.py", "--workload",
                       workload, "--size", "smoke", "--seconds", "2",
                       "--trace", str(trace)], ROOT)
    where = f"{workload} --trace {trace}"
    if code != 0 or not lines:
        return [f"{where}: exit {code}"]
    result = json.loads(lines[-1])
    facts = json.loads(lines[-2][len("facts "):])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0:
        problems.append(f"{where}: not correct: {facts.get('problems')}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append(f"{where}: attempted {result['attempted']!r}")
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: entry["unit"] for name, entry in result["metrics"].items()}
    if got != wanted:
        problems.append(f"{where}: metric names/units differ from "
                        f"BENCHMARK.json: {sorted(set(got) ^ set(wanted))}")
    for name, entry in result["metrics"].items():
        value = entry["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {name} = {value!r}")
        elif not trace and value <= 0:
            problems.append(f"{where}: {name} = {value!r} is not above 0")
    if trace and facts.get("digests_match") is not True:
        problems.append(f"{where}: traced and untraced digests differ")
    return problems


def check_bare_directory() -> list[str]:
    """Without the program the harness must fail, printing no result."""
    if SCRATCH.exists():
        shutil.rmtree(SCRATCH)
    SCRATCH.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", SCRATCH)
        shutil.copytree(HERE, SCRATCH / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = run([sys.executable, "perfbench/run.py",
                           "--workload", "pipeline", "--size", "smoke"],
                          SCRATCH)
    finally:
        shutil.rmtree(SCRATCH)
        try:
            SCRATCH.parent.rmdir()
        except OSError:
            pass
    if code == 0 or (lines and lines[-1].startswith("{")):
        return [f"bare directory: exit {code}, output {lines[-1:]}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_bare_directory()
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            found = check_run(spec, workload, trace)
            print(f"{workload:<10} trace {trace}: "
                  f"{'ok' if not found else 'FAILED'}", flush=True)
            problems.extend(found)
    for problem in problems:
        print(f"  {problem}")
    print("selftest", "passed" if not problems else "FAILED")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
