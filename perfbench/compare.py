"""Compare two result sets of the benchmark.

A result set is a directory of records written by ``run.py --out DIR``
(one file per workload, trace mode and seed)::

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

For each workload and end-to-end metric it prints each side's median and
quartiles and a verdict against the metric's bound from
``BENCHMARK.json``:

* ``worse``      – the change's median is worse than the parent's by more
  than the bound;
* ``better``     – the change wins at least nine tenths of the run pairs
  (paired by seed, else by run order) and the medians differ by more
  than the parent's own quartile spread;
* ``unresolved`` – the parent's quartile spread is wider than the bound,
  so "no worse than the bound" cannot be shown, and not every run of the
  change beats every run of the parent;
* ``same``       – none of the above: within the bound, no gain shown;
* ``failed``     – the change has more incorrect runs or more failed
  operations than the parent; no gain counts then.

Each workload's line also gives the median of the host calibration loop
on each side; when they differ by more than a tenth, the host ran at a
different speed for one set, and that set should be repeated before the
verdicts are trusted.

For traced records it then prints the per-layer deltas of every time
metric (medians), largest first.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load_set(directory: Path) -> dict:
    """``{(workload, trace): {seed: run}}`` from one result set.

    A run is its metric values plus ``correct``, ``failed``, ``attempted``
    and the host calibration time.  Two runs of one seed in a set are an
    error: they could not be paired, and one would hide the other.
    """
    runs: dict = defaultdict(dict)
    files: dict = {}
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        facts = record["facts"]
        result = record["result"]
        key = (facts["workload"], int(facts["trace"]))
        seed = facts["seed"]
        if seed in runs[key]:
            raise SystemExit(
                f"{directory}: {files[key, seed]} and {path.name} are both "
                f"{key[0]} trace {key[1]} seed {seed}; a set needs "
                "distinct seeds")
        files[key, seed] = path.name
        calibration = facts.get("calibration_s", {})
        runs[key][seed] = {
            "metrics": {name: entry["value"]
                        for name, entry in result["metrics"].items()},
            "correct": bool(result["correct"]),
            "failed": int(result["failed"]),
            "attempted": int(result["attempted"]),
            "calibration_s": (statistics.fmean(calibration.values())
                              if calibration else None),
        }
    return runs


def failures(runs: dict) -> tuple[int, int]:
    """``(incorrect runs, failed operations)`` of one side."""
    return (sum(1 for run in runs.values() if not run["correct"]),
            sum(run["failed"] for run in runs.values()))


def quartiles(values: list) -> tuple[float, float, float]:
    if len(values) < 2:
        value = float(values[0])
        return value, value, value
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: dict, change: dict, better: str, bound: float) -> str:
    """Verdict for one metric; ``parent``/``change`` map seed → value."""
    p = list(parent.values())
    c = list(change.values())
    p1, pm, p3 = quartiles(p)
    _, cm, _ = quartiles(c)
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (cm - pm) / pm
    if gain < -bound:
        return "worse"
    common = sorted(set(parent) & set(change))
    if common:
        pairs = [(parent[s], change[s]) for s in common]
    else:  # different seeds: pair the i-th run of each side
        pairs = list(zip((parent[s] for s in sorted(parent)),
                         (change[s] for s in sorted(change))))
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    losses = sum(1 for a, b in pairs if sign * (b - a) < 0)
    if (pairs and wins >= 0.9 * len(pairs) and wins > losses
            and abs(cm - pm) > (p3 - p1)):
        return "better"
    spread = (p3 - p1) / pm
    if spread > bound:
        dominates = all(sign * (b - a) > 0 for a in p for b in c)
        return "better" if dominates else "unresolved"
    return "same"


def compare(parent_dir: Path, change_dir: Path, spec: dict) -> bool:
    parent = load_set(parent_dir)
    change = load_set(change_dir)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    regressed = False
    print(f"{'workload':<10} {'metric':<14} {'parent q1/med/q3':>30} "
          f"{'change q1/med/q3':>30} {'delta':>8}  verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        before = parent.get((workload, 0), {})
        after = change.get((workload, 0), {})
        if not before or not after:
            print(f"{workload:<10} (missing untraced runs on one side)")
            continue
        p_bad, p_failed = failures(before)
        c_bad, c_failed = failures(after)
        failed = c_bad > p_bad or c_failed > p_failed
        regressed |= failed
        print(f"{workload:<10} incorrect runs {p_bad} -> {c_bad}, failed "
              f"operations {p_failed} -> {c_failed}"
              f"{'  FAILED' if failed else ''}")
        calibration = [
            [run["calibration_s"] for run in side.values()
             if run["calibration_s"] is not None] for side in (before, after)]
        if all(calibration):
            pc, cc = (statistics.median(side) for side in calibration)
            note = ("  host speed differed: repeat the slower set"
                    if abs(cc - pc) > 0.1 * pc else "")
            print(f"{workload:<10} host calibration {pc:.4f}s -> "
                  f"{cc:.4f}s{note}")
        for name, meta in metrics.items():
            p = {s: run["metrics"][name] for s, run in before.items()
                 if name in run["metrics"]}
            c = {s: run["metrics"][name] for s, run in after.items()
                 if name in run["metrics"]}
            if not p or not c:
                continue
            pq = quartiles(list(p.values()))
            cq = quartiles(list(c.values()))
            result = ("failed" if failed
                      else verdict(p, c, meta["better"], meta["bound"]))
            regressed |= result == "worse"
            delta = (cq[1] - pq[1]) / pq[1]
            print(f"{workload:<10} {name:<14} "
                  f"{'/'.join(f'{v:.4g}' for v in pq):>30} "
                  f"{'/'.join(f'{v:.4g}' for v in cq):>30} "
                  f"{delta:>+8.1%}  {result}  (n={len(p)}/{len(c)})")
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in [w["name"] for w in spec["workloads"]]:
        before = parent.get((workload, 1), {})
        after = change.get((workload, 1), {})
        if not before or not after:
            continue
        rows = []
        for name, unit in units.items():
            if unit != "s":
                continue
            p = [run["metrics"][name] for run in before.values()
                 if name in run["metrics"]]
            c = [run["metrics"][name] for run in after.values()
                 if name in run["metrics"]]
            if p and c:
                pm, cm = statistics.median(p), statistics.median(c)
                rows.append((cm - pm, name, pm, cm))
        print(f"\n{workload}: per-layer time, traced medians "
              f"(n={len(before)}/{len(after)})")
        for delta, name, pm, cm in sorted(rows, key=lambda r: -abs(r[0])):
            if pm == 0 and cm == 0:
                continue
            print(f"  {name:<42} {pm:>10.4f}s -> {cm:>10.4f}s "
                  f"{delta:>+10.4f}s")
    return not regressed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--spec", type=Path,
                        default=HERE.parent / "BENCHMARK.json")
    args = parser.parse_args(argv)
    spec = json.loads(args.spec.read_text())
    return 0 if compare(args.parent, args.change, spec) else 1


if __name__ == "__main__":
    sys.exit(main())
