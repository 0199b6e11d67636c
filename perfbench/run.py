"""Benchmark harness: three fixed-size workloads over the ``repro`` package.

Run one workload (from the repository root)::

    python3 perfbench/run.py --workload pipeline --seed 2024 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
workload once more with every layer's public entry points wrapped and
prints the per-layer table.  ``--workload all`` runs every workload in its
own interpreter and prints each metric with its unit and the oracle
verdict.  The last line of standard output is always one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; host
facts (CPU count, Python, code fingerprint, a calibration loop timed
before and after the run) are printed on the line before it.  ``--out
DIR`` also writes the full record to ``DIR`` for ``perfbench/compare.py``
(and, for a traced run, every span as gzipped JSON lines).

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``pipeline``  – serial crawl of a fresh synthetic web into a store, then
  flush, verify and the streaming summary;
* ``reanalyze`` – streaming summaries of two stored era crawls, the
  in-memory summary of one, and their diff;
* ``recover``   – a supervised process-backend crawl through three worker
  kills, one poison rank and one merge error.

Each run gets a fresh directory under ``.perfbench-runs/`` in the
checkout (temporary files, the measurement cache, chaos markers), which
is removed at the end; the run fails if the measurement cache was
written or sidecars, markers or workers are left behind.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench-runs"
GOLDEN = HERE / "golden.json"
WORKLOADS = ("pipeline", "reanalyze", "recover")
DEFAULT_SEED = 2024
DEFAULT_SECONDS = 15

_clock = time.perf_counter


class BenchError(Exception):
    """The benchmark cannot run here (not a result)."""


def interpreter_age() -> float:
    """Seconds since this process started (procfs clock-tick resolution)."""
    with open("/proc/self/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    with open("/proc/uptime") as handle:
        uptime = float(handle.read().split()[0])
    return max(0.0, uptime - started)


def calibrate() -> float:
    """A fixed pure-Python loop; its time marks a slow period of the host."""
    start = _clock()
    total = 0
    for i in range(1_500_000):
        total += i * i % 7
    return _clock() - start


def median(values) -> float:
    return float(statistics.median(values))


def reset_peak_rss() -> bool:
    """Restart this process's peak-RSS counter (``VmHWM``) if Linux lets us."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
        return True
    except OSError:
        return False


def own_peak_rss_mib(was_reset: bool) -> float:
    if was_reset:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# Isolation.


class RunDir:
    """A fresh directory per run; the program's temp files and measurement
    cache are pointed inside it."""

    def __init__(self, workload: str, seed: int) -> None:
        self.path = RUNS / f"{workload}-s{seed}-{os.getpid()}"
        if self.path.exists():
            shutil.rmtree(self.path)
        self.tmp = self.path / "tmp"
        self.cache = self.path / "measurement-cache"
        self.tmp.mkdir(parents=True)
        os.environ["TMPDIR"] = str(self.tmp)
        os.environ["REPRO_NO_CACHE"] = "1"
        os.environ["REPRO_CACHE_DIR"] = str(self.cache)
        tempfile.tempdir = str(self.tmp)

    def sub(self, name: str) -> Path:
        path = self.path / name
        path.mkdir(parents=True)
        return path

    def leftovers(self) -> list[str]:
        """Problems a run must not leave behind."""
        problems = []
        if self.cache.exists():
            problems.append("the measurement cache was written")
        sidecars = [p.name for p in self.path.rglob("*")
                    if ".wchunk-" in p.name or ".shard-" in p.name]
        if sidecars:
            problems.append(f"sidecars left behind: {sorted(sidecars)[:5]}")
        if any(self.tmp.iterdir()):
            problems.append("temporary files left behind: "
                            f"{sorted(p.name for p in self.tmp.iterdir())[:5]}")
        if multiprocessing.active_children():
            problems.append("worker processes left running")
        return problems

    def remove(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            RUNS.rmdir()
        except OSError:
            pass


# ---------------------------------------------------------------------------
# Oracle.


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


def golden_verdict(name: str, seed: int, size: str, params: dict,
                   reference: dict) -> "str | None":
    """``None`` if the golden digests match or do not apply, else why not."""
    golden = load_golden().get(name)
    if golden is None or seed != DEFAULT_SEED or size != "full":
        return None
    if golden["params"] != params:
        return None
    if golden["digests"] != reference:
        bad = sorted(k for k in golden["digests"]
                     if golden["digests"][k] != reference.get(k))
        return f"reference differs from the committed golden digests: {bad}"
    return None


# ---------------------------------------------------------------------------
# Untraced and traced runs.


def run_batch(workload, rundir: RunDir, seconds: float, trace: bool,
              import_s: float) -> dict:
    import workloads as wl

    record: dict = {"problems": []}
    if trace:
        return run_batch_traced(workload, rundir, record)
    times = []
    state = None
    for k in range(workload.setups):
        state = None
        gc.collect()
        where = rundir.sub(f"setup-{k}")
        start = _clock()
        state = workload.setup(where)
        times.append(_clock() - start)
        if k + 1 < workload.setups:
            shutil.rmtree(where)
    reference = state["reference"]
    verdict = golden_verdict(workload.name, workload.seed, workload.size,
                             workload.params, reference)
    if verdict:
        record["problems"].append(verdict)
    passes = workload.passes_for(seconds)
    gc.collect()
    was_reset = reset_peak_rss()
    results = []
    for index in range(passes):
        where = rundir.sub(f"pass-{index}")
        result = workload.run_pass(state, where)
        shutil.rmtree(where)
        if result.digests != reference:
            result.problems.append("output digests differ from the reference")
        if result.problems:
            result.failed = result.sites
            record["problems"].extend(result.problems)
        results.append(result)
    peak = max(own_peak_rss_mib(was_reset), children_peak_rss_mib())
    seconds_list = [r.seconds for r in results]
    sites = results[0].sites
    record.update(
        attempted=sum(r.sites for r in results),
        failed=sum(r.failed for r in results),
        metrics={
            "setup_s": metric(import_s + median(times), "s"),
            # Sites completed per second of the whole timed phase: host
            # slow periods that flip within a run average out instead of
            # deciding which state a per-pass median lands in.
            "sites_per_s": metric(passes * sites / sum(seconds_list),
                                  "1/s"),
            # Each pass's latency percentile, averaged over the passes
            # for the same reason.
            "p50_ms": metric(statistics.fmean(
                wl.percentile(r.latencies_ms, 50) for r in results), "ms"),
            "p99_ms": metric(statistics.fmean(
                wl.percentile(r.latencies_ms, 99) for r in results), "ms"),
            "peak_rss_mib": metric(peak, "MiB"),
        },
        facts={"setup_runs_s": times, "import_s": import_s,
               "passes": passes, "pass_seconds": seconds_list,
               "sites_per_pass": sites, "digests": results[0].digests},
    )
    if workload.name == "recover":
        record["facts"]["supervisor"] = [r.stats for r in results]
    return record


def run_batch_traced(workload, rundir: RunDir, record: dict) -> dict:
    """Set up and run one pass traced, after one untraced pass."""
    import spans
    from repro.obs import metrics as program_metrics

    recorder = spans.SpanRecorder()
    patcher = spans.Patcher()
    os.register_at_fork(after_in_child=lambda: setattr(recorder, "active",
                                                       False))
    spans.install(recorder, patcher)
    recorder.active = True
    state = workload.setup(rundir.sub("setup-0"))
    recorder.active = False
    setup_table = spans.layer_table(recorder, pass_id=0)
    reference = state["reference"]
    verdict = golden_verdict(workload.name, workload.seed, workload.size,
                             workload.params, reference)
    if verdict:
        record["problems"].append(verdict)

    patcher.restore()
    gc.collect()
    untraced = workload.run_pass(state, rundir.sub("pass-untraced"))
    spans.install(recorder, patcher)
    gc.collect()
    recorder.current_pass = 1
    gc_clock = spans.GcClock()

    def start() -> None:
        recorder.counts.clear()
        program_metrics.REGISTRY.reset()
        program_metrics.COUNTING = True
        gc.callbacks.append(gc_clock)
        recorder.active = True

    def stop() -> None:
        recorder.active = False
        program_metrics.COUNTING = False
        gc.callbacks.remove(gc_clock)

    workload.on_start, workload.on_end = start, stop
    try:
        traced = workload.run_pass(state, rundir.sub("pass-traced"))
    finally:
        patcher.restore()
    counters = program_metrics.REGISTRY.snapshot().get("counters", {})
    problems = []
    for name, result in (("untraced", untraced), ("traced", traced)):
        if result.digests != reference:
            problems.append(f"{name} pass digests differ from the reference")
        problems.extend(result.problems)
    record["problems"].extend(problems)
    table = spans.layer_table(recorder, pass_id=1)
    per_layer = spans.layer_metrics(
        table, setup_table=setup_table, recorder=recorder, pass_id=1,
        counts=recorder.counts, counters=counters, wall_s=traced.seconds,
        sites=traced.sites, supervisor=getattr(traced, "stats", None),
        schedule=getattr(traced, "schedule", None),
        chunks=getattr(traced, "chunks", 0), gc_s=gc_clock.seconds,
        gc_collections=gc_clock.collections,
        overhead_share=traced.seconds / untraced.seconds - 1)
    failed = 0 if not problems else traced.sites + untraced.sites
    record.update(
        attempted=traced.sites + untraced.sites, failed=failed,
        metrics={name: metric(value, spans.PER_LAYER[name])
                 for name, value in per_layer.items()},
        facts={"untraced_pass_s": untraced.seconds,
               "traced_pass_s": traced.seconds, "spans": len(recorder),
               "digests_match": traced.digests == untraced.digests,
               "layers": table},
        recorder=recorder,
    )
    return record


# ---------------------------------------------------------------------------
# Entry points.


def run_one(args) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro package under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import logging

    import repro.cli  # noqa: F401 - the import is part of setup
    import workloads as wl
    from repro.experiments.runner import code_fingerprint

    import_s = interpreter_age()
    logging.basicConfig(level=logging.CRITICAL)
    calibration_before = calibrate()
    rundir = RunDir(args.workload, args.seed)
    try:
        workload = {"pipeline": wl.Pipeline, "reanalyze": wl.Reanalyze,
                    "recover": wl.Recover}[args.workload](args.seed, args.size)
        record = run_batch(workload, rundir, args.seconds, bool(args.trace),
                           import_s)
        record["problems"].extend(rundir.leftovers())
    finally:
        wl.reap_workers()
        rundir.remove()
    calibration_after = calibrate()
    facts = record.setdefault("facts", {})
    facts.update(
        workload=args.workload, seed=args.seed, size=args.size,
        seconds=args.seconds, trace=args.trace,
        cpu_count=os.cpu_count(), python=platform.python_version(),
        code_fingerprint=code_fingerprint(),
        calibration_s={"before": calibration_before,
                       "after": calibration_after},
        problems=record["problems"],
        error_share=record["failed"] / max(1, record["attempted"]))
    correct = not record["problems"]
    result = {"correct": correct, "attempted": record["attempted"],
              "failed": record["failed"] if correct
              else max(1, record["failed"]),
              "metrics": record["metrics"]}
    print_human(args.workload, result, facts)
    recorder = record.pop("recorder", None)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        if recorder is not None:
            recorder.dump(out / f"{args.workload}-spans-s{args.seed}.jsonl.gz")
        # A repeated seed gets a new file, never overwrites a run.
        stem = f"{args.workload}-trace{args.trace}-s{args.seed}"
        path = out / f"{stem}.json"
        index = 1
        while path.exists():
            index += 1
            path = out / f"{stem}-{index}.json"
        path.write_text(json.dumps(
            {"result": result, "facts": facts}, indent=1, default=repr))
    print("facts " + json.dumps({k: v for k, v in facts.items()
                                 if k != "layers"}, default=repr))
    print(json.dumps(result))
    return 0


def print_human(workload: str, result: dict, facts: dict) -> None:
    verdict = "ok" if result["correct"] else "FAILED"
    print(f"{workload}: oracle {verdict}, {result['failed']}/"
          f"{result['attempted']} operations failed "
          f"(error_share {facts['error_share']:.4f})")
    for problem in facts["problems"]:
        print(f"  problem: {problem}")
    for name, entry in result["metrics"].items():
        print(f"  {name:<44} {entry['value']:>14.6g} {entry['unit']}")


def run_all(args) -> int:
    """Every workload in its own interpreter; prints one table."""
    ok = True
    for name in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--size", args.size]
        if args.out:
            command += ["--out", args.out]
        completed = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                                   text=True)
        lines = completed.stdout.strip().splitlines()
        for line in lines[:-1]:
            if not line.startswith("facts "):
                print(line)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit {completed.returncode})")
            ok = False
            continue
        ok = ok and completed.returncode == 0 and result["correct"]
    return 0 if ok else 1


def write_golden(args) -> int:
    """Recompute the reference digests at the default seed and size."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads as wl

    rundir = RunDir("golden", DEFAULT_SEED)
    golden = {}
    try:
        for cls in (wl.Pipeline, wl.Reanalyze, wl.Recover):
            workload = cls(DEFAULT_SEED, "full")
            state = workload.setup(rundir.sub(workload.name))
            golden[workload.name] = {"params": workload.params,
                                     "digests": state["reference"]}
    finally:
        wl.reap_workers()
        rundir.remove()
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measured time; fixes the number of passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--out", help="also write full records here")
    parser.add_argument("--write-golden", action="store_true",
                        help="recompute perfbench/golden.json")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.write_golden:
            return write_golden(args)
        if args.workload == "all":
            return run_all(args)
        return run_one(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
