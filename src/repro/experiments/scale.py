"""Paper-scale harness behind ``benchmarks/bench_perf_scale.py``.

The paper crawls ~1M sites; this module proves the pipeline holds up at
that shape of workload: a store-backed crawl (``collect=False``)
followed by a streamed export and a streaming summarize, each phase run in
its **own spawn subprocess** so ``ru_maxrss`` yields a clean per-phase
peak-RSS reading (the counter is monotonic per process, so phases sharing
one process would mask each other).

Measured per tier (default 10k and 100k sites; ``REPRO_SCALE_TIERS``
overrides — CI smoke runs the 10k tier only):

* crawl throughput (sites/s) and peak RSS with ``collect=False`` — the
  bounded-memory contract;
* the store stage's share of crawl wall time, read from the
  ``store.write_seconds`` histogram that
  :meth:`~repro.crawler.storage.CrawlStore.save_visits` feeds — gated at
  :data:`STORE_SHARE_BOUND`;
* streamed-export and streaming-summarize peak RSS (same bound).

Two correctness gates ride along:

* the policy engine's structural decision memo must hit on more than
  :data:`MEMO_RATE_BOUND` of explain decisions over a 500-site crawl,
  with the streaming summary field-identical to the materialized one;
* the process-parallel streaming summary must be field-identical to the
  serial one at every tier.

:data:`SCALE_GATES` is the document's gate table.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import resource
import sys
import tempfile
import time
from pathlib import Path

from repro.experiments.gates import (
    PROCESS_SPEEDUP_BOUND,
    Gate,
    evaluate,
    host_facts,
    process_2x_unmet,
)

DEFAULT_TIERS = (10_000, 100_000)
DEFAULT_SEED = 2024

#: Peak-RSS ceiling for every phase subprocess.  A bounded-memory 100k
#: crawl measures well under 200 MiB (the Python runtime plus the store
#: batch plus the checkpoint rank set); the bound leaves generous headroom
#: for interpreter/platform variance while still catching any return to
#: accumulate-everything behaviour, which costs gigabytes at 100k.
RSS_BOUND_BYTES = 512 * 1024 * 1024

#: The store stage must stay a small share of crawl wall time — batched
#: transactions, not per-visit commits.
STORE_SHARE_BOUND = 0.25

#: Structural memo hit-rate floor on the 500-site calibration crawl.
MEMO_RATE_BOUND = 0.5
MEMO_SITES = 500


def configured_tiers() -> tuple[int, ...]:
    value = os.environ.get("REPRO_SCALE_TIERS")
    if not value:
        return DEFAULT_TIERS
    tiers = tuple(int(part) for part in value.split(",") if part.strip())
    if not tiers or any(tier < 1 for tier in tiers):
        raise ValueError(
            f"REPRO_SCALE_TIERS must be positive site counts, got {value!r}")
    return tiers


def _peak_rss_bytes() -> int:
    """This process's peak RSS so far.  ``ru_maxrss`` is KiB on Linux and
    bytes on macOS."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak if sys.platform == "darwin" else peak * 1024


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Phase workers.  Module-level (picklable) and imported lazily inside, so a
# spawn subprocess pays import cost *inside* its own RSS measurement and the
# parent process never loads crawl state at all.


def _crawl_worker(params: dict) -> dict:
    """Store-backed crawl with ``collect=False``."""
    from repro.crawler.backends import shutdown_warm_pool
    from repro.crawler.pool import CrawlerPool
    from repro.crawler.storage import CrawlStore
    from repro.obs import metrics as _metrics
    from repro.synthweb.generator import SyntheticWeb

    _metrics.enable_metrics()  # feeds the store.* histograms
    web = SyntheticWeb(params["site_count"], seed=params["seed"])
    pool = CrawlerPool(web, workers=params["workers"],
                       backend=params["backend"])
    start = time.perf_counter()
    with CrawlStore(Path(params["store_path"])) as store:
        pool.run(store=store, collect=False)
    seconds = time.perf_counter() - start
    histograms = _metrics.REGISTRY.snapshot().get("histograms", {})
    write = histograms.get("store.write_seconds", {})
    merge = histograms.get("store.merge_seconds", {})
    write_seconds = float(write.get("total", 0.0))
    merge_seconds = float(merge.get("total", 0.0))
    if params["backend"] == "process":
        # Worker sidecar writes (merged into this registry from the worker
        # snapshots) overlap crawl compute in other processes; only the
        # parent's ATTACH merges sit on the crawl's critical path.
        store_seconds = merge_seconds
    else:
        store_seconds = write_seconds + merge_seconds
    result = {
        "seconds": round(seconds, 4),
        "sites_per_second": round(params["site_count"] / seconds, 1),
        "store_seconds": round(store_seconds, 4),
        "store_share": round(store_seconds / seconds, 4),
        "store_write_seconds": round(write_seconds, 4),
        "store_merge_seconds": round(merge_seconds, 4),
        "store_writes": int(write.get("count", 0)),
        "peak_rss_bytes": _peak_rss_bytes(),
    }
    if pool.last_chunk_schedule is not None:
        result["chunk_schedule"] = pool.last_chunk_schedule
        result["run_stats"] = pool.last_run_stats
    shutdown_warm_pool()
    return result


def _export_worker(params: dict) -> dict:
    """Stream the store out as JSONL; returns the export's SHA-256."""
    from repro.crawler.storage import CrawlStore, export_jsonl

    out_path = Path(params["out_path"])
    start = time.perf_counter()
    with CrawlStore(Path(params["store_path"])) as store:
        written = export_jsonl(store.iter_visits(), out_path)
    seconds = time.perf_counter() - start
    return {
        "seconds": round(seconds, 4),
        "visits": written,
        "sha256": _sha256_file(out_path),
        "peak_rss_bytes": _peak_rss_bytes(),
    }


def _summary_digest(summary) -> str:
    """Deterministic digest of every :class:`MeasurementSummary` field —
    lets two phase subprocesses compare full summaries without shipping
    the objects through the result pipe."""
    import dataclasses
    import json

    payload = json.dumps(dataclasses.asdict(summary), sort_keys=True,
                         default=repr)
    return hashlib.sha256(payload.encode()).hexdigest()


def _summarize_worker(params: dict) -> dict:
    """Streaming summarize straight off the store; ``summarize_workers``
    > 1 selects the process-parallel mode (warm worker pool)."""
    from repro.analysis.summary import summarize_streaming
    from repro.crawler.backends import shutdown_warm_pool
    from repro.crawler.storage import CrawlStore

    workers = int(params.get("summarize_workers", 1))
    start = time.perf_counter()
    with CrawlStore(Path(params["store_path"])) as store:
        summary = summarize_streaming(store, workers=workers)
    seconds = time.perf_counter() - start
    if workers > 1:
        shutdown_warm_pool()
    return {
        "seconds": round(seconds, 4),
        "workers": workers,
        "attempted": summary.attempted_sites,
        "successful": summary.successful_sites,
        "digest": _summary_digest(summary),
        "peak_rss_bytes": _peak_rss_bytes(),
    }


def _memo_worker(params: dict) -> dict:
    """Calibration crawl for the structural decision memo.

    Runs in its own subprocess so the global metrics registry starts at
    zero and the hit rate is exactly this crawl's.  Also checks the
    streaming summary against the materialized one — the gate pairs the
    perf claim with the field-identity claim.
    """
    from repro.analysis.summary import summarize, summarize_streaming
    from repro.crawler.pool import CrawlerPool
    from repro.obs import metrics as _metrics
    from repro.synthweb.generator import SyntheticWeb

    _metrics.enable_metrics()
    web = SyntheticWeb(params["site_count"], seed=params["seed"])
    dataset = CrawlerPool(web, workers=params["workers"],
                          backend=params["backend"]).run()
    counters = _metrics.REGISTRY.snapshot().get("counters", {})
    hits = int(counters.get("policy.explain_memo_hits", 0))
    misses = int(counters.get("policy.explain_memo_misses", 0))
    total = hits + misses
    materialized = summarize(dataset)
    streamed = summarize_streaming(iter(dataset.visits))
    return {
        "site_count": params["site_count"],
        "hits": hits,
        "misses": misses,
        "hit_rate": round(hits / total, 4) if total else 0.0,
        "summaries_identical": materialized == streamed,
    }


def _phase_entry(worker, params: dict, queue) -> None:
    """Child-side wrapper: run the phase, ship ``("ok", result)`` or the
    formatted failure back through ``queue``."""
    try:
        queue.put(("ok", worker(params)))
    except BaseException:
        import traceback

        queue.put(("error", traceback.format_exc()))


def _run_phase(worker, params: dict) -> dict:
    """Run one phase worker in a fresh spawn subprocess.

    Spawn (not fork) so the child's ``ru_maxrss`` starts from a clean
    interpreter baseline instead of inheriting the parent's peak.  A plain
    ``Process`` rather than a ``Pool`` worker: pool children are daemonic
    and may not have children of their own, which would forbid the
    parallel-summarize phase from spawning its warm worker pool.
    """
    context = multiprocessing.get_context("spawn")
    queue = context.SimpleQueue()
    proc = context.Process(target=_phase_entry, args=(worker, params, queue))
    proc.start()
    proc.join()
    if queue.empty():
        raise RuntimeError(
            f"scale phase {worker.__name__} subprocess died "
            f"(exit code {proc.exitcode}) without reporting a result")
    status, payload = queue.get()
    if status != "ok":
        raise RuntimeError(
            f"scale phase {worker.__name__} failed:\n{payload}")
    return payload


# ---------------------------------------------------------------------------
# Document assembly.


def measure_tier(site_count: int, *, seed: int = DEFAULT_SEED,
                 workers: int = 4, backend: str = "serial") -> dict:
    """Crawl → export → summarize one tier, each phase in a subprocess."""
    with tempfile.TemporaryDirectory(prefix="repro-scale-") as scratch:
        scratch_path = Path(scratch)
        base = {"site_count": site_count, "seed": seed, "workers": workers,
                "backend": backend}
        store_path = scratch_path / "crawl.sqlite"
        tier = {
            "site_count": site_count,
            "crawl": _run_phase(_crawl_worker, {
                **base, "store_path": str(store_path)}),
            "export": _run_phase(_export_worker, {
                "store_path": str(store_path),
                "out_path": str(scratch_path / "crawl.jsonl")}),
            "summarize": _run_phase(_summarize_worker, {
                "store_path": str(store_path)}),
        }
        parallel = _run_phase(_summarize_worker, {
            "store_path": str(store_path), "summarize_workers": workers})
        parallel["identical_to_serial"] = (
            parallel["digest"] == tier["summarize"]["digest"])
        parallel["speedup_vs_serial"] = (
            round(tier["summarize"]["seconds"] / parallel["seconds"], 2)
            if parallel["seconds"] else None)
        tier["summarize_parallel"] = parallel
    return tier


def _phases(report: dict) -> "list[dict]":
    return [tier[phase] for tier in report["tiers"]
            for phase in ("crawl", "export", "summarize")]


def _race_unmet(report: dict) -> "str | None":
    smallest = min(tier["site_count"] for tier in report["tiers"])
    reason = process_2x_unmet(report["cpu_count"], smallest)
    return reason and f"no backend race: {reason}"


def _largest_parallel_faster(report: dict) -> bool:
    largest = max(report["tiers"], key=lambda tier: tier["site_count"])
    return (largest["summarize_parallel"]["seconds"]
            < largest["summarize"]["seconds"])


def _needs_cores(report: dict) -> "str | None":
    cpus = report["cpu_count"]
    return None if cpus >= 2 else (
        f"single-CPU runner (cpu_count={cpus}): parallel summarize cannot "
        "beat serial without cores")


SCALE_GATES = (
    Gate("peak_rss_within_bound", lambda r: all(
        phase["peak_rss_bytes"] < RSS_BOUND_BYTES for phase in _phases(r))),
    Gate("store_share_within_bound", lambda r: all(
        tier["crawl"]["store_share"] <= STORE_SHARE_BOUND
        for tier in r["tiers"])),
    Gate("crawl_throughput_positive", lambda r: all(
        tier["crawl"]["sites_per_second"] > 0 for tier in r["tiers"])),
    Gate("export_covers_sites", lambda r: all(
        tier["export"]["visits"] == tier["site_count"]
        for tier in r["tiers"])),
    Gate("summarize_covers_sites", lambda r: all(
        tier[mode]["attempted"] == tier["site_count"] for tier in r["tiers"]
        for mode in ("summarize", "summarize_parallel"))),
    Gate("memo_rate_above_bound",
         lambda r: r["memo"]["hit_rate"] > MEMO_RATE_BOUND),
    Gate("memo_summaries_identical",
         lambda r: r["memo"]["summaries_identical"]),
    Gate("summarize_parallel_identical", lambda r: all(
        tier["summarize_parallel"]["identical_to_serial"]
        for tier in r["tiers"])),
    Gate("process_2x_serial", lambda r: r["backend_race"]["speedup"]
         >= PROCESS_SPEEDUP_BOUND, _race_unmet),
    Gate("summarize_parallel_faster", _largest_parallel_faster,
         _needs_cores),
)


def collect_scale(tiers: "tuple[int, ...] | None" = None, *,
                  seed: int = DEFAULT_SEED, workers: int = 4,
                  backend: "str | None" = None) -> dict:
    """The full BENCH_scale.json document.

    ``backend=None`` resolves to ``process`` on a multi-core host and
    ``serial`` on a single core (where process churn only adds overhead).
    """
    chosen = tuple(tiers) if tiers is not None else configured_tiers()
    host = host_facts()
    if backend is None:
        backend = "process" if host["cpu_count"] > 1 else "serial"
    report = {
        "seed": seed,
        "workers": workers,
        "backend": backend,
        **host,
        "tiers": [measure_tier(tier, seed=seed, workers=workers,
                               backend=backend)
                  for tier in chosen],
        # The memo-rate calibration stays on the serial backend: the hit
        # rate is a single-process property, and process workers each
        # start with cold memos.
        "memo": _run_phase(_memo_worker, {
            "site_count": MEMO_SITES, "seed": seed, "workers": workers,
            "backend": "serial"}),
    }
    if _race_unmet(report) is None:
        report["backend_race"] = _backend_race(
            min(chosen), seed=seed, workers=workers)
    return evaluate(report, SCALE_GATES)


def _backend_race(site_count: int, *, seed: int, workers: int) -> dict:
    """Same store-backed crawl, serial vs warm process pool — the
    headline 2× claim, measured rather than asserted."""
    timings = {}
    with tempfile.TemporaryDirectory(prefix="repro-race-") as scratch:
        for race_backend in ("serial", "process"):
            result = _run_phase(_crawl_worker, {
                "site_count": site_count, "seed": seed, "workers": workers,
                "backend": race_backend,
                "store_path": str(Path(scratch) / f"{race_backend}.sqlite")})
            timings[race_backend] = result["seconds"]
    return {
        "site_count": site_count,
        "workers": workers,
        "serial_seconds": timings["serial"],
        "process_seconds": timings["process"],
        "speedup": round(timings["serial"] / timings["process"], 2),
    }
