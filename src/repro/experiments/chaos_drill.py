"""The chaos drill: prove the crawl supervisor self-heals (DESIGN.md §4k).

The drill runs the same crawl twice on the process backend:

1. a **crash-free baseline** (no supervision, no injection) whose JSONL
   export is the ground truth;
2. a **chaos run** under supervision, with a seeded
   :class:`~repro.crawler.chaos.ChaosPolicy` deterministically injecting
   worker deaths (``os._exit`` at chunk pickup), a hang (a chunk that sleeps
   far past its watchdog deadline), a poison rank (kills its worker on
   *every* attempt) and a merge-time ``sqlite3.OperationalError``.

The chaos run must complete without raising, and its export must be
byte-identical (SHA-256) to the baseline's export minus exactly the
quarantined poison ranks — recovery replays pure ``(seed, rank)`` visits,
so surviving a crash can never change the dataset.  Recovery telemetry
(rebuilds, watchdog hangs, merge retries, quarantines) must match the
injection plan, and the disabled-supervision overhead estimate must stay
under :data:`OVERHEAD_BOUND` (the supervised dispatch loop only adds
``is None`` branches and one empty-requeue check to the unsupervised
path, measured the same way the observability bench prices disabled
hooks).  Every strike comes from a name — the chunk a dead worker held,
or the watchdog's hung chunk — and a crash loses only that chunk, so the
poison rank is bisected down and quarantined while the other workers
keep crawling.

``benchmarks/bench_perf_chaos.py`` runs this at ``REPRO_CHAOS_SITES``
scale and writes ``BENCH_chaos.json``, whose gate table is
:data:`CHAOS_GATES`.
"""

from __future__ import annotations

import glob
import hashlib
import math
import tempfile
import time
from collections import deque
from pathlib import Path

from repro.crawler.chaos import ChaosPolicy
from repro.crawler.pool import CrawlerPool
from repro.crawler.storage import CrawlStore, export_jsonl
from repro.crawler.supervisor import SupervisorConfig
from repro.crawler.telemetry import CrawlTelemetry
from repro.experiments import runner
from repro.experiments.gates import Gate, evaluate, host_facts
from repro.synthweb.generator import SyntheticWeb

#: Maximum share of a chunk's duration the disabled supervisor may cost.
OVERHEAD_BOUND = 0.02

#: Watchdog floor for drills — generous against scheduler noise, small
#: enough that the injected hang costs seconds, not the default 30 s.
DRILL_WATCHDOG_FLOOR_SECONDS = 6.0

#: How long the injected hang sleeps — far past any drill deadline, so
#: only the watchdog (never the sleep expiring) can end it.
DRILL_HANG_SECONDS = 900.0


def rebuild_budget(*, kills: int, hangs: int, poisons: int,
                   max_chunk_size: int) -> int:
    """A rebuild budget with headroom for the injection plan.

    Each rebuild is one worker respawn.  Each kill/hang costs one.  Each
    poison rank costs its strike crashes and one crash per bisection
    level (``log2`` of the largest chunk it can hide in), since the dead
    worker's sentinel names its chunk each time; the rest is headroom
    for workers that die between chunks, which requeue nothing.
    """
    per_poison = 2 + 1 + math.ceil(math.log2(max(2, max_chunk_size))) + 2
    return kills + hangs + poisons * per_poison + 4


def supervision_off_cost(iterations: int = 200_000) -> float:
    """Seconds per chunk the *disabled* supervisor adds to dispatch.

    With ``supervisor=None`` the dispatch loop differs from the
    pre-supervision backend only by a handful of ``is None`` and
    empty-deque branches per chunk (strike bookkeeping and the watchdog
    are skipped).  Timing those branches directly
    beats an A/B wall-clock race, which at real crawl scale is noise-
    dominated (same reasoning as the observability bench's disabled-hook
    pricing).
    """
    sup = None
    chaos = None
    requeued: deque = deque()
    sink = 0
    start = time.perf_counter()
    for _ in range(iterations):
        # The per-chunk branch census of the unsupervised dispatch path:
        # top-up (requeued), submit, result handling, merge attempts and
        # the worker-side chaos hook.
        if requeued:
            sink += 1
        if sup is not None:
            sink += 1
        if sup is not None:
            sink += 1
        if sup is not None:
            sink += 1
        if sup is not None:
            sink += 1
        if chaos is not None:
            sink += 1
        if chaos is not None:
            sink += 1
    elapsed = time.perf_counter() - start
    assert sink == 0
    return elapsed / iterations


def _export_digest(store: CrawlStore, path: Path,
                   exclude: "frozenset[int] | set[int]" = frozenset(),
                   ) -> "tuple[str, int]":
    count = export_jsonl(
        (visit for visit in store.iter_visits()
         if visit.rank not in exclude), path)
    return hashlib.sha256(path.read_bytes()).hexdigest(), count


def _planned(report: dict, kind: str) -> list:
    return report["injection_plan"][kind]


def _fired_per_plan(report: dict, kind: str) -> bool:
    return report["injections_fired"][kind] == _planned(report, kind)


def _crash_recovery_counts(report: dict) -> bool:
    stats = report["supervisor"]
    return (stats["rebuilds"] >= len(_planned(report, "kill"))
            + len(_planned(report, "hang"))
            and stats["requeued_ranks"] > 0)


def _hang_caught(report: dict) -> bool:
    return (report["supervisor"]["watchdog_hangs"]
            >= len(_planned(report, "hang"))
            and _fired_per_plan(report, "hang"))


def _merge_retried(report: dict) -> bool:
    return (report["supervisor"]["merge_retries"]
            >= len(_planned(report, "merge"))
            and _fired_per_plan(report, "merge"))


def _unless_planned(kind: str, reason: str):
    return lambda report: None if _planned(report, kind) else reason


def _visits_match(report: dict) -> bool:
    quarantined = report["quarantine_report"]["quarantined_ranks"]
    return report["chaos"]["visits"] == report["site_count"] - len(
        quarantined)


CHAOS_GATES = (
    # A drill that raised never reaches the report.
    Gate("chaos_run_completed", lambda r: "chaos" in r),
    # Byte identity: chaos export == baseline export minus exactly the
    # quarantined ranks.
    Gate("byte_identical_modulo_quarantine", lambda r: r["chaos"][
        "export_sha256"] == r["chaos"]["truth_minus_quarantine_sha256"]),
    Gate("visits_match_sites_minus_quarantine", _visits_match),
    Gate("quarantine_matches_poison_plan", lambda r: sorted(
        r["quarantine_report"]["quarantined_ranks"])
        == sorted(_planned(r, "poison"))),
    Gate("kills_fired_per_plan", lambda r: _fired_per_plan(r, "kill")),
    Gate("rebuilds_within_budget",
         lambda r: r["supervisor"]["rebuilds"] <= r["rebuild_budget"]),
    Gate("crash_recovery_counts", _crash_recovery_counts),
    Gate("no_sidecar_leftovers", lambda r: not r["sidecar_leftovers"]),
    Gate("hang_caught_by_watchdog", _hang_caught,
         _unless_planned("hang", "no hangs in the injection plan")),
    Gate("merge_retry_recovered", _merge_retried,
         _unless_planned("merge", "no merge errors in the plan")),
    Gate("supervision_off_overhead_under_bound", lambda r: r[
        "supervision_off_overhead"]["share_of_chunk"] < OVERHEAD_BOUND),
)


def collect_chaos(site_count: int, *, seed: int = runner.DEFAULT_SEED,
                  workers: int = 4, kills: int = 3, hangs: int = 1,
                  poisons: int = 1, merge_errors: int = 1,
                  chaos_seed: int = 97) -> dict:
    """Run the drill and return the ``BENCH_chaos.json`` document."""
    from repro.crawler.backends import MAX_CHUNK_SIZE, TARGET_CHUNK_SECONDS

    web = SyntheticWeb(site_count, seed=seed)
    budget = rebuild_budget(kills=kills, hangs=hangs, poisons=poisons,
                            max_chunk_size=MAX_CHUNK_SIZE)
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmpdir:
        tmp = Path(tmpdir)

        # Crash-free baseline: the ground truth bytes.
        baseline_store = CrawlStore(tmp / "baseline.sqlite")
        baseline_pool = CrawlerPool(web, workers=workers, backend="process")
        started = time.perf_counter()
        baseline_pool.run(store=baseline_store, collect=False)
        baseline_seconds = time.perf_counter() - started

        # Chaos run under supervision.
        chaos = ChaosPolicy.plan(
            site_count, seed=chaos_seed, kills=kills, hangs=hangs,
            poisons=poisons, merge_errors=merge_errors,
            state_dir=str(tmp / "chaos-state"),
            hang_seconds=DRILL_HANG_SECONDS)
        config = SupervisorConfig(
            max_pool_rebuilds=budget,
            watchdog_floor_seconds=DRILL_WATCHDOG_FLOOR_SECONDS)
        chaos_store = CrawlStore(tmp / "chaos.sqlite")
        telemetry = CrawlTelemetry()
        chaos_pool = CrawlerPool(web, workers=workers, backend="process")
        started = time.perf_counter()
        chaos_pool.run(store=chaos_store, collect=False, chaos=chaos,
                       supervisor=config, telemetry=telemetry)
        chaos_seconds = time.perf_counter() - started

        stats = chaos_pool.last_supervisor_stats
        fired = chaos.fired()
        snapshot = telemetry.snapshot()
        quarantined = set(snapshot.quarantined_ranks)
        quarantine_rows = chaos_store.quarantine_rows()
        leftovers = sorted(glob.glob(str(tmp / "*.wchunk-*")))

        # Byte identity: chaos export == baseline export minus exactly
        # the quarantined ranks.
        chaos_sha, chaos_count = _export_digest(
            chaos_store, tmp / "chaos.jsonl")
        truth_sha, truth_count = _export_digest(
            baseline_store, tmp / "baseline-minus-quarantine.jsonl",
            exclude=quarantined)
        baseline_sha, baseline_count = _export_digest(
            baseline_store, tmp / "baseline.jsonl")
        baseline_store.close()
        chaos_store.close()

    per_chunk = supervision_off_cost()
    plan = chaos.planned()
    return evaluate({
        "site_count": site_count, "seed": seed, "workers": workers,
        **host_facts(),
        "rebuild_budget": budget,
        "injection_plan": {kind: list(ranks)
                           for kind, ranks in plan.items()},
        "injections_fired": {kind: list(ranks)
                             for kind, ranks in fired.items()},
        "baseline": {"seconds": round(baseline_seconds, 3),
                     "visits": baseline_count,
                     "export_sha256": baseline_sha},
        "chaos": {"seconds": round(chaos_seconds, 3),
                  "visits": chaos_count,
                  "export_sha256": chaos_sha,
                  "truth_minus_quarantine_sha256": truth_sha,
                  "truth_minus_quarantine_visits": truth_count},
        "supervisor": stats,
        "quarantine_report": {
            "quarantined_ranks": sorted(quarantined),
            "rows": [{"rank": rank, "reason": reason, "detail": detail}
                     for rank, reason, detail in quarantine_rows],
        },
        "supervision_off_overhead": {
            "per_chunk_seconds": per_chunk,
            "target_chunk_seconds": TARGET_CHUNK_SECONDS,
            "share_of_chunk": per_chunk / TARGET_CHUNK_SECONDS,
            "bound": OVERHEAD_BOUND,
        },
        "sidecar_leftovers": leftovers,
    }, CHAOS_GATES)
