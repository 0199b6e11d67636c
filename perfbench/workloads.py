"""The three benchmark workloads: inputs, one timed pass, and its oracle.

Every workload has a fixed size.  ``setup`` builds the inputs and the
reference outputs (by a path independent of the one timed where one
exists); ``run_pass`` does one timed pass over the fixed input from fresh
state and checks its outputs against the reference.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import multiprocessing
import os
import random
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

_clock = time.perf_counter

#: Injection plan of the recover workload: worker kills, poison ranks and
#: merge errors, and no hang (no timer may sit in a measured path).  The
#: ranks come from a fixed seed and lie in the first twentieth of the input,
#: so every run recovers from the same failures, settled before half the
#: sites are in; ``--seed`` varies the web.
CHAOS_SEED = 97
CHAOS_KILLS = 3
CHAOS_POISONS = 1
CHAOS_MERGE_ERRORS = 1
CHAOS_SPAN = 0.05


@dataclass
class PassResult:
    """One timed pass over the workload's fixed input."""

    seconds: float
    sites: int
    failed: int = 0
    digests: dict = field(default_factory=dict)
    #: Per-site completion latency samples in milliseconds.
    latencies_ms: list = field(default_factory=list)
    problems: list = field(default_factory=list)


def export_digest(visits, path: Path) -> str:
    """SHA-256 of the JSONL export of ``visits`` (the store's full bytes)."""
    from repro.crawler.storage import export_jsonl

    export_jsonl(visits, path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    path.unlink()
    return digest


def summary_digest(summary) -> str:
    text = json.dumps(dataclasses.asdict(summary), sort_keys=True,
                      default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def json_digest(document) -> str:
    text = json.dumps(document, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def stamped(visits, stamps: list):
    """Pass ``visits`` through, noting when the consumer took each one."""
    for visit in visits:
        stamps.append(_clock())
        yield visit


def completion_ms(start: float, stamps: list,
                  weights: "list | None" = None) -> list:
    """Per-site completion latency: every site of a pass is due when the
    pass starts, so a site's latency is the time from the start until the
    completion event that included it (``weights`` sites per event)."""
    out = []
    for index, stamp in enumerate(stamps):
        count = weights[index] if weights is not None else 1
        out.extend([(stamp - start) * 1000.0] * count)
    return out


def fresh_caches() -> None:
    """Start a pass from cold program caches, like a new process would."""
    from repro.policy.memo import clear_parser_caches

    clear_parser_caches()
    gc.collect()


def reap_workers(timeout: float = 30.0) -> None:
    """Shut the warm worker pool down and wait until every worker exited."""
    from repro.crawler.backends import shutdown_warm_pool

    shutdown_warm_pool()
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            for child in multiprocessing.active_children():
                child.kill()
            multiprocessing.active_children()
            raise RuntimeError("worker processes outlived the pass")
        time.sleep(0.01)


class Workload:
    name = ""
    #: Fixed input size per ``--size``.
    sizes: dict = {}
    #: Seconds of ``--seconds`` per pass: fixes the number of passes
    #: (never the size of a pass).  About one pass's time on a 2-vCPU
    #: host; less where a workload needs more passes to be steady.
    pass_seconds = 1.0
    #: Independent set-ups timed per run (``setup_s`` is their median).
    setups = 3

    def __init__(self, seed: int, size: str) -> None:
        self.seed = seed
        self.size = size
        self.params = dict(self.sizes[size])
        #: Called as the timed phase of a pass starts and ends (the traced
        #: run records spans only in between).
        self.on_start = self.on_end = lambda: None

    def begin(self) -> float:
        self.on_start()
        return _clock()

    def end(self, start: float) -> float:
        seconds = _clock() - start
        self.on_end()
        return seconds

    def passes_for(self, seconds: float) -> int:
        return max(1, round(seconds / self.pass_seconds))


class Pipeline(Workload):
    """Serial crawl → store → verify → streaming summary."""

    name = "pipeline"
    sizes = {"full": {"sites": 4000}, "smoke": {"sites": 150}}
    #: A pass takes about 2.8 s; pipeline gets eight per run because its
    #: serial throughput is the most sensitive to slow periods of the host.
    pass_seconds = 1.9

    def setup(self, where: Path) -> dict:
        from repro.analysis.summary import summarize
        from repro.crawler.pool import CrawlerPool
        from repro.synthweb.generator import SyntheticWeb

        sites = self.params["sites"]
        web = SyntheticWeb(sites, seed=self.seed)
        for rank in range(sites):
            web.site(rank)
        # Reference: the same crawl kept in memory, never stored.
        dataset = CrawlerPool(web, workers=1, backend="serial").run()
        reference = {
            "export": export_digest(dataset.visits, where / "reference.jsonl"),
            "summary": summary_digest(summarize(dataset, parallel=False)),
        }
        return {"web": web, "reference": reference}

    def run_pass(self, state: dict, where: Path) -> PassResult:
        from repro.analysis.summary import summarize_streaming
        from repro.crawler.pool import CrawlerPool
        from repro.crawler.storage import CrawlStore

        web = state["web"]
        sites = web.site_count
        stamps: list = []
        store = CrawlStore(where / "crawl.sqlite")
        try:
            fresh_caches()
            pool = CrawlerPool(web, workers=1, backend="serial")
            start = self.begin()
            pool.run(store=store, collect=False)
            store.flush()
            report = store.verify()
            # A site is complete once the summary has folded it in.
            summary = summarize_streaming(stamped(store.iter_visits(),
                                                  stamps))
            seconds = self.end(start)
            digests = {
                "export": export_digest(store.iter_visits(),
                                        where / "export.jsonl"),
                "summary": summary_digest(summary),
            }
        finally:
            store.close()
        result = PassResult(seconds, sites, digests=digests,
                            latencies_ms=completion_ms(start, stamps))
        if not report.ok or report.verified_rows != sites:
            result.problems.append(
                f"verify: {report.verified_rows} verified, "
                f"{len(report.corrupt)} corrupt")
        return result


class Reanalyze(Workload):
    """Re-read two stored era crawls: streaming summaries, the in-memory
    summary and the era diff."""

    name = "reanalyze"
    sizes = {"full": {"sites": 2500}, "smoke": {"sites": 120}}
    #: A pass takes about 1.5 s: ten per run.
    pass_seconds = 1.5

    def setup(self, where: Path) -> dict:
        from repro.analysis.drift import diff_visits
        from repro.analysis.summary import summarize
        from repro.crawler.storage import CrawlStore
        from repro.synthweb.eras import Era, era_context

        sites = self.params["sites"]
        paths = {}
        datasets = {}
        for era in (Era.Y2022, Era.Y2024):
            # What repro.experiments.drift_study.build_era_store does, with
            # the in-memory dataset kept as the reference.
            ctx = era_context(era, sites, seed=self.seed, workers=1,
                              backend="serial", use_cache=False)
            path = where / f"era-{era.value}.sqlite"
            with CrawlStore(path) as store:
                store.save_dataset(ctx.dataset)
            paths[era.value] = path
            datasets[era.value] = ctx.dataset
        reference = {
            "summary_2022": summary_digest(
                summarize(datasets["2022"], parallel=False)),
            "summary_2024": summary_digest(
                summarize(datasets["2024"], parallel=False)),
            "diff": json_digest(diff_visits(
                datasets["2022"].visits, datasets["2024"].visits,
                labels=("2022", "2024")).to_json()),
        }
        reference["dataset_summary"] = reference["summary_2024"]
        return {"paths": paths, "reference": reference, "sites": sites}

    def run_pass(self, state: dict, where: Path) -> PassResult:
        from repro.analysis.drift import diff_stores
        from repro.analysis.summary import summarize, summarize_streaming
        from repro.crawler.storage import CrawlStore

        paths = state["paths"]
        # A site read completes as a streaming summary folds it, or when
        # the in-memory summary or the diff returns.
        stamps: list = []
        weights: list = []
        fresh_caches()
        start = self.begin()
        out = {}
        for label in ("2022", "2024"):
            with CrawlStore(paths[label]) as store:
                out[f"summary_{label}"] = summarize_streaming(
                    stamped(store.iter_visits(), stamps))
        weights.extend([1] * len(stamps))
        with CrawlStore(paths["2024"]) as store:
            out["dataset_summary"] = summarize(store.load_dataset())
        stamps.append(_clock())
        weights.append(state["sites"])
        diff = diff_stores(paths["2022"], paths["2024"],
                           labels=("2022", "2024"))
        stamps.append(_clock())
        weights.append(2 * state["sites"])
        seconds = self.end(start)
        digests = {key: summary_digest(value) for key, value in out.items()}
        digests["diff"] = json_digest(diff.to_json())
        # Each stored site is read once by each of the five reads.
        return PassResult(seconds, 5 * state["sites"], digests=digests,
                          latencies_ms=completion_ms(start, stamps, weights))


class Recover(Workload):
    """Supervised process-backend crawl through a seeded chaos plan."""

    name = "recover"
    sizes = {"full": {"sites": 4000}, "smoke": {"sites": 300}}
    #: A pass takes about 2 s: seven per run.
    pass_seconds = 2.1

    def setup(self, where: Path) -> dict:
        from repro.crawler.chaos import ChaosPolicy
        from repro.crawler.pool import CrawlerPool
        from repro.synthweb.generator import SyntheticWeb

        sites = self.params["sites"]
        web = SyntheticWeb(sites, seed=self.seed)
        ranks = random.Random(CHAOS_SEED).sample(
            range(int(sites * CHAOS_SPAN)),
            CHAOS_KILLS + CHAOS_POISONS + CHAOS_MERGE_ERRORS)
        plan = ChaosPolicy(
            kill_ranks=ranks[:CHAOS_KILLS],
            poison_ranks=ranks[CHAOS_KILLS:CHAOS_KILLS + CHAOS_POISONS],
            merge_error_ranks=ranks[CHAOS_KILLS + CHAOS_POISONS:],
            state_dir=str(where / "chaos"), seed=CHAOS_SEED)
        poison = set(plan.poison_ranks)
        # Reference: a serial crawl without chaos, minus the poison ranks.
        dataset = CrawlerPool(web, workers=1, backend="serial").run()
        reference = {"export": export_digest(
            (v for v in dataset.visits if v.rank not in poison),
            where / "reference.jsonl"), "quarantined": sorted(poison)}
        return {"web": web, "plan": plan, "reference": reference}

    def run_pass(self, state: dict, where: Path) -> PassResult:
        from repro.crawler.backends import MAX_CHUNK_SIZE
        from repro.crawler.pool import CrawlerPool
        from repro.crawler.storage import CrawlStore
        from repro.crawler.supervisor import SupervisorConfig
        from repro.experiments.chaos_drill import rebuild_budget

        web = state["web"]
        sites = web.site_count
        chaos = dataclasses.replace(state["plan"],
                                    state_dir=str(where / "chaos"))
        config = SupervisorConfig(
            max_pool_rebuilds=rebuild_budget(
                kills=CHAOS_KILLS, hangs=0, poisons=CHAOS_POISONS,
                max_chunk_size=MAX_CHUNK_SIZE),
            watchdog_poll_seconds=0)
        stamps: list = []
        done_counts: list = []

        def progress(done, total):
            stamps.append(_clock())
            done_counts.append(done)

        store = CrawlStore(where / "crawl.sqlite")
        try:
            fresh_caches()
            pool = CrawlerPool(web, workers=len(os.sched_getaffinity(0)),
                               backend="process")
            start = self.begin()
            pool.run(progress=progress, store=store, collect=False,
                     chaos=chaos, supervisor=config)
            store.flush()
            seconds = self.end(start)
            stats = dict(pool.last_supervisor_stats or {})
            stats.pop("events", None)
            quarantined = set(stats.get("quarantined_ranks", ()))
            digests = {"export": export_digest(
                (v for v in store.iter_visits() if v.rank not in quarantined),
                where / "export.jsonl"), "quarantined": sorted(quarantined)}
        finally:
            store.close()
            reap_workers()
        weights = [b - a for a, b in zip([0] + done_counts, done_counts)]
        result = PassResult(seconds, sites, digests=digests,
                            latencies_ms=completion_ms(start, stamps, weights))
        result.stats = stats
        result.schedule = list((pool.last_chunk_schedule or {})
                               .get("sizes", ()))
        result.chunks = (pool.last_run_stats or {}).get("chunks", 0)
        fired = chaos.fired()
        if fired["kill"] != chaos.kill_ranks:
            result.problems.append("planned kills did not all fire")
        if (fired["merge"] != chaos.merge_error_ranks
                or stats.get("merge_retries") != CHAOS_MERGE_ERRORS):
            result.problems.append(
                f"planned merge errors {chaos.merge_error_ranks} fired as "
                f"{fired['merge']} with {stats.get('merge_retries')} retries")
        leftovers = sorted(p.name for p in where.iterdir()
                           if ".wchunk-" in p.name or ".shard-" in p.name)
        if leftovers:
            result.problems.append(f"sidecars left behind: {leftovers}")
        return result


def percentile(values: list, q: int) -> float:
    """The ``q``-th percentile (1..99) as ``statistics.quantiles`` gives it."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]
