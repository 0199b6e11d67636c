"""Process-based crawl backend: warm owned workers crawling rank chunks.

The paper ran 40 genuinely parallel crawlers; our crawl is pure-Python
CPU-bound work, so threads would gain nothing from extra workers (the GIL
serialises them).  This module delivers real parallelism: the rank list is
cut into contiguous chunks and each chunk is crawled by a worker *process*
running an ordinary serial :class:`~repro.crawler.pool.CrawlerPool`.

The workers are owned ``multiprocessing`` processes, each with one duplex
pipe to the parent and at most one job at a time.  The parent waits on the
pipes and the process sentinels together
(``multiprocessing.connection.wait``), so it always knows which chunk each
worker holds: a dead worker's sentinel names its chunk, only that worker is
respawned, and the survivors keep crawling (DESIGN.md §4k).

Three mechanisms keep the workers fast (OpenWPM-style crawlers win by
keeping long-lived browser workers hot, not by per-task process churn):

* **Warm worker state.**  Workers are long-lived: a module-level pool
  persists across runs, and each worker keeps its constructed
  :class:`~repro.synthweb.generator.SyntheticWeb` and serial pool in
  process globals keyed by a fingerprint of the constructor parameters.
  A worker rebuilds the web only when the web actually changes, instead
  of once per chunk; the worker initializer also pre-warms the interned
  parser caches with one throwaway visit.

* **Sidecar persistence.**  With ``store=``, chunk results no longer
  ship full pickled :class:`~repro.crawler.records.SiteVisit` lists through
  the result pipe: the worker writes its chunk into a private SQLite
  sidecar (``<store>.wchunk-…``) via the batched
  :meth:`~repro.crawler.storage.CrawlStore.save_visits` path and returns
  only ranks, checksums and telemetry/observability deltas; the parent
  folds the sidecar in with the ATTACH-based
  :meth:`~repro.crawler.storage.CrawlStore.merge_from`.  ``collect=True``
  additionally ships the visits as one protocol-5 pickle blob.

* **Autotuned chunking.**  The first wave of chunks is small so the parent
  can measure per-site cost from worker timings; later chunks grow toward
  a target duration (:data:`TARGET_CHUNK_SECONDS`).  Chunk sizes never
  affect dataset bytes — results merge in rank order — and the realised
  schedule is recorded on the pool (``last_chunk_schedule``) so a rerun can
  replay the exact partition via ``CrawlerPool(chunk_schedule=...)``.

Sites are pure functions of ``(seed, rank)``, so a worker needs only the
web's constructor parameters and its chunk of ranks — no dataset is pickled
into workers, and chunk results merge deterministically: serial and
process runs produce byte-identical datasets.

Because closures don't pickle, per-visit fetcher construction crosses the
process boundary as a :class:`FetcherSpec` — a small picklable recipe the
worker evaluates against its own :class:`~repro.synthweb.generator.SyntheticWeb`.
Pools built with a custom ``fetcher_factory`` callable therefore cannot use
the process backend and get a clear error instead of a pickling traceback.
"""

from __future__ import annotations

import atexit
import hashlib
import itertools
import logging
import multiprocessing
import multiprocessing.connection
import os
import pickle
import signal
import sqlite3
import time
import traceback
from collections import deque
# Unused here: the parent waits with ``multiprocessing.connection.wait``.
# perfbench/spans.py still replaces ``backends.wait`` by name when it
# traces a run, and fails if the binding is missing.
from concurrent.futures import wait  # noqa: F401
from concurrent.futures.process import BrokenProcessPool
from contextlib import suppress
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

from repro.browser.page import Fetcher
from repro.crawler.chaos import ChaosPolicy
from repro.crawler.crawler import CrawlConfig
from repro.crawler.fetcher import SyntheticFetcher
from repro.crawler.records import SiteVisit
from repro.crawler.resilience import FaultInjectingFetcher, RetryPolicy
from repro.crawler.supervisor import POISON_VISIT, ChunkSupervisor, \
    RecoveryPlan, SupervisorConfig
from repro.crawler.telemetry import ChunkTelemetry, CrawlTelemetry
from repro.obs import ingest_job, observe_job
from repro.obs import metrics as _metrics
from repro.obs.tracing import TRACER
from repro.policy.engine import PermissionsPolicyEngine
from repro.synthweb.generator import GeneratorRates, SyntheticWeb
from repro.synthweb.profiles import WidgetProfile

if TYPE_CHECKING:  # pragma: no cover - import cycle: pool imports backends
    from repro.crawler.pool import CrawlerPool
    from repro.crawler.storage import CrawlStore

logger = logging.getLogger(__name__)

#: Legacy fixed-chunking factor: before the adaptive scheduler, runs were
#: cut into exactly ``workers × CHUNKS_PER_WORKER`` chunks.  Kept exported
#: — tests still use it to reproduce chunk-boundary layouts, and it bounds
#: the fallback partition for tiny target lists.
CHUNKS_PER_WORKER = 4

#: First-wave chunk size.  Small enough that every worker reports a timing
#: quickly (the scheduler's only cost model is measured sites/second), big
#: enough to amortise one result-pipe round trip.
INITIAL_CHUNK_SIZE = 16

#: The scheduler grows chunks toward this duration: long enough to make
#: per-chunk overhead (submit, result pipe, sidecar merge) negligible,
#: short enough that stop requests and progress stay responsive.
TARGET_CHUNK_SECONDS = 0.5

#: Bounds on adaptive chunk sizes.  The cap also bounds worker memory:
#: a chunk's visits are the only dataset state a worker holds at once.
MIN_CHUNK_SIZE = 8
MAX_CHUNK_SIZE = 4096


class FetcherSpec:
    """Picklable recipe for building a per-visit fetcher in any process.

    Where :class:`~repro.crawler.pool.CrawlerPool` accepts an arbitrary
    ``fetcher_factory`` closure for in-process backends, the process
    backend needs something it can ship to workers; subclasses carry plain
    data and materialise the fetcher against the worker's own web.
    """

    def build(self, web: SyntheticWeb) -> Fetcher:
        raise NotImplementedError


@dataclass(frozen=True)
class SyntheticFetcherSpec(FetcherSpec):
    """The default fetcher: straight synthetic network, no faults."""

    def build(self, web: SyntheticWeb) -> Fetcher:
        return SyntheticFetcher(web)


@dataclass(frozen=True)
class FaultInjectionSpec(FetcherSpec):
    """Recipe for a :class:`~repro.crawler.resilience.FaultInjectingFetcher`
    wrapped around the synthetic network.  Faults are deterministic in
    (seed, url, attempt), so the same spec yields the same faults in any
    backend."""

    seed: int = 0
    failure_rate: float = 0.0
    crash_rate: float = 0.0
    latency_rate: float = 0.0
    latency_seconds: float = 5.0
    timeout_budget_seconds: float = 60.0
    failure_classes: tuple[str, ...] | None = None

    def build(self, web: SyntheticWeb) -> Fetcher:
        return FaultInjectingFetcher(
            SyntheticFetcher(web),
            seed=self.seed,
            failure_rate=self.failure_rate,
            crash_rate=self.crash_rate,
            latency_rate=self.latency_rate,
            latency_seconds=self.latency_seconds,
            timeout_budget_seconds=self.timeout_budget_seconds,
            failure_classes=self.failure_classes,
        )


def chunk_ranks(targets: Sequence[int], chunk_count: int) -> list[list[int]]:
    """Split ``targets`` into at most ``chunk_count`` contiguous,
    near-equal chunks, preserving order.  Contiguity keeps each worker's
    site cache warm on neighbouring ranks and makes kill-and-resume land
    on clean chunk boundaries."""
    if chunk_count < 1:
        raise ValueError("chunk_count must be >= 1")
    total = len(targets)
    count = min(chunk_count, total)
    if count == 0:
        return []
    base, extra = divmod(total, count)
    chunks: list[list[int]] = []
    start = 0
    for index in range(count):
        size = base + (1 if index < extra else 0)
        chunks.append(list(targets[start:start + size]))
        start += size
    return chunks


# ---------------------------------------------------------------------------
# Warm worker state.


@dataclass(frozen=True)
class _WorkerRecipe:
    """Constructor parameters for a worker's web and serial pool.

    Shipped once through the worker initializer and once per chunk job
    (the per-job copy covers pool reuse across runs whose parameters
    changed — the worker rebuilds lazily on fingerprint mismatch).
    """

    site_count: int
    seed: int
    rates: GeneratorRates
    profiles: tuple[WidgetProfile, ...]
    config: CrawlConfig
    engine: PermissionsPolicyEngine | None
    retry_policy: RetryPolicy | None
    fetcher_spec: FetcherSpec

    def web_key(self) -> bytes:
        """Pickle of the web-only parameters (the expensive half)."""
        return pickle.dumps(
            (self.site_count, self.seed, self.rates, self.profiles),
            protocol=5)


def _fingerprints(recipe: _WorkerRecipe, recipe_blob: bytes
                  ) -> tuple[str, str]:
    """(web fingerprint, pool fingerprint) — SHA-256 over the pickled
    parameters.  Two-level so fault-injection runs over the same web reuse
    the worker's constructed web and only rebuild the cheap pool."""
    return (hashlib.sha256(recipe.web_key()).hexdigest(),
            hashlib.sha256(recipe_blob).hexdigest())


# Per-worker-process globals: (fingerprint, object) pairs.  ``fork`` workers
# inherit the parent's values — the parent never calls _worker_pool in its
# own process, so these start empty in every worker.
_WORKER_WEB: "tuple[str, SyntheticWeb] | None" = None
_WORKER_POOL: "tuple[str, CrawlerPool] | None" = None
_WORKER_WEB_BUILDS = 0


def _worker_pool(recipe: _WorkerRecipe, web_fp: str, pool_fp: str
                 ) -> "CrawlerPool":
    """The worker's warm serial pool, rebuilt only on fingerprint change."""
    global _WORKER_WEB, _WORKER_POOL, _WORKER_WEB_BUILDS
    from repro.crawler.pool import CrawlerPool

    if _WORKER_WEB is None or _WORKER_WEB[0] != web_fp:
        web = SyntheticWeb(recipe.site_count, seed=recipe.seed,
                           rates=recipe.rates, profiles=recipe.profiles)
        _WORKER_WEB = (web_fp, web)
        _WORKER_WEB_BUILDS += 1
        _WORKER_POOL = None
    if _WORKER_POOL is None or _WORKER_POOL[0] != pool_fp:
        pool = CrawlerPool(_WORKER_WEB[1], workers=1, backend="serial",
                           config=recipe.config, engine=recipe.engine,
                           retry_policy=recipe.retry_policy,
                           fetcher_spec=recipe.fetcher_spec)
        _WORKER_POOL = (pool_fp, pool)
    return _WORKER_POOL[1]


def _ignore_shutdown_signals() -> None:
    """Workers shield themselves from SIGINT/SIGTERM: graceful shutdown is
    the *parent's* job (it stops handing out chunks and checkpoints what
    finished), and a signal delivered to the whole process group must not
    kill a chunk mid-crawl when the parent is about to wind down cleanly.
    """
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            signal.signal(signum, signal.SIG_IGN)
        except (ValueError, OSError):  # pragma: no cover - non-main thread
            pass


def _prewarm(pool: "CrawlerPool") -> None:
    """Crawl one throwaway site to pre-warm the interned parser caches and
    the engine's structural memos before the first real chunk arrives.

    The warm-up shares the real pool's engine but uses the plain synthetic
    fetcher; fetchers (and fault-injection state) are per-visit, and memo
    caches are semantically transparent, so the discarded visit cannot
    perturb later chunk bytes.
    """
    from repro.crawler.pool import CrawlerPool

    if pool.web.site_count < 1:
        return
    try:
        CrawlerPool(pool.web, workers=1, backend="serial",
                    config=pool.config, engine=pool._engine).run([0])
    except Exception:  # pragma: no cover - warm-up is best-effort
        logger.debug("worker warm-up crawl failed", exc_info=True)


def _init_worker(recipe_blob: bytes, web_fp: str, pool_fp: str) -> None:
    """Worker initializer: install signal shields and warm state.

    Failures are swallowed — a cold worker merely rebuilds on its first
    chunk (and surfaces the real error there).
    """
    _ignore_shutdown_signals()
    try:
        recipe = pickle.loads(recipe_blob)
        _prewarm(_worker_pool(recipe, web_fp, pool_fp))
    except Exception:  # pragma: no cover - defensive
        logger.exception("worker warm initialization failed")


class _RemoteTraceback(Exception):
    """A worker-side traceback, chained as the cause of the exception
    the parent re-raises."""


def _worker_main(conn: "multiprocessing.connection.Connection",
                 initargs: "tuple | None", inherited: list) -> None:
    """Owned worker process: initialise once, then run jobs until stopped.

    A job is ``(function, argument)``; the reply is ``(True, result)`` or
    ``(False, (exception, traceback text))``.  ``None`` or a closed pipe
    ends the loop.  ``inherited`` holds the parent's ends of the pipes a
    ``fork`` copied into this process; closing them lets a worker see EOF
    when its parent dies.
    """
    for end in inherited:
        end.close()
    if initargs is None:
        _ignore_shutdown_signals()
    else:
        _init_worker(*initargs)
    while True:
        try:
            job = conn.recv()
        except (EOFError, OSError):
            return
        if job is None:
            return
        function, argument = job
        try:
            reply = (True, function(argument))
        except Exception as exc:
            reply = (False, (exc, traceback.format_exc()))
        try:
            conn.send(reply)
        except OSError:
            return


@dataclass(eq=False)
class _Worker:
    """One owned worker process, the parent's end of its pipe, and the
    job it holds (``None`` while idle; never more than one)."""

    process: multiprocessing.process.BaseProcess
    conn: "multiprocessing.connection.Connection"
    job: object = None


class _WorkerPool:
    """N owned worker processes, each with one duplex pipe.

    The crawl dispatcher and the process-parallel summarize hand jobs to
    idle workers (:meth:`submit`) and block in :meth:`wait` on the busy
    workers' pipes and every worker's sentinel.  A dead worker is
    replaced alone (:meth:`respawn`); the others never notice.
    """

    def __init__(self, key: "tuple[int, str]", initargs: "tuple | None"):
        self.key = key
        self.context = multiprocessing.get_context(key[1])
        self.workers: list[_Worker] = []
        for _ in range(key[0]):
            self.workers.append(self._start(initargs))

    def _start(self, initargs: "tuple | None") -> _Worker:
        parent_end, child_end = self.context.Pipe()
        inherited = ([worker.conn for worker in self.workers] + [parent_end]
                     if self.context.get_start_method() == "fork" else [])
        process = self.context.Process(
            target=_worker_main, args=(child_end, initargs, inherited),
            name="repro-worker")
        process.start()
        child_end.close()
        return _Worker(process, parent_end)

    def respawn(self, worker: _Worker, initargs: "tuple | None") -> None:
        """Reap a dead (or SIGKILLed) worker and start a fresh one in its
        slot with the same initializer."""
        worker.process.join()
        worker.conn.close()
        self.workers[self.workers.index(worker)] = self._start(initargs)

    def submit(self, worker: _Worker, function: Callable,
               job: object) -> None:
        """Hand ``job`` to an idle worker; ``OSError`` if it is dead."""
        worker.conn.send((function, job))
        worker.job = job

    def wait(self, timeout: "float | None" = None
             ) -> "tuple[list[tuple[object, object]], list[_Worker]]":
        """Block until a busy worker replies or any worker dies.

        Returns ``(replies, dead)``: ``(job, result)`` per reply (its
        worker is idle again) and the workers that died, with the job a
        dead worker still held left on it.  A reply already in a dead
        worker's pipe is still received.  A job that raised in its worker
        raises here.
        """
        ready = multiprocessing.connection.wait(
            [worker.conn for worker in self.workers if worker.job is not None]
            + [worker.process.sentinel for worker in self.workers], timeout)
        replies: list[tuple[object, object]] = []
        dead: list[_Worker] = []
        for worker in self.workers:
            died = worker.process.sentinel in ready
            if worker.job is not None and (died or worker.conn in ready):
                try:
                    ok, result = worker.conn.recv()
                except (EOFError, OSError):
                    died = True
                else:
                    job, worker.job = worker.job, None
                    if not ok:
                        exc, text = result
                        raise exc from _RemoteTraceback(text)
                    replies.append((job, result))
            if died:
                dead.append(worker)
        return replies, dead

    def map(self, function: Callable, jobs: Sequence) -> list:
        """``function`` over ``jobs`` on the workers, results in job
        order.  A dead worker raises ``BrokenProcessPool``; any failure
        shuts the warm pool down first."""
        results: list = [None] * len(jobs)
        order = {id(job): index for index, job in enumerate(jobs)}
        queue, done = deque(jobs), 0
        try:
            while done < len(jobs):
                for worker in self.workers:
                    if queue and worker.job is None:
                        self.submit(worker, function, queue.popleft())
                replies, dead = self.wait()
                if dead:
                    raise BrokenProcessPool(
                        f"{len(dead)} worker process(es) died")
                for job, result in replies:
                    results[order[id(job)]] = result
                    done += 1
        except BaseException:
            shutdown_warm_pool()
            raise
        return results


# ---------------------------------------------------------------------------
# The warm pool.  One per process, reused across runs (and by the
# process-parallel summarize) so worker state stays warm; recreated only
# when the worker count or start method changes.

_WARM_POOL: "_WorkerPool | None" = None

#: Seconds :func:`shutdown_warm_pool` waits for idle workers to exit on
#: their stop message before SIGKILLing them.
_JOIN_SECONDS = 5.0


def warm_pool(workers: int, start_method: str,
              initargs: "tuple | None" = None) -> _WorkerPool:
    """The shared warm pool, created on first use.

    ``initargs`` is only consulted when a new pool must be built; an
    existing pool is reused as-is (its workers rebuild lazily from the
    per-job recipe when parameters changed).
    """
    global _WARM_POOL
    key = (workers, start_method)
    if _WARM_POOL is not None and _WARM_POOL.key != key:
        shutdown_warm_pool()
    if _WARM_POOL is None:
        _WARM_POOL = _WorkerPool(key, initargs)
    return _WARM_POOL


def _kill_executor_workers(workers: "Sequence[_Worker]") -> None:
    """SIGKILL ``workers`` and reap them: the watchdog's lever on a hung
    worker, and the teardown of busy workers and stragglers.  The name
    is older than the owned pool: perfbench/spans.py times it by name."""
    for worker in workers:
        worker.process.kill()
    for worker in workers:
        worker.process.join()


def shutdown_warm_pool() -> None:
    """Stop the warm pool (tests, atexit, failed runs).

    Idle workers get a stop message and up to :data:`_JOIN_SECONDS` to
    exit.  Busy workers (a hung chaos worker sleeps for an hour) and
    stragglers are SIGKILLed, so shutdown never waits on a chunk.
    """
    global _WARM_POOL
    pool, _WARM_POOL = _WARM_POOL, None
    if pool is None:
        return
    idle = [worker for worker in pool.workers if worker.job is None]
    for worker in idle:
        with suppress(OSError):
            worker.conn.send(None)
    deadline = time.monotonic() + _JOIN_SECONDS
    for worker in idle:
        worker.process.join(max(0.0, deadline - time.monotonic()))
    _kill_executor_workers([worker for worker in pool.workers
                            if worker.process.exitcode is None])
    for worker in pool.workers:
        worker.conn.close()


atexit.register(shutdown_warm_pool)


# ---------------------------------------------------------------------------
# Chunk jobs and results.


@dataclass(frozen=True)
class _ChunkJob:
    """Everything a worker process needs to crawl one chunk."""

    recipe: _WorkerRecipe
    web_fp: str
    pool_fp: str
    ranks: tuple[int, ...]
    #: Position of this chunk in the run (names the worker "process" in
    #: traces and telemetry).
    chunk_index: int = 0
    #: Sidecar database path the worker persists the chunk to; ``None``
    #: ships the visits through the result pipe instead.
    sidecar_path: "str | None" = None
    #: Whether the parent wants the visits back (protocol-5 pickle blob).
    collect: bool = True
    #: Whether the parent has tracing / metric collection on; the worker
    #: mirrors that state and ships the deltas back.
    trace: bool = False
    count: bool = False
    #: Deterministic failure injection (chaos drills); consulted at chunk
    #: pickup before any visit runs.
    chaos: "ChaosPolicy | None" = None


@dataclass(frozen=True)
class _ChunkResult:
    """A crawled chunk's summary plus the worker's observability deltas."""

    chunk_index: int
    ranks: tuple[int, ...]
    #: Row checksums as stored in the sidecar (empty without one).
    checksums: tuple[int, ...]
    #: Protocol-5 pickle of ``list[SiteVisit]`` when the job collected,
    #: else ``None`` (the sidecar handoff ships no visit payload at all).
    visits_blob: "bytes | None"
    #: Sidecar path the worker wrote (parent merges and deletes it).
    sidecar_path: "str | None"
    #: Worker-local telemetry delta for the chunk.
    telemetry: ChunkTelemetry
    #: Wall seconds the worker spent crawling — the scheduler's cost input.
    seconds: float
    worker_pid: int
    #: Cumulative webs constructed in this worker process (1 == fully warm).
    web_builds: int
    #: Exported span dicts (:meth:`repro.obs.tracing.Tracer.export_spans`),
    #: only when the job asked for tracing.
    spans: tuple[dict, ...] = ()
    #: Worker metrics snapshot (:meth:`~repro.obs.metrics.MetricsRegistry
    #: .snapshot`), only when the job asked for counting.
    metrics: "dict | None" = None


def _crawl_chunk(job: _ChunkJob) -> _ChunkResult:
    """Worker entry point: crawl one chunk on the warm serial pool.

    Observability mirrors the parent per job
    (:func:`repro.obs.observe_job`).  The chunk runs against a
    worker-local :class:`~repro.crawler.telemetry.CrawlTelemetry`; its
    snapshot ships back as a
    :class:`~repro.crawler.telemetry.ChunkTelemetry` delta (this is also
    how guard events cross the process boundary).
    """
    from repro.crawler.storage import CrawlStore

    with observe_job(job.trace, job.count) as export:
        pool = _worker_pool(job.recipe, job.web_fp, job.pool_fp)
        if job.chaos is not None:
            job.chaos.on_chunk(job.ranks)
        local = CrawlTelemetry()
        start = time.perf_counter()
        with TRACER.span("crawl.chunk", chunk=job.chunk_index,
                         ranks=len(job.ranks)):
            visits = list(pool.run(job.ranks, telemetry=local).visits)
        seconds = time.perf_counter() - start
        checksums: tuple[int, ...] = ()
        if job.sidecar_path is not None:
            with CrawlStore(Path(job.sidecar_path)) as sidecar:
                sidecar.save_visits(visits)
                sidecar.flush()
                checksums = tuple(
                    checksum for _, checksum
                    in sorted(sidecar.stored_checksums().items()))
        return _ChunkResult(
            chunk_index=job.chunk_index,
            ranks=job.ranks,
            checksums=checksums,
            visits_blob=(pickle.dumps(visits, protocol=5)
                         if job.collect else None),
            sidecar_path=job.sidecar_path,
            telemetry=ChunkTelemetry.from_snapshot(local.snapshot()),
            seconds=seconds,
            worker_pid=os.getpid(),
            web_builds=_WORKER_WEB_BUILDS,
            **export(),
        )


def _mp_context(name: "str | None" = None
                ) -> multiprocessing.context.BaseContext:
    """Fork where available (cheap, shares the warmed interpreter), spawn
    otherwise (macOS/Windows)."""
    if name is None:
        name = ("fork" if "fork" in multiprocessing.get_all_start_methods()
                else "spawn")
    return multiprocessing.get_context(name)


# ---------------------------------------------------------------------------
# Adaptive chunk scheduling.


class _ChunkScheduler:
    """Deterministic chunk-size planner.

    Adaptive mode starts with :data:`INITIAL_CHUNK_SIZE` chunks to measure
    per-site cost, then grows chunk sizes toward
    :data:`TARGET_CHUNK_SECONDS` using the cumulative measured rate,
    capped by a fair share of the remaining ranks so the tail stays
    balanced across workers (the cap never goes below
    :data:`MIN_CHUNK_SIZE`, so only the last chunk is smaller).  Replay
    mode consumes an explicit recorded size list and reproduces the exact
    same partition.

    Chunk sizes never affect dataset bytes (results merge in rank order),
    so adaptivity cannot break determinism; the realised schedule is still
    recorded so reruns and resumes can be audited chunk for chunk.
    """

    def __init__(self, total: int, workers: int,
                 replay: "Sequence[int] | None" = None) -> None:
        self.total = total
        self.workers = max(1, workers)
        self.replay = list(replay) if replay else None
        self.sizes: list[int] = []
        self.dispatched = 0
        self._sites_done = 0
        self._seconds_done = 0.0
        # First-wave size: INITIAL_CHUNK_SIZE, but never coarser than the
        # legacy fixed partition — tiny runs keep fine-grained chunks so
        # stop requests still land with work left to skip.
        fair_first = -(-total // (self.workers * CHUNKS_PER_WORKER))
        self._first_wave = max(1, min(INITIAL_CHUNK_SIZE, fair_first))

    def record(self, sites: int, seconds: float) -> None:
        """Feed one finished chunk's measured cost back in."""
        self._sites_done += sites
        self._seconds_done += seconds

    def observed_rate(self) -> "float | None":
        """Measured sites/second so far (``None`` before any chunk
        finishes) — also what the supervisor's watchdog derives chunk
        deadlines from."""
        if self._sites_done == 0 or self._seconds_done <= 0.0:
            return None
        return self._sites_done / self._seconds_done

    def next_size(self) -> int:
        """Size of the next chunk to dispatch; 0 when targets are spent."""
        remaining = self.total - self.dispatched
        if remaining <= 0:
            return 0
        if self.replay is not None:
            index = len(self.sizes)
            size = (self.replay[index] if index < len(self.replay)
                    else self.replay[-1])
        elif self._sites_done == 0 or self._seconds_done <= 0.0:
            size = self._first_wave
        else:
            rate = self._sites_done / self._seconds_done
            goal = int(rate * TARGET_CHUNK_SECONDS)
            # Fair share of the tail (ceil), floored so the tail does not
            # fragment into per-rank chunks; only the final remainder is
            # smaller than MIN_CHUNK_SIZE.
            fair = max(MIN_CHUNK_SIZE, -(-remaining // self.workers))
            size = min(max(MIN_CHUNK_SIZE, min(MAX_CHUNK_SIZE, goal)), fair)
        size = max(1, min(size, remaining))
        self.sizes.append(size)
        self.dispatched += size
        return size


# Run tags make sidecar names unique across concurrent pools and across a
# crashed run's leftovers (which the next run sweeps by glob anyway).
_RUN_SEQUENCE = itertools.count()


def _chunk_sidecar_path(store_path: Path, run_tag: str, index: int) -> Path:
    """Worker sidecar path: ``<store>.wchunk-<tag>-NNNN``."""
    return store_path.with_name(
        f"{store_path.name}.wchunk-{run_tag}-{index:04d}")


def _delete_sidecar(path: Path) -> None:
    """Remove one chunk sidecar and its WAL/SHM files."""
    for victim in (path, path.with_name(path.name + "-wal"),
                   path.with_name(path.name + "-shm")):
        with suppress(FileNotFoundError):
            victim.unlink()


def _sweep_chunk_sidecars(store_path: Path) -> None:
    """Delete leftover ``.wchunk-*`` files (crashed or interrupted runs).
    Their ranks never reached the main store, so the resume logic recrawls
    them; keeping the files would only leak disk."""
    for stale in store_path.parent.glob(store_path.name + ".wchunk-*"):
        with suppress(FileNotFoundError, OSError):
            stale.unlink()


def crawl_in_processes(pool: "CrawlerPool", targets: Sequence[int], *,
                       progress: "Callable[[int, int], None] | None" = None,
                       store: "CrawlStore | None" = None,
                       telemetry: "CrawlTelemetry | None" = None,
                       collect: bool = True,
                       supervisor: "SupervisorConfig | None" = None,
                       chaos: "ChaosPolicy | None" = None,
                       ) -> list[SiteVisit]:
    """Crawl ``targets`` across warm worker processes; returns visits
    rank-sorted.

    Chunks are dispatched incrementally on the adaptive schedule, one per
    worker; a worker gets its next chunk before the parent merges the one
    it returned.  With ``store=``, each worker persists its chunk to a
    sidecar store and the parent merges it — one ATTACH merge per chunk,
    so checkpointing advances in chunk-sized steps without visits ever
    crossing the result pipe.  Telemetry is applied as per-chunk deltas
    under ``chunk-NNN`` worker names.  With ``collect=False`` an empty
    list is returned (bounded-memory mode).

    On a stop request the parent hands out no more chunks but drains the
    running ones (workers ignore signals), merging whatever they finish —
    the checkpoint keeps every completed chunk.

    With ``supervisor=`` (a :class:`SupervisorConfig`), worker crashes,
    hung chunks and flaky sidecar merges are survived instead of fatal:
    the dead worker is respawned within the crash budget, its chunk is
    replayed byte-identically, repeat offenders are bisected down to the
    poison rank and quarantined (DESIGN.md §4k).  Without it, a dead
    worker raises ``BrokenProcessPool`` after the warm pool is torn down
    and leftover sidecars are swept.  ``chaos=`` injects deterministic
    failures (drills and tests).
    """
    if pool._custom_factory:
        raise ValueError(
            "the process backend cannot ship a fetcher_factory closure to "
            "worker processes; pass fetcher_spec= (a picklable FetcherSpec) "
            "instead")
    if not targets:
        return []
    web = pool.web
    recipe = _WorkerRecipe(
        site_count=web.site_count, seed=web.seed, rates=web.rates,
        profiles=web.profiles, config=pool.config, engine=pool._engine,
        retry_policy=pool.retry_policy,
        fetcher_spec=(pool.fetcher_spec if pool.fetcher_spec is not None
                      else SyntheticFetcherSpec()))
    try:
        recipe_blob = pickle.dumps(recipe, protocol=5)
    except Exception as exc:
        raise ValueError(
            f"crawl parameters are not picklable for the process backend: "
            f"{exc}") from exc
    web_fp, pool_fp = _fingerprints(recipe, recipe_blob)
    if store is not None:
        _sweep_chunk_sidecars(store.path)

    initargs = (recipe_blob, web_fp, pool_fp)
    start_method = _mp_context(pool.mp_context).get_start_method()
    sup = (ChunkSupervisor(supervisor) if supervisor is not None else None)
    pool.last_supervisor_stats = None
    template = _ChunkJob(
        recipe=recipe, web_fp=web_fp, pool_fp=pool_fp, ranks=(),
        collect=collect, trace=TRACER.enabled, count=_metrics.COUNTING,
        chaos=chaos)
    return _ProcessDispatch(
        pool=pool, targets=targets, progress=progress, store=store,
        telemetry=telemetry, sup=sup, template=template, initargs=initargs,
        workers=warm_pool(pool.workers, start_method, initargs=initargs),
        scheduler=_ChunkScheduler(len(targets), pool.workers,
                                  replay=pool.chunk_schedule),
        run_tag=f"{os.getpid():x}-{next(_RUN_SEQUENCE):x}").run()


@dataclass(eq=False)
class _ProcessDispatch:
    """The dispatch loop of one :func:`crawl_in_processes` run.

    The fields up to ``run_tag`` are the run's set-up; the rest are the
    loop's mutable state.  Each worker of ``workers`` holds at most one
    chunk, so a dead worker names its own chunk and nothing else is lost.
    :func:`_kill_executor_workers` and :func:`shutdown_warm_pool` are
    looked up as module globals at call time, so profilers can wrap them.
    """

    pool: "CrawlerPool"
    targets: Sequence[int]
    progress: "Callable[[int, int], None] | None"
    store: "CrawlStore | None"
    telemetry: "CrawlTelemetry | None"
    sup: "ChunkSupervisor | None"
    #: Every submitted job is this one with its ranks, index and sidecar.
    template: _ChunkJob
    #: The worker initializer's arguments, for respawns.
    initargs: tuple
    workers: _WorkerPool
    scheduler: _ChunkScheduler
    run_tag: str
    visits: list[SiteVisit] = field(default_factory=list)
    completed: int = 0
    quarantined_count: int = 0
    next_target: int = 0
    chunk_index: int = 0
    #: Rank tuples the supervisor wants resubmitted, drained before the
    #: scheduler hands out fresh chunks.
    requeued: "deque[tuple[int, ...]]" = field(default_factory=deque)
    web_builds_by_pid: dict[int, int] = field(default_factory=dict)
    stopped: bool = False

    def busy(self) -> list[_Worker]:
        return [worker for worker in self.workers.workers
                if worker.job is not None]

    def work_left(self) -> bool:
        return not self.stopped and bool(
            self.requeued or self.scheduler.dispatched < self.scheduler.total)

    def submit_next(self, worker: _Worker) -> bool:
        """Hand ``worker`` its next chunk; ``False`` when none is left."""
        if self.requeued:
            ranks = self.requeued.popleft()
        else:
            size = self.scheduler.next_size()
            if size <= 0:
                return False
            start = self.next_target
            self.next_target += size
            ranks = tuple(self.targets[start:start + size])
        index = self.chunk_index
        self.chunk_index += 1
        sidecar = (str(_chunk_sidecar_path(self.store.path, self.run_tag,
                                           index))
                   if self.store is not None else None)
        job = replace(self.template, ranks=ranks, chunk_index=index,
                      sidecar_path=sidecar)
        try:
            self.workers.submit(worker, _crawl_chunk, job)
        except OSError:
            # The worker died idle; its sentinel reports it, and another
            # worker takes the ranks.
            self.requeued.appendleft(ranks)
            return True
        if self.sup is not None:
            self.sup.note_submitted(index)
        return True

    def top_up(self) -> None:
        if self.pool.stop_requested and not self.stopped:
            self.stopped = True
            self.requeued.clear()
            logger.warning("crawl stop requested: draining %d running "
                           "chunk(s)", len(self.busy()))
        for worker in self.workers.workers:
            if worker.job is None and (self.stopped
                                       or not self.submit_next(worker)):
                return

    def apply_plan(self, plan: RecoveryPlan) -> None:
        # The latest failure's chunks go ahead of older requeues.
        self.requeued.extendleft(reversed(plan.requeue))
        for rank, detail in plan.quarantine:
            logger.error("quarantining poison rank %d (%s)", rank, detail)
            if self.store is not None:
                self.store.quarantine_rank(rank, reason=POISON_VISIT,
                                           detail=detail)
            if self.telemetry is not None:
                self.telemetry.record_quarantined(rank, detail=detail)
            self.quarantined_count += 1
        if plan.quarantine and self.progress is not None:
            self.progress(self.completed + self.quarantined_count,
                          len(self.targets))

    def merge_sidecar(self, result: _ChunkResult) -> bool:
        """Fold the chunk sidecar in; ``False`` = chunk lost (requeued)."""
        from repro.crawler.storage import CrawlStore
        sup, chaos = self.sup, self.template.chaos
        sidecar = Path(result.sidecar_path)
        attempts = sup.config.merge_attempts if sup is not None else 1
        failure: "sqlite3.OperationalError | None" = None
        for attempt in range(attempts):
            try:
                if chaos is not None:
                    chaos.before_merge(result.ranks)
                with CrawlStore(sidecar) as source:
                    self.store.merge_from(source)
                _delete_sidecar(sidecar)
                return True
            except sqlite3.OperationalError as exc:
                failure = exc
                if attempt + 1 < attempts:
                    sup.note_merge_retry()
                    logger.warning(
                        "chunk %03d sidecar merge failed (attempt %d/%d), "
                        "retrying: %s", result.chunk_index, attempt + 1,
                        attempts, exc)
        _delete_sidecar(sidecar)
        if sup is None:
            raise failure
        # The sidecar is gone but sites are pure (seed, rank) functions:
        # recrawl the chunk through the strike machinery (quarantines it
        # if the merge keeps dying on the same ranks).  No rebuild cost —
        # the workers are healthy.
        logger.error("chunk %03d merge failed after %d attempt(s); "
                     "requeueing ranks: %s", result.chunk_index, attempts,
                     failure)
        self.apply_plan(sup.on_merge_failure(result.ranks,
                                             detail=str(failure)))
        return False

    def ingest(self, result: _ChunkResult) -> None:
        index = result.chunk_index
        self.scheduler.record(len(result.ranks), result.seconds)
        builds = self.web_builds_by_pid.get(result.worker_pid, 0)
        self.web_builds_by_pid[result.worker_pid] = max(builds,
                                                        result.web_builds)
        ingest_job(result.spans, result.metrics, pid=f"chunk-{index:03d}")
        if result.sidecar_path is not None and self.store is not None:
            if not self.merge_sidecar(result):
                return  # requeued — nothing completed for this chunk yet
        if self.telemetry is not None:
            self.telemetry.record_chunk(result.telemetry,
                                        worker=f"chunk-{index:03d}")
        if result.visits_blob is not None and self.template.collect:
            self.visits.extend(pickle.loads(result.visits_blob))
        self.completed += len(result.ranks)
        if self.progress is not None:
            self.progress(self.completed + self.quarantined_count,
                          len(self.targets))

    def lose(self, worker: _Worker, cause: str) -> None:
        """A worker died, or the watchdog killed it: respawn it alone and
        hand the chunk it held to the supervisor, which names it.  A
        worker that died between chunks loses nothing."""
        job, worker.job = worker.job, None
        if self.sup is None:
            raise BrokenProcessPool(
                f"crawl worker pid {worker.process.pid} died (exit code "
                f"{worker.process.exitcode})")
        lost = [] if job is None else [job.ranks]
        with TRACER.span("supervisor.rebuild", cause=cause,
                         chunks_lost=len(lost)):
            if job is not None:
                self.sup.note_finished(job.chunk_index)
                if job.sidecar_path is not None:
                    _delete_sidecar(Path(job.sidecar_path))
            logger.error(
                "crawl worker pid %d lost (%s) holding chunk %s, respawn "
                "%d/%d", worker.process.pid, cause,
                "none" if job is None else f"{job.chunk_index:03d}",
                self.sup.rebuilds + 1, self.sup.config.max_pool_rebuilds)
            self.apply_plan(self.sup.on_pool_crash(
                lost, cause=cause,
                named={} if job is None else {job.chunk_index: job.ranks}))
            self.workers.respawn(worker, self.initargs)

    def check_watchdog(self) -> None:
        busy = self.busy()
        late = self.sup.overdue(
            {worker.job.chunk_index: len(worker.job.ranks)
             for worker in busy}, self.scheduler.observed_rate())
        for worker in busy:
            # A reply already in the pipe is no hang.
            if worker.job.chunk_index in late and not worker.conn.poll():
                logger.error("watchdog: chunk %03d exceeded its deadline — "
                             "killing its worker", worker.job.chunk_index)
                _kill_executor_workers([worker])
                self.lose(worker, cause="hang")

    def run(self) -> list[SiteVisit]:
        pool, sup = self.pool, self.sup
        timeout = (sup.config.watchdog_poll_seconds
                   if sup is not None and sup.config.watchdog_enabled
                   else None)
        try:
            # Workers that died idle since the last run lose nothing.
            for worker in self.workers.wait(timeout=0)[1]:
                self.lose(worker, cause="worker-crash")
            self.top_up()
            while self.busy() or self.work_left():
                replies, dead = self.workers.wait(timeout)
                if sup is not None:
                    for job, _ in replies:
                        sup.note_finished(job.chunk_index)
                for worker in dead:
                    self.lose(worker, cause="worker-crash")
                if timeout is not None:
                    self.check_watchdog()
                # Workers get their next chunk before the merges below.
                self.top_up()
                for _, result in replies:
                    self.ingest(result)
                self.top_up()  # a failed merge may have requeued ranks
        except BaseException:
            # Workers may still hold this run's chunks: stop them all, so
            # none writes a sidecar after the sweep; the next run starts a
            # fresh pool.
            shutdown_warm_pool()
            if self.store is not None:
                _sweep_chunk_sidecars(self.store.path)
            if sup is not None:
                pool.last_supervisor_stats = sup.stats()
            raise

        if sup is not None:
            pool.last_supervisor_stats = sup.stats()
        pool.last_chunk_schedule = {
            "mode": "replay" if pool.chunk_schedule else "adaptive",
            "target_chunk_seconds": TARGET_CHUNK_SECONDS,
            "initial_chunk_size": INITIAL_CHUNK_SIZE,
            "workers": pool.workers,
            "total_sites": len(self.targets),
            "sizes": list(self.scheduler.sizes),
        }
        pool.last_run_stats = {
            "worker_pids": sorted(self.web_builds_by_pid),
            "web_builds_total": sum(self.web_builds_by_pid.values()),
            "chunks": self.chunk_index,
        }
        self.visits.sort(key=lambda visit: visit.rank)
        return self.visits
