"""Process-based crawl backend: warm persistent workers crawling rank chunks.

The paper ran 40 genuinely parallel crawlers; our crawl is pure-Python
CPU-bound work, so threads would gain nothing from extra workers (the GIL
serialises them).  This module delivers real parallelism: the rank list is
cut into contiguous chunks and each chunk is crawled by a worker *process*
running an ordinary serial :class:`~repro.crawler.pool.CrawlerPool`.

Three mechanisms keep the workers fast (OpenWPM-style crawlers win by
keeping long-lived browser workers hot, not by per-task process churn):

* **Warm worker state.**  Workers are long-lived: a module-level
  :class:`ProcessPoolExecutor` persists across runs, and each worker keeps
  its constructed :class:`~repro.synthweb.generator.SyntheticWeb` and serial
  pool in process globals keyed by a fingerprint of the constructor
  parameters.  A worker rebuilds the web only when the web actually
  changes, instead of once per chunk; the pool initializer also pre-warms
  the interned parser caches with one throwaway visit.

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
import tempfile
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, CancelledError, Future, \
    ProcessPoolExecutor, wait
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
    PoolCrashError, RecoveryPlan, SupervisorConfig, attribute_crash
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

    Shipped once through the executor initializer and once per chunk job
    (the per-job copy covers executor reuse across runs whose parameters
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
    """Executor initializer: install signal shields and warm state.

    Failures are swallowed — an initializer exception would wedge the
    whole executor, whereas a cold worker merely rebuilds on first chunk
    (and surfaces the real error there).
    """
    _ignore_shutdown_signals()
    try:
        recipe = pickle.loads(recipe_blob)
        _prewarm(_worker_pool(recipe, web_fp, pool_fp))
    except Exception:  # pragma: no cover - defensive
        logger.exception("worker warm initialization failed")


# ---------------------------------------------------------------------------
# The persistent executor.  One per process, reused across runs (and by the
# process-parallel summarize) so worker state stays warm; recreated only
# when the worker count or start method changes.

_WARM_EXECUTOR: "ProcessPoolExecutor | None" = None
_WARM_KEY: "tuple[int, str] | None" = None


def warm_executor(workers: int, start_method: str,
                  initargs: "tuple | None" = None) -> ProcessPoolExecutor:
    """The shared warm executor, created on first use.

    ``initargs`` is only consulted when a new executor must be built; an
    existing executor is reused as-is (its workers rebuild lazily from the
    per-job recipe when parameters changed).
    """
    global _WARM_EXECUTOR, _WARM_KEY
    key = (workers, start_method)
    if _WARM_EXECUTOR is not None and _WARM_KEY != key:
        shutdown_warm_pool()
    if _WARM_EXECUTOR is None:
        context = multiprocessing.get_context(start_method)
        if initargs is None:
            _WARM_EXECUTOR = ProcessPoolExecutor(
                max_workers=workers, mp_context=context,
                initializer=_ignore_shutdown_signals)
        else:
            _WARM_EXECUTOR = ProcessPoolExecutor(
                max_workers=workers, mp_context=context,
                initializer=_init_worker, initargs=initargs)
        _WARM_KEY = key
    return _WARM_EXECUTOR


def shutdown_warm_pool() -> None:
    """Tear the persistent executor down (tests, atexit, broken pools)."""
    global _WARM_EXECUTOR, _WARM_KEY
    if _WARM_EXECUTOR is not None:
        _WARM_EXECUTOR.shutdown(wait=False, cancel_futures=True)
        _WARM_EXECUTOR = None
        _WARM_KEY = None


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
    #: Supervised runs only: the directory where the worker leaves its
    #: crash breadcrumb (:func:`_leave_breadcrumb`).
    breadcrumb_dir: "str | None" = None


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


def _leave_breadcrumb(directory: "str | None", chunk_index: int
                     ) -> "str | None":
    """Write ``chunk_index`` to this worker's breadcrumb file.

    The file is named after the worker's pid, so on a pool crash the
    parent can tell which chunk a dead worker was running.  Process death
    does not lose a completed ``write`` (the data is in the page cache),
    so no fsync is needed.  Best-effort: returns the path, or ``None``
    when there is no directory or the write failed (a crash in this
    chunk then names nothing, and its lost chunks requeue strike-free).
    """
    if directory is None:
        return None
    path = os.path.join(directory, str(os.getpid()))
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
        try:
            os.write(fd, str(chunk_index).encode())
        finally:
            os.close(fd)
    except OSError:
        return None
    return path


def _crawl_chunk(job: _ChunkJob) -> _ChunkResult:
    """Worker entry point: crawl one chunk on the warm serial pool.

    Under supervision the worker first leaves a breadcrumb naming the
    chunk, and clears it when the chunk returns.  Observability mirrors
    the parent per job (:func:`repro.obs.observe_job`).  The chunk runs
    against a worker-local
    :class:`~repro.crawler.telemetry.CrawlTelemetry`; its snapshot ships
    back as a :class:`~repro.crawler.telemetry.ChunkTelemetry` delta (this
    is also how guard events cross the process boundary).
    """
    from repro.crawler.storage import CrawlStore

    breadcrumb = _leave_breadcrumb(job.breadcrumb_dir, job.chunk_index)
    _ignore_shutdown_signals()
    try:
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
    finally:
        if breadcrumb is not None:
            with suppress(OSError):
                os.unlink(breadcrumb)


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


def _kill_executor_workers(executor: ProcessPoolExecutor) -> None:
    """SIGKILL every worker process of ``executor``.

    The watchdog's only lever: ``ProcessPoolExecutor`` cannot cancel a
    running future, so a hung chunk is evicted by killing its (and,
    unavoidably, its siblings') workers — which breaks the pool and
    funnels the hang through the one crash-recovery path.  Reaches into
    ``executor._processes`` (stable since 3.7); if that private map ever
    vanishes the kill degrades to a no-op and recovery proceeds by
    abandoning the futures instead.
    """
    processes = getattr(executor, "_processes", None) or {}
    kill_signal = getattr(signal, "SIGKILL", signal.SIGTERM)
    for pid in list(processes):
        with suppress(ProcessLookupError, OSError):
            os.kill(pid, kill_signal)


def _crashed_worker_breadcrumbs(executor: ProcessPoolExecutor,
                                directory: Path) -> list["int | None"]:
    """The chunk indices that the breadcrumbs of dead workers name.

    Called on ``BrokenProcessPool`` before the survivors are SIGKILLed.
    A worker whose ``Process.sentinel`` is already readable exited on its
    own: the executor only SIGTERMs its siblings, which ignore it and stay
    alive.  One entry per exited worker, ``None`` when its breadcrumb is
    empty or missing (it died between chunks).  Uses
    ``executor._processes`` like :func:`_kill_executor_workers`, and finds
    nothing if that map is gone.
    """
    processes = dict(getattr(executor, "_processes", None) or {})
    sentinels = {process.sentinel: pid for pid, process in processes.items()}
    breadcrumbs: list["int | None"] = []
    for sentinel in multiprocessing.connection.wait(list(sentinels),
                                                    timeout=0):
        try:
            text = (directory / str(sentinels[sentinel])).read_text()
        except OSError:
            text = ""
        breadcrumbs.append(int(text) if text.isdigit() else None)
    return breadcrumbs


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

    Chunks are dispatched incrementally on the adaptive schedule (at most
    ``workers + 1`` outstanding).  With ``store=``, each worker persists
    its chunk to a sidecar store and the parent merges it — one
    ATTACH merge per chunk, so checkpointing advances in chunk-sized steps
    without visits ever crossing the result pipe.  Telemetry is applied as
    per-chunk deltas under ``chunk-NNN`` worker names.  With
    ``collect=False`` an empty list is returned (bounded-memory mode).

    On a stop request the parent cancels queued chunks but drains running
    ones (workers ignore signals), merging whatever they finish — the
    checkpoint keeps every completed chunk.

    With ``supervisor=`` (a :class:`SupervisorConfig`), worker crashes,
    hung chunks and flaky sidecar merges are survived instead of fatal:
    the pool is rebuilt within the crash budget, lost chunks are replayed
    byte-identically, repeat offenders are bisected down to the poison
    rank and quarantined (DESIGN.md §4k).  Without it, behaviour is
    exactly the pre-supervision backend: a ``BrokenProcessPool`` tears
    the warm pool down, sweeps leftover sidecars and re-raises.
    ``chaos=`` injects deterministic failures (drills and tests).
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
    executor = warm_executor(pool.workers, start_method, initargs=initargs)
    sup = (ChunkSupervisor(supervisor) if supervisor is not None else None)
    pool.last_supervisor_stats = None
    #: Per-run directory of worker crash breadcrumbs (supervised only).
    breadcrumbs = (tempfile.TemporaryDirectory(prefix="repro-breadcrumbs-",
                                               ignore_cleanup_errors=True)
                   if sup is not None else None)
    template = _ChunkJob(
        recipe=recipe, web_fp=web_fp, pool_fp=pool_fp, ranks=(),
        collect=collect, trace=TRACER.enabled, count=_metrics.COUNTING,
        chaos=chaos,
        breadcrumb_dir=breadcrumbs.name if breadcrumbs is not None else None)
    dispatch = _ProcessDispatch(
        pool=pool, targets=targets, progress=progress, store=store,
        telemetry=telemetry, sup=sup, template=template, initargs=initargs,
        start_method=start_method, executor=executor,
        scheduler=_ChunkScheduler(len(targets), pool.workers,
                                  replay=pool.chunk_schedule),
        run_tag=f"{os.getpid():x}-{next(_RUN_SEQUENCE):x}")
    try:
        return dispatch.run()
    finally:
        if breadcrumbs is not None:
            breadcrumbs.cleanup()


@dataclass(eq=False)
class _ProcessDispatch:
    """The dispatch loop of one :func:`crawl_in_processes` run.

    The fields up to ``run_tag`` are the run's set-up; the rest are the
    loop's mutable state.  ``executor`` is replaced after every
    supervised crash.  The executor helpers (``wait``,
    :func:`_kill_executor_workers`, :func:`shutdown_warm_pool`) are looked
    up as module globals at call time, so profilers can wrap them.
    """

    pool: "CrawlerPool"
    targets: Sequence[int]
    progress: "Callable[[int, int], None] | None"
    store: "CrawlStore | None"
    telemetry: "CrawlTelemetry | None"
    sup: "ChunkSupervisor | None"
    #: Every submitted job is this one with its ranks, index and sidecar.
    template: _ChunkJob
    initargs: tuple
    start_method: str
    executor: ProcessPoolExecutor
    scheduler: _ChunkScheduler
    run_tag: str
    visits: list[SiteVisit] = field(default_factory=list)
    completed: int = 0
    quarantined_count: int = 0
    next_target: int = 0
    chunk_index: int = 0
    pending: "set[Future]" = field(default_factory=set)
    #: Future → job, for crash attribution and requeue.  Only maintained
    #: under supervision, so the unsupervised hot path is unchanged.
    jobs: "dict[Future, _ChunkJob]" = field(default_factory=dict)
    #: Rank tuples the supervisor wants resubmitted, drained before the
    #: scheduler hands out fresh chunks.
    requeued: "deque[tuple[int, ...]]" = field(default_factory=deque)
    web_builds_by_pid: dict[int, int] = field(default_factory=dict)
    stopped: bool = False

    def submit_ranks(self, ranks: "tuple[int, ...]") -> None:
        index = self.chunk_index
        self.chunk_index += 1
        sidecar = (str(_chunk_sidecar_path(self.store.path, self.run_tag,
                                           index))
                   if self.store is not None else None)
        job = replace(self.template, ranks=ranks, chunk_index=index,
                      sidecar_path=sidecar)
        try:
            future = self.executor.submit(_crawl_chunk, job)
        except BrokenProcessPool:
            # The pool broke while idle; keep the ranks and let the
            # recovery path rebuild before they are resubmitted.
            self.requeued.appendleft(ranks)
            raise
        self.pending.add(future)
        if self.sup is not None:
            self.jobs[future] = job
            self.sup.note_submitted(index)

    def submit_next(self) -> bool:
        if self.requeued:
            self.submit_ranks(self.requeued.popleft())
            return True
        if self.sup is not None and self.sup.holds_fresh_chunks(
                self.jobs[f].ranks for f in self.pending if f in self.jobs):
            return False
        size = self.scheduler.next_size()
        if size <= 0:
            return False
        start = self.next_target
        self.next_target += size
        self.submit_ranks(tuple(self.targets[start:start + size]))
        return True

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
        # the worker pool is healthy.
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

    def recover_from_crash(self, crashed: "list[Future]", *, cause: str,
                           names: "list[int] | None" = None) -> None:
        """Supervised ``BrokenProcessPool`` handling: ingest what finished,
        sweep the wreckage, rebuild the pool, requeue the rest.

        ``names`` are the chunk indices the watchdog found hung; without
        them the dead workers' breadcrumbs name the guilty chunks.
        """
        sup, jobs, store = self.sup, self.jobs, self.store
        # Read the dead workers' breadcrumbs first: once the survivors
        # are killed every worker looks dead.
        if names is None:
            names = _crashed_worker_breadcrumbs(
                self.executor, Path(self.template.breadcrumb_dir))
        lost_jobs = [jobs.pop(f) for f in crashed if f in jobs]
        # Everything still outstanding is doomed (the executor is broken)
        # — but a chunk whose result landed just before the break is a
        # survivor, so harvest results one last time before requeueing.
        survivors: list[_ChunkResult] = []
        done, rest = wait(self.pending, timeout=0)
        for future in done:
            try:
                survivors.append(future.result())
                jobs.pop(future, None)
            except (Exception, CancelledError):
                job = jobs.pop(future, None)
                if job is not None:
                    lost_jobs.append(job)
        for future in rest:
            if not future.cancel() and future.done():
                with suppress(Exception, CancelledError):
                    survivors.append(future.result())
                    jobs.pop(future, None)
                    continue
            job = jobs.pop(future, None)
            if job is not None:
                lost_jobs.append(job)
        self.pending.clear()
        for result in survivors:
            sup.note_finished(result.chunk_index)
            self.ingest(result)
        with TRACER.span("supervisor.rebuild", cause=cause,
                         chunks_lost=len(lost_jobs)):
            # A broken pool can still hold live workers (e.g. one sleeping
            # in a hung visit while another died); executor teardown
            # *joins* them, so make sure they are dead first or the
            # rebuild would block until the hang ended of its own accord.
            _kill_executor_workers(self.executor)
            shutdown_warm_pool()
            if store is not None:
                # Crashed workers leave half-written sidecars; replays
                # write fresh ones, so sweep the wreckage now (not just at
                # the next run's start).
                _sweep_chunk_sidecars(store.path)
            for job in lost_jobs:
                sup.note_finished(job.chunk_index)
            named = attribute_crash(
                names, {job.chunk_index: job.ranks for job in lost_jobs})
            logger.error(
                "worker pool crash (%s): lost %d in-flight chunk(s), "
                "named %s, rebuild %d/%d", cause, len(lost_jobs),
                sorted(named) or "none", sup.rebuilds + 1,
                sup.config.max_pool_rebuilds)
            self.apply_plan(sup.on_pool_crash(
                [job.ranks for job in lost_jobs], cause=cause, named=named))
            self.executor = warm_executor(self.pool.workers,
                                          self.start_method,
                                          initargs=self.initargs)

    def check_watchdog(self) -> None:
        jobs = self.jobs
        sizes = {jobs[f].chunk_index: len(jobs[f].ranks)
                 for f in self.pending if f in jobs}
        late = self.sup.overdue(sizes, self.scheduler.observed_rate())
        if not late:
            return
        logger.error(
            "watchdog: chunk(s) %s exceeded their deadline — killing "
            "workers to recycle the pool", late)
        _kill_executor_workers(self.executor)
        self.recover_from_crash([], cause="hang", names=late)

    def top_up(self, limit: int) -> None:
        while len(self.pending) < limit:
            try:
                if not self.submit_next():
                    return
            except BrokenProcessPool:
                if self.sup is None:
                    raise
                self.recover_from_crash([], cause="worker-crash")

    def run(self) -> list[SiteVisit]:
        pool, sup = self.pool, self.sup
        timeout = (sup.config.watchdog_poll_seconds
                   if sup is not None and sup.config.watchdog_enabled
                   else None)
        try:
            self.top_up(pool.workers)
            while self.pending or self.requeued:
                if not self.pending:
                    if self.stopped:
                        break  # interrupted: requeues stay uncrawled
                    # Possible after a recovery whose requeues have not
                    # been resubmitted yet (e.g. the budget-spending
                    # crash happened during top-up).
                    self.top_up(pool.workers + 1)
                    if not self.pending:
                        break
                done, self.pending = wait(self.pending, timeout=timeout,
                                          return_when=FIRST_COMPLETED)
                crashed: list[Future] = []
                for future in done:
                    try:
                        result = future.result()
                    except BrokenProcessPool:
                        if sup is None:
                            raise
                        crashed.append(future)
                        continue
                    if sup is not None:
                        self.jobs.pop(future, None)
                        sup.note_finished(result.chunk_index)
                    self.ingest(result)
                if crashed:
                    self.recover_from_crash(crashed, cause="worker-crash")
                elif sup is not None and not done and self.pending:
                    self.check_watchdog()
                if pool.stop_requested and not self.stopped:
                    self.stopped = True
                    self.requeued.clear()
                    cancelled = {f for f in self.pending if f.cancel()}
                    self.pending -= cancelled
                    for future in cancelled:
                        self.jobs.pop(future, None)
                    logger.warning(
                        "crawl stop requested: cancelled %d queued "
                        "chunk(s), draining %d running", len(cancelled),
                        len(self.pending))
                if not self.stopped:
                    self.top_up(pool.workers + 1)
        except BrokenProcessPool:
            # Unsupervised: a worker died hard (OOM kill, segfault); the
            # executor is unusable, so drop it — the next run builds a
            # fresh warm pool — and sweep the crashed workers' sidecar
            # files rather than leaking them until that run starts.  Kill
            # the survivors first: they ignore the executor's SIGTERM, and
            # one finishing its chunk would write a sidecar after the
            # sweep.
            _kill_executor_workers(self.executor)
            shutdown_warm_pool()
            if self.store is not None:
                _sweep_chunk_sidecars(self.store.path)
            raise
        except PoolCrashError:
            pool.last_supervisor_stats = sup.stats()
            raise

        if sup is not None:
            pool.last_supervisor_stats = sup.stats()
            if self.store is not None and sup.rebuilds:
                # A worker surviving a torn-down pool can flush its
                # sidecar *after* the rebuild-time sweep; its chunk was
                # requeued and merged from a fresh sidecar, so the stray
                # file is garbage.
                _sweep_chunk_sidecars(self.store.path)
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
