"""Parallel crawl orchestration.

The paper ran 40 parallel crawlers for nine days; :class:`CrawlerPool`
crawls the ranked origin list either serially in the calling process or
across N worker processes (the ``process`` backend, the analogue of the
paper's separate browser processes), and aggregates the results into a
:class:`CrawlDataset` with the Section 4 failure taxonomy.  Results are
deterministic regardless of backend and worker count because every site's
content is a pure function of (seed, rank).

Resilience (this mirrors the paper's operational setup, Appendix A.2):

* ``run(store=CrawlStore(...))`` persists visits as they complete (C14),
  batched through :meth:`~repro.crawler.storage.CrawlStore.save_visits`
  in groups of :data:`STORE_BATCH_SIZE` so the store stage stays a small
  share of the crawl — a crash loses at most the current batch plus
  in-flight visits, and every graceful-stop path flushes the batch first;
* ``run(store=..., resume=True)`` queries the checkpoint for
  already-stored ranks and crawls only the remainder — the merged dataset
  is byte-identical to an uninterrupted run;
* ``run(store=..., collect=False)`` skips accumulating visits in memory —
  the returned dataset is empty and the store is the output — so a 100k+
  site crawl runs with bounded memory;
* ``run(telemetry=CrawlTelemetry())`` streams per-worker visit counts,
  retry counts, the failure taxonomy and rolling throughput to the
  collector while the crawl is still going;
* a :class:`~repro.crawler.resilience.RetryPolicy` re-attempts transient
  failures inside each worker, and an unexpected exception in any single
  visit is recorded as a ``minor-crawler-error`` instead of destroying
  the pool.
"""

from __future__ import annotations

import contextlib
import logging
import math
import signal
import threading
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from repro.browser.page import Fetcher
from repro.obs.tracing import TRACER
from repro.crawler.crawler import CrawlConfig, Crawler
from repro.crawler.fetcher import SyntheticFetcher
from repro.crawler.records import SiteVisit
from repro.crawler.resilience import RetryPolicy
from repro.crawler.telemetry import CrawlTelemetry
from repro.policy.engine import PermissionsPolicyEngine
from repro.synthweb.generator import SyntheticWeb

if TYPE_CHECKING:  # pragma: no cover - import cycle: storage imports pool
    from repro.crawler.backends import FetcherSpec
    from repro.crawler.chaos import ChaosPolicy
    from repro.crawler.storage import CrawlStore
    from repro.crawler.supervisor import SupervisorConfig

logger = logging.getLogger(__name__)


class _VisitList(list):
    """Visit list that tells its owning dataset when it mutates.

    Every analysis filters down to successful visits; the dataset caches
    that filter and this subclass invalidates the cache on any mutation.
    The ``getattr`` guard matters for unpickling: protocol-2 list pickles
    append items *before* instance state (the ``_dataset`` backref) is
    restored.
    """

    _dataset: "CrawlDataset | None"

    def _touch(self) -> None:
        dataset = getattr(self, "_dataset", None)
        if dataset is not None:
            dataset._invalidate()

    def append(self, item):  # noqa: D102 - list API
        super().append(item)
        self._touch()

    def extend(self, items):
        super().extend(items)
        self._touch()

    def insert(self, index, item):
        super().insert(index, item)
        self._touch()

    def remove(self, item):
        super().remove(item)
        self._touch()

    def pop(self, *args):
        item = super().pop(*args)
        self._touch()
        return item

    def clear(self):
        super().clear()
        self._touch()

    def sort(self, **kwargs):
        super().sort(**kwargs)
        self._touch()

    def reverse(self):
        super().reverse()
        self._touch()

    def __setitem__(self, index, value):
        super().__setitem__(index, value)
        self._touch()

    def __delitem__(self, index):
        super().__delitem__(index)
        self._touch()

    def __iadd__(self, other):
        result = super().__iadd__(other)
        self._touch()
        return result

    def __imul__(self, count):
        result = super().__imul__(count)
        self._touch()
        return result


@dataclass
class CrawlDataset:
    """All visits of one measurement run."""

    visits: list[SiteVisit] = field(default_factory=list)
    _successful_cache: "list[SiteVisit] | None" = field(
        default=None, init=False, repr=False, compare=False)

    def __setattr__(self, name: str, value: object) -> None:
        if name == "visits":
            if not isinstance(value, _VisitList):
                value = _VisitList(value)  # type: ignore[arg-type]
            value._dataset = self
            object.__setattr__(self, name, value)
            self._invalidate()
        else:
            object.__setattr__(self, name, value)

    def _invalidate(self) -> None:
        object.__setattr__(self, "_successful_cache", None)

    @property
    def attempted(self) -> int:
        return len(self.visits)

    def successful(self) -> list[SiteVisit]:
        """Successful visits, cached until :attr:`visits` next mutates.

        Callers share the cached list; treat it as read-only.
        """
        cached = self._successful_cache
        if cached is None:
            cached = [visit for visit in self.visits if visit.success]
            object.__setattr__(self, "_successful_cache", cached)
        return cached

    @property
    def successful_count(self) -> int:
        return len(self.successful())

    def failure_summary(self) -> dict[str, int]:
        """Failure taxonomy counts (the Section 4 breakdown)."""
        return dict(Counter(visit.failure for visit in self.visits
                            if not visit.success))

    @property
    def retry_count(self) -> int:
        """Total transient-failure retries spent across all visits."""
        return sum(visit.retries for visit in self.visits)

    @property
    def top_level_document_count(self) -> int:
        """Top-level documents including redirect hops — the denominator of
        every percentage the paper reports."""
        return sum(visit.top_level_document_count
                   for visit in self.successful())

    @property
    def embedded_document_count(self) -> int:
        return sum(len(visit.embedded_frames())
                   for visit in self.successful())

    @property
    def total_frame_count(self) -> int:
        return self.top_level_document_count + self.embedded_document_count

    def average_duration_seconds(self) -> float:
        # math.fsum: the exact (correctly rounded) sum, so materialized,
        # streaming and process-parallel summaries agree bit-for-bit no
        # matter how the visits were partitioned.
        if not self.visits:
            return 0.0
        return (math.fsum(visit.duration_seconds for visit in self.visits)
                / len(self.visits))

    def sites_with_iframes(self) -> int:
        return sum(1 for visit in self.successful()
                   if visit.embedded_frames())

    def local_embedded_share(self) -> float:
        """Share of embedded documents that are local documents."""
        local = 0
        total = 0
        for visit in self.successful():
            for frame in visit.embedded_frames():
                total += 1
                if frame.is_local:
                    local += 1
        return local / total if total else 0.0


#: Valid values for ``CrawlerPool(backend=...)``.
BACKENDS = ("serial", "process")

#: Visits buffered per batched store write on the pool's hot path.  Large
#: enough that per-commit overhead stops dominating the store stage, small
#: enough that a hard crash loses only a sliver of checkpoint progress.
STORE_BATCH_SIZE = 64


class _StoreBatcher:
    """Buffers completed visits and writes them in batched transactions.

    Thread-safe: callers hand visits over under a small lock and
    the full batch is written through
    :meth:`~repro.crawler.storage.CrawlStore.save_visits` outside it (the
    store has its own writer lock).  :meth:`flush` drains the remainder;
    every pool exit path calls it, so graceful stops checkpoint everything
    that completed.
    """

    def __init__(self, store: "CrawlStore",
                 batch_size: int = STORE_BATCH_SIZE) -> None:
        self._store = store
        self._batch_size = batch_size
        self._lock = threading.Lock()
        self._buffer: list[SiteVisit] = []

    def add(self, visit: SiteVisit) -> None:
        with self._lock:
            self._buffer.append(visit)
            if len(self._buffer) < self._batch_size:
                return
            batch, self._buffer = self._buffer, []
        self._store.save_visits(batch, chunk_size=self._batch_size)

    def flush(self) -> None:
        with self._lock:
            batch, self._buffer = self._buffer, []
        if batch:
            self._store.save_visits(batch, chunk_size=self._batch_size)


@contextlib.contextmanager
def _stop_on_signals(pool: "CrawlerPool") -> Iterator[None]:
    """Install SIGINT/SIGTERM handlers that request a graceful stop.

    Handlers are only installable from the main thread (and only on
    platforms that have the signals); anywhere else this is a no-op, and
    previous handlers are always restored on exit.  The handler merely
    sets the pool's stop event — completed visits are already checkpointed
    by the normal save path, so the run winds down to a cleanly resumable
    store instead of dying mid-write.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    previous: dict[int, object] = {}

    def handler(signum: int, frame: object) -> None:
        logger.warning("received signal %d — finishing in-flight visits "
                       "and checkpointing", signum)
        pool.request_stop()

    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[signum] = signal.signal(signum, handler)
        except (ValueError, OSError):  # pragma: no cover - platform quirk
            continue
    try:
        yield
    finally:
        for signum, old in previous.items():
            try:
                signal.signal(signum, old)
            except (ValueError, OSError):  # pragma: no cover
                continue


class CrawlerPool:
    """Runs crawls over a ranked range of the synthetic web.

    Backends (results are byte-identical across both):

    * ``"serial"`` (the default) — one visit after another in the calling
      thread; ``workers`` is ignored;
    * ``"process"`` — contiguous rank chunks crawled in ``workers`` worker
      processes (:mod:`repro.crawler.backends`).
    """

    def __init__(self, web: SyntheticWeb, *, workers: int = 4,
                 config: CrawlConfig | None = None,
                 engine: PermissionsPolicyEngine | None = None,
                 retry_policy: RetryPolicy | None = None,
                 fetcher_factory: Callable[[], Fetcher] | None = None,
                 fetcher_spec: "FetcherSpec | None" = None,
                 backend: str = "serial",
                 mp_context: str | None = None,
                 chunk_schedule: Sequence[int] | None = None) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, "
                             f"got {backend!r}")
        if chunk_schedule is not None:
            chunk_schedule = tuple(int(size) for size in chunk_schedule)
            if not chunk_schedule or any(size < 1
                                         for size in chunk_schedule):
                raise ValueError(
                    "chunk_schedule must be a non-empty sequence of "
                    "positive chunk sizes")
        if fetcher_factory is not None and fetcher_spec is not None:
            raise ValueError("pass fetcher_factory or fetcher_spec, not both")
        self.web = web
        self.workers = workers
        self.backend = backend
        #: Start-method name for the process backend (``"fork"``/
        #: ``"spawn"``); ``None`` picks the best available.
        self.mp_context = mp_context
        self.config = config if config is not None else CrawlConfig()
        self.retry_policy = retry_policy
        # One engine for the whole pool: policy evaluation is pure, so the
        # engine's structural decision memo (keyed on chain shape, not frame
        # identity) can be shared across visits — the same widget chain on
        # site N and site N+1 is one memo entry.  A fresh engine per visit
        # would discard the memo each time.
        self._engine = (engine if engine is not None
                        else PermissionsPolicyEngine())
        #: Picklable fetcher recipe — the only fetcher customisation the
        #: process backend supports (closures don't cross processes).
        self.fetcher_spec = fetcher_spec
        self._custom_factory = fetcher_factory is not None
        #: Builds the fetcher each per-visit crawler uses; override to wrap
        #: the network stack, e.g. with a
        #: :class:`~repro.crawler.resilience.FaultInjectingFetcher`.  Called
        #: once per visit so wrapper state (fault-injection attempt
        #: counters) stays per-visit and worker-count independent.
        if fetcher_factory is not None:
            self.fetcher_factory = fetcher_factory
        elif fetcher_spec is not None:
            self.fetcher_factory = lambda: fetcher_spec.build(self.web)
        else:
            self.fetcher_factory = lambda: SyntheticFetcher(self.web)
        #: Explicit chunk-size list for the process backend: replays a
        #: previously recorded autotuner schedule instead of adapting
        #: (``None`` = adaptive).  Chunk sizes never change dataset bytes;
        #: replay exists so a run's partition can be reproduced exactly.
        self.chunk_schedule = chunk_schedule
        #: Realised chunk schedule of the most recent process-backend run
        #: (``{"mode", "sizes", ...}``), ``None`` before any such run.
        self.last_chunk_schedule: "dict | None" = None
        #: Warm-worker stats of the most recent process-backend run
        #: (worker pids, webs constructed, chunk count).
        self.last_run_stats: "dict | None" = None
        #: Supervision summary of the most recent supervised
        #: process-backend run (rebuilds, requeues, bisections,
        #: quarantined ranks — see
        #: :meth:`repro.crawler.supervisor.ChunkSupervisor.stats`);
        #: ``None`` for unsupervised runs.
        self.last_supervisor_stats: "dict | None" = None
        self._stop = threading.Event()

    def request_stop(self) -> None:
        """Ask a running crawl to wind down gracefully.

        Safe from any thread and from signal handlers: in-flight visits
        finish (and are checkpointed), queued visits are abandoned, and
        :meth:`run` returns what completed.  A store-backed run left this
        way resumes to a byte-identical dataset.
        """
        self._stop.set()

    @property
    def stop_requested(self) -> bool:
        return self._stop.is_set()

    def _make_crawler(self) -> Crawler:
        return Crawler(self.fetcher_factory(), config=self.config,
                       engine=self._engine, retry_policy=self.retry_policy)

    def run(self, ranks: Sequence[int] | None = None,
            progress: Callable[[int, int], None] | None = None,
            *,
            store: "CrawlStore | None" = None,
            resume: bool = False,
            telemetry: CrawlTelemetry | None = None,
            backend: str | None = None,
            handle_signals: bool = False,
            collect: bool = True,
            max_pool_rebuilds: int = 0,
            supervisor: "SupervisorConfig | None" = None,
            chaos: "ChaosPolicy | None" = None) -> CrawlDataset:
        """Crawl the given ranks (default: the whole list) once each.

        With ``store``, visits are persisted as they complete, batched
        through :meth:`~repro.crawler.storage.CrawlStore.save_visits` (the
        process backend persists per finished chunk); with ``resume=True``
        as well, ranks already in the store are loaded back instead of
        re-crawled and the merged dataset equals an uninterrupted run.
        ``telemetry`` receives per-visit updates.  ``backend`` overrides
        the pool's configured backend for this run.

        With ``collect=False`` (requires ``store``), completed visits are
        *not* accumulated in memory: the returned dataset is empty and the
        store is the run's output (stream it back with
        :meth:`~repro.crawler.storage.CrawlStore.iter_visits`).  This is
        how 100k+-site crawls keep peak RSS bounded.

        With ``handle_signals=True`` (the CLI's mode), SIGINT/SIGTERM
        request a graceful stop for the duration of the run: in-flight
        visits finish and are checkpointed, the store's WAL is flushed,
        and the partial dataset is returned — ``resume=True`` on the same
        store later completes it to a byte-identical dataset.
        :meth:`request_stop` does the same programmatically.

        With ``max_pool_rebuilds=N`` (N > 0; process backend only), the
        run is supervised: a crashed or hung worker is respawned up to N
        times, its chunk is requeued, and a visit that repeatedly
        kills workers is bisected down to its rank and quarantined as
        ``poison-visit`` instead of sinking the run (see
        :mod:`repro.crawler.supervisor`).  Pass ``supervisor=`` a full
        :class:`~repro.crawler.supervisor.SupervisorConfig` to tune the
        watchdog and strike thresholds — a non-zero ``max_pool_rebuilds``
        then overrides the config's budget.  ``chaos=`` injects
        deterministic faults for drills
        (:class:`~repro.crawler.chaos.ChaosPolicy`).  Supervision never
        changes dataset bytes: requeued chunks replay the same pure
        (seed, rank) visits.
        """
        if resume and store is None:
            raise ValueError("resume=True requires a store")
        if not collect and store is None:
            raise ValueError("collect=False requires a store")
        chosen = backend if backend is not None else self.backend
        if chosen not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, "
                             f"got {chosen!r}")
        if max_pool_rebuilds < 0:
            raise ValueError(f"max_pool_rebuilds must be >= 0, "
                             f"got {max_pool_rebuilds!r}")
        if max_pool_rebuilds > 0:
            from repro.crawler.supervisor import SupervisorConfig
            if supervisor is None:
                supervisor = SupervisorConfig(
                    max_pool_rebuilds=max_pool_rebuilds)
            else:
                import dataclasses
                supervisor = dataclasses.replace(
                    supervisor, max_pool_rebuilds=max_pool_rebuilds)
        if supervisor is not None and chosen != "process":
            raise ValueError("supervision (max_pool_rebuilds/supervisor) "
                             "requires the process backend, "
                             f"got {chosen!r}")
        if chaos is not None and chosen != "process":
            # Chaos injections run inside worker *processes*; on an
            # in-process backend os._exit would kill the caller.
            raise ValueError("chaos injection requires the process "
                             f"backend, got {chosen!r}")
        self._stop.clear()
        targets = list(ranks if ranks is not None
                       else range(self.web.site_count))
        guard = (_stop_on_signals(self) if handle_signals
                 else contextlib.nullcontext())
        with guard:
            resumed: list[SiteVisit] = []
            resumed_count = 0
            if resume:
                targets, resumed, resumed_count = self._resume_split(
                    targets, store, collect)
            if telemetry is not None:
                # total covers the full run, so a resumed run still
                # converges to done (completed + resumed == total) instead
                # of reporting a non-empty queue forever.
                telemetry.start(len(targets) + resumed_count,
                                backend=chosen)
                telemetry.record_resumed(resumed_count)
            logger.info("crawl starting: %d targets (%d resumed), "
                        "backend=%s, workers=%d", len(targets),
                        resumed_count, chosen, self.workers)
            dataset = CrawlDataset()
            dataset.visits.extend(resumed)
            with TRACER.span("crawl.run", backend=chosen, sites=len(targets),
                             resumed=resumed_count, workers=self.workers):
                dataset.visits.extend(self._crawl_targets(
                    targets, chosen=chosen, store=store,
                    telemetry=telemetry, progress=progress, collect=collect,
                    supervisor=supervisor, chaos=chaos))
            dataset.visits.sort(key=lambda visit: visit.rank)
            if self._stop.is_set():
                if store is not None:
                    store.flush()
                if telemetry is not None:
                    telemetry.record_interrupted()
                logger.warning(
                    "crawl interrupted after %d/%d visits — checkpoint "
                    "flushed; rerun with resume=True to finish",
                    dataset.attempted - len(resumed), len(targets))
            else:
                logger.info("crawl finished: %d visits (%d ok)",
                            dataset.attempted, dataset.successful_count)
        return dataset

    def _resume_split(self, targets: list[int], store: "CrawlStore",
                      collect: bool
                      ) -> tuple[list[int], list[SiteVisit], int]:
        """Split ``targets`` into (remaining, resumed visits, resumed
        count).  With ``collect=False`` the resumed visits stay in the
        store — only the count is computed."""
        done = store.stored_ranks()
        if not done:
            return targets, [], 0
        wanted = set(targets) & done
        resumed = store.load_visits(sorted(wanted)) if collect else []
        remaining = [rank for rank in targets if rank not in done]
        return remaining, resumed, len(wanted)

    def _crawl_targets(self, targets: list[int], *, chosen: str,
                       store: "CrawlStore | None",
                       telemetry: CrawlTelemetry | None,
                       progress: Callable[[int, int], None] | None,
                       collect: bool,
                       supervisor: "SupervisorConfig | None" = None,
                       chaos: "ChaosPolicy | None" = None
                       ) -> list[SiteVisit]:
        """Crawl ``targets`` on the chosen backend.

        Returns the completed visits (empty with ``collect=False``).  The
        serial loop batches its store writes; the batch is always flushed
        on the way out, including when a stop request ends the loop early.
        """
        if chosen == "process":
            if not targets:
                return []
            from repro.crawler.backends import crawl_in_processes
            visits = crawl_in_processes(
                self, targets, progress=progress, store=store,
                telemetry=telemetry, collect=collect,
                supervisor=supervisor, chaos=chaos)
            return visits if collect else []
        batcher = _StoreBatcher(store) if store is not None else None
        collected: list[SiteVisit] = []
        try:
            for index, rank in enumerate(targets):
                if self._stop.is_set():
                    break
                # One crawler (and one fetcher) per visit keeps visit state
                # independent, like the paper's per-site fresh (stateless)
                # browser — and makes fault-injection state per-visit, so
                # serial, process and resumed runs all see identical faults.
                with TRACER.span("crawl.visit", rank=rank):
                    crawler = self._make_crawler()
                    visit = crawler.visit(self.web.origin_for_rank(rank),
                                          rank=rank)
                if batcher is not None:
                    batcher.add(visit)
                if telemetry is not None:
                    telemetry.record_visit(visit)
                    for event in crawler.guard_events:
                        telemetry.record_guard_event(event.kind)
                if collect:
                    collected.append(visit)
                if progress is not None:
                    progress(index + 1, len(targets))
        finally:
            if batcher is not None:
                batcher.flush()
        return collected
