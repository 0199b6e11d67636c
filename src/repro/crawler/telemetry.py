"""Crawl observability: the telemetry collector behind ``crawl --progress``.

The paper's nine-day, 40-worker run was only operable because the authors
could see it: which workers were alive, how the failure taxonomy was
filling in, and whether throughput held.  :class:`CrawlTelemetry` collects
exactly that from a :class:`~repro.crawler.pool.CrawlerPool` run —
per-worker visit counts, retry counts, failure-taxonomy counters, rolling
throughput (sites/second of wall clock and simulated seconds/site), and
queue depth — behind a single lock so worker threads can report freely.

Telemetry is observability only: it reads wall-clock time and thread
names, and none of it feeds back into the dataset, so determinism of the
crawl results is untouched.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

from repro.crawler.records import SiteVisit
from repro.obs import metrics as _metrics


@dataclass(frozen=True)
class TelemetrySnapshot:
    """A consistent point-in-time view of a running (or finished) crawl.

    ``total`` counts every visit of the run, including visits restored
    from a checkpoint: ``completed + resumed`` reaches ``total`` when the
    run is :attr:`done`, and :attr:`queue_depth` is what is still to
    crawl.
    """

    total: int
    completed: int
    resumed: int
    succeeded: int
    failed: int
    retries: int
    queue_depth: int
    elapsed_seconds: float
    simulated_seconds: float
    failure_counts: dict[str, int]
    visits_by_worker: dict[str, int]
    #: Execution backend of the run ("serial"/"process"), empty
    #: when the pool did not report one.
    backend: str = ""
    #: Guard interventions by kind (truncations, watchdog conversions,
    #: breaker rejections — see :mod:`repro.crawler.guards`); empty when
    #: no guards are configured.
    guard_counts: dict[str, int] = field(default_factory=dict)
    #: Whether the run was interrupted (signal or
    #: :meth:`~repro.crawler.pool.CrawlerPool.request_stop`) before
    #: covering every target.
    interrupted: bool = False
    #: Ranks the supervisor quarantined as ``poison-visit`` (their visits
    #: repeatedly killed or hung worker processes); they count toward
    #: :attr:`done` — the run covered them by *excluding* them — but
    #: never toward :attr:`completed`.
    quarantined_ranks: tuple[int, ...] = ()

    @property
    def sites_per_second(self) -> float:
        """Rolling wall-clock throughput."""
        if self.elapsed_seconds <= 0.0:
            return 0.0
        return self.completed / self.elapsed_seconds

    @property
    def simulated_seconds_per_site(self) -> float:
        """Average simulated visit duration — the paper's ~35 s/site."""
        if not self.completed:
            return 0.0
        return self.simulated_seconds / self.completed

    @property
    def quarantined(self) -> int:
        return len(self.quarantined_ranks)

    @property
    def done(self) -> bool:
        """Whether crawled, checkpoint-restored and quarantined visits
        cover the run."""
        return (self.completed + self.resumed + self.quarantined
                >= self.total)

    def render(self) -> str:
        """Human-readable multi-line report."""
        lines = [
            f"visits      {self.completed + self.resumed}/{self.total} "
            f"({self.succeeded} ok, {self.failed} failed, "
            f"{self.resumed} resumed from checkpoint)",
            f"queue depth {self.queue_depth}",
            f"retries     {self.retries}",
            f"throughput  {self.sites_per_second:.1f} sites/s wall clock, "
            f"{self.simulated_seconds_per_site:.1f} simulated s/site",
        ]
        if self.backend:
            lines.append(f"backend     {self.backend}")
        if self.failure_counts:
            failures = ", ".join(
                f"{taxonomy}={count}" for taxonomy, count
                in sorted(self.failure_counts.items()))
            lines.append(f"failures    {failures}")
        if self.guard_counts:
            guards = ", ".join(
                f"{kind}={count}" for kind, count
                in sorted(self.guard_counts.items()))
            lines.append(f"guards      {guards}")
        if self.quarantined_ranks:
            ranks = ", ".join(str(rank)
                              for rank in self.quarantined_ranks)
            lines.append(f"quarantined {self.quarantined} poison-visit "
                         f"rank(s): {ranks}")
        if self.interrupted:
            lines.append("interrupted yes — resume to finish the run")
        if self.visits_by_worker:
            workers = ", ".join(
                f"{worker}={count}" for worker, count
                in sorted(self.visits_by_worker.items()))
            lines.append(f"workers     {workers}")
        return "\n".join(lines)

    def progress_line(self) -> str:
        """One-line form for in-place progress output."""
        line = (f"[{self.completed + self.resumed}/{self.total}] "
                f"{self.succeeded} ok, {self.failed} failed, "
                f"{self.retries} retries, queue {self.queue_depth}, "
                f"{self.sites_per_second:.1f} sites/s")
        if self.backend:
            line += f" ({self.backend})"
        return line


@dataclass(frozen=True)
class ChunkTelemetry:
    """Picklable telemetry delta for one process-backend chunk.

    Workers run their chunk against a worker-local :class:`CrawlTelemetry`
    and ship this summary back instead of per-visit records; the parent
    folds it in with :meth:`CrawlTelemetry.record_chunk`.  Failure and
    guard counts travel as sorted item tuples so the delta hashes/pickles
    deterministically.
    """

    completed: int = 0
    succeeded: int = 0
    retries: int = 0
    simulated_seconds: float = 0.0
    failures: tuple[tuple[str, int], ...] = ()
    guard_counts: tuple[tuple[str, int], ...] = ()

    @classmethod
    def from_snapshot(cls, snapshot: TelemetrySnapshot) -> "ChunkTelemetry":
        return cls(
            completed=snapshot.completed,
            succeeded=snapshot.succeeded,
            retries=snapshot.retries,
            simulated_seconds=snapshot.simulated_seconds,
            failures=tuple(sorted(snapshot.failure_counts.items())),
            guard_counts=tuple(sorted(snapshot.guard_counts.items())),
        )


@dataclass
class CrawlTelemetry:
    """Thread-safe telemetry collector for one pool run.

    Pass an instance to :meth:`CrawlerPool.run(telemetry=...)
    <repro.crawler.pool.CrawlerPool.run>`; workers call
    :meth:`record_visit` as visits complete, and any thread may call
    :meth:`snapshot` concurrently.
    """

    clock: Callable[[], float] = time.monotonic
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False)
    _total: int = 0
    _completed: int = 0
    _resumed: int = 0
    _succeeded: int = 0
    _retries: int = 0
    _simulated_seconds: float = 0.0
    _started_at: float | None = None
    _backend: str = ""
    _failures: Counter = field(default_factory=Counter)
    _by_worker: Counter = field(default_factory=Counter)
    _guard_events: Counter = field(default_factory=Counter)
    _interrupted: bool = False
    _quarantined: list[int] = field(default_factory=list)

    def start(self, total: int, *, backend: str = "") -> None:
        """Begin (or restart) a run of ``total`` visits — the full run
        size, counting visits a resume will restore from the checkpoint
        (:class:`~repro.crawler.pool.CrawlerPool` passes crawl targets
        plus resumed visits)."""
        with self._lock:
            self._total = total
            self._backend = backend
            self._completed = 0
            self._resumed = 0
            self._succeeded = 0
            self._retries = 0
            self._simulated_seconds = 0.0
            self._failures.clear()
            self._by_worker.clear()
            self._guard_events.clear()
            self._interrupted = False
            self._quarantined.clear()
            self._started_at = self.clock()

    def record_resumed(self, count: int) -> None:
        """Note visits restored from a checkpoint rather than crawled."""
        with self._lock:
            self._resumed += count
        if _metrics.COUNTING and count:
            _metrics.REGISTRY.counter("crawl.resumed").inc(count)

    def record_visit(self, visit: SiteVisit, *,
                     worker: str | None = None) -> None:
        name = worker if worker is not None \
            else threading.current_thread().name
        with self._lock:
            if self._started_at is None:
                self._started_at = self.clock()
            self._completed += 1
            self._retries += visit.retries
            self._simulated_seconds += visit.duration_seconds
            self._by_worker[name] += 1
            if visit.success:
                self._succeeded += 1
            else:
                self._failures[visit.failure or "unknown"] += 1
        if _metrics.COUNTING:
            registry = _metrics.REGISTRY
            registry.counter("crawl.visits").inc()
            if visit.retries:
                registry.counter("crawl.retries").inc(visit.retries)
            if not visit.success:
                registry.counter("crawl.failures").inc()
            registry.histogram("crawl.simulated_seconds").observe(
                visit.duration_seconds)

    def record_chunk(self, chunk: ChunkTelemetry, *, worker: str) -> None:
        """Fold one process-backend chunk delta in under ``worker``.

        Only the telemetry counters are updated: the worker's metric
        increments (``crawl.visits`` etc.) arrive separately through the
        merged :mod:`repro.obs.metrics` registry snapshot, so touching the
        registry here would double-count them.
        """
        with self._lock:
            if self._started_at is None:
                self._started_at = self.clock()
            self._completed += chunk.completed
            self._succeeded += chunk.succeeded
            self._retries += chunk.retries
            self._simulated_seconds += chunk.simulated_seconds
            self._by_worker[worker] += chunk.completed
            for taxonomy, count in chunk.failures:
                self._failures[taxonomy] += count
            for kind, count in chunk.guard_counts:
                self._guard_events[kind] += count

    def record_interrupted(self) -> None:
        """Note that the run stopped before covering every target."""
        with self._lock:
            self._interrupted = True
        if _metrics.COUNTING:
            _metrics.REGISTRY.counter("crawl.interrupted").inc()

    def record_quarantined(self, rank: int, *, detail: str = "") -> None:
        """Note a rank the supervisor quarantined as ``poison-visit``
        (its visit repeatedly killed or hung worker processes)."""
        with self._lock:
            self._quarantined.append(rank)
        if _metrics.COUNTING:
            _metrics.REGISTRY.counter("crawl.quarantined").inc()

    def record_guard_event(self, kind: str, count: int = 1) -> None:
        """Count guard interventions (:mod:`repro.crawler.guards` kinds).

        The pool forwards per-visit guard events for in-process backends;
        the process backend ships them back inside each chunk's
        :class:`ChunkTelemetry` delta.
        """
        with self._lock:
            self._guard_events[kind] += count

    def snapshot(self) -> TelemetrySnapshot:
        with self._lock:
            elapsed = (self.clock() - self._started_at
                       if self._started_at is not None else 0.0)
            return TelemetrySnapshot(
                total=self._total,
                completed=self._completed,
                resumed=self._resumed,
                succeeded=self._succeeded,
                failed=self._completed - self._succeeded,
                retries=self._retries,
                queue_depth=max(0, self._total - self._completed
                                - self._resumed - len(self._quarantined)),
                elapsed_seconds=elapsed,
                simulated_seconds=self._simulated_seconds,
                failure_counts=dict(self._failures),
                visits_by_worker=dict(self._by_worker),
                backend=self._backend,
                guard_counts=dict(self._guard_events),
                interrupted=self._interrupted,
                quarantined_ranks=tuple(sorted(self._quarantined)),
            )

    def render(self) -> str:
        return self.snapshot().render()
