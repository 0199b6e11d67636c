"""Self-healing supervision for the process crawl backend (DESIGN.md §4k).

The process backend runs each chunk on an owned worker process that holds
at most one chunk.  Without supervision one worker dying of an OOM kill
or segfault sinks the run.  The supervisor turns those events into
bounded, deterministic recovery:

* **Crash recovery.**  Each dead worker costs one *rebuild* from a
  per-run budget (``max_pool_rebuilds``): that worker alone is respawned,
  its half-written ``.wchunk-*`` sidecar is deleted, and its chunk is
  resubmitted while the other workers keep crawling.  Sites are pure
  functions of ``(seed, rank)``, so a replayed chunk produces
  byte-identical rows — recovery cannot change the dataset.

* **Names and strikes.**  The parent knows which chunk each worker
  holds, so a dead worker's sentinel names its chunk; the hang watchdog
  names the chunk it found overdue, and a failed sidecar merge names its
  own chunk.  Only a named chunk takes a *strike*.  A named chunk
  reaching :attr:`SupervisorConfig.suspect_strikes` is bisected into two
  ordinary requeued halves (which inherit its strikes), so each further
  failure halves the suspect span; a named single rank at the threshold
  is *quarantined*: recorded in the store's ``quarantine`` table (the
  corrupt-row mechanism of DESIGN.md §4g) under the ``poison-visit``
  taxonomy, and the rest of the run proceeds without it.  Isolating one poison rank out
  of a chunk of *n* costs about ``suspect_strikes + log2(n)`` rebuilds.

* **Crashes with no name.**  A worker that dies between chunks still
  spends a rebuild, but it held nothing, so nothing is requeued or
  struck.  Each ``pool-rebuild`` event records its ``attribution``
  (``sentinel``, ``watchdog`` or ``none``) and its ``named_chunks``.

* **Hang watchdog.**  Chunk deadlines derive from the adaptive
  scheduler's observed rate (``watchdog_factor ×`` the expected chunk
  duration, floored while no rate is known).  An over-deadline chunk's
  worker is SIGKILLed and respawned like a crashed one, and the chunk is
  named.

* **Merge retry.**  A ``sqlite3.OperationalError`` while folding a chunk
  sidecar into the main store is retried (the sidecar is still on disk);
  a chunk whose merge keeps failing is named and recrawled through the
  same strike machinery, without spending the rebuild budget (the
  workers are fine).

The class here is deliberately pure bookkeeping — no process handles, no
filesystem, injectable clock — so the strike/bisection/budget logic is
unit-testable without spawning a single process.  The backend
(:func:`repro.crawler.backends.crawl_in_processes`) owns the respawns,
sidecar deletion and resubmission.

When the budget runs out, :class:`PoolCrashError` surfaces with the full
event history, so nine-day runs fail with a story instead of a bare
``BrokenProcessPool``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from repro.obs import metrics as _metrics

#: Quarantine-table reason / telemetry taxonomy for a rank whose visit
#: repeatedly kills or hangs worker processes.  Unlike the Section 4
#: visit-failure taxonomies this never appears on a visit row — the visit
#: never completes — it marks the rank's absence from the dataset.
POISON_VISIT = "poison-visit"


@dataclass(frozen=True)
class SupervisorConfig:
    """Knobs for the process-backend crawl supervisor.

    The defaults suit paper-scale crawls; tests and drills shrink the
    watchdog numbers.  ``max_pool_rebuilds`` should leave headroom for
    bisection: isolating a poison rank from a chunk of *n* costs about
    ``suspect_strikes + log2(n)`` rebuilds on top of one per transient
    crash.
    """

    #: Worker respawns (rebuilds) allowed per run before
    #: :class:`PoolCrashError`.
    max_pool_rebuilds: int = 8
    #: Chunk losses before a multi-rank chunk is bisected and before a
    #: single-rank chunk is quarantined as poison.
    suspect_strikes: int = 2
    #: Chunk deadline = ``watchdog_factor`` × the scheduler-expected
    #: chunk duration (observed rate), floored by
    #: ``watchdog_floor_seconds`` — generous so adaptive-rate noise and
    #: cold workers never trip it.
    watchdog_factor: float = 10.0
    #: Deadline floor, and the whole deadline while no rate is measured.
    watchdog_floor_seconds: float = 30.0
    #: How often the dispatch loop wakes to check deadlines.  ``0``
    #: disables the watchdog (crash recovery still works).
    watchdog_poll_seconds: float = 0.25
    #: Attempts per chunk-sidecar merge (>= 1; 1 disables the retry).
    merge_attempts: int = 2

    def __post_init__(self) -> None:
        if self.max_pool_rebuilds < 0:
            raise ValueError("max_pool_rebuilds must be >= 0")
        if self.suspect_strikes < 1:
            raise ValueError("suspect_strikes must be >= 1")
        if self.watchdog_factor <= 0:
            raise ValueError("watchdog_factor must be > 0")
        if self.watchdog_floor_seconds <= 0:
            raise ValueError("watchdog_floor_seconds must be > 0")
        if self.watchdog_poll_seconds < 0:
            raise ValueError("watchdog_poll_seconds must be >= 0")
        if self.merge_attempts < 1:
            raise ValueError("merge_attempts must be >= 1")

    @property
    def watchdog_enabled(self) -> bool:
        return self.watchdog_poll_seconds > 0


class PoolCrashError(RuntimeError):
    """The crash budget ran out; carries the supervisor's telemetry.

    Raised by :meth:`ChunkSupervisor.on_pool_crash` when one more rebuild
    would exceed ``max_pool_rebuilds``.  The run's checkpoint store holds
    every chunk merged before the final crash, so ``resume=True``
    completes it (injected once-only faults do not refire).
    """

    def __init__(self, *, rebuilds: int, max_pool_rebuilds: int,
                 lost_ranks: Sequence[int],
                 quarantined_ranks: Sequence[int],
                 events: Sequence[dict]) -> None:
        self.rebuilds = rebuilds
        self.max_pool_rebuilds = max_pool_rebuilds
        self.lost_ranks = tuple(lost_ranks)
        self.quarantined_ranks = tuple(quarantined_ranks)
        self.events = tuple(events)
        lost = ", ".join(str(rank) for rank in self.lost_ranks[:8])
        if len(self.lost_ranks) > 8:
            lost += ", ..."
        super().__init__(
            f"crawl worker pool crashed {rebuilds} time(s), exceeding the "
            f"rebuild budget of {max_pool_rebuilds}; {len(self.lost_ranks)} "
            f"rank(s) in flight ({lost}) — the checkpoint store holds all "
            f"merged chunks, rerun with resume=True")


@dataclass(frozen=True)
class RecoveryPlan:
    """What the backend must do after a worker crash (or merge failure)."""

    #: Rank tuples to resubmit, in order (a bisected chunk's halves stay
    #: contiguous).
    requeue: tuple[tuple[int, ...], ...]
    #: ``(rank, detail)`` pairs to quarantine as ``poison-visit``.
    quarantine: tuple[tuple[int, str], ...]


class ChunkSupervisor:
    """Pure strike/bisection/budget bookkeeping for one run.

    The backend reports chunk lifecycle events (`note_submitted`,
    `note_finished`) and failures (`on_pool_crash`, `on_merge_failure`);
    the supervisor answers with a :class:`RecoveryPlan` and keeps the
    counters that become ``pool.last_supervisor_stats`` and the
    ``supervisor.*`` metrics.

    Strikes are keyed by the chunk's rank tuple, not its submission
    index, so a resubmitted chunk keeps its record across attempts.
    Everything is deterministic given the event sequence — the clock only
    feeds watchdog deadlines, never the recovery decisions.
    """

    def __init__(self, config: SupervisorConfig, *,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.config = config
        self._clock = clock
        self._strikes: dict[tuple[int, ...], int] = {}
        self._submitted_at: dict[int, float] = {}
        self.rebuilds = 0
        self.attributed_crashes = 0
        self.requeued_chunks = 0
        self.requeued_ranks = 0
        self.bisections = 0
        self.watchdog_hangs = 0
        self.merge_retries = 0
        self.quarantined: list[tuple[int, str]] = []
        self.events: list[dict] = []

    # -- chunk lifecycle ----------------------------------------------------

    def note_submitted(self, chunk_index: int) -> None:
        self._submitted_at[chunk_index] = self._clock()

    def note_finished(self, chunk_index: int) -> None:
        self._submitted_at.pop(chunk_index, None)

    def note_merge_retry(self) -> None:
        self.merge_retries += 1
        if _metrics.COUNTING:
            _metrics.REGISTRY.counter("supervisor.merge_retries").inc()

    # -- watchdog -----------------------------------------------------------

    def deadline_seconds(self, size: int,
                         observed_rate: "float | None") -> float:
        """The hang deadline for a chunk of ``size`` ranks."""
        floor = self.config.watchdog_floor_seconds
        if not observed_rate or observed_rate <= 0:
            return floor
        return max(floor, self.config.watchdog_factor * size / observed_rate)

    def overdue(self, chunks: "dict[int, int]",
                observed_rate: "float | None") -> list[int]:
        """Indices of in-flight chunks past their deadline.

        ``chunks`` maps chunk index → rank count for everything currently
        submitted; indices the supervisor never saw submit are ignored.
        """
        if not self.config.watchdog_enabled:
            return []
        now = self._clock()
        late = []
        for index, size in chunks.items():
            started = self._submitted_at.get(index)
            if started is None:
                continue
            if now - started > self.deadline_seconds(size, observed_rate):
                late.append(index)
        return sorted(late)

    # -- failure handling ---------------------------------------------------

    def on_pool_crash(self, lost: "Sequence[tuple[int, ...]]", *,
                      cause: str,
                      named: "Mapping[int, tuple[int, ...]] | None" = None,
                      ) -> RecoveryPlan:
        """One worker crash: spend a rebuild, plan requeues and
        quarantines.

        ``lost`` is every chunk (as its rank tuple) the crash lost: the
        dead worker's own chunk, or nothing when it died between chunks.
        ``named`` (chunk index → ranks) says which of them caused the
        crash: the chunk a dead worker's sentinel names, or the chunk the
        watchdog found hung (``cause="hang"``).  Only the named chunks
        take a strike; a lost chunk nobody named requeues strike-free.
        Raises :class:`PoolCrashError` when the budget is spent.
        """
        named = dict(named or {})
        self.rebuilds += 1
        if cause == "hang":
            self.watchdog_hangs += 1
        if _metrics.COUNTING:
            _metrics.REGISTRY.counter("supervisor.pool_rebuilds").inc()
            if cause == "hang":
                _metrics.REGISTRY.counter("supervisor.watchdog_hangs").inc()
        if self.rebuilds > self.config.max_pool_rebuilds:
            raise PoolCrashError(
                rebuilds=self.rebuilds,
                max_pool_rebuilds=self.config.max_pool_rebuilds,
                lost_ranks=sorted(rank for ranks in lost for rank in ranks),
                quarantined_ranks=[rank for rank, _ in self.quarantined],
                events=self.events + [{
                    "event": "budget-exhausted", "cause": cause,
                    "chunks_lost": len(lost)}])
        if cause == "hang":
            attribution = "watchdog"
        elif named:
            attribution = "sentinel"
            self.attributed_crashes += 1
        else:
            attribution = "none"
        plan = self._plan(lost, cause=cause, by=attribution,
                          named=named.values())
        self.events.append({
            "event": "pool-rebuild", "cause": cause, "rebuild": self.rebuilds,
            "attribution": attribution, "named_chunks": sorted(named),
            "chunks_lost": len(lost),
            "ranks_requeued": sum(len(ranks) for ranks in plan.requeue),
            "quarantined": [rank for rank, _ in plan.quarantine]})
        return plan

    def on_merge_failure(self, ranks: "tuple[int, ...]", *,
                         detail: str) -> RecoveryPlan:
        """A chunk sidecar merge failed past its retries: the chunk is
        named and recrawled through the strike machinery.  No rebuild is
        spent — the worker pool is healthy."""
        plan = self._plan([ranks], cause="merge-failure", by="merge",
                          named=[ranks])
        self.events.append({
            "event": "merge-failure", "detail": detail,
            "ranks_requeued": sum(len(r) for r in plan.requeue),
            "quarantined": [rank for rank, _ in plan.quarantine]})
        return plan

    def _plan(self, lost: "Sequence[tuple[int, ...]]", *, cause: str,
              by: str, named: "Iterable[tuple[int, ...]]") -> RecoveryPlan:
        named_set = {tuple(ranks) for ranks in named}
        requeue: list[tuple[int, ...]] = []
        quarantine: list[tuple[int, str]] = []
        for ranks in lost:
            ranks = tuple(ranks)
            if ranks not in named_set:
                requeue.append(ranks)
                continue
            strikes = self._strikes.pop(ranks, 0) + 1
            if strikes < self.config.suspect_strikes:
                self._strikes[ranks] = strikes
                requeue.append(ranks)
            elif len(ranks) > 1:
                # Bisect, halving the suspect span per failure; the next
                # failure names the guilty half again.
                mid = len(ranks) // 2
                self.bisections += 1
                if _metrics.COUNTING:
                    _metrics.REGISTRY.counter("supervisor.bisections").inc()
                for half in (ranks[:mid], ranks[mid:]):
                    self._strikes[half] = strikes
                    requeue.append(half)
            else:
                detail = (f"{cause} named by {by} ({strikes} strike(s)) "
                          f"at rank {ranks[0]}")
                quarantine.append((ranks[0], detail))
                self.quarantined.append((ranks[0], detail))
                if _metrics.COUNTING:
                    _metrics.REGISTRY.counter(
                        "supervisor.poison_quarantined").inc()
        self.requeued_chunks += len(requeue)
        requeued_ranks = sum(len(ranks) for ranks in requeue)
        self.requeued_ranks += requeued_ranks
        if _metrics.COUNTING and requeue:
            _metrics.REGISTRY.counter("supervisor.requeued_ranks").inc(
                requeued_ranks)
        return RecoveryPlan(requeue=tuple(requeue),
                            quarantine=tuple(quarantine))

    # -- reporting ----------------------------------------------------------

    def stats(self) -> dict:
        """The run's supervision summary (``pool.last_supervisor_stats``)."""
        return {
            "rebuilds": self.rebuilds,
            "attributed_crashes": self.attributed_crashes,
            "max_pool_rebuilds": self.config.max_pool_rebuilds,
            "requeued_chunks": self.requeued_chunks,
            "requeued_ranks": self.requeued_ranks,
            "bisections": self.bisections,
            "watchdog_hangs": self.watchdog_hangs,
            "merge_retries": self.merge_retries,
            "quarantined_ranks": sorted(
                rank for rank, _ in self.quarantined),
            "events": list(self.events),
        }
