"""Deterministic chaos injection for the process-backend supervisor.

The supervisor (DESIGN.md §4k) claims a crawl survives worker death, hung
chunks and flaky merges without changing a byte of the dataset.  That
claim is only testable if the failures themselves are reproducible, so
this module injects them deterministically: a :class:`ChaosPolicy` is a
picklable recipe naming the exact ranks at which a worker dies
(``os._exit``), stalls (``time.sleep``), or the parent's sidecar merge
raises ``sqlite3.OperationalError``.

Two firing modes:

* **once** (``kill_ranks``/``hang_ranks``/``merge_error_ranks``) — the
  injection fires the first time its rank is attempted and never again.
  Worker processes are disposable (that is the point), so "fired" state
  cannot live in worker memory; it lives as marker files in
  ``state_dir``, created with ``O_CREAT | O_EXCL`` so exactly one attempt
  wins even across a crash boundary (the marker is durable by the time
  ``os._exit`` runs).  A recovered replay of the same rank then proceeds
  normally — which is exactly the transient worker-death scenario the
  crash-recovery path exists for.

* **always** (``poison_ranks``) — the injection fires on *every* attempt,
  modelling a site whose visit reliably kills the browser.  No recovery
  replay can get past it, so the supervisor must bisect the chunk down to
  the rank and quarantine it.

Injection points:

* worker side, at chunk pickup: :meth:`ChaosPolicy.on_chunk` is called
  with the chunk's ranks before any visit runs, so a killed chunk loses
  *all* its work — the worst case for replay byte-identity;
* parent side, at merge time: :meth:`ChaosPolicy.before_merge` raises for
  a chunk containing a marked rank, exercising the supervisor's merge
  retry.

Everything is a pure function of ``(policy fields, marker state)`` — no
randomness at fire time.  :meth:`ChaosPolicy.plan` picks the injection
ranks themselves from a seeded RNG so drills are one-line reproducible.
"""

from __future__ import annotations

import logging
import os
import random
import sqlite3
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

logger = logging.getLogger(__name__)

#: Exit status an injected worker death uses; distinguishable in logs from
#: a real segfault (negative signal codes) and from a clean exit (0).
CHAOS_EXIT_CODE = 77


def _sorted_ranks(ranks: "Sequence[int] | Iterable[int]") -> tuple[int, ...]:
    out = tuple(sorted({int(rank) for rank in ranks}))
    if any(rank < 0 for rank in out):
        raise ValueError("chaos ranks must be >= 0")
    return out


@dataclass(frozen=True)
class ChaosPolicy:
    """Picklable, deterministic failure-injection recipe.

    Build one with :meth:`plan` (seeded rank selection) or directly with
    explicit rank tuples, and pass it to
    :meth:`CrawlerPool.run(chaos=...)
    <repro.crawler.pool.CrawlerPool.run>` (process backend only — an
    injected ``os._exit`` in the serial backend would kill the caller).
    """

    #: Ranks whose first attempt kills the worker (``os._exit``), once.
    kill_ranks: tuple[int, ...] = ()
    #: Ranks whose first attempt stalls the worker for ``hang_seconds``,
    #: once (the chunk watchdog is expected to recycle the worker first).
    hang_ranks: tuple[int, ...] = ()
    #: Ranks that kill the worker on *every* attempt — only quarantine
    #: gets the crawl past them.
    poison_ranks: tuple[int, ...] = ()
    #: Ranks whose chunk raises ``sqlite3.OperationalError`` at the
    #: parent's merge step, once.
    merge_error_ranks: tuple[int, ...] = ()
    #: How long a hang sleeps.  Far above any chunk deadline by default;
    #: drills shorten it so an undetected hang fails fast instead of
    #: wedging the suite.
    hang_seconds: float = 3600.0
    #: Directory holding the once-only marker files.  Required whenever a
    #: once-mode injection is configured.
    state_dir: str = ""
    #: Seed recorded by :meth:`plan` (informational — firing is already
    #: deterministic given the rank tuples).
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("kill_ranks", "hang_ranks", "poison_ranks",
                     "merge_error_ranks"):
            object.__setattr__(self, name,
                               _sorted_ranks(getattr(self, name)))
        if self.hang_seconds <= 0:
            raise ValueError("hang_seconds must be > 0")
        once = (self.kill_ranks or self.hang_ranks
                or self.merge_error_ranks)
        if once and not self.state_dir:
            raise ValueError(
                "once-only injections (kill/hang/merge) need a state_dir "
                "to record which ones already fired")

    @classmethod
    def plan(cls, site_count: int, *, seed: int = 0, kills: int = 0,
             hangs: int = 0, poisons: int = 0, merge_errors: int = 0,
             state_dir: "str | Path" = "",
             hang_seconds: float = 3600.0) -> "ChaosPolicy":
        """Pick disjoint injection ranks from a seeded RNG.

        The same ``(site_count, seed, counts)`` always selects the same
        ranks, so a drill's failure plan is reproducible from its report.

        Crash injections (kills, poisons, merge errors) are placed in the
        *first half* of the rank space and hangs in the *last quarter*:
        chunks dispatch in rank order, so a drill's report reads as the
        crash storm (including the crashes that bisect the poison rank's
        chunk down to the rank) followed by the hang.  A crash loses only
        its own worker's chunk, so the watchdog always owns the hang.
        """
        wanted = kills + hangs + poisons + merge_errors
        rng = random.Random(seed)
        crashes = kills + poisons + merge_errors
        if hangs:
            hang_span = range(site_count - site_count // 4, site_count)
            crash_span = range(min(site_count // 2, hang_span.start))
        else:
            hang_span = range(0)
            crash_span = range(site_count // 2 if crashes else 0)
        if crashes > len(crash_span) or hangs > len(hang_span):
            raise ValueError(
                f"cannot place {wanted} injections over {site_count} sites")
        picks = rng.sample(crash_span, crashes)
        kill = picks[:kills]
        poison = picks[kills:kills + poisons]
        merge = picks[kills + poisons:]
        hang = rng.sample(hang_span, hangs)
        return cls(kill_ranks=tuple(kill), hang_ranks=tuple(hang),
                   poison_ranks=tuple(poison),
                   merge_error_ranks=tuple(merge),
                   hang_seconds=hang_seconds, state_dir=str(state_dir),
                   seed=seed)

    # -- marker state -------------------------------------------------------

    def _arm(self, kind: str, rank: int) -> bool:
        """Atomically claim the (kind, rank) injection; True fires it.

        The marker file is created before the failure happens, so a
        killed worker leaves durable evidence and the replay skips the
        injection — once-only even across process death.
        """
        directory = Path(self.state_dir)
        directory.mkdir(parents=True, exist_ok=True)
        try:
            fd = os.open(directory / f"{kind}-{rank}.fired",
                         os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        os.close(fd)
        return True

    def fired(self) -> dict[str, tuple[int, ...]]:
        """Injections that have fired, by kind — the drill's ground truth
        for checking recovery counts against the plan."""
        out: dict[str, list[int]] = {"kill": [], "hang": [], "merge": []}
        directory = Path(self.state_dir)
        if self.state_dir and directory.is_dir():
            for marker in directory.glob("*-*.fired"):
                kind, _, rank = marker.name[:-len(".fired")].partition("-")
                if kind in out and rank.isdigit():
                    out[kind].append(int(rank))
        return {kind: tuple(sorted(ranks)) for kind, ranks in out.items()}

    # -- injection points ---------------------------------------------------

    def on_chunk(self, ranks: "Sequence[int]") -> None:
        """Worker-side hook, called before a chunk's first visit.

        Poison beats kill beats hang when a chunk contains several marked
        ranks; the rank order within each kind is ascending, so firing is
        independent of chunk layout.
        """
        for rank in ranks:
            if rank in self.poison_ranks:
                logger.warning("chaos: poison rank %d — killing worker "
                               "pid %d", rank, os.getpid())
                os._exit(CHAOS_EXIT_CODE)
        for rank in ranks:
            if rank in self.kill_ranks and self._arm("kill", rank):
                logger.warning("chaos: injected death at rank %d — killing "
                               "worker pid %d", rank, os.getpid())
                os._exit(CHAOS_EXIT_CODE)
        for rank in ranks:
            if rank in self.hang_ranks and self._arm("hang", rank):
                logger.warning("chaos: injected hang at rank %d for %.1fs "
                               "(pid %d)", rank, self.hang_seconds,
                               os.getpid())
                time.sleep(self.hang_seconds)

    def before_merge(self, ranks: "Sequence[int]") -> None:
        """Parent-side hook, called before a chunk sidecar merges."""
        for rank in ranks:
            if rank in self.merge_error_ranks and self._arm("merge", rank):
                raise sqlite3.OperationalError(
                    f"chaos: injected merge failure for rank {rank}")

    def planned(self) -> dict[str, tuple[int, ...]]:
        """The injection plan by kind (for reports)."""
        return {"kill": self.kill_ranks, "hang": self.hang_ranks,
                "poison": self.poison_ranks,
                "merge": self.merge_error_ranks}
