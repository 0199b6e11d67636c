"""Tests for the self-healing crawl supervisor (DESIGN.md §4k).

Three layers, matching the module split:

* :class:`~repro.crawler.supervisor.ChunkSupervisor` is pure bookkeeping
  (injectable clock, no processes), so attribution by name, strikes,
  bisection, quarantine, the watchdog deadline math and the rebuild
  budget are unit-tested event-by-event.
* :class:`~repro.crawler.chaos.ChaosPolicy` planning and marker state are
  tested without firing anything (firing ``os._exit`` in-process would
  kill pytest).
* Integration tests run real chaos-injected crawls on the process
  backend and assert the dataset is byte-identical to the crash-free
  baseline — modulo exactly the quarantined poison ranks — which is the
  supervisor's core contract.
"""

import glob
import sqlite3
import tempfile
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.crawler import backends
from repro.crawler.chaos import ChaosPolicy
from repro.crawler.pool import CrawlerPool
from repro.crawler.storage import CrawlStore
from repro.crawler.supervisor import (
    POISON_VISIT,
    ChunkSupervisor,
    PoolCrashError,
    RecoveryPlan,
    SupervisorConfig,
    attribute_crash,
)
from repro.crawler.telemetry import CrawlTelemetry
from repro.synthweb.generator import SyntheticWeb


@pytest.fixture(scope="module")
def web() -> SyntheticWeb:
    return SyntheticWeb(40, seed=2024)


@pytest.fixture(scope="module")
def baseline(web):
    return CrawlerPool(web, workers=2).run()


def fast_config(**overrides) -> SupervisorConfig:
    """A drill-speed config: short watchdog, small budget headroom."""
    defaults = dict(max_pool_rebuilds=12, watchdog_floor_seconds=2.0,
                    watchdog_poll_seconds=0.05)
    defaults.update(overrides)
    return SupervisorConfig(**defaults)


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


class TestSupervisorConfig:
    def test_defaults_are_valid(self):
        config = SupervisorConfig()
        assert config.max_pool_rebuilds == 8
        assert config.watchdog_enabled

    @pytest.mark.parametrize("kwargs", [
        {"max_pool_rebuilds": -1},
        {"suspect_strikes": 0},
        {"watchdog_factor": 0.0},
        {"watchdog_floor_seconds": 0.0},
        {"watchdog_poll_seconds": -0.1},
        {"merge_attempts": 0},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SupervisorConfig(**kwargs)

    def test_zero_poll_disables_watchdog(self):
        assert not SupervisorConfig(
            watchdog_poll_seconds=0).watchdog_enabled


class TestChunkSupervisor:
    """Event-driven unit tests: no executors, injectable clock."""

    def test_transient_crash_requeues_everything(self):
        sup = ChunkSupervisor(SupervisorConfig())
        plan = sup.on_pool_crash([(0, 1, 2), (3, 4)], cause="worker-crash")
        assert plan.requeue == ((0, 1, 2), (3, 4))
        assert plan.quarantine == ()
        assert sup.rebuilds == 1
        assert sup.requeued_ranks == 5

    def test_unnamed_crashes_requeue_without_strikes(self):
        sup = ChunkSupervisor(SupervisorConfig(suspect_strikes=2))
        lost = [(0, 1), (2, 3)]
        # A crash that names nothing strikes nobody, however often the
        # same chunks go down with the pool.
        for _ in range(3):
            plan = sup.on_pool_crash(lost, cause="worker-crash", named={})
            assert plan == RecoveryPlan(requeue=((0, 1), (2, 3)),
                                        quarantine=())
        assert sup.bisections == 0
        assert sup.quarantined == []
        assert sup.attributed_crashes == 0
        assert [event["attribution"] for event in sup.events] == [
            "none"] * 3
        assert all(event["named_chunks"] == [] for event in sup.events)
        assert not sup.holds_fresh_chunks(lost)
        # No strike was left behind: a first name is a first strike.
        plan = sup.on_pool_crash(lost, cause="worker-crash",
                                 named={0: (0, 1)})
        assert plan.requeue == ((0, 1), (2, 3))
        assert sup.bisections == 0

    def test_bystanders_of_a_hang_requeue_strike_free(self):
        sup = ChunkSupervisor(SupervisorConfig(suspect_strikes=1))
        # The watchdog names exactly the hung chunk, so even with
        # suspect_strikes=1 only it is bisected; the co-flying chunk
        # requeues untouched.
        plan = sup.on_pool_crash([(0, 1), (2, 3)], cause="hang",
                                 named={4: (0, 1)})
        assert plan.requeue == ((0,), (1,), (2, 3))
        assert sup.bisections == 1
        assert sup.watchdog_hangs == 1

    def test_certain_crash_bisects_multirank_chunk(self):
        sup = ChunkSupervisor(SupervisorConfig(suspect_strikes=1))
        plan = sup.on_pool_crash([(4, 5, 6, 7)], cause="worker-crash",
                                 named={0: (4, 5, 6, 7)})
        # Named at the threshold: split into requeued halves, which a
        # further crash names again.
        assert plan.requeue == ((4, 5), (6, 7))
        assert plan.quarantine == ()
        assert sup.bisections == 1

    def test_certain_crash_quarantines_single_rank(self):
        sup = ChunkSupervisor(SupervisorConfig(suspect_strikes=1))
        plan = sup.on_pool_crash([(9,)], cause="worker-crash",
                                 named={0: (9,)})
        assert plan.quarantine[0][0] == 9
        assert "breadcrumb" in plan.quarantine[0][1]
        assert sup.stats()["quarantined_ranks"] == [9]

    def test_watchdog_named_hang_bisects_then_quarantines(self):
        sup = ChunkSupervisor(SupervisorConfig(suspect_strikes=2))
        lost = [(0, 1), (2, 3)]
        plan = sup.on_pool_crash(lost, cause="hang", named={1: (2, 3)})
        assert plan.requeue == ((2, 3), (0, 1))
        plan = sup.on_pool_crash(lost, cause="hang", named={3: (2, 3)})
        assert plan.requeue == ((2,), (3,), (0, 1))
        assert sup.bisections == 1
        # The halves inherit the strikes: a hang in one quarantines it.
        plan = sup.on_pool_crash([(3,), (0, 1)], cause="hang",
                                 named={5: (3,)})
        assert [rank for rank, _ in plan.quarantine] == [3]
        assert "watchdog" in plan.quarantine[0][1]
        assert plan.requeue == ((0, 1),)
        assert [event["attribution"] for event in sup.events] == [
            "watchdog"] * 3
        assert sup.events[-1]["named_chunks"] == [5]
        assert sup.watchdog_hangs == 3

    def test_merge_failure_at_threshold_bisects_or_quarantines(self):
        sup = ChunkSupervisor(SupervisorConfig(suspect_strikes=2))
        assert sup.on_merge_failure((4, 5), detail="disk flake").requeue \
            == ((4, 5),)
        plan = sup.on_merge_failure((4, 5), detail="disk flake")
        assert plan.requeue == ((4,), (5,))
        assert sup.bisections == 1
        plan = sup.on_merge_failure((5,), detail="disk flake")
        assert [rank for rank, _ in plan.quarantine] == [5]
        assert plan.requeue == ()
        assert sup.events[-1]["quarantined"] == [5]
        assert sup.rebuilds == 0

    def test_budget_exhaustion_raises_with_story(self):
        sup = ChunkSupervisor(SupervisorConfig(max_pool_rebuilds=1))
        sup.on_pool_crash([(0, 1)], cause="worker-crash")
        with pytest.raises(PoolCrashError) as exc_info:
            sup.on_pool_crash([(2, 3), (0, 1)], cause="worker-crash")
        err = exc_info.value
        assert err.rebuilds == 2
        assert err.max_pool_rebuilds == 1
        assert err.lost_ranks == (0, 1, 2, 3)
        assert err.events[-1]["event"] == "budget-exhausted"
        assert "resume=True" in str(err)

    def test_merge_failure_spends_no_rebuild(self):
        sup = ChunkSupervisor(SupervisorConfig())
        plan = sup.on_merge_failure((10, 11), detail="disk flake")
        assert plan.requeue == ((10, 11),)
        assert sup.rebuilds == 0
        assert sup.events[-1]["event"] == "merge-failure"
        sup.note_merge_retry()
        assert sup.merge_retries == 1

    def test_watchdog_deadline_math(self):
        config = SupervisorConfig(watchdog_factor=10.0,
                                  watchdog_floor_seconds=30.0)
        sup = ChunkSupervisor(config)
        # No observed rate yet: the floor is the whole deadline.
        assert sup.deadline_seconds(512, None) == 30.0
        # 100 ranks at 20 ranks/s is 5 s expected, ×10 = 50 s.
        assert sup.deadline_seconds(100, 20.0) == 50.0
        # Small chunks stay floored.
        assert sup.deadline_seconds(2, 20.0) == 30.0

    def test_watchdog_overdue_uses_submission_times(self):
        clock = FakeClock()
        sup = ChunkSupervisor(fast_config(), clock=clock)
        sup.note_submitted(0)
        clock.now += 1.0
        sup.note_submitted(1)
        assert sup.overdue({0: 8, 1: 8}, None) == []
        clock.now += 1.5  # chunk 0 is now 2.5 s old, past the 2 s floor
        assert sup.overdue({0: 8, 1: 8}, None) == [0]
        sup.note_finished(0)
        assert sup.overdue({0: 8, 1: 8}, None) == []
        # Disabled watchdog never reports anyone.
        off = ChunkSupervisor(fast_config(watchdog_poll_seconds=0),
                              clock=clock)
        off.note_submitted(5)
        clock.now += 1000.0
        assert off.overdue({5: 8}, None) == []

    def test_stats_shape(self):
        sup = ChunkSupervisor(SupervisorConfig())
        stats = sup.stats()
        assert set(stats) == {
            "rebuilds", "attributed_crashes", "max_pool_rebuilds",
            "requeued_chunks", "requeued_ranks", "bisections",
            "watchdog_hangs", "merge_retries",
            "quarantined_ranks", "events"}
        assert stats["rebuilds"] == 0
        assert stats["attributed_crashes"] == 0
        assert stats["events"] == []


class TestBreadcrumbAttribution:
    """Exact attribution from crash breadcrumbs: pure, no processes."""

    def test_named_chunk_takes_the_strike_bystanders_none(self):
        sup = ChunkSupervisor(SupervisorConfig(suspect_strikes=2))
        lost = [(0, 1), (2, 3), (4, 5)]
        sup.on_pool_crash(lost, cause="worker-crash", named={7: (2, 3)})
        # The bystanders carry no strike: a second crash naming one of
        # them is only its first strike, so it just requeues.
        plan = sup.on_pool_crash(lost, cause="worker-crash",
                                 named={6: (0, 1)})
        assert plan.requeue == ((0, 1), (2, 3), (4, 5))
        # The first named chunk, named again, is at the threshold; its
        # halves rerun ahead of the bystanders.
        plan = sup.on_pool_crash(lost, cause="worker-crash",
                                 named={7: (2, 3)})
        assert plan.requeue == ((2,), (3,), (0, 1), (4, 5))
        assert sup.bisections == 1
        assert sup.attributed_crashes == 3

    def test_single_named_crash_only_requeues(self):
        sup = ChunkSupervisor(SupervisorConfig(suspect_strikes=2))
        plan = sup.on_pool_crash([(0, 1, 2), (3, 4)], cause="worker-crash",
                                 named={3: (3, 4)})
        # The named chunk reruns first, so a repeat crash comes before
        # the bystanders have done much work it would destroy.
        assert plan == RecoveryPlan(requeue=((3, 4), (0, 1, 2)),
                                    quarantine=())
        event = sup.events[-1]
        assert event["attribution"] == "breadcrumb"
        assert event["named_chunks"] == [3]

    def test_named_chunk_at_threshold_bisects_into_requeue(self):
        sup = ChunkSupervisor(SupervisorConfig(suspect_strikes=2))
        sup.on_pool_crash([(4, 5, 6, 7), (8, 9)], cause="worker-crash",
                          named={0: (4, 5, 6, 7)})
        plan = sup.on_pool_crash([(4, 5, 6, 7), (8, 9)],
                                 cause="worker-crash",
                                 named={2: (4, 5, 6, 7)})
        # Ordinary requeued halves: the next crash is attributed exactly
        # again, so nothing needs to run alone.
        assert plan.requeue == ((4, 5), (6, 7), (8, 9))
        assert plan.quarantine == ()
        assert sup.bisections == 1
        # The halves inherit the strikes: the guilty half, named once
        # more, bisects again at once.
        plan = sup.on_pool_crash([(6, 7)], cause="worker-crash",
                                 named={5: (6, 7)})
        assert plan.requeue == ((6,), (7,))
        assert sup.bisections == 2

    def test_named_single_rank_at_threshold_is_quarantined(self):
        sup = ChunkSupervisor(SupervisorConfig(suspect_strikes=2))
        sup.on_pool_crash([(9,), (10, 11)], cause="worker-crash",
                          named={1: (9,)})
        plan = sup.on_pool_crash([(9,), (10, 11)], cause="worker-crash",
                                 named={3: (9,)})
        assert [rank for rank, _ in plan.quarantine] == [9]
        assert "breadcrumb" in plan.quarantine[0][1]
        assert plan.requeue == ((10, 11),)
        assert sup.stats()["quarantined_ranks"] == [9]
        assert sup.events[-1]["quarantined"] == [9]

    def test_attribution_ignores_empty_and_foreign_breadcrumbs(self):
        lost = {4: (40, 41), 5: (50,)}
        # An exited worker with an empty breadcrumb (it died between
        # chunks) or one naming a chunk that is not lost names nothing.
        assert attribute_crash([None], lost) == {}
        assert attribute_crash([3, 9], lost) == {}
        assert attribute_crash([], lost) == {}
        assert attribute_crash([None, 5, 3], lost) == {5: (50,)}
        assert attribute_crash([5, 4, 5], lost) == {4: (40, 41),
                                                    5: (50,)}

    def test_fresh_chunks_wait_while_a_named_chunk_is_in_flight(self):
        sup = ChunkSupervisor(SupervisorConfig(suspect_strikes=2))
        sup.on_pool_crash([(0, 1), (2, 3)], cause="worker-crash",
                          named={1: (2, 3)})
        assert sup.holds_fresh_chunks([(0, 1), (2, 3)])
        # A bystander in flight holds nothing back.
        assert not sup.holds_fresh_chunks([(0, 1), (4, 5)])
        assert not sup.holds_fresh_chunks([])
        # Nor do the halves stop being suspects once bisected.
        sup.on_pool_crash([(2, 3)], cause="worker-crash", named={2: (2, 3)})
        assert sup.holds_fresh_chunks([(3,)])
        # A crash that names nothing holds nothing back.
        other = ChunkSupervisor(SupervisorConfig())
        other.on_pool_crash([(0, 1)], cause="worker-crash")
        assert not other.holds_fresh_chunks([(0, 1)])

    def test_hung_and_merge_failed_chunks_hold_fresh_chunks(self):
        # The watchdog and a failed merge name their chunk just as a
        # breadcrumb does, so its rerun keeps fresh work waiting.
        sup = ChunkSupervisor(SupervisorConfig(suspect_strikes=2))
        sup.on_pool_crash([(0, 1), (2, 3)], cause="hang",
                          named={1: (2, 3)})
        assert sup.holds_fresh_chunks([(2, 3)])
        assert not sup.holds_fresh_chunks([(0, 1)])
        sup.on_merge_failure((4, 5), detail="disk flake")
        assert sup.holds_fresh_chunks([(0, 1), (4, 5)])

    def test_hang_events_are_attributed_by_the_watchdog(self):
        sup = ChunkSupervisor(SupervisorConfig())
        sup.on_pool_crash([(0, 1), (2, 3)], cause="hang",
                          named={0: (0, 1)})
        assert sup.events[-1]["attribution"] == "watchdog"
        assert sup.events[-1]["named_chunks"] == [0]
        assert sup.attributed_crashes == 0


class TestChaosPolicy:
    def test_plan_is_deterministic_and_staged(self):
        kwargs = dict(seed=97, kills=3, hangs=1, poisons=1,
                      merge_errors=1, state_dir="unused-dir")
        one = ChaosPolicy.plan(1000, **kwargs)
        two = ChaosPolicy.plan(1000, **kwargs)
        assert one == two
        # Crash injections land in the first half of the rank space,
        # hangs in the last quarter: the crash storm resolves before any
        # hang chunk flies, so watchdog_hangs is deterministic.
        crashes = one.kill_ranks + one.poison_ranks + one.merge_error_ranks
        assert all(rank < 500 for rank in crashes)
        assert all(rank >= 750 for rank in one.hang_ranks)
        assert len(set(crashes + one.hang_ranks)) == 6

    def test_plan_rejects_overfull_spans(self):
        with pytest.raises(ValueError, match="cannot place"):
            ChaosPolicy.plan(8, kills=20, state_dir="unused")

    def test_validation(self):
        with pytest.raises(ValueError, match="hang_seconds"):
            ChaosPolicy(hang_seconds=0.0)
        with pytest.raises(ValueError, match="state_dir"):
            ChaosPolicy(kill_ranks=(3,))
        with pytest.raises(ValueError, match=">= 0"):
            ChaosPolicy(poison_ranks=(-1,))
        # Poison is always-on; it needs no marker state.
        assert ChaosPolicy(poison_ranks=(3,)).poison_ranks == (3,)

    def test_markers_fire_once_and_are_durable(self, tmp_path):
        policy = ChaosPolicy(merge_error_ranks=(5,),
                             state_dir=str(tmp_path))
        with pytest.raises(sqlite3.OperationalError):
            policy.before_merge([4, 5, 6])
        # The marker survives: a retry (or a fresh worker process) sees
        # the injection as already fired.
        policy.before_merge([4, 5, 6])
        reloaded = ChaosPolicy(merge_error_ranks=(5,),
                               state_dir=str(tmp_path))
        reloaded.before_merge([4, 5, 6])
        assert policy.fired()["merge"] == (5,)
        assert policy.planned()["merge"] == (5,)


def no_sidecars(directory) -> bool:
    return not glob.glob(str(directory / "*.wchunk-*"))


class TestSupervisedCrawls:
    """End-to-end recovery on the process backend, 2 workers, 40 sites."""

    def test_supervised_run_without_faults_is_identical(self, web,
                                                        baseline):
        pool = CrawlerPool(web, workers=2, backend="process")
        dataset = pool.run(max_pool_rebuilds=4)
        assert dataset.visits == baseline.visits
        stats = pool.last_supervisor_stats
        assert stats["rebuilds"] == 0
        assert stats["quarantined_ranks"] == []
        assert stats["events"] == []

    def test_worker_kill_recovers_byte_identically(self, web, baseline,
                                                   tmp_path):
        chaos = ChaosPolicy(kill_ranks=(5,),
                            state_dir=str(tmp_path / "state"))
        telemetry = CrawlTelemetry()
        with CrawlStore(tmp_path / "kill.sqlite") as store:
            pool = CrawlerPool(web, workers=2, backend="process")
            dataset = pool.run(store=store, chaos=chaos,
                               supervisor=fast_config(),
                               telemetry=telemetry)
            stored = store.stored_ranks()
        assert dataset.visits == baseline.visits
        assert stored == set(range(40))
        stats = pool.last_supervisor_stats
        assert stats["rebuilds"] >= 1
        assert stats["requeued_ranks"] >= 1
        assert stats["quarantined_ranks"] == []
        assert chaos.fired()["kill"] == (5,)
        assert no_sidecars(tmp_path)
        assert not telemetry.snapshot().quarantined_ranks

    def test_poison_rank_is_isolated_and_quarantined(self, web, baseline,
                                                     tmp_path):
        poison = 11
        chaos = ChaosPolicy(poison_ranks=(poison,))
        telemetry = CrawlTelemetry()
        with CrawlStore(tmp_path / "poison.sqlite") as store:
            pool = CrawlerPool(web, workers=2, backend="process")
            dataset = pool.run(store=store, chaos=chaos,
                               supervisor=fast_config(),
                               telemetry=telemetry)
            rows = store.quarantine_rows()
            stored = store.stored_ranks()
        # Exactly the poison rank is missing — every innocent bystander
        # chunk that shared a doomed pool requeued strike-free.
        expected = [v for v in baseline.visits if v.rank != poison]
        assert dataset.visits == expected
        assert stored == set(range(40)) - {poison}
        stats = pool.last_supervisor_stats
        assert stats["quarantined_ranks"] == [poison]
        assert [(rank, reason) for rank, reason, _ in rows] == [
            (poison, POISON_VISIT)]
        snap = telemetry.snapshot()
        assert snap.quarantined_ranks == (poison,)
        assert no_sidecars(tmp_path)

    def test_breadcrumbs_attribute_every_poison_crash(self, web, baseline,
                                                      tmp_path):
        # Each crash is named by the dead worker's breadcrumb.
        poison = 11
        with CrawlStore(tmp_path / "crumbs.sqlite") as store:
            pool = CrawlerPool(web, workers=2, backend="process")
            dataset = pool.run(store=store, collect=True,
                               chaos=ChaosPolicy(poison_ranks=(poison,)),
                               supervisor=fast_config())
        assert dataset.visits == [v for v in baseline.visits
                                  if v.rank != poison]
        stats = pool.last_supervisor_stats
        assert stats["quarantined_ranks"] == [poison]
        rebuilds = [e for e in stats["events"]
                    if e["event"] == "pool-rebuild"]
        assert rebuilds and all(e["attribution"] == "breadcrumb"
                                and e["named_chunks"] for e in rebuilds)
        assert stats["attributed_crashes"] == stats["rebuilds"]

    def test_unnamed_crashes_never_strike(self, web, baseline, tmp_path,
                                          monkeypatch):
        # A reader that finds no breadcrumb names nothing: every lost
        # chunk requeues strike-free.
        monkeypatch.setattr(backends, "_crashed_worker_breadcrumbs",
                            lambda executor, directory: [])
        # A once-only kill still recovers byte-identically.
        chaos = ChaosPolicy(kill_ranks=(5,),
                            state_dir=str(tmp_path / "state"))
        pool = CrawlerPool(web, workers=2, backend="process")
        dataset = pool.run(chaos=chaos, supervisor=fast_config())
        assert dataset.visits == baseline.visits
        stats = pool.last_supervisor_stats
        rebuilds = [e for e in stats["events"]
                    if e["event"] == "pool-rebuild"]
        assert rebuilds and all(e["attribution"] == "none"
                                and e["named_chunks"] == []
                                for e in rebuilds)
        assert stats["bisections"] == 0
        assert stats["quarantined_ranks"] == []
        # A poison rank nothing names is never isolated: it ends the run
        # once the budget is spent, not earlier.
        config = fast_config(max_pool_rebuilds=3)
        pool = CrawlerPool(web, workers=2, backend="process")
        with pytest.raises(PoolCrashError) as exc_info:
            pool.run(chaos=ChaosPolicy(poison_ranks=(11,)),
                     supervisor=config)
        err = exc_info.value
        assert err.rebuilds == config.max_pool_rebuilds + 1
        assert 11 in err.lost_ranks
        assert pool.last_supervisor_stats["bisections"] == 0

    def test_hang_is_caught_by_the_watchdog(self, web, baseline,
                                            tmp_path):
        # Hang-only plan: no co-flying crash can absorb the hung chunk,
        # so the watchdog must be the one to end it.  The sleep is far
        # past the deadline — only a SIGKILL gets the rank back.
        chaos = ChaosPolicy(hang_ranks=(3,), hang_seconds=600.0,
                            state_dir=str(tmp_path / "state"))
        pool = CrawlerPool(web, workers=2, backend="process")
        dataset = pool.run(store=None, chaos=chaos,
                           supervisor=fast_config())
        assert dataset.visits == baseline.visits
        stats = pool.last_supervisor_stats
        assert stats["watchdog_hangs"] == 1
        assert stats["rebuilds"] >= 1
        assert stats["quarantined_ranks"] == []
        assert chaos.fired()["hang"] == (3,)

    def test_hang_after_a_poison_storm_is_caught_by_the_watchdog(
            self, web, baseline, tmp_path):
        # Fresh chunks wait while a named chunk reruns, so the hang's
        # chunk starts only after the poison rank's crash storm: no crash
        # recovery kills it before the watchdog's deadline does.  A fixed
        # schedule of 4-rank chunks keeps the hang's chunk (the seventh)
        # out of flight when the first crash comes.
        chaos = ChaosPolicy(poison_ranks=(1,), hang_ranks=(25,),
                            hang_seconds=600.0,
                            state_dir=str(tmp_path / "state"))
        pool = CrawlerPool(web, workers=2, backend="process",
                           chunk_schedule=[4])
        dataset = pool.run(chaos=chaos, supervisor=fast_config())
        assert dataset.visits == [v for v in baseline.visits
                                  if v.rank != 1]
        stats = pool.last_supervisor_stats
        assert stats["quarantined_ranks"] == [1]
        assert stats["watchdog_hangs"] == 1
        assert chaos.fired()["hang"] == (25,)

    def test_merge_error_is_retried(self, web, baseline, tmp_path):
        chaos = ChaosPolicy(merge_error_ranks=(8,),
                            state_dir=str(tmp_path / "state"))
        with CrawlStore(tmp_path / "merge.sqlite") as store:
            pool = CrawlerPool(web, workers=2, backend="process")
            dataset = pool.run(store=store, chaos=chaos,
                               supervisor=fast_config())
            stored = store.stored_ranks()
        assert dataset.visits == baseline.visits
        assert stored == set(range(40))
        stats = pool.last_supervisor_stats
        assert stats["merge_retries"] >= 1
        assert stats["rebuilds"] == 0  # the pool never broke
        assert no_sidecars(tmp_path)

    def test_budget_exhaustion_raises_then_resume_completes(
            self, web, baseline, tmp_path):
        poison = 11
        chaos = ChaosPolicy(poison_ranks=(poison,))
        path = tmp_path / "budget.sqlite"
        with CrawlStore(path) as store:
            pool = CrawlerPool(web, workers=2, backend="process")
            with pytest.raises(PoolCrashError) as exc_info:
                pool.run(store=store, chaos=chaos,
                         supervisor=fast_config(max_pool_rebuilds=1))
        err = exc_info.value
        assert err.max_pool_rebuilds == 1
        assert poison in err.lost_ranks
        # The stats survive the failure for post-mortems.
        assert pool.last_supervisor_stats["rebuilds"] == err.rebuilds
        assert no_sidecars(tmp_path)
        # A resume with a real budget quarantines the poison and
        # completes to the baseline minus that rank.
        with CrawlStore(path) as store:
            pool = CrawlerPool(web, workers=2, backend="process")
            resumed = pool.run(store=store, resume=True, chaos=chaos,
                               supervisor=fast_config())
        expected = [v for v in baseline.visits if v.rank != poison]
        assert resumed.visits == expected
        assert pool.last_supervisor_stats["quarantined_ranks"] == [poison]

    def test_unsupervised_crash_still_raises_but_sweeps(self, web,
                                                        baseline,
                                                        tmp_path):
        # Without a supervisor the crash is fatal, exactly as before the
        # supervisor existed — but the crash path still sweeps sidecar
        # wreckage, so the checkpoint directory stays clean for resume.
        chaos = ChaosPolicy(kill_ranks=(5,),
                            state_dir=str(tmp_path / "state"))
        path = tmp_path / "unsupervised.sqlite"
        with CrawlStore(path) as store:
            pool = CrawlerPool(web, workers=2, backend="process")
            with pytest.raises(BrokenProcessPool):
                pool.run(store=store, chaos=chaos)
        assert pool.last_supervisor_stats is None
        assert no_sidecars(tmp_path)
        # The kill was once-only; a plain unsupervised resume completes.
        with CrawlStore(path) as store:
            resumed = CrawlerPool(web, workers=2, backend="process").run(
                store=store, resume=True)
        assert resumed.visits == baseline.visits

    def test_no_breadcrumb_directory_is_left_behind(self, web, tmp_path,
                                                    monkeypatch):
        temp = tmp_path / "tmp"
        temp.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(temp))
        # A clean supervised run.
        pool = CrawlerPool(web, workers=2, backend="process")
        pool.run(supervisor=fast_config())
        assert list(temp.iterdir()) == []
        # A crash that spends the whole (zero) rebuild budget.
        with pytest.raises(PoolCrashError):
            CrawlerPool(web, workers=2, backend="process").run(
                chaos=ChaosPolicy(poison_ranks=(3,)),
                supervisor=fast_config(max_pool_rebuilds=0))
        assert list(temp.iterdir()) == []
        # A stop request part-way through.
        pool = CrawlerPool(web, workers=2, backend="process")

        def stop_early(done: int, total: int) -> None:
            pool.request_stop()

        dataset = pool.run(progress=stop_early, supervisor=fast_config())
        assert len(dataset.visits) < 40
        assert list(temp.iterdir()) == []

    def test_unsupervised_crash_leaves_no_late_sidecar(self, web,
                                                       tmp_path):
        # One worker dies at the pickup of the second 20-rank chunk while
        # the other is still crawling the first.  The survivor ignores
        # the executor's SIGTERM; unless it is killed, it finishes its
        # chunk and writes a sidecar after the crash path's sweep.
        chaos = ChaosPolicy(kill_ranks=(20,),
                            state_dir=str(tmp_path / "state"))
        with CrawlStore(tmp_path / "late.sqlite") as store:
            pool = CrawlerPool(web, workers=2, backend="process",
                               chunk_schedule=[20])
            with pytest.raises(BrokenProcessPool):
                pool.run(store=store, chaos=chaos)
        time.sleep(0.5)  # longer than the survivor's 20 visits take
        assert no_sidecars(tmp_path)

    def test_supervision_requires_the_process_backend(self, web):
        pool = CrawlerPool(web, workers=2, backend="serial")
        with pytest.raises(ValueError, match="process backend"):
            pool.run(range(4), max_pool_rebuilds=2)
        with pytest.raises(ValueError, match="process backend"):
            pool.run(range(4), chaos=ChaosPolicy(poison_ranks=(1,)))

    def test_negative_budget_is_rejected(self, web):
        pool = CrawlerPool(web, workers=2, backend="process")
        with pytest.raises(ValueError, match="max_pool_rebuilds"):
            pool.run(range(4), max_pool_rebuilds=-1)
