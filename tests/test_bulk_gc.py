"""The bulk-read GC scope: it raises only the generation-0 threshold,
restores the caller's thresholds exactly (nested, across threads, after
a fork) and every bulk read entry point leaves them as it found them."""

from __future__ import annotations

import gc
import multiprocessing
import os
import sqlite3
import threading
from pathlib import Path

import pytest

from repro._bulk_gc import BULK_GEN0_THRESHOLD, bulk_gc
from repro.analysis.drift import (
    build_timeline,
    diff_stores,
    diff_visits,
    profile_store,
    profile_visits,
)
from repro.analysis.summary import summarize, summarize_streaming
from repro.crawler.pool import CrawlerPool
from repro.crawler.storage import CrawlStore
from repro.synthweb.generator import SyntheticWeb

#: A caller's thresholds that no default or scope produces.
CALLER = (777, 11, 13)
RAISED = (BULK_GEN0_THRESHOLD, *CALLER[1:])


@pytest.fixture(autouse=True)
def caller_thresholds():
    saved = gc.get_threshold()
    gc.set_threshold(*CALLER)
    yield
    gc.set_threshold(*saved)


class TestScope:
    def test_raises_gen0_only_and_restores(self):
        with bulk_gc():
            assert gc.get_threshold() == RAISED
        assert gc.get_threshold() == CALLER

    def test_restores_after_an_exception(self):
        with pytest.raises(KeyError):
            with bulk_gc():
                raise KeyError("boom")
        assert gc.get_threshold() == CALLER

    def test_nested_scopes_restore_on_the_outermost_exit(self):
        with bulk_gc():
            with bulk_gc():
                assert gc.get_threshold() == RAISED
            assert gc.get_threshold() == RAISED
        assert gc.get_threshold() == CALLER

    def test_interleaved_threads_leave_the_original_thresholds(self):
        first_in, second_in, first_out = (threading.Event()
                                          for _ in range(3))
        seen = {}

        def first():
            with bulk_gc():
                first_in.set()
                second_in.wait(5)
            first_out.set()

        def second():
            first_in.wait(5)
            with bulk_gc():
                second_in.set()
                first_out.wait(5)
                # The first thread left first; the scope is still open.
                seen["after_first_exit"] = gc.get_threshold()

        threads = [threading.Thread(target=fn) for fn in (first, second)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
        assert seen == {"after_first_exit": RAISED}
        assert gc.get_threshold() == CALLER


def _report_thresholds(conn) -> None:
    at_start = gc.get_threshold()
    with bulk_gc():
        inside = gc.get_threshold()
    conn.send((at_start, inside, gc.get_threshold()))
    conn.close()


class TestFork:
    def test_a_child_forked_inside_a_scope_gets_the_caller_thresholds(self):
        ctx = multiprocessing.get_context("fork")
        parent_end, child_end = ctx.Pipe()
        with bulk_gc():
            child = ctx.Process(target=_report_thresholds, args=(child_end,))
            child.start()
            assert parent_end.poll(30)
            report = parent_end.recv()
            child.join(30)
        assert child.exitcode == 0
        # The child's own scope works too: its depth starts at zero.
        assert report == (CALLER, RAISED, CALLER)
        assert gc.get_threshold() == CALLER

    def test_a_scope_entered_before_the_fork_ends_as_a_no_op(self):
        read_end, write_end = os.pipe()
        pid = -1
        try:
            with bulk_gc():
                pid = os.fork()
            if pid == 0:  # the child, after leaving the inherited scope
                after = gc.get_threshold()
                with bulk_gc():
                    inside = gc.get_threshold()
                report = (after, inside, gc.get_threshold())
                os.write(write_end, repr(report).encode())
        finally:
            if pid == 0:
                os._exit(0)
        os.close(write_end)
        with os.fdopen(read_end) as reader:
            reported = reader.read()
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        # The child's own scope works too: its depth is back at zero.
        assert reported == repr((CALLER, RAISED, CALLER))
        assert gc.get_threshold() == CALLER


@pytest.fixture(scope="module")
def stores(tmp_path_factory):
    root = tmp_path_factory.mktemp("bulk-gc")
    paths = []
    for seed in (3, 4):
        path = root / f"store-{seed}.sqlite"
        with CrawlStore(path) as store:
            CrawlerPool(SyntheticWeb(40, seed=seed),
                        workers=1).run(store=store)
            store.flush()
        paths.append(path)
    return paths


def _corrupt_copy(path: Path, tmp_path: Path) -> Path:
    target = tmp_path / "corrupt.sqlite"
    source = sqlite3.connect(path)
    with sqlite3.connect(target) as conn:
        source.backup(conn)
        conn.execute("UPDATE frames SET headers = '{x' WHERE rowid IN "
                     "(SELECT rowid FROM frames ORDER BY rowid LIMIT 3)")
    source.close()
    conn.close()
    return target


def _watched(visits, seen: list):
    """Pass ``visits`` through, recording the consumer's thresholds."""
    for visit in visits:
        seen.append(gc.get_threshold())
        yield visit


class TestEntryPoints:
    def test_load_dataset_and_verify(self, stores):
        with CrawlStore(stores[0]) as store:
            assert store.load_dataset().visits
            assert gc.get_threshold() == CALLER
            assert store.verify().ok
            assert gc.get_threshold() == CALLER

    def test_load_dataset_and_verify_on_corrupt_rows(self, stores, tmp_path):
        with CrawlStore(_corrupt_copy(stores[0], tmp_path)) as store:
            store.load_dataset()
            assert store.last_corrupt_counts
            assert gc.get_threshold() == CALLER
            assert not store.verify(repair=True).ok
            assert gc.get_threshold() == CALLER

    def test_iter_visits_holds_no_scope_across_a_yield(self, stores):
        with CrawlStore(stores[0]) as store:
            seen = [gc.get_threshold()
                    for _ in store.iter_visits(batch_size=7)]
        assert set(seen) == {CALLER}
        assert gc.get_threshold() == CALLER

    def test_breaking_out_of_iter_visits_early(self, stores):
        with CrawlStore(stores[0]) as store:
            visits = store.iter_visits(batch_size=7)
            for _ in visits:
                break
            assert gc.get_threshold() == CALLER
            visits.close()
        assert gc.get_threshold() == CALLER

    def test_summaries(self, stores):
        with CrawlStore(stores[0]) as store:
            summarize(store.load_dataset())
            assert gc.get_threshold() == CALLER
            seen: list = []
            summarize_streaming(_watched(store.iter_visits(), seen))
        assert seen and set(seen) == {RAISED}
        assert gc.get_threshold() == CALLER

    def test_a_stream_that_raises_part_way(self, stores):
        def failing(visits):
            for index, visit in enumerate(visits):
                if index == 5:
                    raise RuntimeError("stream broke")
                yield visit

        with CrawlStore(stores[0]) as store:
            with pytest.raises(RuntimeError, match="stream broke"):
                summarize_streaming(failing(store.iter_visits()))
        assert gc.get_threshold() == CALLER

    def test_drift(self, stores):
        assert not diff_stores(*stores).is_empty
        assert gc.get_threshold() == CALLER
        profile_store(stores[0])
        assert gc.get_threshold() == CALLER
        build_timeline(stores)
        assert gc.get_threshold() == CALLER
        with CrawlStore(stores[0]) as a, CrawlStore(stores[1]) as b:
            seen: list = []
            diff_visits(_watched(a.iter_visits(), seen), b.iter_visits())
            profile_visits(_watched(a.iter_visits(), seen))
        assert seen and set(seen) == {RAISED}
        assert gc.get_threshold() == CALLER
