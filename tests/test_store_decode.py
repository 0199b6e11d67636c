"""The store's read side: every decode path yields the same visits, the
decode memo never shares a mutable value or aliases two cell types, and
orphan and corrupt rows are counted alike by every reader."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sqlite3
from pathlib import Path

import pytest

from repro.crawler.pool import CrawlerPool
from repro.crawler.records import SiteVisit
from repro.crawler.storage import _SCHEMA, CrawlStore, export_jsonl
from repro.synthweb.generator import SyntheticWeb

SITES = 60
CHILD_TABLES = ("frames", "calls", "scripts", "prompts")
BATCH_SIZES = (1, 7, 500)


@pytest.fixture(scope="module")
def crawled(tmp_path_factory):
    """A crawled store (read-only for the tests) and its in-memory
    dataset, the reference that no decode path produced."""
    path = tmp_path_factory.mktemp("decode") / "store.sqlite"
    with CrawlStore(path) as store:
        dataset = CrawlerPool(SyntheticWeb(SITES, seed=3),
                              workers=1).run(store=store)
        store.flush()
    return path, dataset


def _copy(path: Path, tmp_path: Path) -> Path:
    target = tmp_path / "copy.sqlite"
    source = sqlite3.connect(path)
    with sqlite3.connect(target) as conn:
        source.backup(conn)
    source.close()
    conn.close()
    return target


def _reads(store: CrawlStore) -> dict:
    """Every read path's visits, in rank order."""
    ranks = sorted(store.stored_ranks())
    reads = {f"iter_visits[{size}]": list(store.iter_visits(batch_size=size))
             for size in BATCH_SIZES}
    reads["load_dataset"] = store.load_dataset().visits
    reads["load_visits"] = store.load_visits(ranks)
    with store._lock:
        decoded = store._decode_visits(ranks, {})
    reads["_decode_visits"] = [decoded[rank] for rank in ranks]
    return reads


def _digest(visits, tmp_path: Path) -> str:
    path = tmp_path / "export.jsonl"
    export_jsonl(visits, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_every_read_path_exports_the_crawled_bytes(crawled, tmp_path):
    path, dataset = crawled
    expected = _digest(dataset.visits, tmp_path)
    with CrawlStore(path) as store:
        reads = _reads(store)
    assert {name: _digest(visits, tmp_path)
            for name, visits in reads.items()} == \
        dict.fromkeys(reads, expected)


def test_equal_stored_dicts_are_never_shared(crawled):
    path, _ = crawled
    with CrawlStore(path) as store:
        reads = _reads(store)
    for name, visits in reads.items():
        frames = [frame for visit in visits for frame in visit.frames]
        for field in ("headers", "iframe_attributes"):
            groups: dict[str, list] = {}
            for frame in frames:
                value = getattr(frame, field)
                if value:
                    groups.setdefault(repr(value), []).append(value)
            repeated = [group for group in groups.values() if len(group) > 1]
            assert repeated, (name, field)  # the crawl repeats these
            for first, *equal in repeated:
                assert all(other is not first for other in equal)
                snapshot = dict(equal[0])
                first["mutated"] = "yes"
                assert equal[0] == snapshot, (name, field)


def _untyped_calls_store(path: Path) -> None:
    """A store whose ``calls.frame_id`` has no type affinity, so a REAL
    ``1.0`` stays REAL instead of being folded to INTEGER ``1``."""
    schema = _SCHEMA.replace("    frame_id INTEGER NOT NULL,\n    api",
                             "    frame_id NOT NULL,\n    api")
    assert schema != _SCHEMA
    with sqlite3.connect(path) as conn:
        conn.executescript(schema)
    conn.close()


def test_real_and_integer_cells_keep_their_own_type(crawled, tmp_path):
    _, dataset = crawled
    visit = next(v for v in dataset.visits if v.calls)
    call = visit.calls[0]
    path = tmp_path / "untyped.sqlite"
    _untyped_calls_store(path)
    with CrawlStore(path) as store:
        twice = [SiteVisit(rank=rank, requested_url=visit.requested_url,
                           final_url=visit.final_url, success=True,
                           calls=[call, call])
                 for rank in (1, 2)]
        store.save_visits(twice)
    with sqlite3.connect(path) as conn:
        # REAL first at rank 1, second at rank 2: each order meets the memo.
        for rank, pick in ((1, "MIN"), (2, "MAX")):
            conn.execute(
                "UPDATE calls SET frame_id = CAST(frame_id AS REAL) WHERE "
                f"rowid = (SELECT {pick}(rowid) FROM calls WHERE rank = ?)",
                (rank,))
        assert conn.execute(
            "SELECT typeof(frame_id) FROM calls ORDER BY rowid").fetchall() \
            == [("real",), ("integer",), ("integer",), ("real",)]
    conn.close()
    with CrawlStore(path) as store:
        reads = _reads(store)
    expected = [[float, int], [int, float]]
    for name, visits in reads.items():
        assert [[type(c.frame_id) for c in v.calls] for v in visits] == \
            expected, name
        assert all(c.frame_id == call.frame_id
                   for v in visits for c in v.calls)


def test_a_repeated_corrupt_text_counts_every_row(crawled, tmp_path):
    path = _copy(crawled[0], tmp_path)
    with sqlite3.connect(path) as conn:
        damaged = {}
        for table, column in (("frames", "headers"),
                              ("calls", "permissions")):
            rows = conn.execute(
                f"SELECT rowid, rank FROM {table} ORDER BY rowid "
                "LIMIT 3").fetchall()
            assert len(rows) == 3
            conn.executemany(f"UPDATE {table} SET {column} = '{{x' "
                             "WHERE rowid = ?", [(r,) for r, _ in rows])
            damaged[table] = {rank for _, rank in rows}
    conn.close()
    with CrawlStore(path) as store:
        for size in BATCH_SIZES:
            list(store.iter_visits(batch_size=size))
            assert store.last_corrupt_counts == {"frames": 3, "calls": 3}
        store.load_dataset()
        assert store.last_corrupt_counts == {"frames": 3, "calls": 3}
        store.load_visits(store.stored_ranks())
        assert store.last_corrupt_counts == {"frames": 3, "calls": 3}
        errors: dict = {}
        with store._lock:
            store._decode_visits(sorted(store.stored_ranks()), errors)
    assert set(errors) == damaged["frames"] | damaged["calls"]


def _add_orphans(conn, ranks) -> dict[str, int]:
    """Copy the child rows of one visit that has rows in every child table
    to each of ``ranks`` (which have no visit row); returns the orphan
    count per table, by SQL."""
    (source,) = conn.execute(
        "SELECT rank FROM visits WHERE " + " AND ".join(
            f"rank IN (SELECT rank FROM {table})" for table in CHILD_TABLES)
        + " LIMIT 1").fetchone()
    for table in CHILD_TABLES:
        columns = [row[1] for row in
                   conn.execute(f"PRAGMA table_info({table})")]
        rows = conn.execute(f"SELECT * FROM {table} WHERE rank = ? "
                            "ORDER BY rowid", (source,)).fetchall()
        for rank in ranks:
            for row in rows:
                row = list(row)
                row[columns.index("rank")] = rank
                conn.execute(f"INSERT INTO {table} VALUES "
                             f"({','.join('?' * len(row))})", row)
    return {table: conn.execute(
        f"SELECT COUNT(*) FROM {table} WHERE rank NOT IN "
        "(SELECT rank FROM visits)").fetchone()[0]
        for table in CHILD_TABLES}


def test_orphans_are_counted_alike_by_every_reader(crawled, tmp_path):
    path = _copy(crawled[0], tmp_path)
    with sqlite3.connect(path) as conn:
        # Rank 7 would open the second batch of 7: without its visit row,
        # its children lie between the first two batches.
        conn.execute("DELETE FROM visits WHERE rank = 7")
        conn.execute("DELETE FROM frames WHERE rank = 7")
        # Before the first rank, between two batches, after the last.
        expected = _add_orphans(conn, (-5, 7, 999_999))
    conn.close()
    with CrawlStore(path) as store:
        store.load_dataset()
        assert store.last_orphan_counts == expected
        # 59 visits: batches of 59 (and of 1) end full, so the tail
        # orphans come from the empty batch after them.
        for size in (*BATCH_SIZES, SITES - 1):
            list(store.iter_visits(batch_size=size))
            assert store.last_orphan_counts == expected, size


def test_rank_span_reads_only_its_span(crawled, tmp_path):
    path = _copy(crawled[0], tmp_path)
    with sqlite3.connect(path) as conn:
        for table in ("visits", *CHILD_TABLES):
            conn.execute(f"DELETE FROM {table} WHERE rank IN (9, 12, 21)")
        expected = _add_orphans(conn, (12,))
        _add_orphans(conn, (9, 21))  # just outside the span
    conn.close()
    with CrawlStore(path) as store:
        everything = {v.rank: v for v in store.load_dataset().visits}
        for size in BATCH_SIZES:
            span = list(store.iter_visits(batch_size=size, min_rank=10,
                                          max_rank=20))
            assert [v.rank for v in span] == \
                [rank for rank in range(10, 21) if rank != 12]
            assert span == [everything[v.rank] for v in span]
            assert store.last_orphan_counts == expected, size


def test_save_encodes_equal_values_of_other_types_apart(crawled, tmp_path):
    """``1``, ``1.0`` and ``True`` are equal keys: the per-chunk encode
    memo must not hand one's JSON text to another."""
    _, dataset = crawled
    visit = next(v for v in dataset.visits if v.frames and v.calls)
    frame, call = visit.frames[0], visit.calls[0]
    values = (1, 1.0, True, "1")
    visits = [SiteVisit(
        rank=rank, requested_url=visit.requested_url,
        final_url=visit.final_url, success=True,
        frames=[dataclasses.replace(frame, headers={"x": value},
                                    iframe_attributes={value: "y"})],
        calls=[dataclasses.replace(call, permissions=(value,),
                                   args=[value])])
        for rank, value in enumerate(values)]
    path = tmp_path / "typed.sqlite"
    with CrawlStore(path) as store:
        store.save_visits(visits)
        assert store.verify().ok
    with sqlite3.connect(path) as conn:
        stored = conn.execute(
            "SELECT f.headers, f.iframe_attributes, c.permissions, c.args "
            "FROM frames f JOIN calls c USING (rank) ORDER BY rank").fetchall()
    conn.close()
    assert stored == [(json.dumps({"x": value}), json.dumps({value: "y"}),
                       json.dumps([value]), json.dumps([value]))
                      for value in values]
