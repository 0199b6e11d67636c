"""Stored-row checksums: the tamper matrix, failed-write rollback, the
schema 3 → 4 migration and cross-process determinism of the store."""

from __future__ import annotations

import dataclasses
import hashlib
import os
import sqlite3
import subprocess
import sys
import zlib
from pathlib import Path

import pytest

from repro.crawler.integrity import (
    CHECKSUM_MISMATCH,
    DECODE_ERROR,
    canonical_visit_bytes,
    visit_checksum,
)
from repro.crawler.records import (
    CallRecord,
    FrameRecord,
    PromptRecord,
    ScriptSourceRecord,
    SiteVisit,
)
from repro.crawler.storage import _SCHEMA, SCHEMA_VERSION, CrawlStore
from repro.experiments import runner
from repro.obs import REGISTRY, observed

SRC = Path(__file__).resolve().parent.parent / "src"

#: The rank every tamper case damages, and the clean ranks around it.
TARGET = 2
RANKS = (1, 2, 3)

CHILD_TABLES = ("frames", "calls", "scripts", "prompts")


def _visit(rank: int, **changes) -> SiteVisit:
    """A visit with two rows in every child table and a NULL in every
    nullable column."""
    top = f"https://site-{rank}.example"
    visit = SiteVisit(
        rank=rank, requested_url=top, final_url=top + "/", success=True,
        duration_seconds=1.25 + rank, retries=1,
        frames=[
            FrameRecord(frame_id=0, url=top, origin=top,
                        site=f"site-{rank}.example", parent_id=None,
                        depth=0, is_local=True,
                        headers={"permissions-policy": "camera=()"},
                        iframe_attributes=None),
            FrameRecord(frame_id=1, url="https://ads.example/f",
                        origin="https://ads.example", site="ads.example",
                        parent_id=0, depth=1, is_local=False, headers={},
                        iframe_attributes={"allow": "camera"}),
        ],
        calls=[
            CallRecord(frame_id=0, api="Geolocation.getCurrentPosition",
                       kind="invoke", permissions=("geolocation",),
                       args=("1",), script_url=None, allowed=True),
            CallRecord(frame_id=1, api="Permissions.query",
                       kind="status-check", permissions=("camera",),
                       args=("camera",), script_url="https://ads.example/a.js",
                       allowed=False),
        ],
        scripts=[
            ScriptSourceRecord(frame_id=0, url=None, source="inline();"),
            ScriptSourceRecord(frame_id=1, url="https://ads.example/a.js",
                               source="navigator.permissions.query();"),
        ],
        prompts=[
            PromptRecord(permission="geolocation", requesting_frame_id=0,
                         display_site=f"site-{rank}.example", text="Allow?"),
            PromptRecord(permission="camera", requesting_frame_id=1,
                         display_site="ads.example", text="Use camera?"),
        ])
    return dataclasses.replace(visit, **changes)


def _columns(conn, table: str) -> list[str]:
    return [row[1] for row in conn.execute(f"PRAGMA table_info({table})")]


def _rows(conn) -> dict[str, list]:
    """Every live table's rows (all columns, rowid order)."""
    return {table: conn.execute(
        f"SELECT * FROM {table} ORDER BY rowid").fetchall()
        for table in ("visits", *CHILD_TABLES)}


@pytest.fixture
def store_path(tmp_path) -> Path:
    path = tmp_path / "store.sqlite"
    with CrawlStore(path) as store:
        store.save_visits([_visit(rank) for rank in RANKS])
        store.flush()
    return path


def _flagged(path: Path) -> dict[int, str]:
    with CrawlStore(path) as store:
        report = store.verify()
    assert report.total_rows == (report.verified_rows + report.legacy_rows
                                 + len(report.corrupt))
    return {bad.rank: bad.reason for bad in report.corrupt}


# -- tamper cases: each takes a raw connection and returns the ranks that
# -- must be flagged afterwards.

def _changed(value):
    if value is None:
        return "x"
    if isinstance(value, str):
        return value + "x"
    if isinstance(value, float):
        return value + 0.5
    return value + 7


def _set_column(table: str, column: str, value=_changed):
    def tamper(conn):
        rowid, current = conn.execute(
            f"SELECT rowid, {column} FROM {table} WHERE rank = ? "
            "ORDER BY rowid LIMIT 1", (TARGET,)).fetchone()
        new = value(current) if callable(value) else value
        conn.execute(f"UPDATE {table} SET {column} = ? WHERE rowid = ?",
                     (new, rowid))
        return {TARGET}
    return tamper


def _delete_row(table: str):
    def tamper(conn):
        conn.execute(f"DELETE FROM {table} WHERE rowid = (SELECT MIN(rowid) "
                     f"FROM {table} WHERE rank = ?)", (TARGET,))
        return {TARGET}
    return tamper


def _copy_row(table: str, rank: int, *, move: bool):
    """Copy (or move) one row of the target rank to ``rank``; a frames
    row gets a fresh frame_id so the primary key holds."""
    def tamper(conn):
        columns = _columns(conn, table)
        row = list(conn.execute(
            f"SELECT rowid, * FROM {table} WHERE rank = ? ORDER BY rowid "
            "LIMIT 1", (TARGET,)).fetchone())
        rowid, values = row[0], row[1:]
        values[columns.index("rank")] = rank
        if table == "frames":
            values[columns.index("frame_id")] = 9
        if move:
            conn.execute(f"DELETE FROM {table} WHERE rowid = ?", (rowid,))
        conn.execute(f"INSERT INTO {table} VALUES "
                     f"({','.join('?' * len(values))})", values)
        return {TARGET, rank} & set(RANKS)
    return tamper


def _swap_rows(table: str):
    def tamper(conn):
        rows = conn.execute(f"SELECT * FROM {table} WHERE rank = ? "
                            "ORDER BY rowid", (TARGET,)).fetchall()
        assert len(rows) == 2
        conn.execute(f"DELETE FROM {table} WHERE rank = ?", (TARGET,))
        for row in reversed(rows):
            conn.execute(f"INSERT INTO {table} VALUES "
                         f"({','.join('?' * len(row))})", row)
        return {TARGET}
    return tamper


def _tamper_cases() -> list:
    cases = []
    conn = sqlite3.connect(":memory:")
    conn.executescript(_SCHEMA)
    for table in ("visits", *CHILD_TABLES):
        for column in _columns(conn, table):
            if column != "rank":
                cases.append(pytest.param(_set_column(table, column),
                                          id=f"change-{table}.{column}"))
    conn.close()
    for table in CHILD_TABLES:
        cases += [
            pytest.param(_delete_row(table), id=f"delete-{table}"),
            pytest.param(_copy_row(table, TARGET, move=False),
                         id=f"duplicate-{table}"),
            pytest.param(_copy_row(table, 3, move=True),
                         id=f"move-{table}"),
            pytest.param(_copy_row(table, 42, move=True),
                         id=f"orphan-{table}"),
            pytest.param(_swap_rows(table), id=f"swap-{table}"),
        ]
    # Type-only changes SQLite keeps as written despite column affinity.
    for table, column, value in (
            ("visits", "failure", "None"),
            ("visits", "error_detail", "None"),
            ("frames", "parent_id", "None"),
            ("frames", "iframe_attributes", "None"),
            ("calls", "script_url", "None"),
            ("scripts", "url", "None"),
            ("frames", "depth", 0.5),
            ("visits", "duration_seconds", "2.25s"),
            ("frames", "is_local", b"\x01"),
            # Same JSON document, different bytes: only a raw-row hash
            # sees it.
            ("frames", "headers", '{"permissions-policy":"camera=()"}')):
        cases.append(pytest.param(_set_column(table, column, value),
                                  id=f"type-{table}.{column}-{value!r}"))
    return cases


class TestTamperMatrix:
    @pytest.mark.parametrize("tamper", _tamper_cases())
    def test_exactly_the_damaged_ranks_are_flagged(self, store_path, tamper):
        assert _flagged(store_path) == {}
        conn = sqlite3.connect(store_path)
        with conn:
            expected = tamper(conn)
        conn.close()
        assert set(_flagged(store_path)) == expected
        with CrawlStore(store_path) as store:
            store.verify(repair=True)
            clean = store.verify()
        assert clean.ok and clean.verified_rows == 3 - len(expected)

    @pytest.mark.parametrize("table, column", [("frames", "headers"),
                                               ("calls", "permissions")])
    def test_broken_json_is_a_decode_error(self, store_path, table, column):
        conn = sqlite3.connect(store_path)
        with conn:
            _set_column(table, column, "{x")(conn)
        conn.close()
        flagged = _flagged(store_path)
        assert flagged == {TARGET: DECODE_ERROR}

    def test_valid_but_changed_value_is_a_checksum_mismatch(self,
                                                            store_path):
        conn = sqlite3.connect(store_path)
        with conn:
            _set_column("scripts", "source")(conn)
        conn.close()
        with CrawlStore(store_path) as store:
            report = store.verify()
        assert [(bad.rank, bad.reason) for bad in report.corrupt] == \
            [(TARGET, CHECKSUM_MISMATCH)]
        assert report.corrupt[0].detail.startswith("stored ")

    @pytest.mark.parametrize("a, b", [(None, "None"), (1, "1"), (1, 1.0),
                                      (1, True), ("1", b"1"), (0.0, -0.0),
                                      ("", None)])
    def test_checksum_tells_types_apart(self, a, b):
        assert visit_checksum([(TARGET, a)]) != visit_checksum([(TARGET, b)])

    def test_checksum_sees_row_boundaries(self):
        assert visit_checksum([(1, 2), (3,)]) != visit_checksum([(1,), (2, 3)])
        assert visit_checksum([(1,), (2,)]) != visit_checksum([(2,), (1,)])

    @pytest.mark.parametrize("duration", [2, -0.0, 0])
    def test_values_bound_as_their_column_type_verify(self, tmp_path,
                                                      duration):
        # SQLite stores these durations as REAL 2.0 / 0.0; the save side
        # must hash what is read back, not what it was handed.
        with CrawlStore(tmp_path / "t.sqlite") as store:
            store.save_visit(_visit(TARGET, duration_seconds=duration))
            assert store.verify().verified_rows == 1


class TestFailedWriteRollback:
    def test_failed_chunk_leaves_no_partial_write(self, store_path):
        with CrawlStore(store_path) as store:
            before = _rows(store._conn)
            # A visit repeating a frame id hits the frames primary key
            # after the chunk's deletes and visits rows already ran.
            broken = _visit(TARGET, frames=[_visit(1).frames[0]] * 2)
            with pytest.raises(sqlite3.IntegrityError):
                store.save_visits([_visit(5), broken])
            with pytest.raises(sqlite3.IntegrityError):
                store.save_visit(broken)
            store.save_visits([_visit(4)])
            after = _rows(store._conn)
            report = store.verify()
        assert {table: [row for row in rows if row[0] != 4]
                for table, rows in after.items()} == before
        assert report.ok and report.verified_rows == 4

    def test_duplicated_rank_in_a_chunk_last_copy_wins(self, tmp_path):
        # Written naively, a second copy with frames hits the frames
        # primary key, and one without lands its rows beside the first's.
        for first in (_visit(TARGET), _visit(TARGET, frames=[])):
            last = dataclasses.replace(first, duration_seconds=99.0,
                                       retries=3)
            visits = [first, _visit(4), last]
            stored = {}
            for chunk_size in (256, 1):
                path = tmp_path / f"dup-{len(first.frames)}-{chunk_size}.db"
                with CrawlStore(path) as store:
                    assert store.save_visits(visits,
                                             chunk_size=chunk_size) == 3
                    report = store.verify()
                    assert report.ok and report.verified_rows == 2
                    assert store.load_visits([TARGET]) == [last]
                    stored[chunk_size] = _rows(store._conn)
            # One chunk stores exactly what one chunk per visit stores.
            assert stored[256] == stored[1]

    def test_save_visit_supersedes_quarantine_and_counts(self, store_path):
        with CrawlStore(store_path) as store:
            store.quarantine_rank(TARGET, reason="poison")
            with observed():
                store.save_visit(_visit(TARGET))
                saved = REGISTRY.snapshot()["counters"]["store.visits_saved"]
            assert store.quarantine_rows() == []
            assert store.verify().verified_rows == 3
        assert saved == 1


def _v3_store(path: Path, visits: list[SiteVisit]) -> None:
    """Rewrite a store as schema 3 wrote it: checksums over the decoded
    visit's canonical JSON, and no ``user_version``."""
    conn = sqlite3.connect(path)
    with conn:
        conn.executemany(
            "UPDATE visits SET checksum = ? WHERE rank = ?",
            [(zlib.crc32(canonical_visit_bytes(visit)), visit.rank)
             for visit in visits])
        conn.execute("PRAGMA user_version = 0")
    conn.close()


class TestSchemaMigration:
    def test_v3_store_migrates_in_place_and_keeps_corruption(self,
                                                             tmp_path):
        path = tmp_path / "v3.sqlite"
        visits = [_visit(rank) for rank in range(1, 7)]
        with CrawlStore(path) as store:
            store.save_visits(visits)
            store.flush()
        _v3_store(path, visits)
        conn = sqlite3.connect(path)
        with conn:
            # Corrupt before the migration: a changed value, broken JSON,
            # and a legacy row that predates checksums.
            conn.execute("UPDATE scripts SET source = source || 'X' "
                         "WHERE rank = 2")
            conn.execute("UPDATE frames SET headers = '{x' WHERE rank = 4")
            conn.execute("UPDATE visits SET checksum = NULL WHERE rank = 6")
            old = dict(conn.execute("SELECT rank, checksum FROM visits"))
        conn.close()

        with CrawlStore(path) as store:
            migrated = store.stored_checksums()
            version = store._conn.execute("PRAGMA user_version").fetchone()[0]
            report = store.verify()
        assert version == SCHEMA_VERSION == 4
        assert {bad.rank: bad.reason for bad in report.corrupt} == \
            {2: CHECKSUM_MISMATCH, 4: DECODE_ERROR}
        assert report.verified_rows == 3 and report.legacy_rows == 1
        # Corrupt rows keep their schema 3 value; clean rows are rehashed.
        assert migrated[2] == old[2] and migrated[4] == old[4]
        assert migrated[6] is None
        assert all(migrated[rank] != old[rank] for rank in (1, 3, 5))

        with CrawlStore(path) as store:
            assert store.stored_checksums() == migrated
            assert _flagged(path) == {2: CHECKSUM_MISMATCH, 4: DECODE_ERROR}

    def test_fresh_store_records_the_schema_version(self, tmp_path):
        with CrawlStore(tmp_path / "new.sqlite") as store:
            assert store._conn.execute(
                "PRAGMA user_version").fetchone()[0] == SCHEMA_VERSION

    def test_measurement_cache_keys_on_the_new_schema(self):
        manifest = runner._manifest(10, seed=1)
        assert manifest["schema_version"] == SCHEMA_VERSION == 4


_CHILD = """
import hashlib, sys
from repro.crawler.pool import CrawlerPool
from repro.crawler.storage import CrawlStore, export_jsonl
from repro.synthweb.generator import SyntheticWeb

store_path, export_path = sys.argv[1:3]
with CrawlStore(store_path) as store:
    CrawlerPool(SyntheticWeb(40, seed=3), workers=1).run(store=store)
    store.flush()
    assert store.verify().verified_rows == 40
    print(sorted(store.stored_checksums().items()))
    export_jsonl(store.iter_visits(), export_path)
with open(export_path, "rb") as handle:
    print(hashlib.sha256(handle.read()).hexdigest())
"""


def test_store_bytes_do_not_depend_on_hash_seed(tmp_path):
    outputs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC))
        completed = subprocess.run(
            [sys.executable, "-c", _CHILD,
             str(tmp_path / f"s{seed}.sqlite"),
             str(tmp_path / f"s{seed}.jsonl")],
            env=env, capture_output=True, text=True, timeout=300)
        assert completed.returncode == 0, completed.stderr
        outputs.append(completed.stdout.splitlines())
    checksums, digest = outputs[0]
    assert outputs[1] == [checksums, digest]
    assert digest == hashlib.sha256(
        (tmp_path / "s1.jsonl").read_bytes()).hexdigest()
