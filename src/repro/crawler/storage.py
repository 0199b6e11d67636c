"""Crawl persistence: SQLite database plus JSONL export/import.

The paper's wrapper stores all collected data in a database immediately
after each site completes (Appendix A.2, C14).  :class:`CrawlStore`
reproduces that: one SQLite file with ``visits``, ``frames``, ``calls``,
``scripts`` and ``prompts`` tables, savable incrementally — from any
thread, behind a serialized writer lock with WAL enabled for concurrent
readers — and loadable back into
:class:`~repro.crawler.pool.CrawlDataset` form so analyses can run without
re-crawling.

On-disk data is treated as untrusted (DESIGN.md §4g):

* every visit row carries a CRC-32 over the exact values written to its
  ``visits``, ``frames``, ``calls``, ``scripts`` and ``prompts`` rows
  (:mod:`repro.crawler.integrity`), computed once per visit at save time;
* :meth:`CrawlStore.verify` rehashes the raw rows (one scan per table,
  no decoding of clean visits) and, with ``repair=True``, moves corrupt
  rows into a ``quarantine`` table;
* the layout version is recorded in ``PRAGMA user_version``; a schema 3
  store, whose checksums hashed a JSON encoding of the decoded visit, is
  rehashed in place on open, and a visit that already failed its old
  checksum keeps it, so the next :meth:`CrawlStore.verify` still flags
  it;
* loading tolerates partially written or corrupt databases: orphan child
  rows *and* rows that fail to decode are skipped with counted warnings
  so checkpoint/resume (and analysis of a damaged store) never crashes.
"""

from __future__ import annotations

import json
import logging
import os
import sqlite3
import sys
import threading
import time
import zlib
from collections import Counter
from dataclasses import dataclass
from itertools import chain, groupby
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator

from repro._bulk_gc import bulk_gc
from repro.crawler.integrity import (
    CHECKSUM_MISMATCH,
    DECODE_ERROR,
    CorruptRow,
    VerifyReport,
    canonical_visit_bytes,
    visit_checksum,
)
from repro.crawler.pool import CrawlDataset
from repro.obs import metrics as _metrics
from repro.crawler.records import (
    CallRecord,
    FrameRecord,
    PromptRecord,
    ScriptSourceRecord,
    SiteVisit,
)

logger = logging.getLogger(__name__)

#: Version of the on-disk layout below, stored as ``PRAGMA user_version``.
#: Bump on any change to tables, columns, row encoding or checksum rule;
#: the measurement cache (:mod:`repro.experiments.runner`) keys its
#: manifests on this value so stale checkpoints are re-crawled instead of
#: misread.  4: checksums hash the stored row values.
SCHEMA_VERSION = 4

#: Maximum parameters per ``IN (...)`` clause; SQLite's default variable
#: limit is 999, so stay comfortably below it.
_SQL_IN_CHUNK = 500

_SCHEMA = """
CREATE TABLE IF NOT EXISTS visits (
    rank INTEGER PRIMARY KEY,
    requested_url TEXT NOT NULL,
    final_url TEXT NOT NULL,
    success INTEGER NOT NULL,
    failure TEXT,
    top_level_document_count INTEGER NOT NULL,
    skipped_lazy_iframes INTEGER NOT NULL,
    iframe_load_failures INTEGER NOT NULL,
    duration_seconds REAL NOT NULL,
    retries INTEGER NOT NULL DEFAULT 0,
    error_detail TEXT,
    checksum INTEGER
);
CREATE TABLE IF NOT EXISTS frames (
    rank INTEGER NOT NULL,
    frame_id INTEGER NOT NULL,
    url TEXT NOT NULL,
    origin TEXT NOT NULL,
    site TEXT NOT NULL,
    parent_id INTEGER,
    depth INTEGER NOT NULL,
    is_local INTEGER NOT NULL,
    headers TEXT NOT NULL,
    iframe_attributes TEXT,
    PRIMARY KEY (rank, frame_id)
);
CREATE TABLE IF NOT EXISTS calls (
    rank INTEGER NOT NULL,
    frame_id INTEGER NOT NULL,
    api TEXT NOT NULL,
    kind TEXT NOT NULL,
    permissions TEXT NOT NULL,
    args TEXT NOT NULL,
    script_url TEXT,
    allowed INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS scripts (
    rank INTEGER NOT NULL,
    frame_id INTEGER NOT NULL,
    url TEXT,
    source TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS prompts (
    rank INTEGER NOT NULL,
    frame_id INTEGER NOT NULL,
    permission TEXT NOT NULL,
    display_site TEXT NOT NULL,
    text TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS quarantine (
    rank INTEGER NOT NULL,
    reason TEXT NOT NULL,
    detail TEXT NOT NULL,
    payload TEXT
);
CREATE INDEX IF NOT EXISTS idx_calls_rank ON calls(rank);
CREATE INDEX IF NOT EXISTS idx_frames_rank ON frames(rank);
CREATE INDEX IF NOT EXISTS idx_scripts_rank ON scripts(rank);
CREATE INDEX IF NOT EXISTS idx_prompts_rank ON prompts(rank);
"""

_VISIT_COLUMNS = ("rank, requested_url, final_url, success, failure, "
                  "top_level_document_count, skipped_lazy_iframes, "
                  "iframe_load_failures, duration_seconds, retries, "
                  "error_detail")

#: Child tables in checksum order, with explicit column lists: ``SELECT *``
#: would depend on physical column order, which differs between a freshly
#: created table and one that grew columns via ALTER TABLE migrations.
_CHILD_COLUMNS = {
    "frames": "rank, frame_id, url, origin, site, parent_id, depth, "
              "is_local, headers, iframe_attributes",
    "calls": "rank, frame_id, api, kind, permissions, args, script_url, "
             "allowed",
    "scripts": "rank, frame_id, url, source",
    "prompts": "rank, frame_id, permission, display_site, text",
}


_STR = frozenset({str})


def _dumps_dict(value, memo: dict) -> str:
    """``json.dumps(value)`` for a frame's header or attribute dict.

    Equal all-``str`` dicts are encoded once per ``memo`` (one per saved
    chunk), keyed on their items in order.  Any other value is encoded
    afresh: ``1``, ``1.0`` and ``True`` are equal keys that encode
    differently.
    """
    if type(value) is not dict or not _STR.issuperset(
            map(type, chain(value, value.values()))):
        return json.dumps(value)
    key = tuple(value.items())
    text = memo.get(key)
    if text is None:
        text = memo[key] = json.dumps(value)
    return text


def _dumps_list(values, memo: dict) -> str:
    """``json.dumps(list(values))`` for a call's permissions or args,
    encoded once per ``memo`` when every item is a ``str`` (as in
    :func:`_dumps_dict`)."""
    key = tuple(values)
    if not _STR.issuperset(map(type, key)):
        return json.dumps(key)
    text = memo.get(key)
    if text is None:
        text = memo[key] = json.dumps(key)
    return text


def _visit_from_row(row: tuple) -> SiteVisit:
    # Positional, in field order: the four empty lists are frames, calls,
    # scripts and prompts, which _attach_children fills.
    return SiteVisit(row[0], row[1], row[2], bool(row[3]), row[4],
                     [], [], [], [], row[5], row[6], row[7], row[8],
                     row[9], row[10])


#: Cell types whose values equal only values of their own type (``1``,
#: ``1.0`` and ``True`` are equal dict keys, so ``float`` is left out;
#: SQLite never returns ``bool``).  A row made of these is a type-exact
#: memo key.
_EXACT_TYPES = frozenset({int, str, type(None)})


def _exact_key(row: tuple) -> "tuple | None":
    """``row`` without its rank, as a memo key, or ``None`` (never stored,
    so never found) when equality would not be type-exact: a REAL, BLOB,
    ... cell from a damaged or foreign store."""
    key = row[1:]
    return key if _EXACT_TYPES.issuperset(map(type, key)) else None


def _json_dict(text, memo: dict):
    """Parse one stored ``headers`` / ``iframe_attributes`` text.

    Equal texts are parsed once per ``memo``; every caller gets a fresh
    ``dict`` copy, because the records hand the dict out and it is
    mutable.  Only a flat ``dict[str, str]`` is memoized (a shallow copy
    of anything else would still share its insides); a text that fails to
    parse raises each time it is seen.
    """
    parsed = memo.get(text)
    if parsed is None:
        parsed = json.loads(text)
        if type(parsed) is not dict or not all(
                type(value) is str for value in parsed.values()):
            return parsed
        memo[text] = parsed
    return parsed.copy()


def _frame_from_row(row: tuple, memo: dict) -> FrameRecord:
    attributes = row[9]
    return FrameRecord(
        row[1], row[2], row[3], row[4], row[5], row[6], bool(row[7]),
        _json_dict(row[8], memo),
        None if attributes is None else _json_dict(attributes, memo))


def _call_from_row(row: tuple, memo: dict) -> CallRecord:
    key = _exact_key(row)
    record = memo.get(key)
    if record is None:
        permissions = tuple(json.loads(row[4]))
        args = tuple(json.loads(row[5]))
        record = CallRecord(row[1], row[2], row[3], permissions, args,
                            row[6], bool(row[7]))
        # Shared only when every value is immutable.
        if key is not None and all(
                type(value) is str for value in permissions + args):
            memo[key] = record
    return record


def _script_from_row(row: tuple, memo: dict) -> ScriptSourceRecord:
    key = _exact_key(row)
    record = memo.get(key)
    if record is None:
        record = ScriptSourceRecord(row[1], row[2], row[3])
        if key is not None:
            memo[key] = record
    return record


def _prompt_from_row(row: tuple, memo: dict) -> PromptRecord:
    key = _exact_key(row)
    record = memo.get(key)
    if record is None:
        record = PromptRecord(row[2], row[1], row[3], row[4])
        if key is not None:
            memo[key] = record
    return record


#: Per child table (named like the :class:`SiteVisit` list its records
#: join): the row decoder.  Frames get fresh header dicts per row; a
#: whole ``calls`` / ``scripts`` / ``prompts`` row decodes to one frozen
#: record shared by every equal row of one read.
_CHILD_DECODERS = {
    "frames": _frame_from_row,
    "calls": _call_from_row,
    "scripts": _script_from_row,
    "prompts": _prompt_from_row,
}


def _rank_span(after: "int | None", first: "int | None",
               last: "int | None") -> "tuple[str, tuple]":
    """A ``WHERE`` clause and its parameters for the ranks above
    ``after`` (from ``first`` when ``after`` is ``None``) up to ``last``;
    a ``None`` bound is open."""
    clauses: list[str] = []
    params: list[int] = []
    if after is not None:
        clauses.append("rank > ?")
        params.append(after)
    elif first is not None:
        clauses.append("rank >= ?")
        params.append(first)
    if last is not None:
        clauses.append("rank <= ?")
        params.append(last)
    where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
    return where, tuple(params)


def _user_version(conn: sqlite3.Connection) -> int:
    return conn.execute("PRAGMA user_version").fetchone()[0]


#: Columns added after the original schema shipped; existing checkpoint
#: databases are migrated in place on open.
_VISITS_MIGRATIONS = (
    ("retries", "INTEGER NOT NULL DEFAULT 0"),
    ("error_detail", "TEXT"),
    # Schema 3: rows written before this migration keep a NULL checksum
    # and show up as "legacy" (not corrupt) in verify() reports.
    ("checksum", "INTEGER"),
)


def _safe_text(text: str, limit: int = 200) -> str:
    """Clip and ASCII-escape untrusted text destined for reports/SQLite."""
    text = text.encode("ascii", "backslashreplace").decode("ascii")
    if len(text) > limit:
        text = text[:limit] + f"... ({len(text)} chars)"
    return text


class CrawlStore:
    """SQLite-backed persistence for crawl datasets.

    One store owns one connection, opened with
    ``check_same_thread=False`` and guarded by a serialized writer lock,
    so any thread can call :meth:`save_visit` directly as each site
    completes.  The journal runs in WAL mode so readers (another
    process tailing the checkpoint) never block the writers.
    """

    def __init__(self, path: "str | Path") -> None:
        self.path = Path(path)
        self._lock = threading.RLock()
        self._conn = sqlite3.connect(str(self.path), check_same_thread=False)
        self._conn.execute("PRAGMA journal_mode=WAL")
        # NORMAL is the canonical WAL pairing: commits stop fsyncing the
        # WAL (only checkpoints sync), which at crawl scale cuts the store
        # stage's cost several-fold.  Crash safety is unchanged for the
        # failure mode the resume contract covers — a killed *process*
        # loses nothing — and even an OS-level power loss can only drop
        # the most recent commits, never corrupt the file; verify() and
        # the per-visit checksums catch anything torn.
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.executescript(_SCHEMA)
        self._migrate()
        #: Orphan child rows skipped by the most recent
        #: :meth:`load_dataset` call, per table.
        self.last_orphan_counts: dict[str, int] = {}
        #: Rows that failed to decode during the most recent
        #: :meth:`load_dataset` / :meth:`load_visits` call, per table.
        self.last_corrupt_counts: dict[str, int] = {}

    def _migrate(self) -> None:
        conn = self._conn
        columns = {row[1] for row in conn.execute("PRAGMA table_info(visits)")}
        for name, spec in _VISITS_MIGRATIONS:
            if name not in columns:
                conn.execute(f"ALTER TABLE visits ADD COLUMN {name} {spec}")
        conn.commit()
        if _user_version(conn) >= SCHEMA_VERSION:
            return
        conn.execute("BEGIN IMMEDIATE")
        try:
            # Another connection may have migrated while this one waited.
            if _user_version(conn) < SCHEMA_VERSION:
                self._rehash_v3_checksums()
                conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION}")
            conn.commit()
        except BaseException:
            conn.rollback()
            raise

    def _rehash_v3_checksums(self) -> None:
        """Schema 3 → 4: rehash every visit that passes its old checksum.

        The only place the schema 3 rule (CRC-32 of the decoded visit's
        canonical JSON) still runs.  A visit that fails to decode or to
        match keeps its old value, so the next :meth:`verify` flags it
        instead of laundering the corruption.  Caller holds the write
        transaction.
        """
        rows_by_rank, stored = self._rows_by_rank()
        checksummed = [rank for rank, checksum in stored.items()
                       if checksum is not None]
        visits = self._decode_visits(checksummed, {})
        self._conn.executemany(
            "UPDATE visits SET checksum = ? WHERE rank = ?",
            [(visit_checksum(rows_by_rank[rank]), rank)
             for rank, visit in visits.items()
             if zlib.crc32(canonical_visit_bytes(visit)) == stored[rank]])

    def flush(self) -> None:
        """Commit and checkpoint the WAL into the main database file.

        Called on graceful shutdown so a subsequently copied/inspected
        database file is complete even if the ``-wal`` sidecar is lost.
        """
        with self._lock:
            self._conn.commit()
            self._conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "CrawlStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- writing ---------------------------------------------------------------

    def save_visit(self, visit: SiteVisit) -> None:
        """Persist one visit (incremental, mirroring C14): a one-visit
        :meth:`save_visits`.  Thread-safe."""
        self.save_visits((visit,))

    def save_visits(self, visits: Iterable[SiteVisit], *,
                    chunk_size: int = 256) -> int:
        """Persist many visits with one transaction per ``chunk_size`` chunk.

        Each rank saved supersedes its stored rows and any quarantine
        entry.  Child rows are written with one ``executemany`` per table
        per chunk and a single commit per chunk instead of a commit per
        visit.  This is the pool's hot path at scale; per-visit commits
        dominate the store stage otherwise.  Accepts any iterable
        (including a generator, so a whole store or JSONL file can stream
        through).  A rank given more than once is stored as its last copy,
        whatever the ``chunk_size``.  Thread-safe.  Returns the number of
        visits given.
        """
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        total = 0
        chunk: list[SiteVisit] = []
        for visit in visits:
            chunk.append(visit)
            if len(chunk) >= chunk_size:
                self._save_chunk(chunk)
                total += len(chunk)
                chunk = []
        if chunk:
            self._save_chunk(chunk)
            total += len(chunk)
        if _metrics.COUNTING and total:
            _metrics.REGISTRY.counter("store.visits_saved").inc(total)
        return total

    def _save_chunk(self, chunk: list[SiteVisit]) -> None:
        """Write one chunk of visits inside a single transaction.

        Child rows of each visit stay contiguous in the ``executemany``
        argument lists, so rowid order within one rank still equals
        insertion order — the invariant :meth:`_attach_children` and the
        checksum rely on.

        Each visit is encoded once: its checksum
        (:func:`~repro.crawler.integrity.visit_checksum`) is taken over the
        very row tuples bound to the ``INSERT`` statements.  Every value is
        bound as the type its column stores (``float`` for
        ``duration_seconds``, ``int`` for flags), so the rows
        :meth:`verify` reads back hash the same.  Encoding happens
        *before* the writer lock is taken: it needs no connection state,
        so only the SQLite calls themselves hold the lock.

        A rank given twice keeps only its last copy, placed where that
        copy came — exactly what saving the copies in separate chunks
        stores, so the stored bytes never depend on ``chunk_size``.

        Any exception inside the locked section rolls the transaction
        back, so a failed chunk (a visit repeating a frame id hits the
        ``frames`` primary key, say) leaves none of its deletes or rows
        behind for the next commit to persist.

        When metrics are on, the writer thread's *CPU* time inside the
        lock is recorded in the ``store.write_seconds`` histogram
        (:func:`time.thread_time`, not wall clock), so time the writer
        spends descheduled or waiting for the lock is not charged to the
        store.
        """
        if len({visit.rank for visit in chunk}) < len(chunk):
            latest: dict[int, SiteVisit] = {}
            for visit in chunk:
                latest.pop(visit.rank, None)
                latest[visit.rank] = visit
            chunk = list(latest.values())
        rank_params = []
        visit_rows = []
        frame_rows: list[tuple] = []
        call_rows: list[tuple] = []
        script_rows: list[tuple] = []
        prompt_rows: list[tuple] = []
        dict_texts: dict = {}
        list_texts: dict = {}
        for visit in chunk:
            rank = visit.rank
            frames = [
                (rank, f.frame_id, f.url, f.origin, f.site, f.parent_id,
                 f.depth, int(f.is_local), _dumps_dict(f.headers, dict_texts),
                 _dumps_dict(f.iframe_attributes, dict_texts)
                 if f.iframe_attributes is not None else None)
                for f in visit.frames]
            calls = [
                (rank, c.frame_id, c.api, c.kind,
                 _dumps_list(c.permissions, list_texts),
                 _dumps_list(c.args, list_texts),
                 c.script_url, int(c.allowed))
                for c in visit.calls]
            scripts = [(rank, s.frame_id, s.url, s.source)
                       for s in visit.scripts]
            prompts = [(rank, p.requesting_frame_id, p.permission,
                        p.display_site, p.text)
                       for p in visit.prompts]
            row = (rank, visit.requested_url, visit.final_url,
                   int(visit.success), visit.failure,
                   visit.top_level_document_count,
                   visit.skipped_lazy_iframes, visit.iframe_load_failures,
                   # + 0.0 folds -0.0, which SQLite reads back as 0.0.
                   float(visit.duration_seconds) + 0.0, visit.retries,
                   visit.error_detail)
            checksum = visit_checksum((row, *frames, *calls, *scripts,
                                       *prompts))
            rank_params.append((rank,))
            visit_rows.append((*row, checksum))
            frame_rows += frames
            call_rows += calls
            script_rows += scripts
            prompt_rows += prompts
        with self._lock:
            start = time.thread_time() if _metrics.COUNTING else 0.0
            conn = self._conn
            try:
                for table in ("quarantine", *_CHILD_COLUMNS):
                    conn.executemany(
                        f"DELETE FROM {table} WHERE rank = ?",  # noqa: S608
                        rank_params)
                conn.executemany(
                    f"INSERT OR REPLACE INTO visits ({_VISIT_COLUMNS}, "
                    "checksum) VALUES (?,?,?,?,?,?,?,?,?,?,?,?)", visit_rows)
                conn.executemany(
                    "INSERT INTO frames VALUES (?,?,?,?,?,?,?,?,?,?)",
                    frame_rows)
                conn.executemany(
                    "INSERT INTO calls VALUES (?,?,?,?,?,?,?,?)", call_rows)
                conn.executemany(
                    "INSERT INTO scripts VALUES (?,?,?,?)", script_rows)
                conn.executemany(
                    "INSERT INTO prompts VALUES (?,?,?,?,?)", prompt_rows)
                conn.commit()
            except BaseException:
                conn.rollback()
                raise
            if _metrics.COUNTING:
                _metrics.REGISTRY.histogram("store.write_seconds").observe(
                    time.thread_time() - start)

    def save_dataset(self, dataset: CrawlDataset) -> None:
        self.save_visits(dataset.visits)

    # -- reading ----------------------------------------------------------------

    def stored_ranks(self) -> set[int]:
        """Ranks already persisted — the checkpoint/resume frontier."""
        with self._lock:
            return {row[0] for row in
                    self._conn.execute("SELECT rank FROM visits")}

    def stored_checksums(self) -> "dict[int, int | None]":
        """Stored row checksums by rank, in rank order (``None`` marks a
        pre-checksum legacy row).  Cheap — no payload decoding — so the
        process backend can report chunk checksums without re-encoding
        every visit."""
        with self._lock:
            return {row[0]: row[1] for row in self._conn.execute(
                "SELECT rank, checksum FROM visits ORDER BY rank")}

    def load_dataset(self) -> CrawlDataset:
        """Load everything back into dataset form.

        This is :meth:`iter_visits` drained in one unbounded batch: one
        visits query and one range read per child table, under one lock
        and one scoped-GC window.  Child rows whose rank has no ``visits``
        row (a partially written or corrupt checkpoint) are skipped and
        counted in :attr:`last_orphan_counts` with a logged warning, so
        resuming from an interrupted save never crashes.  Rows that fail
        to *decode* (bit-flipped JSON, truncated values) are likewise
        skipped and counted in :attr:`last_corrupt_counts` — run
        ``repro verify-store --repair`` to quarantine them properly.
        """
        dataset = CrawlDataset(
            visits=list(self.iter_visits(batch_size=sys.maxsize)))
        if _metrics.COUNTING:
            _metrics.REGISTRY.gauge("store.orphan_rows").set(
                sum(self.last_orphan_counts.values()))
        return dataset

    def _warn_corrupt(self, corrupt: Counter) -> None:
        if not corrupt:
            return
        detail = ", ".join(f"{table}={count}" for table, count
                           in sorted(corrupt.items()))
        logger.warning(
            "skipped rows that failed to decode (%s) in %s — run "
            "`repro verify-store --repair` to quarantine them",
            detail, self.path)

    def _attach_children(self, by_rank: dict[int, SiteVisit],
                         orphans: Counter, corrupt: Counter,
                         where: str = "", params: tuple = (),
                         corrupt_ranks: "dict[int, str] | None" = None
                         ) -> None:
        """Attach frame/call/script/prompt rows to their visits.

        ``ORDER BY rank, rowid`` restores per-visit record order:
        ``save_visits`` writes each visit's child rows contiguously, so
        rowid order within one rank equals insertion order even when
        chunks were saved out of rank order.  The ``idx_*_rank`` indexes
        serve that order without a sort, and rows arrive in runs of one
        rank, so the visit lookup happens once per run.

        Each distinct stored value is decoded once per call: equal header
        texts are parsed once (each frame still gets its own dict), and
        equal ``calls`` / ``scripts`` / ``prompts`` rows share one frozen
        record.  The memo lives for this call only, which bounds it by one
        :meth:`iter_visits` batch.

        Rows whose rank has no visit in ``by_rank`` are counted in
        ``orphans``; rows that fail to decode are skipped and counted per
        table in ``corrupt`` (every time, as a failure is never memoized).
        ``corrupt_ranks`` (used by :meth:`_decode_visits`) additionally
        records which rank each decode failure belongs to.
        """
        conn = self._conn
        for table, from_row in _CHILD_DECODERS.items():
            memo: dict = {}
            run_rank = records = None
            for row in conn.execute(
                    f"SELECT {_CHILD_COLUMNS[table]} FROM {table}{where} "
                    "ORDER BY rank, rowid", params):
                if row[0] != run_rank:
                    run_rank = row[0]
                    visit = by_rank.get(run_rank)
                    records = None if visit is None else getattr(visit, table)
                if records is None:
                    orphans[table] += 1
                    continue
                try:
                    records.append(from_row(row, memo))
                except Exception as exc:
                    corrupt[table] += 1
                    if (corrupt_ranks is not None
                            and row[0] not in corrupt_ranks):
                        corrupt_ranks[row[0]] = _safe_text(
                            f"{table}: {type(exc).__name__}: {exc}")

    def iter_visits(self, *, batch_size: int = _SQL_IN_CHUNK,
                    min_rank: "int | None" = None,
                    max_rank: "int | None" = None
                    ) -> Iterator[SiteVisit]:
        """Stream stored visits in rank order with bounded memory.

        :meth:`load_dataset` is this walk in one batch.  Only
        ``batch_size`` visits (plus their child rows) are resident at a
        time: the visits table is walked with keyset pagination
        (``WHERE rank > last``), and each child table is read over the
        batch's rank range (``rank > previous last AND rank <= last``; the
        final batch has no upper bound).  The writer lock is taken per
        batch, not across the whole iteration, so concurrent writers are
        never starved.  Because the ranges tile the whole walk, orphan
        child rows (before the first rank, between two visits, after the
        last) and corrupt rows are skipped and counted whatever the batch
        size; :attr:`last_orphan_counts` /
        :attr:`last_corrupt_counts` are populated when the iterator is
        exhausted.

        ``min_rank`` / ``max_rank`` bound the walk to an inclusive rank
        span — the process-parallel summarize streams one contiguous span
        per worker through this.  Each batch decodes under scoped GC
        thresholds (:func:`repro._bulk_gc.bulk_gc`); no scope is held
        while a visit is yielded.
        """
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        orphans: Counter = Counter()
        corrupt: Counter = Counter()
        previous: "int | None" = None  # last rank of the batch before
        loaded = 0
        done = False
        while not done:
            # The GC scope covers one batch's decode, never a yield.
            with self._lock, bulk_gc():
                where, params = _rank_span(previous, min_rank, max_rank)
                rows = self._conn.execute(
                    f"SELECT {_VISIT_COLUMNS} FROM visits{where} "
                    "ORDER BY rank LIMIT ?", (*params, batch_size)).fetchall()
                # A full batch's child range ends at its last rank; the
                # last (short) batch's runs on to max_rank, so trailing
                # orphans are seen.
                done = len(rows) < batch_size
                if not done:
                    where, params = _rank_span(previous, min_rank,
                                               rows[-1][0])
                    previous = rows[-1][0]
                by_rank: dict[int, SiteVisit] = {}
                for row in rows:
                    try:
                        by_rank[row[0]] = _visit_from_row(row)
                    except Exception:
                        corrupt["visits"] += 1
                self._attach_children(by_rank, orphans, corrupt, where,
                                      params)
            for visit in by_rank.values():
                yield visit
            loaded += len(by_rank)
        self.last_orphan_counts = dict(orphans)
        self.last_corrupt_counts = dict(corrupt)
        if _metrics.COUNTING:
            registry = _metrics.REGISTRY
            registry.counter("store.visits_loaded").inc(loaded)
            if corrupt:
                registry.counter("store.corrupt_rows").inc(
                    sum(corrupt.values()))
        if orphans:
            detail = ", ".join(f"{table}={count}" for table, count
                               in sorted(orphans.items()))
            logger.warning(
                "skipped orphan rows without a visits entry (%s) in %s "
                "— partially written checkpoint?", detail, self.path)
        self._warn_corrupt(corrupt)

    def merge_from(self, other: "CrawlStore", *,
                   chunk_size: int = 256) -> int:
        """Merge every visit of ``other`` into this store.

        Fast path: ``other``'s rows are copied verbatim inside SQLite via
        ``ATTACH`` + ``INSERT ... SELECT`` — no Python-side decode or
        re-encode, which is what lets the process backend's per-chunk
        sidecar merges stay a small slice of the store stage.  Sidecar
        rows were written by this same encoder, so a verbatim copy is
        byte-for-byte what re-saving the visits would produce (checksums
        included); child rows are
        copied ``ORDER BY rowid`` so per-rank contiguity (the
        :meth:`_attach_children` invariant) survives, and child rows whose
        rank has no ``visits`` row are left behind, matching the streaming
        path's orphan cleansing.  Ranks present in both stores are
        superseded by ``other``'s copy, mirroring :meth:`save_visit`'s
        INSERT OR REPLACE semantics.  If ATTACH fails (e.g. the target's
        SQLite build restricts it), the merge falls back to streaming
        ``other`` through :meth:`save_visits` in ``chunk_size`` batches.
        Returns the number of visits merged.
        """
        if self.path.resolve() == Path(other.path).resolve():
            raise ValueError("cannot merge a store into itself")
        try:
            return self._merge_attached(other)
        except sqlite3.Error:
            logger.warning("ATTACH merge from %s failed; falling back to "
                           "the streaming merge", other.path, exc_info=True)
            return self.save_visits(other.iter_visits(),
                                    chunk_size=chunk_size)

    def _merge_attached(self, other: "CrawlStore") -> int:
        other.flush()  # checkpoint src so a fresh reader sees every row
        with self._lock:
            start = time.thread_time() if _metrics.COUNTING else 0.0
            conn = self._conn
            conn.commit()  # ATTACH is illegal inside a transaction
            conn.execute("ATTACH DATABASE ? AS merge_src",
                         (str(other.path),))
            try:
                count = conn.execute(
                    "SELECT COUNT(*) FROM merge_src.visits").fetchone()[0]
                for table in ("quarantine", *_CHILD_COLUMNS):
                    conn.execute(
                        f"DELETE FROM {table} WHERE rank IN "  # noqa: S608
                        "(SELECT rank FROM merge_src.visits)")
                conn.execute(
                    f"INSERT OR REPLACE INTO visits ({_VISIT_COLUMNS}, "
                    f"checksum) SELECT {_VISIT_COLUMNS}, checksum "
                    "FROM merge_src.visits ORDER BY rank")
                for table, columns in _CHILD_COLUMNS.items():
                    conn.execute(
                        f"INSERT INTO {table} ({columns}) "  # noqa: S608
                        f"SELECT {columns} FROM merge_src.{table} "
                        "WHERE rank IN (SELECT rank FROM merge_src.visits) "
                        "ORDER BY rowid")
                conn.commit()
            except BaseException:
                conn.rollback()
                raise
            finally:
                conn.execute("DETACH DATABASE merge_src")
            if _metrics.COUNTING:
                # Separate histogram from save_visits' store.write_seconds:
                # with sidecar worker writes the row encoding happens in
                # worker processes (overlapping crawl compute), so merge
                # cost is the only store work on the parent's critical path
                # and the scale harness accounts for the two separately.
                _metrics.REGISTRY.histogram("store.merge_seconds").observe(
                    time.thread_time() - start)
        if _metrics.COUNTING and count:
            _metrics.REGISTRY.counter("store.visits_saved").inc(count)
        return count

    def load_visits(self, ranks: "Iterable[int]") -> list[SiteVisit]:
        """Load only the given ranks — the targeted resume query.

        Unlike :meth:`load_dataset` this never materialises the whole
        checkpoint; ranks not present in the store are silently skipped.
        Returns visits sorted by rank.
        """
        wanted = sorted(set(ranks))
        corrupt: Counter = Counter()
        with self._lock:
            by_rank = self._read_ranks(wanted, corrupt)
        self.last_corrupt_counts = dict(corrupt)
        if _metrics.COUNTING:
            _metrics.REGISTRY.counter("store.visits_loaded").inc(len(by_rank))
            if corrupt:
                _metrics.REGISTRY.counter("store.corrupt_rows").inc(
                    sum(corrupt.values()))
        self._warn_corrupt(corrupt)
        return [by_rank[rank] for rank in wanted if rank in by_rank]

    # -- SQL-side counts ---------------------------------------------------------
    #
    # Visit-level tallies that ``repro crawl --no-collect`` reports without
    # decoding a row.  Everything that reads frames goes through
    # :meth:`iter_visits` and the analyses.

    def count_successful(self) -> int:
        with self._lock:
            row = self._conn.execute(
                "SELECT COUNT(*) FROM visits WHERE success = 1").fetchone()
        return int(row[0])

    def failure_counts(self) -> dict[str, int]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT failure, COUNT(*) FROM visits "
                "WHERE success = 0 GROUP BY failure").fetchall()
        return {failure: int(count) for failure, count in rows}

    # -- integrity ---------------------------------------------------------------

    def verify(self, *, repair: bool = False) -> VerifyReport:
        """Rehash every visit's stored rows against its checksum.

        One scan per table (``ORDER BY rowid``), grouped by rank: a clean
        visit is hashed from its raw rows and never decoded.  Only a
        visit whose hash mismatches is decoded, to report it as
        ``decode-error`` (with the first failure) or ``checksum-mismatch``.
        Rows written before the checksum column existed count as
        ``legacy`` (unverifiable, not corrupt) unless they fail to
        decode.  Returns a
        :class:`~repro.crawler.integrity.VerifyReport`.  With
        ``repair=True`` corrupt rows are moved into the ``quarantine``
        table — their raw values are preserved there as a JSON payload
        for forensics — so subsequent :meth:`load_dataset` calls see a
        clean store.  Runs under scoped GC thresholds
        (:func:`repro._bulk_gc.bulk_gc`).
        """
        report = VerifyReport(path=str(self.path))
        with self._lock, bulk_gc():
            conn = self._conn
            row = conn.execute("SELECT COUNT(*) FROM quarantine").fetchone()
            report.previously_quarantined = int(row[0])
            rows_by_rank, stored = self._rows_by_rank()
            report.total_rows = len(stored)
            recomputed: dict[int, int] = {}
            suspects: list[int] = []
            for rank, rows in rows_by_rank.items():
                checksum = stored[rank]
                if checksum is not None:
                    actual = visit_checksum(rows)
                    if actual == checksum:
                        report.verified_rows += 1
                        continue
                    recomputed[rank] = actual
                suspects.append(rank)
            errors: dict[int, str] = {}
            self._decode_visits(suspects, errors)
            for rank in suspects:
                if rank in errors:
                    report.corrupt.append(
                        CorruptRow(rank, DECODE_ERROR, errors[rank]))
                elif rank in recomputed:
                    report.corrupt.append(CorruptRow(
                        rank, CHECKSUM_MISMATCH,
                        f"stored {stored[rank]}, recomputed "
                        f"{recomputed[rank]}"))
                else:
                    report.legacy_rows += 1
            if repair and report.corrupt:
                for bad in report.corrupt:
                    self._quarantine_rank(bad)
                conn.commit()
                report.quarantined = len(report.corrupt)
        if _metrics.COUNTING:
            registry = _metrics.REGISTRY
            if report.corrupt:
                registry.counter("store.corrupt_rows").inc(
                    len(report.corrupt))
            if report.quarantined:
                registry.counter("store.quarantined_rows").inc(
                    report.quarantined)
        return report

    def _rows_by_rank(self) -> "tuple[dict[int, list], dict[int, int | None]]":
        """Every visit's raw rows in checksum order, and its checksum.

        Both maps are keyed by rank in rank order; a visit's list holds
        its ``visits`` row without the checksum column, then its
        ``frames``, ``calls``, ``scripts`` and ``prompts`` rows in rowid
        order.  Child rows whose rank has no ``visits`` row are left out.
        Caller holds the lock.
        """
        conn = self._conn
        rows_by_rank: dict[int, list[tuple]] = {}
        stored: dict[int, "int | None"] = {}
        for row in conn.execute(f"SELECT {_VISIT_COLUMNS}, checksum "
                                "FROM visits ORDER BY rank"):
            rows_by_rank[row[0]] = [row[:-1]]
            stored[row[0]] = row[-1]
        for table, columns in _CHILD_COLUMNS.items():
            # A visit's child rows are contiguous in rowid order, so
            # grouping runs of one rank touches the dict once per run.
            for rank, run in groupby(conn.execute(
                    f"SELECT {columns} FROM {table} "  # noqa: S608
                    "ORDER BY rowid"), itemgetter(0)):
                rows = rows_by_rank.get(rank)
                if rows is not None:
                    rows.extend(run)
        return rows_by_rank, stored

    def _decode_visits(self, ranks: list[int],
                       errors: dict[int, str]) -> dict[int, SiteVisit]:
        """Decode the given ranks, keyed by rank.

        A rank whose rows fail to decode is left out and mapped in
        ``errors`` to its first failure (visit row first, then child
        tables in checksum order).  Caller holds the lock.
        """
        by_rank = self._read_ranks(ranks, Counter(), errors)
        return {rank: visit for rank, visit in by_rank.items()
                if rank not in errors}

    def _read_ranks(self, ranks: list[int], corrupt: Counter,
                    corrupt_ranks: "dict[int, str] | None" = None
                    ) -> dict[int, SiteVisit]:
        """Decode the visits of ``ranks`` with their child rows, keyed by
        rank, reading :data:`_SQL_IN_CHUNK` ranks per ``IN`` list.

        Rows that fail to decode are skipped and counted per table in
        ``corrupt``; ``corrupt_ranks`` additionally maps each failing
        rank to its first failure, as in :meth:`_attach_children`.  Child
        rows of a rank without a decoded visit are dropped.  Caller holds
        the lock.
        """
        by_rank: dict[int, SiteVisit] = {}
        for start in range(0, len(ranks), _SQL_IN_CHUNK):
            chunk = ranks[start:start + _SQL_IN_CHUNK]
            where = f" WHERE rank IN ({','.join('?' * len(chunk))})"
            for row in self._conn.execute(
                    f"SELECT {_VISIT_COLUMNS} FROM visits{where}", chunk):
                try:
                    by_rank[row[0]] = _visit_from_row(row)
                except Exception as exc:
                    corrupt["visits"] += 1
                    if corrupt_ranks is not None:
                        corrupt_ranks[row[0]] = _safe_text(
                            f"visits: {type(exc).__name__}: {exc}")
            self._attach_children(by_rank, Counter(), corrupt, where,
                                  tuple(chunk), corrupt_ranks=corrupt_ranks)
        return by_rank

    def _quarantine_rank(self, bad: CorruptRow) -> None:
        """Move one corrupt rank out of the live tables (caller commits)."""
        conn = self._conn
        payload: dict[str, list] = {}
        for table in ("visits", "frames", "calls", "scripts", "prompts"):
            try:
                rows = conn.execute(
                    f"SELECT * FROM {table} WHERE rank = ?",  # noqa: S608
                    (bad.rank,)).fetchall()
                payload[table] = [list(row) for row in rows]
            except Exception:  # pragma: no cover - row too broken to read
                payload[table] = []
        try:
            payload_json = json.dumps(payload, ensure_ascii=True,
                                      default=repr)
        except Exception:  # pragma: no cover - unserializable wreckage
            payload_json = None
        conn.execute(
            "INSERT INTO quarantine (rank, reason, detail, payload) "
            "VALUES (?,?,?,?)",
            (bad.rank, bad.reason, _safe_text(bad.detail), payload_json))
        for table in ("visits", "frames", "calls", "scripts", "prompts"):
            conn.execute(f"DELETE FROM {table} WHERE rank = ?",  # noqa: S608
                         (bad.rank,))

    def quarantine_rank(self, rank: int, *, reason: str,
                        detail: str = "") -> None:
        """Quarantine a rank directly (no corrupt row required).

        The crawl supervisor's poison-visit path: a rank whose visit
        repeatedly kills or hangs worker processes is recorded here —
        same table and semantics as :meth:`verify`'s repair quarantine —
        and any live rows it may have are dropped, so the dataset equals
        a crawl that never attempted the rank.  A later
        :meth:`save_visit` of the rank supersedes the entry, like any
        other quarantined rank.  Thread-safe.
        """
        with self._lock:
            conn = self._conn
            conn.execute("DELETE FROM quarantine WHERE rank = ?", (rank,))
            conn.execute(
                "INSERT INTO quarantine (rank, reason, detail, payload) "
                "VALUES (?,?,?,?)",
                (rank, reason, _safe_text(detail), None))
            for table in ("visits", "frames", "calls", "scripts",
                          "prompts"):
                conn.execute(
                    f"DELETE FROM {table} WHERE rank = ?",  # noqa: S608
                    (rank,))
            conn.commit()
        if _metrics.COUNTING:
            _metrics.REGISTRY.counter("store.quarantined_rows").inc()

    def quarantine_rows(self) -> list[tuple[int, str, str]]:
        """``(rank, reason, detail)`` for every quarantined row."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT rank, reason, detail FROM quarantine ORDER BY rank"
            ).fetchall()
        return [(int(rank), reason, detail) for rank, reason, detail in rows]


def merge_stores(target: "str | Path", shards: "Iterable[str | Path]", *,
                 chunk_size: int = 256) -> int:
    """Merge store files into ``target``, in the order given.

    Stores crawled over disjoint rank ranges (on separate machines, say)
    merge deterministically regardless of the order they finished in:
    every reader walks the merged store ``ORDER BY rank``.  A rank present
    in several stores keeps the copy of the last store given.  The target
    is flushed (WAL checkpointed) after the merge.  Returns the total
    number of visits merged.
    """
    total = 0
    with CrawlStore(target) as store:
        for shard_path in shards:
            with CrawlStore(shard_path) as shard:
                total += store.merge_from(shard, chunk_size=chunk_size)
        store.flush()
    return total


class JsonlImportError(ValueError):
    """A JSONL import failed: a malformed line (in ``on_error="raise"``
    mode) or a count-trailer mismatch indicating truncation."""


#: Key of the final export line carrying the expected record count.
_TRAILER_KEY = "__repro_jsonl_trailer__"

#: Valid values for the importers' ``on_error`` argument.
JSONL_ON_ERROR = ("raise", "skip")


@dataclass
class JsonlStats:
    """Out-parameter for :func:`import_jsonl` / :func:`iter_jsonl`:
    what happened during one import pass."""

    imported: int = 0
    skipped: int = 0
    #: Count declared by the export trailer, or ``None`` for legacy
    #: exports written before the trailer existed.
    trailer_count: "int | None" = None


def export_jsonl(visits: Iterable[SiteVisit], path: "str | Path") -> int:
    """Export visits as JSON lines; returns the number written.

    The export carries the *full* record — frames, calls, scripts with
    sources, prompts, durations, retry and error metadata — so
    :func:`import_jsonl` round-trips exactly what the SQLite store holds.

    The file is written to a ``.tmp`` sibling and atomically renamed into
    place (the same pattern the measurement cache uses), so a crash
    mid-export never leaves a half-written file under the real name.  The
    last line is a count trailer the importer verifies, so silent
    truncation *after* a completed export is also detectable.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    count = 0
    with open(tmp, "w", encoding="utf-8") as handle:
        for visit in visits:
            handle.write(json.dumps(_visit_to_dict(visit)) + "\n")
            count += 1
        handle.write(json.dumps({_TRAILER_KEY: {"count": count}}) + "\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    return count


def import_jsonl(path: "str | Path", *, on_error: str = "raise",
                 stats: "JsonlStats | None" = None) -> list[SiteVisit]:
    """Inverse of :func:`export_jsonl`: rebuild the visit records.

    Args:
        path: The JSONL file.
        on_error: ``"raise"`` (default) raises :class:`JsonlImportError`
            on the first malformed line or on a count-trailer mismatch;
            ``"skip"`` drops malformed lines with a counted warning and
            keeps going — the CLI import path uses this.
        stats: Optional :class:`JsonlStats` filled in with
            imported/skipped counts for caller-side reporting.
    """
    return list(iter_jsonl(path, on_error=on_error, stats=stats))


def iter_jsonl(path: "str | Path", *, on_error: str = "raise",
               stats: "JsonlStats | None" = None) -> Iterator[SiteVisit]:
    """Streaming variant of :func:`import_jsonl` for very large exports."""
    if on_error not in JSONL_ON_ERROR:
        raise ValueError(
            f"on_error must be one of {JSONL_ON_ERROR}, got {on_error!r}")
    if stats is None:
        stats = JsonlStats()
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
                if isinstance(data, dict) and _TRAILER_KEY in data:
                    stats.trailer_count = int(data[_TRAILER_KEY]["count"])
                    continue
                visit = _visit_from_dict(data)
            except Exception as exc:
                if on_error == "raise":
                    raise JsonlImportError(
                        f"{path}:{lineno}: malformed record "
                        f"({type(exc).__name__}: {_safe_text(str(exc))})"
                    ) from exc
                stats.skipped += 1
                continue
            stats.imported += 1
            yield visit
    if stats.skipped:
        if _metrics.COUNTING:
            _metrics.REGISTRY.counter("store.jsonl_skipped").inc(
                stats.skipped)
        logger.warning("skipped %d malformed JSONL line(s) in %s",
                       stats.skipped, path)
    if (stats.trailer_count is not None
            and stats.trailer_count != stats.imported + stats.skipped):
        message = (f"{path}: trailer declares {stats.trailer_count} "
                   f"records but {stats.imported + stats.skipped} were "
                   f"read — truncated export?")
        if on_error == "raise":
            raise JsonlImportError(message)
        logger.warning("%s", message)


def _visit_to_dict(visit: SiteVisit) -> dict:
    return {
        "rank": visit.rank,
        "requested_url": visit.requested_url,
        "final_url": visit.final_url,
        "success": visit.success,
        "failure": visit.failure,
        "top_level_document_count": visit.top_level_document_count,
        "skipped_lazy_iframes": visit.skipped_lazy_iframes,
        "iframe_load_failures": visit.iframe_load_failures,
        "duration_seconds": visit.duration_seconds,
        "retries": visit.retries,
        "error_detail": visit.error_detail,
        "frames": [
            {"frame_id": f.frame_id, "url": f.url, "origin": f.origin,
             "site": f.site, "parent_id": f.parent_id, "depth": f.depth,
             "is_local": f.is_local, "headers": f.headers,
             "iframe_attributes": f.iframe_attributes}
            for f in visit.frames],
        "calls": [
            {"frame_id": c.frame_id, "api": c.api, "kind": c.kind,
             "permissions": list(c.permissions), "args": list(c.args),
             "script_url": c.script_url, "allowed": c.allowed}
            for c in visit.calls],
        "scripts": [
            {"frame_id": s.frame_id, "url": s.url, "source": s.source}
            for s in visit.scripts],
        "prompts": [
            {"permission": p.permission,
             "requesting_frame_id": p.requesting_frame_id,
             "display_site": p.display_site, "text": p.text}
            for p in visit.prompts],
    }


def _visit_from_dict(data: dict) -> SiteVisit:
    visit = SiteVisit(
        rank=data["rank"],
        requested_url=data["requested_url"],
        final_url=data["final_url"],
        success=data["success"],
        failure=data.get("failure"),
        top_level_document_count=data.get("top_level_document_count", 1),
        skipped_lazy_iframes=data.get("skipped_lazy_iframes", 0),
        iframe_load_failures=data.get("iframe_load_failures", 0),
        duration_seconds=data.get("duration_seconds", 0.0),
        retries=data.get("retries", 0),
        error_detail=data.get("error_detail"),
    )
    for f in data.get("frames", ()):
        visit.frames.append(FrameRecord(
            frame_id=f["frame_id"], url=f["url"], origin=f["origin"],
            site=f["site"], parent_id=f["parent_id"], depth=f["depth"],
            is_local=f["is_local"], headers=f["headers"],
            iframe_attributes=f["iframe_attributes"]))
    for c in data.get("calls", ()):
        visit.calls.append(CallRecord(
            frame_id=c["frame_id"], api=c["api"], kind=c["kind"],
            permissions=tuple(c["permissions"]), args=tuple(c["args"]),
            script_url=c["script_url"], allowed=c["allowed"]))
    for s in data.get("scripts", ()):
        visit.scripts.append(ScriptSourceRecord(
            frame_id=s["frame_id"], url=s["url"], source=s["source"]))
    for p in data.get("prompts", ()):
        visit.prompts.append(PromptRecord(
            permission=p["permission"],
            requesting_frame_id=p["requesting_frame_id"],
            display_site=p["display_site"], text=p["text"]))
    return visit
