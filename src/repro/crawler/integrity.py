"""On-disk integrity: per-visit checksums, verification and quarantine.

Forensic crawl pipelines treat their own artifacts as untrusted — disks
corrupt, processes die mid-write, and a million-site run cannot afford to
discover that at analysis time.  This module gives
:class:`~repro.crawler.storage.CrawlStore` the same property:

* every visit saved carries a CRC-32 checksum over the exact values it
  writes to its ``visits``, ``frames``, ``calls``, ``scripts`` and
  ``prompts`` rows (``zlib.crc32``, the same salt-free digest
  :mod:`repro.browser.scripts` uses, so checksums are identical across
  processes and runs);
* :meth:`CrawlStore.verify() <repro.crawler.storage.CrawlStore.verify>`
  rehashes the stored rows as they are read back, with no decoding, and
  decodes only the visits whose hash no longer matches, to report them
  as ``decode-error`` or ``checksum-mismatch``;
* with ``repair=True`` the corrupt rows move into a ``quarantine`` table
  — preserved for forensics, out of the analysed dataset — so
  ``load_dataset`` keeps working with counted warnings instead of
  crashing.

The hashed bytes (schema 4) are the :mod:`marshal` version 2 encoding
of one tuple of row tuples: the visit row without its checksum column,
then the visit's frames, calls, scripts and prompts rows, each table in
insertion order (``ORDER BY rowid``).  Every value carries a type code,
so ``None``, ``'None'``, ``1``, ``'1'``, ``1.0`` and ``b'1'`` all encode
differently, and a bit flip in any column of any table, a lost,
duplicated, moved or reordered child row, or a changed storage type all
surface as a mismatch.  Version 2 is pinned because it has no
back-references (those came with version 3), so the bytes depend only on
the values, never on object identity or interning, hash salt or the
process; unlike ``repr()`` or ``ascii()`` it copies strings without
escaping them, which keeps hashing a small share of save and verify.

Schema 3 stores hashed a sorted-key JSON encoding of the decoded visit
instead (:func:`canonical_visit_bytes`).  Opening one migrates it in
place: each checksummed visit is checked once under that rule, and only
a visit that passes is rehashed under the row rule, so rows that were
already corrupt stay flagged.
"""

from __future__ import annotations

import json
import marshal
import zlib
from dataclasses import dataclass, field
from typing import Iterable

from repro.crawler.records import SiteVisit

#: Stable ``reason`` tags for corrupt rows (reports aggregate on these).
CHECKSUM_MISMATCH = "checksum-mismatch"
DECODE_ERROR = "decode-error"
MISSING_CHECKSUM = "missing-checksum"


def canonical_visit_bytes(visit: SiteVisit) -> bytes:
    """The canonical byte encoding of one decoded visit record.

    Sorted keys + compact separators + ASCII escapes make the encoding
    independent of dict ordering, locale and interpreter defaults; the
    child records ride along in insertion order.  Schema 3 checksummed
    this encoding; it remains the way to compare decoded visits byte for
    byte.
    """
    from repro.crawler.storage import _visit_to_dict
    return json.dumps(_visit_to_dict(visit), sort_keys=True,
                      separators=(",", ":"), ensure_ascii=True
                      ).encode("ascii")


def visit_checksum(rows: Iterable[tuple]) -> int:
    """CRC-32 of one visit's stored rows (unsigned, fits SQLite INTEGER).

    ``rows`` is the visit row without its checksum column followed by
    the visit's frames, calls, scripts and prompts rows, each table in
    insertion order: the values bound on save, the values read back on
    verify.
    """
    return zlib.crc32(marshal.dumps(tuple(rows), 2))


@dataclass(frozen=True)
class CorruptRow:
    """One visit the store could not verify."""

    rank: int
    reason: str
    detail: str = ""


@dataclass
class VerifyReport:
    """Result of one :meth:`CrawlStore.verify` pass.

    ``legacy_rows`` counts visits written before the checksum column
    existed (schema < 3): they cannot be verified but are not treated as
    corrupt — re-saving them (or re-crawling) upgrades them in place.
    """

    path: str
    total_rows: int = 0
    verified_rows: int = 0
    legacy_rows: int = 0
    corrupt: list[CorruptRow] = field(default_factory=list)
    quarantined: int = 0
    #: Rows already sitting in the quarantine table before this pass.
    previously_quarantined: int = 0

    @property
    def ok(self) -> bool:
        """Whether every checksummed row verified (legacy rows tolerated)."""
        return not self.corrupt

    def corrupt_by_reason(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for row in self.corrupt:
            counts[row.reason] = counts.get(row.reason, 0) + 1
        return counts

    def to_json(self) -> dict:
        """JSON-serializable form (the CI quarantine-report artifact)."""
        return {
            "path": self.path,
            "total_rows": self.total_rows,
            "verified_rows": self.verified_rows,
            "legacy_rows": self.legacy_rows,
            "corrupt_rows": len(self.corrupt),
            "corrupt_by_reason": self.corrupt_by_reason(),
            "quarantined": self.quarantined,
            "previously_quarantined": self.previously_quarantined,
            "ok": self.ok,
            "corrupt": [{"rank": row.rank, "reason": row.reason,
                         "detail": row.detail} for row in self.corrupt],
        }

    def render(self) -> str:
        """Human-readable report for ``repro verify-store``."""
        lines = [
            f"store       {self.path}",
            f"rows        {self.total_rows} total, "
            f"{self.verified_rows} verified, {self.legacy_rows} legacy "
            f"(no checksum)",
        ]
        if self.previously_quarantined:
            lines.append(f"quarantine  {self.previously_quarantined} rows "
                         f"already quarantined")
        if self.corrupt:
            reasons = ", ".join(f"{reason}={count}" for reason, count
                                in sorted(self.corrupt_by_reason().items()))
            lines.append(f"corrupt     {len(self.corrupt)} rows ({reasons})")
            for row in self.corrupt[:20]:
                lines.append(f"  rank {row.rank}: {row.reason}"
                             + (f" — {row.detail}" if row.detail else ""))
            if len(self.corrupt) > 20:
                lines.append(f"  ... and {len(self.corrupt) - 20} more")
            if self.quarantined:
                lines.append(f"repaired    {self.quarantined} rows moved "
                             f"to quarantine")
            else:
                lines.append("repaired    nothing (re-run with --repair to "
                             "quarantine)")
        else:
            lines.append("corrupt     0 rows — store verifies clean")
        return "\n".join(lines)
