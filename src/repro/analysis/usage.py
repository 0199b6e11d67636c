"""Permission usage analysis (paper Section 4.1, Tables 4–6).

Three views over the crawl records:

* **Invocations (dynamic)** — which permissions were invoked per execution
  context, split by first/third party (Table 4).  The "General Permission
  APIs" pseudo-row aggregates calls to the Permissions / Permissions
  Policy / Feature Policy specification APIs.
* **Status checks (dynamic)** — which permissions had their state checked,
  and the "All Permissions" row for wholesale allowed-feature retrievals
  (Table 5).
* **Static detections** — string matching of permission API patterns in
  collected script sources (Table 6).

Counting follows the paper exactly: only the first occurrence of each
permission per frame counts ("this ensures that outliers … do not
artificially inflate the results"), context counts are frames, website
counts are site visits, and percentages are relative to top-level
documents.

The per-frame dedup tables and static matches are precomputed by
:class:`~repro.analysis.index.DatasetIndex`; this class only aggregates
them.  ``GENERAL_ROW``, ``ALL_PERMISSIONS_ROW`` and
:func:`~repro.analysis.index.static_matches` live in that module now and
are re-exported here for backwards compatibility.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, fields
from typing import Iterable, Union

from repro.analysis.index import (
    ALL_PERMISSIONS_ROW,
    GENERAL_ROW,
    DatasetIndex,
    VisitIndex,
    as_index,
    static_matches,
)
from repro.analysis.parties import Party
from repro.crawler.records import SiteVisit
from repro.registry.features import PermissionRegistry

__all__ = [
    "ALL_PERMISSIONS_ROW",
    "CheckStats",
    "ContextStats",
    "GENERAL_ROW",
    "StaticStats",
    "UsageAnalysis",
    "static_matches",
]


@dataclass
class ContextStats:
    """Per-permission context counts for Table 4."""

    permission: str
    top_contexts: int = 0
    top_first_party: int = 0
    top_third_party: int = 0
    embedded_contexts: int = 0
    embedded_first_party: int = 0
    embedded_third_party: int = 0

    @property
    def total_contexts(self) -> int:
        return self.top_contexts + self.embedded_contexts

    def top_party_shares(self) -> tuple[float, float]:
        if not self.top_contexts:
            return 0.0, 0.0
        return (self.top_first_party / self.top_contexts,
                self.top_third_party / self.top_contexts)

    def embedded_party_shares(self) -> tuple[float, float]:
        if not self.embedded_contexts:
            return 0.0, 0.0
        return (self.embedded_first_party / self.embedded_contexts,
                self.embedded_third_party / self.embedded_contexts)


@dataclass
class CheckStats:
    """Per-permission website counts for Table 5."""

    permission: str
    websites: int = 0
    top_contexts: int = 0
    embedded_contexts: int = 0

    @property
    def embedded_share(self) -> float:
        total = self.top_contexts + self.embedded_contexts
        return self.embedded_contexts / total if total else 0.0


@dataclass
class StaticStats:
    """Per-permission website counts for Table 6."""

    permission: str
    websites: int = 0
    top_contexts: int = 0
    embedded_contexts: int = 0

    @property
    def embedded_share(self) -> float:
        total = self.top_contexts + self.embedded_contexts
        return self.embedded_contexts / total if total else 0.0


class UsageAnalysis:
    """Aggregates usage across a crawl (see module docstring)."""

    def __init__(self,
                 visits: "Union[DatasetIndex, Iterable[SiteVisit]]",
                 registry: PermissionRegistry | None = None) -> None:
        self._index = as_index(visits, registry)
        self._registry = self._index.registry
        self.invocation_stats: dict[str, ContextStats] = {}
        self.check_stats: dict[str, CheckStats] = {}
        self.static_stats: dict[str, StaticStats] = {}

        self.sites_any_invocation = 0
        self.sites_invocation_top = 0
        self.sites_invocation_embedded = 0
        self.sites_any_static = 0
        self.sites_static_top_only = 0
        self.sites_static_embedded_only = 0
        self.sites_any_functionality = 0
        self.sites_any_status_check = 0
        self.sites_check_top = 0
        self.sites_check_embedded = 0
        self.sites_feature_policy_api = 0
        self.total_top_invoking_contexts = 0
        self.total_embedded_invoking_contexts = 0
        self._top_invoking_first = 0
        self._top_invoking_third = 0
        self._embedded_invoking_first = 0
        self._embedded_invoking_third = 0
        self._permissions_checked_per_top_doc: list[int] = []

        # A streaming index feeds _aggregate_visit per visit instead
        # (repro.analysis.summary.summarize_streaming drives the pass).
        if not self._index.streaming:
            self._run()

    @property
    def _visits(self) -> list:
        return self._index.visits

    @property
    def top_level_documents(self) -> int:
        return self._index.top_level_documents

    @property
    def website_count(self) -> int:
        """Denominator for "website" shares.  The paper reports percentages
        relative to top-level documents; redirect hops of one visit share
        identical behaviour, so per-visit counting over visits yields the
        same ratios without double-counting machinery."""
        return self._index.website_count

    # -- aggregation ---------------------------------------------------------------

    def _stats_for(self, table: dict, cls, permission: str):
        if permission not in table:
            table[permission] = cls(permission)
        return table[permission]

    def _run(self) -> None:
        for vi in self._index.visit_indexes:
            self._aggregate_visit(vi)

    def _aggregate_visit(self, vi: VisitIndex) -> None:
        frames = vi.frames_by_id

        # --- dynamic: first occurrence of each permission per frame ----------
        # (frame, row-permission) -> parties, precomputed by the index.
        invoked = vi.invoked
        checked = vi.checked
        any_general_deprecated = vi.any_general_deprecated

        top_invoked = False
        embedded_invoked = False
        seen_frames_top: dict[int, set[Party]] = defaultdict(set)
        seen_frames_embedded: dict[int, set[Party]] = defaultdict(set)
        for (frame_id, permission), parties in invoked.items():
            frame = frames[frame_id]
            stats = self._stats_for(self.invocation_stats, ContextStats,
                                    permission)
            if frame.is_top_level:
                top_invoked = True
                stats.top_contexts += 1
                if Party.FIRST in parties:
                    stats.top_first_party += 1
                if Party.THIRD in parties:
                    stats.top_third_party += 1
                seen_frames_top[frame_id] |= parties
            else:
                embedded_invoked = True
                stats.embedded_contexts += 1
                if Party.FIRST in parties:
                    stats.embedded_first_party += 1
                if Party.THIRD in parties:
                    stats.embedded_third_party += 1
                seen_frames_embedded[frame_id] |= parties
        self.total_top_invoking_contexts += len(seen_frames_top)
        self.total_embedded_invoking_contexts += len(seen_frames_embedded)
        self._top_invoking_first += sum(
            1 for parties in seen_frames_top.values() if Party.FIRST in parties)
        self._top_invoking_third += sum(
            1 for parties in seen_frames_top.values() if Party.THIRD in parties)
        self._embedded_invoking_first += sum(
            1 for parties in seen_frames_embedded.values()
            if Party.FIRST in parties)
        self._embedded_invoking_third += sum(
            1 for parties in seen_frames_embedded.values()
            if Party.THIRD in parties)

        if top_invoked or embedded_invoked:
            self.sites_any_invocation += 1
        if top_invoked:
            self.sites_invocation_top += 1
        if embedded_invoked:
            self.sites_invocation_embedded += 1
        if any_general_deprecated:
            self.sites_feature_policy_api += 1

        # --- status checks (Table 5) ------------------------------------------
        site_checked: set[str] = set()
        check_top = False
        check_embedded = False
        specific_checked_top: set[str] = set()
        for (frame_id, permission), _parties in checked.items():
            frame = frames[frame_id]
            stats = self._stats_for(self.check_stats, CheckStats, permission)
            if frame.is_top_level:
                stats.top_contexts += 1
                check_top = True
                if permission != ALL_PERMISSIONS_ROW:
                    specific_checked_top.add(permission)
            else:
                stats.embedded_contexts += 1
                check_embedded = True
            site_checked.add(permission)
        for permission in site_checked:
            self.check_stats[permission].websites += 1
        if site_checked:
            self.sites_any_status_check += 1
        if check_top:
            self.sites_check_top += 1
        if check_embedded:
            self.sites_check_embedded += 1
        if specific_checked_top:
            self._permissions_checked_per_top_doc.append(
                len(specific_checked_top))

        # --- static (Table 6) ----------------------------------------------------
        static_by_frame = vi.static_by_frame
        general_by_frame = vi.general_by_frame

        site_static: set[str] = set()
        static_top = False
        static_embedded = False
        for frame_id, permissions in static_by_frame.items():
            frame = frames[frame_id]
            names = set(permissions)
            if general_by_frame.get(frame_id):
                names.add(GENERAL_ROW)
            for permission in names:
                stats = self._stats_for(self.static_stats, StaticStats,
                                        permission)
                if frame.is_top_level:
                    stats.top_contexts += 1
                    static_top = True
                else:
                    stats.embedded_contexts += 1
                    static_embedded = True
            if frame.is_top_level and permissions:
                static_top = True
            site_static |= names
        for permission in site_static:
            self.static_stats[permission].websites += 1
        if site_static:
            self.sites_any_static += 1
            if static_top and not static_embedded:
                self.sites_static_top_only += 1
            if static_embedded and not static_top:
                self.sites_static_embedded_only += 1
        if site_static or top_invoked or embedded_invoked:
            self.sites_any_functionality += 1

    # -- process-parallel summarize support ------------------------------------
    # A worker aggregates a contiguous rank span through _aggregate_visit,
    # ships the additive state below, and the parent folds the spans back
    # in rank order — so dict insertion order (and therefore every
    # most_common/stable-sort tie-break downstream) matches a serial pass.

    _PARTIAL_INTS = (
        "sites_any_invocation", "sites_invocation_top",
        "sites_invocation_embedded", "sites_any_static",
        "sites_static_top_only", "sites_static_embedded_only",
        "sites_any_functionality", "sites_any_status_check",
        "sites_check_top", "sites_check_embedded",
        "sites_feature_policy_api", "total_top_invoking_contexts",
        "total_embedded_invoking_contexts", "_top_invoking_first",
        "_top_invoking_third", "_embedded_invoking_first",
        "_embedded_invoking_third")

    def _partial_state(self) -> dict:
        """Picklable additive state: everything ``_aggregate_visit``
        writes, nothing derived."""
        return {
            "invocation_stats": self.invocation_stats,
            "check_stats": self.check_stats,
            "static_stats": self.static_stats,
            "ints": {name: getattr(self, name)
                     for name in self._PARTIAL_INTS},
            "permissions_checked": list(
                self._permissions_checked_per_top_doc),
        }

    def _merge_partial(self, state: dict) -> None:
        """Fold one rank span's partial state in (spans in rank order)."""
        for table_name, cls in (("invocation_stats", ContextStats),
                                ("check_stats", CheckStats),
                                ("static_stats", StaticStats)):
            mine = getattr(self, table_name)
            count_fields = [f.name for f in fields(cls)
                            if f.name != "permission"]
            for permission, theirs in state[table_name].items():
                stats = self._stats_for(mine, cls, permission)
                for name in count_fields:
                    setattr(stats, name,
                            getattr(stats, name) + getattr(theirs, name))
        for name, value in state["ints"].items():
            setattr(self, name, getattr(self, name) + value)
        self._permissions_checked_per_top_doc.extend(
            state["permissions_checked"])

    # -- shares (percentages relative to top-level documents) ----------------------

    def _share(self, count: int) -> float:
        # Paper convention (Section 4): website counts divided by the
        # top-level *document* total, redirect hops included.
        return (count / self.top_level_documents
                if self.top_level_documents else 0.0)

    @property
    def share_any_invocation(self) -> float:
        return self._share(self.sites_any_invocation)

    @property
    def share_invocation_top(self) -> float:
        return self._share(self.sites_invocation_top)

    @property
    def share_invocation_embedded(self) -> float:
        return self._share(self.sites_invocation_embedded)

    @property
    def share_any_functionality(self) -> float:
        return self._share(self.sites_any_functionality)

    @property
    def share_any_static(self) -> float:
        return self._share(self.sites_any_static)

    @property
    def top_third_party_share(self) -> float:
        """Share of top-level invoking contexts with third-party calls
        (the paper's 98.32 %)."""
        if not self.total_top_invoking_contexts:
            return 0.0
        return self._top_invoking_third / self.total_top_invoking_contexts

    @property
    def embedded_first_party_share(self) -> float:
        """Share of embedded invoking contexts with first-party calls
        (the paper's 74.86 %)."""
        if not self.total_embedded_invoking_contexts:
            return 0.0
        return (self._embedded_invoking_first
                / self.total_embedded_invoking_contexts)

    @property
    def mean_permissions_checked(self) -> float:
        if not self._permissions_checked_per_top_doc:
            return 0.0
        return (sum(self._permissions_checked_per_top_doc)
                / len(self._permissions_checked_per_top_doc))

    @property
    def max_permissions_checked(self) -> int:
        return max(self._permissions_checked_per_top_doc, default=0)

    # -- tables ----------------------------------------------------------------------

    def invocation_table(self, top_n: int = 10) -> list[ContextStats]:
        """Table 4: permissions ranked by total invoking contexts."""
        rows = sorted(self.invocation_stats.values(),
                      key=lambda s: s.total_contexts, reverse=True)
        return rows[:top_n]

    def status_check_table(self, top_n: int = 10) -> list[CheckStats]:
        """Table 5: checked permissions ranked by websites."""
        rows = sorted(self.check_stats.values(),
                      key=lambda s: s.websites, reverse=True)
        return rows[:top_n]

    def static_table(self, top_n: int = 10) -> list[StaticStats]:
        """Table 6: statically detected permissions ranked by websites,
        excluding the general-API pseudo-row (the paper ranks concrete
        permissions here).  Ties rank by name: the stats are created in
        set order, which the per-process string hash salt decides."""
        rows = sorted(
            (s for s in self.static_stats.values()
             if s.permission != GENERAL_ROW),
            key=lambda s: (-s.websites, s.permission))
        return rows[:top_n]

    # -- per-site views used by the over-permission detector ------------------------

    def frame_activity(self, visit: SiteVisit) -> dict[int, frozenset[str]]:
        """All permission-related activity per frame of one visit: invoked,
        checked, or statically present (the Section 5 activity notion)."""
        activity: dict[int, set[str]] = defaultdict(set)
        for call in visit.calls:
            for permission in call.permissions:
                activity[call.frame_id].add(permission)
        for script in visit.scripts:
            permissions, _general = self._index.static(script.source)
            activity[script.frame_id] |= permissions
        return {frame_id: frozenset(perms)
                for frame_id, perms in activity.items()}
