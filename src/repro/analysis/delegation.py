"""Permission delegation analysis (paper Section 4.2, Tables 3, 7, 8).

Consumes frame records: which sites are embedded where (Table 3), which are
embedded *with delegated permissions* (Table 7), which permissions get
delegated how often (Table 8), and how the delegation directives are
written (the Section 4.2.2 default-src/star/none distribution).

Like the paper, only directly inserted embedded documents count
(``depth == 1``), and "external" means loaded over the network from a site
different from the top level.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Iterable, Union

from repro.analysis.index import DatasetIndex, VisitIndex, as_index
from repro.crawler.records import SiteVisit
from repro.policy.allow_attr import DelegationDirectiveKind


@dataclass(frozen=True)
class EmbeddedSiteRow:
    """One row of Table 3 / Table 7."""

    site: str
    websites: int


@dataclass(frozen=True)
class DelegatedPermissionRow:
    """One row of Table 8."""

    permission: str
    delegations: int
    websites: int


class DelegationAnalysis:
    """Aggregates embedding and delegation across a crawl."""

    def __init__(self,
                 visits: "Union[DatasetIndex, Iterable[SiteVisit]]") -> None:
        self._index = as_index(visits)

        #: site -> number of websites embedding it at least once (Table 3)
        self.embedded_site_websites: Counter[str] = Counter()
        #: site -> number of websites embedding it with delegation (Table 7)
        self.delegated_site_websites: Counter[str] = Counter()
        #: site -> (occurrences, occurrences with delegation)
        self.site_occurrences: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        #: permission -> [delegation entries, websites] (Table 8)
        self._permission_delegations: Counter[str] = Counter()
        self._permission_websites: Counter[str] = Counter()
        self.directive_kinds: Counter[DelegationDirectiveKind] = Counter()

        self.sites_delegating = 0
        self.sites_delegating_external = 0
        self.sites_delegating_third_party = 0
        self.sites_with_external_embeds = 0

        # A streaming index feeds _aggregate_visit per visit instead.
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
        return self._index.website_count

    # -- aggregation -----------------------------------------------------------------

    def _run(self) -> None:
        for vi in self._index.visit_indexes:
            self._aggregate_visit(vi)

    def _aggregate_visit(self, vi: VisitIndex) -> None:
        top_site = vi.top.site
        seen_sites: set[str] = set()
        seen_delegated_sites: set[str] = set()
        seen_permissions: set[str] = set()
        delegates_any = False
        delegates_external = False
        delegates_third_party = False

        for frame in vi.direct_embedded:
            is_external = not frame.is_local and bool(frame.site)
            is_cross_site = is_external and frame.site != top_site
            if is_cross_site:
                seen_sites.add(frame.site)
                self.site_occurrences[frame.site][0] += 1

            attribute = vi.allow_by_frame.get(frame.frame_id)
            if attribute is None:
                continue
            delegated = attribute.delegated_features
            for entry in attribute.entries.values():
                self.directive_kinds[entry.kind] += 1
            if not delegated:
                continue
            delegates_any = True
            if is_external and frame.site != top_site:
                delegates_third_party = True
            if is_cross_site:
                delegates_external = True
                seen_delegated_sites.add(frame.site)
                self.site_occurrences[frame.site][1] += 1
                for permission in delegated:
                    self._permission_delegations[permission] += 1
                    seen_permissions.add(permission)

        for site in seen_sites:
            self.embedded_site_websites[site] += 1
        for site in seen_delegated_sites:
            self.delegated_site_websites[site] += 1
        for permission in seen_permissions:
            self._permission_websites[permission] += 1
        if seen_sites:
            self.sites_with_external_embeds += 1
        if delegates_any:
            self.sites_delegating += 1
        if delegates_external:
            self.sites_delegating_external += 1
        if delegates_third_party:
            self.sites_delegating_third_party += 1

    # -- process-parallel summarize support --------------------------------------

    _PARTIAL_INTS = ("sites_delegating", "sites_delegating_external",
                     "sites_delegating_third_party",
                     "sites_with_external_embeds")

    def _partial_state(self) -> dict:
        """Picklable additive state for one aggregated rank span.  Plain
        dicts, not the live defaultdicts: ``site_occurrences``' lambda
        default factory does not pickle."""
        return {
            "embedded_site_websites": dict(self.embedded_site_websites),
            "delegated_site_websites": dict(self.delegated_site_websites),
            "site_occurrences": {site: list(pair) for site, pair
                                 in self.site_occurrences.items()},
            "permission_delegations": dict(self._permission_delegations),
            "permission_websites": dict(self._permission_websites),
            "directive_kinds": dict(self.directive_kinds),
            "ints": {name: getattr(self, name)
                     for name in self._PARTIAL_INTS},
        }

    def _merge_partial(self, state: dict) -> None:
        """Fold one rank span's partial in (spans in rank order, so
        Counter insertion order — and most_common tie-breaks — match a
        serial pass)."""
        for site, count in state["embedded_site_websites"].items():
            self.embedded_site_websites[site] += count
        for site, count in state["delegated_site_websites"].items():
            self.delegated_site_websites[site] += count
        for site, (occurrences, delegated) in \
                state["site_occurrences"].items():
            pair = self.site_occurrences[site]
            pair[0] += occurrences
            pair[1] += delegated
        for permission, count in state["permission_delegations"].items():
            self._permission_delegations[permission] += count
        for permission, count in state["permission_websites"].items():
            self._permission_websites[permission] += count
        for kind, count in state["directive_kinds"].items():
            self.directive_kinds[kind] += count
        for name, value in state["ints"].items():
            setattr(self, name, getattr(self, name) + value)

    # -- shares --------------------------------------------------------------------------

    def _share(self, count: int) -> float:
        # Paper convention (Section 4): website counts divided by the
        # top-level *document* total, redirect hops included.
        return (count / self.top_level_documents
                if self.top_level_documents else 0.0)

    @property
    def share_sites_delegating(self) -> float:
        """The paper's 12.07 %."""
        return self._share(self.sites_delegating)

    @property
    def share_sites_delegating_external(self) -> float:
        """The paper's 10.8 %."""
        return self._share(self.sites_delegating_external)

    def directive_distribution(self) -> dict[DelegationDirectiveKind, float]:
        """Directive kind shares over all delegation entries (Section 4.2.2:
        82.12 % default-src, 17.17 % star, …)."""
        total = sum(self.directive_kinds.values())
        if not total:
            return {}
        return {kind: count / total
                for kind, count in self.directive_kinds.items()}

    def delegation_rate_for_site(self, site: str) -> float:
        """Share of a widget's iframe occurrences that carry delegation —
        4.95 % for google.com vs 99.69 % for livechatinc.com in the paper."""
        occurrences, delegated = self.site_occurrences.get(site, [0, 0])
        return delegated / occurrences if occurrences else 0.0

    # -- tables ------------------------------------------------------------------------------

    def embedded_site_ranking(self, top_n: int = 10) -> list[EmbeddedSiteRow]:
        """Table 3: top external embedded document sites."""
        return [EmbeddedSiteRow(site, count)
                for site, count in self.embedded_site_websites.most_common(top_n)]

    def delegated_site_ranking(self, top_n: int = 10) -> list[EmbeddedSiteRow]:
        """Table 7: top external embedded documents with delegation."""
        return [EmbeddedSiteRow(site, count)
                for site, count
                in self.delegated_site_websites.most_common(top_n)]

    def delegated_permission_table(self, top_n: int = 10
                                   ) -> list[DelegatedPermissionRow]:
        """Table 8: top delegated permissions, ranked by websites.  Ties
        rank by name: the counts are created in set order, which the
        per-process string hash salt decides."""
        rows = [DelegatedPermissionRow(permission,
                                       self._permission_delegations[permission],
                                       websites)
                for permission, websites in self._permission_websites.items()]
        rows.sort(key=lambda row: (-row.websites, row.permission))
        return rows[:top_n]

    def total_external_delegations(self) -> int:
        return sum(self._permission_delegations.values())

    def sites_present_on_at_least(self, threshold: int) -> int:
        """How many embedded sites appear with delegation on ≥ ``threshold``
        websites (the paper: 34 sites ≥100, 13 sites ≥1000)."""
        return sum(1 for count in self.delegated_site_websites.values()
                   if count >= threshold)
