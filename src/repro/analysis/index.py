"""Shared one-pass dataset index for the analysis pipeline.

Before this module existed every analysis made its own full pass over the
visits and re-did the same work: re-parsing each frame's ``allow``
attribute (delegation, over-permission, ranks, categories, chains),
re-linting each ``Permissions-Policy`` header (headers, proposals,
chains), re-matching each script source against the permission registry
(usage, over-permission), and re-classifying each call's party.  On a real
crawl those raw strings are massively duplicated — thousands of frames
share a handful of distinct attribute and header templates — so the
pipeline spent most of its time recomputing known answers.

:class:`DatasetIndex` walks the dataset **once** and precomputes, per
successful visit, a :class:`VisitIndex` with everything the analyses
consume:

* frame lookups (``frames_by_id``, the top-level frame, the directly
  embedded ``depth == 1`` frames),
* parsed ``allow`` attributes per frame (via the interned
  :func:`~repro.policy.allow_attr.parse_allow_attribute`),
* the first-occurrence-per-frame invocation/check dedup tables that
  Table 4/5 counting is built on,
* static script matches and general-API hits per frame.

The registry-dependent helpers (header linting, static matching) are
interned (:func:`~repro.policy.memo.interned`) like the parsers beneath
them, and origin and party lookups reach the interned URL and site
parsers of :mod:`repro.policy.origin`; the index keeps no memo table of
its own, so every cache is bounded and warm across indexes in one
process.  Parse errors are captured once: a header that fails to parse is
linted once and every consumer sees the same ``header_dropped`` report.

The per-analysis aggregation loops are deliberately kept structurally
identical to the pre-index implementations (preserved verbatim in
:mod:`repro.analysis.legacy`), so every derived count and floating-point
share is bit-identical — ``tests/test_analysis_index.py`` enforces this
differentially.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Union

from repro.analysis.parties import Party, script_party
from repro.browser.api import ApiKind
from repro.crawler.records import FrameRecord, SiteVisit
from repro.obs.tracing import TRACER
from repro.policy.allow_attr import AllowAttribute, parse_allow_attribute
from repro.policy.linter import HeaderLinter, LintReport
from repro.policy.memo import interned
from repro.policy.origin import Origin, OriginParseError
from repro.registry.features import (
    DEFAULT_REGISTRY,
    GENERAL_PERMISSION_APIS,
    PermissionRegistry,
)

#: Pseudo-permission rows the paper's tables use.
GENERAL_ROW = "General Permission APIs"
ALL_PERMISSIONS_ROW = "All Permissions"

_GENERAL_KIND = ApiKind.GENERAL.value
_STATUS_CHECK_KIND = ApiKind.STATUS_CHECK.value


def _add(table: dict[tuple[int, str], set], key: tuple[int, str],
         party: Party) -> None:
    entry = table.get(key)
    if entry is None:
        table[key] = entry = set()
    entry.add(party)


@interned
def static_matches(source: str, registry: PermissionRegistry
                   ) -> tuple[frozenset[str], bool]:
    """Permissions whose API patterns occur in ``source``, plus whether any
    general permission API occurs.  This is the paper's plain
    string-matching static analysis — deliberately blind to obfuscation."""
    permissions = frozenset(p.name for p in registry.match_api(source))
    general = any(api in source for api in GENERAL_PERMISSION_APIS)
    return permissions, general


@interned
def lint_header(raw: str, registry: PermissionRegistry) -> LintReport:
    """Lint a ``Permissions-Policy`` header value against ``registry``.

    Never raises: parse failures are captured in the report
    (``header_dropped``), so a bad header is linted once."""
    return HeaderLinter(registry).lint(raw)


@dataclass
class VisitIndex:
    """Precomputed per-visit structures shared by every analysis.

    All fields are built in one pass over the visit's frames, calls and
    scripts and must be treated as read-only afterwards.
    """

    visit: SiteVisit
    frames_by_id: dict[int, FrameRecord]
    #: First top-level frame, ``None`` when the visit has none.
    top_frame: FrameRecord | None
    #: Directly inserted embedded documents (``depth == 1``), in order.
    direct_embedded: tuple[FrameRecord, ...]
    #: frame id -> parsed ``allow`` attribute, for frames whose raw
    #: attribute is non-empty (parse results are interned, so entries for
    #: identical raw strings are the same object).
    allow_by_frame: dict[int, AllowAttribute]
    #: (frame id, table row) -> parties observed, first occurrence per
    #: frame (the paper's dedup for Table 4).  Insertion-ordered.
    invoked: dict[tuple[int, str], set[Party]] = field(default_factory=dict)
    #: Same dedup for status checks (Table 5).
    checked: dict[tuple[int, str], set[Party]] = field(default_factory=dict)
    #: Whether any call used the deprecated ``featurePolicy`` API.
    any_general_deprecated: bool = False
    #: frame id -> statically matched permissions over all of the frame's
    #: scripts (Table 6).
    static_by_frame: dict[int, frozenset[str]] = field(default_factory=dict)
    #: frame id -> whether any script matched a general permission API.
    general_by_frame: dict[int, bool] = field(default_factory=dict)

    @property
    def top(self) -> FrameRecord:
        """The top-level frame; raises like ``SiteVisit.top_frame``."""
        if self.top_frame is None:
            raise ValueError("visit has no top-level frame")
        return self.top_frame


class DatasetIndex:
    """One-pass index over a crawl's successful visits.

    Args:
        source: A :class:`~repro.crawler.pool.CrawlDataset` (anything with a
            ``successful()`` method) or a plain iterable of
            :class:`~repro.crawler.records.SiteVisit`.
        registry: Permission registry the interned helpers use; defaults to
            :data:`~repro.registry.features.DEFAULT_REGISTRY`.
    """

    #: Whether this index streams visits instead of materializing them.
    #: Analyses consult this to decide whether to run their aggregation
    #: loop at construction time (see :class:`IncrementalIndex`).
    streaming = False

    def __init__(self, source: "Union[Iterable[SiteVisit], object]", *,
                 registry: PermissionRegistry | None = None) -> None:
        self.registry = registry if registry is not None else DEFAULT_REGISTRY

        if hasattr(source, "successful"):
            visits = list(source.successful())
        else:
            visits = [visit for visit in source if visit.success]
        self.visits: list[SiteVisit] = visits
        self.top_level_documents = sum(v.top_level_document_count
                                       for v in visits)
        self.website_count = len(visits)
        with TRACER.span("analysis.index", visits=len(visits)):
            self.visit_indexes: list[VisitIndex] = [
                self._index_visit(visit) for visit in visits]

    # -- interned helpers -----------------------------------------------------------

    def lint(self, raw: str) -> LintReport:
        """:func:`lint_header` against this index's registry."""
        return lint_header(raw, self.registry)

    def origin(self, url: str) -> Origin | None:
        """Parse a URL's origin; ``None`` for unparseable URLs."""
        try:
            return Origin.parse(url)
        except OriginParseError:
            return None

    def static(self, source: str) -> tuple[frozenset[str], bool]:
        """:func:`static_matches` against this index's registry."""
        return static_matches(source, self.registry)

    # -- the single pass ------------------------------------------------------------

    def _index_visit(self, visit: SiteVisit) -> VisitIndex:
        # One pass over the frames; attribute access is inlined (no
        # FrameRecord property calls) because this is the hottest loop of
        # the whole analysis phase.
        frames_by_id: dict[int, FrameRecord] = {}
        top_frame = None
        direct_embedded: list[FrameRecord] = []
        allow_by_frame: dict[int, AllowAttribute] = {}
        for frame in visit.frames:
            frames_by_id[frame.frame_id] = frame
            if top_frame is None and frame.parent_id is None:
                top_frame = frame
            if frame.depth == 1:
                direct_embedded.append(frame)
            attrs = frame.iframe_attributes
            if attrs:
                raw = attrs.get("allow")
                if raw:
                    allow_by_frame[frame.frame_id] = parse_allow_attribute(raw)

        vi = VisitIndex(
            visit=visit,
            frames_by_id=frames_by_id,
            top_frame=top_frame,
            direct_embedded=tuple(direct_embedded),
            allow_by_frame=allow_by_frame,
        )

        # First occurrence of each permission per frame, exactly as the
        # paper's Table 4/5 counting requires ("this ensures that outliers
        # … do not artificially inflate the results").
        invoked: dict[tuple[int, str], set[Party]] = {}
        checked: dict[tuple[int, str], set[Party]] = {}
        general_kind = _GENERAL_KIND
        status_kind = _STATUS_CHECK_KIND
        for call in visit.calls:
            party = script_party(call.script_url,
                                 frames_by_id[call.frame_id].site)
            if "featurePolicy" in call.api:
                vi.any_general_deprecated = True
            kind = call.kind
            if kind == general_kind:
                _add(invoked, (call.frame_id, GENERAL_ROW), party)
                _add(checked, (call.frame_id, ALL_PERMISSIONS_ROW), party)
            elif kind == status_kind:
                _add(invoked, (call.frame_id, GENERAL_ROW), party)
                for permission in call.permissions:
                    _add(checked, (call.frame_id, permission), party)
            else:
                for permission in call.permissions:
                    _add(invoked, (call.frame_id, permission), party)
        vi.invoked = invoked
        vi.checked = checked

        static_by_frame: dict[int, frozenset[str]] = {}
        general_by_frame: dict[int, bool] = {}
        for script in visit.scripts:
            permissions, general = self.static(script.source)
            previous = static_by_frame.get(script.frame_id, frozenset())
            static_by_frame[script.frame_id] = previous | permissions
            general_by_frame[script.frame_id] = (
                general_by_frame.get(script.frame_id, False) or general)
        vi.static_by_frame = static_by_frame
        vi.general_by_frame = general_by_frame
        return vi


class IncrementalIndex(DatasetIndex):
    """Streaming counterpart of :class:`DatasetIndex` for bounded memory.

    Where :class:`DatasetIndex` materializes every visit and its
    :class:`VisitIndex` up front, this index consumes visits one at a time
    through :meth:`add` and retains only its registry and two running
    totals (the helper memos are the bounded interned ones) — a 100k-site
    store streamed through
    :meth:`~repro.crawler.storage.CrawlStore.iter_visits` never becomes
    resident.  One fold drives it everywhere
    (:class:`repro.analysis.summary._StreamingFold`, used by
    :func:`~repro.analysis.summary.summarize_streaming`, its worker spans
    and the drift profiles): each :meth:`add` result is handed to every
    analysis's ``_aggregate_visit`` before the next visit is read.

    Analyses built on a streaming index skip their constructor-time
    aggregation loop (:attr:`DatasetIndex.streaming` is their signal) and
    read ``top_level_documents`` / ``website_count`` from the index at
    property-access time, i.e. after the stream has drained.
    """

    streaming = True

    def __init__(self, *, registry: PermissionRegistry | None = None) -> None:
        self.registry = registry if registry is not None else DEFAULT_REGISTRY
        self.top_level_documents = 0
        self.website_count = 0

    def add(self, visit: SiteVisit) -> "VisitIndex | None":
        """Index one visit; returns its :class:`VisitIndex`, or ``None``
        for failed visits (which analyses never see, matching the
        ``successful()`` filter of the materialized path)."""
        if not visit.success:
            return None
        self.website_count += 1
        self.top_level_documents += visit.top_level_document_count
        return self._index_visit(visit)

    def merge_partial(self, website_count: int,
                      top_level_documents: int) -> None:
        """Fold another span's running totals in — the process-parallel
        summarize aggregates disjoint rank spans on worker-local indexes
        and merges only these two counters (the index holds no memo)."""
        self.website_count += website_count
        self.top_level_documents += top_level_documents

    @property
    def visits(self) -> list[SiteVisit]:
        raise TypeError(
            "IncrementalIndex does not retain visits — stream them again "
            "from the store (CrawlStore.iter_visits)")

    @property
    def visit_indexes(self) -> list[VisitIndex]:
        raise TypeError(
            "IncrementalIndex does not retain visit indexes — use add() "
            "and aggregate per visit")


def as_index(source: "Union[DatasetIndex, Iterable[SiteVisit], object]",
             registry: PermissionRegistry | None = None) -> DatasetIndex:
    """Coerce an analysis constructor's first argument into a shared index.

    An existing :class:`DatasetIndex` is passed through unchanged when its
    registry is compatible (no registry requested, or the same object);
    anything else — a dataset or a plain visit iterable — gets indexed.
    """
    if isinstance(source, DatasetIndex):
        if registry is None or registry is source.registry:
            return source
        return DatasetIndex(source.visits, registry=registry)
    return DatasetIndex(source, registry=registry)
