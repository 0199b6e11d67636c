"""Longitudinal drift: diff stored crawls and fold eras into a timeline.

The paper's Fig. 2 is a *longitudinal* claim — Feature-Policy fades while
Permissions-Policy rises between Kaleli et al.'s 2020 measurement and the
2024 crawl.  :mod:`repro.synthweb.eras` generates era-calibrated webs and
:mod:`repro.crawler.storage` keeps integrity-checked crawls; this module
closes the loop by *comparing* them:

* :func:`diff_stores` — merge-join two stores' rank-ordered
  ``iter_visits()`` streams into per-site **added / removed / changed**
  sets plus before/after :class:`StoreMetrics` (header adoption,
  delegation shares, allow-attribute feature mix, over-permission
  verdicts).  Neither store is ever materialized: each visit is folded
  into a streaming profile and reduced to a small
  :class:`SiteSignature`, so memory is bounded by the *difference*, not
  the crawl size.
* :func:`build_timeline` — fold N era stores into a
  :class:`DriftTimeline`: one streaming profile pass per store and a
  per-metric series with absolute and relative deltas.

Every result type is a frozen dataclass with a field-stable
``to_json()``, so diffs can be persisted and compared across runs.
Rendering (text tables + the zero-dependency HTML dashboard) lives in
:mod:`repro.analysis.drift_report`.

Design notes:

* Sites are keyed on ``(rank, site)``: a rank present in exactly one
  store is added/removed; a rank present in both but pointing at a
  different site counts as one removal plus one addition (the slot
  changed hands, nothing about the old site "changed").
* Profiles run the one streaming fold ``summarize_streaming`` runs
  (:class:`repro.analysis.summary._StreamingFold`: an
  :class:`~repro.analysis.index.IncrementalIndex` feeding each
  analysis's ``_aggregate_visit``), over only the headers, delegation
  and over-permission analyses they read — no usage analysis and no
  dataset tally.  Memory stays bounded, so a 100k-site store diffs in
  the same RSS envelope it crawls in (gated in
  ``benchmarks/bench_perf_drift.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence, Union

from repro._bulk_gc import bulk_gc
from repro.analysis.delegation import DelegationAnalysis
from repro.analysis.headers import HeaderAnalysis
from repro.analysis.overpermission import OverPermissionAnalysis
from repro.analysis.summary import _StreamingFold
from repro.crawler.storage import CrawlStore
from repro.obs import metrics as _metrics
from repro.obs.tracing import TRACER
from repro.policy.allow_attr import DelegationDirectiveKind, parse_allow_attribute

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.crawler.records import SiteVisit
    from repro.registry.permissions import PermissionRegistry

#: Anything the diff/timeline entry points accept as a store.
StoreLike = Union[CrawlStore, str, Path]

#: Scalar :class:`StoreMetrics` fields tracked as drift metrics, in
#: report order.  ``*_share`` fields render as percentages.
DRIFT_METRICS: tuple[str, ...] = (
    "attempted_sites",
    "successful_sites",
    "pp_top_level_share",
    "fp_top_level_share",
    "any_header_top_level_share",
    "both_header_sites",
    "pp_all_docs_share",
    "fp_all_docs_share",
    "share_sites_delegating",
    "share_sites_delegating_external",
    "directive_share_default_src",
    "directive_share_star",
    "overpermission_flagged_widgets",
    "overpermission_affected_websites",
)

#: Signature fields compared to classify a site as "changed" (``rank`` and
#: ``site`` are the join key, so they are excluded by construction).
SIGNATURE_FIELDS: tuple[str, ...] = (
    "success", "failure", "has_pp_header", "has_fp_header",
    "delegated_features", "frames")


# ---------------------------------------------------------------------------
# Per-site signatures.


@dataclass(frozen=True)
class SiteSignature:
    """The drift-relevant fingerprint of one visit.

    Deliberately small: diffing two 100k-site stores keeps only the
    signatures of sites that actually differ, never the visits.
    """

    rank: int
    site: str
    success: bool
    failure: str | None
    has_pp_header: bool
    has_fp_header: bool
    delegated_features: tuple[str, ...]
    frames: int

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "site": self.site,
            "success": self.success,
            "failure": self.failure,
            "has_pp_header": self.has_pp_header,
            "has_fp_header": self.has_fp_header,
            "delegated_features": list(self.delegated_features),
            "frames": self.frames,
        }


def site_signature(visit: "SiteVisit") -> SiteSignature:
    """Build one visit's :class:`SiteSignature`.

    Uses the same primitives as the indexed analyses (lowercased header
    keys, interned :func:`parse_allow_attribute`, depth-1 frames only),
    so a signature computed from a streamed visit is identical to one
    computed from a materialized dataset — asserted field-by-field in
    ``tests/test_drift.py``.
    """
    top = None
    frame_count = 0
    delegated: set[str] = set()
    for frame in visit.frames:
        frame_count += 1
        if top is None and frame.parent_id is None:
            top = frame
        if frame.depth == 1:
            attrs = frame.iframe_attributes
            raw = attrs.get("allow") if attrs else None
            if raw:
                delegated.update(parse_allow_attribute(raw).delegated_features)
    if top is not None:
        site = top.site
        has_pp = top.headers.get("permissions-policy") is not None
        has_fp = top.headers.get("feature-policy") is not None
    else:
        # Failed visits carry no frames; the requested URL still
        # identifies the slot so rank collisions surface as site changes.
        site = visit.requested_url
        has_pp = has_fp = False
    return SiteSignature(
        rank=visit.rank, site=site, success=visit.success,
        failure=visit.failure, has_pp_header=has_pp, has_fp_header=has_fp,
        delegated_features=tuple(sorted(delegated)), frames=frame_count)


@dataclass(frozen=True)
class SiteDelta:
    """One site present in both crawls whose signature changed."""

    rank: int
    site: str
    changed_fields: tuple[str, ...]
    before: SiteSignature
    after: SiteSignature

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "site": self.site,
            "changed_fields": list(self.changed_fields),
            "before": self.before.to_json(),
            "after": self.after.to_json(),
        }


# ---------------------------------------------------------------------------
# Aggregate store metrics (one bounded-memory streaming pass per store).


@dataclass(frozen=True)
class StoreMetrics:
    """Aggregate drift metrics of one stored crawl.

    Share conventions match :mod:`repro.synthweb.eras` /
    :class:`~repro.analysis.headers.AdoptionFigures`:
    ``pp_top_level_share`` is document-weighted (Fig. 2), while the
    ``fp``/``any``/``both`` top-level figures count *sites* over weighted
    top-level documents — the same denominators
    :func:`~repro.synthweb.eras.measure_era` reports, so era stores and
    era measurements agree exactly.
    """

    label: str
    attempted_sites: int
    successful_sites: int
    top_level_documents: int
    pp_top_level_share: float
    fp_top_level_share: float
    any_header_top_level_share: float
    both_header_sites: int
    pp_all_docs_share: float
    fp_all_docs_share: float
    share_sites_delegating: float
    share_sites_delegating_external: float
    directive_share_default_src: float
    directive_share_star: float
    #: External delegated-feature mix, ``(feature, share_of_delegations)``
    #: sorted by descending share then name — deterministic by design.
    allow_feature_mix: tuple[tuple[str, float], ...]
    overpermission_flagged_widgets: int
    overpermission_affected_websites: int

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "attempted_sites": self.attempted_sites,
            "successful_sites": self.successful_sites,
            "top_level_documents": self.top_level_documents,
            "pp_top_level_share": self.pp_top_level_share,
            "fp_top_level_share": self.fp_top_level_share,
            "any_header_top_level_share": self.any_header_top_level_share,
            "both_header_sites": self.both_header_sites,
            "pp_all_docs_share": self.pp_all_docs_share,
            "fp_all_docs_share": self.fp_all_docs_share,
            "share_sites_delegating": self.share_sites_delegating,
            "share_sites_delegating_external":
                self.share_sites_delegating_external,
            "directive_share_default_src": self.directive_share_default_src,
            "directive_share_star": self.directive_share_star,
            "allow_feature_mix": [[feature, share]
                                  for feature, share in self.allow_feature_mix],
            "overpermission_flagged_widgets":
                self.overpermission_flagged_widgets,
            "overpermission_affected_websites":
                self.overpermission_affected_websites,
        }


class _StoreProfile:
    """Streaming fold of one crawl into :class:`StoreMetrics`.

    Runs the summary's :class:`~repro.analysis.summary._StreamingFold`
    over only the three analyses the metrics read (headers, delegation,
    over-permission), plus the handful of site-keyed header counters the
    analyses do not track (FP / either / both on top frames)."""

    def __init__(self, registry: "PermissionRegistry | None" = None) -> None:
        self._fold = _StreamingFold(
            (HeaderAnalysis, DelegationAnalysis, OverPermissionAnalysis),
            registry)
        self.attempted = 0
        self._pp_sites = 0
        self._fp_sites = 0
        self._any_header_sites = 0
        self._both_header_sites = 0

    def add(self, visit: "SiteVisit") -> SiteSignature:
        signature = site_signature(visit)
        self.attempted += 1
        if self._fold.add(visit) is not None:
            if signature.has_pp_header:
                self._pp_sites += 1
            if signature.has_fp_header:
                self._fp_sites += 1
            if signature.has_pp_header or signature.has_fp_header:
                self._any_header_sites += 1
            if signature.has_pp_header and signature.has_fp_header:
                self._both_header_sites += 1
        return signature

    def finish(self, label: str) -> StoreMetrics:
        headers, delegation, overpermission = self._fold.analyses
        adoption = headers.adoption()
        top_docs = headers.top_level_documents
        kinds = delegation.directive_distribution()
        total_delegations = delegation.total_external_delegations()
        mix = tuple(sorted(
            ((feature, count / total_delegations)
             for feature, count in delegation._permission_delegations.items()),
            key=lambda pair: (-pair[1], pair[0])))
        flagged = overpermission.unused_delegations()
        return StoreMetrics(
            label=label,
            attempted_sites=self.attempted,
            successful_sites=self._fold.index.website_count,
            top_level_documents=top_docs,
            pp_top_level_share=adoption.pp_top_level_share,
            fp_top_level_share=self._fp_sites / top_docs if top_docs else 0.0,
            any_header_top_level_share=(
                self._any_header_sites / top_docs if top_docs else 0.0),
            both_header_sites=self._both_header_sites,
            pp_all_docs_share=adoption.pp_all_docs_share,
            fp_all_docs_share=adoption.fp_all_docs_share,
            share_sites_delegating=delegation.share_sites_delegating,
            share_sites_delegating_external=(
                delegation.share_sites_delegating_external),
            directive_share_default_src=kinds.get(
                DelegationDirectiveKind.DEFAULT_SRC, 0.0),
            directive_share_star=kinds.get(DelegationDirectiveKind.STAR, 0.0),
            allow_feature_mix=mix,
            overpermission_flagged_widgets=len(flagged),
            overpermission_affected_websites=(
                overpermission.total_affected_websites()),
        )


def _coerce_store(store: StoreLike) -> tuple[CrawlStore, bool]:
    """An open store plus whether *we* opened it (and must close it)."""
    if isinstance(store, (str, Path)):
        return CrawlStore(store), True
    return store, False


def _default_label(store: StoreLike, position: int) -> str:
    if isinstance(store, (str, Path)):
        return Path(store).stem
    return f"store-{position}"


def profile_visits(visits: "Iterable[SiteVisit]", *, label: str = "dataset",
                   registry: "PermissionRegistry | None" = None
                   ) -> StoreMetrics:
    """Fold any visit iterable (streamed or materialized) into metrics,
    under scoped GC thresholds (:func:`repro._bulk_gc.bulk_gc`)."""
    profile = _StoreProfile(registry)
    with bulk_gc():
        for visit in visits:
            profile.add(visit)
    return profile.finish(label)


def profile_store(store: StoreLike, *, label: str | None = None,
                  registry: "PermissionRegistry | None" = None
                  ) -> StoreMetrics:
    """One bounded-memory streaming pass over a store."""
    name = label if label is not None else _default_label(store, 0)
    handle, owned = _coerce_store(store)
    try:
        with TRACER.span("drift.profile", store=name):
            metrics = profile_visits(handle.iter_visits(), label=name,
                                     registry=registry)
            if _metrics.COUNTING:
                _metrics.REGISTRY.counter("drift.sites_profiled").inc(
                    metrics.attempted_sites)
            return metrics
    finally:
        if owned:
            handle.close()


# ---------------------------------------------------------------------------
# Metric deltas.


@dataclass(frozen=True)
class MetricDelta:
    """Before/after movement of one aggregate metric."""

    metric: str
    before: float
    after: float
    absolute: float
    #: ``absolute / before``; ``None`` when the baseline is zero (a metric
    #: appearing from nothing has no meaningful relative delta).
    relative: float | None

    def to_json(self) -> dict:
        return {
            "metric": self.metric,
            "before": self.before,
            "after": self.after,
            "absolute": self.absolute,
            "relative": self.relative,
        }


def _delta(metric: str, before: float, after: float) -> MetricDelta:
    absolute = after - before
    relative = absolute / before if before else None
    return MetricDelta(metric=metric, before=before, after=after,
                       absolute=absolute, relative=relative)


def metric_deltas(before: StoreMetrics,
                  after: StoreMetrics) -> tuple[MetricDelta, ...]:
    """Aggregate deltas over every :data:`DRIFT_METRICS` field."""
    return tuple(
        _delta(name, float(getattr(before, name)), float(getattr(after, name)))
        for name in DRIFT_METRICS)


# ---------------------------------------------------------------------------
# The crawl diff.


@dataclass(frozen=True)
class CrawlDiff:
    """Everything that moved between two stored crawls."""

    before: StoreMetrics
    after: StoreMetrics
    #: Ranks present only in ``after`` (plus rank slots whose site
    #: changed hands — see module notes), in rank order.
    added: tuple[SiteSignature, ...]
    #: Ranks present only in ``before``, in rank order.
    removed: tuple[SiteSignature, ...]
    #: Sites present in both whose signature differs, in rank order.
    changed: tuple[SiteDelta, ...]
    unchanged_sites: int

    @property
    def is_empty(self) -> bool:
        """True iff no site was added, removed or changed (self-diff)."""
        return not (self.added or self.removed or self.changed)

    @property
    def sites_compared(self) -> int:
        return self.unchanged_sites + len(self.changed)

    @property
    def deltas(self) -> tuple[MetricDelta, ...]:
        return metric_deltas(self.before, self.after)

    def to_json(self, *, max_site_rows: int | None = None) -> dict:
        """Field-stable JSON document; ``max_site_rows`` caps each of the
        added/removed/changed lists (full counts are always present)."""
        cap = slice(None) if max_site_rows is None else slice(max_site_rows)
        return {
            "before": self.before.to_json(),
            "after": self.after.to_json(),
            "is_empty": self.is_empty,
            "added_sites": len(self.added),
            "removed_sites": len(self.removed),
            "changed_sites": len(self.changed),
            "unchanged_sites": self.unchanged_sites,
            "added": [sig.to_json() for sig in self.added[cap]],
            "removed": [sig.to_json() for sig in self.removed[cap]],
            "changed": [delta.to_json() for delta in self.changed[cap]],
            "metric_deltas": [delta.to_json() for delta in self.deltas],
        }


def diff_visits(before: "Iterable[SiteVisit]", after: "Iterable[SiteVisit]",
                *, labels: Sequence[str] = ("before", "after"),
                registry: "PermissionRegistry | None" = None) -> CrawlDiff:
    """Diff two rank-ordered visit streams (the merge-join core).

    Both iterables must yield visits in strictly increasing rank order —
    exactly what :meth:`CrawlStore.iter_visits` produces.  Memory is
    bounded by the number of *differing* sites: unchanged sites are
    counted and dropped.  The merge-join runs under scoped GC thresholds
    (:func:`repro._bulk_gc.bulk_gc`)."""
    profile_a = _StoreProfile(registry)
    profile_b = _StoreProfile(registry)
    added: list[SiteSignature] = []
    removed: list[SiteSignature] = []
    changed: list[SiteDelta] = []
    unchanged = 0
    iter_a = iter(before)
    iter_b = iter(after)
    with bulk_gc():
        visit_a = next(iter_a, None)
        visit_b = next(iter_b, None)
        while visit_a is not None or visit_b is not None:
            if visit_b is None or (visit_a is not None
                                   and visit_a.rank < visit_b.rank):
                removed.append(profile_a.add(visit_a))
                visit_a = next(iter_a, None)
                continue
            if visit_a is None or visit_b.rank < visit_a.rank:
                added.append(profile_b.add(visit_b))
                visit_b = next(iter_b, None)
                continue
            signature_a = profile_a.add(visit_a)
            signature_b = profile_b.add(visit_b)
            if signature_a.site != signature_b.site:
                removed.append(signature_a)
                added.append(signature_b)
            elif signature_a == signature_b:
                unchanged += 1
            else:
                fields = tuple(name for name in SIGNATURE_FIELDS
                               if getattr(signature_a, name)
                               != getattr(signature_b, name))
                changed.append(SiteDelta(
                    rank=signature_a.rank, site=signature_a.site,
                    changed_fields=fields, before=signature_a,
                    after=signature_b))
            visit_a = next(iter_a, None)
            visit_b = next(iter_b, None)
    if _metrics.COUNTING:
        counters = _metrics.REGISTRY
        counters.counter("drift.sites_added").inc(len(added))
        counters.counter("drift.sites_removed").inc(len(removed))
        counters.counter("drift.sites_changed").inc(len(changed))
        counters.counter("drift.sites_unchanged").inc(unchanged)
    return CrawlDiff(
        before=profile_a.finish(str(labels[0])),
        after=profile_b.finish(str(labels[1])),
        added=tuple(added), removed=tuple(removed), changed=tuple(changed),
        unchanged_sites=unchanged)


def diff_stores(before: StoreLike, after: StoreLike, *,
                labels: Sequence[str] | None = None,
                registry: "PermissionRegistry | None" = None) -> CrawlDiff:
    """Diff two stored crawls via their streaming ``iter_visits()``."""
    if labels is None:
        labels = (_default_label(before, 0), _default_label(after, 1))
    store_a, owned_a = _coerce_store(before)
    store_b, owned_b = _coerce_store(after)
    try:
        with TRACER.span("drift.diff", before=str(labels[0]),
                         after=str(labels[1])):
            return diff_visits(store_a.iter_visits(), store_b.iter_visits(),
                               labels=labels, registry=registry)
    finally:
        if owned_a:
            store_a.close()
        if owned_b:
            store_b.close()


# ---------------------------------------------------------------------------
# The timeline (N-era fold).


@dataclass(frozen=True)
class MetricSeries:
    """One metric's trajectory across the timeline's crawls."""

    metric: str
    values: tuple[float, ...]
    #: Step deltas: ``values[i+1] - values[i]`` (one shorter than values).
    absolute_deltas: tuple[float, ...]
    #: Step deltas relative to each step's baseline; ``None`` on zero.
    relative_deltas: tuple["float | None", ...]

    @property
    def total_delta(self) -> float:
        return self.values[-1] - self.values[0] if self.values else 0.0

    def to_json(self) -> dict:
        return {
            "metric": self.metric,
            "values": list(self.values),
            "absolute_deltas": list(self.absolute_deltas),
            "relative_deltas": list(self.relative_deltas),
            "total_delta": self.total_delta,
        }


@dataclass(frozen=True)
class DriftTimeline:
    """N crawls folded into per-metric drift series."""

    labels: tuple[str, ...]
    metrics: tuple[StoreMetrics, ...]
    series: tuple[MetricSeries, ...]

    def series_for(self, metric: str) -> MetricSeries:
        for entry in self.series:
            if entry.metric == metric:
                return entry
        raise KeyError(metric)

    def to_json(self) -> dict:
        return {
            "labels": list(self.labels),
            "metrics": [metrics.to_json() for metrics in self.metrics],
            "series": [series.to_json() for series in self.series],
        }


def timeline_from_metrics(profiles: Sequence[StoreMetrics],
                          labels: Sequence[str] | None = None
                          ) -> DriftTimeline:
    """Assemble a timeline from already-computed store profiles."""
    if len(profiles) < 2:
        raise ValueError("a drift timeline needs at least two crawls")
    labels = _timeline_labels(labels, [profile.label for profile in profiles])
    series = []
    for name in DRIFT_METRICS:
        values = tuple(float(getattr(profile, name)) for profile in profiles)
        steps = tuple(zip(values, values[1:]))
        series.append(MetricSeries(
            metric=name,
            values=values,
            absolute_deltas=tuple(b - a for a, b in steps),
            relative_deltas=tuple(
                (b - a) / a if a else None for a, b in steps)))
    return DriftTimeline(labels=labels, metrics=tuple(profiles),
                         series=tuple(series))


def _timeline_labels(labels: "Sequence[str] | None",
                     defaults: Sequence[str]) -> tuple[str, ...]:
    """``labels`` (``defaults`` when ``None``), one per crawl."""
    if labels is None:
        labels = defaults
    if len(labels) != len(defaults):
        raise ValueError(f"{len(labels)} labels for {len(defaults)} crawls")
    return tuple(str(label) for label in labels)


def build_timeline(stores: Iterable[StoreLike], *,
                   labels: Sequence[str] | None = None,
                   registry: "PermissionRegistry | None" = None
                   ) -> DriftTimeline:
    """Fold N era stores (oldest first) into a :class:`DriftTimeline`.

    One streaming profile pass per store; memory never holds more than
    one visit plus the running aggregates."""
    store_list = list(stores)
    labels = _timeline_labels(labels, [
        _default_label(store, position)
        for position, store in enumerate(store_list)])
    profiles = tuple(
        profile_store(store, label=label, registry=registry)
        for store, label in zip(store_list, labels))
    return timeline_from_metrics(profiles, labels)
