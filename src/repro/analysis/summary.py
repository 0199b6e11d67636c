"""Headline measurement summary (the Section 4 numbers).

:func:`summarize` runs all analyses over one crawl dataset and collects the
headline aggregates into a :class:`MeasurementSummary`, with a
``compare_to_paper`` helper that renders paper-vs-measured rows for
EXPERIMENTS.md and the benchmark output.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, Union

from repro._bulk_gc import bulk_gc
from repro.analysis.delegation import DelegationAnalysis
from repro.analysis.headers import HeaderAnalysis
from repro.analysis.index import DatasetIndex, IncrementalIndex, VisitIndex
from repro.analysis.overpermission import OverPermissionAnalysis
from repro.analysis.usage import UsageAnalysis
from repro.crawler.pool import CrawlDataset
from repro.crawler.records import SiteVisit
from repro.obs import ingest_job, observe_job
from repro.obs.tracing import TRACER
from repro.policy.allow_attr import DelegationDirectiveKind
from repro.policy.allowlist import DirectiveClass
from repro.registry.features import PermissionRegistry
from repro.synthweb.distributions import PAPER

logger = logging.getLogger(__name__)


@dataclass
class MeasurementSummary:
    """Every headline number of the paper's Section 4, measured."""

    attempted_sites: int
    successful_sites: int
    failure_summary: dict[str, int]
    top_level_documents: int
    embedded_documents: int
    sites_with_iframes: int
    local_embedded_share: float
    average_seconds_per_site: float

    share_any_invocation: float
    share_invocation_top: float
    share_invocation_embedded: float
    share_any_functionality: float
    share_any_static: float
    top_third_party_share: float
    embedded_first_party_share: float

    share_sites_delegating: float
    share_sites_delegating_external: float
    directive_share_default_src: float
    directive_share_star: float

    pp_header_top_level_share: float
    pp_header_all_docs_share: float
    fp_header_all_docs_share: float
    pp_header_embedded_share: float
    header_class_disable_share: float
    header_class_self_share: float
    header_class_star_share: float
    syntax_error_top_level_sites: int
    semantic_issue_top_level_sites: int

    overpermission_affected_websites: int

    def compare_to_paper(self) -> list[tuple[str, float, float]]:
        """(metric name, paper value, measured value) rows for the shape
        comparison — each pair should agree in magnitude, not digit-for-
        digit (our substrate is a calibrated simulation)."""
        return [
            ("any permission functionality (share of top docs)",
             PAPER.share_any_functionality, self.share_any_functionality),
            ("any invocation", PAPER.share_any_invocation,
             self.share_any_invocation),
            ("invocation in top-level", PAPER.share_invocation_top_level,
             self.share_invocation_top),
            ("invocation in embedded", PAPER.share_invocation_embedded,
             self.share_invocation_embedded),
            ("static functionality", PAPER.share_static_any,
             self.share_any_static),
            ("top-level invocations third-party",
             PAPER.top_level_third_party_share, self.top_third_party_share),
            ("embedded invocations first-party",
             PAPER.embedded_first_party_share,
             self.embedded_first_party_share),
            ("sites delegating permissions", PAPER.share_sites_delegating,
             self.share_sites_delegating),
            ("sites delegating to external iframes",
             PAPER.share_sites_delegating_external,
             self.share_sites_delegating_external),
            ("delegation directives defaulting to src",
             PAPER.directive_share_default_src,
             self.directive_share_default_src),
            ("delegation directives using *", PAPER.directive_share_star,
             self.directive_share_star),
            ("Permissions-Policy header on top-level documents",
             PAPER.pp_header_top_level_share, self.pp_header_top_level_share),
            ("Permissions-Policy adoption over all documents",
             PAPER.pp_header_adoption_all_docs, self.pp_header_all_docs_share),
            ("Feature-Policy adoption over all documents",
             PAPER.fp_header_adoption_all_docs, self.fp_header_all_docs_share),
            ("header directives disabling features",
             PAPER.directive_class_disable_share,
             self.header_class_disable_share),
            ("header directives restricted to self",
             PAPER.directive_class_self_share, self.header_class_self_share),
            ("header directives using *", PAPER.directive_class_star_share,
             self.header_class_star_share),
            ("local share of embedded documents",
             PAPER.local_embedded_share, self.local_embedded_share),
        ]


def summarize(dataset: CrawlDataset, *, parallel: bool = False,
              index: DatasetIndex | None = None) -> MeasurementSummary:
    """Run every analysis over ``dataset`` and collect the headline
    aggregates.

    The visits are indexed once (:class:`~repro.analysis.index.DatasetIndex`)
    and the four analyses share that index.  They are independent of each
    other, so with ``parallel=True`` they run on a small thread pool — the
    index is read-only at that point, making the fan-out race-free.  The
    default is serial: under the GIL the pool measured no faster (0.139 s
    against 0.107 s at 2500 sites on 2 CPUs).  Pass a
    prebuilt ``index`` to reuse one across calls (as
    :class:`~repro.experiments.runner.ExperimentContext` does).  Serial and
    parallel runs produce field-identical summaries.  The index build and
    the analyses run under scoped GC thresholds
    (:func:`repro._bulk_gc.bulk_gc`).
    """
    def build(name: str, analysis_cls):
        # Thread-pool futures run on worker threads, so each span becomes
        # its own root labelled by the analysis it timed.
        with TRACER.span(f"analysis.{name}"):
            return analysis_cls(index)

    with bulk_gc():
        if index is None:
            index = DatasetIndex(dataset)
        with TRACER.span("analysis.summarize", parallel=parallel,
                         visits=index.website_count):
            if parallel:
                with ThreadPoolExecutor(max_workers=4) as pool:
                    usage_future = pool.submit(build, "usage", UsageAnalysis)
                    delegation_future = pool.submit(build, "delegation",
                                                    DelegationAnalysis)
                    headers_future = pool.submit(build, "headers",
                                                 HeaderAnalysis)
                    overpermission_future = pool.submit(
                        build, "overpermission", OverPermissionAnalysis)
                    usage = usage_future.result()
                    delegation = delegation_future.result()
                    headers = headers_future.result()
                    overpermission = overpermission_future.result()
            else:
                usage = build("usage", UsageAnalysis)
                delegation = build("delegation", DelegationAnalysis)
                headers = build("headers", HeaderAnalysis)
                overpermission = build("overpermission",
                                       OverPermissionAnalysis)
    return _finish_summary(
        dict(attempted_sites=dataset.attempted,
             successful_sites=dataset.successful_count,
             failure_summary=dataset.failure_summary(),
             top_level_documents=dataset.top_level_document_count,
             embedded_documents=dataset.embedded_document_count,
             sites_with_iframes=dataset.sites_with_iframes(),
             local_embedded_share=dataset.local_embedded_share(),
             average_seconds_per_site=dataset.average_duration_seconds()),
        (usage, delegation, headers, overpermission))


class _ExactSum:
    """Exact (error-free) float accumulator — Shewchuk partials, the same
    algorithm behind :func:`math.fsum`, kept in mergeable object form.

    The partials are non-overlapping floats whose exact sum equals the
    exact sum of every value ever added, so :attr:`value` (one fsum over
    the partials) is the *correctly rounded* total regardless of how the
    additions were grouped.  That is what lets the process-parallel
    summarize split a duration sum across rank spans and still match the
    serial pass (and :meth:`CrawlDataset.average_duration_seconds
    <repro.crawler.pool.CrawlDataset.average_duration_seconds>`)
    bit-for-bit.
    """

    __slots__ = ("partials",)

    def __init__(self, partials: "Iterable[float] | None" = None) -> None:
        self.partials: list[float] = list(partials or ())

    def add(self, x: float) -> None:
        partials = self.partials
        count = 0
        for y in partials:
            if abs(x) < abs(y):
                x, y = y, x
            high = x + y
            low = y - (high - x)
            if low:
                partials[count] = low
                count += 1
            x = high
        partials[count:] = [x]

    def merge(self, other: "_ExactSum") -> None:
        for partial in other.partials:
            self.add(partial)

    @property
    def value(self) -> float:
        return math.fsum(self.partials)

    # list-of-floats state keeps the accumulator pickle-friendly across
    # the process boundary without a custom __reduce__
    def __getstate__(self) -> list[float]:
        return self.partials

    def __setstate__(self, state: list[float]) -> None:
        self.partials = list(state)


@dataclass
class _DatasetTally:
    """Streaming replacement for the dataset-level aggregates of
    :class:`~repro.crawler.pool.CrawlDataset` that :func:`summarize` reads.

    Every accumulator is additive per visit — the duration sum through an
    exact accumulator (:class:`_ExactSum`), so streaming, materialized and
    span-merged (process-parallel) tallies are bit-identical however the
    visits were grouped.
    """

    attempted: int = 0
    successful: int = 0
    failures: Counter = field(default_factory=Counter)
    top_level_documents: int = 0
    embedded_documents: int = 0
    sites_with_iframes: int = 0
    local_embedded: int = 0
    duration: _ExactSum = field(default_factory=_ExactSum)

    def add(self, visit: SiteVisit) -> None:
        self.attempted += 1
        self.duration.add(visit.duration_seconds)
        if not visit.success:
            self.failures[visit.failure] += 1
            return
        self.successful += 1
        self.top_level_documents += visit.top_level_document_count
        embedded = visit.embedded_frames()
        self.embedded_documents += len(embedded)
        if embedded:
            self.sites_with_iframes += 1
        for frame in embedded:
            if frame.is_local:
                self.local_embedded += 1

    def merge(self, other: "_DatasetTally") -> None:
        """Fold another span's tally in (spans merged in rank order so
        the failure Counter's insertion order matches a serial pass)."""
        self.attempted += other.attempted
        self.successful += other.successful
        for failure, count in other.failures.items():
            self.failures[failure] += count
        self.top_level_documents += other.top_level_documents
        self.embedded_documents += other.embedded_documents
        self.sites_with_iframes += other.sites_with_iframes
        self.local_embedded += other.local_embedded
        self.duration.merge(other.duration)

    def summary_fields(self) -> dict:
        """The dataset-level :class:`MeasurementSummary` fields."""
        return dict(
            attempted_sites=self.attempted,
            successful_sites=self.successful,
            failure_summary=dict(self.failures),
            top_level_documents=self.top_level_documents,
            embedded_documents=self.embedded_documents,
            sites_with_iframes=self.sites_with_iframes,
            local_embedded_share=(
                self.local_embedded / self.embedded_documents
                if self.embedded_documents else 0.0),
            average_seconds_per_site=(
                self.duration.value / self.attempted
                if self.attempted else 0.0))


class _StreamingFold:
    """The streaming fold: one incremental index feeding analyses.

    :meth:`add` indexes a visit once
    (:class:`~repro.analysis.index.IncrementalIndex`) and hands its
    :class:`~repro.analysis.index.VisitIndex` to each analysis's
    ``_aggregate_visit``; failed visits reach no analysis.
    :meth:`partial` and :meth:`merge` carry the index counters and each
    analysis's ``_partial_state`` across the process boundary.  Every
    method is looked up when it is called, so a profiler can wrap it on
    its class.  :func:`summarize_streaming` folds the four Section 4
    analyses; the drift profile (:mod:`repro.analysis.drift`) folds only
    the three it reads.
    """

    def __init__(self, analyses: tuple,
                 registry: PermissionRegistry | None = None) -> None:
        self.index = IncrementalIndex(registry=registry)
        self.analyses = tuple(cls(self.index) for cls in analyses)

    def add(self, visit: SiteVisit) -> "VisitIndex | None":
        vi = self.index.add(visit)
        if vi is not None:
            for analysis in self.analyses:
                analysis._aggregate_visit(vi)
        return vi

    def partial(self) -> tuple:
        """Picklable additive state, for :meth:`merge` in another fold."""
        return (self.index.website_count, self.index.top_level_documents,
                tuple(analysis._partial_state()
                      for analysis in self.analyses))

    def merge(self, partial: tuple) -> None:
        website_count, top_level_documents, states = partial
        self.index.merge_partial(website_count, top_level_documents)
        for analysis, state in zip(self.analyses, states):
            analysis._merge_partial(state)


#: The analyses a summary folds, in :func:`_finish_summary` order.
_SUMMARY_ANALYSES = (UsageAnalysis, DelegationAnalysis, HeaderAnalysis,
                     OverPermissionAnalysis)


def _fold_summary(visits: "Iterable[SiteVisit]",
                  registry: PermissionRegistry | None
                  ) -> "tuple[_StreamingFold, _DatasetTally]":
    """One pass of ``visits`` through the summary fold and the tally,
    under scoped GC thresholds (:func:`repro._bulk_gc.bulk_gc`)."""
    fold = _StreamingFold(_SUMMARY_ANALYSES, registry)
    tally = _DatasetTally()
    with bulk_gc():
        for visit in visits:
            tally.add(visit)
            fold.add(visit)
    return fold, tally


def summarize_streaming(visits: "Union[Iterable[SiteVisit], object]", *,
                        registry: PermissionRegistry | None = None,
                        workers: int = 1,
                        mp_context: "str | None" = None
                        ) -> MeasurementSummary:
    """Bounded-memory :func:`summarize` over a visit stream.

    Drives one pass of the streaming fold (:class:`_StreamingFold`): each
    visit (e.g. from
    :meth:`~repro.crawler.storage.CrawlStore.iter_visits`) is indexed
    once (:class:`~repro.analysis.index.IncrementalIndex`) and handed to
    all four analyses and the dataset tally before the next one is read,
    so only one visit plus the memo tables and running aggregates are
    ever resident.  The fold runs under scoped GC thresholds
    (:func:`repro._bulk_gc.bulk_gc`).
    The result is field-identical to ``summarize(dataset)`` over the same
    visits in the same (rank) order — every aggregate is additive and the
    float summation is exact, hence grouping-independent.

    The first argument also accepts a
    :class:`~repro.crawler.storage.CrawlStore` (anything with an
    ``iter_visits`` method).  With ``workers > 1`` — which *requires* a
    store — the stored rank range is partitioned into contiguous spans and
    fanned out to the warm process pool shared with the process crawl
    backend (:func:`repro.crawler.backends.warm_pool`); each worker
    streams its span through a worker-local fold and tally, and the
    picklable partial states merge back in rank order, producing a
    summary field-identical to the serial pass.
    """
    store = visits if hasattr(visits, "iter_visits") else None
    if workers > 1:
        if store is None:
            raise ValueError(
                "summarize_streaming(workers>1) needs a CrawlStore source "
                "— worker processes stream their rank spans straight from "
                "the database file")
        return _summarize_parallel(store, registry=registry,
                                   workers=workers, mp_context=mp_context)
    if store is not None:
        visits = store.iter_visits()
    with TRACER.span("analysis.summarize_streaming"):
        fold, tally = _fold_summary(visits, registry)
    return _finish_summary(tally.summary_fields(), fold.analyses)


# ---------------------------------------------------------------------------
# Process-parallel summarize: rank spans fanned out to the warm worker pool.


@dataclass(frozen=True)
class _SummarizeJob:
    """One contiguous rank span for a summarize worker."""

    store_path: str
    min_rank: int
    max_rank: int
    span_index: int
    registry: "PermissionRegistry | None"
    trace: bool
    count: bool


@dataclass(frozen=True)
class _SummarizePartial:
    """A worker's additive state for one rank span."""

    span_index: int
    tally: _DatasetTally
    #: :meth:`_StreamingFold.partial` of the span's fold.
    fold: tuple
    spans: tuple = ()
    metrics: "dict | None" = None


def _summarize_span(job: _SummarizeJob) -> _SummarizePartial:
    """Worker entry point: stream one rank span off the store and return
    the partial states.  Observability mirrors the parent per job
    (:func:`repro.obs.observe_job`), like the crawl chunk worker."""
    from repro.crawler.storage import CrawlStore
    from pathlib import Path

    with observe_job(job.trace, job.count) as export:
        with CrawlStore(Path(job.store_path)) as store, \
                TRACER.span("analysis.summarize_span", span=job.span_index,
                            min_rank=job.min_rank, max_rank=job.max_rank):
            fold, tally = _fold_summary(
                store.iter_visits(min_rank=job.min_rank,
                                  max_rank=job.max_rank), job.registry)
        return _SummarizePartial(span_index=job.span_index, tally=tally,
                                 fold=fold.partial(), **export())


def _summarize_parallel(store, *, registry: PermissionRegistry | None,
                        workers: int, mp_context: "str | None"
                        ) -> MeasurementSummary:
    """Fan contiguous rank spans out to the warm process pool and merge
    the partials in span order (== rank order, so every dict/Counter
    insertion order — and the tie-breaks downstream — match serial)."""
    from repro.crawler.backends import _mp_context as resolve_context
    from repro.crawler.backends import chunk_ranks, warm_pool
    from repro.obs import metrics as _metrics

    ranks = sorted(store.stored_ranks())
    # Two spans per worker amortizes uneven span cost; below that the
    # fan-out costs more than it parallelizes — fall back to serial.
    spans = chunk_ranks(ranks, workers * 2)
    if len(spans) < 2:
        return summarize_streaming(store.iter_visits(), registry=registry)
    store.flush()  # checkpoint the WAL so fresh worker readers see all rows
    jobs = [_SummarizeJob(store_path=str(store.path), min_rank=span[0],
                          max_rank=span[-1], span_index=index,
                          registry=registry, trace=TRACER.enabled,
                          count=_metrics.COUNTING)
            for index, span in enumerate(spans)]
    start_method = resolve_context(mp_context).get_start_method()
    pool = warm_pool(workers, start_method)

    fold = _StreamingFold(_SUMMARY_ANALYSES, registry)
    tally = _DatasetTally()
    with TRACER.span("analysis.summarize_parallel", spans=len(jobs),
                     workers=workers):
        # Span order, not completion order.
        for partial in pool.map(_summarize_span, jobs):
            ingest_job(partial.spans, partial.metrics,
                       pid=f"summarize-{partial.span_index:03d}")
            tally.merge(partial.tally)
            fold.merge(partial.fold)
    return _finish_summary(tally.summary_fields(), fold.analyses)


def _finish_summary(dataset_fields: dict, analyses: tuple
                    ) -> MeasurementSummary:
    """A summary from its dataset-level fields and the four analyses
    (in :data:`_SUMMARY_ANALYSES` order)."""
    usage, delegation, headers, overpermission = analyses
    adoption = headers.adoption()
    class_shares = headers.top_level_class_shares()
    directive_dist = delegation.directive_distribution()
    return MeasurementSummary(
        **dataset_fields,
        share_any_invocation=usage.share_any_invocation,
        share_invocation_top=usage.share_invocation_top,
        share_invocation_embedded=usage.share_invocation_embedded,
        share_any_functionality=usage.share_any_functionality,
        share_any_static=usage.share_any_static,
        top_third_party_share=usage.top_third_party_share,
        embedded_first_party_share=usage.embedded_first_party_share,
        share_sites_delegating=delegation.share_sites_delegating,
        share_sites_delegating_external=(
            delegation.share_sites_delegating_external),
        directive_share_default_src=directive_dist.get(
            DelegationDirectiveKind.DEFAULT_SRC, 0.0),
        directive_share_star=directive_dist.get(
            DelegationDirectiveKind.STAR, 0.0),
        pp_header_top_level_share=adoption.pp_top_level_share,
        pp_header_all_docs_share=adoption.pp_all_docs_share,
        fp_header_all_docs_share=adoption.fp_all_docs_share,
        pp_header_embedded_share=adoption.pp_embedded_share,
        header_class_disable_share=class_shares.get(
            DirectiveClass.DISABLE, 0.0),
        header_class_self_share=class_shares.get(DirectiveClass.SELF, 0.0),
        header_class_star_share=class_shares.get(DirectiveClass.STAR, 0.0),
        syntax_error_top_level_sites=headers.syntax_error_top_level_sites,
        semantic_issue_top_level_sites=headers.semantic_issue_top_level_sites,
        overpermission_affected_websites=(
            overpermission.total_affected_websites()),
    )
