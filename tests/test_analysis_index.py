"""Differential and regression tests for the shared analysis index.

The index rewrite (``repro.analysis.index``) must be observably invisible:
every analysis built on a :class:`DatasetIndex` has to produce the exact
numbers the pre-index implementations produced.  The pre-index aggregation
loops are preserved verbatim in :mod:`repro.analysis.legacy`, and these
tests compare the two pipelines field by field over full synthetic crawls
at several seeds — plus regression tests for the parser interning layer
and the rank-bucket boundary bug fixed in the same change.
"""

import dataclasses

import pytest

from repro.analysis.index import (
    DatasetIndex,
    as_index,
    lint_header,
    static_matches,
)
from repro.analysis.legacy import (
    LegacyDelegationAnalysis,
    LegacyHeaderAnalysis,
    LegacyOverPermissionAnalysis,
    LegacyUsageAnalysis,
    summarize_legacy,
)
from repro.analysis.ranks import DEFAULT_BUCKETS, RankBucketAnalysis
from repro.analysis.summary import (
    _SUMMARY_ANALYSES,
    _StreamingFold,
    summarize,
    summarize_streaming,
)
from repro.analysis.usage import UsageAnalysis
from repro.crawler.pool import CrawlDataset, CrawlerPool
from repro.crawler.storage import CrawlStore
from repro.policy.allow_attr import (
    _parse_allow_attribute_cached,
    parse_allow_attribute,
)
from repro.policy.header import HeaderParseError, parse_permissions_policy_header
from repro.policy.memo import clear_parser_caches, parser_caches_disabled
from repro.policy.origin import Origin
from repro.registry.features import DEFAULT_REGISTRY, PermissionRegistry
from repro.synthweb.generator import SyntheticWeb
from tests.test_analysis import make_call, make_frame, make_visit
from tests.test_golden_digests import _digest


def crawl(site_count=250, seed=1):
    web = SyntheticWeb(site_count, seed=seed)
    return CrawlerPool(web, workers=1, backend="serial").run()


class TestIndexedVsLegacy:
    """The indexed pipeline must be field-identical to the legacy one."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_summaries_field_identical(self, seed):
        dataset = crawl(seed=seed)
        with parser_caches_disabled():
            legacy = summarize_legacy(dataset)
        indexed = summarize(dataset)
        for f in dataclasses.fields(type(indexed)):
            assert getattr(indexed, f.name) == getattr(legacy, f.name), \
                f"field {f.name} diverged at seed {seed}"

    def test_parallel_summarize_rejected(self):
        with pytest.raises(ValueError, match="parallel=True"):
            summarize(CrawlDataset(), parallel=True)

    def test_shared_index_identical_to_fresh(self):
        dataset = crawl(seed=3)
        index = DatasetIndex(dataset)
        assert summarize(dataset, index=index) == summarize(dataset)

    def test_per_analysis_aggregates_match(self):
        dataset = crawl(seed=1)
        index = DatasetIndex(dataset)
        visits = list(dataset.successful())

        usage = UsageAnalysis(index)
        legacy_usage = LegacyUsageAnalysis(visits)
        assert usage.invocation_stats == legacy_usage.invocation_stats
        assert usage.check_stats == legacy_usage.check_stats
        assert usage.static_stats == legacy_usage.static_stats
        assert usage.website_count == legacy_usage.website_count

        from repro.analysis.delegation import DelegationAnalysis
        from repro.analysis.headers import HeaderAnalysis
        from repro.analysis.overpermission import OverPermissionAnalysis
        delegation = DelegationAnalysis(index)
        legacy_delegation = LegacyDelegationAnalysis(visits)
        assert (delegation.directive_distribution()
                == legacy_delegation.directive_distribution())
        assert (delegation.share_sites_delegating
                == legacy_delegation.share_sites_delegating)

        headers = HeaderAnalysis(index)
        legacy_headers = LegacyHeaderAnalysis(visits)
        assert headers.adoption() == legacy_headers.adoption()
        assert (headers.top_level_class_shares()
                == legacy_headers.top_level_class_shares())

        over = OverPermissionAnalysis(index)
        legacy_over = LegacyOverPermissionAnalysis(visits)
        assert (over.total_affected_websites()
                == legacy_over.total_affected_websites())


class TestIndexConstruction:
    def test_accepts_dataset_iterable_and_index(self):
        dataset = crawl(site_count=200)
        visits = list(dataset.successful())
        from_dataset = UsageAnalysis(DatasetIndex(dataset))
        from_visits = UsageAnalysis(visits)  # legacy constructor signature
        assert from_dataset.invocation_stats == from_visits.invocation_stats

    def test_as_index_passthrough(self):
        index = DatasetIndex([])
        assert as_index(index) is index
        assert as_index(index, index.registry) is index

    def test_skips_failed_visits(self):
        from repro.crawler.records import failed_visit
        ok = make_visit(0, [make_frame(0, "https://a.com")])
        bad = failed_visit(1, "https://b.com", "load-timeout")
        index = DatasetIndex([ok, bad])
        assert index.website_count == 1

    def test_top_property_raises_without_top_frame(self):
        frame = make_frame(1, "https://a.com/w", parent=0, depth=1)
        visit = make_visit(0, [frame])
        visit.frames[0] = dataclasses.replace(frame, parent_id=0)
        index = DatasetIndex([visit])
        vi = index.visit_indexes[0]
        assert vi.top_frame is None
        with pytest.raises(ValueError):
            vi.top

    def test_invoked_dedup_matches_usage_semantics(self):
        frames = [make_frame(0, "https://a.com")]
        calls = [
            make_call(0, "navigator.getBattery", "invoke", ["battery"]),
            make_call(0, "navigator.getBattery", "invoke", ["battery"]),
            make_call(0, "navigator.permissions.query", "status-check",
                      ["camera"]),
        ]
        index = DatasetIndex([make_visit(0, frames, calls)])
        vi = index.visit_indexes[0]
        assert (0, "battery") in vi.invoked
        assert (0, "camera") in vi.checked
        # Repeated invocations collapse to one first-occurrence entry.
        assert len([k for k in vi.invoked if k[1] == "battery"]) == 1


class TestParserInterning:
    def test_repeated_parse_returns_same_object(self):
        clear_parser_caches()
        first = parse_allow_attribute("camera; geolocation 'self'")
        second = parse_allow_attribute("camera; geolocation 'self'")
        assert first is second

    def test_clear_forces_fresh_object(self):
        first = parse_allow_attribute("camera")
        clear_parser_caches()
        second = parse_allow_attribute("camera")
        assert first is not second
        assert first.delegated_features == second.delegated_features

    def test_disabled_context_bypasses_cache(self):
        clear_parser_caches()
        with parser_caches_disabled():
            first = parse_allow_attribute("microphone")
            second = parse_allow_attribute("microphone")
        assert first is not second
        assert _parse_allow_attribute_cached.cache == {}

    def test_header_parse_errors_are_never_cached(self):
        clear_parser_caches()
        with pytest.raises(HeaderParseError):
            parse_permissions_policy_header("camera=(((")
        # A failed parse leaves nothing behind and re-raises freshly.
        with pytest.raises(HeaderParseError):
            parse_permissions_policy_header("camera=(((")

    def test_header_parse_cached_result_is_equal(self):
        clear_parser_caches()
        first = parse_permissions_policy_header("camera=self, geolocation=*")
        second = parse_permissions_policy_header("camera=self, geolocation=*")
        assert first is second


class TestProcessWideMemos:
    """The index keeps no memo of its own: its helpers go through the
    bounded interned caches, which outlive any one index."""

    def test_opaque_origins_stay_distinct(self):
        index = DatasetIndex([])
        first, second = index.origin("about:blank"), index.origin("about:blank")
        assert first.opaque and second.opaque
        assert first is not second
        assert not first.same_origin(second)
        parsed = Origin.parse("about:blank")
        assert not parsed.same_origin(Origin.parse("about:blank"))

    def test_streaming_index_keeps_only_totals(self):
        dataset = crawl(site_count=300)
        fold = _StreamingFold(_SUMMARY_ANALYSES)
        for visit in dataset.visits:
            fold.add(visit)
        assert set(vars(fold.index)) == {
            "registry", "website_count", "top_level_documents"}
        assert fold.index.website_count == len(list(dataset.successful()))

    def test_later_summary_matches_cold_one(self, tmp_path):
        paths = []
        for seed in (1, 2):
            path = tmp_path / f"seed-{seed}.sqlite"
            with CrawlStore(path) as store:
                CrawlerPool(SyntheticWeb(150, seed=seed),
                            workers=1).run(store=store)
                store.flush()
            paths.append(path)

        def summary_digest(path):
            with CrawlStore(path) as store:
                return _digest(dataclasses.asdict(summarize_streaming(store)))

        clear_parser_caches()
        summary_digest(paths[0])
        assert lint_header.cache and static_matches.cache
        warm = summary_digest(paths[1])
        clear_parser_caches()
        assert summary_digest(paths[1]) == warm

    def test_static_matches_keyed_by_registry(self):
        small = PermissionRegistry([DEFAULT_REGISTRY.get("geolocation")])
        source = "navigator.getBattery(); navigator.geolocation.watchPosition()"
        clear_parser_caches()
        full = static_matches(source, DEFAULT_REGISTRY)
        own = static_matches(source, small)
        assert full[0] == {"battery", "geolocation"}
        assert own[0] == {"geolocation"}
        with parser_caches_disabled():
            assert own == static_matches(source, small)
        assert static_matches(source, DEFAULT_REGISTRY) is full


class TestRankBucketRegression:
    """Regression: ``_bucket_for`` used ``percentile < bound or bound >=
    1.0``, which dumped every rank into the first bucket whose bound was
    ``>= 1.0`` regardless of position, and accepted unsorted bounds."""

    def _analysis(self, buckets=DEFAULT_BUCKETS, total=100):
        return RankBucketAnalysis([], total, buckets=buckets)

    def test_ranks_land_in_ascending_buckets(self):
        analysis = self._analysis()
        assert analysis._bucket_for(0).label == "top 2%"
        assert analysis._bucket_for(5).label == "2-10%"
        assert analysis._bucket_for(25).label == "10-40%"
        assert analysis._bucket_for(75).label == "tail"

    def test_rank_at_or_past_total_falls_through_to_last(self):
        analysis = self._analysis()
        assert analysis._bucket_for(100).label == "tail"
        assert analysis._bucket_for(5000).label == "tail"

    def test_unsorted_bounds_rejected(self):
        with pytest.raises(ValueError):
            self._analysis(buckets=(("a", 0.5), ("b", 0.1), ("c", 1.0)))

    def test_duplicate_bounds_rejected(self):
        with pytest.raises(ValueError):
            self._analysis(buckets=(("all", 1.0), ("unreachable", 1.0)))

    def test_empty_buckets_rejected(self):
        with pytest.raises(ValueError):
            self._analysis(buckets=())

    def test_single_bucket_catches_everything(self):
        analysis = self._analysis(buckets=(("all", 1.0),))
        assert analysis._bucket_for(0).label == "all"
        assert analysis._bucket_for(99).label == "all"

    def test_aggregation_counts_by_bucket(self):
        visits = [make_visit(rank, [make_frame(0, "https://a.com")])
                  for rank in (0, 1, 5, 50, 99)]
        analysis = RankBucketAnalysis(visits, 100)
        sites = {b.label: b.sites for b in analysis.buckets}
        assert sites == {"top 2%": 2, "2-10%": 1, "10-40%": 0, "tail": 2}
