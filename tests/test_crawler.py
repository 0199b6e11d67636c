"""Tests for the crawler: fetcher, visit protocol, pool, storage."""

import pytest

from repro.crawler.crawler import CrawlConfig, Crawler
from repro.crawler.errors import UnreachableError
from repro.crawler.fetcher import SyntheticFetcher
from repro.crawler.interaction import InteractionConfig, InteractiveCrawler
from repro.crawler.pool import CrawlerPool
from repro.crawler.storage import CrawlStore, export_jsonl
from repro.synthweb.generator import FailureMode, SyntheticWeb


@pytest.fixture(scope="module")
def web() -> SyntheticWeb:
    return SyntheticWeb(400, seed=2024)


@pytest.fixture(scope="module")
def dataset(web):
    return CrawlerPool(web, workers=1).run()


class TestFetcher:
    def test_fetch_site(self, web):
        fetcher = SyntheticFetcher(web)
        ok_rank = next(r for r in range(400)
                       if web.site(r).failure is FailureMode.NONE)
        response = fetcher.fetch(web.origin_for_rank(ok_rank))
        assert response.status == 200

    def test_fetch_unknown_host_raises(self, web):
        with pytest.raises(UnreachableError):
            SyntheticFetcher(web).fetch("https://unknown-host.example")

    def test_failure_modes_raise_typed_errors(self, web):
        fetcher = SyntheticFetcher(web)
        for rank in range(400):
            spec = web.site(rank)
            if spec.failure is FailureMode.NONE:
                continue
            with pytest.raises(Exception) as excinfo:
                fetcher.fetch(spec.url)
            assert getattr(excinfo.value, "taxonomy", None) == spec.failure.value
            return
        pytest.skip("no failing site in sample")

    def test_widget_urls_resolve(self, web):
        fetcher = SyntheticFetcher(web)
        response = fetcher.fetch("https://youtube.com/embed/v")
        assert response.content.scripts
        assert "permissions-policy" in {
            k.lower() for k in response.headers}

    def test_partner_urls_resolve(self, web):
        response = SyntheticFetcher(web).fetch("https://partner-3.example/w1")
        assert response.content.scripts

    def test_www_redirect_target_resolves(self, web):
        fetcher = SyntheticFetcher(web)
        redirecting = next((r for r in range(400)
                            if web.site(r).redirect_to
                            and web.site(r).failure is FailureMode.NONE
                            and "www." in (web.site(r).redirect_to or "")),
                           None)
        if redirecting is None:
            pytest.skip("no www-redirecting site in sample")
        spec = web.site(redirecting)
        response = fetcher.fetch(spec.url)
        assert response.redirect_chain == (spec.url,)
        again = fetcher.fetch(response.url)  # the www URL itself resolves
        assert again.redirect_chain == ()


class TestCrawler:
    def test_visit_never_raises(self, web):
        crawler = Crawler(SyntheticFetcher(web))
        for rank in range(30):
            visit = crawler.visit(web.origin_for_rank(rank), rank=rank)
            assert visit.rank == rank
            assert visit.success == (web.site(rank).failure is FailureMode.NONE)

    def test_successful_visit_has_frames_and_scripts(self, dataset):
        visit = next(v for v in dataset.successful())
        assert visit.frames
        assert visit.top_frame.is_top_level
        assert visit.scripts

    def test_timeout_visit_duration_matches_budget(self, web):
        crawler = Crawler(SyntheticFetcher(web))
        timing_out = next((r for r in range(400)
                           if web.site(r).failure is FailureMode.TIMEOUT), None)
        if timing_out is None:
            pytest.skip("no timeout site in sample")
        visit = crawler.visit(web.origin_for_rank(timing_out), rank=timing_out)
        assert visit.duration_seconds == CrawlConfig().load_timeout_seconds

    def test_iframe_attributes_collected(self, dataset):
        for visit in dataset.successful():
            for frame in visit.embedded_frames():
                if frame.iframe_attributes and "allow" in frame.iframe_attributes:
                    assert frame.allow_attribute
                    return
        pytest.skip("no delegated iframe in sample")


class TestPool:
    def test_parallel_equals_serial(self, web):
        serial = CrawlerPool(web, workers=1).run(range(60))
        parallel = CrawlerPool(web, workers=4).run(range(60))
        assert [v.rank for v in serial.visits] == [v.rank for v in parallel.visits]
        assert [v.success for v in serial.visits] == [
            v.success for v in parallel.visits]
        assert ([len(v.calls) for v in serial.visits]
                == [len(v.calls) for v in parallel.visits])

    def test_failure_summary_taxonomy_keys(self, dataset):
        summary = dataset.failure_summary()
        valid = {mode.value for mode in FailureMode}
        assert set(summary) <= valid

    def test_counts_consistent(self, dataset):
        assert dataset.attempted == 400
        assert dataset.successful_count == len(dataset.successful())
        assert dataset.total_frame_count == (
            dataset.top_level_document_count + dataset.embedded_document_count)

    def test_invalid_worker_count(self, web):
        with pytest.raises(ValueError):
            CrawlerPool(web, workers=0)

    def test_site_url_is_rank_origin(self):
        web = SyntheticWeb(300, seed=2024)
        for rank in range(web.site_count):
            assert web.site(rank).url == web.origin_for_rank(rank)

    def test_out_of_range_rank_is_unreachable_visit(self):
        web = SyntheticWeb(300, seed=2024)
        rank = web.site_count + 3
        dataset = CrawlerPool(web, workers=1).run(ranks=[rank])
        [visit] = dataset.visits
        assert visit.rank == rank
        assert not visit.success
        assert visit.failure == FailureMode.UNREACHABLE.value
        assert visit.requested_url == web.origin_for_rank(rank)


class TestInteraction:
    def test_interactive_crawl_observes_gated_calls(self, web):
        fetcher = SyntheticFetcher(web)
        plain = Crawler(SyntheticFetcher(web))
        interactive = InteractiveCrawler(fetcher)
        more = 0
        for rank in range(80):
            if web.site(rank).failure is not FailureMode.NONE:
                continue
            url = web.origin_for_rank(rank)
            baseline = plain.visit(url, rank=rank)
            with_clicks = interactive.visit(url, rank=rank)
            assert len(with_clicks.calls) >= len(baseline.calls)
            if len(with_clicks.calls) > len(baseline.calls):
                more += 1
        assert more > 0, "interaction should unlock additional calls somewhere"

    def test_interaction_config_gates(self):
        config = InteractionConfig(click=True, navigation=False, login=True)
        assert config.unlocked_gates() == frozenset({"click", "login"})


class TestStorage:
    def test_sqlite_roundtrip(self, dataset, tmp_path):
        path = tmp_path / "crawl.sqlite"
        with CrawlStore(path) as store:
            store.save_dataset(dataset)
        with CrawlStore(path) as store:
            loaded = store.load_dataset()
        assert loaded.attempted == dataset.attempted
        assert loaded.successful_count == dataset.successful_count
        original = dataset.successful()[0]
        restored = next(v for v in loaded.visits if v.rank == original.rank)
        assert len(restored.frames) == len(original.frames)
        assert len(restored.calls) == len(original.calls)
        assert restored.frames[0].headers == original.frames[0].headers

    def test_incremental_save_overwrites(self, dataset, tmp_path):
        path = tmp_path / "crawl.sqlite"
        visit = dataset.successful()[0]
        with CrawlStore(path) as store:
            store.save_visit(visit)
            store.save_visit(visit)  # idempotent
            loaded = store.load_dataset()
        assert len(loaded.visits) == 1
        assert len(loaded.visits[0].frames) == len(visit.frames)

    def test_jsonl_export(self, dataset, tmp_path):
        path = tmp_path / "out.jsonl"
        count = export_jsonl(dataset.visits[:10], path)
        assert count == 10
        lines = path.read_text().strip().splitlines()
        # 10 records plus the count trailer; no leftover .tmp sibling.
        assert len(lines) == 11
        assert "__repro_jsonl_trailer__" in lines[-1]
        assert not list(tmp_path.glob("*.tmp"))


class TestSqlAggregates:
    """The SQL-side visit counts ``repro crawl --no-collect`` reports must
    agree with the in-memory dataset."""

    @pytest.fixture(scope="class")
    def store(self, dataset, tmp_path_factory):
        path = tmp_path_factory.mktemp("sql") / "crawl.sqlite"
        with CrawlStore(path) as writer:
            writer.save_dataset(dataset)
        with CrawlStore(path) as reader:
            yield reader

    def test_count_successful(self, store, dataset):
        assert store.count_successful() == dataset.successful_count

    def test_failure_counts(self, store, dataset):
        assert store.failure_counts() == dataset.failure_summary()
