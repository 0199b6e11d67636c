"""Tests for paper-scale crawl machinery.

Store-only (``collect=False``) runs and their kill-and-resume, store
merges, batched writes and streaming reads on the store, the
bounded-memory analysis path, and the policy engine's structural decision
memo (differentially against a memo-free engine).
"""

import random

import pytest

from repro.analysis.summary import summarize, summarize_streaming
from repro.crawler.pool import CrawlerPool
from repro.crawler.storage import CrawlStore, export_jsonl, merge_stores
from repro.obs import metrics as _metrics
from repro.policy.engine import PermissionsPolicyEngine, PolicyFrame
from repro.synthweb.generator import SyntheticWeb

SITES = 180


@pytest.fixture(scope="module")
def web() -> SyntheticWeb:
    return SyntheticWeb(SITES, seed=2024)


@pytest.fixture(scope="module")
def dataset(web):
    return CrawlerPool(web, workers=1).run()


def _export_bytes(store: CrawlStore, tmp_path) -> bytes:
    out = tmp_path / "export.jsonl"
    export_jsonl(store.iter_visits(), out)
    return out.read_bytes()


class TestStreamingRuns:
    def test_collect_false_streams_to_store_only(self, web, dataset,
                                                 tmp_path):
        with CrawlStore(tmp_path / "crawl.sqlite") as store:
            returned = CrawlerPool(web, workers=2).run(
                store=store, collect=False)
            assert returned.visits == []
            assert store.load_dataset().visits == dataset.visits

    def test_collect_false_requires_store(self, web):
        with pytest.raises(ValueError):
            CrawlerPool(web, workers=1).run(collect=False)

    def test_interrupted_run_resumes_byte_identical(self, web, dataset,
                                                    tmp_path):
        pool = CrawlerPool(web, workers=1)

        def stop_after_60(done: int, total: int) -> None:
            if done >= 60:
                pool.request_stop()

        with CrawlStore(tmp_path / "crawl.sqlite") as store:
            pool.run(store=store, progress=stop_after_60, collect=False)
            interrupted = len(store.stored_ranks())
            assert 0 < interrupted < SITES
            resumed = pool.run(store=store, resume=True)
            assert store.verify().ok
        assert resumed.visits == dataset.visits


class TestMerge:
    def test_merge_stores_equals_single_store(self, web, dataset, tmp_path):
        shard_paths = []
        for index, chunk in enumerate((range(0, 70), range(70, SITES))):
            path = tmp_path / f"shard-{index}.sqlite"
            with CrawlStore(path) as shard:
                CrawlerPool(web, workers=1).run(chunk, store=shard)
            shard_paths.append(path)
        target = tmp_path / "merged.sqlite"
        total = merge_stores(target, shard_paths)
        assert total == SITES
        with CrawlStore(target) as store:
            assert store.verify().ok
            assert store.load_dataset().visits == dataset.visits

    def test_merged_store_bytes_equal_direct_save(self, dataset, tmp_path):
        with CrawlStore(tmp_path / "direct.sqlite") as store:
            store.save_visits(dataset.visits)
            direct = _export_bytes(store, tmp_path)
        half = len(dataset.visits) // 2
        with CrawlStore(tmp_path / "a.sqlite") as a:
            a.save_visits(dataset.visits[:half])
        with CrawlStore(tmp_path / "b.sqlite") as b:
            b.save_visits(dataset.visits[half:])
        target = tmp_path / "merged.sqlite"
        merge_stores(target, [tmp_path / "a.sqlite", tmp_path / "b.sqlite"])
        with CrawlStore(target) as store:
            assert _export_bytes(store, tmp_path) == direct

    def test_merge_supersedes_existing_ranks(self, dataset, tmp_path):
        visit = dataset.visits[0]
        stale = type(visit)(**{**visit.__dict__, "retries": visit.retries + 7})
        with CrawlStore(tmp_path / "target.sqlite") as target:
            target.save_visit(stale)
            with CrawlStore(tmp_path / "src.sqlite") as src:
                src.save_visit(visit)
                target.merge_from(src)
            merged = target.load_dataset().visits
        assert len(merged) == 1
        assert merged[0] == visit

    def test_merge_into_itself_raises(self, tmp_path):
        with CrawlStore(tmp_path / "x.sqlite") as store:
            with pytest.raises(ValueError):
                store.merge_from(store)

    def test_streaming_fallback_matches_attach(self, dataset, tmp_path):
        with CrawlStore(tmp_path / "src.sqlite") as src:
            src.save_visits(dataset.visits[:40])
            with CrawlStore(tmp_path / "fast.sqlite") as fast:
                fast.merge_from(src)
                fast_bytes = _export_bytes(fast, tmp_path)
            with CrawlStore(tmp_path / "slow.sqlite") as slow:
                slow.save_visits(src.iter_visits())
                slow_bytes = _export_bytes(slow, tmp_path)
        assert fast_bytes == slow_bytes


class TestStreamingStore:
    def test_iter_visits_equals_load_dataset(self, dataset, tmp_path):
        with CrawlStore(tmp_path / "x.sqlite") as store:
            store.save_visits(dataset.visits)
            loaded = store.load_dataset().visits
            for batch_size in (1, 7, 500):
                streamed = list(store.iter_visits(batch_size=batch_size))
                assert streamed == loaded

    def test_iter_visits_empty_store(self, tmp_path):
        with CrawlStore(tmp_path / "x.sqlite") as store:
            assert list(store.iter_visits()) == []

    def test_iter_visits_rejects_bad_batch_size(self, tmp_path):
        with CrawlStore(tmp_path / "x.sqlite") as store:
            with pytest.raises(ValueError):
                list(store.iter_visits(batch_size=0))

    def test_save_visits_matches_save_visit_loop(self, dataset, tmp_path):
        with CrawlStore(tmp_path / "loop.sqlite") as store:
            for visit in dataset.visits:
                store.save_visit(visit)
            loop_bytes = _export_bytes(store, tmp_path)
        with CrawlStore(tmp_path / "batch.sqlite") as store:
            written = store.save_visits(iter(dataset.visits), chunk_size=37)
            batch_bytes = _export_bytes(store, tmp_path)
        assert written == len(dataset.visits)
        assert batch_bytes == loop_bytes

    def test_save_visits_rejects_bad_chunk_size(self, dataset, tmp_path):
        with CrawlStore(tmp_path / "x.sqlite") as store:
            with pytest.raises(ValueError):
                store.save_visits(dataset.visits, chunk_size=0)


class TestStreamingSummary:
    def test_streaming_equals_materialized(self, dataset):
        assert summarize_streaming(iter(dataset.visits)) == summarize(dataset)

    def test_streaming_from_store(self, dataset, tmp_path):
        with CrawlStore(tmp_path / "x.sqlite") as store:
            store.save_visits(dataset.visits)
            streamed = summarize_streaming(store.iter_visits())
        assert streamed == summarize(dataset)

    def test_streaming_accepts_store_directly(self, dataset, tmp_path):
        with CrawlStore(tmp_path / "x.sqlite") as store:
            store.save_visits(dataset.visits)
            assert summarize_streaming(store) == summarize(dataset)

    def test_streaming_empty(self):
        summary = summarize_streaming(iter(()))
        assert summary.attempted_sites == 0


class TestParallelSummary:
    """Process-parallel summarize: field-identical to the serial pass,
    store-only, with a serial fallback for stores too small to fan out."""

    def test_parallel_equals_serial(self, dataset, tmp_path):
        from repro.crawler.backends import shutdown_warm_pool

        with CrawlStore(tmp_path / "x.sqlite") as store:
            store.save_visits(dataset.visits)
            serial = summarize_streaming(store)
            parallel = summarize_streaming(store, workers=3)
        shutdown_warm_pool()
        assert parallel == serial
        assert parallel == summarize(dataset)

    def test_parallel_requires_store(self, dataset):
        with pytest.raises(ValueError, match="CrawlStore"):
            summarize_streaming(iter(dataset.visits), workers=2)

    def test_small_store_falls_back_to_serial(self, dataset, tmp_path):
        with CrawlStore(tmp_path / "tiny.sqlite") as store:
            store.save_visits(dataset.visits[:3])
            # 3 ranks cannot fill two spans per worker: serial fallback,
            # identical result, no worker pool spun up.
            summary = summarize_streaming(store, workers=8)
        expected = summarize_streaming(iter(dataset.visits[:3]))
        assert summary == expected

    def test_parallel_with_observability_on(self, dataset, tmp_path):
        from repro.crawler.backends import shutdown_warm_pool
        from repro.obs import TRACER, observed

        with CrawlStore(tmp_path / "x.sqlite") as store:
            store.save_visits(dataset.visits)
            plain = summarize_streaming(store)
            with observed():
                traced = summarize_streaming(store, workers=3)
                spans = TRACER.span_count()
        shutdown_warm_pool()
        assert traced == plain
        assert spans > 0


def _random_tree(rng: random.Random) -> list[PolicyFrame]:
    """A random frame chain family: top document plus nested iframes with
    varied headers, allow attributes and sandboxing."""
    headers = [None, "camera=()", "camera=(self)", "camera=(*)",
               'camera=(self "https://iframe.com"), geolocation=(self)',
               "fullscreen=*, microphone=(self)"]
    allows = [None, "camera", "camera; geolocation",
              "camera 'src'; fullscreen *", "geolocation 'none'"]
    hosts = ["https://example.org", "https://iframe.com",
             "https://widget.example", "https://cdn.example"]
    top = PolicyFrame.top(rng.choice(hosts), header=rng.choice(headers))
    frames = [top]
    current = top
    for _ in range(rng.randrange(1, 4)):
        current = current.child(
            rng.choice(hosts), allow=rng.choice(allows),
            header=rng.choice(headers),
            sandbox=rng.choice([None, None, "", "allow-same-origin"]))
        frames.append(current)
    return frames


class TestStructuralMemo:
    FEATURES = ("camera", "geolocation", "fullscreen", "microphone",
                "picture-in-picture")

    def test_differential_against_fresh_engine(self):
        """The memoized engine must answer exactly like a memo-free one on
        hundreds of random trees — same enabled flag, same reason, same
        serialized frame origin, same allowed_features."""
        rng = random.Random(7)
        shared = PermissionsPolicyEngine()
        for _ in range(300):
            frames = _random_tree(rng)
            fresh = PermissionsPolicyEngine()
            for frame in frames:
                for feature in self.FEATURES:
                    got = shared.explain(feature, frame)
                    want = fresh.explain(feature, frame)
                    assert (got.enabled, got.reason, got.frame_origin) == (
                        want.enabled, want.reason, want.frame_origin)
                assert (shared.allowed_features(frame)
                        == fresh.allowed_features(frame))

    def test_memo_hits_across_equivalent_frames(self):
        engine = PermissionsPolicyEngine()
        a = PolicyFrame.top("https://one.example",
                            header="camera=(self)").child(
            "https://iframe.com", allow="camera")
        b = PolicyFrame.top("https://two.example",
                            header="camera=(self)").child(
            "https://iframe.com", allow="camera")
        _metrics.enable_metrics()
        try:
            _metrics.REGISTRY.reset()
            first = engine.explain("camera", a)
            second = engine.explain("camera", b)
            counters = _metrics.REGISTRY.snapshot()["counters"]
        finally:
            _metrics.disable_metrics()
        # Same chain structure and same-origin relations: one miss, then
        # a hit — but each decision reports its own frame's origin.
        assert counters.get("policy.explain_memo_hits", 0) >= 1
        assert first.enabled == second.enabled
        assert first.reason == second.reason

    def test_crawl_memo_hit_rate(self, web):
        """The pool shares one engine, so a crawl's explain decisions must
        mostly be memo hits (the bench gates > 50 %; assert that here at
        test scale too)."""
        _metrics.enable_metrics()
        try:
            _metrics.REGISTRY.reset()
            CrawlerPool(web, workers=1).run(range(120))
            counters = _metrics.REGISTRY.snapshot()["counters"]
        finally:
            _metrics.disable_metrics()
        hits = counters.get("policy.explain_memo_hits", 0)
        misses = counters.get("policy.explain_memo_misses", 0)
        assert hits + misses > 0
        assert hits / (hits + misses) > 0.5
