"""Observability layer: tracing, metrics, the stage profiler, the CLI
surface, and the runner/telemetry bugfixes that shipped with it (PR:
end-to-end observability)."""

import json
import sqlite3
import threading

import pytest

import repro.experiments.runner as runner
from repro.analysis.summary import summarize
from repro.crawler.backends import chunk_ranks, CHUNKS_PER_WORKER
from repro.crawler.pool import CrawlerPool
from repro.crawler.storage import CrawlStore, export_jsonl
from repro.crawler.telemetry import CrawlTelemetry
from repro.obs import (
    REGISTRY,
    TRACER,
    MetricsRegistry,
    disable_observability,
    enable_observability,
    observed,
    span,
)
from repro.obs import metrics as obs_metrics
from repro.obs.profile import PipelineProfile, profile_pipeline, write_trace
from repro.obs.tracing import Span, Tracer
from repro.synthweb.generator import SyntheticWeb

SITES = 40


@pytest.fixture(autouse=True)
def pristine_obs_state():
    """Every test starts and ends with observability off and empty."""
    disable_observability()
    TRACER.clear()
    REGISTRY.reset()
    yield
    disable_observability()
    TRACER.clear()
    REGISTRY.reset()


@pytest.fixture(scope="module")
def web():
    return SyntheticWeb(SITES, seed=13)


@pytest.fixture(scope="module")
def plain_dataset(web):
    return CrawlerPool(web, workers=1, backend="serial").run()


def dataset_bytes(dataset, tmp_path, name):
    path = tmp_path / f"{name}.jsonl"
    export_jsonl(dataset.visits, path)
    return path.read_bytes()


class TestTracing:
    def test_disabled_by_default_returns_null_span(self):
        ctx = TRACER.span("anything", rank=1)
        with ctx as inner:
            inner.set(ignored=True)  # no-op, must not raise
        assert TRACER.roots == []
        assert TRACER.span_count() == 0

    def test_nesting_builds_a_tree(self):
        tracer = Tracer()
        tracer.enabled = True
        with tracer.span("outer", run=1):
            with tracer.span("inner.a"):
                pass
            with tracer.span("inner.b") as b:
                b.set(items=3)
        assert len(tracer.roots) == 1
        outer = tracer.roots[0]
        assert outer.name == "outer" and outer.attrs == {"run": 1}
        assert [child.name for child in outer.children] == ["inner.a",
                                                            "inner.b"]
        assert outer.children[1].attrs == {"items": 3}
        assert outer.duration_us >= outer.children[0].duration_us
        assert tracer.span_count() == 3

    def test_exception_recorded_and_reraised(self):
        tracer = Tracer()
        tracer.enabled = True
        with pytest.raises(KeyError):
            with tracer.span("boom"):
                raise KeyError("x")
        assert tracer.roots[0].attrs["error"] == "KeyError"

    def test_thread_spans_become_separate_roots(self):
        tracer = Tracer()
        tracer.enabled = True

        def work():
            with tracer.span("worker"):
                pass

        with tracer.span("main-span"):
            thread = threading.Thread(target=work)
            thread.start()
            thread.join()
        names = sorted(s.name for s in tracer.roots)
        assert names == ["main-span", "worker"]

    def test_export_and_ingest_round_trip(self):
        source = Tracer()
        source.enabled = True
        with source.span("chunk", ranks=5):
            with source.span("visit", rank=0):
                pass
        exported = source.export_spans()
        assert json.dumps(exported)  # plain JSON-serializable dicts

        sink = Tracer()
        sink.ingest(exported, pid="chunk-007")
        assert len(sink.roots) == 1
        root = sink.roots[0]
        assert root.pid == "chunk-007"
        assert root.children[0].pid == "chunk-007"
        assert root.children[0].attrs == {"rank": 0}

    def test_to_tree_schema(self):
        tracer = Tracer()
        tracer.enabled = True
        with tracer.span("a"):
            pass
        tree = tracer.to_tree()
        assert tree["schema"] == "repro.trace/1"
        node = tree["spans"][0]
        assert set(node) == {"name", "start_us", "duration_us", "thread",
                             "pid", "attrs", "children"}

    def test_chrome_trace_format(self):
        tracer = Tracer()
        tracer.enabled = True
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        doc = tracer.to_chrome_trace()
        events = doc["traceEvents"]
        metadata = [e for e in events if e["ph"] == "M"]
        complete = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in metadata} == {"process_name",
                                                "thread_name"}
        assert [e["name"] for e in complete] == ["outer", "inner"]
        for event in complete:
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
            assert event["ts"] >= 0 and event["dur"] >= 0
        json.dumps(doc)

    def test_clear_resets_roots_and_stacks(self):
        tracer = Tracer()
        tracer.enabled = True
        open_span = tracer.span("stale")
        open_span.__enter__()
        tracer.clear()
        with tracer.span("fresh"):
            pass
        # The fresh span must not attach under the stale open span.
        assert [s.name for s in tracer.roots] == ["fresh"]


class TestMetrics:
    def test_counter_gauge_histogram(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.counter("c").inc(4)
        registry.gauge("g").set(2.5)
        histogram = registry.histogram("h")
        for value in (1.0, 3.0, 2.0):
            histogram.observe(value)
        snap = registry.snapshot()
        assert snap["counters"] == {"c": 5}
        assert snap["gauges"] == {"g": 2.5}
        assert snap["histograms"]["h"] == {
            "count": 3, "total": 6.0, "min": 1.0, "max": 3.0, "mean": 2.0}

    def test_snapshot_omits_zero_values_and_is_sorted(self):
        registry = MetricsRegistry()
        registry.counter("untouched")
        registry.counter("b").inc()
        registry.counter("a").inc()
        snap = registry.snapshot()
        assert list(snap["counters"]) == ["a", "b"]

    def test_merge_folds_worker_snapshot_in(self):
        parent, worker = MetricsRegistry(), MetricsRegistry()
        parent.counter("c").inc(2)
        parent.histogram("h").observe(10.0)
        worker.counter("c").inc(3)
        worker.histogram("h").observe(1.0)
        worker.gauge("g").set(7)
        parent.merge(worker.snapshot())
        snap = parent.snapshot()
        assert snap["counters"]["c"] == 5
        assert snap["gauges"]["g"] == 7
        assert snap["histograms"]["h"]["count"] == 2
        assert snap["histograms"]["h"]["min"] == 1.0
        assert snap["histograms"]["h"]["max"] == 10.0

    def test_reset_keeps_cached_handles_valid(self):
        registry = MetricsRegistry()
        handle = registry.counter("kept")
        handle.inc(9)
        registry.reset()
        assert handle.value == 0
        handle.inc()
        assert registry.counter("kept").value == 1
        assert registry.counter("kept") is handle

    def test_enable_disable_sync_the_fast_path_gate(self):
        assert not obs_metrics.COUNTING and not REGISTRY.enabled
        enable_observability()
        assert obs_metrics.COUNTING and REGISTRY.enabled
        assert TRACER.enabled
        disable_observability()
        assert not obs_metrics.COUNTING and not REGISTRY.enabled
        assert not TRACER.enabled

    def test_observed_restores_prior_state(self):
        with observed() as tracer:
            assert tracer.enabled and obs_metrics.COUNTING
        assert not TRACER.enabled and not obs_metrics.COUNTING


class TestInstrumentation:
    def test_crawl_records_spans_and_metrics(self, web):
        with observed():
            CrawlerPool(web, workers=2, backend="serial").run(
                telemetry=CrawlTelemetry())
            names = {s.name for s in TRACER.roots}
            snap = REGISTRY.snapshot()
        assert "crawl.run" in names
        visit_spans = sum(1 for root in TRACER.roots
                          for child in [root, *root.children]
                          if child.name == "crawl.visit")
        assert visit_spans == SITES
        assert snap["counters"]["crawl.visits"] == SITES
        assert snap["histograms"]["crawl.simulated_seconds"]["count"] == SITES

    def test_process_backend_ships_deltas(self, web):
        with observed():
            CrawlerPool(web, workers=2, backend="process").run(
                telemetry=CrawlTelemetry())
            pids = {s.pid for s in TRACER.roots}
            snap = REGISTRY.snapshot()
        assert any(pid.startswith("chunk-") for pid in pids)
        # Worker-side policy-engine work is merged back into the parent.
        assert snap["counters"].get("policy.explain_memo_misses", 0) > 0
        chunk_spans = [s for s in TRACER.roots if s.name == "crawl.chunk"]
        assert sum(s.attrs["ranks"] for s in chunk_spans) == SITES

    def test_summarize_and_index_spans(self, plain_dataset):
        with observed():
            summarize(plain_dataset)
            names = {s.name for s in TRACER.roots}
            for root in TRACER.roots:
                names.update(child.name for child in root.children)
            snap = REGISTRY.snapshot()
        assert "analysis.summarize" in names
        assert "analysis.index" in names
        assert {"analysis.usage", "analysis.delegation", "analysis.headers",
                "analysis.overpermission"} <= names
        for helper in ("lint_header", "static_matches"):
            assert snap["counters"].get(f"policy.parser_hits.{helper}", 0) > 0

    def test_store_metrics(self, web, plain_dataset, tmp_path):
        with observed():
            with CrawlStore(tmp_path / "m.sqlite") as store:
                store.save_dataset(plain_dataset)
                store.load_dataset()
            snap = REGISTRY.snapshot()
        assert snap["counters"]["store.visits_saved"] == SITES
        assert snap["counters"]["store.visits_loaded"] == SITES


class TestIdentityUnderObservability:
    """The never-changes-results invariant, end to end."""

    @pytest.mark.parametrize("backend,workers", [
        ("serial", 1), ("process", 2),
    ])
    def test_dataset_bytes_identical(self, web, plain_dataset, tmp_path,
                                     backend, workers):
        with observed():
            traced = CrawlerPool(web, workers=workers, backend=backend).run()
        assert dataset_bytes(traced, tmp_path, "on") == \
            dataset_bytes(plain_dataset, tmp_path, "off")

    def test_kill_and_resume_identical_with_tracing(self, web, plain_dataset,
                                                    tmp_path):
        chunks = chunk_ranks(list(range(SITES)), 2 * CHUNKS_PER_WORKER)
        survived = [rank for chunk in chunks[:2] for rank in chunk]
        with observed():
            with CrawlStore(tmp_path / "k.sqlite") as store:
                CrawlerPool(web, workers=2, backend="process").run(
                    survived, store=store)
                resumed = CrawlerPool(web, workers=2, backend="process").run(
                    store=store, resume=True)
        assert dataset_bytes(resumed, tmp_path, "resumed") == \
            dataset_bytes(plain_dataset, tmp_path, "reference")

    def test_summaries_field_identical(self, plain_dataset):
        baseline = summarize(plain_dataset)
        with observed():
            traced = summarize(plain_dataset)
        assert traced == baseline


class TestProfiler:
    def test_stage_breakdown_and_render(self):
        profile = profile_pipeline(30, seed=7, workers=2, backend="serial")
        names = [stage.name for stage in profile.stages]
        assert names == ["generate", "crawl", "store", "verify", "index",
                         "analysis.usage", "analysis.delegation",
                         "analysis.headers", "analysis.overpermission"]
        assert profile.total_seconds > 0
        assert profile.backend == "serial"
        rendered = profile.render()
        for name in names:
            assert name in rendered
        assert "crawl.visits" in rendered  # counters section
        doc = profile.to_json()
        json.dumps(doc)
        assert doc["site_count"] == 30
        assert doc["metrics"]["counters"]["crawl.visits"] == 30
        # The profiler must restore the default off state…
        assert not TRACER.enabled and not obs_metrics.COUNTING
        # …but leave the spans behind for --trace-out.
        assert TRACER.span_count() > 0

    def test_write_trace_is_chrome_loadable(self, tmp_path):
        profile_pipeline(30, seed=7, workers=1, backend="serial")
        path = write_trace(tmp_path / "trace.json")
        doc = json.loads(path.read_text())
        assert doc["traceEvents"]
        assert any(e.get("ph") == "X" and e["name"] == "profile.pipeline"
                   for e in doc["traceEvents"])

    def test_profile_round_trips_as_dataclass(self):
        profile = PipelineProfile(site_count=1, seed=2, workers=3,
                                  backend="serial", stages=[],
                                  visits_by_worker={}, metrics={})
        assert profile.total_seconds == 0.0


class TestRunnerBugfixes:
    @pytest.fixture(autouse=True)
    def isolated_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        saved = dict(runner._CACHE)
        runner._CACHE.clear()
        yield
        runner._CACHE.clear()
        runner._CACHE.update(saved)

    def test_sqlite_error_during_cache_write_is_swallowed(self, monkeypatch):
        """Regression: a sqlite3.Error in the best-effort cache write used
        to crash the whole measurement run."""
        def boom(self, dataset):
            raise sqlite3.OperationalError("database or disk is full")
        monkeypatch.setattr(runner.CrawlStore, "save_dataset", boom)
        ctx = runner.run_measurement(240, seed=9)  # must not raise
        assert len(ctx.dataset.visits) == 240
        manifest_path, _ = runner._cache_paths(240, 9)
        assert not manifest_path.exists()
        assert not manifest_path.with_suffix(".json.tmp").exists()

    def test_failed_cache_write_removes_manifest_tmp(self, monkeypatch):
        real_write_text = runner.Path.write_text

        def fail_manifest(self, *args, **kwargs):
            if self.suffix == ".tmp":
                raise OSError("disk full")
            return real_write_text(self, *args, **kwargs)
        monkeypatch.setattr(runner.Path, "write_text", fail_manifest)
        runner.run_measurement(240, seed=9)
        manifest_path, _ = runner._cache_paths(240, 9)
        assert not manifest_path.with_suffix(".json.tmp").exists()

    def test_use_cache_false_bypasses_in_process_cache(self, monkeypatch):
        """Regression: ``use_cache=False`` used to return the previously
        in-process-cached context instead of crawling fresh."""
        first = runner.run_measurement(240, seed=9)
        assert runner.run_measurement(240, seed=9) is first
        crawled = []

        class CountingPool(runner.CrawlerPool):
            def run(self, *args, **kwargs):
                crawled.append(True)
                return super().run(*args, **kwargs)
        monkeypatch.setattr(runner, "CrawlerPool", CountingPool)
        fresh = runner.run_measurement(240, seed=9, use_cache=False)
        assert crawled, "use_cache=False must crawl fresh"
        assert fresh is not first
        assert fresh.dataset.visits == first.dataset.visits

    def test_cached_result_ignores_backend(self, monkeypatch):
        """Documented behaviour: a cache hit cannot change backends (all
        backends are byte-identical anyway)."""
        first = runner.run_measurement(240, seed=9)

        def no_crawl(*args, **kwargs):
            raise AssertionError("cache hit must not crawl")
        monkeypatch.setattr(runner.CrawlerPool, "run", no_crawl)
        again = runner.run_measurement(240, seed=9, backend="process")
        assert again is first

    def test_configured_site_count_error_message(self, monkeypatch):
        monkeypatch.setenv("REPRO_SITES", "twenty")
        with pytest.raises(ValueError, match="REPRO_SITES.*'twenty'"):
            runner.configured_site_count()
        monkeypatch.setenv("REPRO_SITES", "5000")
        assert runner.configured_site_count() == 5000

    def test_cache_metrics(self):
        with observed():
            runner.run_measurement(240, seed=9)       # disk miss, crawls
            runner._CACHE.clear()
            runner.run_measurement(240, seed=9)       # disk hit
            runner.run_measurement(240, seed=9)       # in-process hit
            snap = REGISTRY.snapshot()
        counters = snap["counters"]
        assert counters["measurement_cache.disk_misses"] == 1
        assert counters["measurement_cache.disk_hits"] == 1
        assert counters["measurement_cache.memory_hits"] == 1


class TestCli:
    def test_profile_command(self, capsys):
        from repro.cli import main

        assert main(["profile", "--sites", "30", "--workers", "1"]) == 0
        out = capsys.readouterr().out
        assert "pipeline profile" in out
        for stage in ("generate", "crawl", "store", "index",
                      "analysis.usage"):
            assert stage in out

    def test_profile_json_and_trace_out(self, tmp_path, capsys):
        from repro.cli import main

        trace = tmp_path / "trace.json"
        assert main(["profile", "--sites", "30", "--workers", "1",
                     "--json", "--trace-out", str(trace)]) == 0
        out = capsys.readouterr().out
        doc = json.loads(out[:out.index("wrote Chrome trace")])
        assert doc["site_count"] == 30
        assert json.loads(trace.read_text())["traceEvents"]

    def test_crawl_trace_out(self, tmp_path, capsys):
        from repro.cli import main

        trace = tmp_path / "crawl-trace.json"
        db = tmp_path / "c.sqlite"
        assert main(["crawl", "--sites", "25", "--workers", "2",
                     "--database", str(db),
                     "--trace-out", str(trace)]) == 0
        events = json.loads(trace.read_text())["traceEvents"]
        assert any(e.get("name") == "crawl.run" for e in events)
        assert not TRACER.enabled  # restored after the command

    def test_log_level_flag_parses(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["--log-level", "warning", "telemetry",
                     "--sites", "20", "--workers", "1"]) == 0
        assert "visits" in capsys.readouterr().out
