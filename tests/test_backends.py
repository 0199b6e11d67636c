"""Cross-backend determinism, targeted resume loading, dataset caching,
and the persistent measurement cache (PR: process backend + perf)."""

import hashlib
import json
import multiprocessing
import pickle
import time

import pytest

import repro.experiments.runner as runner
from repro.crawler import backends
from repro.crawler.backends import (
    CHUNKS_PER_WORKER,
    MIN_CHUNK_SIZE,
    FaultInjectionSpec,
    SyntheticFetcherSpec,
    _mp_context,
    chunk_ranks,
    shutdown_warm_pool,
    warm_pool,
)
from repro.crawler.chaos import ChaosPolicy
from repro.crawler.pool import BACKENDS, CrawlDataset, CrawlerPool
from repro.crawler.resilience import RetryPolicy
from repro.crawler.storage import CrawlStore, export_jsonl
from repro.crawler.supervisor import SupervisorConfig
from repro.crawler.telemetry import CrawlTelemetry
from repro.synthweb.generator import SyntheticWeb

SITES = 60


@pytest.fixture(scope="module")
def web():
    return SyntheticWeb(SITES, seed=11)


@pytest.fixture(scope="module")
def serial_dataset(web):
    return CrawlerPool(web, workers=1, backend="serial").run()


def dataset_bytes(dataset, tmp_path, name):
    path = tmp_path / f"{name}.jsonl"
    export_jsonl(dataset.visits, path)
    return path.read_bytes()


def store_digest(pool, tmp_path, name, **run):
    """SHA-256 of the JSONL export of the store ``pool.run(**run)``
    crawled into."""
    with CrawlStore(tmp_path / f"{name}.sqlite") as store:
        pool.run(store=store, **run)
        export = tmp_path / f"{name}.jsonl"
        export_jsonl(store.iter_visits(), export)
    return hashlib.sha256(export.read_bytes()).hexdigest()


def visit_bytes(visit):
    from repro.crawler.storage import _visit_to_dict
    return json.dumps(_visit_to_dict(visit)).encode()


class TestChunkRanks:
    def test_contiguous_and_complete(self):
        chunks = chunk_ranks(list(range(100)), 7)
        assert [rank for chunk in chunks for rank in chunk] == list(range(100))
        for chunk in chunks:
            assert chunk == list(range(chunk[0], chunk[0] + len(chunk)))

    def test_near_equal_sizes(self):
        sizes = [len(c) for c in chunk_ranks(list(range(100)), 7)]
        assert max(sizes) - min(sizes) <= 1

    def test_fewer_items_than_chunks(self):
        assert chunk_ranks([3, 4], 8) == [[3], [4]]

    def test_empty(self):
        assert chunk_ranks([], 4) == []

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            chunk_ranks([1], 0)


class TestBackendDeterminism:
    @pytest.mark.parametrize("backend,workers", [
        ("serial", 1), ("process", 1), ("process", 2), ("process", 8),
    ])
    def test_byte_identical_datasets(self, web, serial_dataset, tmp_path,
                                     backend, workers):
        dataset = CrawlerPool(web, workers=workers, backend=backend).run()
        assert dataset_bytes(dataset, tmp_path, "candidate") == \
            dataset_bytes(serial_dataset, tmp_path, "reference")

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_fault_injection_identical_across_backends(self, web, tmp_path,
                                                       backend):
        spec = FaultInjectionSpec(seed=5, failure_rate=0.3, crash_rate=0.1)
        reference = CrawlerPool(
            web, workers=1, backend="serial", fetcher_spec=spec,
            retry_policy=RetryPolicy(max_retries=2)).run()
        assert reference.failure_summary(), "faults should actually fire"
        dataset = CrawlerPool(
            web, workers=4, backend=backend, fetcher_spec=spec,
            retry_policy=RetryPolicy(max_retries=2)).run()
        assert dataset_bytes(dataset, tmp_path, "candidate") == \
            dataset_bytes(reference, tmp_path, "reference")

    def test_kill_and_resume_at_chunk_boundary(self, web, serial_dataset,
                                               tmp_path):
        """A run killed after some chunks completed resumes byte-identically
        with the process backend."""
        chunks = chunk_ranks(list(range(SITES)), 2 * CHUNKS_PER_WORKER)
        survived = [rank for chunk in chunks[:3] for rank in chunk]
        db = tmp_path / "killed.sqlite"
        with CrawlStore(db) as store:
            CrawlerPool(web, workers=2, backend="process").run(
                survived, store=store)
            assert store.stored_ranks() == set(survived)
            resumed = CrawlerPool(web, workers=2, backend="process").run(
                store=store, resume=True)
        assert dataset_bytes(resumed, tmp_path, "resumed") == \
            dataset_bytes(serial_dataset, tmp_path, "reference")

    def test_run_backend_override(self, web, serial_dataset, tmp_path):
        pool = CrawlerPool(web, workers=2, backend="serial")
        dataset = pool.run(backend="process")
        assert dataset_bytes(dataset, tmp_path, "candidate") == \
            dataset_bytes(serial_dataset, tmp_path, "reference")

    @pytest.mark.parametrize("backend,workers", [
        ("serial", 1), ("process", 2),
    ])
    def test_byte_identical_with_observability_on(self, web, serial_dataset,
                                                  tmp_path, backend, workers):
        """Tracing + metrics on must not change a single dataset byte."""
        from repro.obs import observed

        with observed():
            dataset = CrawlerPool(web, workers=workers,
                                  backend=backend).run()
        assert dataset_bytes(dataset, tmp_path, "traced") == \
            dataset_bytes(serial_dataset, tmp_path, "reference")


class TestBackendSelection:
    def test_default_backend_is_serial(self, web):
        assert BACKENDS == ("serial", "process")
        assert CrawlerPool(web).backend == "serial"
        assert CrawlerPool(web, workers=4).backend == "serial"

    def test_invalid_backend_rejected(self, web):
        for backend in ("rayon", "thread", "auto"):
            with pytest.raises(ValueError, match="backend"):
                CrawlerPool(web, backend=backend)
            with pytest.raises(ValueError, match="backend"):
                CrawlerPool(web).run(range(1), backend=backend)

    def test_process_rejects_fetcher_factory(self, web):
        pool = CrawlerPool(web, workers=2, backend="process",
                           fetcher_factory=lambda: None)
        with pytest.raises(ValueError, match="fetcher_spec"):
            pool.run()

    def test_factory_and_spec_are_exclusive(self, web):
        with pytest.raises(ValueError, match="not both"):
            CrawlerPool(web, fetcher_factory=lambda: None,
                        fetcher_spec=SyntheticFetcherSpec())

    def test_specs_are_picklable(self):
        spec = FaultInjectionSpec(seed=3, failure_rate=0.2)
        assert pickle.loads(pickle.dumps(spec)) == spec
        assert pickle.loads(pickle.dumps(SyntheticFetcherSpec())) \
            == SyntheticFetcherSpec()


class TestWorkerWeb:
    """Each worker builds its web from the recipe once, whatever the start
    method, and a respawned worker builds its own: never one per chunk."""

    def test_respawned_worker_builds_one_web(self, web, tmp_path):
        reference = store_digest(CrawlerPool(web), tmp_path, "serial")
        shutdown_warm_pool()  # workers started by this run only
        chaos = ChaosPolicy(kill_ranks=(5,),
                            state_dir=str(tmp_path / "state"))
        pool = CrawlerPool(web, workers=2, backend="process",
                           chunk_schedule=[4])
        digest = store_digest(pool, tmp_path, "process", chaos=chaos,
                              supervisor=SupervisorConfig(
                                  watchdog_poll_seconds=0))
        assert digest == reference
        assert chaos.fired()["kill"] == (5,)
        assert pool.last_supervisor_stats["rebuilds"] == 1
        stats = pool.last_run_stats
        # The respawned worker crawled too, and built one web, as did
        # every other worker.
        live = {worker.process.pid for worker in backends._WARM_POOL.workers}
        assert live <= set(stats["worker_pids"])
        assert stats["web_builds_total"] == len(stats["worker_pids"])

    def test_spawn_workers_build_one_web_each(self, web, tmp_path):
        reference = store_digest(CrawlerPool(web), tmp_path, "serial")
        pool = CrawlerPool(web, workers=2, backend="process",
                           mp_context="spawn")
        try:
            digest = store_digest(pool, tmp_path, "spawn")
        finally:
            shutdown_warm_pool()
        assert digest == reference
        stats = pool.last_run_stats
        assert stats["worker_pids"]
        assert stats["web_builds_total"] == len(stats["worker_pids"])


class TestWarmWorkers:
    """The persistent worker pool: warm web reuse across chunks and runs,
    the recorded adaptive schedule, replay determinism, and shard-local
    sidecar hygiene."""

    def test_workers_build_one_web_each_not_one_per_chunk(self, web):
        shutdown_warm_pool()  # start from a cold executor
        pool = CrawlerPool(web, workers=2, backend="process",
                           chunk_schedule=[5])
        pool.run()
        stats = pool.last_run_stats
        assert stats["chunks"] == SITES // 5
        assert 1 <= len(stats["worker_pids"]) <= 2
        # The reuse claim: webs built == worker processes, not chunks.
        assert stats["web_builds_total"] == len(stats["worker_pids"])

    def test_warm_pool_survives_across_runs(self, web):
        shutdown_warm_pool()
        first = CrawlerPool(web, workers=2, backend="process")
        first.run()
        second = CrawlerPool(web, workers=2, backend="process")
        second.run()
        # Same executor, same web fingerprint: no worker rebuilt anything.
        assert second.last_run_stats["web_builds_total"] == \
            len(second.last_run_stats["worker_pids"])
        assert set(second.last_run_stats["worker_pids"]) <= \
            set(first.last_run_stats["worker_pids"])

    def test_shutdown_stops_every_worker(self, web):
        CrawlerPool(web, workers=2, backend="process").run(range(10))
        workers = warm_pool(2, _mp_context().get_start_method()).workers
        assert all(worker.process.is_alive() for worker in workers)
        shutdown_warm_pool()
        assert multiprocessing.active_children() == []

    def test_shutdown_kills_a_hung_worker(self):
        # A busy worker (here: an hour-long sleep) is SIGKILLed instead of
        # joined, so shutdown never waits on a chunk.
        shutdown_warm_pool()
        pool = warm_pool(2, _mp_context().get_start_method())
        pool.submit(pool.workers[0], time.sleep, 3600)
        started = time.monotonic()
        shutdown_warm_pool()
        assert time.monotonic() - started < 10
        assert multiprocessing.active_children() == []

    def test_adaptive_schedule_recorded_and_covers_run(self, web):
        pool = CrawlerPool(web, workers=2, backend="process")
        pool.run()
        schedule = pool.last_chunk_schedule
        assert schedule["mode"] == "adaptive"
        assert schedule["sizes"] and sum(schedule["sizes"]) == SITES
        assert schedule["total_sites"] == SITES

    def test_adaptive_tail_never_drops_below_the_minimum(self):
        # The tail's fair share is floored at MIN_CHUNK_SIZE: only the
        # final remainder may be smaller, so the tail does not fragment
        # into chunks of one or two ranks.
        pool = CrawlerPool(SyntheticWeb(300, seed=5), workers=2,
                           backend="process")
        pool.run()
        sizes = pool.last_chunk_schedule["sizes"]
        assert sum(sizes) == 300
        assert min(sizes[:-1]) >= MIN_CHUNK_SIZE, sizes

    def test_replay_reproduces_partition_and_bytes(self, web, serial_dataset,
                                                   tmp_path):
        adaptive = CrawlerPool(web, workers=2, backend="process")
        dataset = adaptive.run()
        sizes = adaptive.last_chunk_schedule["sizes"]
        replayed = CrawlerPool(web, workers=2, backend="process",
                               chunk_schedule=sizes)
        dataset_again = replayed.run()
        assert replayed.last_chunk_schedule["mode"] == "replay"
        assert replayed.last_chunk_schedule["sizes"] == sizes
        assert dataset_bytes(dataset_again, tmp_path, "replayed") == \
            dataset_bytes(dataset, tmp_path, "adaptive") == \
            dataset_bytes(serial_dataset, tmp_path, "reference")

    def test_chunk_schedule_validation(self, web):
        with pytest.raises(ValueError, match="chunk_schedule"):
            CrawlerPool(web, backend="process", chunk_schedule=[])
        with pytest.raises(ValueError, match="chunk_schedule"):
            CrawlerPool(web, backend="process", chunk_schedule=[4, 0])

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_shard_local_store_byte_identical(self, tmp_path, seed):
        """collect=False shard-local handoff: the store a process crawl
        writes through worker sidecars is byte-identical to a serial
        crawl's, and no ``.wchunk-*`` sidecar survives the run."""
        local_web = SyntheticWeb(40, seed=seed)
        with CrawlStore(tmp_path / f"serial-{seed}.sqlite") as store:
            CrawlerPool(local_web, workers=1, backend="serial").run(
                store=store)
            serial_bytes = _store_export_bytes(store, tmp_path)
        with CrawlStore(tmp_path / f"proc-{seed}.sqlite") as store:
            returned = CrawlerPool(local_web, workers=2,
                                   backend="process").run(
                store=store, collect=False)
            process_bytes = _store_export_bytes(store, tmp_path)
        assert returned.visits == []
        assert process_bytes == serial_bytes
        assert not list(tmp_path.glob(f"proc-{seed}.sqlite.wchunk-*"))

    def test_stale_sidecars_swept_on_run_start(self, web, tmp_path):
        db = tmp_path / "crawl.sqlite"
        stale = tmp_path / "crawl.sqlite.wchunk-dead-0007"
        with CrawlStore(db) as store:
            stale.write_bytes(b"leftover from a crashed run")
            CrawlerPool(web, workers=2, backend="process").run(
                range(10), store=store)
        assert not stale.exists()

    def test_interrupted_adaptive_run_resumes_byte_identical(
            self, web, serial_dataset, tmp_path):
        """Kill-and-resume under the adaptive scheduler: whatever chunk
        boundary the stop lands on, resume completes byte-identically."""
        db = tmp_path / "adaptive.sqlite"
        pool = CrawlerPool(web, workers=2, backend="process")

        def stop_early(done: int, total: int) -> None:
            if done >= 5:
                pool.request_stop()

        with CrawlStore(db) as store:
            pool.run(store=store, progress=stop_early, collect=False)
            interrupted = len(store.stored_ranks())
            assert 0 < interrupted < SITES
            resumed = CrawlerPool(web, workers=2, backend="process").run(
                store=store, resume=True)
        assert dataset_bytes(resumed, tmp_path, "resumed") == \
            dataset_bytes(serial_dataset, tmp_path, "reference")


def _store_export_bytes(store, tmp_path):
    out = tmp_path / "store-export.jsonl"
    export_jsonl(store.iter_visits(), out)
    return out.read_bytes()


class TestProcessTelemetry:
    def test_aggregated_from_chunks(self, web):
        telemetry = CrawlTelemetry()
        CrawlerPool(web, workers=2, backend="process").run(
            telemetry=telemetry)
        snapshot = telemetry.snapshot()
        assert snapshot.completed == SITES
        assert snapshot.backend == "process"
        assert snapshot.visits_by_worker
        assert all(worker.startswith("chunk-")
                   for worker in snapshot.visits_by_worker)
        assert sum(snapshot.visits_by_worker.values()) == SITES
        assert "(process)" in snapshot.progress_line()
        assert snapshot.progress_line().startswith(f"[{SITES}/{SITES}]")
        assert "backend     process" in snapshot.render()

    def test_serial_backend_label(self, web):
        telemetry = CrawlTelemetry()
        CrawlerPool(web, workers=1).run(range(5), telemetry=telemetry)
        assert telemetry.snapshot().backend == "serial"


class TestLoadVisits:
    def test_targeted_load(self, web, serial_dataset, tmp_path):
        db = tmp_path / "store.sqlite"
        with CrawlStore(db) as store:
            store.save_dataset(serial_dataset)
            wanted = [3, 17, 42]
            visits = store.load_visits(wanted)
            assert [v.rank for v in visits] == wanted
            expected = {v.rank: v for v in serial_dataset.visits}
            for visit in visits:
                assert visit_bytes(visit) == visit_bytes(expected[visit.rank])

    def test_missing_ranks_skipped(self, web, serial_dataset, tmp_path):
        with CrawlStore(tmp_path / "s.sqlite") as store:
            store.save_dataset(serial_dataset)
            visits = store.load_visits([5, SITES + 100])
            assert [v.rank for v in visits] == [5]

    def test_empty_request(self, tmp_path):
        with CrawlStore(tmp_path / "e.sqlite") as store:
            assert store.load_visits([]) == []

    def test_many_ranks_cross_chunk_boundary(self, web, serial_dataset,
                                             tmp_path, monkeypatch):
        import repro.crawler.storage as storage
        monkeypatch.setattr(storage, "_SQL_IN_CHUNK", 7)
        with CrawlStore(tmp_path / "chunked.sqlite") as store:
            store.save_dataset(serial_dataset)
            visits = store.load_visits(range(SITES))
            assert [v.rank for v in visits] == list(range(SITES))
            assert [visit_bytes(v) for v in visits] == \
                [visit_bytes(v) for v in serial_dataset.visits]


class TestSuccessfulCache:
    def test_cached_until_mutation(self, serial_dataset):
        dataset = CrawlDataset(visits=list(serial_dataset.visits))
        first = dataset.successful()
        assert dataset.successful() is first
        dataset.visits.append(serial_dataset.visits[0])
        assert dataset.successful() is not first

    def test_all_mutators_invalidate(self, serial_dataset):
        visit = serial_dataset.visits[0]
        dataset = CrawlDataset(visits=[visit])
        for mutate in (
                lambda: dataset.visits.extend([visit]),
                lambda: dataset.visits.insert(0, visit),
                lambda: dataset.visits.pop(),
                lambda: dataset.visits.sort(key=lambda v: v.rank),
                lambda: dataset.visits.reverse(),
                lambda: dataset.visits.__setitem__(0, visit),
                lambda: dataset.visits.clear(),
        ):
            before = dataset.successful()
            mutate()
            assert dataset.successful() is not before

    def test_reassigning_visits_invalidates(self, serial_dataset):
        dataset = CrawlDataset()
        assert dataset.successful() == []
        dataset.visits = list(serial_dataset.visits)
        assert len(dataset.successful()) == serial_dataset.successful_count

    def test_counts_match_filter(self, serial_dataset):
        assert serial_dataset.successful_count == \
            len([v for v in serial_dataset.visits if v.success])

    def test_dataset_pickle_roundtrip(self, serial_dataset):
        clone = pickle.loads(pickle.dumps(serial_dataset))
        assert clone.visits == serial_dataset.visits
        assert clone.successful_count == serial_dataset.successful_count
        clone.visits.append(serial_dataset.visits[0])
        assert clone.attempted == serial_dataset.attempted + 1


class TestMeasurementDiskCache:
    @pytest.fixture(autouse=True)
    def isolated_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        saved = dict(runner._CACHE)
        runner._CACHE.clear()
        yield
        runner._CACHE.clear()
        runner._CACHE.update(saved)

    def test_cold_run_writes_manifest_and_db(self):
        ctx = runner.run_measurement(240, seed=9)
        manifest_path, db_path = runner._cache_paths(240, 9)
        assert manifest_path.exists() and db_path.exists()
        manifest = json.loads(manifest_path.read_text())
        assert manifest == {
            "site_count": 240, "seed": 9,
            "schema_version": runner.SCHEMA_VERSION,
            "code_fingerprint": runner.code_fingerprint(),
        }
        assert len(ctx.dataset.visits) == 240

    def test_warm_run_skips_the_crawl(self, monkeypatch):
        reference = runner.run_measurement(240, seed=9)
        runner._CACHE.clear()

        def no_crawl(*args, **kwargs):
            raise AssertionError("warm cache hit must not crawl")
        monkeypatch.setattr(runner.CrawlerPool, "run", no_crawl)
        warm = runner.run_measurement(240, seed=9)
        assert warm.dataset.visits == reference.dataset.visits

    def test_fingerprint_mismatch_recrawls(self, monkeypatch):
        runner.run_measurement(240, seed=9)
        runner._CACHE.clear()
        manifest_path, _ = runner._cache_paths(240, 9)
        manifest = json.loads(manifest_path.read_text())
        manifest["code_fingerprint"] = "0" * 16
        manifest_path.write_text(json.dumps(manifest))
        assert runner._load_cached(240, 9) is None
        ctx = runner.run_measurement(240, seed=9)  # re-crawls, rewrites
        assert len(ctx.dataset.visits) == 240
        assert json.loads(manifest_path.read_text())["code_fingerprint"] \
            == runner.code_fingerprint()

    def test_use_cache_false_ignores_disk(self, monkeypatch):
        runner.run_measurement(240, seed=9)
        runner._CACHE.clear()
        crawled = []

        class CountingPool(runner.CrawlerPool):
            def run(self, *args, **kwargs):
                crawled.append(True)
                return super().run(*args, **kwargs)
        monkeypatch.setattr(runner, "CrawlerPool", CountingPool)
        runner.run_measurement(240, seed=9, use_cache=False)
        assert crawled

    def test_no_cache_env_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        assert not runner.cache_enabled()
        runner.run_measurement(240, seed=9)
        manifest_path, db_path = runner._cache_paths(240, 9)
        assert not manifest_path.exists() and not db_path.exists()

    def test_backend_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "process")
        assert runner.configured_backend() == "process"
        monkeypatch.delenv("REPRO_BACKEND")
        assert runner.configured_backend() == "serial"

    def test_truncated_db_is_a_miss(self):
        runner.run_measurement(240, seed=9)
        runner._CACHE.clear()
        _, db_path = runner._cache_paths(240, 9)
        with CrawlStore(db_path) as store:
            store._conn.execute("DELETE FROM visits WHERE rank >= 100")
            store._conn.commit()
        assert runner._load_cached(240, 9) is None


class TestCliBackend:
    def test_crawl_backend_flag(self, tmp_path, capsys):
        from repro.cli import main
        database = str(tmp_path / "p.sqlite")
        assert main(["crawl", "--sites", "50", "--workers", "2",
                     "--backend", "process", "--database", database]) == 0
        out = capsys.readouterr().out
        assert "via process backend" in out
        assert "sites/s" in out

    def test_telemetry_backend_flag(self, capsys):
        from repro.cli import main
        assert main(["telemetry", "--sites", "40", "--workers", "2",
                     "--backend", "process", "--fault-rate", "0.2",
                     "--retries", "1"]) == 0
        out = capsys.readouterr().out
        assert "backend     process" in out

    def test_experiment_no_cache_flag(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        saved = dict(runner._CACHE)
        runner._CACHE.clear()
        try:
            assert main(["experiment", "table01", "--sites", "300",
                         "--no-cache"]) == 0
            assert "Table 1" in capsys.readouterr().out
            manifest_path, _ = runner._cache_paths(300, runner.DEFAULT_SEED)
            assert not manifest_path.exists()
        finally:
            runner._CACHE.clear()
            runner._CACHE.update(saved)
