"""Hostile-input hardening (DESIGN.md §4g).

Four layers under adversarial input:

* the seeded corpus itself is deterministic and covers every strategy;
* parsers: lenient mode never raises on any corpus value, strict mode
  raises exactly where it always did (frozen differential);
* guards: truncation, watchdog, frame caps and the per-origin circuit
  breaker, and their composition with retries;
* the whole pipeline: generate → crawl → store → index → summarize never
  raises on hostile input and stays byte-identical across backends.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.index import DatasetIndex
from repro.analysis.summary import summarize
from repro.crawler.crawler import Crawler, CrawlConfig
from repro.crawler.errors import UnreachableError
from repro.crawler.fetcher import SyntheticFetcher
from repro.crawler.guards import (
    CircuitBreaker,
    CircuitOpenError,
    GUARD_ALLOW_TRUNCATED,
    GUARD_BREAKER_OPEN,
    GUARD_FRAMES_CAPPED,
    GUARD_HEADER_TRUNCATED,
    GUARD_SCRIPT_TRUNCATED,
    GUARD_WATCHDOG,
    GuardedFetcher,
    ResourceGuards,
    origin_key,
)
from repro.crawler.integrity import canonical_visit_bytes
from repro.crawler.pool import CrawlerPool
from repro.crawler.storage import CrawlStore
from repro.crawler.telemetry import CrawlTelemetry
from repro.policy.allow_attr import parse_allow_attribute
from repro.policy.feature_policy import parse_feature_policy_header
from repro.policy.header import (
    HeaderParseError,
    parse_permissions_policy_header,
)
from repro.synthweb.generator import SyntheticWeb
from repro.synthweb.hostile import (
    HostileConfig,
    HostileFetcher,
    HostileFetcherSpec,
    STRATEGIES,
    deep_iframe_chain,
    hostile_values,
)

CORPUS_SEED = 1
CORPUS = hostile_values(CORPUS_SEED, 32)

#: Frozen differential: corpus indices where a STRICT Permissions-Policy
#: parse raises HeaderParseError.  The lenient path must absorb exactly
#: these (and nothing else may escape as any other exception).  Indices
#: 2/10/18/26 are the "huge-token" strategy, which is valid
#: structured-field syntax.  If the corpus generator changes, recompute
#: deliberately — this list is the regression contract.
STRICT_RAISE_INDICES = frozenset(range(32)) - {2, 10, 18, 26}


class TestCorpus:
    def test_deterministic(self):
        assert hostile_values(CORPUS_SEED, 32) == CORPUS
        assert hostile_values(CORPUS_SEED + 1, 32) != CORPUS

    def test_covers_every_strategy(self):
        assert len(CORPUS) >= len(STRATEGIES)

    def test_no_lone_surrogates(self):
        # Lone surrogates cannot cross sqlite3 binding or strict JSON;
        # the corpus must exercise our hardening, not the stdlib's.
        for value in CORPUS:
            value.encode("utf-8")  # raises on lone surrogates

    def test_payload_sizing(self):
        big = hostile_values(CORPUS_SEED, 8, payload_bytes=1 << 20)
        assert max(len(v) for v in big) >= 1 << 20


class TestLenientParsers:
    @pytest.mark.parametrize("index", range(len(CORPUS)))
    def test_lenient_never_raises(self, index):
        value = CORPUS[index]
        parsed = parse_permissions_policy_header(value, mode="lenient")
        assert parsed.raw == value
        if parsed.dropped:
            assert parsed.issues and not parsed.directives
        fp = parse_feature_policy_header(value, mode="lenient")
        assert fp.raw == value
        allow = parse_allow_attribute(value, mode="lenient")
        assert allow.raw == value

    def test_strict_differential_frozen(self):
        raised = set()
        for index, value in enumerate(CORPUS):
            try:
                parse_permissions_policy_header(value)
            except HeaderParseError:
                raised.add(index)
        assert raised == STRICT_RAISE_INDICES

    def test_strict_fp_and_allow_never_raise_on_corpus(self):
        # These grammars tolerate garbage by construction (invalid tokens
        # are collected, not fatal); freeze that property too.
        for value in CORPUS:
            parse_feature_policy_header(value)
            parse_allow_attribute(value)

    def test_lenient_agrees_with_strict_on_success(self):
        for index in sorted(frozenset(range(32)) - STRICT_RAISE_INDICES):
            value = CORPUS[index]
            strict = parse_permissions_policy_header(value)
            lenient = parse_permissions_policy_header(value, mode="lenient")
            assert not lenient.dropped
            assert lenient.directives == strict.directives

    def test_lenient_does_not_pollute_interned_cache(self):
        value = CORPUS[0]
        parse_permissions_policy_header.cache_clear()
        dropped = parse_permissions_policy_header(value, mode="lenient")
        assert dropped.dropped
        # The failing parse must not be cached as a success...
        with pytest.raises(HeaderParseError):
            parse_permissions_policy_header(value)
        # ...and successful strict results stay issue-free objects.
        ok = parse_permissions_policy_header("camera=(self)")
        assert ok.issues == () and not ok.dropped

    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet=st.characters(codec="utf-8"), max_size=200))
    def test_lenient_never_raises_property(self, raw):
        parsed = parse_permissions_policy_header(raw, mode="lenient")
        assert parsed.raw == raw
        parse_feature_policy_header(raw, mode="lenient")
        parse_allow_attribute(raw, mode="lenient")

    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet=st.characters(codec="utf-8"), max_size=200))
    def test_strict_raises_only_header_parse_error(self, raw):
        try:
            strict = parse_permissions_policy_header(raw)
        except HeaderParseError:
            assert parse_permissions_policy_header(raw,
                                                   mode="lenient").dropped
        else:
            lenient = parse_permissions_policy_header(raw, mode="lenient")
            assert lenient.directives == strict.directives


class _Dead:
    """Fetcher whose every fetch is a non-transient failure."""

    def __init__(self):
        self.calls = 0

    def fetch(self, url):
        self.calls += 1
        raise UnreachableError(f"dead: {url}")


class TestCircuitBreaker:
    def test_opens_after_threshold_and_half_opens(self):
        breaker = CircuitBreaker(failure_threshold=2, cooldown_attempts=2)
        origin = "https://dead.example"
        for _ in range(2):
            assert breaker.allow(origin)
            breaker.record_failure(origin, transient=False)
        assert breaker.state(origin) == "open"
        assert not breaker.allow(origin)      # rejected
        assert breaker.allow(origin)          # half-open probe
        breaker.record_success(origin)
        assert breaker.state(origin) == "closed"
        assert breaker.opened_count == 1
        assert breaker.short_circuits == 1

    def test_transient_failures_never_trip(self):
        breaker = CircuitBreaker(failure_threshold=1)
        for _ in range(10):
            breaker.record_failure("https://flaky.example", transient=True)
        assert breaker.state("https://flaky.example") == "closed"

    def test_half_open_failure_reopens(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_attempts=1)
        origin = "https://dead.example"
        breaker.record_failure(origin, transient=False)
        assert breaker.state(origin) == "open"
        assert breaker.allow(origin)          # immediate half-open probe
        breaker.record_failure(origin, transient=False)
        assert breaker.state(origin) == "open"
        assert breaker.opened_count == 2

    def test_guarded_fetcher_short_circuits(self):
        dead = _Dead()
        guarded = GuardedFetcher(
            dead, ResourceGuards(breaker_failure_threshold=2,
                                 breaker_cooldown_attempts=3))
        url = "https://dead.example/x"
        for _ in range(2):
            with pytest.raises(UnreachableError):
                guarded.fetch(url)
        assert dead.calls == 2
        # Circuit open: next fetches are rejected without touching inner.
        with pytest.raises(CircuitOpenError):
            guarded.fetch(url)
        assert dead.calls == 2
        kinds = [event.kind for event in guarded.events]
        assert kinds.count(GUARD_BREAKER_OPEN) == 1

    def test_origin_key(self):
        assert origin_key("https://A.Example:8443/p") == \
            "https://a.example:8443"
        assert origin_key("about:srcdoc") == "about:"


class TestGuards:
    def test_validation(self):
        with pytest.raises(ValueError):
            ResourceGuards(max_header_bytes=0)
        with pytest.raises(ValueError):
            ResourceGuards(watchdog_deadline_seconds=0.0)
        with pytest.raises(ValueError):
            ResourceGuards(breaker_cooldown_attempts=0)

    def test_truncations_and_events(self):
        web = SyntheticWeb(10, seed=5)
        spec = HostileFetcherSpec(HostileConfig(seed=2, payload_bytes=8192))
        guards = ResourceGuards(max_header_bytes=256, max_script_bytes=256,
                                max_allow_attr_length=64)
        telemetry = CrawlTelemetry()
        pool = CrawlerPool(web, config=CrawlConfig(guards=guards),
                           fetcher_spec=spec)
        dataset = pool.run(list(range(10)), telemetry=telemetry)
        counts = telemetry.snapshot().guard_counts
        assert counts.get(GUARD_HEADER_TRUNCATED, 0) > 0
        assert counts.get(GUARD_SCRIPT_TRUNCATED, 0) > 0
        assert counts.get(GUARD_ALLOW_TRUNCATED, 0) > 0
        for visit in dataset.visits:
            for frame in visit.frames:
                for value in frame.headers.values():
                    assert len(value.encode("utf-8")) <= 256
            for script in visit.scripts:
                assert len(script.source.encode("utf-8")) <= 256

    def test_watchdog_converts_to_final_update_timeout(self):
        web = SyntheticWeb(10, seed=5)
        guards = ResourceGuards(watchdog_deadline_seconds=20.0)
        pool = CrawlerPool(web, config=CrawlConfig(guards=guards))
        dataset = pool.run(list(range(10)))
        baseline = CrawlerPool(web).run(list(range(10)))
        converted = [
            (old, new) for old, new
            in zip(baseline.visits, dataset.visits)
            if old.success and old.duration_seconds > 20.0]
        assert converted, "expected some visits over the deadline"
        for old, new in converted:
            assert not new.success
            assert new.failure == "final-update-timeout"
            assert new.duration_seconds == 20.0
            assert "watchdog" in (new.error_detail or "")

    def test_frames_cap_drops_children_consistently(self):
        web = SyntheticWeb(10, seed=5)
        guards = ResourceGuards(max_frames_per_visit=2)
        dataset = CrawlerPool(web, config=CrawlConfig(guards=guards)).run(
            list(range(10)))
        for visit in dataset.visits:
            assert len(visit.frames) <= 2
            kept = {frame.frame_id for frame in visit.frames}
            assert all(call.frame_id in kept for call in visit.calls)
            assert all(script.frame_id in kept for script in visit.scripts)
            assert all(prompt.requesting_frame_id in kept
                       for prompt in visit.prompts)

    def test_disabled_guards_change_nothing(self):
        web = SyntheticWeb(10, seed=5)
        plain = CrawlerPool(web).run(list(range(10)))
        generous = ResourceGuards(
            max_header_bytes=1 << 22, max_script_bytes=1 << 22,
            max_allow_attr_length=1 << 16, max_frames_per_visit=10_000,
            watchdog_deadline_seconds=10_000.0,
            breaker_failure_threshold=50)
        guarded = CrawlerPool(web, config=CrawlConfig(guards=generous)).run(
            list(range(10)))
        assert [canonical_visit_bytes(v) for v in plain.visits] == \
            [canonical_visit_bytes(v) for v in guarded.visits]

    def test_deep_iframe_chain_is_bounded_by_max_depth(self):
        web = SyntheticWeb(3, seed=5)
        config = HostileConfig(seed=2, deep_iframe_rate=1.0,
                               iframe_chain_depth=100,
                               header_rate=0.0, fp_header_rate=0.0,
                               allow_rate=0.0, script_rate=0.0)
        crawler = Crawler(HostileFetcher(SyntheticFetcher(web), config))
        visit = crawler.visit(web.origin_for_rank(0), rank=0)
        assert visit.success
        assert max(frame.depth for frame in visit.frames) <= \
            CrawlConfig().max_depth

    def test_guard_events_flow_into_watchdog_metric_kinds(self):
        web = SyntheticWeb(6, seed=5)
        guards = ResourceGuards(watchdog_deadline_seconds=20.0,
                                max_frames_per_visit=2)
        telemetry = CrawlTelemetry()
        CrawlerPool(web, config=CrawlConfig(guards=guards)).run(
            list(range(6)), telemetry=telemetry)
        counts = telemetry.snapshot().guard_counts
        assert set(counts) <= {GUARD_WATCHDOG, GUARD_FRAMES_CAPPED}
        assert counts


HOSTILE_GUARDS = ResourceGuards(
    max_header_bytes=4096, max_script_bytes=4096,
    max_allow_attr_length=512, max_frames_per_visit=64,
    watchdog_deadline_seconds=90.0, breaker_failure_threshold=3)


class TestHostilePipeline:
    """The acceptance drill: full pipeline, three seeds, both backends."""

    @pytest.mark.parametrize("seed", [2, 3, 4])
    def test_differential_across_backends(self, seed, tmp_path):
        web = SyntheticWeb(10, seed=seed)
        spec = HostileFetcherSpec(HostileConfig(seed=seed,
                                                payload_bytes=4096))
        config = CrawlConfig(guards=HOSTILE_GUARDS)
        encodings = {}
        for backend in ("serial", "process"):
            pool = CrawlerPool(web, workers=2, config=config,
                               fetcher_spec=spec)
            dataset = pool.run(list(range(10)), backend=backend)
            encodings[backend] = [canonical_visit_bytes(v)
                                  for v in dataset.visits]
        assert encodings["serial"] == encodings["process"]

        # store → verify → load → index → summarize, never raising
        path = tmp_path / "hostile.sqlite"
        with CrawlStore(path) as store:
            store.save_dataset(dataset)
            report = store.verify()
            assert report.ok and report.verified_rows == 10
            loaded = store.load_dataset()
        assert [canonical_visit_bytes(v) for v in loaded.visits] == \
            encodings["serial"]
        DatasetIndex(loaded.visits)
        summarize(loaded)

    def test_unguarded_hostile_crawl_never_raises(self):
        web = SyntheticWeb(8, seed=6)
        spec = HostileFetcherSpec(HostileConfig(seed=6, payload_bytes=4096))
        dataset = CrawlerPool(web, fetcher_spec=spec).run(list(range(8)))
        assert dataset.attempted == 8
        summarize(dataset)

    def test_bit_flip_quarantine_full_coverage(self, tmp_path):
        web = SyntheticWeb(10, seed=2)
        spec = HostileFetcherSpec(HostileConfig(seed=2, payload_bytes=2048))
        dataset = CrawlerPool(web, fetcher_spec=spec).run(list(range(10)))
        path = tmp_path / "flip.sqlite"
        with CrawlStore(path) as store:
            store.save_dataset(dataset)
            # Flip bits in every table's own way; calls/scripts rows do
            # not exist at every rank, so pick ranks that have them.
            call_rank = store._conn.execute(
                "SELECT rank FROM calls WHERE rank NOT IN (1, 3) "
                "ORDER BY rank LIMIT 1").fetchone()[0]
            script_rank = store._conn.execute(
                "SELECT rank FROM scripts WHERE rank NOT IN (1, 3, ?) "
                "ORDER BY rank LIMIT 1", (call_rank,)).fetchone()[0]
            flipped = {1, 3, call_rank, script_rank}
            assert len(flipped) == 4
            store._conn.execute(
                "UPDATE visits SET duration_seconds = duration_seconds + 1 "
                "WHERE rank = 1")
            store._conn.execute(
                "UPDATE frames SET headers = '{broken' WHERE rank = 3")
            store._conn.execute(
                "UPDATE calls SET permissions = 'no-json' WHERE rank = ?",
                (call_rank,))
            store._conn.execute(
                "UPDATE scripts SET source = source || 'X' WHERE rank = ?",
                (script_rank,))
            store._conn.commit()
            report = store.verify()
            assert {bad.rank for bad in report.corrupt} == flipped
            # load_dataset tolerates the damage (counted, not fatal)
            loaded = store.load_dataset()
            assert len(loaded.visits) == 10
            repaired = store.verify(repair=True)
            assert repaired.quarantined == 4
            assert {rank for rank, _, _ in store.quarantine_rows()} == \
                flipped
            clean = store.verify()
            assert clean.ok and clean.total_rows == 6
            assert clean.previously_quarantined == 4
            # a re-crawled rank supersedes its quarantine entry
            store.save_visit(dataset.visits[1])
            assert {rank for rank, _, _ in store.quarantine_rows()} == \
                flipped - {1}
