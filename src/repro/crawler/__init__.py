"""Crawling framework (the Playwright-pipeline equivalent).

* :mod:`repro.crawler.errors` — the paper's crawl-failure taxonomy;
* :mod:`repro.crawler.fetcher` — resolves URLs against a
  :class:`~repro.synthweb.generator.SyntheticWeb`;
* :mod:`repro.crawler.records` — the persisted measurement records;
* :mod:`repro.crawler.crawler` — one-site visit protocol (load wait,
  settle, lazy-iframe scrolling, final collection);
* :mod:`repro.crawler.interaction` — the interactive crawl used by the
  Appendix A.3 experiments;
* :mod:`repro.crawler.pool` — parallel crawl orchestration with
  checkpoint/resume;
* :mod:`repro.crawler.backends` — the process backend (contiguous rank
  chunks in worker processes) and picklable fetcher specs;
* :mod:`repro.crawler.supervisor` — self-healing supervision of the
  process backend: worker respawns, poison-visit quarantine, the chunk
  hang watchdog;
* :mod:`repro.crawler.chaos` — deterministic fault injection into
  worker processes for supervision drills;
* :mod:`repro.crawler.resilience` — retry policy + deterministic fault
  injection;
* :mod:`repro.crawler.telemetry` — the thread-safe crawl telemetry
  collector;
* :mod:`repro.crawler.storage` — SQLite persistence and JSONL
  export/import.
"""

from repro.crawler.backends import (
    FaultInjectionSpec,
    FetcherSpec,
    SyntheticFetcherSpec,
    chunk_ranks,
)
from repro.crawler.chaos import ChaosPolicy
from repro.crawler.crawler import CrawlConfig, Crawler
from repro.crawler.errors import (
    CrawlError,
    EphemeralContentError,
    FinalUpdateTimeoutError,
    IncompleteCollectionError,
    LoadTimeoutError,
    MinorCrawlerError,
    UnreachableError,
)
from repro.crawler.fetcher import SyntheticFetcher
from repro.crawler.interaction import InteractionConfig, InteractiveCrawler
from repro.crawler.pool import CrawlDataset, CrawlerPool
from repro.crawler.records import (
    CallRecord,
    FrameRecord,
    ScriptSourceRecord,
    SiteVisit,
)
from repro.crawler.resilience import (
    FaultInjectingFetcher,
    InjectedCrashError,
    RetryPolicy,
)
from repro.crawler.storage import CrawlStore
from repro.crawler.supervisor import (
    PoolCrashError,
    SupervisorConfig,
)
from repro.crawler.telemetry import CrawlTelemetry, TelemetrySnapshot

__all__ = [
    "CallRecord",
    "ChaosPolicy",
    "CrawlConfig",
    "CrawlDataset",
    "CrawlError",
    "CrawlStore",
    "CrawlTelemetry",
    "Crawler",
    "CrawlerPool",
    "EphemeralContentError",
    "FaultInjectingFetcher",
    "FaultInjectionSpec",
    "FetcherSpec",
    "FinalUpdateTimeoutError",
    "FrameRecord",
    "IncompleteCollectionError",
    "InjectedCrashError",
    "InteractionConfig",
    "InteractiveCrawler",
    "LoadTimeoutError",
    "MinorCrawlerError",
    "PoolCrashError",
    "RetryPolicy",
    "ScriptSourceRecord",
    "SiteVisit",
    "SupervisorConfig",
    "SyntheticFetcher",
    "SyntheticFetcherSpec",
    "TelemetrySnapshot",
    "UnreachableError",
    "chunk_ranks",
]
