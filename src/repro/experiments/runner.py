"""Shared measurement run for the experiment suite.

The paper runs one nine-day crawl and derives every table from it; we run
one calibrated synthetic crawl (default 20,000 sites — laptop-scale) and
cache it at two levels so each bench target regenerates its table without
re-crawling:

* an in-process cache, so every analysis in one session shares the same
  :class:`ExperimentContext` instance;
* a persistent on-disk cache (a :class:`~repro.crawler.storage.CrawlStore`
  SQLite file plus a JSON manifest), so *subsequent* pytest/bench sessions
  load the crawl in seconds instead of recomputing it.

The disk cache is keyed by ``(site_count, seed, schema_version,
code_fingerprint)``: the fingerprint hashes the source of every package
that influences crawl bytes, so editing the generator, crawler, policy
engine, registry or browser invalidates stale caches automatically.

Environment knobs:

* ``REPRO_SITES`` — measurement scale (smoke runs vs tighter repros);
* ``REPRO_CACHE_DIR`` — cache location (default
  ``~/.cache/permissions-odyssey``);
* ``REPRO_NO_CACHE`` — any non-empty value disables the disk cache;
* ``REPRO_BACKEND`` — default crawl backend (``serial``, the default, or
  ``process``).
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import sqlite3
from dataclasses import asdict, dataclass
from functools import cached_property
from pathlib import Path

from repro.analysis.delegation import DelegationAnalysis
from repro.analysis.headers import HeaderAnalysis
from repro.analysis.index import DatasetIndex
from repro.analysis.overpermission import OverPermissionAnalysis
from repro.analysis.summary import MeasurementSummary, summarize
from repro.analysis.usage import UsageAnalysis
from repro.crawler.pool import CrawlDataset, CrawlerPool
from repro.crawler.storage import SCHEMA_VERSION, CrawlStore
from repro.obs import metrics as _metrics
from repro.obs.tracing import TRACER
from repro.synthweb.distributions import GeneratorRates
from repro.synthweb.generator import SyntheticWeb

logger = logging.getLogger(__name__)

#: Default measurement scale; ~1/50 of the paper's 1M with identical rates.
DEFAULT_SITE_COUNT = 20_000
DEFAULT_SEED = 2024

#: Packages whose source determines the crawl's dataset bytes.  Analyses
#: are deliberately absent: they postprocess a dataset, so editing them
#: must not invalidate cached crawls.
_FINGERPRINTED_PACKAGES = ("browser", "crawler", "policy", "registry",
                           "synthweb")


@dataclass
class ExperimentContext:
    """One measurement run plus lazily computed analyses."""

    web: SyntheticWeb
    dataset: CrawlDataset

    @cached_property
    def index(self) -> DatasetIndex:
        """One shared index; every analysis below reads it, none re-parses."""
        return DatasetIndex(self.dataset)

    @cached_property
    def usage(self) -> UsageAnalysis:
        return UsageAnalysis(self.index)

    @cached_property
    def delegation(self) -> DelegationAnalysis:
        return DelegationAnalysis(self.index)

    @cached_property
    def headers(self) -> HeaderAnalysis:
        return HeaderAnalysis(self.index)

    @cached_property
    def overpermission(self) -> OverPermissionAnalysis:
        return OverPermissionAnalysis(self.index)

    @cached_property
    def summary(self) -> MeasurementSummary:
        return summarize(self.dataset, index=self.index)

    @property
    def scale_factor(self) -> float:
        """Multiplier mapping our counts onto the paper's 1M-site scale."""
        return 1_000_000 / self.web.site_count


_CACHE: dict[tuple[int, int, str], ExperimentContext] = {}
_FINGERPRINT: str | None = None


def configured_site_count() -> int:
    value = os.environ.get("REPRO_SITES")
    if value:
        try:
            count = int(value)
        except ValueError:
            raise ValueError(
                f"REPRO_SITES must be an integer site count, got {value!r}"
            ) from None
        return max(200, count)
    return DEFAULT_SITE_COUNT


def configured_backend() -> str:
    return os.environ.get("REPRO_BACKEND", "serial")


def cache_enabled() -> bool:
    return not os.environ.get("REPRO_NO_CACHE")


def cache_directory() -> Path:
    value = os.environ.get("REPRO_CACHE_DIR")
    if value:
        return Path(value)
    return Path.home() / ".cache" / "permissions-odyssey"


def code_fingerprint() -> str:
    """Hash of every source file that shapes crawl bytes (memoized)."""
    global _FINGERPRINT
    if _FINGERPRINT is None:
        package_root = Path(__file__).resolve().parent.parent
        digest = hashlib.sha256()
        for package in _FINGERPRINTED_PACKAGES:
            for source in sorted((package_root / package).glob("**/*.py")):
                digest.update(source.relative_to(package_root)
                              .as_posix().encode())
                digest.update(source.read_bytes())
        _FINGERPRINT = digest.hexdigest()[:16]
    return _FINGERPRINT


def _rates_variant(rates: GeneratorRates) -> str:
    """A short, stable tag for non-default generator rates — used to name
    the cache entry when the caller does not pass an explicit variant."""
    payload = json.dumps(asdict(rates), sort_keys=True).encode()
    return "rates-" + hashlib.sha256(payload).hexdigest()[:12]


def _manifest(count: int, seed: int,
              rates: GeneratorRates | None = None) -> dict:
    manifest = {"site_count": count, "seed": seed,
                "schema_version": SCHEMA_VERSION,
                "code_fingerprint": code_fingerprint()}
    if rates is not None:
        # Non-default generator rates (era measurements) are part of the
        # identity: two variants with colliding names must never alias.
        manifest["rates"] = asdict(rates)
    return manifest


def _cache_paths(count: int, seed: int,
                 variant: str = "") -> tuple[Path, Path]:
    suffix = f"-{variant}" if variant else ""
    base = cache_directory() / f"measurement-{count}-{seed}{suffix}"
    return base.with_suffix(".json"), base.with_suffix(".sqlite")


def _load_cached(count: int, seed: int,
                 rates: GeneratorRates | None = None,
                 variant: str = "") -> CrawlDataset | None:
    """The cached dataset, or ``None`` on any miss or mismatch."""
    manifest_path, db_path = _cache_paths(count, seed, variant)
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, ValueError):
        return None
    if manifest != _manifest(count, seed, rates) or not db_path.exists():
        return None
    try:
        with CrawlStore(db_path) as store:
            dataset = store.load_dataset()
    except Exception:
        return None
    if len(dataset.visits) != count:
        return None
    return dataset


def _store_cached(count: int, seed: int, dataset: CrawlDataset,
                  rates: GeneratorRates | None = None,
                  variant: str = "") -> None:
    """Best-effort write; the manifest lands last as completeness marker.

    Any filesystem *or* SQLite failure is swallowed (the measurement run
    must not die because the cache is unwritable — e.g. a full disk fails
    inside sqlite3 with ``sqlite3.OperationalError``, not ``OSError``); a
    half-written manifest tmp file is removed so nothing stale lingers.
    """
    manifest_path, db_path = _cache_paths(count, seed, variant)
    tmp = manifest_path.with_suffix(".json.tmp")
    try:
        db_path.parent.mkdir(parents=True, exist_ok=True)
        for stale in (manifest_path, db_path,
                      db_path.with_name(db_path.name + "-wal"),
                      db_path.with_name(db_path.name + "-shm")):
            stale.unlink(missing_ok=True)
        with CrawlStore(db_path) as store:
            store.save_dataset(dataset)
        tmp.write_text(json.dumps(_manifest(count, seed, rates)))
        tmp.replace(manifest_path)
    except (OSError, sqlite3.Error) as exc:
        logger.warning("measurement cache write failed, continuing without "
                       "cache: %s", exc)
        if _metrics.COUNTING:
            _metrics.REGISTRY.counter("measurement_cache.store_failures").inc()
        try:
            tmp.unlink(missing_ok=True)
        except OSError:
            pass


def run_measurement(site_count: int | None = None, *,
                    seed: int = DEFAULT_SEED,
                    workers: int = 4,
                    backend: str | None = None,
                    use_cache: bool | None = None,
                    rates: GeneratorRates | None = None,
                    variant: str | None = None) -> ExperimentContext:
    """Run (or reuse) the measurement crawl at the given scale.

    Lookup order: in-process cache, then the disk cache (when enabled and
    its manifest matches), then a fresh crawl whose result is written back
    to disk for the next session.  ``use_cache=False`` bypasses *both*
    cache levels and always crawls fresh (the result still lands in the
    in-process cache for later cached callers).

    Note: all backends produce byte-identical datasets, so ``backend``
    only selects the execution strategy of a *fresh* crawl — it cannot
    change an already-cached result, and a cache hit ignores it.

    ``rates`` runs the crawl over a non-default generator configuration
    (era measurements — :func:`repro.synthweb.eras.era_context`); such
    runs get their own cache entries, named by ``variant`` (default: a
    hash of the rates) and guarded by the rates recorded in the manifest,
    so they can never alias the default measurement or each other.
    """
    count = site_count if site_count is not None else configured_site_count()
    cached = use_cache if use_cache is not None else cache_enabled()
    if variant is not None:
        tag = variant
        if not tag or not all(ch.isalnum() or ch in "-_" for ch in tag):
            raise ValueError(
                f"variant must be a non-empty [-_a-zA-Z0-9] tag, got {tag!r}")
    else:
        tag = _rates_variant(rates) if rates is not None else ""
    key = (count, seed, tag)
    if cached and key in _CACHE:
        if _metrics.COUNTING:
            _metrics.REGISTRY.counter("measurement_cache.memory_hits").inc()
        return _CACHE[key]
    with TRACER.span("experiment.run_measurement", sites=count, seed=seed,
                     variant=tag or "default"):
        web = SyntheticWeb(count, seed=seed, rates=rates)
        dataset = (_load_cached(count, seed, rates, tag)
                   if cached else None)
        if _metrics.COUNTING and cached:
            name = ("measurement_cache.disk_hits" if dataset is not None
                    else "measurement_cache.disk_misses")
            _metrics.REGISTRY.counter(name).inc()
        if dataset is None:
            chosen = backend if backend is not None else configured_backend()
            logger.info("measurement crawl: %d sites, seed %d, backend "
                        "%s%s", count, seed, chosen,
                        f", variant {tag}" if tag else "")
            dataset = CrawlerPool(web, workers=workers,
                                  backend=chosen).run()
            if cached:
                _store_cached(count, seed, dataset, rates, tag)
        else:
            logger.info("measurement crawl: %d sites, seed %d%s — loaded "
                        "from disk cache", count, seed,
                        f", variant {tag}" if tag else "")
        ctx = ExperimentContext(web=web, dataset=dataset)
    _CACHE[key] = ctx
    return ctx

