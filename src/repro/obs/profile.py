"""Stage profiler: the whole pipeline, timed stage by stage.

:func:`profile_pipeline` runs generate → crawl → store → index → the four
headline analyses under full instrumentation (tracing + metrics) and
returns a :class:`PipelineProfile` — per-stage wall-clock timings, the
per-worker visit distribution, and a metrics snapshot — renderable as a
breakdown table (``repro profile``) or embeddable as JSON (the ``stages``
key of ``BENCH_crawl.json``).

The profiler leaves the spans it collected in :data:`~repro.obs.TRACER`
so callers can additionally export the Chrome trace (``--trace-out``).
This module imports the crawler and analysis layers — import it
explicitly (``repro.obs`` deliberately does not pull it in).
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from repro.crawler.pool import STORE_BATCH_SIZE
from repro.obs import REGISTRY, TRACER, observed, span


@dataclass(frozen=True)
class StageTiming:
    """One pipeline stage's wall-clock share."""

    name: str
    seconds: float
    #: Free-form stage outcome ("20000 visits", "4 workers", …).
    detail: str = ""


@dataclass
class PipelineProfile:
    """Per-stage breakdown of one instrumented pipeline run."""

    site_count: int
    seed: int
    workers: int
    backend: str
    stages: list[StageTiming]
    visits_by_worker: dict[str, int]
    metrics: dict

    @property
    def total_seconds(self) -> float:
        return sum(stage.seconds for stage in self.stages)

    def to_json(self) -> dict:
        """JSON-serializable form (embedded in ``BENCH_*.json``)."""
        return {
            "site_count": self.site_count,
            "seed": self.seed,
            "workers": self.workers,
            "backend": self.backend,
            "total_seconds": self.total_seconds,
            "stages": [{"name": stage.name, "seconds": stage.seconds,
                        "detail": stage.detail} for stage in self.stages],
            "visits_by_worker": dict(sorted(self.visits_by_worker.items())),
            "metrics": self.metrics,
        }

    def render(self) -> str:
        """Human-readable breakdown table."""
        total = self.total_seconds or 1.0
        width = max(len(stage.name) for stage in self.stages)
        lines = [
            f"pipeline profile — {self.site_count} sites, seed {self.seed}, "
            f"{self.workers} workers, backend {self.backend}",
            "",
            f"{'stage'.ljust(width)}  {'seconds':>9}  {'share':>6}  detail",
        ]
        for stage in self.stages:
            lines.append(
                f"{stage.name.ljust(width)}  {stage.seconds:>9.3f}  "
                f"{stage.seconds / total:>5.1%}  {stage.detail}")
        lines.append(f"{'total'.ljust(width)}  {self.total_seconds:>9.3f}")
        if self.visits_by_worker:
            workers = ", ".join(
                f"{worker}={count}" for worker, count
                in sorted(self.visits_by_worker.items()))
            lines += ["", f"visits by worker: {workers}"]
        counters = self.metrics.get("counters", {})
        if counters:
            lines += ["", "counters:"]
            lines += [f"  {name} = {value}"
                      for name, value in counters.items()]
        histograms = self.metrics.get("histograms", {})
        if histograms:
            lines += ["", "histograms:"]
            lines += [f"  {name}: n={summary['count']} "
                      f"mean={summary['mean']:.3f} "
                      f"min={summary['min']:.3f} max={summary['max']:.3f}"
                      for name, summary in histograms.items()]
        return "\n".join(lines)


def profile_pipeline(site_count: int, *, seed: int = 2024, workers: int = 4,
                     backend: str = "serial",
                     store_path: "Path | str | None" = None
                     ) -> PipelineProfile:
    """Run the full pipeline once, instrumented, and time every stage.

    Stages: **generate** (materialise every site spec), **crawl** (a
    :class:`~repro.crawler.pool.CrawlerPool` run with telemetry),
    **store** (persist to SQLite — a temp file unless ``store_path``),
    **verify** (the integrity pass of ``repro verify-store`` over the rows
    just written — DESIGN.md §4g),
    **index** (build the shared :class:`~repro.analysis.index.DatasetIndex`)
    and one stage per headline analysis.  With ``backend="process"`` the
    generate stage only warms the parent's cache — workers regenerate
    their chunks, which shows up in the crawl stage as it does in real
    runs.

    Tracing and metrics are enabled for the duration and restored after;
    the collected spans stay in :data:`~repro.obs.TRACER` for export.
    """
    from repro.analysis.delegation import DelegationAnalysis
    from repro.analysis.headers import HeaderAnalysis
    from repro.analysis.index import DatasetIndex
    from repro.analysis.overpermission import OverPermissionAnalysis
    from repro.analysis.usage import UsageAnalysis
    from repro.crawler.pool import CrawlerPool
    from repro.crawler.storage import CrawlStore
    from repro.crawler.telemetry import CrawlTelemetry
    from repro.synthweb.generator import SyntheticWeb

    stages: list[StageTiming] = []

    def timed(name: str, fn, detail=lambda result: ""):
        with span(f"profile.{name}"):
            start = time.perf_counter()
            result = fn()
            seconds = time.perf_counter() - start
        stages.append(StageTiming(name, seconds, detail(result)))
        return result

    web = SyntheticWeb(site_count, seed=seed)
    pool = CrawlerPool(web, workers=workers, backend=backend)
    telemetry = CrawlTelemetry()

    tmp_dir: tempfile.TemporaryDirectory | None = None
    if store_path is None:
        tmp_dir = tempfile.TemporaryDirectory(prefix="repro-profile-")
        store_path = Path(tmp_dir.name) / "profile.sqlite"

    try:
        # observed(clear=True) wipes previously collected spans/metrics so
        # the profile stands alone; state is restored (not cleared) after,
        # leaving the trace in TRACER for --trace-out.
        with observed():
            with span("profile.pipeline", sites=site_count, seed=seed,
                      workers=workers, backend=backend):
                timed("generate",
                      lambda: [web.site(rank) for rank in range(site_count)],
                      lambda sites: f"{len(sites)} site specs")
                dataset = timed(
                    "crawl",
                    lambda: pool.run(telemetry=telemetry),
                    lambda d: f"{d.attempted} visits, "
                              f"{d.successful_count} ok ({backend})")
                timed("store",
                      lambda: _persist(CrawlStore, store_path, dataset),
                      lambda n: f"{n} visits -> {Path(store_path).name} "
                                f"(batched x{STORE_BATCH_SIZE})")
                timed("verify",
                      lambda: _verify(CrawlStore, store_path),
                      lambda r: f"{r.verified_rows}/{r.total_rows} rows "
                                f"checksummed, {len(r.corrupt)} corrupt")
                index = timed("index", lambda: DatasetIndex(dataset),
                              lambda i: f"{i.website_count} visits indexed")
                for name, analysis in (
                        ("analysis.usage", UsageAnalysis),
                        ("analysis.delegation", DelegationAnalysis),
                        ("analysis.headers", HeaderAnalysis),
                        ("analysis.overpermission", OverPermissionAnalysis)):
                    timed(name, lambda cls=analysis: cls(index))
    finally:
        if tmp_dir is not None:
            tmp_dir.cleanup()

    snap = telemetry.snapshot()
    return PipelineProfile(
        site_count=site_count, seed=seed, workers=workers, backend=backend,
        stages=stages, visits_by_worker=dict(snap.visits_by_worker),
        metrics=REGISTRY.snapshot(),
    )


def _persist(store_cls, path, dataset) -> int:
    """Persist via the explicit batched-write path.

    ``save_visits(chunk_size=STORE_BATCH_SIZE)`` is the same batched
    transaction the crawl's writer thread uses (``save_dataset`` delegates
    to it), spelled out here so the profiled store stage visibly measures
    batched commits, not per-visit ones.
    """
    with store_cls(path) as store:
        store.save_visits(dataset.visits, chunk_size=STORE_BATCH_SIZE)
    return dataset.attempted


def _verify(store_cls, path):
    with store_cls(path) as store:
        return store.verify()


def write_trace(path: "Path | str", *, chrome: bool = True) -> Path:
    """Write the current trace to ``path`` (Chrome format by default)."""
    import json

    document = (TRACER.to_chrome_trace() if chrome else TRACER.to_tree())
    path = Path(path)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return path
