"""Zero-dependency observability: tracing spans, metrics, stage profiling.

Three small pieces (DESIGN.md §4f):

* :mod:`repro.obs.tracing` — nestable :func:`span` context managers
  collected by the process-wide :data:`TRACER`, exportable as a JSON tree
  or Chrome ``trace_event`` document;
* :mod:`repro.obs.metrics` — the process-wide :data:`REGISTRY` of
  counters/gauges/histograms that telemetry, storage, the analysis index,
  the policy memo caches and the measurement disk cache report into;
* :mod:`repro.obs.profile` — a stage profiler running the whole pipeline
  (generate → crawl → store → index → analyses) under instrumentation
  (import it explicitly; it pulls in the crawler and analysis layers).

Everything is **off by default** and near-free when off; enabling it never
changes dataset bytes or analysis fields (``tests/test_obs.py``).  Turn it
on for a block with::

    from repro.obs import observed, TRACER, REGISTRY

    with observed():
        dataset = CrawlerPool(web, workers=4).run()
    TRACER.to_chrome_trace()     # load in chrome://tracing
    REGISTRY.snapshot()          # counters / gauges / histograms
"""

from __future__ import annotations

from contextlib import contextmanager

from .metrics import (
    REGISTRY,
    MetricsRegistry,
    disable_metrics,
    enable_metrics,
)
from .tracing import TRACER, Span, Tracer, span

# NOTE: metrics.COUNTING is deliberately not re-exported — it is a live
# module attribute; hot paths must read it as ``metrics.COUNTING``, never
# import the value.

__all__ = [
    "REGISTRY",
    "TRACER",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "disable_metrics",
    "enable_metrics",
    "enable_observability",
    "disable_observability",
    "ingest_job",
    "observe_job",
    "observed",
    "span",
]


def enable_observability() -> None:
    """Turn tracing and metric collection on together."""
    TRACER.enabled = True
    enable_metrics()


def disable_observability() -> None:
    """Turn both off again (collected data is kept, not cleared)."""
    TRACER.enabled = False
    disable_metrics()


@contextmanager
def observed(*, clear: bool = True):
    """Enable tracing + metrics for a block, restoring prior state after.

    With ``clear=True`` (default) previously collected spans and metric
    values are dropped on entry so the block's trace stands alone.
    """
    was_tracing = TRACER.enabled
    was_counting = REGISTRY.enabled
    if clear:
        TRACER.clear()
        REGISTRY.reset()
    enable_observability()
    try:
        yield TRACER
    finally:
        TRACER.enabled = was_tracing
        if not was_counting:
            disable_metrics()


@contextmanager
def observe_job(trace: bool, count: bool):
    """Worker half of a job's observability mirror.

    A worker process runs each job under its parent's ``trace`` / ``count``
    flags.  Tracing and metrics are process-global and carry over between
    jobs in a long-lived worker, so they are set up here per job and torn
    back down on exit.  Yields a function returning the job's exported
    ``{"spans": ..., "metrics": ...}`` (empty spans and ``None`` metrics
    when the flag is off), which the parent hands to :func:`ingest_job`.
    """
    if trace:
        TRACER.clear()
        TRACER.enabled = True
    if count:
        REGISTRY.reset()
        enable_metrics()

    def export() -> dict:
        return {"spans": tuple(TRACER.export_spans()) if trace else (),
                "metrics": REGISTRY.snapshot() if count else None}

    try:
        yield export
    finally:
        if trace:
            TRACER.enabled = False
            TRACER.clear()
        if count:
            disable_metrics()
            REGISTRY.reset()


def ingest_job(spans, metrics: "dict | None", *, pid: str) -> None:
    """Parent half of :func:`observe_job`: fold a job's exported spans
    (relabelled ``pid``) and metrics snapshot into this process."""
    if spans:
        TRACER.ingest(spans, pid=pid)
    if metrics is not None:
        REGISTRY.merge(metrics)
