"""Benchmark: the shared-index analysis pipeline against the legacy one.

Crawls once, then times :func:`repro.analysis.legacy.summarize_legacy`
(the pre-index multi-pass implementation, with parser interning disabled
so it pays its original re-parse cost) against the indexed
:func:`repro.analysis.summary.summarize`, and writes
``BENCH_analysis.json`` at the repository root (CI uploads it as an
artifact).

Scale comes from ``REPRO_PERF_SITES`` (default 2,000; CI uses 500).
The gates are :data:`repro.experiments.perf.ANALYSIS_GATES`: identical
summaries, the index never slower than legacy, and >= 3x at >= 500
sites (skipped with the reason below that scale).
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.experiments.gates import assert_gates
from repro.experiments.perf import (
    ANALYSIS_GATES,
    collect_analysis,
    write_report,
)

REPORT_PATH = Path(__file__).parent.parent / "BENCH_analysis.json"
PERF_SITES = int(os.environ.get("REPRO_PERF_SITES",
                                os.environ.get("REPRO_SITES", "2000")))


def test_perf_analysis_report(benchmark):
    report = benchmark.pedantic(collect_analysis, args=(PERF_SITES,),
                                rounds=1, iterations=1)
    write_report(report, REPORT_PATH)
    assert_gates(report, ANALYSIS_GATES)
