"""Benchmark: the shared-index analysis pipeline against the legacy one.

Crawls once, then times :func:`repro.analysis.legacy.summarize_legacy`
(the pre-index multi-pass implementation, with parser interning disabled
so it pays its original re-parse cost) against the indexed
:func:`repro.analysis.summary.summarize`, and writes
``BENCH_analysis.json`` at the repository root (CI uploads it as an
artifact).

Scale comes from ``REPRO_PERF_SITES`` (default 2,000; CI smoke uses 500).
Enforcement: both paths must produce field-identical summaries, and the
indexed path must never be slower than the legacy one.  The 3x
speedup target is recorded in the report and asserted at CI scale.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.experiments.perf import collect_analysis, write_report

REPORT_PATH = Path(__file__).parent.parent / "BENCH_analysis.json"
PERF_SITES = int(os.environ.get("REPRO_PERF_SITES",
                                os.environ.get("REPRO_SITES", "2000")))


def test_perf_analysis_report(benchmark):
    report = benchmark.pedantic(collect_analysis, args=(PERF_SITES,),
                                rounds=1, iterations=1)
    write_report(report, REPORT_PATH)

    assert report["summaries_identical"], \
        "indexed summarize() diverged from the legacy implementation"
    assert report["legacy_seconds"] > 0
    # Stage breakdown: index build plus each headline analysis.
    assert {stage["name"] for stage in report["stages"]} == {
        "index", "usage", "delegation", "headers", "overpermission"}
    assert report["indexed_serial_seconds"] > 0

    # Hard floor: the index must never lose to the legacy path.
    assert report["speedup_serial_vs_legacy"] >= 1.0, (
        f"indexed serial summarize ({report['indexed_serial_seconds']}s) "
        f"slower than legacy ({report['legacy_seconds']}s)")

    # Target: >= 3x at the 500-site CI scale and above.
    if PERF_SITES >= 500:
        assert report["speedup_serial_vs_legacy"] >= 3.0, (
            f"expected >= 3x speedup over the legacy pipeline, got "
            f"{report['speedup_serial_vs_legacy']}x")
