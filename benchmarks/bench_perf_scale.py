"""Benchmark: paper-scale crawls — streaming storage, bounded memory.

Writes ``BENCH_scale.json`` at the repository root (CI uploads it as an
artifact).  Each tier runs crawl → export → summarize with every phase in
its own spawn subprocess so peak RSS is attributable per phase.

Tiers come from ``REPRO_SCALE_TIERS`` (comma-separated site counts;
default ``10000,100000`` — CI smoke sets ``10000``).

The gates are :data:`repro.experiments.scale.SCALE_GATES`: every phase's
peak RSS under a fixed bound, the store stage at most 25 % of crawl wall
time, the structural decision memo above 50 % hits, parallel summarize
identical to serial (and faster at the largest tier when the runner has
cores), and on a >= 4-CPU runner process >= 2x serial on the 10k tier.
Gates the runner cannot evaluate are recorded under ``gates_skipped``
with the reason.
"""

from __future__ import annotations

from pathlib import Path

from repro.experiments.gates import assert_gates
from repro.experiments.perf import write_report
from repro.experiments.scale import SCALE_GATES, collect_scale

REPORT_PATH = Path(__file__).parent.parent / "BENCH_scale.json"


def test_perf_scale_report(benchmark):
    report = benchmark.pedantic(collect_scale, rounds=1, iterations=1)
    write_report(report, REPORT_PATH)
    assert_gates(report, SCALE_GATES)
