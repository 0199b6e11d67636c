"""Benchmark: the longitudinal drift engine (DESIGN.md §4i).

Writes ``BENCH_drift.json`` at the repository root (CI uploads it as an
artifact).  The three era stores are built in the parent through the
measurement cache; every measured phase — self-diff, the 2020→2024
cross-era diff, and two independent HTML renders — runs in its own spawn
subprocess so peak RSS is attributable per phase.

The gates are :data:`repro.experiments.drift_study.DRIFT_GATES`: an
empty self-diff, a cross-era diff of changed sites only that streams
inside the scale harness's RSS bound and the wall-time bound,
byte-identical HTML across two subprocess renders, and the paper's
Fig. 2 direction from the stored crawls.

``REPRO_DRIFT_SITES`` scales the run (default 10,000 sites per era;
CI smoke uses 2,000).
"""

from __future__ import annotations

from pathlib import Path

from repro.experiments.drift_study import DRIFT_GATES, collect_drift_bench
from repro.experiments.gates import assert_gates
from repro.experiments.perf import write_report

REPORT_PATH = Path(__file__).parent.parent / "BENCH_drift.json"


def test_perf_drift_report(benchmark):
    report = benchmark.pedantic(collect_drift_bench, rounds=1, iterations=1)
    write_report(report, REPORT_PATH)
    assert_gates(report, DRIFT_GATES)
