"""Benchmark: the chaos drill — crash-injected crawls self-heal.

Writes ``BENCH_chaos.json`` at the repository root (CI uploads it as an
artifact); its ``quarantine_report`` section lists the quarantined ranks.
The drill crawls the same sites twice on the process backend — once
crash-free, once under a seeded :class:`~repro.crawler.chaos.ChaosPolicy`
injecting worker deaths, a hang, a poison rank and a merge failure —
with the supervisor healing every fault
(:mod:`repro.experiments.chaos_drill`).

Scale comes from ``REPRO_CHAOS_SITES`` (default 10,000; the CI
chaos row runs 3,000).

The gates are :data:`repro.experiments.chaos_drill.CHAOS_GATES`: the
chaos run completes within its rebuild budget; its export is
byte-identical (SHA-256) to the crash-free baseline's minus exactly the
quarantined poison ranks; the quarantine equals the poison plan; every
once-only injection fired per plan, the watchdog caught the hang and the
merge error was retried; no ``.wchunk-*`` sidecar survives; and the
disabled supervisor's estimated dispatch overhead stays under 2 % of a
chunk.  Gates whose fault the injection plan leaves out are recorded
under ``gates_skipped`` with the reason.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.experiments.chaos_drill import CHAOS_GATES, collect_chaos
from repro.experiments.gates import assert_gates
from repro.experiments.perf import write_report

REPORT_PATH = Path(__file__).parent.parent / "BENCH_chaos.json"

CHAOS_SITES = int(os.environ.get("REPRO_CHAOS_SITES", "10000"))


def test_perf_chaos_report(benchmark):
    report = benchmark.pedantic(
        lambda: collect_chaos(CHAOS_SITES), rounds=1, iterations=1)
    write_report(report, REPORT_PATH)
    assert_gates(report, CHAOS_GATES)
