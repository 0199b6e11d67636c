"""Benchmark: the chaos drill — crash-injected crawls self-heal.

Writes ``BENCH_chaos.json`` (and the quarantine report
``BENCH_chaos_quarantine.json``) at the repository root; CI uploads both
as artifacts.  The drill crawls the same sites twice on the process
backend — once crash-free, once under a seeded
:class:`~repro.crawler.chaos.ChaosPolicy` injecting worker deaths, a
hang, a poison rank and a merge failure — with the supervisor healing
every fault (:mod:`repro.experiments.chaos_drill`).

Scale comes from ``REPRO_CHAOS_SITES`` (default 10,000; the CI
chaos-smoke job runs smaller).

Enforced gates (also recorded under ``gates`` in the document):

* the chaos run completes without raising, within the rebuild budget;
* its export is byte-identical (SHA-256) to the crash-free baseline's
  minus exactly the quarantined poison ranks;
* quarantined ranks == the injection plan's poison ranks — a crash
  loses and strikes only the chunk its dead worker held, and the
  watchdog only the chunk it found hung, so nothing else is lost;
* every once-only injection fired exactly per plan, the watchdog caught
  the hang, and the merge error was retried;
* no ``.wchunk-*`` sidecar wreckage survives the run;
* the disabled supervisor's estimated dispatch overhead stays under 2 %
  of a chunk's duration.

Gates without a meaningful reading for the chosen injection plan are
recorded under ``gates_skipped`` with the reason.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.experiments.chaos_drill import collect_chaos
from repro.experiments.perf import write_report

REPORT_PATH = Path(__file__).parent.parent / "BENCH_chaos.json"
QUARANTINE_PATH = (Path(__file__).parent.parent
                   / "BENCH_chaos_quarantine.json")

CHAOS_SITES = int(os.environ.get("REPRO_CHAOS_SITES", "10000"))


def test_perf_chaos_report(benchmark):
    report = benchmark.pedantic(
        lambda: collect_chaos(CHAOS_SITES), rounds=1, iterations=1)
    write_report(report, REPORT_PATH)
    QUARANTINE_PATH.write_text(
        json.dumps(report["quarantine_report"], indent=2) + "\n")

    gates = report["gates"]
    for gate, passed in gates.items():
        assert passed, (
            f"chaos gate {gate!r} failed: "
            f"supervisor={report['supervisor']}, "
            f"fired={report['injections_fired']}")

    assert "gates_skipped" in report
    skipped = {entry["gate"] for entry in report["gates_skipped"]}
    for gate in ("hang_caught_by_watchdog", "merge_retry_recovered"):
        assert gate in gates or gate in skipped, (
            f"{gate} neither evaluated nor recorded as skipped")

    assert report["chaos"]["visits"] == (
        report["site_count"]
        - len(report["quarantine_report"]["quarantined_ranks"]))
