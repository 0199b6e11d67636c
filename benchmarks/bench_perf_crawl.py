"""Benchmark: the crawl pipeline's wall-clock profile across backends.

Unlike the table/figure benches, this one times the *machinery*: site
generation, the crawl under each backend, analysis, and the persistent
measurement cache — and writes ``BENCH_crawl.json`` at the repository root
so the perf trajectory is tracked in-repo (CI uploads it as an artifact).
The process backend's realised chunk schedule is recorded in it.

Scale comes from ``REPRO_PERF_SITES`` (default 2,000; CI uses 10,000).
The gates are :data:`repro.experiments.perf.CRAWL_GATES`; one the host
cannot evaluate (process >= 2x serial needs >= 4 CPUs and >= 10k sites)
is recorded under ``gates_skipped`` with the reason.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.experiments.gates import assert_gates, host_facts
from repro.experiments.perf import CRAWL_GATES, collect, write_report

REPORT_PATH = Path(__file__).parent.parent / "BENCH_crawl.json"
PERF_SITES = int(os.environ.get("REPRO_PERF_SITES",
                                os.environ.get("REPRO_SITES", "2000")))


def test_perf_crawl_report(benchmark):
    # No more workers than CPUs this process may run on: beyond that the
    # backend gates would measure oversubscription.
    workers = min(4, host_facts()["cpu_count"])
    report = benchmark.pedantic(collect, args=(PERF_SITES,),
                                kwargs={"workers": workers},
                                rounds=1, iterations=1)
    write_report(report, REPORT_PATH)
    assert_gates(report, CRAWL_GATES)
