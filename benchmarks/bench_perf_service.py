"""Benchmark: the policy service under concurrent load (DESIGN.md §4j).

Writes ``BENCH_service.json`` at the repository root (CI uploads it as
an artifact).  One measured pass boots the service in a background
thread and drives it with concurrent keep-alive socket clients cycling
a small payload pool, so the run exercises the full request path —
transport parse, rate limiter, canonical-text cache, adapters — with
genuine cache hits.

The gates are :data:`repro.experiments.service_bench.SERVICE_GATES`:
p99 latency < 250 ms, >= 150 req/s (skipped with the reason on
single-core hosts), cache hits on the repeated workload, byte-identical
responses for cosmetic spellings of one policy, and no non-200 response.

``REPRO_SERVICE_CLIENTS`` / ``REPRO_SERVICE_REQUESTS`` scale the run
(defaults: 8 clients x 120 requests; CI smoke uses a smaller tier).
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.experiments.gates import assert_gates
from repro.experiments.perf import write_report
from repro.experiments.service_bench import (
    DEFAULT_CLIENTS,
    DEFAULT_REQUESTS_PER_CLIENT,
    SERVICE_GATES,
    collect_service_bench,
)

REPORT_PATH = Path(__file__).parent.parent / "BENCH_service.json"


def test_perf_service_report(benchmark):
    clients = int(os.environ.get("REPRO_SERVICE_CLIENTS", DEFAULT_CLIENTS))
    requests = int(os.environ.get("REPRO_SERVICE_REQUESTS",
                                  DEFAULT_REQUESTS_PER_CLIENT))
    report = benchmark.pedantic(
        collect_service_bench, rounds=1, iterations=1,
        kwargs={"clients": clients, "requests_per_client": requests})
    write_report(report, REPORT_PATH)
    assert_gates(report, SERVICE_GATES)
