"""Benchmark: paper-scale crawls — streaming storage, bounded memory.

Writes ``BENCH_scale.json`` at the repository root (CI uploads it as an
artifact).  Each tier runs crawl → export → summarize with every phase in
its own spawn subprocess so peak RSS is attributable per phase.

Tiers come from ``REPRO_SCALE_TIERS`` (comma-separated site counts;
default ``10000,100000`` — CI smoke sets ``10000``).

Enforced gates (also recorded under ``gates`` in the document):

* every phase's peak RSS stays under the fixed bound
  (:data:`~repro.experiments.scale.RSS_BOUND_BYTES`) — the
  ``collect=False`` bounded-memory contract;
* the store stage (writer-thread CPU inside the store lock) stays at or
  below 25 % of crawl wall time — batched transactions, not per-visit
  commits;
* the policy engine's structural decision memo hits on > 50 % of explain
  decisions over the 500-site calibration crawl, with the streaming
  summary field-identical to the materialized one;
* the process-parallel summarize produces a digest-identical summary on
  every tier — and beats the serial pass at the largest tier when the
  runner has cores;
* on a >= 4-core runner, the warm process backend crawls the 10k tier at
  least 2x faster than serial (the ``backend_race`` section).

Gates that cannot be meaningfully evaluated on the runner (e.g. the 2x
race on a single-core container) are recorded under ``gates_skipped``
with the reason instead of silently passing.
"""

from __future__ import annotations

from pathlib import Path

from repro.experiments.perf import write_report
from repro.experiments.scale import (
    MEMO_RATE_BOUND,
    RSS_BOUND_BYTES,
    STORE_SHARE_BOUND,
    collect_scale,
)

REPORT_PATH = Path(__file__).parent.parent / "BENCH_scale.json"


def test_perf_scale_report(benchmark):
    report = benchmark.pedantic(collect_scale, rounds=1, iterations=1)
    write_report(report, REPORT_PATH)

    for tier in report["tiers"]:
        for phase in ("crawl", "export", "summarize"):
            rss = tier[phase]["peak_rss_bytes"]
            assert rss < RSS_BOUND_BYTES, (
                f"{phase} at {tier['site_count']} sites peaked at "
                f"{rss / 2**20:.0f} MiB (bound: "
                f"{RSS_BOUND_BYTES / 2**20:.0f} MiB)")
        share = tier["crawl"]["store_share"]
        assert share <= STORE_SHARE_BOUND, (
            f"store stage took {share:.1%} of crawl wall time at "
            f"{tier['site_count']} sites (gate: {STORE_SHARE_BOUND:.0%})")
        assert tier["crawl"]["sites_per_second"] > 0
        assert tier["export"]["visits"] == tier["site_count"]
        assert tier["summarize"]["attempted"] == tier["site_count"]
        parallel = tier["summarize_parallel"]
        assert parallel["attempted"] == tier["site_count"]
        assert parallel["identical_to_serial"], (
            f"parallel summarize diverged from serial at "
            f"{tier['site_count']} sites")

    memo = report["memo"]
    assert memo["hit_rate"] > MEMO_RATE_BOUND, (
        f"explain memo hit rate {memo['hit_rate']:.1%} on the "
        f"{memo['site_count']}-site crawl (gate: {MEMO_RATE_BOUND:.0%})")
    assert memo["summaries_identical"], \
        "streaming summary diverged from the materialized summary"

    gates = report["gates"]
    assert all(gates[key] for key in (
        "peak_rss_within_bound", "store_share_within_bound",
        "memo_rate_above_bound",
        "memo_summaries_identical", "summarize_parallel_identical"))

    # Runner-capability gates: enforced when present, recorded as skipped
    # (with the reason) when the runner cannot evaluate them.
    assert "gates_skipped" in report
    skipped = {entry["gate"] for entry in report["gates_skipped"]}
    for gate in ("process_2x_serial", "summarize_parallel_faster"):
        if gate in gates:
            assert gates[gate], f"{gate} gate failed: {report.get('backend_race')}"
        else:
            assert gate in skipped, (
                f"{gate} neither evaluated nor recorded as skipped")
