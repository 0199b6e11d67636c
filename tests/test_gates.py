"""Tests for the one gate evaluator behind the ``BENCH_*.json`` benches.

Every report here is canned: no crawl runs.  Each canned report has the
shape its bench assembles on a 2-CPU host, so the tables can be checked
for the exact gate names they declare, and the host-dependent ones for
their skip reasons.
"""

import copy
import os

import pytest

from repro.cli import main
from repro.experiments import gates, service_bench
from repro.experiments.chaos_drill import CHAOS_GATES
from repro.experiments.drift_study import DRIFT_GATES
from repro.experiments.gates import Gate, assert_gates, evaluate
from repro.experiments.perf import ANALYSIS_GATES, CRAWL_GATES
from repro.experiments.scale import SCALE_GATES
from repro.experiments.service_bench import SERVICE_GATES

HOST = {"cpu_count": 2, "python": "3.11.7", "code_fingerprint": "0" * 16}

CRAWL = {
    "site_count": 10_000, **HOST,
    "crawl": {"serial": {"seconds": 1.5},
              "process": {"seconds": 1.1,
                          "chunk_schedule": {"sizes": [6000, 4000]}}},
    "cache": {"cold_seconds": 1.8, "warm_seconds": 0.15,
              "warm_over_cold": 0.0833},
    "observability": {"rounds": 3, "enabled_overhead": 0.05,
                      "span_count": 10_001, "metric_increments": 439_381,
                      "disabled_overhead_estimate": 0.005,
                      "datasets_identical": True},
    "stages": {"stages": [{"name": name} for name in (
        "generate", "crawl", "store", "index", "analysis.usage")]},
}

ANALYSIS = {
    "site_count": 500, **HOST,
    "stages": [{"name": name} for name in (
        "index", "usage", "delegation", "headers", "overpermission")],
    "legacy_seconds": 0.4, "indexed_serial_seconds": 0.1,
    "speedup_serial_vs_legacy": 4.0, "summaries_identical": True,
}

_PHASE = {"peak_rss_bytes": 40 << 20}
SCALE = {
    **HOST,
    "tiers": [{
        "site_count": 10_000,
        "crawl": {**_PHASE, "store_share": 0.1, "sites_per_second": 5000.0},
        "export": {**_PHASE, "visits": 10_000},
        "summarize": {**_PHASE, "attempted": 10_000, "seconds": 2.0},
        "summarize_parallel": {"attempted": 10_000, "seconds": 1.5,
                               "identical_to_serial": True},
    }],
    "memo": {"hit_rate": 0.8, "summaries_identical": True},
}

_RENDER = {"sha256": "ab" * 32, "bytes": 9000,
           "pp_top_level_share": [0.01, 0.05, 0.12],
           "fp_top_level_share": [0.011, 0.010, 0.008]}
DRIFT = {
    "site_count": 2000, **HOST,
    "self_diff": {"is_empty": True, "unchanged": 2000},
    "cross_diff": {"peak_rss_bytes": 60 << 20, "seconds": 1.2, "added": 0,
                   "removed": 0, "changed": 300, "pp_delta": 0.11},
    "render_first": _RENDER, "render_second": dict(_RENDER),
}

CHAOS = {
    "site_count": 3000, **HOST, "rebuild_budget": 25,
    "injection_plan": {"kill": [10, 20, 30], "hang": [2500],
                       "poison": [40], "merge": [50]},
    "injections_fired": {"kill": [10, 20, 30], "hang": [2500],
                         "merge": [50]},
    "chaos": {"visits": 2999, "export_sha256": "cd" * 32,
              "truth_minus_quarantine_sha256": "cd" * 32},
    "supervisor": {"rebuilds": 12, "requeued_ranks": 900,
                   "watchdog_hangs": 1, "merge_retries": 1},
    "quarantine_report": {"quarantined_ranks": [40]},
    "supervision_off_overhead": {"share_of_chunk": 0.0001},
    "sidecar_leftovers": [],
}

SERVICE = {
    **HOST,
    "load": {"requests": 240, "seconds": 0.27,
             "requests_per_second": 900.0, "p99_latency_seconds": 0.01,
             "non_200_responses": 0},
    "cache": {"hit_rate": 0.5},
    "byte_identity": {"variant_bodies_identical": True},
}

# The gate names each bench's parent document recorded (evaluated or
# skipped), and the names added for its former bench-file asserts.
CASES = {
    "crawl": (CRAWL_GATES, CRAWL, {
        "obs_datasets_identical", "disabled_obs_overhead_under_bound",
        "process_not_slower_than_serial", "process_2x_serial",
    }, {
        "crawl_backends_timed", "cache_warm_beats_cold",
        "cache_warm_over_cold_under_bound", "chunk_schedule_covers_sites",
        "obs_recorded_spans_and_metrics", "obs_best_of_rounds",
        "obs_enabled_overhead_above_floor", "stages_cover_pipeline",
    }),
    "analysis": (ANALYSIS_GATES, ANALYSIS, set(), {
        "summaries_identical", "paths_timed", "stages_named",
        "indexed_not_slower_than_legacy", "indexed_3x_legacy",
    }),
    "scale": (SCALE_GATES, SCALE, {
        "peak_rss_within_bound", "store_share_within_bound",
        "memo_rate_above_bound", "memo_summaries_identical",
        "summarize_parallel_identical", "process_2x_serial",
        "summarize_parallel_faster",
    }, {
        "crawl_throughput_positive", "export_covers_sites",
        "summarize_covers_sites",
    }),
    "drift": (DRIFT_GATES, DRIFT, {
        "self_diff_empty", "diff_rss_within_bound", "diff_time_within_bound",
        "html_deterministic", "fig2_pp_rises", "fig2_fp_falls",
    }, {
        "self_diff_covers_sites", "cross_diff_no_churn",
        "cross_diff_changed", "cross_diff_pp_rises", "html_rendered",
    }),
    "chaos": (CHAOS_GATES, CHAOS, {
        "chaos_run_completed", "byte_identical_modulo_quarantine",
        "quarantine_matches_poison_plan", "kills_fired_per_plan",
        "rebuilds_within_budget", "crash_recovery_counts",
        "no_sidecar_leftovers", "hang_caught_by_watchdog",
        "merge_retry_recovered", "supervision_off_overhead_under_bound",
    }, {"visits_match_sites_minus_quarantine"}),
    "service": (SERVICE_GATES, SERVICE, {
        "p99_latency_under_bound", "throughput_at_least",
        "cache_hit_rate_positive", "byte_identical_responses",
        "all_responses_ok",
    }, set()),
}


def _names(report: dict) -> set:
    return set(report["gates"]) | {
        entry["gate"] for entry in report["gates_skipped"]}


class TestTables:
    @pytest.mark.parametrize("bench", sorted(CASES))
    def test_canned_report_yields_the_parent_gate_names(self, bench):
        table, canned, parent, added = CASES[bench]
        report = evaluate(copy.deepcopy(canned), table)
        assert parent <= _names(report)
        assert _names(report) == parent | added
        assert len({gate.name for gate in table}) == len(table)
        assert all(report["gates"].values()), report["gates"]
        assert_gates(report, table)

    def test_process_2x_skipped_on_two_cpus(self):
        report = evaluate(copy.deepcopy(CRAWL), CRAWL_GATES)
        assert "process_2x_serial" not in report["gates"]
        assert {"gate": "process_2x_serial",
                "reason": "needs >= 4 CPUs (have 2) and >= 10000 sites "
                          "(have 10000)"} in report["gates_skipped"]
        assert report["gates"]["process_not_slower_than_serial"]

    def test_process_2x_evaluated_on_four_cpus(self):
        report = evaluate({**copy.deepcopy(CRAWL), "cpu_count": 4},
                          CRAWL_GATES)
        assert report["gates"]["process_2x_serial"] is False
        assert report["gates_skipped"] == []

    def test_scale_race_skip_reads_the_smallest_tier(self):
        report = evaluate(copy.deepcopy(SCALE), SCALE_GATES)
        assert report["gates_skipped"] == [{
            "gate": "process_2x_serial",
            "reason": "no backend race: needs >= 4 CPUs (have 2) and "
                      ">= 10000 sites (have 10000)"}]

    def test_scale_race_without_a_reading_raises(self):
        with pytest.raises(KeyError, match="backend_race"):
            evaluate({**copy.deepcopy(SCALE), "cpu_count": 4}, SCALE_GATES)

    def test_single_core_skips_carry_reasons(self):
        for table, canned in ((CRAWL_GATES, CRAWL), (SCALE_GATES, SCALE),
                              (SERVICE_GATES, SERVICE)):
            report = evaluate({**copy.deepcopy(canned), "cpu_count": 1},
                              table)
            assert all("cpu_count=1" in entry["reason"] or
                       "have 1" in entry["reason"]
                       for entry in report["gates_skipped"])
            assert_gates(report, table)

    def test_analysis_target_skipped_below_its_scale(self):
        report = evaluate({**copy.deepcopy(ANALYSIS), "site_count": 300},
                          ANALYSIS_GATES)
        assert report["gates_skipped"] == [{
            "gate": "indexed_3x_legacy",
            "reason": "needs >= 500 sites (have 300)"}]

    def test_chaos_plan_without_hangs_skips_the_watchdog_gate(self):
        report = copy.deepcopy(CHAOS)
        report["injection_plan"]["hang"] = []
        report["injections_fired"]["hang"] = []
        evaluate(report, CHAOS_GATES)
        assert report["gates_skipped"] == [{
            "gate": "hang_caught_by_watchdog",
            "reason": "no hangs in the injection plan"}]


class TestEvaluator:
    TABLE = (Gate("fast", lambda r: r["seconds"] < 1.0),
             Gate("cores", lambda r: True,
                  lambda r: None if r["cpu_count"] >= 4 else "needs 4"))

    def test_failed_gate_fails(self):
        report = evaluate({"seconds": 2.0, "cpu_count": 4}, self.TABLE)
        assert report["gates"] == {"fast": False, "cores": True}
        with pytest.raises(AssertionError, match="fast failed"):
            assert_gates(report, self.TABLE)

    def test_declared_gate_missing_from_both_fails(self):
        report = {"gates": {"fast": True}, "gates_skipped": []}
        with pytest.raises(AssertionError, match="cores neither evaluated"):
            assert_gates(report, self.TABLE)

    def test_skip_without_reason_fails(self):
        report = {"gates": {"fast": True},
                  "gates_skipped": [{"gate": "cores", "reason": ""}]}
        with pytest.raises(AssertionError, match="cores neither evaluated"):
            assert_gates(report, self.TABLE)

    def test_skip_with_reason_passes(self):
        report = evaluate({"seconds": 0.5, "cpu_count": 2}, self.TABLE)
        assert report["gates_skipped"] == [{"gate": "cores",
                                            "reason": "needs 4"}]
        assert_gates(report, self.TABLE)

    def test_missing_reading_raises(self):
        with pytest.raises(KeyError, match="seconds"):
            evaluate({"cpu_count": 4}, self.TABLE)

    def test_missing_host_fact_raises(self):
        with pytest.raises(KeyError, match="cpu_count"):
            evaluate({"seconds": 0.5}, self.TABLE)


class TestHostFacts:
    def test_every_fact_is_present(self):
        facts = gates.host_facts()
        assert set(facts) == {"cpu_count", "python", "code_fingerprint"}
        assert len(facts["code_fingerprint"]) == 16

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                        reason="no CPU affinity API on this platform")
    def test_cpu_count_is_the_affinity_mask(self):
        assert gates.host_facts()["cpu_count"] == \
            len(os.sched_getaffinity(0))


class TestServiceBenchExitCode:
    def _run(self, monkeypatch, tmp_path, report):
        monkeypatch.setattr(service_bench, "collect_service_bench",
                            lambda **_: report)
        return main(["service-bench", "--output",
                     str(tmp_path / "BENCH_service.json")])

    def test_failing_gate_exits_1(self, monkeypatch, tmp_path, capsys):
        report = copy.deepcopy(SERVICE)
        report["load"]["p99_latency_seconds"] = 0.5
        assert self._run(monkeypatch, tmp_path,
                         evaluate(report, SERVICE_GATES)) == 1

    def test_skipped_gate_exits_0(self, monkeypatch, tmp_path, capsys):
        report = evaluate({**copy.deepcopy(SERVICE), "cpu_count": 1},
                          SERVICE_GATES)
        assert [entry["gate"] for entry in report["gates_skipped"]] == [
            "throughput_at_least"]
        assert self._run(monkeypatch, tmp_path, report) == 0
        assert "skipped throughput_at_least" in capsys.readouterr().out
