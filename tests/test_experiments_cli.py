"""Tests for the experiment drivers and the CLI (small crawl scale)."""

import pytest

from repro.cli import main
from repro.experiments.runner import run_measurement
from repro.experiments.tables import (
    ALL_EXPERIMENTS,
    fig01_instrumentation,
    fig03_support_matrix,
    fig04_header_generator,
    table01_policy_cases,
    table02_registry,
    table11_spec_issue,
)

SCALE = 2500


@pytest.fixture(scope="module")
def ctx():
    return run_measurement(SCALE, workers=2)


class TestCrawlFreeExperiments:
    def test_table01_shape_ok(self):
        assert table01_policy_cases().shape_ok

    def test_table02_shape_ok(self):
        assert table02_registry().shape_ok

    def test_table11_shape_ok(self):
        assert table11_spec_issue().shape_ok

    def test_fig01_shape_ok(self):
        assert fig01_instrumentation().shape_ok

    def test_fig03_shape_ok(self):
        assert fig03_support_matrix().shape_ok

    def test_fig04_shape_ok(self):
        assert fig04_header_generator().shape_ok


class TestCrawlExperiments:
    """At small scale some rankings are noisy; we assert the drivers run
    and the scale-robust ones keep their shape."""

    def test_all_experiments_produce_output(self, ctx):
        for name, fn in ALL_EXPERIMENTS.items():
            result = fn(ctx)
            assert result.rendered, name
            assert result.experiment_id

    @pytest.mark.parametrize("name", [
        "crawl_overview", "table03", "table10", "livechat", "fig02",
        "delegation_directives", "summary",
    ])
    def test_scale_robust_experiments_keep_shape(self, ctx, name):
        assert ALL_EXPERIMENTS[name](ctx).shape_ok, name

    def test_runner_caches(self):
        a = run_measurement(SCALE, workers=2)
        b = run_measurement(SCALE, workers=2)
        assert a is b

    def test_scale_factor(self, ctx):
        assert ctx.scale_factor == pytest.approx(1_000_000 / SCALE)


class TestCli:
    def test_support(self, capsys):
        assert main(["support"]) == 0
        assert "camera" in capsys.readouterr().out

    def test_generate_header(self, capsys):
        assert main(["generate-header", "--preset", "disable-all"]) == 0
        assert "camera=()" in capsys.readouterr().out

    def test_lint_header_clean(self, capsys):
        assert main(["lint-header", "camera=()"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_lint_header_fatal(self, capsys):
        assert main(["lint-header", "camera 'self'"]) == 1
        assert "FATAL" in capsys.readouterr().out

    def test_poc(self, capsys):
        assert main(["poc"]) == 0
        assert "bypass" in capsys.readouterr().out.lower()

    def test_poc_blocked_by_csp(self, capsys):
        assert main(["poc", "--csp", "frame-src 'none'"]) == 1

    def test_crawl_analyze_roundtrip(self, tmp_path, capsys):
        database = str(tmp_path / "c.sqlite")
        assert main(["crawl", "--sites", "300", "--workers", "2",
                     "--database", database]) == 0
        assert main(["analyze", "--database", database]) == 0
        out = capsys.readouterr().out
        assert "paper" in out and "measured" in out

    def test_crawl_resume_and_progress(self, tmp_path, capsys):
        database = str(tmp_path / "resume.sqlite")
        assert main(["crawl", "--sites", "120", "--workers", "2",
                     "--retries", "2", "--progress",
                     "--database", database]) == 0
        first = capsys.readouterr().out
        assert "queue depth" in first and "throughput" in first
        assert main(["crawl", "--sites", "120", "--workers", "2",
                     "--resume", "--database", database]) == 0
        second = capsys.readouterr().out
        assert "120 resumed" in second

    def test_no_collect_resume_summary_matches_uninterrupted_run(
            self, tmp_path, capsys):
        import re
        import sqlite3

        def summary(database: str, *extra: str) -> tuple:
            assert main(["crawl", "--sites", "120", "--no-collect",
                         "--database", database, *extra]) == 0
            line = capsys.readouterr().out.strip().splitlines()[-1]
            match = re.match(r"crawled (\d+) sites \((\d+) ok; (.*?)"
                             r"(?:; (\d+) resumed)?\) via", line)
            assert match, line
            return match.groups()

        full = summary(str(tmp_path / "full.sqlite"))
        partial = str(tmp_path / "partial.sqlite")
        summary(partial)
        # Keep every third rank, as a crawl interrupted part-way would.
        conn = sqlite3.connect(partial)
        with conn:
            for table in ("visits", "frames", "calls", "scripts", "prompts"):
                conn.execute(f"DELETE FROM {table} WHERE rank % 3 != 0")
        conn.close()
        resumed = summary(partial, "--resume")
        assert full[3] is None and resumed[3] == "40"
        # Telemetry alone would count only the 80 ranks crawled now.
        assert resumed[:3] == full[:3]
        assert int(full[1]) < 120 and full[2]

    def test_telemetry_subcommand(self, capsys):
        assert main(["telemetry", "--sites", "100", "--workers", "2",
                     "--fault-rate", "0.25", "--crash-rate", "0.05",
                     "--retries", "2"]) == 0
        out = capsys.readouterr().out
        assert "visits      100/100" in out
        assert "retries" in out and "throughput" in out

    def test_experiment_subcommand(self, capsys):
        assert main(["experiment", "table01", "--sites", "300"]) == 0
        assert "Table 1" in capsys.readouterr().out

    def test_recommend(self, capsys):
        assert main(["recommend", "--sites", "400", "--rank", "1"]) == 0
        assert "suggested header" in capsys.readouterr().out


class TestCliExtensions:
    def test_export_list(self, tmp_path, capsys):
        out = str(tmp_path / "origins.csv")
        assert main(["export-list", "--sites", "50", "--output", out]) == 0
        lines = open(out).read().strip().splitlines()
        assert lines[0] == "rank,origin"
        assert len(lines) == 51
        assert lines[1].startswith("0,https://site-0000000.")

    def test_poc_html(self, tmp_path, capsys):
        out = str(tmp_path / "poc")
        assert main(["poc-html", "--output-dir", out]) == 0
        import os
        assert os.path.exists(os.path.join(out, "poc-data.html"))
        assert os.path.exists(os.path.join(out, "poc-srcdoc.html"))
        markup = open(os.path.join(out, "poc-data.html")).read()
        assert "data:text/html," in markup

    def test_export_registry(self, tmp_path, capsys):
        import json
        out = str(tmp_path / "features.json")
        assert main(["export-registry", "--output", out]) == 0
        data = json.load(open(out))
        names = {row["permission"] for row in data["permissions"]}
        assert {"camera", "browsing-topics"} <= names
        camera = next(row for row in data["permissions"]
                      if row["permission"] == "camera")
        assert camera["powerful"] and camera["policy_controlled"]
        assert camera["support"]["Chromium"]

    def test_widget_report(self, capsys):
        assert main(["widget-report", "--sites", "1500",
                     "--site", "livechatinc.com"]) == 0
        out = capsys.readouterr().out
        assert "livechatinc.com" in out
        assert "SUPPLY-CHAIN RISK" in out


class TestHardeningCli:
    """DESIGN.md §4g subcommands: verify-store, export/import-jsonl."""

    def _crawl(self, tmp_path, capsys):
        database = str(tmp_path / "h.sqlite")
        assert main(["crawl", "--sites", "40", "--workers", "2",
                     "--database", database]) == 0
        capsys.readouterr()
        return database

    def test_verify_store_clean(self, tmp_path, capsys):
        database = self._crawl(tmp_path, capsys)
        assert main(["verify-store", "--database", database]) == 0
        out = capsys.readouterr().out
        assert "verifies clean" in out

    def test_verify_store_corrupt_repair_cycle(self, tmp_path, capsys):
        import sqlite3
        database = self._crawl(tmp_path, capsys)
        conn = sqlite3.connect(database)
        conn.execute("UPDATE frames SET headers = '{x' WHERE rank = 3")
        conn.commit()
        conn.close()
        # Detection fails the command; --repair quarantines and succeeds.
        assert main(["verify-store", "--database", database]) == 1
        assert "decode-error" in capsys.readouterr().out
        assert main(["verify-store", "--database", database,
                     "--repair"]) == 0
        assert "moved to quarantine" in capsys.readouterr().out
        assert main(["verify-store", "--database", database]) == 0
        assert "already quarantined" in capsys.readouterr().out

    def test_verify_store_json(self, tmp_path, capsys):
        import json
        database = self._crawl(tmp_path, capsys)
        assert main(["verify-store", "--database", database,
                     "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] and report["total_rows"] == 40

    def test_jsonl_round_trip_via_cli(self, tmp_path, capsys):
        database = self._crawl(tmp_path, capsys)
        out = str(tmp_path / "v.jsonl")
        second = str(tmp_path / "h2.sqlite")
        assert main(["export-jsonl", "--database", database,
                     "--output", out]) == 0
        assert "wrote 40 visits" in capsys.readouterr().out
        assert main(["import-jsonl", "--input", out,
                     "--database", second]) == 0
        assert "imported 40 visits" in capsys.readouterr().out
        from repro.crawler.storage import CrawlStore
        with CrawlStore(database) as a, CrawlStore(second) as b:
            assert a.load_dataset().visits == b.load_dataset().visits
            assert b.verify().ok

    def test_import_jsonl_repeated_rank_keeps_last_copy(self, tmp_path,
                                                        capsys):
        import json
        from repro.crawler.storage import CrawlStore
        database = self._crawl(tmp_path, capsys)
        out = tmp_path / "v.jsonl"
        assert main(["export-jsonl", "--database", database,
                     "--output", str(out)]) == 0
        capsys.readouterr()
        *records, trailer = out.read_text(encoding="utf-8").splitlines()
        again = json.loads(records[3])
        again["retries"] += 5
        trailer_data = json.loads(trailer)
        (key,) = trailer_data
        trailer_data[key]["count"] += 1
        lines = [*records, json.dumps(again), json.dumps(trailer_data)]
        out.write_text("\n".join(lines) + "\n", encoding="utf-8")
        second = str(tmp_path / "dup.sqlite")
        assert main(["import-jsonl", "--input", str(out),
                     "--database", second]) == 0
        assert "imported 41 visits" in capsys.readouterr().out
        with CrawlStore(second) as store:
            assert store.verify().ok
            visits = store.load_dataset().visits
        assert len(visits) == 40
        (repeated,) = [v for v in visits if v.rank == again["rank"]]
        assert repeated.retries == again["retries"]
        assert main(["verify-store", "--database", second]) == 0

    def test_import_jsonl_skips_malformed_lines(self, tmp_path, capsys):
        from pathlib import Path
        database = self._crawl(tmp_path, capsys)
        out = tmp_path / "v.jsonl"
        assert main(["export-jsonl", "--database", database,
                     "--output", str(out)]) == 0
        capsys.readouterr()
        lines = out.read_text(encoding="utf-8").splitlines()
        lines[4] = "garbage"
        out.write_text("\n".join(lines) + "\n", encoding="utf-8")
        second = str(tmp_path / "h3.sqlite")
        assert main(["import-jsonl", "--input", str(out),
                     "--database", second]) == 0
        printed = capsys.readouterr().out
        assert "imported 39 visits" in printed
        assert "1 malformed line(s) skipped" in printed
