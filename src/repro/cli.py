"""Command-line interface.

``permissions-odyssey`` exposes the pipeline end to end:

* ``crawl`` — run the measurement crawl over the synthetic web, persisting
  each visit to SQLite as it completes; ``--resume`` continues from the
  checkpoint, ``--retries`` re-attempts transient failures,
  ``--progress`` streams crawl telemetry, and ``--no-collect`` runs
  paper-scale crawls in bounded memory;
* ``merge-stores`` — merge crawl databases into one store;
* ``diff-stores`` — streamed per-site + aggregate diff of two stored
  crawls (text, JSON or HTML);
* ``drift-report`` — fold N stored crawls into a drift timeline and
  render the fused report (DESIGN.md §4i);
* ``telemetry`` — run a (optionally fault-injected) crawl and print the
  full telemetry report;
* ``analyze`` — print the Section 4 headline comparison for a stored or
  fresh crawl;
* ``experiment`` — regenerate one paper table/figure (or all of them);
* ``support`` — print the permission-support matrix (Figure 3);
* ``generate-header`` — build a Permissions-Policy header (Figure 4);
* ``lint-header`` — lint a header value like the browser would;
* ``recommend`` — crawl one site and suggest a least-privilege policy;
* ``poc`` — run the local-scheme specification-issue proof of concept;
* ``profile`` — run the instrumented pipeline and print the per-stage
  breakdown (DESIGN.md §4f);
* ``verify-store`` — checksum-verify a crawl database and (with
  ``--repair``) quarantine corrupt rows (DESIGN.md §4g);
* ``export-jsonl`` / ``import-jsonl`` — move crawl data through the
  hardened JSONL format (atomic writes, count trailer, skip-with-warning
  imports).

``crawl`` installs SIGINT/SIGTERM handlers for the duration of the run:
an interrupt finishes in-flight visits, flushes the checkpoint, and
prints the ``--resume`` hint instead of corrupting the store.

``--log-level`` (global) configures stdlib logging; ``--trace-out FILE``
on ``crawl``, ``telemetry`` and ``profile`` enables tracing for the run
and writes a Chrome-loadable ``trace_event`` JSON file.
"""

from __future__ import annotations

import argparse
import logging
import sys
from contextlib import ExitStack

from repro.analysis.report import render_comparison
from repro.analysis.summary import summarize
from repro.crawler.backends import FaultInjectionSpec
from repro.crawler.fetcher import SyntheticFetcher
from repro.crawler.pool import BACKENDS, CrawlerPool
from repro.crawler.resilience import RetryPolicy
from repro.crawler.storage import CrawlStore
from repro.crawler.telemetry import CrawlTelemetry
from repro.experiments.runner import run_measurement
from repro.experiments.tables import ALL_EXPERIMENTS
from repro.policy.linter import HeaderLinter
from repro.synthweb.generator import SyntheticWeb
from repro.tools.header_generator import HeaderGenerator, HeaderPreset
from repro.tools.poc import LocalSchemePoC
from repro.tools.recommender import PolicyRecommender
from repro.tools.support_site import SupportSiteReport


def _rate(value: str) -> float:
    rate = float(value)
    if not 0.0 <= rate <= 1.0:
        raise argparse.ArgumentTypeError(f"{value} is not in [0, 1]")
    return rate


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permissions-odyssey",
        description="Reproduction of 'A Permissions Odyssey' (IMC '25)")
    parser.add_argument("--log-level", default=None,
                        choices=["debug", "info", "warning", "error"],
                        help="configure stdlib logging (default: off)")
    sub = parser.add_subparsers(dest="command", required=True)

    crawl = sub.add_parser("crawl", help="run the measurement crawl")
    crawl.add_argument("--sites", type=int, default=5000)
    crawl.add_argument("--seed", type=int, default=2024)
    crawl.add_argument("--workers", type=int, default=4,
                       help="worker processes (process backend)")
    crawl.add_argument("--backend", choices=list(BACKENDS), default="serial",
                       help="crawl execution backend; 'process' uses "
                            "multiple cores (results are identical)")
    crawl.add_argument("--database", default="crawl.sqlite")
    crawl.add_argument("--resume", action="store_true",
                       help="skip ranks already in the database checkpoint")
    crawl.add_argument("--no-collect", action="store_true",
                       help="do not keep visits in memory (the database is "
                            "the output); required for crawls larger than "
                            "RAM")
    crawl.add_argument("--max-pool-rebuilds", type=int, default=0,
                       metavar="N",
                       help="supervise the process backend: respawn "
                            "crashed/hung workers up to N times, "
                            "requeue their chunks and quarantine "
                            "poison-visit ranks instead of dying "
                            "(0 = off; requires --backend process)")
    crawl.add_argument("--retries", type=int, default=0,
                       help="max retries for transient failures")
    crawl.add_argument("--progress", action="store_true",
                       help="stream crawl telemetry while running")
    crawl.add_argument("--trace-out", default=None, metavar="FILE",
                       help="enable tracing and write a Chrome trace_event "
                            "JSON file for the run")

    telem = sub.add_parser(
        "telemetry",
        help="run a crawl (optionally fault-injected) and print the "
             "telemetry report")
    telem.add_argument("--sites", type=int, default=1000)
    telem.add_argument("--seed", type=int, default=2024)
    telem.add_argument("--workers", type=int, default=4)
    telem.add_argument("--retries", type=int, default=2)
    telem.add_argument("--fault-rate", type=_rate, default=0.0,
                       help="inject transient failures on this share of "
                            "fetches")
    telem.add_argument("--crash-rate", type=_rate, default=0.0,
                       help="inject non-CrawlError crashes on this share "
                            "of fetches")
    telem.add_argument("--injection-seed", type=int, default=7)
    telem.add_argument("--backend", choices=list(BACKENDS), default="serial")
    telem.add_argument("--trace-out", default=None, metavar="FILE",
                       help="enable tracing and write a Chrome trace_event "
                            "JSON file for the run")

    profile = sub.add_parser(
        "profile",
        help="run the instrumented pipeline (generate → crawl → store → "
             "index → analyses) and print the per-stage breakdown")
    profile.add_argument("--sites", type=int, default=500)
    profile.add_argument("--seed", type=int, default=2024)
    profile.add_argument("--workers", type=int, default=4)
    profile.add_argument("--backend", choices=list(BACKENDS),
                         default="serial")
    profile.add_argument("--trace-out", default=None, metavar="FILE",
                         help="also write the Chrome trace_event JSON file")
    profile.add_argument("--json", action="store_true",
                         help="print the profile as JSON instead of a table")

    analyze = sub.add_parser("analyze", help="headline paper-vs-measured")
    analyze.add_argument("--database", default=None,
                         help="stored crawl to analyse (default: fresh run)")
    analyze.add_argument("--sites", type=int, default=5000)
    analyze.add_argument("--seed", type=int, default=2024)
    analyze.add_argument("--workers", type=int, default=1,
                         help="summarize worker processes; >1 fans rank "
                              "spans of --database out to the warm process "
                              "pool (requires --database)")

    experiment = sub.add_parser("experiment",
                                help="regenerate a paper table/figure")
    experiment.add_argument("name", choices=[*ALL_EXPERIMENTS, "all"])
    experiment.add_argument("--sites", type=int, default=None)
    experiment.add_argument("--no-cache", action="store_true",
                            help="ignore the persistent measurement cache "
                                 "(REPRO_CACHE_DIR) and re-crawl")

    sub.add_parser("support", help="permission-support matrix (Figure 3)")

    gen = sub.add_parser("generate-header",
                         help="build a Permissions-Policy header (Figure 4)")
    gen.add_argument("--preset", choices=[p.value for p in HeaderPreset],
                     default=HeaderPreset.DISABLE_POWERFUL.value)

    lint = sub.add_parser("lint-header", help="lint a header value")
    lint.add_argument("value")

    recommend = sub.add_parser("recommend",
                               help="least-privilege policy for one site")
    recommend.add_argument("--rank", type=int, default=0,
                           help="rank of the synthetic site to analyse")
    recommend.add_argument("--sites", type=int, default=5000)
    recommend.add_argument("--seed", type=int, default=2024)

    poc = sub.add_parser("poc", help="local-scheme spec-issue PoC (Table 11)")
    poc.add_argument("--csp", default=None)
    poc.add_argument("--scheme", default="data",
                     choices=["data", "about", "blob"])

    verify = sub.add_parser(
        "verify-store",
        help="checksum-verify a crawl database; --repair quarantines "
             "corrupt rows (DESIGN.md §4g)")
    verify.add_argument("--database", default="crawl.sqlite")
    verify.add_argument("--repair", action="store_true",
                        help="move corrupt rows to the quarantine table so "
                             "loads skip them cleanly")
    verify.add_argument("--json", action="store_true",
                        help="print the report as JSON (the CI artifact "
                             "format)")

    merge = sub.add_parser(
        "merge-stores",
        help="merge crawl databases into one store in rank order "
             "(verify-store afterwards for a clean bill of health)")
    merge.add_argument("stores", nargs="+",
                       help="crawl database files to merge, in order; a "
                            "rank in several keeps the last file's copy")
    merge.add_argument("--into", required=True, metavar="DATABASE",
                       help="target crawl database (created if missing)")

    diff = sub.add_parser(
        "diff-stores",
        help="diff two stored crawls: per-site added/removed/changed sets "
             "plus aggregate metric deltas, streamed in rank order so "
             "neither store is ever materialized (DESIGN.md §4i)")
    diff.add_argument("before", help="older crawl database")
    diff.add_argument("after", help="newer crawl database")
    diff.add_argument("--labels", default=None, metavar="A,B",
                      help="comma-separated labels (default: file stems)")
    diff.add_argument("--json", action="store_true",
                      help="print the field-stable JSON document instead "
                           "of text tables")
    diff.add_argument("--html", default=None, metavar="FILE",
                      help="also write the self-contained HTML report "
                           "(deterministic bytes for a fixed input)")
    diff.add_argument("--max-site-rows", type=int, default=20,
                      help="per-site rows listed per section (counts are "
                           "always complete)")

    drift = sub.add_parser(
        "drift-report",
        help="fold N stored crawls (oldest first) into a drift timeline "
             "and render it as text, JSON or the HTML dashboard")
    drift.add_argument("stores", nargs="+",
                       help="crawl databases in chronological order")
    drift.add_argument("--labels", default=None, metavar="A,B,...",
                       help="comma-separated era labels (default: file "
                            "stems)")
    drift.add_argument("--json", action="store_true",
                       help="print the timeline as JSON")
    drift.add_argument("--html", default=None, metavar="FILE",
                       help="also write the self-contained HTML dashboard")

    ejsonl = sub.add_parser(
        "export-jsonl",
        help="export a crawl database as JSON lines (atomic write with a "
             "count trailer)")
    ejsonl.add_argument("--database", default="crawl.sqlite")
    ejsonl.add_argument("--output", default="visits.jsonl")

    ijsonl = sub.add_parser(
        "import-jsonl",
        help="import a JSONL export into a crawl database, skipping "
             "malformed lines with a counted warning")
    ijsonl.add_argument("--input", default="visits.jsonl")
    ijsonl.add_argument("--database", default="crawl.sqlite")

    export = sub.add_parser(
        "export-list",
        help="export the ranked origin list (the CrUX-list equivalent)")
    export.add_argument("--sites", type=int, default=5000)
    export.add_argument("--seed", type=int, default=2024)
    export.add_argument("--output", default="origins.csv")

    poc_html = sub.add_parser(
        "poc-html", help="write the local-scheme PoC as HTML files")
    poc_html.add_argument("--output-dir", default="poc")

    site = sub.add_parser(
        "build-site",
        help="build the companion website (Figures 3 and 4) as static HTML")
    site.add_argument("--output-dir", default="site")

    widgets = sub.add_parser(
        "widget-report",
        help="supply-chain dossiers for the riskiest embedded widgets")
    widgets.add_argument("--sites", type=int, default=5000)
    widgets.add_argument("--seed", type=int, default=2024)
    widgets.add_argument("--top", type=int, default=5)
    widgets.add_argument("--site", default=None,
                         help="dossier for one specific embedded site")

    export_registry = sub.add_parser(
        "export-registry",
        help="dump the permission registry + support data as JSON "
             "(the paper's features.md, machine-readable)")
    export_registry.add_argument("--output", default="features.json")

    serve = sub.add_parser(
        "serve",
        help="run the policy service (POST /evaluate, /generate-header, "
             "/recommend; GET /registry) — DESIGN.md §4j")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8970,
                       help="listen port (0 picks an ephemeral port)")
    serve.add_argument("--rps", type=float, default=50.0,
                       help="per-client token-bucket refill rate")
    serve.add_argument("--burst", type=int, default=100,
                       help="per-client burst budget")
    serve.add_argument("--cache-entries", type=int, default=1024,
                       help="LRU response-cache capacity")

    service_bench = sub.add_parser(
        "service-bench",
        help="load-test the policy service and write BENCH_service.json")
    service_bench.add_argument("--clients", type=int, default=8)
    service_bench.add_argument("--requests", type=int, default=120,
                               help="requests per client")
    service_bench.add_argument("--output", default="BENCH_service.json")
    return parser


def _parse_labels(raw: str | None, expected: int,
                  paths: list[str]) -> tuple[str, ...]:
    """``--labels a,b,...`` validated against the store count, defaulting
    to the database file stems."""
    if raw is None:
        from pathlib import Path
        return tuple(Path(path).stem for path in paths)
    labels = tuple(part.strip() for part in raw.split(","))
    if len(labels) != expected or not all(labels):
        raise SystemExit(
            f"error: --labels needs {expected} comma-separated names, "
            f"got {raw!r}")
    return labels


def _write_trace(path: str) -> None:
    from repro.obs.profile import write_trace
    written = write_trace(path)
    print(f"wrote Chrome trace to {written} (load in chrome://tracing)")


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    command = args.command
    if args.log_level:
        logging.basicConfig(
            level=getattr(logging, args.log_level.upper()),
            format="%(asctime)s %(levelname)s %(name)s: %(message)s")

    if command == "crawl":
        web = SyntheticWeb(args.sites, seed=args.seed)
        retry_policy = (RetryPolicy(max_retries=args.retries)
                        if args.retries > 0 else None)
        pool = CrawlerPool(web, workers=args.workers,
                           backend=args.backend,
                           retry_policy=retry_policy)
        telemetry = CrawlTelemetry()
        progress = None
        if args.progress:
            def progress(done: int, total: int) -> None:
                step = max(1, total // 20)
                if done % step == 0 or done == total:
                    print(telemetry.snapshot().progress_line())
        with ExitStack() as stack:
            if args.trace_out:
                from repro.obs import observed
                stack.enter_context(observed())
            with CrawlStore(args.database) as store:
                # handle_signals: Ctrl-C / SIGTERM checkpoint-and-stop
                # instead of dying mid-write; --resume finishes the run.
                dataset = pool.run(store=store, resume=args.resume,
                                   telemetry=telemetry, progress=progress,
                                   handle_signals=True,
                                   collect=not args.no_collect,
                                   max_pool_rebuilds=args.max_pool_rebuilds)
                if args.no_collect:
                    # The dataset was deliberately not kept in memory, and
                    # telemetry covers only the ranks crawled by this run,
                    # so the outcome counts come from the store: SQL
                    # aggregates, no decoding.
                    ok = store.count_successful()
                    failure_counts = store.failure_counts()
        if pool.stop_requested:
            print(f"crawl interrupted — checkpoint saved to "
                  f"{args.database}; rerun with --resume to finish")
        sup_stats = pool.last_supervisor_stats
        if sup_stats is not None and (sup_stats["rebuilds"]
                                      or sup_stats["quarantined_ranks"]):
            quarantined = ", ".join(
                str(rank) for rank in sup_stats["quarantined_ranks"])
            print(f"supervisor: {sup_stats['rebuilds']} worker respawn(s) "
                  f"({sup_stats['watchdog_hangs']} from the hang "
                  f"watchdog), {sup_stats['requeued_ranks']} rank(s) "
                  f"requeued, quarantined poison-visit rank(s): "
                  f"[{quarantined}]")
        if args.trace_out:
            _write_trace(args.trace_out)
        if args.progress:
            print(telemetry.render())
        snapshot = telemetry.snapshot()
        if args.no_collect:
            attempted = snapshot.completed + snapshot.resumed
        else:
            attempted, ok = dataset.attempted, dataset.successful_count
            failure_counts = dataset.failure_summary()
        failures = ", ".join(f"{k}={v}" for k, v
                             in sorted(failure_counts.items()))
        resumed_note = f"; {snapshot.resumed} resumed" if snapshot.resumed \
            else ""
        print(f"crawled {attempted} sites "
              f"({ok} ok; {failures}{resumed_note}) "
              f"via {pool.backend} backend "
              f"at {snapshot.sites_per_second:.1f} sites/s "
              f"-> {args.database}")
        return 0

    if command == "telemetry":
        web = SyntheticWeb(args.sites, seed=args.seed)
        # A picklable spec instead of a closure so --backend process works.
        fetcher_spec = None
        if args.fault_rate > 0 or args.crash_rate > 0:
            fetcher_spec = FaultInjectionSpec(
                seed=args.injection_seed,
                failure_rate=args.fault_rate,
                crash_rate=args.crash_rate)
        retry_policy = (RetryPolicy(max_retries=args.retries)
                        if args.retries > 0 else None)
        pool = CrawlerPool(web, workers=args.workers,
                           backend=args.backend,
                           retry_policy=retry_policy,
                           fetcher_spec=fetcher_spec)
        telemetry = CrawlTelemetry()
        with ExitStack() as stack:
            if args.trace_out:
                from repro.obs import observed
                stack.enter_context(observed())
            pool.run(telemetry=telemetry)
        if args.trace_out:
            _write_trace(args.trace_out)
        print(telemetry.render())
        return 0

    if command == "profile":
        import json as _json

        from repro.obs.profile import profile_pipeline
        result = profile_pipeline(args.sites, seed=args.seed,
                                  workers=args.workers,
                                  backend=args.backend)
        print(_json.dumps(result.to_json(), indent=2) if args.json
              else result.render())
        if args.trace_out:
            _write_trace(args.trace_out)
        return 0

    if command == "verify-store":
        import json as _json

        with CrawlStore(args.database) as store:
            report = store.verify(repair=args.repair)
        print(_json.dumps(report.to_json(), indent=2) if args.json
              else report.render())
        return 0 if report.ok or args.repair else 1

    if command == "merge-stores":
        from repro.crawler.storage import merge_stores
        count = merge_stores(args.into, args.stores)
        print(f"merged {count} visits from {len(args.stores)} store(s) "
              f"into {args.into}")
        return 0

    if command == "diff-stores":
        import json as _json

        from repro.analysis.drift import diff_stores
        from repro.analysis.drift_report import (render_diff_html,
                                                 render_diff_text)
        labels = _parse_labels(args.labels, 2, [args.before, args.after])
        diff = diff_stores(args.before, args.after, labels=labels)
        if args.html:
            with open(args.html, "w", encoding="utf-8") as handle:
                handle.write(render_diff_html(
                    diff, max_site_rows=args.max_site_rows))
            print(f"wrote {args.html}")
        if args.json:
            print(_json.dumps(diff.to_json(max_site_rows=args.max_site_rows),
                              indent=2))
        elif not args.html:
            print(render_diff_text(diff, max_site_rows=args.max_site_rows))
        return 0

    if command == "drift-report":
        import json as _json

        from repro.analysis.drift import build_timeline
        from repro.analysis.drift_report import (render_timeline_html,
                                                 render_timeline_text)
        labels = _parse_labels(args.labels, len(args.stores), args.stores)
        timeline = build_timeline(args.stores, labels=labels)
        if args.html:
            with open(args.html, "w", encoding="utf-8") as handle:
                handle.write(render_timeline_html(timeline))
            print(f"wrote {args.html}")
        if args.json:
            print(_json.dumps(timeline.to_json(), indent=2))
        elif not args.html:
            print(render_timeline_text(timeline))
        return 0

    if command == "export-jsonl":
        from repro.crawler.storage import export_jsonl
        with CrawlStore(args.database) as store:
            # iter_visits streams in rank order, so exports stay
            # bounded-memory at any store size; the writer keeps the
            # atomic tmp-rename + fsync + count-trailer contract.
            count = export_jsonl(store.iter_visits(), args.output)
        print(f"wrote {count} visits to {args.output}")
        return 0

    if command == "import-jsonl":
        from repro.crawler.storage import JsonlStats, iter_jsonl
        stats = JsonlStats()
        with CrawlStore(args.database) as store:
            store.save_visits(iter_jsonl(args.input, on_error="skip",
                                         stats=stats))
        skipped_note = (f" ({stats.skipped} malformed line(s) skipped)"
                        if stats.skipped else "")
        print(f"imported {stats.imported} visits into {args.database}"
              f"{skipped_note}")
        return 0

    if command == "analyze":
        if args.database:
            from repro.analysis.summary import summarize_streaming
            with CrawlStore(args.database) as store:
                # One streaming pass (or one per worker process with
                # --workers >1): the store never has to fit in memory.
                summary = summarize_streaming(store, workers=args.workers)
        elif args.workers > 1:
            print("error: --workers needs --database — parallel summarize "
                  "streams rank spans from a stored crawl", file=sys.stderr)
            return 2
        else:
            web = SyntheticWeb(args.sites, seed=args.seed)
            dataset = CrawlerPool(web, workers=4).run()
            summary = summarize(dataset)
        print(render_comparison(summary.compare_to_paper()))
        return 0

    if command == "experiment":
        ctx = run_measurement(args.sites, use_cache=not args.no_cache)
        names = list(ALL_EXPERIMENTS) if args.name == "all" else [args.name]
        failed = 0
        for name in names:
            result = ALL_EXPERIMENTS[name](ctx)
            print(result.rendered)
            status = "shape OK" if result.shape_ok else "SHAPE MISMATCH"
            print(f"[{result.experiment_id}] {status} {result.notes}\n")
            failed += 0 if result.shape_ok else 1
        return 1 if failed else 0

    if command == "support":
        print(SupportSiteReport().render())
        return 0

    if command == "generate-header":
        generator = HeaderGenerator()
        print(generator.generate_preset(HeaderPreset(args.preset)))
        return 0

    if command == "lint-header":
        report = HeaderLinter().lint(args.value)
        if report.header_dropped:
            print("FATAL: the browser drops this header entirely")
        elif not report.findings:
            print("OK: no findings")
        for finding in report.findings:
            print(f"  [{finding.severity.value}] {finding.rule.value}: "
                  f"{finding.message}")
        return 1 if report.findings else 0

    if command == "recommend":
        web = SyntheticWeb(args.sites, seed=args.seed)
        recommender = PolicyRecommender(SyntheticFetcher(web))
        recommendation = recommender.recommend(web.origin_for_rank(args.rank))
        print(f"site: {recommendation.url}")
        print(f"observed top-level usage: "
              f"{', '.join(recommendation.observed_top_level) or '(none)'}")
        print(f"suggested header:\n  {recommendation.suggested_header}")
        if recommendation.header_over_grants:
            print(f"deployed header over-grants: "
                  f"{', '.join(recommendation.header_over_grants)}")
        for suggestion in recommendation.delegation_suggestions:
            if suggestion.over_granted:
                print(f"iframe {suggestion.iframe_src} over-granted: "
                      f"{', '.join(suggestion.over_granted)} "
                      f"(suggest allow=\"{suggestion.suggested_allow}\")")
        return 0

    if command == "poc":
        poc = LocalSchemePoC(csp=args.csp, scheme=args.scheme)
        print(poc.report())
        return 0 if poc.demonstrates_issue() else 1

    if command == "export-list":
        web = SyntheticWeb(args.sites, seed=args.seed)
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write("rank,origin\n")
            for rank, origin in enumerate(web.origins()):
                handle.write(f"{rank},{origin}\n")
        print(f"wrote {args.sites} origins to {args.output}")
        return 0

    if command == "poc-html":
        import os
        from repro.browser.html import render_poc_html
        os.makedirs(args.output_dir, exist_ok=True)
        for scheme in ("data", "srcdoc"):
            path = os.path.join(args.output_dir, f"poc-{scheme}.html")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(render_poc_html(scheme=scheme))
            print(f"wrote {path}")
        print("Serve with header: Permissions-Policy: camera=(self)")
        return 0

    if command == "build-site":
        from repro.tools.site_generator import SiteGenerator
        paths = SiteGenerator().build(args.output_dir)
        for path in paths:
            print(f"wrote {path}")
        return 0

    if command == "widget-report":
        from repro.tools.widget_report import WidgetReporter
        web = SyntheticWeb(args.sites, seed=args.seed)
        dataset = CrawlerPool(web, workers=4).run()
        reporter = WidgetReporter(dataset.successful())
        if args.site:
            print(reporter.dossier(args.site).render())
            return 0
        for dossier in reporter.riskiest(args.top):
            print(dossier.render())
            print()
        return 0

    if command == "export-registry":
        import json
        rows = SupportSiteReport().rows()
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump({"permissions": rows}, handle, indent=2)
        print(f"wrote {len(rows)} permissions to {args.output}")
        return 0

    if command == "serve":
        import asyncio

        from repro.service.cache import ResponseCache
        from repro.service.ratelimit import ClientRateLimiter, RateLimitConfig
        from repro.service.server import PolicyService

        service = PolicyService(
            host=args.host, port=args.port,
            cache=ResponseCache(args.cache_entries),
            limiter=ClientRateLimiter(RateLimitConfig(
                requests_per_second=args.rps, burst=args.burst)))

        async def _serve() -> None:
            await service.start()
            print(f"policy service on http://{service.host}:{service.port} "
                  "— POST /evaluate /generate-header /recommend, "
                  "GET /registry /healthz /stats (Ctrl-C drains)",
                  flush=True)
            await service.run_forever()

        asyncio.run(_serve())
        print(f"drained after {service.request_count} requests")
        return 0

    if command == "service-bench":
        import json

        from repro.experiments.gates import failures
        from repro.experiments.perf import write_report
        from repro.experiments.service_bench import (
            SERVICE_GATES,
            collect_service_bench,
        )

        report = collect_service_bench(clients=args.clients,
                                       requests_per_client=args.requests)
        path = write_report(report, args.output)
        load = report["load"]
        print(f"{load['requests']} requests in {load['seconds']}s "
              f"({load['requests_per_second']} req/s), p99 "
              f"{load['p99_latency_seconds'] * 1000:.1f}ms, cache hit rate "
              f"{report['cache']['hit_rate']:.2f}")
        print(json.dumps(report["gates"], indent=2))
        for entry in report["gates_skipped"]:
            print(f"skipped {entry['gate']}: {entry['reason']}")
        print(f"wrote {path}")
        return 1 if failures(report, SERVICE_GATES) else 0

    return 2  # pragma: no cover - argparse enforces choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
