#!/usr/bin/env python3
"""Persistence workflow: crawl once, analyse many times.

The paper stores every visit in a database the moment it completes
(Appendix A.2 C14) and runs all analyses offline.  This example shows the
same workflow: crawl → SQLite → (later) analyse, first with one
bounded-memory streaming pass for the headline numbers, then with a full
reload for the heavyweight analyses.

Run with:  python examples/reanalyze_stored_crawl.py [site_count]
"""

import sys
import tempfile
from pathlib import Path

from repro import CrawlStore, CrawlerPool, SyntheticWeb
from repro.analysis.delegation import DelegationAnalysis
from repro.analysis.summary import summarize_streaming
from repro.analysis.violations import ViolationAnalysis


def main() -> None:
    site_count = int(sys.argv[1]) if len(sys.argv) > 1 else 2_000
    database = Path(tempfile.mkdtemp()) / "crawl.sqlite"

    # ---- phase 1: crawl and persist -------------------------------------------
    print(f"Crawling {site_count:,} sites into {database} ...")
    web = SyntheticWeb(site_count, seed=2024)
    dataset = CrawlerPool(web, workers=4).run()
    with CrawlStore(database) as store:
        store.save_dataset(dataset)
    size_kb = database.stat().st_size // 1024
    print(f"  stored {dataset.attempted:,} visits ({size_kb:,} KiB)")

    # ---- phase 2: one streaming pass for the headline numbers ------------------
    print("\nStreaming summary (one visit resident at a time):")
    with CrawlStore(database) as store:
        print(f"  successful visits:        {store.count_successful():,}")
        print(f"  failure taxonomy:         {store.failure_counts()}")
        summary = summarize_streaming(store)
    print(f"  Permissions-Policy (top): {summary.pp_header_top_level_share:.2%}")
    print(f"  Permissions-Policy (all): {summary.pp_header_all_docs_share:.2%}")
    print(f"  Feature-Policy (all):     {summary.fp_header_all_docs_share:.2%}")
    print(f"  sites delegating:         {summary.share_sites_delegating:.2%}")
    print(f"  ... to external iframes:  "
          f"{summary.share_sites_delegating_external:.2%}")

    # ---- phase 3: full reload for the heavyweight analyses ----------------------
    print("\nReloading for the full analyses ...")
    with CrawlStore(database) as store:
        reloaded = store.load_dataset()
    delegation = DelegationAnalysis(reloaded.successful())
    print(f"  delegating sites (exact):   {delegation.sites_delegating:,} "
          f"({delegation.share_sites_delegating:.2%} of top docs)")
    print("  top embedded sites (Table 3):")
    for row in delegation.embedded_site_ranking(5):
        print(f"    {row.site:30s} {row.websites:6,}")
    violations = ViolationAnalysis(reloaded.successful())
    print(f"  sites with blocked calls:   "
          f"{violations.report.sites_with_blocked_calls:,}")
    print(f"  most-blocked permissions:   "
          + ", ".join(f"{name} ({count})" for name, count
                      in violations.report.top_blocked(5)))


if __name__ == "__main__":
    main()
