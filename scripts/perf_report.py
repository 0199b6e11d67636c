#!/usr/bin/env python
"""Standalone perf report: times webgen/crawl/analysis across backends and
the cold/warm measurement cache, then writes ``BENCH_crawl.json``.

Usage (from the repository root)::

    PYTHONPATH=src python scripts/perf_report.py [--sites N] [--workers N]
        [--backends serial,process] [--output BENCH_crawl.json]

The same collection code backs ``benchmarks/bench_perf_crawl.py``; this
entry point exists so a perf snapshot never requires pytest.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.experiments.perf import DEFAULT_BACKENDS, collect, write_report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sites", type=int,
                        default=int(os.environ.get("REPRO_SITES", "2000")))
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--backends",
                        default=",".join(DEFAULT_BACKENDS),
                        help="comma-separated subset of "
                             "serial/process")
    parser.add_argument("--output", default="BENCH_crawl.json")
    args = parser.parse_args(argv)

    backends = tuple(b.strip() for b in args.backends.split(",") if b.strip())
    report = collect(args.sites, seed=args.seed, workers=args.workers,
                     backends=backends)
    path = write_report(report, args.output)

    crawl = report["crawl"]
    print(f"wrote {path} ({args.sites} sites, "
          f"{report['cpu_count']} cpus)")
    for backend in backends:
        timing = crawl[backend]
        print(f"  {backend:8s} {timing['seconds']:8.2f}s "
              f"{timing['sites_per_second']:8.1f} sites/s")
    cache = report["cache"]
    print(f"  cache    cold {cache['cold_seconds']:.2f}s, "
          f"warm {cache['warm_seconds']:.2f}s "
          f"({cache['warm_over_cold']:.1%} of cold)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
