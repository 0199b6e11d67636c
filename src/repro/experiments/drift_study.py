"""The three-era drift study and the drift perf-bench harness.

:func:`drift_study` reproduces the paper's Fig. 2 transition *from stored
crawls alone*: it crawls (or cache-loads) the 2020 / 2022 / 2024 era webs
through :func:`repro.synthweb.eras.era_context`, persists each to a
:class:`~repro.crawler.storage.CrawlStore`, folds the stores into a
:class:`~repro.analysis.drift.DriftTimeline` and checks the transition
direction — Feature-Policy falls while Permissions-Policy rises.

:func:`collect_drift_bench` is the ``benchmarks/bench_perf_drift.py``
backend (BENCH_drift.json).  Phases that measure memory run in spawn
subprocesses via the scale harness so peak RSS is attributable.

:data:`DRIFT_GATES` (none depends on the host) include:

* ``self_diff_empty`` — diffing a store against itself yields no
  added/removed/changed sites;
* ``diff_rss_within_bound`` / ``diff_time_within_bound`` — diffing two
  era stores streams in the scale harness's RSS envelope
  (:data:`~repro.experiments.scale.RSS_BOUND_BYTES`) and bounded time;
* ``html_deterministic`` — two independent profile+render passes in two
  separate subprocesses produce byte-identical HTML (SHA-256);
* ``fig2_pp_rises`` / ``fig2_fp_falls`` — the stored-crawl timeline
  reproduces the paper's transition direction.

``REPRO_DRIFT_SITES`` scales the bench (default 10,000; CI smoke uses a
smaller store).
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import time
from pathlib import Path

from repro.experiments.gates import Gate, evaluate, host_facts
from repro.experiments.scale import RSS_BOUND_BYTES
from repro.synthweb.eras import Era, era_context

#: Era sequence for the study, oldest first (the Fig. 2 timeline).
STUDY_ERAS = (Era.Y2020, Era.Y2022, Era.Y2024)

DEFAULT_STUDY_SITES = 2_000
DEFAULT_BENCH_SITES = 10_000

#: Wall-time bound for the cross-era diff at the bench scale — generous
#: (the 10k diff takes seconds) but catches an accidental return to
#: materialize-then-compare behaviour, which also blows the RSS gate.
DIFF_TIME_BOUND_SECONDS = 300.0


def configured_drift_sites() -> int:
    value = os.environ.get("REPRO_DRIFT_SITES")
    if value:
        try:
            count = int(value)
        except ValueError:
            raise ValueError(
                f"REPRO_DRIFT_SITES must be an integer site count, "
                f"got {value!r}") from None
        return max(200, count)
    return DEFAULT_BENCH_SITES


def build_era_store(era: Era, site_count: int, directory: "str | Path", *,
                    seed: int = 2024, workers: int = 4,
                    use_cache: "bool | None" = None) -> Path:
    """Crawl (or cache-load) one era and persist it as a crawl store.

    Idempotent per ``(era, site_count, seed)``: an existing store file is
    reused — era crawls are deterministic, so the bytes could only be
    identical anyway."""
    from repro.crawler.storage import CrawlStore

    path = Path(directory) / f"era-{era.value}-{site_count}-{seed}.sqlite"
    if path.exists():
        return path
    ctx = era_context(era, site_count, seed=seed, workers=workers,
                      use_cache=use_cache)
    path.parent.mkdir(parents=True, exist_ok=True)
    with CrawlStore(path) as store:
        store.save_dataset(ctx.dataset)
    return path


def build_era_stores(site_count: int, directory: "str | Path", *,
                     seed: int = 2024, workers: int = 4,
                     use_cache: "bool | None" = None) -> "list[Path]":
    return [build_era_store(era, site_count, directory, seed=seed,
                            workers=workers, use_cache=use_cache)
            for era in STUDY_ERAS]


def drift_study(site_count: int = DEFAULT_STUDY_SITES, *, seed: int = 2024,
                workers: int = 4, directory: "str | Path | None" = None,
                use_cache: "bool | None" = None) -> dict:
    """Crawl the three eras into stores and fold them into the report.

    Everything after the store-building step works from the stores alone
    (the acceptance criterion): the timeline, the 2020→2024 diff, the
    rendered text and the HTML hash all come from streamed
    ``iter_visits()`` passes."""
    from repro.analysis.drift import build_timeline, diff_stores
    from repro.analysis.drift_report import (render_timeline_html,
                                             render_timeline_text)

    scratch = None
    if directory is None:
        scratch = tempfile.TemporaryDirectory(prefix="repro-drift-")
        directory = scratch.name
    try:
        paths = build_era_stores(site_count, directory, seed=seed,
                                 workers=workers, use_cache=use_cache)
        labels = tuple(era.value for era in STUDY_ERAS)
        timeline = build_timeline(paths, labels=labels)
        diff = diff_stores(paths[0], paths[-1],
                           labels=(labels[0], labels[-1]))
        html_text = render_timeline_html(timeline)
        pp = timeline.series_for("pp_top_level_share").values
        fp = timeline.series_for("fp_top_level_share").values
        return {
            "site_count": site_count,
            "seed": seed,
            "labels": list(labels),
            "store_paths": [str(path) for path in paths],
            "pp_top_level_share": list(pp),
            "fp_top_level_share": list(fp),
            "fig2_pp_rises": pp[-1] > pp[0],
            "fig2_fp_falls": fp[-1] < fp[0],
            "diff_2020_2024": {
                "added": len(diff.added),
                "removed": len(diff.removed),
                "changed": len(diff.changed),
                "unchanged": diff.unchanged_sites,
            },
            "timeline": timeline.to_json(),
            "rendered_text": render_timeline_text(timeline),
            "html": html_text,
            "html_sha256": hashlib.sha256(
                html_text.encode("utf-8")).hexdigest(),
        }
    finally:
        if scratch is not None:
            scratch.cleanup()


# ---------------------------------------------------------------------------
# Bench phase workers — module-level (picklable for the spawn harness),
# imports inside so the subprocess pays them within its own RSS budget.


def _diff_worker(params: dict) -> dict:
    from repro.analysis.drift import diff_stores
    from repro.experiments.scale import _peak_rss_bytes

    start = time.perf_counter()
    diff = diff_stores(params["before"], params["after"],
                       labels=tuple(params["labels"]))
    seconds = time.perf_counter() - start
    return {
        "seconds": seconds,
        "added": len(diff.added),
        "removed": len(diff.removed),
        "changed": len(diff.changed),
        "unchanged": diff.unchanged_sites,
        "is_empty": diff.is_empty,
        "pp_delta": next(delta.absolute for delta in diff.deltas
                         if delta.metric == "pp_top_level_share"),
        "peak_rss_bytes": _peak_rss_bytes(),
    }


def _render_worker(params: dict) -> dict:
    from repro.analysis.drift import build_timeline
    from repro.analysis.drift_report import render_timeline_html
    from repro.experiments.scale import _peak_rss_bytes

    timeline = build_timeline(params["stores"],
                              labels=tuple(params["labels"]))
    html_text = render_timeline_html(timeline)
    return {
        "sha256": hashlib.sha256(html_text.encode("utf-8")).hexdigest(),
        "bytes": len(html_text.encode("utf-8")),
        "pp_top_level_share":
            list(timeline.series_for("pp_top_level_share").values),
        "fp_top_level_share":
            list(timeline.series_for("fp_top_level_share").values),
        "peak_rss_bytes": _peak_rss_bytes(),
    }


def _fig2_step(report: dict, series: str) -> float:
    """Last era's share minus the first era's, off the stored timeline."""
    values = report["render_first"][series]
    return values[-1] - values[0]


DRIFT_GATES = (
    Gate("self_diff_empty", lambda r: r["self_diff"]["is_empty"]),
    Gate("self_diff_covers_sites",
         lambda r: r["self_diff"]["unchanged"] == r["site_count"]),
    Gate("diff_rss_within_bound",
         lambda r: r["cross_diff"]["peak_rss_bytes"] < RSS_BOUND_BYTES),
    Gate("diff_time_within_bound",
         lambda r: r["cross_diff"]["seconds"] < DIFF_TIME_BOUND_SECONDS),
    # Era stores share site slots (same seed and count), so the
    # 2020→2024 movement must show up as changed sites, not churn.
    Gate("cross_diff_no_churn", lambda r: r["cross_diff"]["added"] == 0
         and r["cross_diff"]["removed"] == 0),
    Gate("cross_diff_changed", lambda r: r["cross_diff"]["changed"] > 0),
    Gate("cross_diff_pp_rises", lambda r: r["cross_diff"]["pp_delta"] > 0),
    Gate("html_deterministic", lambda r: r["render_first"]["sha256"]
         == r["render_second"]["sha256"]),
    Gate("html_rendered", lambda r: r["render_first"]["bytes"] > 0),
    Gate("fig2_pp_rises",
         lambda r: _fig2_step(r, "pp_top_level_share") > 0),
    Gate("fig2_fp_falls",
         lambda r: _fig2_step(r, "fp_top_level_share") < 0),
)


def collect_drift_bench(site_count: "int | None" = None, *,
                        seed: int = 2024, workers: int = 4) -> dict:
    """The BENCH_drift.json document.

    Store building happens in the parent (it goes through the measurement
    cache and is not what this bench measures); every measured phase —
    self-diff, cross-era diff, the two renders — runs in its own spawn
    subprocess so ``ru_maxrss`` starts from a clean interpreter."""
    from repro.experiments.scale import _run_phase

    count = site_count if site_count is not None else \
        configured_drift_sites()
    with tempfile.TemporaryDirectory(prefix="repro-drift-bench-") as scratch:
        paths = build_era_stores(count, scratch, seed=seed, workers=workers)
        labels = [era.value for era in STUDY_ERAS]
        store_args = [str(path) for path in paths]
        self_diff = _run_phase(_diff_worker, {
            "before": store_args[-1], "after": store_args[-1],
            "labels": (labels[-1], labels[-1])})
        cross_diff = _run_phase(_diff_worker, {
            "before": store_args[0], "after": store_args[-1],
            "labels": (labels[0], labels[-1])})
        render_first = _run_phase(_render_worker, {
            "stores": store_args, "labels": labels})
        render_second = _run_phase(_render_worker, {
            "stores": store_args, "labels": labels})
    return evaluate({
        "site_count": count,
        "seed": seed,
        **host_facts(),
        "eras": labels,
        "self_diff": self_diff,
        "cross_diff": cross_diff,
        "render_first": render_first,
        "render_second": render_second,
        "rss_bound_bytes": RSS_BOUND_BYTES,
        "time_bound_seconds": DIFF_TIME_BOUND_SECONDS,
    }, DRIFT_GATES)


def main(argv: "list[str] | None" = None) -> int:
    """CI entry point: build the era stores, render the fused report,
    and fail unless the Fig. 2 transition direction reproduces."""
    import argparse
    import json

    parser = argparse.ArgumentParser(
        description="three-era drift study (Fig. 2 from stored crawls)")
    parser.add_argument("--sites", type=int, default=DEFAULT_STUDY_SITES)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--directory", default=None,
                        help="keep the era stores here (default: a "
                             "temporary directory)")
    parser.add_argument("--html", default=None, metavar="FILE",
                        help="write the fused HTML dashboard")
    parser.add_argument("--json-out", default=None, metavar="FILE",
                        help="write the study document (minus the HTML "
                             "body) as JSON")
    args = parser.parse_args(argv)

    study = drift_study(args.sites, seed=args.seed, workers=args.workers,
                        directory=args.directory)
    if args.html:
        with open(args.html, "w", encoding="utf-8") as handle:
            handle.write(study["html"])
        print(f"wrote {args.html}")
    if args.json_out:
        payload = {key: value for key, value in study.items()
                   if key not in ("html", "rendered_text")}
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.json_out}")
    print(study["rendered_text"])
    print(f"\nfig2 direction: pp_rises={study['fig2_pp_rises']} "
          f"fp_falls={study['fig2_fp_falls']}")
    return 0 if study["fig2_pp_rises"] and study["fig2_fp_falls"] else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
