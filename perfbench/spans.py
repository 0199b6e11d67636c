"""Span recorder and layer wrappers for the traced benchmark run.

Tracing here is done from the outside: :func:`install` replaces public
entry points of the ``repro`` layers with thin wrappers that record one
span per call (layer name, start, end, parent span, pass id) into
in-memory arrays.  Nothing inside the program is edited, and an untraced
run never calls :func:`install`, so end-to-end numbers carry no tracing
cost.  :func:`layer_table` turns the spans into per-layer counts, busy
time (outermost spans of a layer only, so recursion is not double
counted) and self time (a span's duration minus what its direct child
spans cover).
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import threading
import time
from array import array
from collections import defaultdict

_clock = time.perf_counter


class SpanRecorder:
    """Spans in parallel arrays: cheap to append, written out at the end."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.pass_id = array("i")
        self.current_pass = 0
        self.counts: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        #: While False the wrappers pass straight through.
        self.active = False

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        stack = self._stack()
        # Layers run in thread pools too (the default ``summarize``): one
        # span's row must be appended to every column before another's.
        with self._lock:
            index = len(self.name)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.pass_id.append(self.current_pass)
            self.end.append(0.0)
            self.start.append(_clock())
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.end[index] = _clock()
        self._stack().pop()

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def __len__(self) -> int:
        return len(self.name)

    def dump(self, path) -> None:
        """Write every span as a JSON line ``[name, start, end, parent,
        pass]`` (gzip); ``parent`` is a line index or -1."""
        with gzip.open(path, "wt") as handle:
            for i in range(len(self)):
                handle.write(json.dumps([
                    self.names[self.name[i]], self.start[i], self.end[i],
                    self.parent[i], self.pass_id[i]]) + "\n")


def layer_table(recorder: SpanRecorder, pass_id: "int | None" = None
                ) -> dict[str, dict[str, float]]:
    """Per-layer ``calls``, ``busy_s`` and ``self_s`` from the spans.

    With ``pass_id`` only spans of that pass count.  Busy time sums the
    outermost span of each layer (a layer calling itself is counted
    once); self time subtracts the direct children's durations.  Spans
    are nested per thread, so work a layer hands to a thread pool (the
    default ``summarize``) is not subtracted from the caller, and the
    self times of a pass can then add up to more than its wall time.
    """
    n = len(recorder)
    names, start, end, parent, passes = (recorder.name, recorder.start,
                                         recorder.end, recorder.parent,
                                         recorder.pass_id)
    child_time = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child_time[p] += end[i] - start[i]
    rows: dict[str, dict[str, float]] = {}
    for i in range(n):
        if pass_id is not None and passes[i] != pass_id:
            continue
        if end[i] < start[i]:
            continue  # still open (the span that asked for the table)
        nid = names[i]
        label = recorder.names[nid]
        row = rows.get(label)
        if row is None:
            row = rows[label] = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
        duration = end[i] - start[i]
        row["calls"] += 1
        row["self_s"] += duration - child_time[i]
        p = parent[i]
        while p >= 0 and names[p] != nid:
            p = parent[p]
        if p < 0:
            row["busy_s"] += duration
    return rows


def busy_under(recorder: SpanRecorder, layer: str, ancestor: str,
               pass_id: "int | None" = None) -> float:
    """Busy time of ``layer`` spans that run below an ``ancestor`` span."""
    nid = recorder._ids.get(layer)
    aid = recorder._ids.get(ancestor)
    if nid is None or aid is None:
        return 0.0
    total = 0.0
    for i in range(len(recorder)):
        if recorder.name[i] != nid:
            continue
        if pass_id is not None and recorder.pass_id[i] != pass_id:
            continue
        p = recorder.parent[i]
        while p >= 0 and recorder.name[p] != aid:
            p = recorder.parent[p]
        if p >= 0:
            total += recorder.end[i] - recorder.start[i]
    return total


# ---------------------------------------------------------------------------
# Wrapping entry points.


def _timed(recorder: SpanRecorder, name: str, fn, after=None):
    nid = recorder.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not recorder.active:
            return fn(*args, **kwargs)
        index = recorder.open(nid)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            recorder.close(index)
            if after is not None:
                after(args, None, True)
            raise
        recorder.close(index)
        if after is not None:
            after(args, result, False)
        return result
    return wrapper


def _timed_iterator(recorder: SpanRecorder, name: str, fn):
    """Wrap a function returning an iterator: each ``next`` is a span."""
    nid = recorder.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        iterator = fn(*args, **kwargs)
        if not recorder.active:
            return iterator

        def traced():
            while True:
                index = recorder.open(nid)
                try:
                    item = next(iterator)
                except StopIteration:
                    recorder.close(index)
                    return
                except BaseException:
                    recorder.close(index)
                    raise
                recorder.close(index)
                recorder.count(name + ".items")
                yield item
        return traced()
    return wrapper


class Patcher:
    """Swaps attributes for wrappers and puts the originals back."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]
                           if isinstance(owner, type) else
                           getattr(owner, attr)))
        setattr(owner, attr, value)

    def method(self, cls: type, attr: str, wrapper) -> None:
        self.set(cls, attr, wrapper(cls.__dict__[attr]))

    def function(self, module, attr: str, wrapper) -> None:
        """Replace a module function everywhere it was imported by name."""
        original = getattr(module, attr)
        replacement = wrapper(original)
        for name, mod in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")):
                continue
            if getattr(mod, attr, None) is original:
                self.set(mod, attr, replacement)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def install(recorder: SpanRecorder, patcher: Patcher) -> None:
    """Wrap the public entry points of every measured layer."""
    import concurrent.futures

    from repro.analysis import delegation, drift, headers, index
    from repro.analysis import overpermission, summary, usage
    from repro.browser import instrumentation, page
    from repro.crawler import backends, crawler, fetcher, integrity
    from repro.crawler import records, storage, supervisor
    from repro.policy import allow_attr, engine, feature_policy, header
    from repro.synthweb import generator

    rec = recorder

    def timed(name, after=None):
        return lambda fn: _timed(rec, name, fn, after)

    # synthweb
    patcher.method(generator.SyntheticWeb, "site", timed("synthweb.generate"))

    # crawler.fetcher: failures are FetchFailure raises (the taxonomy).
    def fetch_after(args, result, raised):
        if raised:
            rec.count("crawler.fetcher.failures")
    patcher.method(fetcher.SyntheticFetcher, "fetch",
                   timed("crawler.fetcher", fetch_after))

    # browser
    patcher.method(page.PageLoader, "load", timed("browser.page"))

    def execute_after(args, result, raised):
        rec.count("browser.instrumentation.calls_recorded",
                  len(args[0].records))
    patcher.method(instrumentation.InstrumentedRuntime, "execute",
                   timed("browser.instrumentation", execute_after))

    # policy
    patcher.function(header, "parse_permissions_policy_header",
                     timed("policy.header"))
    patcher.function(feature_policy, "parse_feature_policy_header",
                     timed("policy.feature_policy"))
    patcher.function(allow_attr, "parse_allow_attribute",
                     timed("policy.allow_attr"))
    for attr in ("explain", "allowed_features"):
        patcher.method(engine.PermissionsPolicyEngine, attr,
                       timed("policy.engine"))

    # crawler.records / crawler.crawler
    patcher.function(records, "visit_from_page", timed("crawler.records"))

    def visit_after(args, result, raised):
        if result is not None:
            rec.count("crawler.crawler.failed_visits", not result.success)
            rec.count("crawler.crawler.retries", result.retries)
    patcher.method(crawler.Crawler, "visit",
                   timed("crawler.crawler", visit_after))

    # crawler.storage (write, verify, read) and crawler.integrity
    def save_after(args, result, raised):
        rec.count("crawler.storage.saved_visits", len(args[1]))

    def save_wrapper(fn):
        inner = _timed(rec, "crawler.storage.save", fn, save_after)

        @functools.wraps(fn)
        def wrapper(self, visits, *rest, **kwargs):
            visits = list(visits)
            return inner(self, visits, *rest, **kwargs)
        return wrapper
    patcher.method(storage.CrawlStore, "save_visits", save_wrapper)
    patcher.method(storage.CrawlStore, "flush", timed("crawler.storage.flush"))

    def verify_after(args, result, raised):
        if result is not None:
            rec.count("crawler.storage.verified_rows", result.verified_rows)
            rec.count("crawler.storage.corrupt_rows", len(result.corrupt))
    patcher.method(storage.CrawlStore, "verify",
                   timed("crawler.storage.verify", verify_after))
    patcher.method(storage.CrawlStore, "iter_visits",
                   lambda fn: _timed_iterator(rec, "crawler.storage.decode",
                                              fn))
    patcher.method(storage.CrawlStore, "load_dataset",
                   timed("crawler.storage.load_dataset"))
    patcher.method(storage.CrawlStore, "merge_from",
                   timed("crawler.backends.merge"))
    patcher.function(integrity, "visit_checksum",
                     timed("crawler.integrity"))

    # analysis
    patcher.method(index.DatasetIndex, "__init__", timed("analysis.index"))
    patcher.method(index.IncrementalIndex, "add", timed("analysis.index"))
    for name, cls in (("usage", usage.UsageAnalysis),
                      ("delegation", delegation.DelegationAnalysis),
                      ("headers", headers.HeaderAnalysis),
                      ("overpermission", overpermission.OverPermissionAnalysis)):
        patcher.method(cls, "__init__", timed(f"analysis.{name}"))
        patcher.method(cls, "_aggregate_visit", timed(f"analysis.{name}"))
    patcher.function(summary, "summarize", timed("analysis.summary"))
    patcher.function(summary, "summarize_streaming",
                     timed("analysis.summary"))

    def diff_after(args, result, raised):
        if result is not None:
            rec.count("analysis.drift.sites_compared", result.sites_compared)
    patcher.function(drift, "diff_stores", timed("analysis.drift.diff",
                                                 diff_after))
    patcher.method(drift._StoreProfile, "add", timed("analysis.drift.profile"))

    # crawler.backends / crawler.supervisor (parent side only)
    patcher.set(backends, "wait",
                _timed(rec, "crawler.backends.parent_wait",
                       concurrent.futures.wait))
    for attr in ("_kill_executor_workers", "shutdown_warm_pool"):
        patcher.function(backends, attr, timed("crawler.supervisor.rebuild"))
    patcher.method(supervisor.ChunkSupervisor, "on_pool_crash",
                   timed("crawler.supervisor.rebuild"))


class GcClock:
    """``gc.callbacks`` hook: time and count garbage collections."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.seconds = 0.0
        self.collections = 0
        self._start: "float | None" = None

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = _clock()
        elif self._start is not None:
            self.seconds += _clock() - self._start
            self.collections += 1
            self._start = None


# ---------------------------------------------------------------------------
# The per-layer metrics of BENCHMARK.json.

#: name → unit, in report order.  Every traced run reports all of them; a
#: layer the workload bypasses reads 0.
PER_LAYER = {
    "synthweb.generate_s": "s",
    "crawler.fetcher.calls": "count",
    "crawler.fetcher.busy_s": "s",
    "crawler.fetcher.failures": "count",
    "browser.page.loads": "count",
    "browser.page.self_s": "s",
    "browser.instrumentation.scripts": "count",
    "browser.instrumentation.calls_recorded": "count",
    "browser.instrumentation.self_s": "s",
    "policy.header.calls": "count",
    "policy.header.busy_s": "s",
    "policy.feature_policy.calls": "count",
    "policy.feature_policy.busy_s": "s",
    "policy.allow_attr.calls": "count",
    "policy.allow_attr.busy_s": "s",
    "policy.engine.calls": "count",
    "policy.engine.busy_s": "s",
    "policy.engine.memo_hit_ratio": "1",
    "crawler.records.busy_s": "s",
    "crawler.crawler.visits": "count",
    "crawler.crawler.self_s": "s",
    "crawler.crawler.unattributed_share": "1",
    "crawler.crawler.failed_visits": "count",
    "crawler.crawler.retries": "count",
    "crawler.storage.saved_visits": "count",
    "crawler.storage.save_self_s": "s",
    "crawler.storage.flush_s": "s",
    "crawler.integrity.checksums": "count",
    "crawler.integrity.busy_s": "s",
    "crawler.integrity.save_busy_s": "s",
    "crawler.integrity.verify_busy_s": "s",
    "crawler.storage.verify_s": "s",
    "crawler.storage.verified_rows": "count",
    "crawler.storage.corrupt_rows": "count",
    "crawler.storage.decoded_visits": "count",
    "crawler.storage.decode_s": "s",
    "crawler.storage.load_dataset_s": "s",
    "analysis.index.adds": "count",
    "analysis.index.busy_s": "s",
    "analysis.index.memo_hit_ratio": "1",
    "analysis.usage.busy_s": "s",
    "analysis.delegation.busy_s": "s",
    "analysis.headers.busy_s": "s",
    "analysis.overpermission.busy_s": "s",
    "analysis.summary.self_s": "s",
    "analysis.drift.diff_s": "s",
    "analysis.drift.profile_s": "s",
    "analysis.drift.sites_compared": "count",
    "crawler.backends.chunks": "count",
    "crawler.backends.tail_chunks": "count",
    "crawler.backends.merges": "count",
    "crawler.backends.merge_s": "s",
    "crawler.backends.parent_wait_s": "s",
    "crawler.supervisor.rebuilds": "count",
    "crawler.supervisor.rebuild_s": "s",
    "crawler.supervisor.requeued_ranks": "count",
    "crawler.supervisor.requeued_share": "1",
    "crawler.supervisor.bisections": "count",
    "crawler.supervisor.exonerations": "count",
    "crawler.supervisor.quarantined": "count",
    "python.gc_s": "s",
    "python.gc_collections": "count",
    "trace.coverage_share": "1",
    "trace.overhead_share": "1",
}

#: Chunks this small or smaller count as tail fragments.
TAIL_CHUNK_SITES = 9


def layer_metrics(table: dict, *, setup_table: "dict | None" = None,
                  recorder: "SpanRecorder | None" = None,
                  pass_id: "int | None" = None, counts: dict,
                  counters: "dict | None" = None, wall_s: float,
                  sites: int = 0, supervisor: "dict | None" = None,
                  schedule: "list | None" = None, chunks: int = 0,
                  gc_s: float = 0.0, gc_collections: int = 0,
                  overhead_share: float = 0.0) -> dict:
    """Every :data:`PER_LAYER` metric from one traced pass.

    ``table`` is :func:`layer_table` of the pass, ``counts`` the
    recorder's counts, ``counters`` the program's own counters (memo
    hits), ``wall_s`` the time the pass's layers could cover.
    """
    counters = counters or {}
    supervisor = supervisor or {}

    def get(layer: str, field: str = "busy_s") -> float:
        return table.get(layer, {}).get(field, 0.0)

    def under(layer: str, ancestor: str) -> float:
        if recorder is None:
            return 0.0
        return busy_under(recorder, layer, ancestor, pass_id)

    def counter_ratio(prefix_hits: str, prefix_misses: str) -> float:
        hits = sum(v for k, v in counters.items() if k.startswith(prefix_hits))
        misses = sum(v for k, v in counters.items()
                     if k.startswith(prefix_misses))
        return hits / (hits + misses) if hits + misses else 0.0

    visit_busy = get("crawler.crawler")
    out = {
        "synthweb.generate_s": (setup_table or {}).get(
            "synthweb.generate", {}).get("busy_s", 0.0),
        "crawler.fetcher.calls": get("crawler.fetcher", "calls"),
        "crawler.fetcher.busy_s": get("crawler.fetcher"),
        "crawler.fetcher.failures": counts.get("crawler.fetcher.failures", 0),
        "browser.page.loads": get("browser.page", "calls"),
        "browser.page.self_s": get("browser.page", "self_s"),
        "browser.instrumentation.scripts": get("browser.instrumentation",
                                               "calls"),
        "browser.instrumentation.calls_recorded": counts.get(
            "browser.instrumentation.calls_recorded", 0),
        "browser.instrumentation.self_s": get("browser.instrumentation",
                                              "self_s"),
    }
    for layer in ("header", "feature_policy", "allow_attr", "engine"):
        out[f"policy.{layer}.calls"] = get(f"policy.{layer}", "calls")
        out[f"policy.{layer}.busy_s"] = get(f"policy.{layer}")
    out["policy.engine.memo_hit_ratio"] = counter_ratio(
        "policy.explain_memo_hits", "policy.explain_memo_misses")
    out.update({
        "crawler.records.busy_s": get("crawler.records"),
        "crawler.crawler.visits": get("crawler.crawler", "calls"),
        "crawler.crawler.self_s": get("crawler.crawler", "self_s"),
        "crawler.crawler.unattributed_share": (
            get("crawler.crawler", "self_s") / visit_busy
            if visit_busy else 0.0),
        "crawler.crawler.failed_visits": counts.get(
            "crawler.crawler.failed_visits", 0),
        "crawler.crawler.retries": counts.get("crawler.crawler.retries", 0),
        "crawler.storage.saved_visits": counts.get(
            "crawler.storage.saved_visits", 0),
        "crawler.storage.save_self_s": get("crawler.storage.save", "self_s"),
        "crawler.storage.flush_s": get("crawler.storage.flush"),
        "crawler.integrity.checksums": get("crawler.integrity", "calls"),
        "crawler.integrity.busy_s": get("crawler.integrity"),
        "crawler.integrity.save_busy_s": under("crawler.integrity",
                                               "crawler.storage.save"),
        "crawler.integrity.verify_busy_s": under("crawler.integrity",
                                                 "crawler.storage.verify"),
        "crawler.storage.verify_s": get("crawler.storage.verify"),
        "crawler.storage.verified_rows": counts.get(
            "crawler.storage.verified_rows", 0),
        "crawler.storage.corrupt_rows": counts.get(
            "crawler.storage.corrupt_rows", 0),
        "crawler.storage.decoded_visits": counts.get(
            "crawler.storage.decode.items", 0),
        "crawler.storage.decode_s": get("crawler.storage.decode"),
        "crawler.storage.load_dataset_s": get("crawler.storage.load_dataset"),
        "analysis.index.adds": get("analysis.index", "calls"),
        "analysis.index.busy_s": get("analysis.index"),
        "analysis.index.memo_hit_ratio": counter_ratio(
            "index.memo_hits.", "index.memo_misses."),
    })
    for name in ("usage", "delegation", "headers", "overpermission"):
        out[f"analysis.{name}.busy_s"] = get(f"analysis.{name}")
    sizes = schedule or []
    requeued = supervisor.get("requeued_ranks", 0)
    out.update({
        "analysis.summary.self_s": get("analysis.summary", "self_s"),
        "analysis.drift.diff_s": get("analysis.drift.diff"),
        "analysis.drift.profile_s": get("analysis.drift.profile"),
        "analysis.drift.sites_compared": counts.get(
            "analysis.drift.sites_compared", 0),
        "crawler.backends.chunks": chunks,
        "crawler.backends.tail_chunks": sum(
            1 for size in sizes if size <= TAIL_CHUNK_SITES),
        "crawler.backends.merges": get("crawler.backends.merge", "calls"),
        "crawler.backends.merge_s": get("crawler.backends.merge"),
        "crawler.backends.parent_wait_s": get("crawler.backends.parent_wait"),
        "crawler.supervisor.rebuilds": supervisor.get("rebuilds", 0),
        "crawler.supervisor.rebuild_s": get("crawler.supervisor.rebuild"),
        "crawler.supervisor.requeued_ranks": requeued,
        "crawler.supervisor.requeued_share": (requeued / sites
                                              if sites else 0.0),
        "crawler.supervisor.bisections": supervisor.get("bisections", 0),
        "crawler.supervisor.exonerations": supervisor.get("exonerations", 0),
        "crawler.supervisor.quarantined": len(supervisor.get(
            "quarantined_ranks", ())),
        "python.gc_s": gc_s,
        "python.gc_collections": gc_collections,
        "trace.coverage_share": (sum(row["self_s"] for row in table.values())
                                 / wall_s if wall_s else 0.0),
        "trace.overhead_share": overhead_share,
    })
    if set(out) != set(PER_LAYER):
        raise KeyError(f"per-layer metrics drifted: {set(out) ^ set(PER_LAYER)}")
    return {name: out[name] for name in PER_LAYER}
