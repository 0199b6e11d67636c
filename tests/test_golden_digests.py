"""Committed golden digests of the headline summaries and the drift outputs.

An oracle that does not depend on the code it checks: every digest below
was computed once and committed, so a change that moves any summary field,
drift metric or timeline value fails here even when every path still
agrees with every other.  Three 300-site crawls (seeds 1, 2, 3) are
stored; each is summarized serially from the store, from the in-memory
dataset and over two worker processes, and the stores are diffed and
folded into a timeline.

A deliberate change to a paper number regenerates the digests::

    PYTHONPATH=src python tests/test_golden_digests.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.analysis.drift import build_timeline, diff_stores
from repro.analysis.summary import summarize, summarize_streaming
from repro.crawler.pool import CrawlerPool
from repro.crawler.storage import CrawlStore
from repro.synthweb.generator import SyntheticWeb

SITES = 300
SEEDS = (1, 2, 3)

GOLDEN = {
    'build_timeline.seeds123':
        'cb3127785eef6b849242a2f38024e76e7c57669a6d2e4f4bd8c376532ded6267',
    'diff_stores.seed1_seed2':
        'd6a73d427ac243c0e923316463f05ebc913be087903346b001fa9a158e1ac679',
    'seed1.summarize':
        '087907bf0a914cffce7af47cd7870bb6de454d58521b29920f9b5dd232606b94',
    'seed1.summarize_streaming':
        '087907bf0a914cffce7af47cd7870bb6de454d58521b29920f9b5dd232606b94',
    'seed1.summarize_streaming_workers2':
        '087907bf0a914cffce7af47cd7870bb6de454d58521b29920f9b5dd232606b94',
    'seed2.summarize':
        'ff205cd4dbe91d288c10d8c5c8efc06cbe45908866fa281ab7f401e29e003d7d',
    'seed2.summarize_streaming':
        'ff205cd4dbe91d288c10d8c5c8efc06cbe45908866fa281ab7f401e29e003d7d',
    'seed2.summarize_streaming_workers2':
        'ff205cd4dbe91d288c10d8c5c8efc06cbe45908866fa281ab7f401e29e003d7d',
    'seed3.summarize':
        'e3c8824f57056c8ab489fc151a8dfef9caf8f9cdbd2ca43179abcc867dce4fb7',
    'seed3.summarize_streaming':
        'e3c8824f57056c8ab489fc151a8dfef9caf8f9cdbd2ca43179abcc867dce4fb7',
    'seed3.summarize_streaming_workers2':
        'e3c8824f57056c8ab489fc151a8dfef9caf8f9cdbd2ca43179abcc867dce4fb7',
}


def _digest(document) -> str:
    text = json.dumps(document, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def _crawl(seed: int, path):
    with CrawlStore(path) as store:
        dataset = CrawlerPool(SyntheticWeb(SITES, seed=seed),
                              workers=1).run(store=store)
        store.flush()
    return dataset


def compute_digests(root) -> dict:
    """Every golden digest, over stores crawled under ``root``."""
    from repro.crawler.backends import shutdown_warm_pool

    digests = {}
    paths = []
    try:
        for seed in SEEDS:
            path = root / f"seed-{seed}.sqlite"
            dataset = _crawl(seed, path)
            paths.append(path)
            with CrawlStore(path) as store:
                streamed = summarize_streaming(store)
                parallel = summarize_streaming(store, workers=2)
            digests[f"seed{seed}.summarize_streaming"] = _digest(
                dataclasses.asdict(streamed))
            digests[f"seed{seed}.summarize"] = _digest(
                dataclasses.asdict(summarize(dataset)))
            digests[f"seed{seed}.summarize_streaming_workers2"] = _digest(
                dataclasses.asdict(parallel))
    finally:
        shutdown_warm_pool()
    digests["diff_stores.seed1_seed2"] = _digest(
        diff_stores(paths[0], paths[1], labels=("seed-1", "seed-2")).to_json())
    digests["build_timeline.seeds123"] = _digest(
        build_timeline(paths, labels=("seed-1", "seed-2", "seed-3")).to_json())
    return digests


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return compute_digests(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_digest_matches_golden(digests, name):
    assert digests[name] == GOLDEN[name]


def test_golden_covers_every_digest(digests):
    assert sorted(digests) == sorted(GOLDEN)


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as scratch:
        for key, value in sorted(compute_digests(Path(scratch)).items()):
            print(f"    {key!r}:\n        {value!r},")
