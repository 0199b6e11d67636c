"""The scripts under ``examples/`` run end to end at a small scale."""

from __future__ import annotations

import importlib.util
import sys
import tempfile
from pathlib import Path

from repro.analysis.delegation import DelegationAnalysis
from repro.analysis.summary import summarize
from repro.crawler.pool import CrawlerPool
from repro.synthweb.generator import SyntheticWeb

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def load_example(name: str):
    spec = importlib.util.spec_from_file_location(
        f"example_{name}", EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reanalyze_stored_crawl(monkeypatch, tmp_path, capsys):
    """The streamed headline shares and the Table 3 ranking it prints are
    the in-memory analyses' numbers for the same crawl."""
    sites = 60
    monkeypatch.setattr(sys, "argv", ["reanalyze_stored_crawl.py",
                                      str(sites)])
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    load_example("reanalyze_stored_crawl").main()
    out = capsys.readouterr().out

    dataset = CrawlerPool(SyntheticWeb(sites, seed=2024)).run()
    summary = summarize(dataset)
    assert f"stored {sites:,} visits" in out
    assert f"successful visits:        {dataset.successful_count:,}" in out
    assert (f"Permissions-Policy (top): "
            f"{summary.pp_header_top_level_share:.2%}") in out
    assert (f"sites delegating:         "
            f"{summary.share_sites_delegating:.2%}") in out
    ranking = DelegationAnalysis(dataset.successful()).embedded_site_ranking(5)
    assert ranking
    for row in ranking:
        assert f"    {row.site:30s} {row.websites:6,}" in out
    assert list(tmp_path.glob("*/crawl.sqlite"))
