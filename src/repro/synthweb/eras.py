"""Ecosystem eras: the Feature-Policy → Permissions-Policy transition.

The paper situates itself against Kaleli et al.'s 2020 Feature-Policy
measurement ("among the few websites using the header, most used it to turn
off features") and documents the 2024 state: the renamed header at 4.5 %
top-level adoption, Feature-Policy residual at 0.51 %, the ads APIs
(Topics, Attribution Reporting, Protected Audience) newly everywhere, and
FLoC (`interest-cohort`) already shipped *and* removed in between.

:func:`rates_for_era` produces generator configurations for three moments
of that timeline so the transition itself becomes measurable:

* ``2020`` — Feature-Policy only (the predecessor study's world): ~1 %
  FP-header adoption, no Permissions-Policy, no Privacy-Sandbox ads APIs;
* ``2022`` — the renaming mid-point: both headers in the wild, the FLoC
  opt-out wave (`interest-cohort=()`) at its peak;
* ``2024`` — the paper's measurement (the calibrated defaults).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

from repro.synthweb.distributions import GeneratorRates


class Era(str, Enum):
    Y2020 = "2020"
    Y2022 = "2022"
    Y2024 = "2024"


@dataclass(frozen=True)
class EraProfile:
    """Generator configuration plus era-specific behaviours."""

    era: Era
    rates: GeneratorRates
    #: Share of dynamic general-API calls using the deprecated spelling —
    #: 100 % before the rename, still ~99 % in the paper's data.
    deprecated_api_share: float
    #: Whether the Privacy-Sandbox ads APIs exist at all.
    ads_apis_available: bool
    #: Whether the single-permission FLoC opt-out wave is underway.
    floc_optout_wave: bool


def rates_for_era(era: Era) -> EraProfile:
    """The generator configuration for one ecosystem era."""
    base = GeneratorRates()
    if era is Era.Y2024:
        return EraProfile(era=era, rates=base, deprecated_api_share=0.99,
                          ads_apis_available=True, floc_optout_wave=False)
    if era is Era.Y2022:
        rates = replace(
            base,
            pp_header_rate=base.pp_header_rate * 0.45,
            fp_header_rate=base.fp_header_rate * 3.0,
            header_syntax_error_rate=base.header_syntax_error_rate * 1.4,
        )
        return EraProfile(era=era, rates=rates, deprecated_api_share=1.0,
                          ads_apis_available=False, floc_optout_wave=True)
    if era is Era.Y2020:
        rates = replace(
            base,
            pp_header_rate=0.0,                       # header did not exist
            fp_header_rate=0.011,                     # Kaleli-era adoption
            header_syntax_error_rate=0.0,             # nothing to misparse
        )
        return EraProfile(era=era, rates=rates, deprecated_api_share=1.0,
                          ads_apis_available=False, floc_optout_wave=False)
    raise ValueError(f"unknown era: {era!r}")


@dataclass(frozen=True)
class EraComparison:
    """Adoption across the modelled timeline (the transition curve)."""

    era: Era
    pp_top_level_share: float
    fp_top_level_share: float
    sites_delegating_share: float
    #: True union share of top frames sending *either* header, measured
    #: from the visits.  ``None`` only for hand-built comparisons that
    #: predate the field (JSON round-trips, older callers).
    any_header_top_level_share: "float | None" = None

    @property
    def any_header_share(self) -> float:
        """Share of top-level sites sending either header.

        The measured union when available; otherwise falls back to the
        historical approximation ``pp + fp`` — documented as such because
        it double-counts dual-header sites (2,302 of 1M in the paper) and
        can exceed 1.0 on heavily dual-headed inputs."""
        if self.any_header_top_level_share is not None:
            return self.any_header_top_level_share
        return self.pp_top_level_share + self.fp_top_level_share


def era_variant(era: Era) -> str:
    """The measurement-cache variant tag for one era's crawl."""
    return f"era{era.value}"


def era_context(era: Era, site_count: int = 3000, *, seed: int = 2024,
                workers: int = 4, backend: str | None = None,
                use_cache: bool | None = None):
    """One era's measurement run as an
    :class:`~repro.experiments.runner.ExperimentContext`.

    Routed through :func:`~repro.experiments.runner.run_measurement`, so
    era crawls get the full measurement stack — disk cache (per-era
    variant entries) and backend selection — instead of rebuilding
    the web from scratch on every call."""
    # Imported lazily: synthweb is a fingerprinted package and must not
    # import the experiment layer at module load.
    from repro.experiments.runner import run_measurement

    profile = rates_for_era(era)
    return run_measurement(site_count, seed=seed, workers=workers,
                           backend=backend, use_cache=use_cache,
                           rates=profile.rates,
                           variant=era_variant(era))


def measure_era(era: Era, site_count: int = 3000, *, seed: int = 2024,
                workers: int = 4,
                use_cache: bool | None = None) -> EraComparison:
    """Crawl (or cache-load) one era's web and summarise its adoption.

    Byte-identical to the historical direct ``CrawlerPool(...).run()``
    path (asserted in ``tests/test_eras.py``), but served through the
    measurement cache so repeated transition curves reuse the stored
    crawl instead of regenerating three webs."""
    ctx = era_context(era, site_count, seed=seed, workers=workers,
                      use_cache=use_cache)
    visits = ctx.dataset.successful()
    headers = ctx.headers
    top_docs = max(1, headers.top_level_documents)
    fp_top = any_top = 0
    for visit in visits:
        top = visit.top_frame
        has_fp = top.header("feature-policy") is not None
        fp_top += has_fp
        any_top += has_fp or top.header("permissions-policy") is not None
    return EraComparison(
        era=era,
        pp_top_level_share=headers.adoption().pp_top_level_share,
        fp_top_level_share=fp_top / top_docs,
        sites_delegating_share=ctx.delegation.share_sites_delegating,
        any_header_top_level_share=any_top / top_docs,
    )


def transition_curve(site_count: int = 3000, *, seed: int = 2024,
                     workers: int = 4,
                     use_cache: bool | None = None) -> list[EraComparison]:
    """Adoption measurements for the full 2020 → 2024 timeline."""
    return [measure_era(era, site_count, seed=seed, workers=workers,
                        use_cache=use_cache)
            for era in (Era.Y2020, Era.Y2022, Era.Y2024)]
