"""Deterministic synthetic-web generation.

:class:`SyntheticWeb` plays the role of the live top-1M web: it knows a
ranked origin list (the CrUX-list equivalent) and can resolve any URL the
crawler asks for — top-level sites, widget documents, partner widgets and
generic embeds — into response headers plus document content.  Everything
is derived from ``(seed, rank)`` or ``(seed, url)`` so repeated crawls see
identical content, which is what makes the benchmark suite reproducible.

Per-site drawing order (all probabilities from
:class:`repro.synthweb.distributions.GeneratorRates` and the paper counts
embedded in :mod:`repro.synthweb.profiles` /
:mod:`repro.synthweb.scripts_gen`):

1. failure mode (DNS / timeout / ephemeral / excluded / none),
2. redirect behaviour,
3. top-level headers: Permissions-Policy (with the paper's template-size
   clusters and misconfiguration injection), Feature-Policy, CSP,
4. script archetypes behind the two coupled activity gates,
5. widget placements (ads widgets correlated through an ads gate),
6. partner delegator iframes, generic external embeds and local iframes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from enum import Enum

from repro.browser.dom import DocumentContent, IframeElement
from repro.browser.scripts import Script
from repro.synthweb.distributions import PAPER, GeneratorRates
from repro.synthweb.profiles import (
    WidgetProfile,
    build_widget_script,
    default_widget_profiles,
)
from repro.synthweb.scripts_gen import (
    DYNAMIC_GATE_RATE,
    STATIC_GATE_GIVEN_DYNAMIC,
    STATIC_GATE_GIVEN_PLAIN,
    ScriptArchetype,
    default_archetypes,
    default_static_archetypes,
)


class FailureMode(str, Enum):
    """The paper's crawl-failure taxonomy (Section 4)."""

    NONE = "ok"
    EPHEMERAL = "ephemeral-content-error"
    TIMEOUT = "load-timeout"
    UNREACHABLE = "unreachable"
    MINOR = "minor-crawler-error"
    LATE_TIMEOUT = "final-update-timeout"
    EXCLUDED = "excluded-incomplete"


_TLDS: tuple[tuple[str, float], ...] = (
    ("com", 0.52), ("org", 0.08), ("net", 0.06), ("de", 0.06), ("io", 0.04),
    ("co.uk", 0.04), ("fr", 0.04), ("com.br", 0.03), ("ru", 0.03),
    ("it", 0.03), ("nl", 0.02), ("es", 0.02), ("co.jp", 0.02), ("pl", 0.01),
)

#: 18- and 9-permission disable templates — the copy-paste configurations
#: behind the paper's "most common number of permissions defined are 18,
#: 1 and 9" observation.
_TEMPLATE_18: tuple[str, ...] = (
    "accelerometer", "ambient-light-sensor", "autoplay", "battery", "camera",
    "display-capture", "encrypted-media", "fullscreen", "geolocation",
    "gyroscope", "interest-cohort", "magnetometer", "microphone", "midi",
    "payment", "sync-xhr", "usb", "xr-spatial-tracking",
)
_TEMPLATE_9: tuple[str, ...] = (
    "accelerometer", "camera", "geolocation", "gyroscope", "magnetometer",
    "microphone", "payment", "sync-xhr", "usb",
)
_SINGLE_FEATURE_MIX: tuple[tuple[str, float], ...] = (
    ("interest-cohort", 0.55), ("camera", 0.15), ("geolocation", 0.15),
    ("browsing-topics", 0.05), ("autoplay", 0.05), ("fullscreen", 0.05),
)
_CUSTOM_POOL: tuple[str, ...] = _TEMPLATE_18 + (
    "browsing-topics", "attribution-reporting", "clipboard-read",
    "clipboard-write", "gamepad", "hid", "serial", "bluetooth",
    "picture-in-picture", "publickey-credentials-get", "screen-wake-lock",
    "storage-access", "web-share", "idle-detection", "local-fonts",
    "keyboard-map", "window-management",
)

#: Partner-widget templates: (allow template, weight, dynamic permissions,
#: static permissions).  Partners use what they are delegated, keeping them
#: out of the over-permission tables while filling out Table 8's counts for
#: microphone, fullscreen and the sensors.
_PARTNER_TEMPLATES: tuple[tuple[str, float, tuple[str, ...], tuple[str, ...]], ...] = (
    ("camera; microphone", 0.18, (), ("camera", "microphone")),
    ("autoplay; fullscreen", 0.20, (), ("autoplay", "fullscreen")),
    ("payment", 0.08, ("payment",), ()),
    ("geolocation", 0.08, ("geolocation",), ()),
    ("microphone *; camera *; display-capture *", 0.08,
     (), ("microphone", "camera", "display-capture")),
    ("gyroscope; accelerometer; autoplay", 0.10,
     (), ("gyroscope", "accelerometer", "autoplay")),
    ("clipboard-write; web-share", 0.14,
     (), ("clipboard-write", "web-share")),
    ("autoplay; encrypted-media; picture-in-picture", 0.14,
     (), ("autoplay", "encrypted-media", "picture-in-picture")),
)

#: Per-site inclusion rate of each ads network, given that the site runs
#: ads at all; other ads profiles use 0.3.
_ADS_BASE_RATES: dict[str, float] = {
    "googlesyndication.com": 0.82, "doubleclick.net": 0.70,
    "criteo.com": 0.43,
}


@dataclass
class WidgetPlacement:
    """One widget embedded on a site."""

    profile: WidgetProfile
    delegated: bool
    lazy: bool
    count: int = 1
    #: Some deployments copy the embed code with `*` appended to every
    #: feature — the convenience-over-security pattern behind the paper's
    #: 17.17 % wildcard directives.
    starify: bool = False
    use_rare_template: bool = False
    #: Per-placement salt appended to the embed URL so every placement is a
    #: distinct document (real embeds carry video ids / slot parameters);
    #: widget-internal randomness is keyed on the URL, so without the salt
    #: every placement of a widget would behave identically.
    salt: int = 0

    def iframe_elements(self) -> list[IframeElement]:
        allow = self.profile.allow_template if self.delegated else None
        if (self.delegated and self.use_rare_template
                and self.profile.allow_template_rare is not None):
            allow = self.profile.allow_template_rare
        if allow is not None and self.starify:
            allow = "; ".join(
                part.strip() if part.strip().endswith("*")
                else f"{part.strip()} *"
                for part in allow.split(";") if part.strip())
        return [
            IframeElement(
                src=f"{self.profile.embed_url}?e={self.salt}-{index}",
                allow=allow,
                loading="lazy" if self.lazy else "",
                element_id=f"{self.profile.name.lower()}-{index}",
            )
            for index in range(self.count)
        ]


@dataclass
class SiteSpec:
    """Everything the generator decided about one ranked site."""

    rank: int
    url: str
    host: str
    failure: FailureMode
    redirect_to: str | None
    headers: dict[str, str]
    header_template: str
    scripts: list[Script]
    widget_placements: list[WidgetPlacement]
    partner_iframes: list[IframeElement]
    generic_iframes: list[IframeElement]
    local_iframes: list[IframeElement]
    #: Number of same-origin subpages behind the landing page; visiting
    #: /p0../p{n-1} executes the functionality that is navigation-gated on
    #: the landing page (the paper's Section 6.1 landing-page limitation).
    subpage_count: int = 0

    @property
    def succeeded(self) -> bool:
        return self.failure is FailureMode.NONE

    def iframe_elements(self) -> list[IframeElement]:
        elements: list[IframeElement] = []
        for placement in self.widget_placements:
            elements.extend(placement.iframe_elements())
        elements.extend(self.partner_iframes)
        elements.extend(self.generic_iframes)
        elements.extend(self.local_iframes)
        return elements

    def content(self) -> DocumentContent:
        return DocumentContent(scripts=list(self.scripts),
                               iframes=self.iframe_elements())


class SyntheticWeb:
    """A deterministic, rank-ordered synthetic web (see module docstring).

    Args:
        site_count: Number of sites in the ranked list (the paper uses 1M;
            benchmarks default to a laptop-scale subset).
        seed: Master seed; everything is a pure function of (seed, rank).
        rates: Generator probabilities; defaults derive from the paper.
        profiles: Widget catalogue.
    """

    def __init__(self, site_count: int, *, seed: int = 2024,
                 rates: GeneratorRates | None = None,
                 profiles: tuple[WidgetProfile, ...] | None = None) -> None:
        if site_count <= 0:
            raise ValueError("site_count must be positive")
        self.site_count = site_count
        self.seed = seed
        self.rates = rates if rates is not None else GeneratorRates()
        self.profiles = (profiles if profiles is not None
                         else default_widget_profiles())
        self._profiles_by_host = {p.site: p for p in self.profiles}
        self._archetypes = default_archetypes()
        self._static_archetypes = default_static_archetypes()
        self._site_cache: dict[int, SiteSpec] = {}

    # -- site list (the CrUX-list equivalent) -----------------------------------

    def origins(self) -> list[str]:
        return [self.origin_for_rank(rank) for rank in range(self.site_count)]

    def origin_for_rank(self, rank: int) -> str:
        return f"https://{self.host_for_rank(rank)}"

    def host_for_rank(self, rank: int) -> str:
        rng = self._rng("host", rank)
        tld = _weighted(rng, _TLDS)
        return f"site-{rank:07d}.{tld}"

    def rank_for_host(self, host: str) -> int | None:
        if not host.startswith("site-"):
            return None
        try:
            return int(host.split(".", 1)[0][len("site-"):])
        except ValueError:
            return None

    # -- site generation ------------------------------------------------------------

    #: Bound on the site-spec memo.  Specs are pure functions of
    #: (seed, rank), so the cache is dropped wholesale when full (the same
    #: epoch-clear idiom as the policy engine's decision memo — safe under
    #: concurrent pool workers, a lost entry just regenerates).  Without a
    #: bound the memo grows ~3 KB per visited site and quietly dominates
    #: peak RSS on 100k+ crawls.
    _SITE_CACHE_MAX = 4096

    def site(self, rank: int) -> SiteSpec:
        """The (cached) specification of the site at ``rank``."""
        if rank < 0 or rank >= self.site_count:
            raise IndexError(f"rank {rank} outside [0, {self.site_count})")
        cached = self._site_cache.get(rank)
        if cached is None:
            if len(self._site_cache) >= self._SITE_CACHE_MAX:
                self._site_cache.clear()
            cached = self._generate_site(rank)
            self._site_cache[rank] = cached
        return cached

    def _rng(self, purpose: str, key: object) -> random.Random:
        return random.Random(f"{self.seed}:{purpose}:{key}")

    def _rank_adoption_multiplier(self, rank: int) -> float:
        """Security-header adoption skews towards popular sites; the
        multipliers are chosen to average ~1 over the full list so the
        global marginals stay calibrated."""
        percentile = rank / self.site_count
        if percentile < 0.02:
            return 1.9
        if percentile < 0.10:
            return 1.4
        if percentile < 0.40:
            return 1.05
        return 0.90

    def _generate_site(self, rank: int) -> SiteSpec:
        rng = self._rng("site", rank)
        host = self.host_for_rank(rank)
        url = f"https://{host}"
        failure = self._draw_failure(rng)
        redirect_to = None
        if rng.random() < self.rates.redirect_rate:
            redirect_to = (f"https://www.{host}/" if rng.random() < 0.7
                           else f"{url}/home")
        headers, template = self._draw_headers(
            rng, self._rank_adoption_multiplier(rank))
        scripts = self._draw_scripts(rng, host)
        placements = self._draw_widgets(rng)
        partner = self._draw_partner(rng)
        generic, local = self._draw_plain_iframes(rng, host, bool(placements))
        return SiteSpec(
            rank=rank, url=url, host=host, failure=failure,
            redirect_to=redirect_to, headers=headers,
            header_template=template, scripts=scripts,
            widget_placements=placements, partner_iframes=partner,
            generic_iframes=generic, local_iframes=local,
            subpage_count=rng.randint(2, 8),
        )

    def _draw_failure(self, rng: random.Random) -> FailureMode:
        roll = rng.random()
        rates = self.rates
        thresholds = (
            (rates.fail_ephemeral, FailureMode.EPHEMERAL),
            (rates.fail_timeout, FailureMode.TIMEOUT),
            (rates.fail_unreachable, FailureMode.UNREACHABLE),
            (rates.fail_minor, FailureMode.MINOR),
            (rates.fail_late_timeout, FailureMode.LATE_TIMEOUT),
            (rates.fail_excluded, FailureMode.EXCLUDED),
        )
        cumulative = 0.0
        for rate, mode in thresholds:
            cumulative += rate
            if roll < cumulative:
                return mode
        return FailureMode.NONE

    # -- headers -----------------------------------------------------------------------

    def _draw_headers(self, rng: random.Random,
                      adoption_multiplier: float = 1.0
                      ) -> tuple[dict[str, str], str]:
        headers: dict[str, str] = {"content-type": "text/html"}
        template = "none"
        if rng.random() < self.rates.csp_rate * adoption_multiplier:
            if rng.random() < self.rates.csp_frame_src_rate:
                headers["content-security-policy"] = (
                    "script-src 'self'; frame-src 'self' https:")
            else:
                headers["content-security-policy"] = (
                    "script-src 'self'; object-src 'none'")
        has_pp = rng.random() < (self.rates.pp_header_rate
                                 * adoption_multiplier)
        if has_pp:
            value, template = self._draw_pp_header(rng)
            headers["permissions-policy"] = value
        if rng.random() < self.rates.fp_header_rate:
            headers["feature-policy"] = (
                "camera 'none'; microphone 'none'; geolocation 'none'")
            if not has_pp:
                template = "feature-policy-only"
        return headers, template

    def _draw_pp_header(self, rng: random.Random) -> tuple[str, str]:
        roll = rng.random()
        if roll < PAPER.share_headers_with_18_permissions:
            features, template = list(_TEMPLATE_18), "disable-18"
        elif roll < (PAPER.share_headers_with_18_permissions
                     + PAPER.share_headers_with_9_permissions):
            features, template = list(_TEMPLATE_9), "disable-9"
        elif roll < (PAPER.share_headers_with_18_permissions
                     + PAPER.share_headers_with_9_permissions
                     + PAPER.share_headers_with_1_permission):
            features, template = [_weighted(rng, _SINGLE_FEATURE_MIX)], "single"
        else:
            size = min(64, max(2, int(rng.gauss(10, 6))))
            features = rng.sample(_CUSTOM_POOL, min(size, len(_CUSTOM_POOL)))
            template = "custom"
        directives = [
            f"{feature}={self._draw_directive_value(rng, feature, template)}"
            for feature in features
        ]
        value = ", ".join(directives)
        value = self._maybe_misconfigure(rng, value)
        return value, template

    def _draw_directive_value(self, rng: random.Random, feature: str,
                              template: str) -> str:
        if template in ("disable-18", "disable-9"):
            return "()"
        if template == "single" and feature == "interest-cohort":
            return "()"
        roll = rng.random()
        self_boost = 0.14 if feature in ("geolocation", "sync-xhr") else 0.0
        if roll < 0.49 - self_boost:
            return "()"
        if roll < 0.76:
            return "(self)"
        if roll < 0.95:
            return "*"
        if roll < 0.975:
            return '(self "https://trusted-partner.example")'
        return '(self "https://www.site-partner.example")'

    def _maybe_misconfigure(self, rng: random.Random, value: str) -> str:
        roll = rng.random()
        if roll < self.rates.header_syntax_error_rate:
            kind = rng.random()
            if kind < 0.5:
                # Feature-Policy syntax in a Permissions-Policy header: the
                # paper's most common fatal mistake.
                return "camera 'self'; geolocation 'none'"
            if kind < 0.85:
                return value + ","
            return value.replace(")", "", 1)
        if roll < (self.rates.header_syntax_error_rate
                   + self.rates.header_semantic_issue_rate):
            kind = rng.random()
            if kind < 0.30:
                return value + ", gamepad=(none)"
            if kind < 0.55:
                return value + ", clipboard-read=(self https://cdn.example)"
            if kind < 0.75:
                return value + ", web-share=(self *)"
            return value + ', serial=("https://device-portal.example")'
        return value

    # -- scripts ---------------------------------------------------------------------------

    def _draw_scripts(self, rng: random.Random, host: str) -> list[Script]:
        scripts: list[Script] = [Script(
            url=f"https://{host}/js/app.js",
            source="(function(){var app={};app.boot=function(){};app.boot();})();",
        )]
        dynamic_gate = rng.random() < DYNAMIC_GATE_RATE
        static_gate = rng.random() < (STATIC_GATE_GIVEN_DYNAMIC if dynamic_gate
                                      else STATIC_GATE_GIVEN_PLAIN)
        for archetype in self._archetypes:
            if archetype.gated and not dynamic_gate:
                continue
            if rng.random() < archetype.rate:
                scripts.append(archetype.build(host, rng))
        if static_gate:
            for archetype in self._static_archetypes:
                if rng.random() < archetype.rate:
                    scripts.append(archetype.build(host, rng))
        return scripts

    # -- iframes ------------------------------------------------------------------------------

    def _draw_widgets(self, rng: random.Random) -> list[WidgetPlacement]:
        placements: list[WidgetPlacement] = []
        successful = PAPER.successful_sites
        ads_gate = rng.random() < 0.038
        for profile in self.profiles:
            if profile.category == "ads":
                base = _ADS_BASE_RATES.get(profile.site, 0.3)
                extra = 0.0052 if profile.site == "doubleclick.net" else 0.0
                include = (ads_gate and rng.random() < base) or (
                    rng.random() < extra)
                count = rng.randint(1, 2) if include else 0
            else:
                include = rng.random() < profile.embed_count / successful
                count = 1
            if not include:
                continue
            placements.append(WidgetPlacement(
                profile=profile,
                delegated=rng.random() < profile.delegation_rate,
                lazy=rng.random() < profile.lazy_rate,
                count=count,
                starify=rng.random() < 0.04,
                use_rare_template=(rng.random()
                                   < profile.rare_template_rate),
                salt=rng.randint(0, 999_999),
            ))
        return placements

    def _draw_partner(self, rng: random.Random) -> list[IframeElement]:
        if rng.random() >= 0.04:
            return []
        partner_id = min(int(rng.paretovariate(0.8)), 4000)
        template_index = _weighted_index(
            rng, [weight for _, weight, _, _ in _PARTNER_TEMPLATES])
        allow = _PARTNER_TEMPLATES[template_index][0]
        return [IframeElement(
            src=f"https://partner-{partner_id}.example/w{template_index}",
            allow=allow,
            element_id="partner-widget",
        )]

    def _draw_plain_iframes(self, rng: random.Random, host: str,
                            has_widgets: bool
                            ) -> tuple[list[IframeElement], list[IframeElement]]:
        generic: list[IframeElement] = []
        local: list[IframeElement] = []
        if rng.random() >= 0.55:
            return generic, local
        for _ in range(_poisson(rng, 1.15)):
            cdn = rng.randint(1, 400)
            generic.append(IframeElement(
                src=f"https://cdn-widgets-{cdn}.example/embed",
                loading="lazy" if rng.random() < self.rates.lazy_iframe_rate
                else "",
            ))
        for _ in range(1 + _poisson(rng, 1.2)):
            if rng.random() < 0.017:
                # Same-site video player iframe with internal delegation —
                # the non-external part of the paper's 12.07 % delegation.
                local.append(IframeElement(
                    srcdoc="<video autoplay></video>",
                    allow="autoplay; fullscreen",
                    local_content=DocumentContent(scripts=[build_widget_script(
                        None, static=("autoplay", "fullscreen"))]),
                ))
            else:
                scheme = rng.choice(["about", "about", "data", "javascript"])
                local.append(IframeElement(
                    src=None if scheme == "about" else f"{scheme}:content",
                    srcdoc="<div>inline</div>" if scheme == "about" else None,
                ))
        return generic, local

    # -- URL resolution (used by the crawler's fetcher) -----------------------------

    def profile_for_host(self, host: str) -> WidgetProfile | None:
        return self._profiles_by_host.get(host)

    def partner_content(self, host: str, path: str) -> DocumentContent:
        """Content of a partner widget document (template from the path)."""
        try:
            template_index = int(path.lstrip("/").lstrip("w") or 0)
        except ValueError:
            template_index = 0
        template_index %= len(_PARTNER_TEMPLATES)
        _, __, dynamic, static = _PARTNER_TEMPLATES[template_index]
        script = build_widget_script(f"https://{host}/widget.js",
                                     dynamic=dynamic, static=static)
        return DocumentContent(scripts=[script])

    def subpage_content(self, rank: int, index: int) -> DocumentContent:
        """Content of one same-origin subpage.

        Subpages carry the landing page's scripts with their
        navigation-gated operations *promoted to immediate* — being on the
        page IS the navigation.  Click/login gates stay gated.  Widgets are
        landing-page only (keeping the landing page the richer document,
        as the paper's internal-pages literature finds for third parties).
        """
        spec = self.site(rank)
        scripts = []
        for script in spec.scripts:
            promoted = tuple(
                replace(op, requires_interaction=False)
                if op.interaction_gate == "navigation" else op
                for op in script.operations)
            scripts.append(replace(script, operations=promoted))
        return DocumentContent(scripts=scripts)

    def sub_syndication_content(self, rng: random.Random) -> DocumentContent:
        """A nested ad frame — the depth-2 activity behind the nested
        delegation analysis.  Half the deployments probe battery from their
        own bundle, half offload measurement to a third-party helper,
        keeping the embedded first-/third-party mix realistic."""
        if rng.random() < 0.5:
            scripts = [build_widget_script(
                "https://sub-syndication.example/render.js",
                dynamic=("battery",), general_api=True)]
        else:
            scripts = [
                build_widget_script(
                    "https://sub-syndication.example/render.js"),
                build_widget_script(
                    "https://static.adsrvr.example/measure.js",
                    dynamic=("battery",), general_api=True),
            ]
        return DocumentContent(scripts=scripts)

    def generic_embed_content(self, host: str) -> DocumentContent:
        return DocumentContent(scripts=[Script(
            url=f"https://{host}/embed.js",
            source="(function(){render('embed');})();",
        )])


# -- small draw helpers ------------------------------------------------------------

def _weighted(rng: random.Random, table: tuple[tuple[str, float], ...]) -> str:
    roll = rng.random() * sum(weight for _, weight in table)
    cumulative = 0.0
    for value, weight in table:
        cumulative += weight
        if roll < cumulative:
            return value
    return table[-1][0]


def _weighted_index(rng: random.Random, weights: list[float]) -> int:
    roll = rng.random() * sum(weights)
    cumulative = 0.0
    for index, weight in enumerate(weights):
        cumulative += weight
        if roll < cumulative:
            return index
    return len(weights) - 1


def _poisson(rng: random.Random, lam: float) -> int:
    """Knuth's algorithm; lam is small here so this is fast."""
    threshold = math.exp(-lam)
    count = 0
    product = rng.random()
    while product > threshold:
        count += 1
        product *= rng.random()
    return count
