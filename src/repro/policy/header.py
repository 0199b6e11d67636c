"""``Permissions-Policy`` header parsing.

The header is a structured-field dictionary mapping feature tokens to
allowlists (paper Section 2.2.3)::

    Permissions-Policy: camera=(), geolocation=(self "https://maps.example"), fullscreen=*

Browser behaviour reproduced here:

* Any structured-field **syntax error drops the entire header** — the paper
  found 3,244 frames (2 %) whose header the browser silently discards this
  way, leaving the site with default allowlists only (Section 4.3.3).
* Within a syntactically valid header, **unrecognised members are skipped
  individually**: unknown keywords (``none``, ``0``), unquoted URLs (which
  parse as structured-field tokens), and unknown feature names.  The browser
  ignores them; we retain them as diagnostics for the linter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.policy.allowlist import Allowlist
from repro.policy.issues import (
    HEADER_DROPPED,
    PARSER_ERROR,
    ParseIssue,
    clip_detail,
)
from repro.policy.memo import interned
from repro.policy.origin import Origin, OriginParseError
from repro.policy.structured import (
    InnerList,
    Item,
    StructuredFieldError,
    Token,
    parse_dictionary_items,
)


class HeaderParseError(ValueError):
    """The header is syntactically invalid; browsers drop it entirely."""

    def __init__(self, message: str, raw: str) -> None:
        super().__init__(message)
        self.raw = raw


class DirectiveIssue(str, Enum):
    """Per-directive semantic diagnostics (paper Section 4.3.3)."""

    UNRECOGNIZED_TOKEN = "unrecognized-token"
    UNQUOTED_URL = "unquoted-url"
    CONTRADICTORY = "contradictory-self-and-star"
    URL_WITHOUT_SELF = "url-without-self"
    UNKNOWN_FEATURE = "unknown-feature"
    INVALID_ORIGIN = "invalid-origin"
    DUPLICATE_FEATURE = "duplicate-feature"


@dataclass(frozen=True)
class DirectiveDiagnostic:
    """One semantic finding attached to a feature's directive."""

    feature: str
    issue: DirectiveIssue
    detail: str = ""


@dataclass
class ParsedPolicyHeader:
    """Result of parsing one ``Permissions-Policy`` header value.

    Attributes:
        raw: The header value as received.
        directives: Feature → effective allowlist, as the browser applies it.
        diagnostics: Semantic findings the browser silently tolerates.
        known_feature_names: Names the caller's registry recognised; unknown
            feature directives are *kept* in ``directives`` (forward
            compatibility) but flagged in ``diagnostics``.
    """

    raw: str
    directives: dict[str, Allowlist] = field(default_factory=dict)
    diagnostics: list[DirectiveDiagnostic] = field(default_factory=list)
    #: Lenient-mode only: what a strict parse would have raised (or any
    #: other problem the lenient path absorbed).  Always empty for strict
    #: parses, which raise instead.
    issues: tuple[ParseIssue, ...] = ()
    #: Lenient-mode only: the header was syntactically invalid and the
    #: browser drops it entirely — ``directives`` is empty.
    dropped: bool = False

    @property
    def feature_count(self) -> int:
        """Number of features the header declares a directive for."""
        return len(self.directives)

    def allowlist_for(self, feature: str) -> Allowlist | None:
        return self.directives.get(feature)

    def has_issue(self, issue: DirectiveIssue) -> bool:
        return any(d.issue is issue for d in self.diagnostics)


def _looks_like_url(token_text: str) -> bool:
    return "://" in token_text or token_text.startswith(("http:", "https:"))


def _allowlist_from_items(feature: str, items: tuple[Item, ...],
                          diagnostics: list[DirectiveDiagnostic]) -> Allowlist:
    star = False
    self_ = False
    src = False
    origins: list[Origin] = []
    invalid: list[str] = []
    for item in items:
        value = item.value
        if isinstance(value, Token):
            text = value.value
            if text == "*":
                star = True
            elif text == "self":
                self_ = True
            elif text == "src":
                src = True
            elif _looks_like_url(text):
                # URLs must be quoted strings; a bare URL still parses as an
                # sf-token, which the spec then fails to recognise.
                diagnostics.append(DirectiveDiagnostic(
                    feature, DirectiveIssue.UNQUOTED_URL, text))
                invalid.append(text)
            else:
                # e.g. `none` or other keywords with no meaning in headers
                diagnostics.append(DirectiveDiagnostic(
                    feature, DirectiveIssue.UNRECOGNIZED_TOKEN, text))
                invalid.append(text)
        elif isinstance(value, str):
            try:
                origins.append(Origin.parse(value))
            except OriginParseError:
                diagnostics.append(DirectiveDiagnostic(
                    feature, DirectiveIssue.INVALID_ORIGIN, value))
                invalid.append(value)
        else:
            # integers / decimals / booleans — e.g. `camera=(0)`
            diagnostics.append(DirectiveDiagnostic(
                feature, DirectiveIssue.UNRECOGNIZED_TOKEN, repr(value)))
            invalid.append(str(value))
    allowlist = Allowlist(star=star, self_=self_, src=src,
                          origins=tuple(dict.fromkeys(origins)),
                          invalid_tokens=tuple(invalid))
    if star and (self_ or origins):
        diagnostics.append(DirectiveDiagnostic(
            feature, DirectiveIssue.CONTRADICTORY,
            "allowlist mixes '*' with self/origins"))
    if origins and not self_ and not star:
        # Per W3C issue #480 (paper [39]): origin-only allowlists without
        # `self` are a footgun — delegation requires the self context too.
        diagnostics.append(DirectiveDiagnostic(
            feature, DirectiveIssue.URL_WITHOUT_SELF,
            "origins listed without 'self'"))
    return allowlist


def _detect_feature_policy_syntax(raw: str) -> bool:
    """Heuristic for the most common fatal mistake the paper reports:
    using the semicolon-and-quotes Feature-Policy grammar inside a
    Permissions-Policy header."""
    stripped = raw.strip()
    if "'" in stripped:
        return True
    if ";" in stripped and "=" not in stripped:
        return True
    return False


#: Valid values for the parsers' ``mode`` argument.
PARSE_MODES = ("strict", "lenient")


def parse_permissions_policy_header(
    raw: str,
    known_features: "frozenset[str] | set[str] | None" = None,
    *,
    mode: str = "strict",
) -> ParsedPolicyHeader:
    """Parse a ``Permissions-Policy`` header value.

    Args:
        raw: The header value.
        known_features: Feature names the registry recognises.  When given,
            unknown feature directives are flagged (but still applied, as
            Chromium does for forward compatibility).
        mode: ``"strict"`` (default) raises on syntax errors exactly as
            before; ``"lenient"`` never raises — a header a strict parse
            would reject comes back empty with ``dropped=True`` and the
            reason recorded in ``issues``.

    Returns:
        A :class:`ParsedPolicyHeader` with per-feature allowlists and
        semantic diagnostics.  Successful parses are interned by raw string
        (the parse is pure); treat the result as read-only.

    Raises:
        HeaderParseError: in strict mode, on structured-field syntax
            errors; the caller must treat the website as having **no**
            header (browser behaviour).  Errors are never cached — a bad
            header re-raises every call.  Lenient mode never raises on any
            string input.
    """
    if mode not in PARSE_MODES:
        raise ValueError(f"mode must be one of {PARSE_MODES}, got {mode!r}")
    if known_features is not None and not isinstance(known_features,
                                                     frozenset):
        known_features = frozenset(known_features)
    if mode == "strict":
        return _parse_permissions_policy_cached(raw, known_features)
    try:
        return _parse_permissions_policy_cached(raw, known_features)
    except HeaderParseError as exc:
        return ParsedPolicyHeader(
            raw=raw, dropped=True,
            issues=(ParseIssue(HEADER_DROPPED, clip_detail(str(exc))),))
    except Exception as exc:  # hostile input must never escape lenient mode
        return ParsedPolicyHeader(
            raw=raw, dropped=True,
            issues=(ParseIssue(
                PARSER_ERROR,
                clip_detail(f"{type(exc).__name__}: {exc}")),))


@interned
def _parse_permissions_policy_cached(
        raw: str, known_features: "frozenset[str] | None"
) -> ParsedPolicyHeader:
    try:
        members = parse_dictionary_items(raw)
    except StructuredFieldError as exc:
        if _detect_feature_policy_syntax(raw):
            raise HeaderParseError(
                "header uses Feature-Policy syntax", raw) from exc
        raise HeaderParseError(str(exc), raw) from exc

    result = ParsedPolicyHeader(raw=raw)
    for feature, member in members:
        if isinstance(member, InnerList):
            allowlist = _allowlist_from_items(feature, member.items,
                                              result.diagnostics)
        else:
            value = member.value
            if isinstance(value, Token) and value.value == "*":
                allowlist = Allowlist.all_origins()
            elif isinstance(value, Token) and value.value == "self":
                allowlist = Allowlist.self_only()
            elif value is True:
                # bare key, e.g. `camera` with no value: treated as `*` by
                # Chromium's parser for standalone items.
                allowlist = Allowlist.all_origins()
            else:
                allowlist = _allowlist_from_items(
                    feature, (Item(value),), result.diagnostics)
        if feature in result.directives:
            result.diagnostics.append(DirectiveDiagnostic(
                feature, DirectiveIssue.DUPLICATE_FEATURE))
            allowlist = result.directives[feature].merged(allowlist)
        if known_features is not None and feature not in known_features:
            result.diagnostics.append(DirectiveDiagnostic(
                feature, DirectiveIssue.UNKNOWN_FEATURE))
        result.directives[feature] = allowlist
    return result


def serialize_permissions_policy(directives: dict[str, Allowlist]) -> str:
    """Serialize directives back into a header value (used by the header
    generator tool, Figure 4)."""
    return ", ".join(
        f"{feature}={allowlist.serialize_header()}"
        for feature, allowlist in directives.items()
    )
