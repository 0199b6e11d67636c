"""The iframe ``allow`` attribute.

The ``allow`` attribute delegates (or restricts) permissions on an embedded
document (paper Section 2.2.2)::

    <iframe src="https://widget.example/chat"
            allow="camera; microphone *; geolocation 'self' https://a.com">

Each semicolon-separated directive names a feature and an optional
allowlist.  When the allowlist is omitted it defaults to the ``src``
keyword — the origin the ``src`` attribute points at — which is what the
paper finds in 82.12 % of observed delegations (Section 4.2.2).

This module parses the attribute and classifies every delegation by the
directive kind the paper's Section 4.2.2 distribution uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.policy.allowlist import Allowlist
from repro.policy.feature_policy import SerializedDirective, parse_serialized_policy
from repro.policy.issues import (
    INVALID_TOKEN,
    PARSER_ERROR,
    ParseIssue,
    clip_detail,
)
from repro.policy.memo import interned


class DelegationDirectiveKind(str, Enum):
    """How a delegation's allowlist was written (paper Section 4.2.2)."""

    DEFAULT_SRC = "default-src"      # no member tokens; defaults to 'src'
    STAR = "star"                    # explicit *
    EXPLICIT_SRC = "explicit-src"    # explicit 'src' keyword
    NONE = "none"                    # explicit 'none' (opt-out)
    SELF = "self"                    # explicit 'self'
    ORIGIN = "origin"                # one or more explicit origins
    MIXED = "mixed"                  # combination of the above


@dataclass(frozen=True)
class AllowEntry:
    """One feature delegation inside an ``allow`` attribute."""

    feature: str
    allowlist: Allowlist
    kind: DelegationDirectiveKind
    explicit: bool

    @property
    def is_opt_out(self) -> bool:
        """True for ``feature 'none'`` — the author opted out of delegation."""
        return self.kind is DelegationDirectiveKind.NONE


@dataclass
class AllowAttribute:
    """A parsed ``allow`` attribute: ordered feature delegations."""

    raw: str
    entries: dict[str, AllowEntry] = field(default_factory=dict)
    #: Lenient-mode only: issues the parse survived.  Empty for strict
    #: parses (which drop malformed member tokens silently, like browsers).
    issues: tuple[ParseIssue, ...] = ()

    @property
    def features(self) -> tuple[str, ...]:
        return tuple(self.entries)

    @property
    def delegated_features(self) -> tuple[str, ...]:
        """Features actually delegated (i.e. excluding ``'none'`` opt-outs)."""
        return tuple(name for name, entry in self.entries.items()
                     if not entry.is_opt_out)

    def entry(self, feature: str) -> AllowEntry | None:
        return self.entries.get(feature)

    def allowlist_for(self, feature: str) -> Allowlist | None:
        entry = self.entries.get(feature)
        return entry.allowlist if entry else None

    def __bool__(self) -> bool:
        return bool(self.entries)


def _classify(directive: SerializedDirective, allowlist: Allowlist
              ) -> DelegationDirectiveKind:
    if not directive.is_explicit:
        return DelegationDirectiveKind.DEFAULT_SRC
    if allowlist.is_empty and not allowlist.invalid_tokens:
        return DelegationDirectiveKind.NONE
    flags = [allowlist.star, allowlist.src, allowlist.self_, bool(allowlist.origins)]
    if sum(flags) > 1:
        return DelegationDirectiveKind.MIXED
    if allowlist.star:
        return DelegationDirectiveKind.STAR
    if allowlist.src:
        return DelegationDirectiveKind.EXPLICIT_SRC
    if allowlist.self_:
        return DelegationDirectiveKind.SELF
    if allowlist.origins:
        return DelegationDirectiveKind.ORIGIN
    return DelegationDirectiveKind.NONE


def parse_allow_attribute(raw: str, *, mode: str = "strict"
                          ) -> AllowAttribute:
    """Parse an iframe ``allow`` attribute value.

    Directives without member tokens default to the ``src`` keyword.  Like
    browsers, the parser is forgiving either way: malformed member tokens
    are dropped, repeated features merge their allowlists.  ``mode=
    "lenient"`` additionally guarantees no exception ever escapes (a
    parser crash on hostile input degrades to an empty attribute) and
    records dropped tokens as :class:`~repro.policy.issues.ParseIssue`\\ s.

    Results are interned by raw string (the parse is pure); treat the
    returned :class:`AllowAttribute` as read-only.
    """
    if mode == "strict":
        return _parse_allow_attribute_cached(raw)
    if mode != "lenient":
        raise ValueError(f"mode must be 'strict' or 'lenient', got {mode!r}")
    try:
        parsed = _parse_allow_attribute_cached(raw)
    except Exception as exc:
        return AllowAttribute(
            raw=raw,
            issues=(ParseIssue(
                PARSER_ERROR,
                clip_detail(f"{type(exc).__name__}: {exc}")),))
    issues = tuple(
        ParseIssue(INVALID_TOKEN, clip_detail(token), feature=entry.feature)
        for entry in parsed.entries.values()
        for token in entry.allowlist.invalid_tokens)
    if not issues:
        return parsed
    # Fresh result: the interned strict object must stay issue-free.
    return AllowAttribute(raw=raw, entries=dict(parsed.entries),
                          issues=issues)


@interned
def _parse_allow_attribute_cached(raw: str) -> AllowAttribute:
    attribute = AllowAttribute(raw=raw)
    for directive in parse_serialized_policy(raw):
        allowlist = directive.allowlist
        if allowlist is None:
            allowlist = Allowlist.src_only()
        kind = _classify(directive, allowlist)
        previous = attribute.entries.get(directive.feature)
        if previous is not None:
            allowlist = previous.allowlist.merged(allowlist)
            kind = (previous.kind if previous.kind == kind
                    else DelegationDirectiveKind.MIXED)
            explicit = previous.explicit or directive.is_explicit
        else:
            explicit = directive.is_explicit
        attribute.entries[directive.feature] = AllowEntry(
            feature=directive.feature,
            allowlist=allowlist,
            kind=kind,
            explicit=explicit,
        )
    return attribute


def serialize_allow_attribute(entries: dict[str, Allowlist]) -> str:
    """Serialize feature → allowlist pairs into ``allow`` attribute text
    (used by the recommender tool when proposing least-privilege
    delegations)."""
    chunks: list[str] = []
    for feature, allowlist in entries.items():
        if allowlist.src and not (allowlist.star or allowlist.self_
                                  or allowlist.origins):
            chunks.append(feature)
            continue
        tokens: list[str] = []
        if allowlist.star:
            tokens.append("*")
        if allowlist.self_:
            tokens.append("'self'")
        if allowlist.src:
            tokens.append("'src'")
        tokens.extend(origin.serialize() for origin in allowlist.origins)
        if not tokens:
            tokens.append("'none'")
        chunks.append(f"{feature} {' '.join(tokens)}")
    return "; ".join(chunks)
