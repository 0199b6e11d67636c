"""Legacy ``Feature-Policy`` header and the shared serialized-directive
grammar.

Before being renamed to Permissions Policy, the specification used a
different, CSP-like syntax (paper Section 2.2.6)::

    Feature-Policy: camera 'self' https://trusted.example; geolocation 'none'

Directives are semicolon-separated; each starts with the feature name
followed by allowlist members: ``*``, the quoted keywords ``'self'``,
``'none'``, ``'src'``, or unquoted origin URLs.  Chromium still enforces
this header when no ``Permissions-Policy`` header is present, which is why
the paper collects both.

The same serialized grammar (minus the header framing) is what the iframe
``allow`` attribute uses, so :func:`parse_serialized_policy` is shared with
:mod:`repro.policy.allow_attr`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.policy.allowlist import Allowlist
from repro.policy.issues import (
    INVALID_TOKEN,
    PARSER_ERROR,
    ParseIssue,
    clip_detail,
)
from repro.policy.memo import interned
from repro.policy.origin import Origin, OriginParseError


@dataclass(frozen=True)
class SerializedDirective:
    """One parsed directive of the serialized (legacy / allow) grammar.

    Attributes:
        feature: The feature token.
        allowlist: Effective allowlist, ``None`` when no member tokens were
            present (the caller decides the default: ``self`` for
            Feature-Policy headers, ``src`` for ``allow`` attributes).
        tokens: Raw member tokens as written.
        invalid_tokens: Member tokens that parse as neither keyword nor
            origin.
    """

    feature: str
    allowlist: Allowlist | None
    tokens: tuple[str, ...] = ()
    invalid_tokens: tuple[str, ...] = ()

    @property
    def is_explicit(self) -> bool:
        """Whether the author wrote any allowlist member at all."""
        return bool(self.tokens)


def _unquote_keyword(token: str) -> str | None:
    """Map a member token to a keyword name, accepting both the spec form
    (``'self'``) and the common unquoted mistake (``self``)."""
    stripped = token
    if len(token) >= 2 and token[0] == token[-1] == "'":
        stripped = token[1:-1]
    if stripped in ("self", "none", "src"):
        return stripped
    if token == "*":
        return "*"
    return None


def parse_serialized_policy(text: str) -> list[SerializedDirective]:
    """Parse a serialized policy string (Feature-Policy / ``allow`` grammar).

    The grammar is forgiving by design — browsers skip what they do not
    understand instead of dropping the whole attribute — so this parser
    never raises; unknown member tokens land in ``invalid_tokens``.
    """
    directives: list[SerializedDirective] = []
    for chunk in text.split(";"):
        parts = chunk.split()
        if not parts:
            continue
        feature = parts[0]
        member_tokens = tuple(parts[1:])
        if not member_tokens:
            directives.append(SerializedDirective(feature, None))
            continue
        star = False
        self_ = False
        src = False
        none = False
        origins: list[Origin] = []
        invalid: list[str] = []
        for token in member_tokens:
            keyword = _unquote_keyword(token)
            if keyword == "*":
                star = True
            elif keyword == "self":
                self_ = True
            elif keyword == "src":
                src = True
            elif keyword == "none":
                none = True
            else:
                try:
                    origins.append(Origin.parse(token))
                except OriginParseError:
                    invalid.append(token)
        if none and not (star or self_ or src or origins):
            allowlist = Allowlist.nobody()
        else:
            # 'none' mixed with other members is ignored, like browsers do.
            allowlist = Allowlist(star=star, self_=self_, src=src,
                                  origins=tuple(dict.fromkeys(origins)),
                                  invalid_tokens=tuple(invalid))
        directives.append(SerializedDirective(
            feature, allowlist, member_tokens, tuple(invalid)))
    return directives


@dataclass
class ParsedFeaturePolicyHeader:
    """Result of parsing one legacy ``Feature-Policy`` header value."""

    raw: str
    directives: dict[str, Allowlist] = field(default_factory=dict)
    invalid_tokens: tuple[str, ...] = ()
    #: Lenient-mode only: issues the parse survived (invalid member tokens,
    #: or a swallowed parser crash).  Empty for strict parses.
    issues: tuple[ParseIssue, ...] = ()

    @property
    def feature_count(self) -> int:
        return len(self.directives)


def parse_feature_policy_header(
        raw: str, *, mode: str = "strict") -> ParsedFeaturePolicyHeader:
    """Parse a legacy ``Feature-Policy`` header value.

    A directive without members defaults to ``'self'`` (unlike the ``allow``
    attribute where the default is ``'src'``).

    The serialized grammar is already forgiving, so strict mode rarely
    raises either — but lenient mode *guarantees* it never does (a parser
    crash on hostile input degrades to an empty header with the crash
    recorded in ``issues``) and surfaces invalid member tokens as
    :class:`~repro.policy.issues.ParseIssue` records.

    Results are interned by raw string (the parse is pure); treat the
    returned header as read-only.
    """
    if mode == "strict":
        return _parse_feature_policy_cached(raw)
    if mode != "lenient":
        raise ValueError(f"mode must be 'strict' or 'lenient', got {mode!r}")
    try:
        parsed = _parse_feature_policy_cached(raw)
    except Exception as exc:
        return ParsedFeaturePolicyHeader(
            raw=raw,
            issues=(ParseIssue(
                PARSER_ERROR,
                clip_detail(f"{type(exc).__name__}: {exc}")),))
    if not parsed.invalid_tokens:
        return parsed
    # Fresh result: the interned strict object must stay issue-free.
    return ParsedFeaturePolicyHeader(
        raw=raw, directives=dict(parsed.directives),
        invalid_tokens=parsed.invalid_tokens,
        issues=tuple(ParseIssue(INVALID_TOKEN, clip_detail(token))
                     for token in parsed.invalid_tokens))


@interned
def _parse_feature_policy_cached(raw: str) -> ParsedFeaturePolicyHeader:
    parsed = parse_serialized_policy(raw)
    result = ParsedFeaturePolicyHeader(raw=raw)
    invalid: list[str] = []
    for directive in parsed:
        allowlist = directive.allowlist
        if allowlist is None:
            allowlist = Allowlist.self_only()
        invalid.extend(directive.invalid_tokens)
        if directive.feature in result.directives:
            allowlist = result.directives[directive.feature].merged(allowlist)
        result.directives[directive.feature] = allowlist
    result.invalid_tokens = tuple(invalid)
    return result
