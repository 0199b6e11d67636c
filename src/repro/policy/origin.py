"""Origins, sites and local schemes.

Permissions Policy decisions are keyed on *origins* (scheme, host, port) and
the paper's first/third-party classification is keyed on *sites* — the
registrable domain (eTLD+1) of a host.  The Fetch Standard additionally
defines *local schemes* (``about:``, ``data:``, ``blob:``); documents loaded
from them have no network response and are the subject of the local-scheme
inheritance bug in Section 6.2 of the paper.  The ``javascript:`` scheme is
treated like a local scheme by the paper's iframe accounting.

The public suffix handling embeds a compact subset of the Public Suffix List
covering the suffixes that actually occur in the synthetic web; an exact copy
of the multi-megabyte PSL is unnecessary for the measurement semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from urllib.parse import urlsplit

from repro.policy.memo import interned

#: Local schemes per the Fetch Standard, plus ``javascript:`` which the
#: paper groups with them ("local document iframes", Section 4).
LOCAL_SCHEMES: frozenset[str] = frozenset({"about", "data", "blob", "javascript"})

_DEFAULT_PORTS = {"http": 80, "https": 443, "ws": 80, "wss": 443, "ftp": 21}

#: Multi-label public suffixes recognised in addition to the plain TLD rule.
#: Subset of the PSL sufficient for the hosts this project generates or that
#: appear in the paper's tables.
_MULTI_LABEL_SUFFIXES: frozenset[str] = frozenset({
    "co.uk", "org.uk", "ac.uk", "gov.uk",
    "com.au", "net.au", "org.au",
    "co.jp", "ne.jp", "or.jp",
    "com.br", "net.br", "org.br",
    "co.in", "net.in", "org.in",
    "com.cn", "net.cn", "org.cn",
    "com.mx", "com.ar", "com.tr", "com.sg",
    "co.kr", "co.za", "co.nz",
    "github.io", "gitlab.io", "appspot.com", "blogspot.com",
    "cloudfront.net", "amazonaws.com", "azurewebsites.net",
    "herokuapp.com", "netlify.app", "vercel.app", "pages.dev",
})


class OriginParseError(ValueError):
    """Raised when a URL cannot be turned into an :class:`Origin`."""


@dataclass(frozen=True)
class Origin:
    """A web origin: ``(scheme, host, port)``.

    Local-scheme documents have an *opaque* origin; we model that with
    :meth:`opaque` instances that compare unequal to every tuple origin
    and carry the scheme for diagnostics.
    """

    scheme: str
    host: str
    port: int | None = None
    opaque: bool = False

    @classmethod
    def parse(cls, url: str) -> "Origin":
        """Parse a URL into its origin.

        Local-scheme URLs produce opaque origins.  Scheme-relative and bare
        hosts are rejected: callers must hand in absolute URLs, matching
        what a crawler records.  Tuple origins are memoized by URL
        (:mod:`repro.policy.memo`); opaque ones are fresh on every call.

        Raises:
            OriginParseError: for unparsable input.
        """
        if not url or not isinstance(url, str):
            raise OriginParseError(f"not a URL: {url!r}")
        parsed = _parse_url(url)
        if parsed.__class__ is str:
            # A local scheme: mint a fresh opaque origin on every call.
            return cls(scheme=parsed, host="", port=None, opaque=True)
        return parsed

    @classmethod
    def opaque_origin(cls, scheme: str = "data") -> "Origin":
        """An opaque origin, as carried by local-scheme documents."""
        return cls(scheme=scheme, host="", port=None, opaque=True)

    @property
    def is_local_scheme(self) -> bool:
        return self.scheme in LOCAL_SCHEMES

    def same_origin(self, other: "Origin") -> bool:
        """Origin equality.  Opaque origins compare by *identity*, like
        browser-internal opaque origins: an opaque origin is same-origin
        with itself but with nothing else — two independently minted opaque
        origins never match."""
        if self.opaque or other.opaque:
            return self is other
        return (self.scheme, self.host, self.port) == (
            other.scheme, other.host, other.port)

    def same_site(self, other: "Origin") -> bool:
        """Schemeless same-site comparison on registrable domains."""
        if self.opaque or other.opaque:
            return False
        return registrable_domain(self.host) == registrable_domain(other.host)

    @property
    def site(self) -> str:
        """The origin's site (registrable domain), or ``""`` when opaque."""
        if self.opaque:
            return ""
        return registrable_domain(self.host)

    def serialize(self) -> str:
        """ASCII serialization, e.g. ``https://example.org:8443``."""
        if self.opaque:
            return "null"
        if self.port is None:
            return f"{self.scheme}://{self.host}"
        return f"{self.scheme}://{self.host}:{self.port}"

    def __str__(self) -> str:
        return self.serialize()


@interned
def _parse_url(url: str) -> "Origin | str":
    """The tuple origin of ``url``, or the scheme name of a local-scheme
    URL.  Memoized, so opaque origins are minted by the caller: they
    compare by identity and must never be shared between parses."""
    try:
        split = urlsplit(url.strip())
    except ValueError as exc:  # e.g. unbalanced IPv6 brackets
        raise OriginParseError(f"unparsable URL {url!r}") from exc
    scheme = split.scheme.lower()
    if not scheme:
        raise OriginParseError(f"URL without scheme: {url!r}")
    if scheme in LOCAL_SCHEMES:
        return scheme
    host = (split.hostname or "").lower()
    if not host:
        raise OriginParseError(f"URL without host: {url!r}")
    try:
        port = split.port
    except ValueError as exc:
        raise OriginParseError(f"invalid port in {url!r}") from exc
    if port is not None and port == _DEFAULT_PORTS.get(scheme):
        port = None
    return Origin(scheme=scheme, host=host, port=port)


def public_suffix(host: str) -> str:
    """The public suffix of a host under the embedded PSL subset."""
    host = host.lower().rstrip(".")
    labels = host.split(".")
    for take in (3, 2):
        if len(labels) > take:
            candidate = ".".join(labels[-take:])
            if candidate in _MULTI_LABEL_SUFFIXES:
                return candidate
    # exact multi-label host that *is* a suffix (e.g. "appspot.com")
    if host in _MULTI_LABEL_SUFFIXES:
        return host
    return labels[-1]


@interned
def registrable_domain(host: str) -> str:
    """eTLD+1 of a host — the paper's *site* notion.

    IP addresses and single-label hosts are their own site.  Memoized by
    host string.
    """
    host = host.lower().rstrip(".")
    if not host:
        return ""
    if _looks_like_ip(host):
        return host
    suffix = public_suffix(host)
    if host == suffix:
        return host
    prefix = host[: -(len(suffix) + 1)]
    last_label = prefix.rsplit(".", 1)[-1]
    return f"{last_label}.{suffix}"


def site_of(url_or_origin: "str | Origin") -> str:
    """The site of a URL or origin; ``""`` for opaque/local documents."""
    origin = (url_or_origin if isinstance(url_or_origin, Origin)
              else Origin.parse(url_or_origin))
    return origin.site


def _looks_like_ip(host: str) -> bool:
    if ":" in host:  # IPv6 literal
        return True
    parts = host.split(".")
    return len(parts) == 4 and all(p.isdigit() for p in parts)
