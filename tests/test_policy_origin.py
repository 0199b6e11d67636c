"""Tests for the origin / site model."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.policy import memo
from repro.policy.allow_attr import parse_allow_attribute
from repro.policy.feature_policy import parse_feature_policy_header
from repro.policy.header import parse_permissions_policy_header
from repro.policy.origin import (
    LOCAL_SCHEMES,
    Origin,
    OriginParseError,
    _parse_url,
    public_suffix,
    registrable_domain,
    site_of,
)


class TestOriginParsing:
    def test_simple_https(self):
        origin = Origin.parse("https://example.org/path?q=1")
        assert origin.scheme == "https"
        assert origin.host == "example.org"
        assert origin.port is None

    def test_default_port_normalized(self):
        assert Origin.parse("https://example.org:443").port is None
        assert Origin.parse("http://example.org:80").port is None

    def test_non_default_port_kept(self):
        assert Origin.parse("https://example.org:8443").port == 8443

    def test_host_lowercased(self):
        assert Origin.parse("https://EXAMPLE.ORG").host == "example.org"

    @pytest.mark.parametrize("scheme", sorted(LOCAL_SCHEMES))
    def test_local_schemes_are_opaque(self, scheme):
        origin = Origin.parse(f"{scheme}:whatever")
        assert origin.opaque
        assert origin.is_local_scheme
        assert origin.serialize() == "null"

    @pytest.mark.parametrize("bad", ["", "no-scheme-here", "https://", "https://:80"])
    def test_invalid_urls_rejected(self, bad):
        with pytest.raises(OriginParseError):
            Origin.parse(bad)

    def test_invalid_port_rejected(self):
        with pytest.raises(OriginParseError):
            Origin.parse("https://example.org:99999999")


class TestSameOriginSameSite:
    def test_same_origin(self):
        a = Origin.parse("https://example.org")
        b = Origin.parse("https://example.org/other")
        assert a.same_origin(b)

    def test_different_scheme_not_same_origin(self):
        assert not Origin.parse("http://a.com").same_origin(
            Origin.parse("https://a.com"))

    def test_different_port_not_same_origin(self):
        assert not Origin.parse("https://a.com:8443").same_origin(
            Origin.parse("https://a.com"))

    def test_opaque_same_origin_by_identity_only(self):
        """Opaque origins behave like browser-internal ones: same-origin
        with themselves, never with another (even equal-looking) opaque
        origin or any tuple origin."""
        opaque = Origin.opaque_origin()
        assert opaque.same_origin(opaque)
        assert not opaque.same_origin(Origin.opaque_origin())
        assert not opaque.same_origin(Origin.parse("https://a.com"))

    def test_subdomain_same_site_not_same_origin(self):
        a = Origin.parse("https://cdn.example.org")
        b = Origin.parse("https://www.example.org")
        assert not a.same_origin(b)
        assert a.same_site(b)

    def test_cross_site(self):
        assert not Origin.parse("https://a.com").same_site(
            Origin.parse("https://b.com"))

    def test_multi_label_suffix_not_same_site(self):
        """a.co.uk and b.co.uk are different sites — co.uk is a suffix."""
        assert not Origin.parse("https://a.co.uk").same_site(
            Origin.parse("https://b.co.uk"))

    def test_platform_suffixes(self):
        """user1.github.io and user2.github.io are different sites."""
        assert not Origin.parse("https://user1.github.io").same_site(
            Origin.parse("https://user2.github.io"))


class TestRegistrableDomain:
    @pytest.mark.parametrize("host,expected", [
        ("example.org", "example.org"),
        ("www.example.org", "example.org"),
        ("a.b.c.example.org", "example.org"),
        ("example.co.uk", "example.co.uk"),
        ("shop.example.co.uk", "example.co.uk"),
        ("user.github.io", "user.github.io"),
        ("deep.user.github.io", "user.github.io"),
        ("localhost", "localhost"),
        ("192.168.1.1", "192.168.1.1"),
    ])
    def test_registrable_domain(self, host, expected):
        assert registrable_domain(host) == expected

    def test_public_suffix(self):
        assert public_suffix("www.example.co.uk") == "co.uk"
        assert public_suffix("www.example.org") == "org"

    def test_site_of_url(self):
        assert site_of("https://cdn.shop.example.com/x.js") == "example.com"

    def test_site_of_opaque_is_empty(self):
        assert site_of("data:text/html,hi") == ""

    def test_trailing_dot_stripped(self):
        assert registrable_domain("example.org.") == "example.org"


class TestOriginProperties:
    @given(st.sampled_from(["http", "https"]),
           st.from_regex(r"[a-z]{1,10}(\.[a-z]{2,8}){1,3}", fullmatch=True),
           st.integers(min_value=1, max_value=65535))
    def test_parse_serialize_roundtrip(self, scheme, host, port):
        url = f"{scheme}://{host}:{port}"
        origin = Origin.parse(url)
        again = Origin.parse(origin.serialize())
        assert origin.same_origin(again)

    @given(st.from_regex(r"[a-z]{1,8}(\.[a-z]{1,8}){0,4}\.[a-z]{2,6}",
                         fullmatch=True))
    def test_registrable_domain_is_suffix_of_host(self, host):
        domain = registrable_domain(host)
        assert host == domain or host.endswith("." + domain)

    @given(st.from_regex(r"[a-z]{1,8}(\.[a-z]{1,8}){0,4}\.[a-z]{2,6}",
                         fullmatch=True))
    def test_registrable_domain_idempotent(self, host):
        domain = registrable_domain(host)
        assert registrable_domain(domain) == domain

    def test_str_matches_serialize(self):
        origin = Origin.parse("https://example.org:444")
        assert str(origin) == origin.serialize() == "https://example.org:444"


class TestMalformedUrls:
    @pytest.mark.parametrize("bad", [
        "https://0\r[",      # unbalanced IPv6 bracket (hypothesis find)
        "https://[::1",      # unterminated bracket
        "http://[",
    ])
    def test_bracket_garbage_raises_origin_error(self, bad):
        """urlsplit's raw ValueError must not leak past Origin.parse."""
        with pytest.raises(OriginParseError):
            Origin.parse(bad)


# -- the URL -> origin and host -> site memos -----------------------------------

_SCHEMES = st.sampled_from([
    "http", "https", "HTTPS", "ws", "wss", "ftp", "about", "data", "blob",
    "javascript", "JavaScript", "chrome-extension", ""])
_HOSTS = st.one_of(
    st.from_regex(r"[a-zA-Z0-9-]{1,10}(\.[a-z]{1,8}){0,3}"
                  r"\.(com|org|co\.uk|github\.io|de)\.?", fullmatch=True),
    st.from_regex(r"[0-9]{1,3}(\.[0-9]{1,3}){3}", fullmatch=True),
    st.sampled_from(["[::1]", "[2001:db8::7]", "[::1", "[", "localhost",
                     "LOCALHOST", "appspot.com", ""]),
    st.text(max_size=10),
)
_PORTS = st.one_of(
    st.just(""),
    st.integers(min_value=0, max_value=70_000).map(lambda port: f":{port}"),
    st.sampled_from([":", ":abc", ":-1", ":443", ":80"]),
)
_URLS = st.one_of(
    st.builds(lambda scheme, host, port, path: f"{scheme}://{host}{port}{path}",
              _SCHEMES, _HOSTS, _PORTS,
              st.sampled_from(["", "/", "/p1?q=1", "#frag", " "])),
    st.builds(lambda scheme, rest: f"{scheme}:{rest}", _SCHEMES,
              st.text(max_size=12)),
    st.text(max_size=30),
)


def _outcome(fn, *args):
    """``fn``'s result, or the message of the OriginParseError it raised."""
    try:
        return ("ok", fn(*args))
    except OriginParseError as exc:
        return ("error", str(exc))


def _uncached(fn, *args):
    with memo.parser_caches_disabled():
        return _outcome(fn, *args)


class TestOriginMemo:
    @given(_URLS)
    def test_parse_and_site_equal_uncached(self, url):
        for fn in (Origin.parse, site_of):
            expected = _uncached(fn, url)
            assert _outcome(fn, url) == expected
            assert _outcome(fn, url) == expected  # a cache hit

    @given(_HOSTS)
    def test_registrable_domain_equals_uncached(self, host):
        with memo.parser_caches_disabled():
            expected = registrable_domain(host)
        assert registrable_domain(host) == expected
        assert registrable_domain(host) == expected

    def test_tuple_origin_parsed_once(self):
        memo.clear_parser_caches()
        first = Origin.parse("https://a.example.org/x")
        assert Origin.parse("https://a.example.org/x") is first
        with memo.parser_caches_disabled():
            assert Origin.parse("https://a.example.org/x") is not first

    @pytest.mark.parametrize("scheme", sorted(LOCAL_SCHEMES))
    def test_local_scheme_parses_stay_distinct(self, scheme):
        url = "about:blank" if scheme == "about" else f"{scheme}:content"
        first, second = Origin.parse(url), Origin.parse(url)
        assert first.opaque and second.opaque
        assert first is not second
        assert not first.same_origin(second)
        assert first.same_origin(first)

    @pytest.mark.parametrize("bad", [
        "https://[::1", "example.org", "https://", "https://a.org:99999"])
    def test_parse_error_raised_on_every_repeat(self, bad):
        for _ in range(3):
            with pytest.raises(OriginParseError):
                Origin.parse(bad)
        assert (bad,) not in _parse_url.cache

    def test_clear_parser_caches_empties_origin_memos(self):
        site_of("https://www.example.co.uk/page")
        assert _parse_url.cache and registrable_domain.cache
        memo.clear_parser_caches()
        assert not _parse_url.cache
        assert not registrable_domain.cache

    def test_every_cache_bounded(self, monkeypatch):
        monkeypatch.setattr(memo, "_CACHE_MAX", 8)
        memo.clear_parser_caches()
        for i in range(100):
            url = f"https://h{i}.site{i}.example{i % 7}.org:{8000 + i}/p"
            raw = f"camera 'self'; geolocation https://e{i}.org"
            expected = [_uncached(Origin.parse, url), _uncached(site_of, url),
                        _uncached(parse_allow_attribute, raw)]
            assert [_outcome(Origin.parse, url), _outcome(site_of, url),
                    _outcome(parse_allow_attribute, raw)] == expected
            parse_permissions_policy_header(f"camera=(self \"https://e{i}.org\")")
            parse_feature_policy_header(f"camera 'self' https://e{i}.org")
            assert all(len(wrapper.cache) <= 8 for wrapper in memo._REGISTRY)
        memo.clear_parser_caches()
