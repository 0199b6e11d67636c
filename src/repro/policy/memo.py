"""String-interned memoization for the pure policy and origin parsers.

The crawl produces heavily duplicated raw strings: thousands of frames
share a handful of distinct ``allow`` attributes, ``Permissions-Policy``
headers and script sources.  Every parser decorated here is a pure
function of its (hashable) arguments, and nothing in the repository
mutates a parsed result after the fact — so returning the *same* object
for a repeated raw string is observably identical to re-parsing it, minus
the redundant work.

Safety argument (see DESIGN.md "Analysis engine"):

* **Purity** — ``parse_allow_attribute``, ``parse_permissions_policy_header``,
  ``parse_feature_policy_header`` and the URL → origin and host → site
  parsers of :mod:`repro.policy.origin` read nothing but their arguments
  and global constants; two calls with the same raw string produce equal
  results.
* **Effective immutability** — consumers only read the returned
  ``AllowAttribute`` / ``ParsedPolicyHeader`` / ``ParsedFeaturePolicyHeader``
  objects (enforced by convention and exercised by the differential tests
  in ``tests/test_analysis_index.py``); :class:`~repro.policy.origin.Origin`
  is a frozen dataclass.  Opaque origins compare by identity, so they are
  never cached: :meth:`~repro.policy.origin.Origin.parse` mints a fresh
  one on every call.
* **Exceptions are never cached** — a parse that raises (e.g.
  :class:`~repro.policy.header.HeaderParseError`) re-raises freshly on
  every call, exactly like the uncached function.
* **Thread safety** — the cache is a plain dict; CPython dict reads and
  single-key writes are atomic, so concurrent callers at worst duplicate a
  pure computation and store an equal value.

Every cache is bounded by :data:`_CACHE_MAX` entries and dropped
wholesale when full (the same epoch-clear idiom as the policy engine's
decision memo and the synthetic web's site-spec memo).  Most keys are
templated raw strings whose population grows far slower than the crawl,
but the URL and host keys of :mod:`repro.policy.origin` grow with it
(about 1.25 new URLs per site), so an unbounded cache would grow without
limit on a long crawl; after a clear, entries simply re-parse.
:func:`clear_parser_caches` resets everything —
benchmarks use it to measure cold-parse cost, and
:func:`parser_caches_disabled` turns interning off entirely so the legacy
(pre-index) pipeline can be timed faithfully.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from typing import Callable, Iterator, TypeVar

from repro.obs import metrics as _metrics

_F = TypeVar("_F", bound=Callable)

#: All wrappers created by :func:`interned`, for global cache clearing.
_REGISTRY: list = []

#: Nesting depth of :func:`parser_caches_disabled` contexts.
_disabled = 0

#: Entries one interned cache holds before it is cleared wholesale.
_CACHE_MAX = 1 << 15


def interned(fn: _F) -> _F:
    """Memoize a pure parser by its (hashable) positional arguments."""
    cache: dict = {}
    # Metric handles are created once here; MetricsRegistry.reset() keeps
    # the objects alive, so these never go stale.  Recording is gated on
    # the module-global COUNTING flag (off by default, near-free).
    hits = _metrics.REGISTRY.counter(f"policy.parser_hits.{fn.__name__}")
    misses = _metrics.REGISTRY.counter(f"policy.parser_misses.{fn.__name__}")

    @functools.wraps(fn)
    def wrapper(*args):
        if _disabled:
            return fn(*args)
        try:
            result = cache[args]
        except KeyError:
            result = fn(*args)
            if len(cache) >= _CACHE_MAX:
                cache.clear()
            cache[args] = result
            if _metrics.COUNTING:
                misses.inc()
            return result
        if _metrics.COUNTING:
            hits.inc()
        return result

    wrapper.cache = cache
    wrapper.cache_clear = cache.clear
    _REGISTRY.append(wrapper)
    return wrapper  # type: ignore[return-value]


def clear_parser_caches() -> None:
    """Drop every interned parse result (cold-start for benchmarks)."""
    for wrapper in _REGISTRY:
        wrapper.cache_clear()


@contextmanager
def parser_caches_disabled() -> Iterator[None]:
    """Bypass interning entirely inside the context (and leave existing
    cache contents untouched).  Used to time the uncached legacy path."""
    global _disabled
    _disabled += 1
    try:
        yield
    finally:
        _disabled -= 1
