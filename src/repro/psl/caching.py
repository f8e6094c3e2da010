"""A memoizing wrapper around :class:`PublicSuffixList`.

Real consumers (browsers, mail receivers) look the same hostnames up
over and over; production PSL libraries therefore memoize.  The
wrapper caches full :class:`~repro.psl.list.SuffixMatch` results with
LRU eviction, exposes hit statistics, and stays correct by being keyed
to one immutable list (swap lists, get a new cache).

The ablation bench quantifies the win on snapshot-shaped workloads
(Zipf-repeating hostnames).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generic, Hashable, TypeVar

from repro.psl.list import PublicSuffixList, SuffixMatch

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


class LruDict(Generic[K, V]):
    """A minimal bounded mapping with least-recently-used eviction.

    Extracted from :class:`CachingMatcher` so every bounded memo in the
    codebase (suffix-match caching here, the streaming third-party
    memo in :mod:`repro.webgraph.stream`) shares one eviction
    implementation.  ``None`` is not a valid stored value — ``get``
    uses it as the miss sentinel, which keeps the hot path to a single
    dictionary probe.
    """

    __slots__ = ("_data", "capacity")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._data: OrderedDict[K, V] = OrderedDict()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: K) -> bool:
        return key in self._data

    def get(self, key: K) -> V | None:
        """The stored value, refreshed as most recent; None on a miss."""
        value = self._data.get(key)
        if value is not None:
            self._data.move_to_end(key)
        return value

    def put(self, key: K, value: V) -> None:
        """Store a value, evicting the least recently used past capacity."""
        if value is None:
            raise ValueError("LruDict cannot store None (it is the miss sentinel)")
        self._data[key] = value
        self._data.move_to_end(key)
        if len(self._data) > self.capacity:
            self._data.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry."""
        self._data.clear()


class CachingMatcher:
    """LRU-cached lookups over one immutable list."""

    def __init__(self, psl: PublicSuffixList, *, capacity: int = 10_000) -> None:
        self._psl = psl
        self._cache: LruDict[str, SuffixMatch] = LruDict(capacity)
        self.hits = 0
        self.misses = 0

    @property
    def psl(self) -> PublicSuffixList:
        """The wrapped list (immutable, so the cache can never go stale)."""
        return self._psl

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def match(self, hostname: str) -> SuffixMatch:
        """Cached :meth:`PublicSuffixList.match`.

        The raw hostname string is the cache key; differently-cased
        spellings of one name occupy separate slots by design (keeping
        the hot path to one dict probe, no normalization).
        """
        cached = self._cache.get(hostname)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        match = self._psl.match(hostname)
        self._cache.put(hostname, match)
        return match

    def public_suffix(self, hostname: str) -> str:
        """Cached public suffix."""
        return self.match(hostname).public_suffix

    def registrable_domain(self, hostname: str) -> str | None:
        """Cached registrable domain."""
        return self.match(hostname).registrable_domain

    def site_of(self, hostname: str) -> str:
        """Cached site key."""
        return self.match(hostname).site

    def same_site(self, first: str, second: str) -> bool:
        """Cached same-site check."""
        return self.site_of(first) == self.site_of(second)

    def clear(self) -> None:
        """Drop every cached entry and reset the statistics."""
        self._cache.clear()
        self.hits = 0
        self.misses = 0
