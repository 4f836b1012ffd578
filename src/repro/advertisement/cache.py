"""Local advertisement cache (JXTA-C's "CM", content manager).

Every peer stores the advertisements it has published or discovered.
The cache implements the two-clock semantics of
:mod:`repro.advertisement.base` (lifetime for own copies, expiration
for remote copies), query-by-attribute with ``*`` wildcards, and an
explicit :meth:`flush` because the paper's discovery benchmark flushes
the searcher's cache between queries ("each of them followed by a
flush of the local searcher cache, in order to avoid cache speedup",
§4.2).

The cache is clock-free: callers pass the current simulated time, so
the same object works in any simulation or in real time.

Performance design
------------------
Queries used to scan every entry with ``fnmatchcase``.  The cache now
maintains three hash indexes over the entries:

* type → keys (``adv_type`` restriction);
* (type, attribute, value) → keys (exact-value match);
* (type, attribute) → keys (attribute present with any value).

Exact and attribute-presence queries resolve through the indexes and
then sort the (usually tiny) candidate set by insertion sequence so
results come back in the same order — and honour ``limit`` the same
way — as the historical linear scan; an exact value with no index
entry answers ``[]`` at once.  Wildcard values (containing ``*`` or
``?``, see :func:`is_pattern`) fall back to an ``fnmatch`` scan
restricted by the type index.

Expiry purging is incremental: entries sit in a min-heap keyed by
``expires_at``, so :meth:`purge_expired` pops only the expired prefix
instead of scanning the whole cache (stale heap records left behind by
overwrites and removals are skipped by an identity check).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.advertisement.base import (
    Advertisement,
    DEFAULT_EXPIRATION,
    DEFAULT_LIFETIME,
)


def is_pattern(value: str) -> bool:
    """True if a query value is a wildcard pattern: it contains ``*`` or
    ``?``, the JXTA discovery API's wildcards.  Any other value, ``[``
    included, is matched literally through the exact index.  The
    discovery service classifies its queries with this same test."""
    return "*" in value or "?" in value


@dataclass(slots=True)
class CacheEntry:
    """One cached advertisement plus its bookkeeping."""

    adv: Advertisement
    #: Absolute simulated time at which this copy disappears.
    expires_at: float
    #: True if this peer is the publisher (stored with *lifetime*).
    local: bool
    #: Residual expiration to hand to peers we forward the adv to.
    expiration: float
    #: Insertion sequence of the *key* (stable across overwrites), used
    #: to report query results in insertion order like a plain dict scan.
    seq: int = -1

    def expired(self, now: float) -> bool:
        return now >= self.expires_at


class AdvertisementCache:
    """Keyed store of advertisements with expiry and wildcard search."""

    def __init__(self) -> None:
        self._entries: Dict[str, CacheEntry] = {}
        self._seq = 0
        #: adv type -> keys of entries of that type.
        self._by_type: Dict[str, Set[str]] = {}
        #: (type, attribute, value) -> keys whose index tuples match exactly.
        self._by_attr: Dict[Tuple[str, str, str], Set[str]] = {}
        #: (type, attribute) -> keys carrying the attribute with any value.
        self._by_attr_any: Dict[Tuple[str, str], Set[str]] = {}
        #: (expires_at, tiebreak, key, entry) records; stale ones are
        #: skipped on pop.  The tiebreak keeps heap comparisons off the
        #: (orderless) CacheEntry when times collide.
        self._expiry_heap: List[Tuple[float, int, str, CacheEntry]] = []
        self._heap_pushes = 0
        self.inserts = 0
        self.purged = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, adv: Advertisement) -> bool:
        return adv.unique_key() in self._entries

    # ------------------------------------------------------------------
    # index maintenance
    # ------------------------------------------------------------------
    def _index_add(self, key: str, adv: Advertisement) -> None:
        adv_type = adv.ADV_TYPE
        bucket = self._by_type.get(adv_type)
        if bucket is None:
            bucket = self._by_type[adv_type] = set()
        bucket.add(key)
        for _, attr, val in adv.index_tuples():
            exact = self._by_attr.get((adv_type, attr, val))
            if exact is None:
                exact = self._by_attr[(adv_type, attr, val)] = set()
            exact.add(key)
            any_ = self._by_attr_any.get((adv_type, attr))
            if any_ is None:
                any_ = self._by_attr_any[(adv_type, attr)] = set()
            any_.add(key)

    def _index_discard(self, key: str, adv: Advertisement) -> None:
        adv_type = adv.ADV_TYPE
        bucket = self._by_type.get(adv_type)
        if bucket is not None:
            bucket.discard(key)
        for _, attr, val in adv.index_tuples():
            exact = self._by_attr.get((adv_type, attr, val))
            if exact is not None:
                exact.discard(key)
            any_ = self._by_attr_any.get((adv_type, attr))
            if any_ is not None:
                any_.discard(key)

    def _store(self, key: str, entry: CacheEntry) -> None:
        old = self._entries.get(key)
        if old is not None:
            # Overwrite: same key keeps its position in iteration order
            # (dict semantics), so the new entry inherits the sequence.
            entry.seq = old.seq
            if old.adv is not entry.adv:
                self._index_discard(key, old.adv)
                self._index_add(key, entry.adv)
        else:
            entry.seq = self._seq
            self._seq += 1
            self._index_add(key, entry.adv)
        self._entries[key] = entry
        self._heap_pushes += 1
        heapq.heappush(
            self._expiry_heap, (entry.expires_at, self._heap_pushes, key, entry)
        )
        self.inserts += 1

    def _drop(self, key: str, entry: CacheEntry) -> None:
        del self._entries[key]
        self._index_discard(key, entry.adv)
        # The expiry-heap record goes stale and is skipped on pop.

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def publish(
        self,
        adv: Advertisement,
        now: float,
        lifetime: float = DEFAULT_LIFETIME,
        expiration: float = DEFAULT_EXPIRATION,
    ) -> CacheEntry:
        """Store a *locally published* advertisement."""
        if lifetime <= 0:
            raise ValueError(f"lifetime must be > 0 (got {lifetime})")
        entry = CacheEntry(
            adv=adv,
            expires_at=now + lifetime,
            local=True,
            expiration=expiration,
        )
        self._store(adv.unique_key(), entry)
        return entry

    def store_remote(
        self,
        adv: Advertisement,
        now: float,
        expiration: float = DEFAULT_EXPIRATION,
    ) -> CacheEntry:
        """Store a copy obtained from another peer.  A remote copy never
        overwrites a local (published) one."""
        if expiration <= 0:
            raise ValueError(f"expiration must be > 0 (got {expiration})")
        key = adv.unique_key()
        existing = self._entries.get(key)
        if existing is not None and existing.local and not existing.expired(now):
            return existing
        entry = CacheEntry(
            adv=adv,
            expires_at=now + expiration,
            local=False,
            expiration=expiration,
        )
        self._store(key, entry)
        return entry

    def remove(self, adv: Advertisement) -> bool:
        """Remove an advertisement.  Returns True if it was present."""
        key = adv.unique_key()
        entry = self._entries.get(key)
        if entry is None:
            return False
        self._drop(key, entry)
        return True

    def purge_expired(self, now: float) -> int:
        """Drop expired entries; returns how many were dropped."""
        heap = self._expiry_heap
        entries = self._entries
        dropped = 0
        while heap and heap[0][0] <= now:
            _, _, key, entry = heapq.heappop(heap)
            if entries.get(key) is entry and entry.expired(now):
                self._drop(key, entry)
                dropped += 1
        self.purged += dropped
        return dropped

    def flush(self) -> int:
        """Drop everything (the benchmark's anti-cache-speedup step)."""
        n = len(self._entries)
        self._entries.clear()
        self._by_type.clear()
        self._by_attr.clear()
        self._by_attr_any.clear()
        self._expiry_heap.clear()
        return n

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def entries(self, now: Optional[float] = None) -> Iterable[CacheEntry]:
        """All live entries (all entries if ``now`` is None)."""
        for entry in self._entries.values():
            if now is None or not entry.expired(now):
                yield entry

    def get(self, adv: Advertisement, now: float) -> Optional[CacheEntry]:
        """Look up the live entry for this advertisement's key."""
        entry = self._entries.get(adv.unique_key())
        if entry is None or entry.expired(now):
            return None
        return entry

    def _attr_keys(
        self, adv_type: Optional[str], attribute: str, value: Optional[str]
    ) -> Set[str]:
        """Candidate keys for an indexed attribute query (exact value or
        attribute-presence).  ``adv_type`` of None unions over all types."""
        types = (adv_type,) if adv_type is not None else tuple(self._by_type)
        out: Set[str] = set()
        for t in types:
            if value is None:
                found = self._by_attr_any.get((t, attribute))
            else:
                found = self._by_attr.get((t, attribute, value))
            if found:
                out |= found
        return out

    def search(
        self,
        adv_type: Optional[str],
        attribute: Optional[str],
        value: Optional[str],
        now: float,
        limit: Optional[int] = None,
        pattern: Optional[bool] = None,
    ) -> List[Advertisement]:
        """Find live advertisements matching a discovery query.

        ``adv_type`` of None matches all types.  ``attribute``/``value``
        of None match everything of the type; otherwise the named index
        attribute must equal ``value``, or glob-match it when ``value``
        is a pattern (``*``/``?`` wildcards, as in the JXTA discovery
        API).  ``pattern`` is :func:`is_pattern` of ``value``; a caller
        that has already classified the value passes it.

        Results come back in insertion order (oldest key first), exactly
        as the historical full-scan implementation returned them.
        """
        entries = self._entries
        if attribute is None:
            if adv_type is None:
                candidates: Iterable[CacheEntry] = entries.values()
            else:
                keys = self._by_type.get(adv_type, ())
                candidates = sorted(
                    (entries[k] for k in keys), key=lambda e: e.seq
                )
        else:
            if value is not None and (
                is_pattern(value) if pattern is None else pattern
            ):
                return self._search_glob(adv_type, attribute, value, now, limit)
            if adv_type is not None and value is not None:
                keys = self._by_attr.get((adv_type, attribute, value))
            else:
                keys = self._attr_keys(adv_type, attribute, value)
            if not keys:
                return []
            candidates = sorted(
                (entries[k] for k in keys), key=lambda e: e.seq
            )

        out: List[Advertisement] = []
        for entry in candidates:
            if entry.expired(now):
                continue
            out.append(entry.adv)
            if limit is not None and len(out) >= limit:
                break
        return out

    def _search_glob(
        self,
        adv_type: Optional[str],
        attribute: str,
        value: str,
        now: float,
        limit: Optional[int],
    ) -> List[Advertisement]:
        """Wildcard fallback: fnmatch scan over the type-restricted set."""
        entries = self._entries
        if adv_type is None:
            candidates: Iterable[CacheEntry] = entries.values()
        else:
            keys = self._by_type.get(adv_type, ())
            candidates = sorted(
                (entries[k] for k in keys), key=lambda e: e.seq
            )
        out: List[Advertisement] = []
        for entry in candidates:
            if entry.expired(now):
                continue
            adv = entry.adv
            matched = False
            for _, attr, val in adv.index_tuples():
                if attr == attribute and fnmatchcase(val, value):
                    matched = True
                    break
            if not matched:
                continue
            out.append(adv)
            if limit is not None and len(out) >= limit:
                break
        return out
