"""The local peerview data structure.

"This protocol allows rendezvous peers to work together to form a
so-called global peerview: an ordered list (by peer ID) of peers
currently acting as rendezvous peers within a given group.  [...]
Each rendezvous peer maintains a local version of the list which
represents its view of the global peerview" (§3.2).

Conventions matching the paper:

* the list is totally ordered by peer ID;
* the local peer is part of the list (Table 1's replica ranks count
  every rendezvous), but the *measured size* ``l`` excludes it
  (footnote 2: "Our measurement excludes the local rendezvous peer
  from the size of the peerview");
* an entry expires when it has not been refreshed for
  ``PVE_EXPIRATION`` (Algorithm 1, line 3).

Representation
--------------
The view keys its entry map on **interned integer ids** (see
:mod:`repro.ids.intern`) rather than :class:`PeerID` objects: at
r = 580 the per-probe hashing of 33-byte IDs through Python-level
``__hash__``/``__eq__`` dominated the protocol stack's profile.
Interned keys carry no ordering meaning, so the sorted list is kept as
``(id_bytes, key)`` tuples — tuple/bytes comparisons run in C and the
bytes order *is* the PeerID order.  Public APIs still accept and
return ``PeerID`` objects (mapped O(1) through the intern table);
protocol hot paths use the ``*_key`` variants.  Expiry is a lazy
min-heap of ``(last_refreshed_at_push, key)`` records instead of a
full scan per sweep — the same fix the advertisement cache got for
``purge_expired`` — with stale records (entry refreshed or removed
since the push) dropped or re-pushed on pop.
"""

from __future__ import annotations

import bisect
import heapq
import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.advertisement.rdvadv import RdvAdvertisement
from repro.ids.intern import IdInternTable
from repro.ids.jxtaid import PeerID

_heappush = heapq.heappush
_heappop = heapq.heappop


def _canary_enabled() -> bool:
    """True when the *planted* fuzzing canary bug is armed.

    ``REPRO_CANARY=1`` makes :meth:`PeerView.expire` leak the ordered-
    list slot of every third interned key — a deliberate, rare-branch
    consistency bug used to pin that the fuzzer's find→shrink→corpus
    loop works end to end (docs/FUZZING.md).  Read dynamically (not at
    import) so tests can flip it per-case via ``monkeypatch.setenv``.
    Never set this outside the fuzz/canary test harness."""
    import os

    return os.environ.get("REPRO_CANARY") == "1"


@dataclass(slots=True)
class PeerViewEntry:
    """One rendezvous advertisement held in a local peerview.

    ``slots=True`` matters at paper scale: a converged r = 580 overlay
    holds ~580 of these per peer — ~336 k resident entries — and the
    per-instance ``__dict__`` was the single largest block of steady
    state heap."""

    adv: RdvAdvertisement
    first_seen: float
    last_refreshed: float

    @property
    def peer_id(self) -> PeerID:
        return self.adv.rdv_peer_id


@dataclass(slots=True, eq=False)
class PeerViewEvent:
    """Add/remove event, the unit of the Figure 3 (right) scatter.

    Deliberately *not* frozen: a frozen dataclass routes every field
    through ``object.__setattr__`` in ``__init__``, and at paper scale
    the view churns tens of thousands of add/remove events per
    simulated slice (entries expiring faster than the protocol can
    re-probe them is the paper's phase 2/3 behaviour, not an edge
    case).  ``eq=False`` keeps identity semantics — events are
    observed, never compared."""

    time: float
    kind: str  # "add" | "remove"
    subject: PeerID
    reason: str = ""


PeerViewListener = Callable[[PeerViewEvent], None]


class PeerView:
    """Sorted, expiring set of rendezvous advertisements."""

    def __init__(
        self,
        local_adv: RdvAdvertisement,
        interner: Optional[IdInternTable] = None,
    ) -> None:
        self.local_adv = local_adv
        self.local_peer_id = local_adv.rdv_peer_id
        #: shared per-network table normally; a private one keeps
        #: standalone views (unit tests, worked examples) working
        self.interner = interner if interner is not None else IdInternTable()
        self.local_key = self.interner.intern(self.local_peer_id)
        self._entries: Dict[int, PeerViewEntry] = {}
        #: mirror of ``_entries``'s iteration (= insertion) order; lets
        #: the referral/random-probe samplers pick indices instead of
        #: materialising an O(n) candidate list per draw.  Maintained by
        #: ``upsert``/``remove_by_key``; white-box code that mutates
        #: ``_entries`` directly must keep this in sync (same contract
        #: as ``invalidate_ordered_view``)
        self._key_seq: List[int] = []
        #: members (self included) as (id_bytes, key), bytes-ascending —
        #: the ordered list every rank/neighbour query bisects
        self._order: List[Tuple[bytes, int]] = [
            (self.local_peer_id._value, self.local_key)
        ]
        #: memoised immutable snapshot of the ordered PeerIDs; rebuilt
        #: only after a membership change (see ``ordered_ids``)
        self._ordered_view: Optional[Tuple[PeerID, ...]] = None
        #: lazy expiry records, (last_refreshed when pushed, key)
        self._expiry_heap: List[Tuple[float, int]] = []
        self._listeners: List[PeerViewListener] = []
        self.adds = 0
        self.removes = 0

    # ------------------------------------------------------------------
    # size & membership
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """``l`` as the paper measures it: entries excluding self."""
        return len(self._entries)

    def __contains__(self, peer_id: PeerID) -> bool:
        key = self.interner.lookup(peer_id)
        return key is not None and (key in self._entries or key == self.local_key)

    def contains_key(self, key: int) -> bool:
        return key in self._entries or key == self.local_key

    def get(self, peer_id: PeerID) -> Optional[PeerViewEntry]:
        key = self.interner.lookup(peer_id)
        return None if key is None else self._entries.get(key)

    def get_by_key(self, key: int) -> Optional[PeerViewEntry]:
        return self._entries.get(key)

    def known_ids(self) -> Iterable[PeerID]:
        """IDs of remote entries (excludes self)."""
        id_of = self.interner.id_of
        return [id_of(key) for key in self._entries]

    def known_keys(self) -> Iterable[int]:
        """Interned keys of remote entries (excludes self) — the hot
        iteration: no ID objects materialised."""
        return self._entries.keys()

    def ordered_ids(self) -> Tuple[PeerID, ...]:
        """All member IDs (self included), ascending — the routing list
        the LC-DHT rank function indexes into.

        Returns a cached *immutable* snapshot instead of copying the
        sorted list on every call: rank computations and probe rounds
        ask for this list constantly, and membership changes (the only
        thing that invalidates it) are rare by comparison."""
        view = self._ordered_view
        if view is None:
            id_of = self.interner.id_of
            view = self._ordered_view = tuple(
                id_of(key) for _, key in self._order
            )
        return view

    # ------------------------------------------------------------------
    # pickling
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        """Snapshot state without the derived ``_ordered_view``: a pure
        memo over ``_order`` (rebuilt on the next ``ordered_ids`` call)
        that depends on *when* the view was last queried, not on
        membership, so keeping it would make pickle bytes vary between
        otherwise-identical views."""
        state = self.__dict__.copy()
        state["_ordered_view"] = None
        return state

    # ------------------------------------------------------------------
    # listeners
    # ------------------------------------------------------------------
    def invalidate_ordered_view(self) -> None:
        """Drop the cached :meth:`ordered_ids` snapshot.  Mutations
        through ``upsert``/``remove`` do this automatically; anything
        that touches ``_order`` directly (the fault engine's corruption
        injectors, white-box tests) must call it."""
        self._ordered_view = None

    def add_listener(self, listener: PeerViewListener) -> None:
        self._listeners.append(listener)

    def _emit(self, event: PeerViewEvent) -> None:
        for listener in self._listeners:
            listener(event)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def upsert(self, adv: RdvAdvertisement, now: float) -> str:
        """Insert or refresh the entry for ``adv``.

        Returns ``"self"`` (ignored: the local peer is implicit),
        ``"added"`` or ``"refreshed"``.
        """
        peer_id = adv.rdv_peer_id
        key = self.interner.intern(peer_id)
        if key == self.local_key:
            return "self"
        entry = self._entries.get(key)
        if entry is not None:
            entry.adv = adv  # newer advertisement (route may change)
            entry.last_refreshed = now
            # the stale expiry record re-validates against
            # ``last_refreshed`` when popped; no heap touch here
            return "refreshed"
        self.add_keyed(key, adv, now)
        return "added"

    def add_keyed(self, key: int, adv: RdvAdvertisement, now: float) -> None:
        """Insert a *new* entry whose interned key the caller has
        already resolved and confirmed absent (and not the local
        peer).  The protocol's receive path interns once and checks
        membership before it gets here; re-deriving all three facts in
        :meth:`upsert` was measurable at full scale."""
        peer_id = adv.rdv_peer_id
        self._entries[key] = PeerViewEntry(adv, now, now)
        self._key_seq.append(key)
        bisect.insort(self._order, (peer_id._value, key))
        _heappush(self._expiry_heap, (now, key))
        self._ordered_view = None
        self.adds += 1
        self._emit(PeerViewEvent(time=now, kind="add", subject=peer_id))

    def remove(self, peer_id: PeerID, now: float, reason: str = "") -> bool:
        """Drop an entry (expiry, explicit failure).  True if present."""
        key = self.interner.lookup(peer_id)
        if key is None:
            return False
        return self.remove_by_key(key, now, reason)

    def remove_by_key(self, key: int, now: float, reason: str = "") -> bool:
        entry = self._entries.pop(key, None)
        if entry is None:
            return False
        self._key_seq.remove(key)
        peer_id = self.interner.id_of(key)
        index = bisect.bisect_left(self._order, (peer_id._value,))
        del self._order[index]
        # any expiry-heap record for ``key`` is now stale; it is
        # discarded when popped (no entry behind it)
        self._ordered_view = None
        self.removes += 1
        self._emit(
            PeerViewEvent(time=now, kind="remove", subject=peer_id, reason=reason)
        )
        return True

    def expire(self, now: float, pve_expiration: float) -> List[PeerID]:
        """Algorithm 1 line 3: drop entries whose age since the last
        refresh exceeds ``pve_expiration``.  Returns the dropped IDs.

        O(expired · log n) per sweep via the lazy min-heap instead of
        the old scan of every entry: the heap key is the entry's
        ``last_refreshed`` *at push time*, which only ever understates
        the true freshness, so nothing can expire before its record
        reaches the heap top.  A popped record is re-validated against
        the entry's current ``last_refreshed`` and re-pushed if a
        refresh has kept the entry alive."""
        heap = self._expiry_heap
        entries = self._entries
        dead: List[PeerID] = []
        canary = None  # read once, at the sweep's first drop
        while heap and now - heap[0][0] > pve_expiration:
            _, key = _heappop(heap)
            entry = entries.get(key)
            if entry is None:
                continue  # removed since the record was pushed
            if now - entry.last_refreshed > pve_expiration:
                dead.append(self.interner.id_of(key))
                if canary is None:
                    canary = _canary_enabled()
                if canary and key % 3 == 1:
                    # planted canary (see _canary_enabled): partial
                    # removal that leaks the _order slot, leaving the
                    # ordered list inconsistent with the entry map
                    entries.pop(key, None)
                    self._key_seq.remove(key)
                    self._ordered_view = None
                    self.removes += 1
                    self._emit(
                        PeerViewEvent(
                            time=now,
                            kind="remove",
                            subject=self.interner.id_of(key),
                            reason="expired",
                        )
                    )
                    continue
                self.remove_by_key(key, now, reason="expired")
            else:
                _heappush(heap, (entry.last_refreshed, key))
        return dead

    # ------------------------------------------------------------------
    # ordering queries
    # ------------------------------------------------------------------
    def rank_of(self, peer_id: PeerID) -> Optional[int]:
        """Position of ``peer_id`` in the ordered list, or None."""
        order = self._order
        # (value,) sorts immediately before any (value, key) pair, so
        # bisect lands on the entry for ``value`` if it is present
        index = bisect.bisect_left(order, (peer_id._value,))
        if index < len(order) and order[index][0] == peer_id._value:
            return index
        return None

    def rank_of_key(self, key: int) -> Optional[int]:
        return self.rank_of(self.interner.id_of(key))

    def id_at(self, rank: int) -> PeerID:
        """Member ID at ``rank`` (0-based) in the ordered list."""
        return self.interner.id_of(self._order[rank][1])

    def key_at(self, rank: int) -> int:
        """Interned key of the member at ``rank`` (hot-path variant)."""
        return self._order[rank][1]

    def member_count(self) -> int:
        """Ordered-list length (self included) — the ``l`` of the
        ReplicaPeer function."""
        return len(self._order)

    def local_rank(self) -> int:
        """Our own position in the ordered list."""
        rank = self.rank_of(self.local_peer_id)
        assert rank is not None
        return rank

    def upper_neighbor(self) -> Optional[PeerID]:
        """The rendezvous whose ID immediately follows ours, or None if
        we are the top of the sorted list."""
        rank = self.local_rank() + 1
        return self.id_at(rank) if rank < len(self._order) else None

    def lower_neighbor(self) -> Optional[PeerID]:
        """The rendezvous whose ID immediately precedes ours, or None if
        we are the bottom of the sorted list."""
        rank = self.local_rank()
        return self.id_at(rank - 1) if rank > 0 else None

    def neighbor_key(self, direction: int) -> Optional[int]:
        """Interned key of our upper (``direction`` +1) or lower (-1)
        neighbour, or None at that end of the sorted list.  One bisect:
        the walk and Algorithm 1 ask this on every hop and iteration."""
        order = self._order
        index = bisect.bisect_left(order, (self.local_peer_id._value,))
        index += direction
        if 0 <= index < len(order):
            return order[index][1]
        return None

    def neighbor_of(self, peer_id: PeerID, direction: int) -> Optional[PeerID]:
        """Member adjacent to ``peer_id`` in the given direction
        (+1 = upper, -1 = lower), or None at the list ends.  Used by
        the LC-DHT walk."""
        if direction not in (1, -1):
            raise ValueError(f"direction must be +1 or -1 (got {direction})")
        rank = self.rank_of(peer_id)
        if rank is None:
            return None
        target = rank + direction
        if 0 <= target < len(self._order):
            return self.interner.id_of(self._order[target][1])
        return None

    # ------------------------------------------------------------------
    # referral choice
    # ------------------------------------------------------------------
    def random_referral(
        self, rng: random.Random, exclude: Iterable[PeerID] = ()
    ) -> Optional[PeerViewEntry]:
        """A uniformly random entry for a referral response, excluding
        the probing peer (no point referring someone to themselves) and
        self (the response already carries our advertisement)."""
        picks = self.random_referrals(rng, 1, exclude)
        return picks[0] if picks else None

    def random_referrals(
        self, rng: random.Random, count: int, exclude: Iterable[PeerID] = ()
    ) -> List[PeerViewEntry]:
        """Up to ``count`` distinct random entries for a referral
        response, excluding the probing peer and self."""
        if count <= 0:
            return []
        intern = self.interner.intern
        entries = self._entries
        picked = self.sample_entry_keys(
            rng, count, [intern(pid) for pid in exclude]
        )
        return [entries[key] for key in picked]

    def sample_entry_keys(
        self, rng: random.Random, count: int, exclude_keys: Iterable[int]
    ) -> List[int]:
        """Up to ``count`` distinct random entry keys, excluding
        ``exclude_keys`` (self is never an entry, so it needs no
        exclusion).

        RNG-draw-identical to
        ``rng.sample([k for k in entries if k not in excluded], count)``
        without building the O(n) candidate list on every draw:
        ``random.sample`` consumes randomness as a function of the
        population *length* only, so sampling index positions from
        ``range(n)`` advances the stream exactly as sampling the list
        would, and the picked positions map through the insertion-order
        key list (skipping the excluded slots) to the same keys.

        The position draw itself mirrors CPython's ``random.sample``
        algorithm (partial Fisher-Yates over a pool for small
        populations, rejection-sampled set for large ones, with the
        same pool/set crossover) instead of calling it: the draw
        sequence stays bit-identical while dropping the sampler's own
        frames from the per-probe cost, and is pinned against future
        stdlib implementation changes."""
        keys = self._key_seq
        entries = self._entries
        # ascending positions of the excluded keys actually present
        positions: List[int] = []
        for k in exclude_keys:
            if k in entries:
                p = keys.index(k)
                if p not in positions:
                    positions.append(p)
        if len(positions) > 1:
            positions.sort()
        n = len(keys) - len(positions)
        if n <= 0:
            return []
        if n <= count:
            # want them all: no draw (matches the pre-sampling code)
            if not positions:
                return list(keys)
            dropped = set(positions)
            return [k for i, k in enumerate(keys) if i not in dropped]
        out = []
        # rng is a random.Random (see repro.sim.rng), whose _randbelow
        # is the getrandbits rejection loop; drawing through
        # getrandbits directly consumes the identical bit stream while
        # dropping one Python frame per draw
        grb = rng.getrandbits
        setsize = 21  # random.sample's pool/set crossover constant
        if count > 5:
            setsize += 4 ** math.ceil(math.log(count * 3, 4))
        if n <= setsize:
            pool = list(range(n))
            for i in range(count):
                m = n - i
                bits = m.bit_length()
                j = grb(bits)
                while j >= m:
                    j = grb(bits)
                pick = pool[j]
                pool[j] = pool[m - 1]
                # shift past the excluded slots at or below the pick
                for p in positions:
                    if pick >= p:
                        pick += 1
                    else:
                        break
                out.append(keys[pick])
        else:
            selected: set = set()
            bits = n.bit_length()
            for i in range(count):
                j = grb(bits)
                while j >= n:
                    j = grb(bits)
                while j in selected:
                    j = grb(bits)
                    while j >= n:
                        j = grb(bits)
                selected.add(j)
                for p in positions:
                    if j >= p:
                        j += 1
                    else:
                        break
                out.append(keys[j])
        return out

    # ------------------------------------------------------------------
    # Property (2)
    # ------------------------------------------------------------------
    def is_complete(self, global_size: int) -> bool:
        """Check this view against Property (2)'s target: ``l = g``
        where ``g`` excludes the local peer (so ``g = r - 1``)."""
        return self.size == global_size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PeerView(local={self.local_peer_id.short()}, l={self.size})"
        )
