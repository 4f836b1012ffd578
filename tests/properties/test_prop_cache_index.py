"""Property: indexed cache queries match the historical linear scan.

``AdvertisementCache.search`` used to scan every entry with
``fnmatchcase``.  It now resolves through type/attribute/value hash
indexes (with a glob fallback, and an immediate ``[]`` for an exact
value nothing is indexed under).  The oracle below is the pre-index
implementation run against the same entry dict — every query the
discovery API can express must return the *identical* list (same
advertisements, same order, same ``limit`` truncation), including
``*``/``?`` wildcards, absent exact values, values holding ``[`` and
queries at exact expiry instants.

The one edit to the pre-index code: only a value holding ``*`` or
``?`` is a pattern.  Any other value is compared literally, so a
published ``adv-[1]`` is found by the query ``adv-[1]`` (the
rendezvous routes such a value as an exact query too).
"""

from fnmatch import fnmatchcase

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.advertisement import AdvertisementCache, FakeAdvertisement
from repro.advertisement.rdvadv import RdvAdvertisement
from repro.ids.jxtaid import NET_PEER_GROUP_ID, PeerID

FAKE = FakeAdvertisement.ADV_TYPE
RDV = RdvAdvertisement.ADV_TYPE


def linear_scan_oracle(cache, adv_type, attribute, value, now, limit=None):
    """The pre-index ``search`` implementation (see the module doc)."""
    out = []
    for entry in cache._entries.values():
        if entry.expired(now):
            continue
        adv = entry.adv
        if adv_type is not None and adv.ADV_TYPE != adv_type:
            continue
        if attribute is not None:
            matched = False
            for t, attr, val in adv.index_tuples():
                if attr == attribute and (
                    value is None
                    or (
                        fnmatchcase(val, value)
                        if "*" in value or "?" in value
                        else val == value
                    )
                ):
                    matched = True
                    break
            if not matched:
                continue
        out.append(adv)
        if limit is not None and len(out) >= limit:
            break
    return out


def _rdv(n, name):
    return RdvAdvertisement(
        rdv_peer_id=PeerID.from_int(NET_PEER_GROUP_ID, n),
        group_id=NET_PEER_GROUP_ID,
        name=name,
    )


names = st.sampled_from([f"adv-{i}" for i in range(6)] + ["adv-[1]"])
rdv_ns = st.integers(0, 4)
#: overlaps with the fake names so cross-type attribute queries bite
rdv_names = st.sampled_from(["", "adv-1", "adv-3", "rdv-x"])
durations = st.floats(1.0, 50.0)

operations = st.lists(
    st.one_of(
        st.tuples(st.just("pub_fake"), names, durations),
        st.tuples(st.just("remote_fake"), names, durations),
        st.tuples(st.just("pub_rdv"), rdv_ns, rdv_names, durations),
        st.tuples(st.just("remove_fake"), names),
        st.tuples(st.just("advance"), st.floats(0.0, 20.0)),
        st.tuples(st.just("purge"),),
    ),
    min_size=0,
    max_size=40,
)

adv_types = st.sampled_from([None, FAKE, RDV, "jxta:NoSuchType"])
attributes = st.sampled_from([None, "Name", "RdvPeerID", "Payload", "Bogus"])
values = st.sampled_from(
    [None, "adv-1", "adv-5", "rdv-x", "adv-*", "*", "adv-?", "no-such",
     "[a]dv-1", "a*1",
     # absent exact values: the index has no entry at all
     "adv-9", "adv-", "",
     # '[' is literal in an exact value, fnmatch syntax in a pattern
     "adv-[1]", "adv-[13]*", "adv-[?]", "*[1]"]
)
limits = st.sampled_from([None, 1, 2, 5])
queries = st.lists(
    st.tuples(adv_types, attributes, values, limits), min_size=1, max_size=6
)


@settings(max_examples=150, deadline=None)
@given(operations, queries)
def test_indexed_search_matches_linear_oracle(ops, query_specs):
    cache = AdvertisementCache()
    now = 0.0
    expiry_instants = []
    for op in ops:
        kind = op[0]
        if kind == "pub_fake":
            cache.publish(FakeAdvertisement(op[1]), now, lifetime=op[2])
            expiry_instants.append(now + op[2])
        elif kind == "remote_fake":
            cache.store_remote(FakeAdvertisement(op[1]), now, expiration=op[2])
            expiry_instants.append(now + op[2])
        elif kind == "pub_rdv":
            cache.publish(_rdv(op[1], op[2]), now, lifetime=op[3])
            expiry_instants.append(now + op[3])
        elif kind == "remove_fake":
            cache.remove(FakeAdvertisement(op[1]))
        elif kind == "advance":
            now += op[1]
        else:
            cache.purge_expired(now)

    # probe at the current time, exactly at expiry instants (>= means
    # expired), and just before/after one
    probe_nows = [now] + expiry_instants[:3]
    if expiry_instants:
        probe_nows += [expiry_instants[0] - 1e-9, expiry_instants[0] + 1e-9]

    for adv_type, attribute, value, limit in query_specs:
        for qnow in probe_nows:
            got = cache.search(adv_type, attribute, value, qnow, limit=limit)
            want = linear_scan_oracle(
                cache, adv_type, attribute, value, qnow, limit=limit
            )
            assert got == want, (
                f"query ({adv_type!r}, {attribute!r}, {value!r}, "
                f"limit={limit}) at t={qnow}"
            )


@settings(max_examples=60, deadline=None)
@given(operations)
def test_incremental_purge_matches_full_scan(ops):
    """Heap-based ``purge_expired`` drops exactly the entries the old
    full scan dropped, and the ``purged`` counter agrees."""
    cache = AdvertisementCache()
    now = 0.0
    for op in ops:
        kind = op[0]
        if kind == "pub_fake":
            cache.publish(FakeAdvertisement(op[1]), now, lifetime=op[2])
        elif kind == "remote_fake":
            cache.store_remote(FakeAdvertisement(op[1]), now, expiration=op[2])
        elif kind == "pub_rdv":
            cache.publish(_rdv(op[1], op[2]), now, lifetime=op[3])
        elif kind == "remove_fake":
            cache.remove(FakeAdvertisement(op[1]))
        elif kind == "advance":
            now += op[1]
        else:
            cache.purge_expired(now)

    expected_dead = sum(1 for e in cache._entries.values() if e.expired(now))
    before = cache.purged
    dropped = cache.purge_expired(now)
    assert dropped == expected_dead
    assert cache.purged == before + dropped
    assert all(not e.expired(now) for e in cache._entries.values())
