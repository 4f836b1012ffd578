"""Property: a discovery query is classified once, the same way
everywhere.

``DiscoveryQueryPayload.kind`` is computed when the payload is built.
It must agree with the definitions the rendezvous and the cache used
to re-run on every hop (a numeric ``lo..hi`` range per
``rangequery.is_range_query``; otherwise a pattern iff the value holds
``*`` or ``?``), and it must travel unchanged through pickling (the
snapshot path) and through every routed copy of the query.
"""

import pickle

from hypothesis import given
from hypothesis import strategies as st

from repro.advertisement.cache import is_pattern
from repro.discovery.rangequery import is_range_query
from repro.discovery.service import (
    QUERY_EXACT,
    QUERY_RANGE,
    QUERY_WILDCARD,
    DiscoveryQueryPayload,
    DiscoveryService,
)
from repro.discovery.walker import WALK_DOWN, WALK_NONE, WALK_UP
from repro.ids import NET_PEER_GROUP_ID, PeerID
from repro.resolver.messages import ResolverQuery

#: fragments that make ranges, patterns and near-misses likely
fragments = st.sampled_from(
    ["..", ".", "*", "?", "[", "]", "1", "-2.5", "1e3", "inf", "nan",
     " ", "a", "item", "_", "0"]
)
values = st.one_of(
    st.text(max_size=12),
    st.lists(fragments, max_size=6).map("".join),
)


def old_kind(value):
    """The per-hop definitions the payload replaces."""
    if is_range_query(value):
        return QUERY_RANGE
    if "*" in value or "?" in value:
        return QUERY_WILDCARD
    return QUERY_EXACT


@given(values)
def test_kind_matches_the_old_definitions(value):
    payload = DiscoveryQueryPayload("repro:FakeAdvertisement", "Name", value)
    assert payload.kind == old_kind(value)
    # the cache's pattern test is the rendezvous' wildcard test
    if payload.kind != QUERY_RANGE:
        assert is_pattern(value) == (payload.kind == QUERY_WILDCARD)


@given(values, st.booleans(), st.sampled_from([WALK_NONE, WALK_UP, WALK_DOWN]))
def test_kind_survives_pickling_and_routing(value, at_replica, direction):
    payload = DiscoveryQueryPayload(
        "repro:FakeAdvertisement", "Name", value, threshold=2
    )
    restored = pickle.loads(pickle.dumps(payload))
    assert restored == payload

    query = ResolverQuery(
        handler_name="jxta.service.discovery",
        query_id=7,
        src_peer=PeerID.from_int(NET_PEER_GROUP_ID, 3),
        src_route=["tcp://a:1"],
        payload=restored,
        hop_count=4,
    )
    leg = DiscoveryService._routed_query(query, at_replica, direction)
    hopped = leg.hopped()
    assert hopped.hop_count == 5
    routed = hopped.payload
    assert routed.kind == old_kind(value)
    assert (routed.adv_type, routed.attribute, routed.value, routed.threshold) == (
        payload.adv_type, payload.attribute, payload.value, payload.threshold
    )
    assert (routed.at_replica, routed.walk_direction) == (at_replica, direction)
    assert pickle.loads(pickle.dumps(hopped)).payload == routed
