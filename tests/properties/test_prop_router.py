"""Property-based tests: ERP next-hop choice.

``EndpointRouter.route_and_send`` reads the next hop straight from its
route table.  ``resolve()`` stays the public query, so it is the
reference here: for random route tables (single-hop and multi-hop
routes, a default route or none, unknown and local destinations, spent
TTLs) the router must send to ``resolve(dst)[0]``, report
``<no-route>`` drops exactly when ``resolve`` has no answer, and move
its ``forwards``/``no_route_drops`` counters accordingly.
"""

import random

from hypothesis import given
from hypothesis import strategies as st

from repro.endpoint import EndpointMessage, EndpointRouter, EndpointService
from repro.endpoint.address import tcp_address
from repro.ids import IDFactory
from repro.network.latency import ConstantLatency
from repro.network.site import place_nodes
from repro.network.transport import Network
from repro.sim import Simulator

PEERS = 5

#: per remote peer: no route, a single-hop route, or a two-hop route
route_kinds = st.lists(
    st.sampled_from(["none", "single", "multi"]),
    min_size=PEERS - 1, max_size=PEERS - 1,
)


def build(seed):
    sim = Simulator(seed=1)
    net = Network(sim, latency=ConstantLatency(0.001), sw_overhead=0.0)
    nodes = place_nodes(PEERS)
    factory = IDFactory(random.Random(seed))
    services = []
    for i in range(PEERS):
        svc = EndpointService(
            sim, net, factory.new_peer_id(), nodes[i],
            tcp_address(nodes[i].hostname, 9701),
        )
        EndpointRouter(svc)
        svc.attach()
        services.append(svc)
    return sim, services, factory


@given(
    seed=st.integers(0, 2**16),
    kinds=route_kinds,
    default=st.booleans(),
    target=st.integers(-1, PEERS - 1),  # -1: a peer nobody has seen
    ttl=st.integers(-1, 3),
)
def test_next_hop_matches_resolve(seed, kinds, default, target, ttl):
    sim, services, factory = build(seed)
    me, others = services[0], services[1:]
    router = me.router
    for svc, kind in zip(others, kinds):
        if kind == "single":
            router.add_route(svc.peer_id, [svc.transport_address])
        elif kind == "multi":
            router.add_route(
                svc.peer_id,
                [others[-1].transport_address, svc.transport_address],
            )
    if default:
        router.set_default_route(others[0].transport_address)
    dst = factory.new_peer_id() if target < 0 else services[target].peer_id

    sent, drops, delivered = [], [], []
    me.send_direct = lambda hop, message, on_drop=None: sent.append(hop)
    me.add_listener("svc", "p", delivered.append)
    message = EndpointMessage(me.peer_id, dst, "svc", "p", "body", ttl=ttl)
    before = (router.forwards, router.no_route_drops)
    expected = None if target == 0 else router.resolve(dst)

    router.route_and_send(message, drops.append)

    forwards = router.forwards - before[0]
    no_route = router.no_route_drops - before[1]
    if target == 0:
        # to self: delivered locally, nothing sent or counted
        assert delivered == [message]
        assert (sent, drops, forwards, no_route) == ([], [], 0, 0)
    elif ttl <= 0:
        assert (sent, drops, forwards, no_route) == ([], [], 0, 1)
    elif expected is None:
        assert sent == [] and (forwards, no_route) == (0, 1)
        assert [e.dst for e in drops] == ["<no-route>"]
        assert drops[0].payload is message
    else:
        assert sent == [expected[0]]
        assert (drops, forwards, no_route) == ([], 1, 0)
