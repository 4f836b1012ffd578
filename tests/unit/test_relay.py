"""Unit tests for the HTTP relay transport."""

import pytest

from repro.advertisement import FakeAdvertisement
from repro.config import PlatformConfig
from repro.deploy import OverlayDescription, build_overlay
from repro.endpoint.relay import RelayClient, RelayServer
from repro.network import Network
from repro.sim import MINUTES, SECONDS, Simulator


def build_with_http_edge(seed=14, r=4):
    """Overlay with two TCP edges (publisher + searcher) and one HTTP
    edge."""
    sim = Simulator(seed=seed)
    network = Network(sim)
    overlay = build_overlay(
        sim, network, PlatformConfig(),
        OverlayDescription(rendezvous_count=r, edge_count=2,
                           edge_attachment=[0, 2]),
    )
    http_edge = overlay.group.create_edge(
        overlay.rendezvous[1].node,
        seeds=[overlay.rendezvous[1].address],
        transport="http",
    )
    overlay.start()
    sim.run(until=10 * MINUTES)
    assert overlay.group.property_2_satisfied()
    return sim, overlay, http_edge


class TestRelayAttachment:
    def test_http_edge_advertises_relay_address(self):
        sim, overlay, edge = build_with_http_edge()
        assert edge.lease_client.connected
        relay_rdv = overlay.rendezvous[1]
        assert edge.endpoint.advertised_address == relay_rdv.address
        assert edge.relay_client.attached

    def test_relay_registers_client(self):
        sim, overlay, edge = build_with_http_edge()
        assert overlay.rendezvous[1].relay_server.client_count() == 1

    def test_tcp_edge_advertises_own_address(self):
        sim, overlay, _ = build_with_http_edge()
        tcp_edge = overlay.edges[0]
        assert tcp_edge.endpoint.advertised_address == tcp_edge.endpoint.transport_address

    def test_invalid_transport_rejected(self):
        sim = Simulator(seed=1)
        network = Network(sim)
        overlay = build_overlay(
            sim, network, PlatformConfig(), OverlayDescription(rendezvous_count=1)
        )
        with pytest.raises(ValueError):
            overlay.group.create_edge(
                overlay.rendezvous[0].node,
                seeds=[overlay.rendezvous[0].address],
                transport="carrier-pigeon",
            )


class TestRelayedDiscovery:
    def test_http_edge_can_publish_and_be_found(self):
        sim, overlay, http_edge = build_with_http_edge()
        http_edge.discovery.publish(FakeAdvertisement("behind-nat"))
        sim.run(until=sim.now + 2 * MINUTES)
        results = []
        overlay.edges[0].discovery.get_remote_advertisements(
            "repro:FakeAdvertisement", "Name", "behind-nat",
            callback=lambda advs, lat: results.append((advs, lat)),
        )
        sim.run(until=sim.now + 1 * MINUTES)
        assert len(results) == 1
        assert results[0][0][0].name == "behind-nat"

    def test_http_edge_can_search(self):
        sim, overlay, http_edge = build_with_http_edge()
        overlay.edges[0].discovery.publish(FakeAdvertisement("outside"))
        sim.run(until=sim.now + 2 * MINUTES)
        results = []
        http_edge.discovery.get_remote_advertisements(
            "repro:FakeAdvertisement", "Name", "outside",
            callback=lambda advs, lat: results.append((advs, lat)),
        )
        sim.run(until=sim.now + 1 * MINUTES)
        assert len(results) == 1

    def test_relayed_inbound_pays_polling_latency(self):
        # query responses to the HTTP searcher wait for the next poll:
        # mean latency must exceed the TCP edge's by a noticeable part
        # of the poll interval
        sim, overlay, http_edge = build_with_http_edge()
        overlay.edges[0].discovery.publish(FakeAdvertisement("latency"))
        sim.run(until=sim.now + 2 * MINUTES)

        latencies = {"http": [], "tcp": []}
        for kind, searcher in (("http", http_edge), ("tcp", overlay.edges[1])):
            for _ in range(10):
                searcher.cache.flush()
                searcher.discovery.get_remote_advertisements(
                    "repro:FakeAdvertisement", "Name", "latency",
                    callback=lambda advs, lat, k=kind: latencies[k].append(lat),
                )
                sim.run(until=sim.now + 30 * SECONDS)
        mean_http = sum(latencies["http"]) / len(latencies["http"])
        mean_tcp = sum(latencies["tcp"]) / len(latencies["tcp"])
        assert mean_http > mean_tcp + 0.2  # ≥ a fair share of the 2 s poll

    def test_queue_drains_through_polls(self):
        sim, overlay, http_edge = build_with_http_edge()
        relay = overlay.rendezvous[1].relay_server
        assert relay.queued >= 0
        before = http_edge.relay_client.messages_received
        overlay.edges[0].discovery.publish(FakeAdvertisement("drain"))
        sim.run(until=sim.now + 2 * MINUTES)
        http_edge.discovery.get_remote_advertisements(
            "repro:FakeAdvertisement", "Name", "drain",
            callback=lambda advs, lat: None,
        )
        sim.run(until=sim.now + 1 * MINUTES)
        assert http_edge.relay_client.messages_received > before
        assert relay.queue_length(http_edge.peer_id) == 0


class TestRelayServer:
    def test_queue_overflow_drops(self):
        sim = Simulator(seed=3)
        network = Network(sim)
        overlay = build_overlay(
            sim, network, PlatformConfig(),
            OverlayDescription(rendezvous_count=2),
        )
        edge = overlay.group.create_edge(
            overlay.rendezvous[0].node,
            seeds=[overlay.rendezvous[0].address],
            transport="http",
        )
        overlay.start()
        sim.run(until=5 * MINUTES)
        relay = overlay.rendezvous[0].relay_server
        relay.queue_limit = 3
        # stop polling so the queue fills
        edge.relay_client._poll_task.stop()
        from repro.endpoint.service import EndpointMessage

        rdv = overlay.rendezvous[1]
        for i in range(6):
            rdv.router.add_route(edge.peer_id, [overlay.rendezvous[0].address])
            rdv.endpoint.send_to_peer(
                EndpointMessage(
                    src_peer=rdv.peer_id,
                    dst_peer=edge.peer_id,
                    service_name="svc",
                    service_param="p",
                    body=f"m{i}",
                )
            )
        sim.run(until=sim.now + 10 * SECONDS)
        assert relay.queue_length(edge.peer_id) == 3
        assert relay.dropped_overflow == 3

    def test_detach_restores_direct_addressing(self):
        sim, overlay, edge = build_with_http_edge()
        edge.relay_client.detach()
        assert edge.endpoint.advertised_address == edge.endpoint.transport_address

    def test_bad_constructor_args(self):
        sim = Simulator(seed=1)
        network = Network(sim)
        overlay = build_overlay(
            sim, network, PlatformConfig(), OverlayDescription(rendezvous_count=1)
        )
        rdv = overlay.rendezvous[0]
        with pytest.raises(ValueError):
            RelayServer(rdv.endpoint, "g", queue_limit=0)
        with pytest.raises(ValueError):
            RelayClient(rdv.endpoint, "g", poll_interval=0.0)


class TestRelayServerRecords:
    """White-box checks of the relay's client records and interception."""

    def _relay(self):
        from repro.ids.jxtaid import NET_PEER_GROUP_ID, PeerID

        sim = Simulator(seed=1)
        network = Network(sim)
        overlay = build_overlay(
            sim, network, PlatformConfig(), OverlayDescription(rendezvous_count=1)
        )
        rdv = overlay.rendezvous[0]
        client = PeerID.from_int(NET_PEER_GROUP_ID, 9999)
        return sim, rdv, rdv.relay_server, client

    @staticmethod
    def _message(src, dst, body):
        from repro.endpoint.service import EndpointMessage

        return EndpointMessage(
            src_peer=src, dst_peer=dst, service_name="svc",
            service_param="p", body=body,
        )

    def _register(self, rdv, relay, client, lease):
        from repro.endpoint.relay import RelayRegister

        relay._on_message(self._message(
            client, None,
            RelayRegister(client_peer=client, client_address="tcp://c:1",
                          lease=lease),
        ))

    def test_intercept_with_no_clients_passes_through(self):
        sim, rdv, relay, client = self._relay()
        assert relay._intercept(self._message(rdv.peer_id, client, "m")) is False
        assert relay.queued == 0

    def test_intercept_queues_for_live_client(self):
        sim, rdv, relay, client = self._relay()
        self._register(rdv, relay, client, lease=10.0)
        assert relay._intercept(self._message(rdv.peer_id, client, "m")) is True
        assert relay.queue_length(client) == 1

    def test_intercept_ignores_expired_client(self):
        sim, rdv, relay, client = self._relay()
        self._register(rdv, relay, client, lease=10.0)
        sim.run(until=20.0)
        assert relay._intercept(self._message(rdv.peer_id, client, "m")) is False
        assert relay.queued == 0
        assert relay.client_count() == 0

    def test_reregistration_after_expiry_starts_empty(self):
        # the record expired but nothing purged it yet: the new lease
        # must not inherit the stale queue
        sim, rdv, relay, client = self._relay()
        self._register(rdv, relay, client, lease=10.0)
        relay._intercept(self._message(rdv.peer_id, client, "stale"))
        sim.run(until=20.0)
        self._register(rdv, relay, client, lease=10.0)
        assert relay.queue_length(client) == 0

    def test_reregistration_while_live_keeps_queue(self):
        sim, rdv, relay, client = self._relay()
        self._register(rdv, relay, client, lease=10.0)
        relay._intercept(self._message(rdv.peer_id, client, "kept"))
        sim.run(until=5.0)
        self._register(rdv, relay, client, lease=10.0)
        assert relay.queue_length(client) == 1
