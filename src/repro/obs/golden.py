"""Golden-trace scenarios: small deterministic runs that pin protocol
behaviour.

Each scenario returns the canonical JSONL lines of its timeline trace.
The committed fixtures under ``tests/fixtures/golden/`` are those
lines verbatim; ``tests/integration/test_golden_traces.py`` re-runs
each scenario and diffs, so any change to message counts, fire order
or event timing — however a refactor smuggles it in — fails loudly.

Regenerate after an *intentional* protocol change with::

    python scripts/regen_goldens.py

and review the fixture diff like code: it IS the protocol's observable
behaviour.
"""

from __future__ import annotations

from typing import List

from repro.obs.runtime import session

#: Scenario name -> fixture file name (one source of truth for the
#: regen script and the regression test).
GOLDEN_SCENARIOS = {
    "peerview10": "peerview10.jsonl",
    "publish-lookup5": "publish_lookup5.jsonl",
    "walk-lookup10": "walk_lookup10.jsonl",
}


def peerview_convergence_trace(seed: int = 1) -> List[str]:
    """10 rendezvous in a chain converging from cold start.

    Traces the full peerview protocol (probes, responses, referrals,
    updates, view membership changes) for the first five simulated
    minutes — long enough to cover seed contact, the referral cascade
    and convergence to the full view.
    """
    from repro.config import PlatformConfig
    from repro.deploy.builder import OverlayDescription, build_overlay
    from repro.network import Network
    from repro.sim import MINUTES, Simulator

    with session(metrics=False, trace=True, categories=("peerview",)) as s:
        sim = Simulator(seed=seed)
        network = Network(sim)
        overlay = build_overlay(
            sim,
            network,
            PlatformConfig(),
            OverlayDescription(rendezvous_count=10, topology="chain"),
        )
        overlay.start()
        sim.run(until=5 * MINUTES)
    (tracer,) = s.tracers()
    assert tracer.dropped == 0
    return tracer.to_jsonl_lines()


def publish_lookup_trace(seed: int = 1) -> List[str]:
    """Figure 2's message walkthrough on a 5-peer overlay.

    Three rendezvous plus two edges warm up with tracing off-category
    (only discovery/resolver/srdi events are kept), then edge-0
    publishes a peer advertisement, the SRDI push and replica copy
    land, and edge-1 looks the advertisement up — the paper's
    publish + lookup chains, end to end.
    """
    from repro.advertisement.peeradv import PeerAdvertisement
    from repro.config import PlatformConfig
    from repro.deploy.builder import OverlayDescription, build_overlay
    from repro.network import Network
    from repro.sim import HOURS, MINUTES, Simulator

    with session(
        metrics=False, trace=True, categories=("discovery", "resolver", "srdi")
    ) as s:
        sim = Simulator(seed=seed)
        network = Network(sim)
        overlay = build_overlay(
            sim,
            network,
            PlatformConfig(),
            OverlayDescription(
                rendezvous_count=3, edge_count=2, topology="chain"
            ),
        )
        overlay.start()
        sim.run(until=10 * MINUTES)

        publisher, searcher = overlay.edges
        publisher.discovery.publish(
            PeerAdvertisement(publisher.peer_id, publisher.group_id, "Golden"),
            expiration=2 * HOURS,
        )
        publisher.discovery.pusher.push_now()
        sim.run(until=sim.now + 1 * MINUTES)

        results: List[object] = []
        searcher.discovery.get_remote_advertisements(
            "jxta:PA", "Name", "Golden",
            callback=lambda advs, latency: results.append(advs),
        )
        sim.run(until=sim.now + 1 * MINUTES)
        assert results, "golden lookup must succeed"
    (tracer,) = s.tracers()
    assert tracer.dropped == 0
    return tracer.to_jsonl_lines()


def walk_lookup_trace(seed: int = 1) -> List[str]:
    """A lookup that misses at its replica and walks the peerview.

    Ten rendezvous in a chain plus two edges (publisher on rdv-0,
    searcher on rdv-5) warm up with only discovery/resolver/srdi events
    kept.  The publisher's advertisement is indexed on rdv-0 and
    replicated to rdv-7.  Then the views are made inconsistent: rdv-5
    forgets rdv-7, so it routes the lookup to rdv-9 as the replica,
    which misses and starts the bidirectional walk.  rdv-8, the first
    upward walk target, has crashed: the send is dropped, rdv-9 removes
    it from its view and the upward leg retries with the next
    neighbour.  Both legs reach an index holder and forward to the
    publisher.
    """
    from repro.advertisement.testadv import FakeAdvertisement
    from repro.config import PlatformConfig
    from repro.deploy.builder import OverlayDescription, build_overlay
    from repro.network import Network
    from repro.sim import HOURS, MINUTES, Simulator

    with session(
        metrics=False, trace=True, categories=("discovery", "resolver", "srdi")
    ) as s:
        sim = Simulator(seed=seed)
        network = Network(sim)
        overlay = build_overlay(
            sim,
            network,
            PlatformConfig(),
            OverlayDescription(
                rendezvous_count=10, edge_count=2, topology="chain",
                edge_attachment=[0, 5],
            ),
        )
        overlay.start()
        sim.run(until=10 * MINUTES)

        publisher, searcher = overlay.edges
        rdv = overlay.rendezvous
        publisher.discovery.publish(
            FakeAdvertisement("WalkMe"), expiration=2 * HOURS
        )
        publisher.discovery.pusher.push_now()
        sim.run(until=sim.now + 1 * MINUTES)

        rdv[5].view.remove(rdv[7].peer_id, sim.now, reason="golden")
        rdv[8].crash()
        results: List[object] = []
        searcher.discovery.get_remote_advertisements(
            "repro:FakeAdvertisement", "Name", "WalkMe",
            callback=lambda advs, latency: results.append(advs),
        )
        sim.run(until=sim.now + 1 * MINUTES)
        assert results, "golden walk lookup must succeed"
        assert rdv[8].peer_id not in rdv[9].view, "the walk retry must fire"
    (tracer,) = s.tracers()
    assert tracer.dropped == 0
    return tracer.to_jsonl_lines()


SCENARIO_FUNCTIONS = {
    "peerview10": peerview_convergence_trace,
    "publish-lookup5": publish_lookup_trace,
    "walk-lookup10": walk_lookup_trace,
}
