"""Message transport over the simulated grid.

Models what the paper's TCP-over-Gigabit/RENATER transport contributes
to end-to-end timing:

* **propagation delay** from the latency model (intra- vs inter-site);
* **serialization delay** ``size / bandwidth``;
* **per-message software overhead** — JXTA-C parses and re-emits XML
  for every message; the paper's ~12 ms four-message discovery at
  r ≤ 50 implies a couple of milliseconds of software cost per hop on
  2006-era Opterons, dominated by XML handling, not the wire;
* optional **loss** (used by the churn/volatility extension; the
  paper's controlled runs are loss-free).

Destinations are *transport addresses* (strings).  A peer attaches a
handler per address; detaching models a crashed peer — messages to it
are dropped, exactly like TCP connect failures to a dead host.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro.ids.intern import IdInternTable
from repro.network.latency import Grid5000Latency, LatencyModel
from repro.obs import runtime as _obs_runtime
from repro.network.message import Envelope
from repro.network.site import Node
from repro.network.stats import TrafficStats
from repro.sim.kernel import Simulator

Handler = Callable[[Envelope], None]

#: Gigabit Ethernet, the paper's hardware network layer.
DEFAULT_BANDWIDTH_BPS: float = 1e9
#: Per-message software overhead (XML parse/emit + stack traversal).
DEFAULT_SW_OVERHEAD: float = 0.8e-3


class DeliveryError(Exception):
    """Raised for malformed sends (unknown source, bad sizes)."""


@dataclass(frozen=True)
class FaultDecision:
    """Per-message verdict of a fault controller.

    ``drop`` loses the message outright; ``duplicates`` schedules that
    many extra copies of the delivery (modelling retransmission bugs /
    at-least-once relays); ``extra_delay`` is added to the computed
    transit delay, which reorders the message relative to later sends.
    """

    drop: bool = False
    duplicates: int = 0
    extra_delay: float = 0.0

    def __post_init__(self) -> None:
        if self.duplicates < 0:
            raise ValueError(f"duplicates must be >= 0 (got {self.duplicates})")
        if self.extra_delay < 0:
            raise ValueError(f"extra_delay must be >= 0 (got {self.extra_delay})")


#: No-fault verdict shared by controllers with nothing to say.
NO_FAULT = FaultDecision()


class FaultController:
    """Interface consulted once per :meth:`Network.send`.

    Implementations must draw any randomness from the simulator's named
    RNG streams so fault injection preserves bit-for-bit replay (see
    ``repro.faults.engine.NetworkFaultController``).
    """

    def intercept(
        self, envelope: Envelope, src_site: str, dst_site: str
    ) -> FaultDecision:
        raise NotImplementedError


class Network:
    """The simulated grid network connecting peers.

    Parameters
    ----------
    sim:
        Owning simulator (provides the clock and RNG streams).
    latency:
        One-way latency model; defaults to :class:`Grid5000Latency`.
    bandwidth_bps:
        Link bandwidth used for the serialization term.
    sw_overhead:
        Fixed per-message software cost added at the receiver side.
    loss_rate:
        Probability a message silently disappears (default 0, like the
        paper's controlled testbed).
    """

    def __init__(
        self,
        sim: Simulator,
        latency: Optional[LatencyModel] = None,
        bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS,
        sw_overhead: float = DEFAULT_SW_OVERHEAD,
        loss_rate: float = 0.0,
        egress_queueing: bool = True,
    ) -> None:
        if bandwidth_bps <= 0:
            raise ValueError(f"bandwidth must be > 0 (got {bandwidth_bps})")
        if sw_overhead < 0:
            raise ValueError(f"sw_overhead must be >= 0 (got {sw_overhead})")
        if not (0.0 <= loss_rate < 1.0):
            raise ValueError(f"loss_rate must be in [0, 1) (got {loss_rate})")
        self.sim = sim
        self.latency = latency if latency is not None else Grid5000Latency()
        self.bandwidth_bps = float(bandwidth_bps)
        self.sw_overhead = float(sw_overhead)
        self.loss_rate = float(loss_rate)
        #: Serialize each node's outgoing messages through its NIC:
        #: concurrent sends from one machine queue behind each other
        #: (visible when an SRDI burst pushes thousands of tuples).
        self.egress_queueing = egress_queueing
        #: One intern table per network: every peer registers its ID at
        #: construction, and the hot per-peer structures (peerview,
        #: routing tables, lease maps, SRDI buckets) key on the dense
        #: int keys instead of hashing 33-byte IDs per operation.
        self.interner = IdInternTable()
        self.stats = TrafficStats()
        self._endpoints: Dict[str, tuple[Node, Handler]] = {}
        #: node id -> simulated time its NIC finishes the current send
        self._egress_busy_until: Dict[int, float] = {}
        #: worst egress queueing delay observed (diagnostics)
        self.peak_queue_delay = 0.0
        #: blocked unordered site pairs (WAN partitions)
        self._partitions: set[frozenset] = set()
        #: optional per-message fault controller (repro.faults)
        self.fault_controller: Optional[FaultController] = None
        #: messages dropped / duplicated by the fault controller
        self.faulted_drops = 0
        self.faulted_duplicates = 0
        # Stream objects are cached here so the per-send path skips the
        # registry lookup; stream seeds are name-derived, so grabbing
        # them eagerly draws nothing and changes no replay.
        self._latency_rng = sim.rng.stream("network.latency")
        self._loss_rng = sim.rng.stream("network.loss")
        # the send path reads the clock once per message; going through
        # the Simulator.now property twice per send showed up in the
        # protocol-stack profile
        self._clock = sim.clock
        # bound methods resolved once (latency model and simulator are
        # fixed for the network's lifetime)
        self._latency_delay = self.latency.delay
        self._schedule = sim.schedule
        # Grid'5000 fast path: reuse the site-name pair tuple the stats
        # counter needs anyway to probe the model's base-delay cache
        # directly, and draw the jitter inline — exactly the arithmetic
        # of Grid5000Latency.delay, minus the call.  Any other model
        # (tests, custom topologies) goes through the generic call.
        if type(self.latency) is Grid5000Latency:
            self._g5k = self.latency
            self._g5k_cache = self.latency._base_cache
            # jitter is fixed at model construction; precomputing the
            # band bounds keeps the per-send arithmetic bit-identical
            # to Grid5000Latency.delay while dropping two subtractions
            # and an attribute load per message
            jitter = self.latency.jitter
            self._g5k_lo = 1.0 - jitter
            self._g5k_span = (1.0 + jitter) - self._g5k_lo
        else:
            self._g5k = None
            self._g5k_cache = None
        #: Optional observability hub (``repro.obs``).  ``None`` by
        #: default; an active ObsSession adopts the network here so
        #: experiments and campaign tasks need no explicit plumbing.
        self.obs = None
        if _obs_runtime._stack:
            _obs_runtime._stack[-1].adopt(self)

    # ------------------------------------------------------------------
    # attachment
    # ------------------------------------------------------------------
    def attach(self, address: str, node: Node, handler: Handler) -> None:
        """Bind ``handler`` to a transport address on ``node``."""
        if address in self._endpoints:
            raise DeliveryError(f"address already attached: {address!r}")
        self._endpoints[address] = (node, handler)

    def detach(self, address: str) -> None:
        """Remove an address (peer shutdown/crash).  Idempotent."""
        self._endpoints.pop(address, None)

    def is_attached(self, address: str) -> bool:
        return address in self._endpoints

    def node_of(self, address: str) -> Node:
        """Physical node currently bound to ``address``."""
        try:
            return self._endpoints[address][0]
        except KeyError:
            raise DeliveryError(f"unknown address: {address!r}") from None

    # ------------------------------------------------------------------
    # WAN partitions (site-level volatility)
    # ------------------------------------------------------------------
    def partition(self, site_a: str, site_b: str) -> None:
        """Sever the WAN path between two sites: messages between them
        are dropped until :meth:`heal` (models an inter-site RENATER
        outage; intra-site traffic is unaffected)."""
        if site_a == site_b:
            raise ValueError("cannot partition a site from itself")
        self._partitions.add(frozenset((site_a, site_b)))

    def heal(self, site_a: str, site_b: str) -> None:
        """Restore the WAN path between two sites.  Idempotent."""
        self._partitions.discard(frozenset((site_a, site_b)))

    def heal_all(self) -> None:
        self._partitions.clear()

    def is_partitioned(self, site_a: str, site_b: str) -> bool:
        return frozenset((site_a, site_b)) in self._partitions

    def isolate_site(self, site: str, all_sites) -> None:
        """Partition ``site`` from every other site in ``all_sites``."""
        for other in all_sites:
            name = getattr(other, "name", other)
            if name != site:
                self.partition(site, name)

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def transit_delay(self, src: Node, dst: Node, size_bytes: int) -> float:
        """Deterministic part of the delivery delay (no jitter draw,
        no queueing)."""
        serialization = size_bytes * 8.0 / self.bandwidth_bps
        return serialization + self.sw_overhead

    def _egress_delay(
        self, src_node: Node, size_bytes: int, now: Optional[float] = None
    ) -> float:
        """Time from now until the message has left ``src_node``'s NIC,
        accounting for earlier in-flight sends from the same machine."""
        if now is None:
            now = self._clock._now
        serialization = size_bytes * 8.0 / self.bandwidth_bps
        if not self.egress_queueing:
            return serialization
        start = max(now, self._egress_busy_until.get(src_node.node_id, 0.0))
        departure = start + serialization
        self._egress_busy_until[src_node.node_id] = departure
        queue_delay = start - now
        if queue_delay > self.peak_queue_delay:
            self.peak_queue_delay = queue_delay
        return departure - now

    def send(
        self,
        src: str,
        dst: str,
        payload: Any,
        size_bytes: int = 512,
        on_drop: Optional[Callable[[Envelope], None]] = None,
    ) -> Envelope:
        """Send ``payload`` from address ``src`` to address ``dst``.

        Delivery is asynchronous: the destination handler runs after
        the computed delay.  If the destination is not attached at
        *send* time the message is dropped (and ``on_drop`` is invoked
        after the same delay — the sender perceives the failure no
        sooner than a connect attempt would).  A destination that
        detaches while the message is in flight also drops it.
        """
        # subscripting beats .get here: both lookups hit except for
        # unknown senders (programming error) and in-flight-dead
        # destinations (rare churn window)
        endpoints = self._endpoints
        try:
            src_node = endpoints[src][0]
        except KeyError:
            raise DeliveryError(f"unknown source address: {src!r}") from None
        src_site = src_node.site

        now = self._clock._now
        envelope = Envelope(src, dst, payload, size_bytes, 0, now)
        try:
            dst_site = endpoints[dst][0].site
            dst_dead = False
        except KeyError:
            dst_site = src_site
            dst_dead = True

        # inlined stats.record_send (kept as a method for other callers):
        # four counter updates per message add up at full scale
        site_pair = (src_site.name, dst_site.name)
        stats = self.stats
        stats.messages_sent += 1
        stats.bytes_sent += size_bytes
        stats.site_pair_messages[site_pair] += 1
        stats.per_destination[dst] += 1

        # inlined _egress_delay (kept as a method for tests/diagnostics):
        # NIC serialization plus queueing behind this node's in-flight
        # sends — send() is the hottest function in a full-scale run
        serialization = size_bytes * 8.0 / self.bandwidth_bps
        if self.egress_queueing:
            busy = self._egress_busy_until
            nid = src_node.node_id
            try:
                start = busy[nid]
                if start < now:
                    start = now
            except KeyError:  # first send from this node
                start = now
            busy[nid] = start + serialization
            queue_delay = start - now
            if queue_delay > self.peak_queue_delay:
                self.peak_queue_delay = queue_delay
            egress = queue_delay + serialization
        else:
            egress = serialization

        g5k = self._g5k
        if g5k is not None:
            try:
                base = self._g5k_cache[site_pair]
            except KeyError:  # cold pair: compute (and cache) the base
                base = g5k.base_delay(src_site, dst_site)
            span = self._g5k_span
            if span == 0.0:
                latency = base
            else:
                latency = base * (
                    self._g5k_lo + span * self._latency_rng.random()
                )
        else:
            latency = self._latency_delay(src_site, dst_site, self._latency_rng)
        delay = egress + latency + self.sw_overhead

        # fault-free sends (every paper-configuration run) skip the
        # decision object's attribute loads and the duplicate/faulted
        # bookkeeping entirely
        fc = self.fault_controller
        if fc is None:
            lost = (
                dst_dead
                or (
                    self._partitions
                    and frozenset(site_pair) in self._partitions
                )
                or (
                    self.loss_rate > 0.0
                    and self._loss_rng.random() < self.loss_rate
                )
            )
            obs = self.obs
            if obs is not None and obs.active:
                obs.on_network_send(
                    now, site_pair, src, dst, payload, size_bytes, delay, lost
                )
            if lost:
                self.stats.record_drop()
                if on_drop is not None:
                    self._schedule(delay, on_drop, envelope, label="net.drop")
                return envelope
            self._schedule(
                delay, self._deliver, envelope, on_drop, label="net.deliver"
            )
            return envelope

        decision = fc.intercept(envelope, src_site.name, dst_site.name)
        delay += decision.extra_delay
        faulted_drop = decision.drop
        duplicates = decision.duplicates
        lost = (
            dst_dead
            or faulted_drop
            or (
                self._partitions
                and frozenset(site_pair) in self._partitions
            )
            or (
                self.loss_rate > 0.0
                and self._loss_rng.random() < self.loss_rate
            )
        )
        obs = self.obs
        if obs is not None and obs.active:
            obs.on_network_send(
                now, site_pair, src, dst, payload, size_bytes, delay, lost
            )
        if lost:
            self.stats.record_drop()
            if faulted_drop:
                self.faulted_drops += 1
            if on_drop is not None:
                self._schedule(delay, on_drop, envelope, label="net.drop")
            return envelope

        self._schedule(
            delay, self._deliver, envelope, on_drop, label="net.deliver"
        )
        for _ in range(duplicates):
            self.faulted_duplicates += 1
            # duplicated deliveries share one envelope
            self._schedule(
                delay, self._deliver, envelope, None, label="net.deliver.dup"
            )
        return envelope

    def _deliver(
        self,
        envelope: Envelope,
        on_drop: Optional[Callable[[Envelope], None]],
    ) -> None:
        try:
            entry = self._endpoints[envelope.dst]
        except KeyError:
            # destination died while the message was in flight
            self.stats.record_drop()
            if on_drop is not None:
                on_drop(envelope)
            return
        self.stats.messages_delivered += 1
        entry[1](envelope)
