"""The benchmark's three workloads: set-up, open-loop window, outputs.

Every workload uses the default ``PlatformConfig`` and a fixed
deployment (simulator seed :data:`DEPLOYMENT_SEED`), so every run
measures the same overlay; ``--seed`` draws the load.  The load is open
loop in *simulated* time: each client's Poisson arrival times are drawn
up front, and a client issues its next request when the schedule says
so, whether or not earlier requests completed.  The program only sees
the generated schedule, through the public
``DiscoveryService.publish`` and ``get_remote_advertisements`` calls.
"""

from __future__ import annotations

import gc
import random
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.advertisement.testadv import FakeAdvertisement
from repro.config import PlatformConfig
from repro.deploy import OverlayDescription, build_overlay
from repro.network import Network
from repro.sim import HOURS, MINUTES, Simulator

from measure import timed

DEPLOYMENT_SEED = 1
ADV_TYPE = FakeAdvertisement.ADV_TYPE
PAYLOAD = "x" * 64
#: popularity skew of the searched items: Zipf(1.0)
ZIPF_S = 1.0
#: Catalog items outlive every run, so no lookup misses by expiry.
ITEM_EXPIRATION = 12 * HOURS
#: Sim time after the last arrival for outstanding queries to resolve.
DRAIN_S = PlatformConfig().discovery_query_timeout + 5.0
#: The set-up runs, and is timed, in pieces of this many simulated seconds.
SETUP_PIECE_S = 180.0


@dataclass(frozen=True)
class Spec:
    """Sizes of one workload (README.md says why each was chosen)."""

    name: str
    r: int
    #: simulated minutes of set-up before the measured window
    setup_min: float
    #: window length in simulated minutes per second of host CPU,
    #: calibrated on a 2-CPU Xeon
    window_min_per_s: float
    #: the window is a whole number of these simulated seconds, each
    #: timed on its own: a whole number of the 30 s protocol periods
    #: (peerview iteration, SRDI push) where those carry the load
    window_step_s: float
    #: set-up-plus-window repetitions per run, each measuring an equal
    #: share of ``--seconds``; timings are reported as their medians
    repeats: int = 3
    queriers: int = 0
    query_rate: float = 0.0
    catalog: int = 0
    #: edge peers publishing the catalog (each item once)
    publishers: int = 0
    noisers: int = 0
    noise_rate: float = 0.0
    #: > 0: the query load runs for this many simulated seconds after
    #: the window, from rendezvous peers, instead of in the window from
    #: edges (query metrics for a workload whose window has no lookups)
    probe_s: float = 0.0
    #: rendezvous peers that each publish the whole catalog before the
    #: probes (README.md says why there is more than one)
    probe_copies: int = 0

    @property
    def edge_queriers(self) -> int:
        return 0 if self.probe_s else self.queriers


WORKLOADS: Dict[str, Spec] = {
    spec.name: spec for spec in (
        Spec(
            name="peerview-580", r=580, setup_min=25.0,
            window_min_per_s=2.4, window_step_s=60.0,
            # lookup-150's query load, for about 2,400 lookups
            queriers=20, query_rate=5.0, catalog=1000, probe_s=24.0,
            probe_copies=4,
        ),
        Spec(
            name="lookup-150", r=150, setup_min=21.0,
            window_min_per_s=0.12, window_step_s=5.0,
            queriers=20, query_rate=5.0, catalog=1000, publishers=2,
        ),
        Spec(
            name="publish-storm", r=25, setup_min=21.0,
            window_min_per_s=0.3, window_step_s=20.0, repeats=6,
            queriers=4, query_rate=5.0, catalog=100, publishers=2,
            noisers=50, noise_rate=10.0,
        ),
    )
}


def item_name(k: int) -> str:
    return f"item-{k}"


def zipf_cdf(n: int, s: float) -> List[float]:
    weights = [1.0 / (k + 1) ** s for k in range(n)]
    total = sum(weights)
    acc, cdf = 0.0, []
    for w in weights:
        acc += w / total
        cdf.append(acc)
    cdf[-1] = 1.0
    return cdf


def poisson_times(
    rng: random.Random, rate: float, start: float, end: float
) -> List[float]:
    """Arrival times in [start, end) of a Poisson process (per sim-s)."""
    out, t = [], start
    while True:
        t += rng.expovariate(rate)
        if t >= end:
            return out
        out.append(t)


@dataclass
class Query:
    """One scheduled lookup and, once it resolves, its outcome."""

    due: float
    item: int
    latency: Optional[float] = None
    #: None: unresolved; True: the asked-for advertisement came back;
    #: False: timed out or answered with the wrong advertisement
    ok: Optional[bool] = None
    wrong: bool = False


@dataclass
class Bench:
    """A set-up overlay plus everything its load records."""

    spec: Spec
    sim: Simulator
    network: Network
    overlay: object
    publishers: list
    queriers: list
    noisers: list
    queries: List[Query] = field(default_factory=list)
    publishes: int = 0
    #: (querier peer id, resolver query id) -> index in ``queries``
    query_index: Dict[tuple, int] = field(default_factory=dict)

    # -- set-up --------------------------------------------------------
    @classmethod
    def build(cls, spec: Spec) -> "Bench":
        """Deploy and start the overlay (simulated time stays at 0)."""
        sim = Simulator(seed=DEPLOYMENT_SEED)
        network = Network(sim)
        r = spec.r
        # edges: [publishers..., queriers..., noisers...]
        attachment = (
            [(k * r) // max(1, spec.publishers) for k in range(spec.publishers)]
            + [(k * 7 + 3) % r for k in range(spec.edge_queriers)]
            + [k % r for k in range(spec.noisers)]
        )
        overlay = build_overlay(
            sim, network, PlatformConfig(),
            OverlayDescription(
                rendezvous_count=r,
                edge_count=len(attachment),
                edge_attachment=attachment,
            ),
        )
        overlay.start()
        edges = overlay.edges
        q0 = spec.publishers
        return cls(
            spec=spec, sim=sim, network=network, overlay=overlay,
            publishers=edges[:q0],
            queriers=edges[q0:q0 + spec.edge_queriers],
            noisers=edges[q0 + spec.edge_queriers:],
        )

    def publish_catalog(self) -> None:
        """The searched catalog, one copy per item over the publishers."""
        for k in range(self.spec.catalog):
            self.publish_item(self.publishers[k % len(self.publishers)], k)

    def publish_item(self, peer, k: int) -> None:
        peer.discovery.publish(
            FakeAdvertisement(item_name(k), PAYLOAD), expiration=ITEM_EXPIRATION,
        )

    # -- load ----------------------------------------------------------
    def _issue(self, peer, index: int) -> None:
        query = self.queries[index]
        wanted = item_name(query.item)

        def answered(advs, latency):
            query.latency = latency
            query.ok = any(getattr(a, "name", None) == wanted for a in advs)
            query.wrong = not query.ok
            # the paper's searcher flushes its cache after every query:
            # drop the copies this answer left behind
            for adv in advs:
                peer.discovery.cache.remove(adv)

        def timed_out():
            query.ok = False

        qid = peer.discovery.get_remote_advertisements(
            ADV_TYPE, "Name", wanted, answered, on_timeout=timed_out,
        )
        self.query_index[(peer.peer_id, qid)] = index

    def _arrive(self, peer, times: List[float], indices: List[int], pos: int) -> None:
        self._issue(peer, indices[pos])
        if pos + 1 < len(times):
            self.sim.schedule_at(
                times[pos + 1], self._arrive, peer, times, indices, pos + 1,
                label="bench.query",
            )

    def _publish(self, noiser: int, times: List[float], pos: int) -> None:
        # fresh names: every publication grows the caches and SRDI stores
        self.noisers[noiser].discovery.publish(
            FakeAdvertisement(f"storm-{noiser}-{pos}", PAYLOAD),
            expiration=ITEM_EXPIRATION,
        )
        self.publishes += 1
        if pos + 1 < len(times):
            self.sim.schedule_at(
                times[pos + 1], self._publish, noiser, times, pos + 1,
                label="bench.publish",
            )

    def schedule_queries(
        self, rng: random.Random, peers: list, rate: float, start: float,
        end: float,
    ) -> None:
        """Draw each querier's arrivals in [start, end) and Zipf items."""
        cdf = zipf_cdf(self.spec.catalog, ZIPF_S)
        per_peer = [poisson_times(rng, rate, start, end) for _ in peers]
        # one query list in due order, so indices follow the schedule
        due = sorted((t, c) for c, times in enumerate(per_peer) for t in times)
        indices: List[List[int]] = [[] for _ in peers]
        for t, c in due:
            indices[c].append(len(self.queries))
            self.queries.append(Query(due=t, item=bisect_left(cdf, rng.random())))
        for peer, times, idx in zip(peers, per_peer, indices):
            if times:
                self.sim.schedule_at(
                    times[0], self._arrive, peer, times, idx, 0,
                    label="bench.query",
                )

    def schedule_publishes(
        self, rng: random.Random, rate: float, start: float, end: float
    ) -> None:
        for n in range(len(self.noisers)):
            times = poisson_times(rng, rate, start, end)
            if times:
                self.sim.schedule_at(
                    times[0], self._publish, n, times, 0, label="bench.publish",
                )

    # -- outputs -------------------------------------------------------
    def peers(self) -> list:
        return self.overlay.rendezvous + self.overlay.edges

    def counters(self) -> Dict[str, int]:
        """The program's own counters, summed over peers."""
        peers = self.peers()
        stats = self.network.stats
        return {
            "events": self.sim.events_fired,
            "messages": stats.messages_sent,
            "bytes": stats.bytes_sent,
            "drops": stats.messages_dropped,
            "endpoint_out": sum(p.endpoint.messages_out for p in peers),
            "walk_steps": sum(p.discovery.walk_steps for p in peers),
            "compactions": self.sim.compactions,
        }

    def fill(self) -> float:
        sizes = self.overlay.group.peerview_sizes()
        return sum(sizes) / len(sizes) / (self.spec.r - 1)


@dataclass
class Run:
    """Everything one set-up-plus-window repetition produces."""

    bench: Bench
    #: (CPU seconds, reference-slice CPU seconds) of each piece of the
    #: set-up (see :data:`SETUP_PIECE_S`)
    setup: List[Tuple[float, float]]
    #: the same pair for each ``window_step_s`` step of the window
    steps: List[Tuple[float, float]]
    #: simulated (start, end) of the window
    window: Tuple[float, float]
    before: Dict[str, int]
    after: Dict[str, int]
    fill: float
    property_2: bool
    srdi_entries: int
    #: ``Network.peak_queue_delay`` at window end (simulated seconds)
    peak_queue_delay: float

    def outputs(self) -> dict:
        """The simulated outputs of the window, which every run of the
        same seed must reproduce exactly."""
        return {
            # compactions are the kernel's housekeeping, not an output
            "window": {k: self.after[k] - self.before[k] for k in self.after
                       if k != "compactions"},
            "latencies": [q.latency for q in self.bench.queries
                          if q.due < self.window[1]],
            "fill": self.fill,
            "property_2": self.property_2,
        }


def window_length(spec: Spec, seconds: float) -> float:
    """Simulated window for ``seconds`` of host CPU, in whole steps."""
    steps = seconds * spec.window_min_per_s * 60.0 / spec.window_step_s
    return max(1, round(steps)) * spec.window_step_s


def advance(sim: Simulator, until: float, step: float) -> List[Tuple[float, float]]:
    """Run ``sim`` to ``until`` in ``step``-long pieces, each timed."""
    pieces = []
    t = sim.now
    while t < until:
        t = min(until, t + step)
        pieces.append(tuple(timed(sim.run, t)[1:]))
    return pieces


def run(
    spec: Spec,
    seed: int,
    seconds: float,
    rep: int = 0,
    probes: bool = True,
    on_window: Optional[Callable[[Bench, bool], None]] = None,
) -> Run:
    """Set up, run a window sized for ``seconds`` of CPU, then let the
    queries resolve (and, with ``probes``, run the probe lookups).

    The load is drawn from ``(seed, rep)``.  ``on_window(bench, True)``
    is called as the window starts and ``on_window(bench, False)`` as
    it ends (the tracer's switch)."""
    gc.collect()
    bench, *build = timed(Bench.build, spec)
    sim = bench.sim
    setup = [tuple(build)]
    if bench.publishers:
        # leases first, then the catalog
        setup += advance(sim, 2 * MINUTES, SETUP_PIECE_S)
        setup.append(tuple(timed(bench.publish_catalog)[1:]))
    setup += advance(sim, spec.setup_min * MINUTES, SETUP_PIECE_S)
    rng = random.Random(f"perfbench:{spec.name}:{seed}:{rep}")
    start = sim.now
    end = start + window_length(spec, seconds)
    if bench.queriers:
        bench.schedule_queries(rng, bench.queriers, spec.query_rate, start, end)
    if spec.noisers:
        bench.schedule_publishes(rng, spec.noise_rate, start, end)
    before = bench.counters()
    if on_window is not None:
        on_window(bench, True)
    steps = advance(sim, end, spec.window_step_s)
    if on_window is not None:
        on_window(bench, False)
    after = bench.counters()
    fill = bench.fill()
    property_2 = bench.overlay.group.property_2_satisfied()
    srdi_entries = bench.overlay.group.total_srdi_entries()
    peak_queue_delay = bench.network.peak_queue_delay
    last = end
    if spec.probe_s and probes:
        # lookups issued by rendezvous peers after the window; every
        # item is published on several rendezvous (see README.md)
        rdvs = bench.overlay.rendezvous
        n = len(rdvs)
        for c in range(spec.probe_copies):
            for k in range(spec.catalog):
                bench.publish_item(rdvs[(c * n) // spec.probe_copies], k)
        probers = [rdvs[(k * 97 + 11) % n] for k in range(spec.queriers)]
        p_start = end + 5.0
        last = p_start + spec.probe_s
        bench.schedule_queries(rng, probers, spec.query_rate, p_start, last)
    sim.run(until=last + DRAIN_S)
    return Run(
        bench=bench, setup=setup, steps=steps,
        window=(start, end), before=before, after=after, fill=fill,
        property_2=property_2, srdi_entries=srdi_entries,
        peak_queue_delay=peak_queue_delay,
    )
