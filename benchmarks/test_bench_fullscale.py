"""Bench: full-scale (r = 580) steady-state peerview throughput.

The paper's headline deployments run 580 rendezvous peers for hours of
simulated time, so the wall-clock cost of ONE full-scale kernel run is
the binding constraint on every fig4/ablation cell.  This benchmark
puts that cost on the recorded trajectory (``BENCH_kernel.json``).

The measured quantity is *steady-state* marginal cost: the overlay is
built and warmed for 15 simulated minutes outside the timer (views
converge, probe/referral traffic reaches its sustained rate), then each
round advances the same simulation by a further 5 simulated minutes.
Steady state is the honest regime — it is where a multi-hour paper run
spends essentially all of its time, and where the pre-PR-4 scheduler
and ``PeerID``-keyed data structures were quadratic-ish (O(n) expiry
scans, O(n) referral candidate lists, URN-string hashing on every
lookup) rather than merely slow.
"""

import sys

from repro.config import PlatformConfig
from repro.deploy import OverlayDescription, build_overlay
from repro.network import Network
from repro.sim import MINUTES, Simulator

#: The paper's full deployment size.
FULLSCALE_RDV_COUNT = 580
#: Simulated warmup before measurement starts (view convergence).
WARMUP_SIM_MINUTES = 15
#: Simulated time advanced per measured round.
ROUND_SIM_MINUTES = 5


def test_fullscale_steady_state_throughput(benchmark):
    """Marginal wall-clock cost of 5 simulated minutes of a converged
    580-rendezvous peerview overlay."""
    sim = Simulator(seed=1)
    network = Network(sim)
    overlay = build_overlay(
        sim, network, PlatformConfig(),
        OverlayDescription(rendezvous_count=FULLSCALE_RDV_COUNT),
    )
    overlay.start()
    sim.run(until=WARMUP_SIM_MINUTES * MINUTES)
    warmed_events = sim.events_fired

    deadline = [WARMUP_SIM_MINUTES * MINUTES]
    alloc_per_event = [0.0]

    def advance():
        deadline[0] += ROUND_SIM_MINUTES * MINUTES
        # net allocated-block growth per fired event over the round:
        # per-event plumbing (handles, envelopes, message shells) is
        # freed by refcount once the event returns, so this should
        # stay near zero; a positive drift means something per event
        # is retained.  The last round's value lands on the recorded
        # trajectory via extra_info
        blocks_before = sys.getallocatedblocks()
        events_before = sim.events_fired
        sim.run(until=deadline[0])
        fired_now = sim.events_fired
        alloc_per_event[0] = (
            (sys.getallocatedblocks() - blocks_before)
            / (fired_now - events_before)
        )
        return fired_now

    # Each round is a distinct, equally-converged slice of the same
    # timeline; no per-round setup/teardown keeps rounds comparable.
    fired = benchmark.pedantic(advance, rounds=4, iterations=1)
    benchmark.extra_info["alloc_per_event"] = round(alloc_per_event[0], 4)
    assert warmed_events > 100_000
    assert fired > warmed_events
