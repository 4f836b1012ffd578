"""Mid-run checkpoint/restore must be invisible to the simulation.

The :mod:`repro.snapshot` determinism contract: pausing a simulation at
an event boundary, serialising it to bytes, restoring it (in principle
in another process) and continuing must produce *byte-identical*
results to the run that never stopped — same kernel fire order, same
message counts, same peerview contents, same workload SLO — under both
scheduler implementations.
"""

import pytest

from repro.advertisement import FakeAdvertisement
from repro.config import PlatformConfig
from repro.deploy import OverlayDescription, build_overlay
from repro.network import Network
from repro.sim import MINUTES, Simulator
from repro.sim.tracing import KernelTraceRecorder
from repro.snapshot import (
    SnapshotError,
    fork_network,
    restore_network,
    snapshot_network,
)

SCHEDULERS = ("wheel", "heap")

MID = 8 * MINUTES
END = 14 * MINUTES


def _deploy(seed: int, scheduler: str):
    """A publish/lookup scenario paused at its bootstrap boundary."""
    sim = Simulator(seed=seed, scheduler=scheduler)
    network = Network(sim)
    recorder = KernelTraceRecorder(sim)
    overlay = build_overlay(
        sim, network, PlatformConfig(),
        OverlayDescription(
            rendezvous_count=8, edge_count=2, edge_attachment=[0, 4],
            topology="chain",
        ),
    )
    overlay.start()
    sim.run(until=MID)
    return network, overlay, recorder


def _continue(network, overlay, recorder):
    """The measurement phase, identical whichever graph runs it."""
    sim = network.sim
    overlay.edges[0].discovery.publish(FakeAdvertisement("snap-restore"))
    sim.run(until=END)
    latencies = []
    overlay.edges[1].discovery.get_remote_advertisements(
        "repro:FakeAdvertisement", "Name", "snap-restore",
        callback=lambda advs, lat: latencies.append(lat),
    )
    sim.run(until=END + 1 * MINUTES)
    return {
        "digest": recorder.digest(),
        "now": sim.now,
        "seq": sim._seq,
        "fired": sim.events_fired,
        "messages": network.stats.messages_sent,
        "bytes": network.stats.bytes_sent,
        "latencies": latencies,
        "views": [
            [p.short() for p in rdv.view.ordered_ids()]
            for rdv in overlay.rendezvous
        ],
    }


class TestMidRunRestore:
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_restored_continuation_is_byte_identical(self, scheduler):
        baseline = _continue(*_deploy(seed=5, scheduler=scheduler))

        network, overlay, recorder = _deploy(seed=5, scheduler=scheduler)
        blob = snapshot_network(
            network, extra={"overlay": overlay, "recorder": recorder}
        )
        del network, overlay, recorder  # continue from the restored copy
        network2, extra = restore_network(blob)
        resumed = _continue(network2, extra["overlay"], extra["recorder"])

        assert resumed == baseline

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_snapshot_bytes_are_stable(self, scheduler):
        """Snapshotting the same paused graph twice yields the same
        bytes (memo caches are normalised out by the pickle
        contracts), and re-snapshotting a restored copy is a semantic
        fixpoint: its blob restores to an identical continuation.

        The re-snapshot is *not* required to be byte-equal to the
        original blob — unpickling does not re-intern ``__dict__`` key
        strings, so the restored graph's string-sharing pattern (and
        hence pickle memo layout) can legitimately differ while every
        value is identical."""
        network, overlay, recorder = _deploy(seed=5, scheduler=scheduler)
        extra = {"overlay": overlay, "recorder": recorder}
        blob_a = snapshot_network(network, extra=extra)
        blob_b = snapshot_network(network, extra=extra)
        assert blob_a == blob_b

        network2, extra2 = restore_network(blob_a)
        blob_c = snapshot_network(network2, extra=extra2)
        network3, extra3 = restore_network(blob_c)
        baseline = _continue(network2, extra2["overlay"], extra2["recorder"])
        twice = _continue(network3, extra3["overlay"], extra3["recorder"])
        assert twice == baseline

    def test_snapshot_refuses_mid_event(self):
        network, overlay, recorder = _deploy(seed=5, scheduler="wheel")
        network.sim._running = True
        try:
            with pytest.raises(SnapshotError):
                snapshot_network(network)
        finally:
            network.sim._running = False


class TestFork:
    def test_fork_and_original_continue_identically(self):
        network, overlay, recorder = _deploy(seed=5, scheduler="wheel")
        clone, extra = fork_network(
            network, extra={"overlay": overlay, "recorder": recorder}
        )
        original = _continue(network, overlay, recorder)
        forked = _continue(clone, extra["overlay"], extra["recorder"])
        assert forked == original

    def test_fork_preserves_shared_stream_identity(self):
        network, overlay, recorder = _deploy(seed=5, scheduler="wheel")
        clone, _ = fork_network(network)
        # the clone's transport latency stream is the clone registry's
        # stream object, never the original's (no cross-graph leakage)
        assert clone.sim.rng is not network.sim.rng
        for name in clone.sim.rng._streams:
            assert clone.sim.rng.stream(name) is not network.sim.rng.stream(
                name
            )


class TestWorkloadSLO:
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_warm_started_load_run_matches_cold(
        self, scheduler, tmp_path, monkeypatch
    ):
        """The experiments-layer integration: a ``load`` run warm-started
        from an on-disk checkpoint reproduces the cold run's trace
        digest and SLO snapshot byte for byte."""
        monkeypatch.setenv("REPRO_SCHEDULER", scheduler)
        from repro.experiments.load_exp import run_load
        from repro.snapshot import CheckpointStore
        from repro.workload import WorkloadSpec

        spec = WorkloadSpec(
            name="load",
            duration=30.0,
            warmup=5 * MINUTES,
            catalog={"popularity": "zipf", "size": 40, "skew": 1.0},
            arrivals={"kind": "poisson", "rate": 2.0},
            queriers=4,
            publishers=2,
            timeout=10.0,
        )
        cold = run_load(spec, r=8, seed=3, record=True)
        store = CheckpointStore(tmp_path / "ckpts")
        warm_miss = run_load(
            spec, r=8, seed=3, record=True, checkpoint_store=store
        )
        warm_hit = run_load(
            spec, r=8, seed=3, record=True, checkpoint_store=store
        )
        assert store.counters()["misses"] == 1
        assert store.counters()["hits"] == 1
        for warm in (warm_miss, warm_hit):
            assert warm.digest() == cold.digest()
            assert warm.snapshot() == cold.snapshot()
