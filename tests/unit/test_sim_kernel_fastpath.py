"""Tests for the kernel's optimised hot paths.

The one run loop (with or without a deadline, trace hooks or an event
limit), heap compaction and O(1) accounting; these tests pin the
contract that all of them are *behaviour-preserving*: same fire order,
same clock, same counters as the straightforward kernel.
"""

import itertools

import repro.sim.kernel as kernel
from repro.sim import Simulator


def noop(*args):
    pass


def resident(sim):
    """Every entry the scheduler holds: active queue, wheel buckets
    and overflow heap."""
    return itertools.chain(sim._queue, *sim._wheel, sim._overflow)


# ----------------------------------------------------------------------
# heap compaction
# ----------------------------------------------------------------------
def _cancelled_heavy_drain(sim, generations=8, fanout=10, chains=20):
    """A lease-renewal-style workload: every firing reschedules a batch
    of timers and cancels all but one, leaving the heap mostly dead."""
    fired = []

    def work(chain, depth):
        fired.append((round(sim.now, 9), chain, depth))
        if depth == 0:
            return
        timers = [
            sim.schedule(1.0 + k * 0.25, work, chain, depth - 1)
            for k in range(fanout)
        ]
        for t in timers[1:]:
            t.cancel()

    for c in range(chains):
        sim.schedule(0.01 * c, work, c, generations)
    sim.run()
    return fired, sim.now, sim.events_fired


def _cancelled_heavy_sliced(sim):
    """Same flavour of workload through the deadline loop, in slices."""
    fired = []

    def work(chain):
        fired.append((round(sim.now, 9), chain))
        timers = [sim.schedule(2.0, work, chain) for _ in range(8)]
        for t in timers[:-1]:
            t.cancel()

    for c in range(15):
        sim.schedule(0.1 * c, work, c)
    while sim.now < 40.0:
        sim.run(until=sim.now + 5.0)
    return fired, sim.now, sim.events_fired


class TestHeapCompaction:
    def test_drain_fire_order_identical_with_and_without_compaction(
        self, monkeypatch
    ):
        compacted_sim = Simulator(seed=3)
        compacted = _cancelled_heavy_drain(compacted_sim)
        assert compacted_sim.compactions > 0

        monkeypatch.setattr(kernel, "_COMPACT_MIN_DEAD", 10**9)
        uncompacted_sim = Simulator(seed=3)
        uncompacted = _cancelled_heavy_drain(uncompacted_sim)
        assert uncompacted_sim.compactions == 0

        assert compacted == uncompacted

    def test_sliced_fire_order_identical_with_and_without_compaction(
        self, monkeypatch
    ):
        compacted_sim = Simulator(seed=5)
        compacted = _cancelled_heavy_sliced(compacted_sim)
        assert compacted_sim.compactions > 0

        monkeypatch.setattr(kernel, "_COMPACT_MIN_DEAD", 10**9)
        uncompacted_sim = Simulator(seed=5)
        uncompacted = _cancelled_heavy_sliced(uncompacted_sim)
        assert uncompacted_sim.compactions == 0

        assert compacted == uncompacted

    def test_compaction_shrinks_heap_and_keeps_counters_exact(self):
        sim = Simulator()
        handles = [sim.schedule(float(i + 1), noop) for i in range(200)]
        for h in handles[:150]:
            h.cancel()
        assert sim.compactions > 0
        # _dead always equals the cancelled entries resident in a tier
        assert sim._dead == sum(
            1 for entry in resident(sim) if entry[2]._state is None
        )
        assert sum(1 for _ in resident(sim)) < 200
        assert sim.pending_events == 50
        sim.run()
        assert sim.events_fired == 50
        assert sim._dead == 0


# ----------------------------------------------------------------------
# O(1) accounting
# ----------------------------------------------------------------------
class TestPendingEventsCounter:
    def test_counter_tracks_schedule_cancel_fire(self):
        sim = Simulator()
        handles = [sim.schedule(float(i + 1), noop) for i in range(10)]
        assert sim.pending_events == 10
        assert handles[0].cancel()
        assert handles[1].cancel()
        assert sim.pending_events == 8
        assert not handles[0].cancel()  # idempotent, no double count
        assert sim.pending_events == 8
        sim.step()
        assert sim.pending_events == 7
        sim.run()
        assert sim.pending_events == 0
        assert sim.events_fired == 8

    def test_counter_correct_across_sliced_runs(self):
        sim = Simulator()
        for i in range(6):
            sim.schedule(float(i), noop)
        sim.run(until=2.5)
        assert sim.events_fired == 3
        assert sim.pending_events == 3
        sim.run()
        assert sim.pending_events == 0


# ----------------------------------------------------------------------
# trace-hook registry
# ----------------------------------------------------------------------
class TestHookDedup:
    def test_re_adding_merges_phases(self):
        sim = Simulator()
        seen = []

        def hook(t, phase, h):
            seen.append((phase, h.label))

        sim.add_trace_hook(hook, phases=("fire",))
        sim.add_trace_hook(hook, phases=("done",))
        assert len(sim._trace_hooks) == 1
        sim.schedule(1.0, noop, label="x")
        sim.run()
        assert seen == [("fire", "x"), ("done", "x")]

    def test_duplicate_same_phase_delivers_once(self):
        sim = Simulator()
        calls = []

        def hook(t, phase, h):
            calls.append(phase)

        sim.add_trace_hook(hook)
        sim.add_trace_hook(hook)
        sim.schedule(0.0, noop)
        sim.run()
        assert calls == ["fire"]

    def test_remove_clears_every_phase(self):
        sim = Simulator()
        seen = []

        def hook(t, phase, h):
            seen.append(phase)

        sim.add_trace_hook(hook, phases=("fire",))
        sim.add_trace_hook(hook, phases=("done",))
        sim.remove_trace_hook(hook)
        assert sim._trace_hooks == []
        sim.schedule(0.0, noop)
        sim.run()
        assert seen == []


# ----------------------------------------------------------------------
# mid-run control changes (stop, cancel, hook registration)
# ----------------------------------------------------------------------
class TestMidRunControl:
    def test_stop_mid_run_keeps_remaining_events(self):
        sim = Simulator()
        fired = []

        def ev(i):
            fired.append(i)
            if i == 2:
                sim.stop()

        for i in range(5):
            sim.schedule(float(i), ev, i)
        sim.run()
        assert fired == [0, 1, 2]
        assert sim.pending_events == 2
        assert sim.events_fired == 3
        sim.run()
        assert fired == [0, 1, 2, 3, 4]
        assert sim.events_fired == 5

    def test_cancel_future_event_during_drain(self):
        sim = Simulator()
        fired = []
        victim = []

        def killer():
            fired.append("killer")
            victim[0].cancel()

        victim.append(sim.schedule(2.0, lambda: fired.append("victim")))
        sim.schedule(1.0, killer)
        sim.schedule(3.0, lambda: fired.append("tail"))
        sim.run()
        assert fired == ["killer", "tail"]
        assert sim.events_fired == 2
        assert sim.now == 3.0
        assert sim.pending_events == 0

    def test_hook_added_mid_run_sees_subsequent_events(self):
        sim = Simulator()
        seen = []

        def hook(t, phase, h):
            seen.append((t, h.label))

        sim.schedule(1.0, lambda: sim.add_trace_hook(hook), label="a")
        sim.schedule(2.0, noop, label="b")
        sim.schedule(3.0, noop, label="c")
        sim.run()
        assert seen == [(2.0, "b"), (3.0, "c")]

    def test_hook_removed_mid_run_stops_seeing_events(self):
        sim = Simulator()
        seen = []

        def hook(t, phase, h):
            seen.append(h.label)

        sim.add_trace_hook(hook)
        sim.schedule(1.0, lambda: sim.remove_trace_hook(hook), label="rm")
        sim.schedule(2.0, noop, label="late")
        sim.run()
        assert seen == ["rm"]


# ----------------------------------------------------------------------
# hooks and the event limit do not change the fire order
# ----------------------------------------------------------------------
class TestLoopEquivalence:
    @staticmethod
    def _chain(sim):
        fired = []

        def tick(n):
            fired.append((sim.now, n))
            if n:
                sim.schedule(0.5, tick, n - 1)

        sim.schedule(0.0, tick, 40)
        sim.run()
        return fired, sim.now, sim.events_fired

    def test_max_events_kernel_matches_fast_kernel(self):
        assert self._chain(Simulator(seed=1)) == self._chain(
            Simulator(seed=1, max_events=10_000)
        )

    def test_hooked_kernel_matches_fast_kernel(self):
        fast = self._chain(Simulator(seed=1))
        hooked_sim = Simulator(seed=1)
        hooked_sim.add_trace_hook(lambda t, p, h: None)
        assert self._chain(hooked_sim) == fast
