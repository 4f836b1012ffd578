"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import (
    MINUTES,
    SECONDS,
    SchedulingError,
    SimulationLimitExceeded,
    Simulator,
    format_time,
)
from repro.sim.clock import Clock


class TestClock:
    def test_starts_at_zero(self):
        assert Clock().now == 0.0

    def test_custom_start(self):
        assert Clock(5.0).now == 5.0

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            Clock(-1.0)

    def test_advance_forward(self):
        c = Clock()
        c._advance_to(3.5)
        assert c.now == 3.5

    def test_advance_backwards_rejected(self):
        c = Clock(10.0)
        with pytest.raises(ValueError):
            c._advance_to(9.0)

    def test_advance_to_same_time_allowed(self):
        c = Clock(10.0)
        c._advance_to(10.0)
        assert c.now == 10.0


class TestFormatTime:
    def test_milliseconds(self):
        assert format_time(0.012) == "12.000ms"

    def test_seconds(self):
        assert format_time(12.5) == "12.500s"

    def test_minutes(self):
        assert format_time(17 * MINUTES + 3.25) == "17m03.250s"

    def test_negative(self):
        assert format_time(-2.0) == "-2.000s"


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, fired.append, "c")
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_ties_fire_fifo(self):
        sim = Simulator()
        fired = []
        for tag in ("first", "second", "third"):
            sim.schedule(1.0, fired.append, tag)
        sim.run()
        assert fired == ["first", "second", "third"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(4.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [4.5]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SchedulingError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SchedulingError):
            sim.schedule_at(1.0, lambda: None)

    def test_nested_scheduling_from_event(self):
        sim = Simulator()
        fired = []

        def outer():
            fired.append(("outer", sim.now))
            sim.schedule(2.0, inner)

        def inner():
            fired.append(("inner", sim.now))

        sim.schedule(1.0, outer)
        sim.run()
        assert fired == [("outer", 1.0), ("inner", 3.0)]

    def test_zero_delay_event_fires_at_now(self):
        sim = Simulator()
        times = []
        sim.schedule(1.0, lambda: sim.schedule(0.0, lambda: times.append(sim.now)))
        sim.run()
        assert times == [1.0]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        h = sim.schedule(1.0, fired.append, "x")
        assert h.cancel()
        sim.run()
        assert fired == []
        assert h.cancelled and not h.fired

    def test_cancel_after_fire_returns_false(self):
        sim = Simulator()
        h = sim.schedule(1.0, lambda: None)
        sim.run()
        assert h.fired
        assert not h.cancel()

    def test_double_cancel_returns_false(self):
        sim = Simulator()
        h = sim.schedule(1.0, lambda: None)
        assert h.cancel()
        assert not h.cancel()

    def test_pending_property(self):
        sim = Simulator()
        h = sim.schedule(1.0, lambda: None)
        assert h.pending
        sim.run()
        assert not h.pending


class TestRunUntil:
    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(10.0, fired.append, "b")
        sim.run(until=5.0)
        assert fired == ["a"]
        assert sim.now == 5.0

    def test_run_until_advances_clock_when_queue_empty(self):
        sim = Simulator()
        sim.run(until=42.0)
        assert sim.now == 42.0

    def test_sliced_runs_behave_like_one_run(self):
        def build():
            s = Simulator(seed=7)
            out = []
            for i in range(10):
                s.schedule(float(i), out.append, i)
            return s, out

        s1, out1 = build()
        s1.run()
        s2, out2 = build()
        for t in (2.5, 5.0, 20.0):
            s2.run(until=t)
        assert out1 == out2

    def test_event_exactly_at_until_boundary_fires(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, fired.append, "edge")
        sim.run(until=5.0)
        assert fired == ["edge"]

    def test_stop_requests_early_return(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: (fired.append("a"), sim.stop()))
        sim.schedule(2.0, fired.append, "b")
        sim.run()
        assert fired == ["a"]
        sim.run()
        assert fired == ["a", "b"]


@pytest.mark.parametrize("scheduler", ["wheel", "heap"])
class TestStopInsideDeadlineRun:
    """``stop()`` called under ``run(until=...)``: the run returns after
    the stopping event, fires nothing later, and leaves the clock at
    the stopping event's time so the next run never moves it back."""

    @staticmethod
    def _build(scheduler):
        sim = Simulator(scheduler=scheduler)
        fired = []

        def ev(tag):
            fired.append((tag, sim.now))
            if tag == "a":
                sim.stop()

        sim.schedule(1.0, ev, "a")
        sim.schedule(1.2, ev, "b")
        sim.schedule(10.0, ev, "c")
        return sim, fired

    def test_no_later_event_fires_after_stop(self, scheduler):
        sim, fired = self._build(scheduler)
        sim.run(until=100.0)
        assert fired == [("a", 1.0)]
        assert sim.events_fired == 1
        assert sim.pending_events == 2

    def test_clock_stays_at_the_stopping_event(self, scheduler):
        sim, fired = self._build(scheduler)
        sim.run(until=100.0)
        assert sim.now == 1.0

    def test_next_run_resumes_in_order_without_moving_clock_back(
        self, scheduler
    ):
        sim, fired = self._build(scheduler)
        sim.run(until=100.0)
        clocks = [now for _, now in fired] + [sim.now]
        sim.run(until=100.0)
        clocks += [now for _, now in fired[1:]] + [sim.now]
        assert fired == [("a", 1.0), ("b", 1.2), ("c", 10.0)]
        assert clocks == sorted(clocks)
        assert sim.now == 100.0


class TestLimits:
    def test_max_events_guard(self):
        sim = Simulator(max_events=10)

        def loop():
            sim.schedule(1.0, loop)

        sim.schedule(1.0, loop)
        with pytest.raises(SimulationLimitExceeded):
            sim.run()

    def test_events_fired_counter(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.events_fired == 5

    def test_pending_events_excludes_cancelled(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        h = sim.schedule(2.0, lambda: None)
        h.cancel()
        assert sim.pending_events == 1


class TestTraceHooks:
    def test_hook_sees_each_fire(self):
        sim = Simulator()
        seen = []
        sim.add_trace_hook(lambda t, phase, h: seen.append((t, phase, h.label)))
        sim.schedule(1.0, lambda: None, label="ping")
        sim.run()
        assert seen == [(1.0, "fire", "ping")]

    def test_remove_without_phases_drops_whole_registration(self):
        sim = Simulator()
        seen = []
        hook = lambda t, phase, h: seen.append((phase, h.label))  # noqa: E731
        sim.add_trace_hook(hook, phases=("fire", "done"))
        sim.remove_trace_hook(hook)
        sim.schedule(1.0, lambda: None, label="ping")
        sim.run()
        assert seen == []

    def test_remove_named_phase_keeps_remainder(self):
        sim = Simulator()
        seen = []
        hook = lambda t, phase, h: seen.append((phase, h.label))  # noqa: E731
        sim.add_trace_hook(hook, phases=("fire", "done"))
        sim.remove_trace_hook(hook, phases=("done",))
        sim.schedule(1.0, lambda: None, label="ping")
        sim.run()
        # the "fire" half of the registration survives
        assert seen == [("fire", "ping")]

    def test_remove_last_phase_empties_registration(self):
        sim = Simulator()
        seen = []
        hook = lambda t, phase, h: seen.append(phase)  # noqa: E731
        sim.add_trace_hook(hook, phases=("fire",))
        sim.remove_trace_hook(hook, phases=("fire",))
        sim.schedule(1.0, lambda: None, label="ping")
        sim.run()
        assert seen == []
        # the registration is gone, not just muted: re-adding starts fresh
        sim.add_trace_hook(hook, phases=("done",))
        sim.schedule(1.0, lambda: None, label="pong")
        sim.run()
        assert seen == ["done"]

    def test_remove_phase_not_registered_is_noop(self):
        sim = Simulator()
        seen = []
        hook = lambda t, phase, h: seen.append(phase)  # noqa: E731
        sim.add_trace_hook(hook, phases=("fire",))
        sim.remove_trace_hook(hook, phases=("done",))
        sim.schedule(1.0, lambda: None, label="ping")
        sim.run()
        assert seen == ["fire"]

    def test_remove_phases_only_touches_named_hook(self):
        sim = Simulator()
        seen = []
        keep = lambda t, phase, h: seen.append(("keep", phase))  # noqa: E731
        drop = lambda t, phase, h: seen.append(("drop", phase))  # noqa: E731
        sim.add_trace_hook(keep, phases=("fire",))
        sim.add_trace_hook(drop, phases=("fire",))
        sim.remove_trace_hook(drop, phases=("fire",))
        sim.schedule(1.0, lambda: None, label="ping")
        sim.run()
        assert seen == [("keep", "fire")]

    def test_remove_unknown_phase_name_rejected(self):
        sim = Simulator()
        hook = lambda t, phase, h: None  # noqa: E731
        sim.add_trace_hook(hook)
        with pytest.raises(ValueError):
            sim.remove_trace_hook(hook, phases=("bogus",))


class TestSecondsConstant:
    def test_unit_sanity(self):
        assert 30 * SECONDS == 30.0
        assert 20 * MINUTES == 1200.0
