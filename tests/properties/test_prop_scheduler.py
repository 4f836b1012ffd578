"""Property-based tests: wheel-vs-heap scheduler equivalence, and both
against a naive reference scheduler.

The timer-wheel scheduler must be *observationally identical* to the
plain binary heap: same (time, seq) fire order, same clock trajectory,
same counters — byte for byte, for any interleaving of scheduling,
cancellation, handle reuse (``reschedule``) and mid-run control
changes (trace hooks and ``stop``).  A generated program of timer
operations is interpreted on one simulator of each flavour and the
full observable logs are compared exactly.  Deadline-sliced programs
are additionally interpreted on :class:`_ReferenceSim` — a plain list
popped by ``min((time, seq))`` — so the one ``run`` loop is checked
against an obviously-correct scheduler, not only against itself.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator

# Delays straddling every tier boundary: inside the active window,
# across wheel slots (0.5 s wide, 128 slots = 64 s span) and beyond
# the wheel horizon into the overflow heap.
_BOUNDARY_DELAYS = (
    0.0, 1e-9, 0.25, 0.4999999, 0.5, 0.5000001, 1.0, 7.3,
    63.999999, 64.0, 64.000001, 100.0, 127.75, 200.0, 500.0,
)

delay_values = st.one_of(
    st.floats(min_value=0.0, max_value=200.0, allow_nan=False),
    st.sampled_from(_BOUNDARY_DELAYS),
)

# One top-level timer: (delay, kind, auxiliary delay, auxiliary int).
# ``kind`` selects what the timer does when it fires.
event_specs = st.tuples(
    delay_values,
    st.sampled_from(["plain", "spawn", "cancel", "resched", "hook", "stop"]),
    delay_values,
    st.integers(min_value=0, max_value=1_000_000),
)

programs = st.lists(event_specs, min_size=1, max_size=25)


def _interpret(events, scheduler):
    """Run ``events`` on a fresh simulator; return the observable log."""
    sim = Simulator(seed=3, scheduler=scheduler)
    log = []
    handles = []
    hook_on = [False]

    def hook(now, phase, handle):
        # logging the phase checks hook delivery parity
        log.append(("hook", now, phase, handle.label))

    def fire(tag, kind, aux_delay, aux_int):
        log.append((tag, sim.now, kind))
        if kind == "spawn":
            handles.append(
                sim.schedule(
                    aux_delay, fire, f"{tag}c", "plain", 0.0, 0,
                    label=f"{tag}c",
                )
            )
        elif kind == "cancel" and handles:
            target = handles[aux_int % len(handles)]
            log.append(("cancel", tag, target.cancel()))
        elif kind == "resched":
            # re-arm this timer's own (just-fired) handle, the periodic
            # pattern; the re-armed shot is plain so it fires once more
            own = handles[int(tag)]
            handles[int(tag)] = sim.reschedule(
                own, aux_delay, fire, f"{tag}r", "plain", 0.0, 0
            )
        elif kind == "hook":
            if hook_on[0]:
                sim.remove_trace_hook(hook)
            else:
                sim.add_trace_hook(hook, phases=("fire", "done"))
            hook_on[0] = not hook_on[0]
        elif kind == "stop":
            sim.stop()

    for i, (delay, kind, aux_delay, aux_int) in enumerate(events):
        handles.append(
            sim.schedule(delay, fire, str(i), kind, aux_delay, aux_int,
                         label=str(i))
        )
    # ``stop`` events end a run early; keep draining until the
    # simulation is genuinely empty so post-stop behaviour is compared
    for _ in range(len(events) * 2 + 2):
        sim.run()
        if sim.pending_events == 0:
            break
    log.append(("end", sim.now, sim.events_fired, sim.pending_events))
    return log


@settings(max_examples=60, deadline=None)
@given(programs)
def test_wheel_and_heap_fire_identically(events):
    assert _interpret(events, "wheel") == _interpret(events, "heap")


class _ReferenceHandle:
    __slots__ = ("time", "seq", "fn", "args", "sim")

    def __init__(self, time, seq, fn, args, sim):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.sim = sim

    def cancel(self):
        pending = self.sim.pending
        if self in pending:
            pending.remove(self)
            return True
        return False


class _ReferenceSim:
    """The obviously-correct scheduler: every pending event in one
    plain list, the next one found by ``min((time, seq))``.  No wheel,
    no heap, no tombstones.  ``run`` fires events up to ``until``,
    returns right after an event that calls ``stop`` (clock left at
    that event), and otherwise ends with the clock at ``until``."""

    def __init__(self):
        self.now = 0.0
        self.events_fired = 0
        self.pending = []
        self._seq = 0
        self._stop = False

    @property
    def pending_events(self):
        return len(self.pending)

    def schedule(self, delay, fn, *args, label=""):
        handle = _ReferenceHandle(self.now + delay, self._seq, fn, args, self)
        self._seq += 1
        self.pending.append(handle)
        return handle

    def stop(self):
        self._stop = True

    def run(self, until=None):
        self._stop = False
        while self.pending:
            nxt = min(self.pending, key=lambda h: (h.time, h.seq))
            if until is not None and nxt.time > until:
                break
            self.pending.remove(nxt)
            self.now = nxt.time
            self.events_fired += 1
            nxt.fn(*nxt.args)
            if self._stop:
                return
        if until is not None and self.now < until:
            self.now = until


def _sliced(sim, events, cuts):
    """Interpret ``events`` as deadline slices at the cumulative
    ``cuts``, cancelling one timer between slices, then drain.  Returns
    the observable log and every clock reading, in order."""
    log = []
    clocks = []

    def fire(tag, kind, aux_delay):
        log.append((tag, sim.now))
        clocks.append(sim.now)
        if kind == "spawn":
            sim.schedule(aux_delay, fire, f"{tag}c", "plain", 0.0)
        elif kind == "stop":
            sim.stop()

    handles = [
        sim.schedule(delay, fire, str(i), kind, aux_delay, label=str(i))
        for i, (delay, kind, aux_delay, _aux_int) in enumerate(events)
    ]
    at = 0.0
    for i, cut in enumerate(cuts):
        at += cut
        sim.run(until=at)
        log.append(("slice", at, sim.now, sim.pending_events))
        clocks.append(sim.now)
        # cancel between slices: tombstones left resident in
        # whichever tier currently holds the entry
        log.append(("cancel", handles[i % len(handles)].cancel()))
    # ``stop`` events end a drain early too; go round until empty
    for _ in range(2 * len(events) + 2):
        sim.run()
        clocks.append(sim.now)
        if sim.pending_events == 0:
            break
    log.append(("end", sim.now, sim.events_fired))
    return log, clocks


@settings(max_examples=60, deadline=None)
@given(
    programs,
    st.lists(delay_values, min_size=1, max_size=6),
)
def test_sliced_runs_match_across_schedulers(events, cuts):
    """Deadline-sliced runs (the experiment-campaign pattern), with
    ``stop`` and ``spawn`` events: window refills happen at different
    moments under slicing, and ``stop`` can end a slice early.  Both
    schedulers must match the reference event for event, and the clock
    must never move backwards."""
    expected, _ = _sliced(_ReferenceSim(), events, cuts)
    for scheduler in ("wheel", "heap"):
        log, clocks = _sliced(
            Simulator(seed=5, scheduler=scheduler), events, cuts
        )
        assert log == expected, scheduler
        assert clocks == sorted(clocks), scheduler
