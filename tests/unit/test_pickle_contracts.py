"""Pickle contracts of the snapshot-critical classes.

Every class that carries derived or process-local state (memo caches,
run-control flags, the ``_DETACHED`` sentinel) defines an explicit ``__getstate__``/``__setstate__`` pair so a
:mod:`repro.snapshot` blob round-trips exactly.  One test class per
audited type; each asserts both directions of the contract:

* derived state is *dropped* (pickle bytes do not depend on whether a
  cache happened to be populated before the snapshot), and
* the restored object *recomputes* it correctly on demand.
"""

import pickle
import weakref

import pytest

from repro.advertisement.rdvadv import RdvAdvertisement
from repro.ids import NET_PEER_GROUP_ID, PeerID
from repro.ids.intern import IdInternTable
from repro.network.latency import ConstantLatency
from repro.network.transport import Network
from repro.discovery.service import DiscoveryQueryPayload
from repro.rendezvous.peerview import PeerView
from repro.resolver.messages import ResolverQuery
from repro.sim import Simulator
from repro.sim.kernel import _DETACHED, EventHandle, SchedulingError
from repro.sim.rng import RngRegistry


def pid(n):
    return PeerID.from_int(NET_PEER_GROUP_ID, n)


def _noop(*args):
    """Module-level so scheduled events pickle by reference."""


def rdv_adv(n):
    return RdvAdvertisement(
        rdv_peer_id=pid(n),
        group_id=NET_PEER_GROUP_ID,
        name=f"rdv-{n}",
        route_hint=f"tcp://host-{n}:9701",
    )


class TestEventHandle:
    def test_pending_handle_keeps_simulator_backref(self):
        sim = Simulator(seed=7)
        fired = []
        sim.schedule(5.0, fired.append, "a", label="ev-a")
        sim.schedule(9.0, fired.append, "b", label="ev-b")
        sim2 = pickle.loads(pickle.dumps(sim))
        # the handles inside the queue entries resolved their _state
        # backref through the pickle memo: cancelling one must mutate
        # the *restored* simulator, not blow up on a stale reference
        sim2.run(until=10.0)
        assert sim2.now == 10.0

    def test_fast_path_handle_with_unset_slots(self):
        # schedule() writes only _state plus one of _label/fn; the
        # remaining slots are legitimately unset and must not break
        # __getstate__
        sim = Simulator(seed=7)
        handle = sim.schedule(1.0, _noop)
        clone = pickle.loads(pickle.dumps(handle))
        assert clone.label == handle.label

    def test_detached_sentinel_survives_round_trip(self):
        handle = EventHandle.__new__(EventHandle)
        handle._label = "detached"
        handle._state = _DETACHED
        clone = pickle.loads(pickle.dumps(handle))
        # identity, not equality: cancel() branches on `is _DETACHED`
        assert clone._state is _DETACHED
        assert clone.pending
        assert clone.cancel()
        assert clone.cancelled


class TestSimulator:
    def test_restored_run_fires_identical_sequence(self):
        sim_a = Simulator(seed=3)
        for i, delay in enumerate([1.0, 2.5, 2.5, 7.0]):
            sim_a.schedule(delay, _noop, i, label=f"ev-{i}")
        sim_b = pickle.loads(pickle.dumps(sim_a))
        sim_a.run(until=10.0)
        sim_b.run(until=10.0)
        assert sim_a.now == sim_b.now
        assert sim_a._seq == sim_b._seq
        assert sim_a._events_fired == sim_b._events_fired

    def test_refuses_to_pickle_mid_run(self):
        sim = Simulator(seed=3)
        sim.schedule(1.0, lambda: None)
        sim._running = True
        try:
            with pytest.raises(SchedulingError):
                pickle.dumps(sim)
        finally:
            sim._running = False


class TestRngRegistry:
    def test_cached_stream_references_stay_shared(self):
        reg = RngRegistry(99)
        stream = reg.stream("transport.latency")
        [stream.random() for _ in range(5)]
        reg2, stream2 = pickle.loads(pickle.dumps((reg, stream)))
        # a component that cached the stream object must keep drawing
        # from the registry's sequence after restore
        assert reg2.stream("transport.latency") is stream2
        assert stream2.random() == stream.random()

    def test_unnamed_streams_created_identically_after_restore(self):
        reg = RngRegistry(99)
        reg2 = pickle.loads(pickle.dumps(reg))
        assert reg2.stream("fresh").random() == reg.stream("fresh").random()


class TestJxtaID:
    def test_urn_cache_and_intern_key_are_dropped(self):
        table = IdInternTable()
        jid = pid(17)
        urn = jid.urn()  # populates _urn
        table.intern(jid)  # populates _intern
        clone = pickle.loads(pickle.dumps(jid))
        assert clone == jid
        for slot in ("_urn", "_intern"):
            assert not hasattr(clone, slot)
        assert clone.urn() == urn

    def test_pickle_bytes_independent_of_cache_population(self):
        fresh = pid(17)
        cached = pid(17)
        cached.urn()
        IdInternTable().intern(cached)
        assert pickle.dumps(fresh) == pickle.dumps(cached)


class TestNetwork:
    def test_cached_bound_methods_follow_the_restored_simulator(self):
        sim = Simulator(seed=11)
        net = Network(sim, latency=ConstantLatency(0.001))
        net2 = pickle.loads(pickle.dumps(net))
        # memo sharing: the send path's cached bound methods point at
        # the restored simulator, not the original
        assert net2.sim is not sim
        assert net2._schedule.__self__ is net2.sim


class TestAdvertisement:
    def test_size_memo_dropped_and_recomputed(self):
        adv = rdv_adv(3)
        size = adv.size_bytes()  # populates _size_cache
        assert "_size_cache" in adv.__dict__
        clone = pickle.loads(pickle.dumps(adv))
        assert "_size_cache" not in clone.__dict__
        assert clone.size_bytes() == size

    def test_pickle_bytes_independent_of_size_memo(self):
        fresh = rdv_adv(3)
        queried = rdv_adv(3)
        queried.size_bytes()
        assert pickle.dumps(fresh) == pickle.dumps(queried)


class TestPeerView:
    def _view(self):
        view = PeerView(rdv_adv(50))
        for n in (10, 30, 70):
            view.upsert(rdv_adv(n), now=0.0)
        return view

    def test_ordered_view_memo_dropped_and_recomputed(self):
        view = self._view()
        ordered = view.ordered_ids()  # populates _ordered_view
        assert view._ordered_view is not None
        clone = pickle.loads(pickle.dumps(view))
        assert clone._ordered_view is None
        assert clone.ordered_ids() == ordered

    def test_pickle_bytes_independent_of_query_history(self):
        quiet = self._view()
        queried = self._view()
        queried.ordered_ids()
        assert pickle.dumps(quiet) == pickle.dumps(queried)


class TestResolverQuery:
    """Slotted, with a weakref slot: tooling follows received queries
    by weak reference, and queries sit in pending events that
    checkpoints pickle."""

    def _query(self):
        return ResolverQuery(
            "jxta.service.discovery", 7, pid(3), ["tcp://host-3:9701"],
            DiscoveryQueryPayload("jxta:PA", "Name", "item-1"), hop_count=4,
        )

    def test_round_trip(self):
        query = self._query()
        clone = pickle.loads(pickle.dumps(query))
        assert clone == query
        assert clone is not query
        assert clone.size_bytes() == query.size_bytes()
        assert not hasattr(clone, "__dict__")

    def test_weak_reference(self):
        query = self._query()
        ref = weakref.ref(query)
        assert ref() is query
        clone = pickle.loads(pickle.dumps(query))
        assert weakref.ref(clone)() is clone
        del query
        assert ref() is None

    def test_pickle_bytes_independent_of_weak_references(self):
        plain = self._query()
        referenced = self._query()
        ref = weakref.ref(referenced)  # noqa: F841 (kept alive)
        assert pickle.dumps(plain) == pickle.dumps(referenced)
