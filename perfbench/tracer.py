"""Spans and counts at the simulation stack's layer boundaries.

The tracer patches the public functions of each ``repro`` layer on the
simulation path with thin wrappers, from the benchmark's side: ``src/``
is not modified.  Install it *before* the overlay is built, so that
methods bound at construction (``self._schedule = sim.schedule``) are
the wrapped ones.  Recording is off until ``Tracer.on`` is set; the
wrappers then append one span per call to flat arrays kept in memory
and :meth:`Tracer.write` stores them when the benchmark ends.  While
``Tracer.following`` is set, the wrappers that follow a lookup's walk
keep doing so with spans off, so that a lookup issued near the end of
the window is followed until it resolves.

Span kinds:

* root: ``Simulator.run``, one per timed step of the window;
* event: one per fired kernel event, from the public trace hook
  (``phases=("fire", "done")``), named by its kernel label;
* layer: one per call of a wrapped public function.

A span's self time is its duration minus the time its child spans
cover (children nest strictly, the simulator being single-threaded).
Self time is charged to the span's layer; an event span's layer is
named by its kernel label (``net.*`` -> network, ``discovery.*`` ->
discovery, ``lease.*`` and ``peerview:*`` -> rendezvous, ...), and a
root span's self time is kernel dispatch, charged to ``sim``.
"""

from __future__ import annotations

import functools
import json
import weakref
import zlib
from array import array
from collections import Counter
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Tuple

LAYERS = (
    "sim", "network", "endpoint", "rendezvous", "resolver", "discovery",
    "advertisement",
)

#: kernel label prefix -> layer that owns the event's own code
LABEL_LAYERS = (
    ("net.", "network"),
    ("churn.", "network"),
    ("discovery.", "discovery"),
    ("srdi", "discovery"),
    ("lease.", "rendezvous"),
    ("peerview:", "rendezvous"),
    ("relay-", "endpoint"),
    ("bench.", "bench"),
)

#: module prefix -> layer, for listeners and handlers
MODULE_LAYERS = tuple(
    (f"repro.{layer}.", layer) for layer in LAYERS[1:]
) + (("repro.sim.", "sim"),)


def label_layer(label: str) -> str:
    for prefix, layer in LABEL_LAYERS:
        if label.startswith(prefix):
            return layer
    return "other"


def module_layer(module: str) -> str:
    for prefix, layer in MODULE_LAYERS:
        if module.startswith(prefix):
            return layer
    return "other"


def self_times(starts, ends, parents) -> array:
    """Per-span self time: duration minus the children's durations.

    ``parents[i]`` is the index of span ``i``'s parent, or -1.  Children
    nest inside their parent, so the covered part of the parent's
    interval is the sum of the children's durations."""
    out = array("q", (e - s for s, e in zip(starts, ends)))
    for i, p in enumerate(parents):
        if p >= 0:
            out[p] -= ends[i] - starts[i]
    return out


class Tracer:
    """Layer-boundary spans and counts for one traced run."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.layers: List[str] = []
        self._codes: Dict[str, int] = {}
        self.name = array("i")
        self.start_ns = array("q")
        self.end_ns = array("q")
        self.parent = array("i")
        self.qid = array("i")
        self._stack: List[int] = []
        self.on = False
        self.following = False
        #: counts of the count-only wrappers, and those the span
        #: wrappers derive from arguments and results
        self.counts: Counter = Counter()
        #: resolver (peer id, query id) -> benchmark query index
        self.query_index: Dict[tuple, int] = {}
        #: benchmark query index -> walk legs forwarded for it
        self.walk_hops: Counter = Counter()
        #: id -> weak reference of every query a discovery service
        #: received: forwarding one of those is a hand-off to the
        #: publisher, forwarding a query built anew is a walk leg
        self.received: Dict[int, weakref.ref] = {}
        self._patched: List[Tuple[type, str, object]] = []
        self._event_codes: Dict[str, int] = {}

    # -- spans ---------------------------------------------------------
    def code(self, name: str, layer: str) -> int:
        code = self._codes.get(name)
        if code is None:
            code = self._codes[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return code

    def open(self, code: int, qid: int = -1) -> int:
        index = len(self.start_ns)
        stack = self._stack
        self.name.append(code)
        self.parent.append(stack[-1] if stack else -1)
        self.qid.append(qid)
        self.end_ns.append(0)
        stack.append(index)
        self.start_ns.append(perf_counter_ns())
        return index

    def close(self, index: int) -> None:
        self.end_ns[index] = perf_counter_ns()
        self._stack.pop()

    def on_event(self, now: float, phase: str, handle) -> None:
        """Kernel trace hook: an event span per fired event."""
        if not self.on:
            return
        if phase == "fire":
            label = handle.label
            code = self._event_codes.get(label)
            if code is None:
                code = self._event_codes[label] = self.code(
                    f"event:{label}", label_layer(label)
                )
            self.open(code)
        elif self._stack:
            self.close(self._stack[-1])

    # -- wrappers ------------------------------------------------------
    def wrap(
        self,
        fn: Callable,
        name: str,
        layer: str,
        qid_of: Optional[Callable] = None,
        after: Optional[Callable] = None,
        follow: bool = False,
    ) -> Callable:
        """``fn`` timed as a ``layer`` span named ``name`` while on.
        ``qid_of(tracer, args)`` tags the span with a query;
        ``after(tracer, args, result)`` derives counts from the call,
        and with ``follow`` also while only ``following`` is set."""
        code = self.code(name, layer)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                if follow and tracer.following:
                    result = fn(*args, **kwargs)
                    after(tracer, args, result)
                    return result
                return fn(*args, **kwargs)
            qid = qid_of(tracer, args) if qid_of is not None else -1
            index = tracer.open(code, qid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if after is not None:
                after(tracer, args, result)
            return result

        return traced

    def counted(self, fn: Callable, name: str) -> Callable:
        """``fn`` counted (no span) while on."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.on:
                tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def patch(self, cls: type, attr: str, wrapper: Callable) -> None:
        self._patched.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self) -> None:
        """Patch every layer's public functions (see :func:`_targets`),
        endpoint listeners, network receive handlers, and the kernel
        trace hook of every simulator created from now on."""
        for cls, attrs, layer, kind in _targets():
            for attr in attrs:
                fn = cls.__dict__[attr]
                name = f"{layer}.{cls.__name__}.{attr}"
                if kind == "count":
                    self.patch(cls, attr, self.counted(fn, name))
                else:
                    qid_of, after = _HOOKS.get(name, (None, None))
                    self.patch(
                        cls, attr,
                        self.wrap(fn, name, layer, qid_of=qid_of, after=after,
                                  follow=name in _FOLLOW),
                    )
        from repro.endpoint.service import EndpointService
        from repro.network.transport import Network
        from repro.sim.kernel import Simulator

        tracer = self
        add_listener = EndpointService.__dict__["add_listener"]
        attach = Network.__dict__["attach"]
        sim_init = Simulator.__dict__["__init__"]

        def traced_add_listener(endpoint, service_name, service_param, listener):
            return add_listener(
                endpoint, service_name, service_param,
                tracer.wrap_callback(listener, "listener"),
            )

        def traced_attach(network, address, node, handler):
            return attach(
                network, address, node, tracer.wrap_callback(handler, "receive"),
            )

        def traced_sim_init(sim, *args, **kwargs):
            sim_init(sim, *args, **kwargs)
            sim.add_trace_hook(tracer.on_event, phases=("fire", "done"))

        self.patch(EndpointService, "add_listener", traced_add_listener)
        self.patch(Network, "attach", traced_attach)
        self.patch(Simulator, "__init__", traced_sim_init)

    def wrap_callback(self, callback: Callable, kind: str) -> Callable:
        """A listener/handler wrapped as a span of its owner's layer."""
        owner = getattr(callback, "__self__", None)
        cls = type(owner) if owner is not None else None
        module = cls.__module__ if cls is not None else callback.__module__
        layer = module_layer(module)
        owner_name = cls.__name__ if cls is not None else callback.__qualname__
        return self.wrap(callback, f"{layer}.{owner_name}.{kind}", layer)

    def uninstall(self) -> None:
        for cls, attr, original in reversed(self._patched):
            setattr(cls, attr, original)
        self._patched.clear()

    # -- results -------------------------------------------------------
    def layer_self_ns(self) -> Dict[str, int]:
        """Self time per layer over every closed span."""
        own = self_times(self.start_ns, self.end_ns, self.parent)
        out: Counter = Counter()
        layers = self.layers
        for code, ns in zip(self.name, own):
            out[layers[code]] += ns
        return dict(out)

    def span_counts(self) -> Counter:
        """Spans recorded per span name."""
        names = self.names
        return Counter({names[c]: n for c, n in Counter(self.name).items()})

    def parent_layers(self, name: str) -> Counter:
        """Spans named ``name`` per layer of their parent span."""
        code = self._codes.get(name)
        layers, names, parent = self.layers, self.name, self.parent
        out: Counter = Counter()
        for i, c in enumerate(names):
            if c == code:
                p = parent[i]
                out[layers[names[p]] if p >= 0 else None] += 1
        return out

    def root_ns(self) -> int:
        return sum(
            e - s for s, e, p in zip(self.start_ns, self.end_ns, self.parent)
            if p < 0
        )

    def write(self, path) -> int:
        """Store every span; returns the number written.  Format: one
        JSON header line (span names, layers, field order), then the
        zlib-compressed little-endian arrays in that order."""
        header = {
            "names": self.names,
            "layers": self.layers,
            "fields": ["name:i32", "start_ns:i64", "end_ns:i64",
                       "parent:i32", "qid:i32"],
            "count": len(self.name),
        }
        packer = zlib.compressobj(1)
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for a in (self.name, self.start_ns, self.end_ns, self.parent, self.qid):
                out.write(packer.compress(a.tobytes()))
            out.write(packer.flush())
        return len(self.name)


def read_spans(path) -> Tuple[dict, Dict[str, array]]:
    """Inverse of :meth:`Tracer.write`."""
    with open(path, "rb") as src:
        header = json.loads(src.readline())
        body = zlib.decompress(src.read())
    n = header["count"]
    out, pos = {}, 0
    for field in header["fields"]:
        key, kind = field.split(":")
        arr = array("i" if kind == "i32" else "q")
        size = n * arr.itemsize
        arr.frombytes(body[pos:pos + size])
        pos += size
        out[key] = arr
    return header, out


# ----------------------------------------------------------------------
# what gets wrapped


def _query_key(tracer: Tracer, query) -> int:
    return tracer.query_index.get((query.src_peer, query.query_id), -1)


def _qid_from_query_arg(tracer: Tracer, args) -> int:
    from repro.resolver.messages import ResolverQuery

    for arg in args[1:]:
        if type(arg) is ResolverQuery:
            return _query_key(tracer, arg)
    return -1


def _qid_from_response(tracer: Tracer, args) -> int:
    service, response = args[0], args[1]
    peer = service.resolver.endpoint.peer_id
    return tracer.query_index.get((peer, response.query_id), -1)


def _note_received(tracer: Tracer, args, _result) -> None:
    query = args[1]
    tracer.received[id(query)] = weakref.ref(query)


def _count_walk_leg(tracer: Tracer, args, _result) -> None:
    query = args[2]
    payload = getattr(query, "payload", None)
    ref = tracer.received.get(id(query))
    if getattr(payload, "walk_direction", 0) and (ref is None or ref() is not query):
        if tracer.on:
            tracer.counts["discovery.walk_forwards"] += 1
        index = _query_key(tracer, query)
        if index >= 0:
            tracer.walk_hops[index] += 1


def _count_expired(tracer: Tracer, _args, result) -> None:
    tracer.counts["rendezvous.view_expired"] += len(result)


def _count_purged(tracer: Tracer, _args, result) -> None:
    tracer.counts["advertisement.cache_purged"] += result


def _count_search_hit(tracer: Tracer, _args, result) -> None:
    if result:
        tracer.counts["advertisement.cache_hits"] += 1


_HOOKS = {
    "resolver.ResolverService.send_query": (_qid_from_query_arg, None),
    "resolver.ResolverService.forward_query": (_qid_from_query_arg, _count_walk_leg),
    "resolver.ResolverService.send_response": (_qid_from_query_arg, None),
    "resolver.ResolverService.inject_query": (_qid_from_query_arg, None),
    "discovery.DiscoveryService.process_query": (_qid_from_query_arg, _note_received),
    "discovery.DiscoveryService.process_response": (_qid_from_response, None),
    "rendezvous.PeerView.expire": (None, _count_expired),
    "advertisement.AdvertisementCache.purge_expired": (None, _count_purged),
    "advertisement.AdvertisementCache.search": (None, _count_search_hit),
}


#: hooks that keep following lookups while only ``following`` is set
_FOLLOW = frozenset({
    "resolver.ResolverService.forward_query",
    "discovery.DiscoveryService.process_query",
})


def _targets():
    """(class, public functions, layer, "span" | "count")."""
    from repro.advertisement.cache import AdvertisementCache
    from repro.discovery.service import DiscoveryService
    from repro.discovery.srdi import SrdiIndex
    from repro.endpoint.service import EndpointService
    from repro.network.transport import Network
    from repro.rendezvous.peerview import PeerView
    from repro.resolver.service import ResolverService
    from repro.sim.kernel import Simulator

    return (
        (Simulator, ("run",), "sim", "span"),
        (Simulator, ("schedule", "schedule_at", "reschedule",
                     "schedule_recycled"), "sim", "count"),
        (Network, ("send",), "network", "span"),
        (EndpointService, ("send_direct", "send_to_peer"), "endpoint", "span"),
        (PeerView, ("upsert", "add_keyed", "remove", "remove_by_key",
                    "expire"), "rendezvous", "span"),
        (ResolverService, ("new_query", "send_query", "forward_query",
                           "send_response", "send_srdi", "inject_query"),
         "resolver", "span"),
        (DiscoveryService, ("publish", "get_remote_advertisements",
                            "process_query", "process_response",
                            "process_srdi"), "discovery", "span"),
        (SrdiIndex, ("add", "lookup", "purge_expired"), "discovery", "span"),
        (AdvertisementCache, ("publish", "store_remote", "remove",
                              "purge_expired", "flush", "get", "search"),
         "advertisement", "span"),
    )
