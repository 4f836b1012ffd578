"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload lookup-150 --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs the workload untraced, then
again with layer spans, checks that the two agree, and prints the
per-layer metrics.  Human-readable lines start with ``#``; the last
line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every output
check passed.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: paper's Fig. 3 plateau at r = 580: l(t) near 300 of 579
PLATEAU_FILL = (0.45, 0.62)
#: paper's tens-of-milliseconds regime for lookups at r = 150
LOOKUP_P50_MS = (10.0, 100.0)


def query_metrics(queries: list, checks: list) -> dict:
    """Latency quantiles and success share from per-query callbacks."""
    import measure

    latencies = [q.latency * 1000.0 if q.ok else None for q in queries]
    out = {}
    for name, p in (("query_p50_ms", 0.50), ("query_p99_ms", 0.99)):
        if not measure.reportable(p, len(queries)):
            checks.append((f"{name} has 10 samples beyond it", False))
            out[name] = 0.0
            continue
        out[name] = measure.quantile(latencies, p)
        checks.append((f"{name} is an answered query", out[name] != math.inf))
    ok = sum(1 for q in queries if q.ok)
    out["query_success_share"] = ok / len(queries) if queries else 0.0
    checks.append((
        "every answered query returned the advertisement it asked for",
        not any(q.wrong for q in queries),
    ))
    checks.append((
        "every query answered or timed out",
        all(q.ok is not None for q in queries),
    ))
    return out


def end_to_end(spec, seed: int, seconds: float) -> dict:
    import measure
    import workloads

    setups, steps, windows, queries = [], [], [], []
    messages = peer_minutes = publishes = 0
    for k in range(spec.repeats):
        run = None  # free the previous repetition's overlay first
        run = workloads.run(spec, seed, seconds / spec.repeats, rep=k,
                            probes=k == spec.repeats - 1)
        setups.append(run.setup)
        steps.extend(run.steps)
        window_min = (run.window[1] - run.window[0]) / 60.0
        windows.append(measure.normalised_total(run.steps) / window_min)
        queries.extend(run.bench.queries)
        publishes += run.bench.publishes
        messages += run.after["messages"] - run.before["messages"]
        peer_minutes += len(run.bench.peers()) * window_min
    checks: list = []
    latency = query_metrics(queries, checks)
    metrics = {
        # CPU seconds at the reference host's speed (measure.py),
        # medians over the repetitions
        "cpu_s_per_sim_min": (statistics.median(windows), "s/sim-min"),
        "setup_s": (
            statistics.median(measure.normalised_total(p) for p in setups),
            "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "msgs_per_peer_min": (messages / peer_minutes, "msg/peer/sim-min"),
        "peerview_fill": (run.fill, "ratio"),
        "query_p50_ms": (latency["query_p50_ms"], "sim-ms"),
        "query_p99_ms": (latency["query_p99_ms"], "sim-ms"),
        "query_success_share": (latency["query_success_share"], "ratio"),
    }
    if spec.name == "peerview-580":
        lo, hi = PLATEAU_FILL
        checks.append(("Property (2) does not hold at r = 580", not run.property_2))
        checks.append((f"peerview_fill in [{lo}, {hi}]", lo <= run.fill <= hi))
    if spec.name == "lookup-150":
        lo, hi = LOOKUP_P50_MS
        p50 = latency["query_p50_ms"]
        checks.append((f"query_p50_ms in [{lo}, {hi})", lo <= p50 < hi))
    print(f"# window: {window_min:g} sim-min x {spec.repeats} repetitions in "
          f"steps of {spec.window_step_s:g} sim-s; raw CPU s: set-ups "
          f"{[round(sum(cpu for cpu, _ in p), 3) for p in setups]}, median "
          f"step {statistics.median(cpu for cpu, _ in steps):.4f}, median "
          f"reference slice {statistics.median(ref for _, ref in steps):.4f} "
          f"(quiet: {measure.REFERENCE_S})")
    print(f"# queries: {len(queries)} samples (p50 and p99 over all of "
          f"them); publishes: {publishes}")
    return {
        "checks": checks,
        "attempted": len(queries) + publishes,
        "failed": sum(1 for q in queries if not q.ok),
        "metrics": metrics,
    }


def per_layer(spec, seed: int, seconds: float) -> dict:
    import measure
    import workloads
    from tracer import LAYERS, Tracer

    window_s = seconds / spec.repeats
    plain = workloads.run(spec, seed, window_s)
    tracer = Tracer()
    tracer.install()

    def switch(bench, on: bool) -> None:
        # spans and counts cover the window; the lookups it issued are
        # followed through the drain too (tracer.following)
        tracer.query_index = bench.query_index
        tracer.on = on
        tracer.following = True

    try:
        traced = workloads.run(spec, seed, window_s, on_window=switch)
    finally:
        tracer.uninstall()
    bench = traced.bench
    window = {k: traced.after[k] - traced.before[k] for k in traced.after}
    spans = tracer.span_counts()
    counts = tracer.counts
    self_ns = tracer.layer_self_ns()

    def n(*names: str) -> int:
        return sum(spans.get(name, 0) for name in names)

    def with_prefix(prefix: str, suffix: str = "") -> int:
        return sum(
            v for k, v in spans.items()
            if k.startswith(prefix) and k.endswith(suffix)
        )

    events = with_prefix("event:")
    scheduled = sum(
        counts[f"sim.Simulator.{m}"]
        for m in ("schedule", "schedule_at", "reschedule", "schedule_recycled")
    )
    issued = n("discovery.DiscoveryService.get_remote_advertisements")
    window_queries = [
        i for i, q in enumerate(bench.queries) if q.due < traced.window[1]
    ]
    # handled: resolved, answered or timed out; a lookup answered
    # with no walk leg was answered at the first replica
    handled = [i for i in window_queries if bench.queries[i].ok is not None]
    first_replica = sum(
        1 for i in handled
        if bench.queries[i].ok and tracer.walk_hops[i] == 0
    )
    searches = n("advertisement.AdvertisementCache.search")
    # the peerview protocol inlines send_direct: its Network.send calls
    # sit directly under rendezvous spans
    endpoint_sends = (
        n("endpoint.EndpointService.send_direct")
        + tracer.parent_layers("network.Network.send")["rendezvous"]
    )
    secs = {layer: self_ns.get(layer, 0) / 1e9 for layer in LAYERS}
    metrics = {
        "sim.events": (events, "count"),
        "sim.scheduled": (scheduled, "count"),
        "sim.fire_ratio": (events / scheduled if scheduled else 0.0, "ratio"),
        # the hooked run loop compacts at other moments: report the
        # untraced run's count
        "sim.compactions": (
            plain.after["compactions"] - plain.before["compactions"], "count"),
        "sim.self_s": (secs["sim"], "s"),
        "sim.ns_per_event": (secs["sim"] * 1e9 / events if events else 0.0, "ns"),
        "network.sends": (n("network.Network.send"), "count"),
        "network.bytes": (window["bytes"], "bytes"),
        "network.drops": (window["drops"], "count"),
        "network.self_s": (secs["network"], "s"),
        "network.peak_queue_delay_ms": (
            traced.peak_queue_delay * 1000.0, "sim-ms"),
        "endpoint.sends": (endpoint_sends, "count"),
        "endpoint.self_s": (secs["endpoint"], "s"),
        "rendezvous.rounds": (with_prefix("event:peerview:", ".tick"), "count"),
        "rendezvous.view_upserts": (
            n("rendezvous.PeerView.upsert", "rendezvous.PeerView.add_keyed"),
            "count"),
        "rendezvous.view_expired": (counts["rendezvous.view_expired"], "count"),
        "rendezvous.lease_msgs": (
            n("rendezvous.RdvLeaseServer.listener",
              "rendezvous.EdgeLeaseClient.listener"), "count"),
        "rendezvous.self_s": (secs["rendezvous"], "s"),
        "resolver.queries": (n("resolver.ResolverService.new_query"), "count"),
        "resolver.forwards": (n("resolver.ResolverService.forward_query"), "count"),
        "resolver.responses": (n("resolver.ResolverService.send_response"), "count"),
        "resolver.srdi_msgs": (n("resolver.ResolverService.send_srdi"), "count"),
        "resolver.self_s": (secs["resolver"], "s"),
        "discovery.queries": (issued, "count"),
        "discovery.replica_hit_ratio": (
            first_replica / len(handled) if handled else 0.0,
            "ratio"),
        "discovery.walk_hops_per_query": (
            counts["discovery.walk_forwards"] / issued if issued else 0.0,
            "hops"),
        "discovery.srdi_adds": (n("discovery.SrdiIndex.add"), "count"),
        "discovery.srdi_lookups": (n("discovery.SrdiIndex.lookup"), "count"),
        "discovery.srdi_entries": (traced.srdi_entries, "count"),
        "discovery.self_s": (secs["discovery"], "s"),
        "advertisement.cache_publishes": (
            n("advertisement.AdvertisementCache.publish"), "count"),
        "advertisement.cache_stores": (
            n("advertisement.AdvertisementCache.store_remote"), "count"),
        "advertisement.cache_searches": (searches, "count"),
        "advertisement.cache_hit_ratio": (
            counts["advertisement.cache_hits"] / searches if searches else 0.0,
            "ratio"),
        "advertisement.cache_purged": (
            counts["advertisement.cache_purged"], "count"),
        "advertisement.self_s": (secs["advertisement"], "s"),
        "trace.overhead_ratio": ((
            measure.normalised_total(traced.steps)
            / measure.normalised_total(plain.steps)), "ratio"),
    }
    checks = [
        ("traced simulated outputs equal the untraced run's",
         traced.outputs() == plain.outputs()),
        ("every traced lookup latency equals the untraced run's",
         [q.latency for q in bench.queries]
         == [q.latency for q in plain.bench.queries]),
        ("traced events == Simulator.events_fired", events == window["events"]),
        ("traced sends == Network.stats.messages_sent",
         n("network.Network.send") == window["messages"]),
        ("traced endpoint sends == EndpointService.messages_out",
         endpoint_sends == window["endpoint_out"]),
        ("traced walk legs == DiscoveryService.walk_steps",
         counts["discovery.walk_forwards"] == window["walk_steps"]),
        ("every window lookup resolved", len(handled) == len(window_queries)),
    ]
    total = tracer.root_ns()
    shares = {layer: self_ns.get(layer, 0) / total for layer in sorted(self_ns)}
    print("# self-time share of the traced window: " + ", ".join(
        f"{layer} {share:.1%}" for layer, share in
        sorted(shares.items(), key=lambda kv: -kv[1])))
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{spec.name}-seed{seed}.spans"
    written = tracer.write(path)
    print(f"# {written} spans written to {path.relative_to(ROOT)}")
    return {
        "checks": checks,
        "attempted": len(bench.queries) + bench.publishes,
        "failed": sum(1 for q in bench.queries if not q.ok),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no src/repro under {ROOT}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import measure
    import workloads

    spec = workloads.WORKLOADS.get(args.workload)
    if spec is None:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be > 0", file=sys.stderr)
        return 2
    print(f"# {spec.name} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print(f"# fingerprint: {json.dumps(measure.fingerprint())}")
    measured = (per_layer if args.trace else end_to_end)(
        spec, args.seed, args.seconds
    )
    for name, ok in measured["checks"]:
        print(f"# check {'ok  ' if ok else 'FAIL'} {name}")
    for name, (value, unit) in measured["metrics"].items():
        print(f"# {name} = {value:.6g} {unit}")
    correct = all(ok for _, ok in measured["checks"])
    print(json.dumps({
        "correct": correct,
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in measured["metrics"].items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
