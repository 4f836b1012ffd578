"""Execute one :class:`FuzzCase` and apply the oracle battery.

Every execution is the same shape as a :mod:`repro.experiments
.faults_exp` run — deploy, arm the scenario engine and the invariant
checker, run — with two additions:

* a **fault-free bootstrap prefix** (deploy + run to
  ``BOOTSTRAP_TIME``) shared by every oracle variant of a case.  With
  a :class:`~repro.snapshot.CheckpointStore` the prefix is restored
  from the content-addressed cache instead of rebuilt; restored runs
  are byte-identical to cold runs (the checkpointing PR's contract),
  which is what lets the shrinker re-run only the tail per probe.
* a per-run :class:`~repro.obs.runtime.ObsSession` whose merged
  metrics snapshot provides the coverage signal: the sorted
  ``(protocol, event)`` key set, plus any invariant-violation kinds.

Oracles (:func:`check_case`):

``invariants``
    Any :class:`~repro.faults.InvariantChecker` violation.  The fault
    matrix pins that the standard fault classes produce *zero*
    violations, so a violation here is a real bug (or the planted
    ``REPRO_CANARY``).
``scheduler``
    The same case re-run under the *other* kernel scheduler
    (wheel vs heap) must produce a byte-identical kernel trace digest.
``snapshot``
    Pausing at mid-run, snapshotting, continuing — and separately
    restoring the snapshot and continuing — must both reproduce the
    uninterrupted digest.  Gated to cases without churn (closure-driven
    churn processes) or workload (generator-driven arrivals), whose
    graphs are deliberately unsnapshottable (docs/CHECKPOINTS.md).
``replay``
    For workload cases: re-driving the recorded operation trace on a
    fresh deployment must reproduce the workload trace digest and the
    SLO snapshot byte for byte.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.campaign.spec import canonical_json
from repro.config import PlatformConfig
from repro.deploy import OverlayDescription, build_overlay
from repro.faults import InvariantChecker, ScenarioEngine, peers_of
from repro.fuzz.genome import (
    BOOTSTRAP_TIME,
    FuzzCase,
    decode_scenario,
    has_churn,
)
from repro.metrics import EventLog
from repro.network import Network
from repro.obs.runtime import ObsSession, activate, deactivate
from repro.sim import Simulator
from repro.sim.tracing import KernelTraceRecorder
from repro.snapshot import (
    SnapshotError,
    disown_network,
    restore_network,
    snapshot_network,
)
from repro.workload import WorkloadEngine, WorkloadSpec, WorkloadTraceRecorder

#: the oracle battery, in evaluation order
ORACLES: Tuple[str, ...] = (
    "invariants", "scheduler", "snapshot", "replay",
)

#: per-request timeout of fuzz workloads (short: cases are small)
WORKLOAD_TIMEOUT = 5.0
#: drain margin after the horizon so in-flight queries resolve
DRAIN_SLACK = 1.0
#: catalog burst instant (inside every warmup: duration >= 120 -> 60)
SEED_TIME = 45.0


def platform_config_of(case: FuzzCase) -> PlatformConfig:
    return PlatformConfig().with_overrides(
        pve_expiration=float(case.pve_expiration),
        peerview_interval=float(case.peerview_interval),
    )


def workload_spec_of(case: FuzzCase) -> Optional[WorkloadSpec]:
    if case.workload is None:
        return None
    w = case.workload
    return WorkloadSpec(
        name="fuzz",
        duration=case.duration * 0.5,
        warmup=case.duration * 0.5,
        catalog={
            "popularity": "zipf",
            "size": int(w["catalog_size"]),
            "skew": 1.0,
        },
        arrivals={"kind": "poisson", "rate": float(w["rate"])},
        queriers=int(w["queriers"]),
        publishers=int(w["publishers"]),
        timeout=WORKLOAD_TIMEOUT,
        seed_time=SEED_TIME,
    )


def end_time(case: FuzzCase) -> float:
    """The instant a run stops (horizon plus workload drain)."""
    if case.workload is None:
        return case.duration
    return case.duration + WORKLOAD_TIMEOUT + DRAIN_SLACK


def _scheduler(override: Optional[str]) -> str:
    return (
        override
        if override is not None
        else os.environ.get("REPRO_SCHEDULER", "wheel")
    )


def bootstrap_spec(
    case: FuzzCase, scheduler: Optional[str] = None
) -> Dict[str, Any]:
    """Checkpoint key of a case's fault-free bootstrap prefix.  Keyed
    on everything the prefix depends on — actions and workload traffic
    only start after ``BOOTSTRAP_TIME``, so shrink probes that differ
    only in those share one cached prefix."""
    edge_count = (
        workload_spec_of(case).client_count if case.workload else 0
    )
    return {
        "experiment": "fuzz",
        "r": case.r,
        "topology": case.topology,
        "seed": case.seed,
        "edge_count": edge_count,
        "bootstrap_time": BOOTSTRAP_TIME,
        "config": asdict(platform_config_of(case)),
        "scheduler": _scheduler(scheduler),
    }


def _deploy(case: FuzzCase, scheduler: Optional[str]):
    """Cold bootstrap: deploy, start, run fault-free to BOOTSTRAP_TIME."""
    sim = Simulator(seed=case.seed, scheduler=_scheduler(scheduler))
    recorder = KernelTraceRecorder(sim)
    network = Network(sim)
    spec = workload_spec_of(case)
    overlay = build_overlay(
        sim, network, platform_config_of(case),
        OverlayDescription(
            rendezvous_count=case.r,
            topology=case.topology,
            edge_count=spec.client_count if spec is not None else 0,
            edge_attachment=(
                [i % case.r for i in range(spec.client_count)]
                if spec is not None else None
            ),
        ),
    )
    overlay.start()
    sim.run(until=BOOTSTRAP_TIME)
    return network, overlay, recorder


def _build_checkpoint(case: FuzzCase, scheduler: Optional[str]) -> bytes:
    network, overlay, recorder = _deploy(case, scheduler)
    blob = snapshot_network(
        network, extra={"overlay": overlay, "recorder": recorder}
    )
    disown_network(network)
    return blob


def _bootstrap(case: FuzzCase, scheduler: Optional[str], store):
    if store is None:
        return _deploy(case, scheduler)
    blob, _hit = store.load_or_build(
        bootstrap_spec(case, scheduler),
        lambda: _build_checkpoint(case, scheduler),
    )
    network, extra = restore_network(blob)
    return network, extra["overlay"], extra["recorder"]


# ---------------------------------------------------------------------------
# one execution
# ---------------------------------------------------------------------------

@dataclass
class RunResult:
    """Everything the oracles compare about one execution."""

    digest: str
    coverage: Tuple[str, ...]
    invariant_summary: Dict[str, int]
    violations: Tuple[str, ...]
    slo_json: Optional[str] = None
    workload_digest: Optional[str] = None
    trace_ops: Optional[List[Any]] = None


def _coverage_keys(
    snapshot: Dict[str, Any], invariant_summary: Dict[str, int]
) -> Tuple[str, ...]:
    keys = set()
    for group in ("counters", "gauges", "histograms"):
        for name in snapshot.get(group, {}):
            keys.add(f"metric:{group}.{name}")
    for kind in invariant_summary:
        keys.add(f"invariant:{kind}")
    return tuple(sorted(keys))


def run_case(
    case: FuzzCase,
    scheduler: Optional[str] = None,
    store=None,
    record: bool = False,
    replay_ops: Optional[Sequence[Any]] = None,
) -> RunResult:
    """One seeded execution of ``case`` under the invariant checker,
    inside a private metrics session."""
    session = activate(ObsSession(metrics=True))
    try:
        network, overlay, recorder = _bootstrap(case, scheduler, store)
        sim = network.sim
        log = EventLog()
        engine = ScenarioEngine(
            sim, network, peers_of(overlay), decode_scenario(case), log=log
        )
        checker = InvariantChecker(sim, overlay.rendezvous, log=log)
        spec = workload_spec_of(case)
        wrecorder = None
        wengine = None
        if spec is not None:
            wrecorder = WorkloadTraceRecorder()
            wengine = WorkloadEngine(
                spec, sim, overlay.edges, recorder=wrecorder
            )
            if replay_ops is not None:
                wengine.start_replay(replay_ops)
            else:
                wengine.start()
        engine.start()
        sim.run(until=end_time(case))
        checker.check_all()
        engine.stop()
        if wengine is not None:
            wengine.stop()
        checker.detach()
        summary = checker.summary()
        return RunResult(
            digest=recorder.digest(),
            coverage=_coverage_keys(session.merged_snapshot(), summary),
            invariant_summary=summary,
            violations=tuple(v.format() for v in checker.violations[:8]),
            slo_json=(
                canonical_json(wengine.slo.snapshot())
                if wengine is not None else None
            ),
            workload_digest=(
                wrecorder.digest() if wrecorder is not None else None
            ),
            trace_ops=(
                list(wrecorder.ops)
                if (record and wrecorder is not None) else None
            ),
        )
    finally:
        deactivate(session)


def run_case_with_midpoint_snapshot(
    case: FuzzCase, store=None
) -> Tuple[Optional[str], Optional[str], Optional[str]]:
    """The snapshot-invisibility probe: pause at mid-run, snapshot,
    continue; separately restore the blob and continue that copy.

    Returns ``(continued_digest, restored_digest, skip_reason)`` —
    digests are None when the case's graph is not snapshottable."""
    if case.workload is not None or has_churn(case):
        return None, None, "workload/churn graphs are not snapshottable"
    t_mid = round((BOOTSTRAP_TIME + case.duration) / 2.0, 1)
    session = activate(ObsSession(metrics=True))
    try:
        network, overlay, recorder = _bootstrap(case, None, store)
        sim = network.sim
        log = EventLog()
        engine = ScenarioEngine(
            sim, network, peers_of(overlay), decode_scenario(case), log=log
        )
        checker = InvariantChecker(sim, overlay.rendezvous, log=log)
        engine.start()
        sim.run(until=t_mid)
        try:
            blob = snapshot_network(
                network,
                extra={
                    "overlay": overlay,
                    "recorder": recorder,
                    "engine": engine,
                    "checker": checker,
                    "log": log,
                },
            )
        except SnapshotError as exc:
            return None, None, f"mid-run graph unsnapshottable: {exc}"
        sim.run(until=end_time(case))
        checker.check_all()
        engine.stop()
        checker.detach()
        continued = recorder.digest()
    finally:
        deactivate(session)

    session = activate(ObsSession(metrics=True))
    try:
        network2, extra2 = restore_network(blob)
        sim2 = network2.sim
        recorder2 = extra2["recorder"]
        checker2 = extra2["checker"]
        engine2 = extra2["engine"]
        sim2.run(until=end_time(case))
        checker2.check_all()
        engine2.stop()
        checker2.detach()
        restored = recorder2.digest()
    finally:
        deactivate(session)
    return continued, restored, None


# ---------------------------------------------------------------------------
# the oracle battery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Failure:
    """One oracle failure.  ``signature`` is the stable dedup/digest
    identity; ``detail`` is human-facing only (never digested — it may
    mention run-environment facts like which scheduler was primary)."""

    oracle: str
    signature: str
    detail: str


@dataclass
class CaseReport:
    case: FuzzCase
    base: RunResult
    failures: List[Failure] = field(default_factory=list)
    skipped: Tuple[str, ...] = ()


def check_case(
    case: FuzzCase,
    oracles: Sequence[str] = ORACLES,
    store=None,
) -> CaseReport:
    """Run ``case`` under the requested oracle subset."""
    unknown = set(oracles) - set(ORACLES)
    if unknown:
        raise ValueError(f"unknown oracle(s): {sorted(unknown)}")
    need_replay = "replay" in oracles and case.workload is not None
    base = run_case(case, store=store, record=need_replay)
    failures: List[Failure] = []
    skipped: List[str] = []

    if "invariants" in oracles:
        for kind in sorted(base.invariant_summary):
            detail = next(
                (v for v in base.violations if f" {kind} " in f" {v} "
                 or kind in v),
                f"{base.invariant_summary[kind]} violation(s)",
            )
            failures.append(
                Failure(
                    oracle="invariants",
                    signature=f"invariants:{kind}",
                    detail=detail,
                )
            )

    if "scheduler" in oracles:
        primary = _scheduler(None)
        other = "heap" if primary == "wheel" else "wheel"
        alt = run_case(case, scheduler=other, store=store)
        if alt.digest != base.digest:
            failures.append(
                Failure(
                    oracle="scheduler",
                    signature="scheduler-equivalence",
                    detail=(
                        f"kernel digests diverge: {primary}="
                        f"{base.digest[:12]} {other}={alt.digest[:12]}"
                    ),
                )
            )

    if "snapshot" in oracles:
        continued, restored, skip = run_case_with_midpoint_snapshot(
            case, store=store
        )
        if skip is not None:
            skipped.append(f"snapshot: {skip}")
        else:
            if continued != base.digest:
                failures.append(
                    Failure(
                        oracle="snapshot",
                        signature="snapshot-invisibility",
                        detail=(
                            "taking a mid-run snapshot perturbed the "
                            f"run: {continued[:12]} vs {base.digest[:12]}"
                        ),
                    )
                )
            if restored != base.digest:
                failures.append(
                    Failure(
                        oracle="snapshot",
                        signature="snapshot-restore",
                        detail=(
                            "restored continuation diverged: "
                            f"{(restored or '?')[:12]} vs {base.digest[:12]}"
                        ),
                    )
                )

    if "replay" in oracles:
        if case.workload is None:
            skipped.append("replay: case has no workload")
        else:
            replayed = run_case(
                case, store=store, record=True, replay_ops=base.trace_ops
            )
            if (
                replayed.workload_digest != base.workload_digest
                or replayed.slo_json != base.slo_json
            ):
                failures.append(
                    Failure(
                        oracle="replay",
                        signature="replay-identity",
                        detail=(
                            "replayed trace/SLO diverged: trace "
                            f"{(replayed.workload_digest or '?')[:12]} vs "
                            f"{(base.workload_digest or '?')[:12]}"
                        ),
                    )
                )

    return CaseReport(
        case=case, base=base, failures=failures, skipped=tuple(skipped)
    )
