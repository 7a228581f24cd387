"""Randomized cross-layer fault storm for the degradation ladder.

Runs real-bug app sessions with :class:`~repro.chaos.ChaosPlan` faults
armed across every recovery layer -- checkpoint restore, diagnosis
probes (in-process and in workers), monitors, validation -- and digests
what the supervisor did about them: no unhandled exception may escape
``FirstAidRuntime.run``, every session must recover or cleanly
restart, and the survival rate must beat the supervisor-disabled
baseline subjected to the identical fault plans.

The storm is deterministic: fault arming is a fixed per-(app, session)
schedule, not sampled at run time, so a failing storm reproduces
exactly.  ``benchmarks/bench_degradation.py`` gates the result and
``python -m repro.bench --chaos`` runs a reduced storm from the CLI.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.apps.registry import get_app, real_bug_apps
from repro.bench.harness import spaced_workload
from repro.chaos.faults import ChaosPlan
from repro.core.runtime import FirstAidConfig, FirstAidRuntime

#: Per-app session fault schedules.  Each dict arms one session; the
#: kinds are chosen so that every armed fault has a layer that consults
#: it during a 2-trigger session (checkpoint faults fire on the first
#: diagnosis rollback, probe faults on the first re-execution, monitor
#: misses on the first fault, validation flakes on the first completed
#: rung-1 recovery).
SESSION_ARMS: Tuple[Dict[str, int], ...] = (
    {"checkpoint_missing": 1, "probe_raise": 1, "monitor_miss": 1,
     "validation_flaky": 1},
    {"checkpoint_corrupt": 1, "probe_hang": 1, "budget_exhaust": 1,
     "validation_flaky": 1},
)

#: Top-up schedule: kinds that fire unconditionally given one trigger,
#: used to reach the requested fault floor when session arms under-fire
#: (e.g. a validation flake armed in a session whose rung 1 never
#: reached validation).
TOPUP_ARM: Dict[str, int] = {"monitor_miss": 1, "checkpoint_missing": 1,
                             "probe_raise": 1}


@dataclass
class ChaosSessionDigest:
    """One chaos session, digested for the gate."""

    app: str
    seed: int
    supervised: bool
    armed: Dict[str, int]
    fired: Dict[str, int]
    reason: str                     # session reason, or "unhandled"
    recoveries: int
    rungs: Tuple[int, ...]
    restarts: int
    gave_up: bool
    survived: bool
    #: "ExcType: message" when an exception escaped run() -- the thing
    #: the supervisor exists to prevent.  Always None when supervised.
    unhandled: Optional[str]
    #: workers rescued in-process after a hang deadline (worker storm)
    worker_timeouts: int = 0
    wall_s: float = 0.0
    #: With a store attached: did this session's health beacon survive
    #: into the post-session fleet report?  None when no store was
    #: configured.  Health faults may degrade *mid-run* publishes, but
    #: the exit beacon retries on a healed channel, so visibility is
    #: still the expectation under the storm.
    beacon_visible: Optional[bool] = None
    #: ``health.error`` events the session emitted (degraded health
    #: publishes; the faults went somewhere, the session never noticed).
    health_errors: int = 0


@dataclass
class StormResult:
    """Aggregate of one storm (supervised fleet + unsupervised
    baseline on identical fault plans)."""

    sessions: List[ChaosSessionDigest] = field(default_factory=list)
    baseline: List[ChaosSessionDigest] = field(default_factory=list)
    faults_armed: int = 0
    faults_fired: int = 0
    fired_by_kind: Dict[str, int] = field(default_factory=dict)
    rung_histogram: Dict[int, int] = field(default_factory=dict)
    wall_s: float = 0.0

    @property
    def unhandled(self) -> int:
        return sum(1 for s in self.sessions if s.unhandled)

    @property
    def survival_rate(self) -> float:
        if not self.sessions:
            return 0.0
        return sum(s.survived for s in self.sessions) / len(self.sessions)

    @property
    def baseline_survival_rate(self) -> float:
        if not self.baseline:
            return 0.0
        return sum(s.survived for s in self.baseline) / len(self.baseline)


def build_plan(arm: Dict[str, int],
               probe_timeout_ns: Optional[int] = None) -> ChaosPlan:
    plan = ChaosPlan(**({} if probe_timeout_ns is None
                        else {"probe_timeout_ns": probe_timeout_ns}))
    for kind, count in arm.items():
        plan.arm(kind, count)
    return plan


def run_chaos_session(app_name: str, arm: Dict[str, int],
                      supervised: bool = True, triggers: int = 2,
                      seed: int = 42, workers: int = 1,
                      worker_timeout_s: Optional[float] = None,
                      recovery_budget_ns: Optional[int] = None,
                      store_path: Optional[str] = None,
                      process_label: Optional[str] = None,
                      health_arm: Optional[Dict[str, int]] = None
                      ) -> ChaosSessionDigest:
    """Run one app session with ``arm`` chaos faults armed and digest
    the outcome.  Exceptions escaping the runtime are captured as
    ``unhandled``, never raised: the storm measures them.

    ``store_path`` attaches a shared store (and its health channel);
    ``health_arm`` additionally arms
    :class:`~repro.obs.health.HealthFaultPlan` kinds against that
    channel -- corrupt, torn, and stale beacons that must degrade to
    ``health.error`` events while the session sails on."""
    app = get_app(app_name)
    wl = spaced_workload(app, triggers=triggers, seed=seed)
    plan = build_plan(arm)
    health_faults = None
    if health_arm:
        from repro.obs.health import HealthFaultPlan
        health_faults = HealthFaultPlan()
        for kind, count in health_arm.items():
            health_faults.arm(kind, count)
    config = FirstAidConfig(
        supervisor=supervised,
        chaos=plan,
        restart_boundaries=wl.boundaries,
        workers=workers,
        worker_timeout_s=worker_timeout_s,
        recovery_budget_ns=recovery_budget_ns,
        store_path=store_path,
        process_label=process_label,
        health_faults=health_faults)
    started = time.perf_counter()
    runtime = FirstAidRuntime(app.program(), input_tokens=wl.tokens,
                              config=config)
    session = None
    unhandled = None
    try:
        with runtime:
            session = runtime.run()
    except Exception as exc:  # noqa: BLE001 - the measurement itself
        unhandled = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - started
    recs = runtime.recoveries
    beacon_visible = None
    if store_path is not None:
        from repro.obs.health import aggregate_store
        label = process_label or runtime.fleet.label
        report = aggregate_store(store_path)
        beacon_visible = any(row["process_id"] == label
                             for row in report.processes)
    return ChaosSessionDigest(
        app=app_name,
        seed=seed,
        supervised=supervised,
        armed=dict(arm),
        fired={k: v for k, v in plan.fired.items() if v},
        reason=session.reason if session is not None else "unhandled",
        recoveries=len(recs),
        rungs=tuple(r.rung for r in recs),
        restarts=sum(1 for r in recs if r.restarted),
        gave_up=any(e.kind == "recovery.gave_up"
                    for e in runtime.events),
        survived=(unhandled is None and session is not None
                  and session.reason != "died"
                  and session.survived_all),
        unhandled=unhandled,
        worker_timeouts=(runtime.executor.worker_timeouts
                         if runtime.executor is not None else 0),
        beacon_visible=beacon_visible,
        health_errors=sum(1 for e in runtime.events
                          if e.kind == "health.error"),
        wall_s=wall)


def run_storm(apps: Optional[Sequence[str]] = None,
              min_faults: int = 50, triggers: int = 2,
              include_worker_hang: bool = True,
              baseline: bool = True) -> StormResult:
    """The full storm: every app runs one session per entry in
    ``SESSION_ARMS`` (supervised), deterministic top-up sessions make
    up any shortfall below ``min_faults`` *fired*, and the same
    schedule reruns unsupervised as the survival baseline."""
    app_names = list(apps) if apps is not None \
        else [a.name for a in real_bug_apps()]
    result = StormResult()
    started = time.perf_counter()

    schedule: List[Tuple[str, Dict[str, int], int]] = []
    for i, name in enumerate(app_names):
        for j, arm in enumerate(SESSION_ARMS):
            schedule.append((name, arm, 42 + 10 * i + j))

    for name, arm, seed in schedule:
        result.sessions.append(run_chaos_session(
            name, arm, supervised=True, triggers=triggers, seed=seed))

    if include_worker_hang:
        # Dedicated worker-layer coverage: probes fan out to a fork
        # pool, the armed hang trips the host-side deadline, and the
        # task is rescued in-process.
        result.sessions.append(run_chaos_session(
            app_names[0], {"probe_hang": 1, "probe_raise": 1},
            supervised=True, triggers=triggers, seed=4242,
            workers=2, worker_timeout_s=0.5))

    # Deterministic top-up: guarantee the fired-fault floor even when
    # some armed kinds had no chance to fire.
    topup_seed = 9000
    while (sum(sum(s.fired.values()) for s in result.sessions)
           < min_faults):
        name = app_names[topup_seed % len(app_names)]
        result.sessions.append(run_chaos_session(
            name, TOPUP_ARM, supervised=True, triggers=triggers,
            seed=topup_seed))
        topup_seed += 1

    if baseline:
        for name, arm, seed in schedule:
            result.baseline.append(run_chaos_session(
                name, arm, supervised=False, triggers=triggers,
                seed=seed))

    result.faults_armed = sum(sum(s.armed.values())
                              for s in result.sessions)
    fired: Dict[str, int] = {}
    for s in result.sessions:
        for kind, count in s.fired.items():
            fired[kind] = fired.get(kind, 0) + count
    result.fired_by_kind = fired
    result.faults_fired = sum(fired.values())
    hist: Dict[int, int] = {}
    for s in result.sessions:
        for rung in s.rungs:
            hist[rung] = hist.get(rung, 0) + 1
    result.rung_histogram = hist
    result.wall_s = time.perf_counter() - started
    return result
