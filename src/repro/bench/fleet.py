"""Fleet prevention harness (paper Section 5, measured).

The paper claims a generated patch prevents bug reoccurrence
*system-wide*: it persists to disk and is picked up by subsequent runs
and by other processes running the same program.  This harness turns
that sentence into two measured, gateable experiments over the shared
patch store (:mod:`repro.store`):

1. **Cross-process prevention** (:func:`run_fleet`): N real OS
   processes share one store.  Process 1 (the leader) hits the bug,
   diagnoses it, validates the patch, and publishes.  Processes 2..N
   (followers, launched concurrently after the leader's publish) run
   the same buggy workload and must suffer *zero* failures: the patch
   absorbed from the store at startup fires at the call-site from
   their very first trigger.  The harness records, per process, how
   often the patch actually triggered -- prevention, not coincidence.

2. **Fault storm** (:func:`run_fault_storm`): a store under repeated
   injected faults (torn writes from dying publishers, stale locks
   from SIGKILLed holders, corrupted payloads) while patches keep
   being published.  The gate: zero validated patches lost, ever.

Both return plain dataclasses so ``benchmarks/bench_fleet_prevention.py``
can JSON-dump and gate them, and tests can assert on them directly.
Every fleet member is a :func:`~repro.bench.harness.run_app_session`
digest, run by :func:`~repro.bench.harness.run_sessions`.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.apps.registry import get_app
from repro.bench.harness import SessionDigest, run_sessions, spaced_workload
from repro.core.bugtypes import BugType
from repro.core.patches import PatchPool, RuntimePatch
from repro.core.runtime import FirstAidConfig, FirstAidRuntime
from repro.store import FaultPlan, SharedPatchStore, TornWriteCrash
from repro.util.callsite import CallSite
from repro.util.events import EventLog

#: Fault kinds the storm cycles through, in rng order.
STORM_KINDS = ("torn_write", "stale_lock", "corrupt")


# ---------------------------------------------------------------------
# cross-process prevention
# ---------------------------------------------------------------------

@dataclass
class FleetRunResult:
    """One app's fleet experiment: leader + concurrent followers."""

    app: str
    procs: int
    leader: SessionDigest
    followers: List[SessionDigest]
    store_generation: int
    store_patches: int
    store_validated: int
    #: Max trigger count recorded in the store after the fleet ran --
    #: the cross-process "triggered N times" bookkeeping (Table 4).
    store_max_trigger: int

    @property
    def followers_prevented(self) -> bool:
        """Every follower survived with zero failures AND the patch
        demonstrably fired there (the bug was prevented, not absent)."""
        return bool(self.followers) and all(
            f.recoveries == 0 and f.survived and f.patched_triggers > 0
            for f in self.followers)

    @property
    def gate_passed(self) -> bool:
        return (self.leader.recoveries >= 1 and self.leader.survived
                and self.store_validated >= 1
                and self.followers_prevented)


def run_fleet(app_name: str, store_path: str, procs: int = 4,
              triggers: int = 2, leader_sampling_rate: int = 0,
              parallel: bool = True) -> FleetRunResult:
    """The staged fleet experiment for one app: the leader diagnoses
    and publishes, then ``procs - 1`` followers run the same workload
    against the shared store.  A nonzero ``leader_sampling_rate`` arms
    the leader with sampled always-on detection; followers always run
    unsampled.  With ``parallel`` the leader forks alone, then the
    followers fork together, so nothing reaches a follower except
    through the store; without, every member runs here in turn, which
    the health determinism gates compare with the forked fleet."""
    if procs < 2:
        raise ValueError("a fleet needs at least 2 processes")
    # Deterministic fleet identity: beacons keyed "leader-0" /
    # "follower-2" aggregate byte-identically whether the fleet ran
    # forked or serial (pids never enter the health plane).  Distinct
    # follower seeds: same bug, different traffic.
    member = dict(app_name=app_name, triggers=triggers,
                  store_path=store_path)
    [leader] = run_sessions(
        [dict(member, seed=42, process_label="leader-0",
              sampling_rate=leader_sampling_rate)], parallel)
    followers = run_sessions(
        [dict(member, seed=42 + i, process_label=f"follower-{i}")
         for i in range(1, procs)], parallel)

    store = SharedPatchStore(store_path, get_app(app_name).program().name)
    state = store.load()
    return FleetRunResult(
        app=app_name, procs=procs, leader=leader, followers=followers,
        store_generation=state.generation,
        store_patches=len(state.patches),
        store_validated=len(state.validated_keys()),
        store_max_trigger=max(
            (int(p.get("trigger_count", 0))
             for p in state.patches.values()), default=0))


# ---------------------------------------------------------------------
# staged rollout: canary containment + health-gated promotion
# (DESIGN.md §14)
# ---------------------------------------------------------------------

#: Call-site of the deliberately-bad injected canary patch.  The frame
#: name never appears in any app program, so the patch can never fire
#: -- its only observable effect is *being adopted*, which is exactly
#: what the containment gate counts.
BAD_PATCH_FRAME = ("injected_bad", 0)


@dataclass
class RolloutFleetResult:
    """One app's staged-rollout experiment: a bad patch injected at
    STAGED next to a real bug, canaries exposed, the promotion
    controller judging both, then late joiners reaping the verdict."""

    app: str
    canary_fraction: float
    bad_key: str
    real_keys: List[str]
    #: (role, digest) per member in run order; role is
    #: "canary-leader" | "canary" | "early-follower" | "late-follower".
    members: List[Tuple[str, SessionDigest]]
    #: Rendered decision trail from the controller pass (sorted patch
    #: keys, cascaded) -- the byte-identity gates compare this string
    #: list verbatim.
    decisions: List[str]
    #: A second tick over the settled store must decide nothing.
    second_tick_decisions: int
    #: patch_key -> final stage (including terminal "rolled_back").
    final_stages: Dict[str, str]
    rolled_back: List[str]
    store_generation: int
    #: evaluate() re-run over ``shuffles`` permutations of the beacon
    #: list must reproduce the decision trail byte-identically.
    order_invariant: bool
    shuffles: int

    def member_rows(self) -> List[dict]:
        """Each member's deterministic facts (wall clock and pid
        excluded), in run order.  ``patched_triggers`` counts only the
        process's own preventions by real patches; the bad patch's
        adoption and triggers are read off its pool and its own
        trigger counts."""
        bad = self.bad_key
        return [{
            "role": role,
            "label": d.label,
            "canary": d.canary,
            "reason": d.reason,
            "recoveries": d.recoveries,
            "survived": d.survived,
            "patches": d.patches,
            "patched_triggers": sum(count for key, count
                                    in d.local_triggers.items()
                                    if key != bad),
            "bad_patch_adopted": bad in d.pool,
            "bad_patch_triggers": d.local_triggers.get(bad, 0),
        } for role, d in self.members]

    @property
    def containment_passed(self) -> bool:
        """The deliberately-bad patch never reached a non-canary
        process, and the fleet condemned it."""
        others = [m for m in self.member_rows() if not m["canary"]]
        return (self.bad_key in self.rolled_back
                and self.final_stages.get(self.bad_key) == "rolled_back"
                and bool(others)
                and all(not m["bad_patch_adopted"]
                        and m["bad_patch_triggers"] == 0
                        for m in others))

    @property
    def promotion_passed(self) -> bool:
        """The real patch graduated to fleet-wide and prevented the
        bug in every late joiner."""
        late = [m for m in self.member_rows()
                if m["role"] == "late-follower"]
        return (bool(self.real_keys)
                and all(self.final_stages.get(k) == "fleet_wide"
                        for k in self.real_keys)
                and bool(late)
                and all(m["recoveries"] == 0 and m["survived"]
                        and m["patched_triggers"] > 0 for m in late))

    @property
    def gate_passed(self) -> bool:
        return (self.containment_passed and self.promotion_passed
                and self.order_invariant
                and self.second_tick_decisions == 0)

    def fleet_digest(self) -> Tuple:
        """Everything the serial-vs-fork gate compares."""
        return (tuple(tuple(sorted(m.items())) for m in sorted(
                    self.member_rows(), key=lambda m: m["label"])),
                tuple(self.decisions),
                tuple(sorted(self.final_stages.items())),
                tuple(sorted(self.rolled_back)))


def run_rollout_fleet(app_name: str, store_path: str,
                      canary_fraction: float = 0.25,
                      triggers: int = 2,
                      late_followers: int = 2,
                      min_observe_ns: int = 1_000_000,
                      max_latency_p99_ns: int = 60_000_000_000,
                      shuffles: int = 5,
                      parallel: bool = True) -> RolloutFleetResult:
    """The staged-rollout chaos experiment for one app.

    A deliberately-bad patch (a call-site no app program contains) is
    injected at STAGED before anyone runs.  Phase A: a canary leader
    hits the real bug alone (diagnosis + STAGED publish), then a second
    canary and an early non-canary follower run -- the canary absorbs
    both staged patches, the follower must absorb *neither* (it
    diagnoses the real bug itself; the bad patch must never touch it).
    The promotion controller then consumes the fleet's beacons: the
    bad patch -- which was live in the canaries when the real bug
    struck the leader -- blows the post-adopt failure-rate gate and is
    rolled back; the real patch clears every gate and cascades to
    fleet-wide.  Phase B: late non-canary followers join and must be
    prevented by the promoted patch while the condemned one stays
    buried.

    The leader always runs in this process; with ``parallel`` each
    later cohort forks, one OS process per member.  Determinism gates
    ride along: the decision trail must be byte-identical across
    ``shuffles`` random permutations of the beacon list, a second
    controller tick must decide nothing, and ``parallel=False`` (same
    spec, no forking) must produce the same
    :meth:`RolloutFleetResult.fleet_digest`."""
    from repro.obs.health import HealthChannel, health_path
    from repro.rollout import (STAGED, PromotionController,
                               RolloutConfig, evaluate, pick_labels)

    program_name = get_app(app_name).program().name
    (canary_labels, other_labels) = pick_labels(
        2, 1 + late_followers, canary_fraction)
    leader_label, second_canary = canary_labels
    early_label, late_labels = other_labels[0], other_labels[1:]

    # The poisoned well: a staged patch nobody asked for, at a
    # call-site that cannot execute.
    store = SharedPatchStore(store_path, program_name)
    bad_pool = PatchPool(program_name)
    bad = bad_pool.new_patch(BugType.DOUBLE_FREE,
                             CallSite.intern([BAD_PATCH_FRAME]))
    store.publish([bad], stage=STAGED)
    bad_key = bad.key

    def cohort(members, forked):
        """Run (role, label, seed) members; (role, digest) pairs."""
        digests = run_sessions(
            [dict(app_name=app_name, triggers=triggers, seed=seed,
                  store_path=store_path, process_label=label,
                  rollout=True, canary_fraction=canary_fraction)
             for _, label, seed in members], forked)
        return [(role, d) for (role, _, _), d in zip(members, digests)]

    # Phase A: leader alone (publishes the real patch at STAGED), then
    # the exposed cohort.
    members = cohort([("canary-leader", leader_label, 42)], False)
    members += cohort([("canary", second_canary, 43),
                       ("early-follower", early_label, 44)], parallel)

    # The promotion controller consumes the cohort's evidence.
    channel = HealthChannel(health_path(store_path), program_name)
    cfg = RolloutConfig(canary_fraction=canary_fraction,
                        min_observe_ns=min_observe_ns,
                        max_failure_rate=0.0,
                        max_latency_p99_ns=max_latency_p99_ns,
                        min_canary_processes=1)
    controller = PromotionController(store, channel, cfg)
    state_before = store.load()
    beacons = controller._beacons()
    decide_at = max((b.time_ns for b in beacons), default=0)
    decisions = [d.render()
                 for d in controller.tick(time_ns=decide_at)]
    second = len(controller.tick(time_ns=decide_at))

    # Beacon arrival order must not matter: evaluate() over shuffled
    # permutations reproduces the decision trail byte-for-byte.
    order_invariant = True
    for i in range(shuffles):
        shuffled = list(beacons)
        random.Random(1000 + i).shuffle(shuffled)
        replay = [d.render()
                  for d in evaluate(state_before, shuffled, cfg)]
        if replay != decisions:
            order_invariant = False

    # Phase B: late joiners reap the promoted patch.
    members += cohort([("late-follower", label, 45 + i)
                       for i, label in enumerate(late_labels)], parallel)

    final = store.load()
    return RolloutFleetResult(
        app=app_name,
        canary_fraction=canary_fraction,
        bad_key=bad_key,
        real_keys=sorted(k for k in final.patches if k != bad_key),
        members=members,
        decisions=decisions,
        second_tick_decisions=second,
        final_stages=final.stages(),
        rolled_back=sorted(final.rolled_back),
        store_generation=final.generation,
        order_invariant=order_invariant,
        shuffles=shuffles)


# ---------------------------------------------------------------------
# live mid-run pickup (deterministic, in-process)
# ---------------------------------------------------------------------

@dataclass
class LivePickupResult:
    """A follower that started *before* the publish and absorbed the
    patch mid-run via the periodic boundary refresh."""

    app: str
    picked_up_at_generation: int
    follower_recoveries: int
    follower_reason: str
    follower_triggers: int

    @property
    def gate_passed(self) -> bool:
        return self.follower_recoveries == 0 \
            and self.follower_triggers > 0


def run_live_pickup(app_name: str, store_path: str,
                    triggers: int = 2) -> LivePickupResult:
    """Start a follower with an *empty* store and a workload whose
    first trigger is still ahead; run it in small budget slices; after
    the first slice, a leader (separate runtime, same store) publishes
    its validated patch.  The follower's periodic refresh must absorb
    it before the trigger arrives, preventing the bug mid-run with no
    restart.  Deterministic: everything runs on simulated clocks in
    one host process."""
    from repro.checkpoint.manager import DEFAULT_INTERVAL
    from repro.heap.extension import ExtensionMode
    from repro.process import Process
    app = get_app(app_name)
    # REQUEST_COST_HINT is a rough upper bound; the trigger placement
    # below needs the *actual* per-request cost, so measure it with a
    # tiny trigger-free probe run.
    probe_requests = 32
    probe = Process(app.program(),
                    input_tokens=app.normal_workload(
                        requests=probe_requests).tokens,
                    mode=ExtensionMode.OFF)
    probe.run()
    per_request = max(1, probe.instr_count // probe_requests)
    # First trigger after ~6 checkpoint intervals: the first budget
    # slice covers 2, leaving several boundaries for the
    # publish-then-refresh sequence to land on before the bug strikes.
    normal_before = (6 * DEFAULT_INTERVAL) // per_request
    spacing = max(40, int(3 * DEFAULT_INTERVAL * 1.4 / per_request))
    wl = app.workload(normal_before=normal_before, triggers=triggers,
                      normal_between=spacing, normal_after=40, seed=42)

    follower = FirstAidRuntime(
        app.program(), input_tokens=wl.tokens,
        config=FirstAidConfig(store_path=store_path,
                              store_refresh_boundaries=1))
    # One small slice: past the first checkpoint boundary, well before
    # the first trigger request is consumed.
    follower.run(max_steps=2 * follower.manager.interval)

    leader = FirstAidRuntime(
        app.program(), input_tokens=spaced_workload(app, 1, seed=7).tokens,
        config=FirstAidConfig(store_path=store_path))
    leader.run()
    leader.close()
    generation = leader.store.load().generation

    session = follower.run()  # resumes; refresh picks the patch up
    patches = follower.pool.patches()
    result = LivePickupResult(
        app=app_name,
        picked_up_at_generation=generation,
        follower_recoveries=len(session.recoveries),
        follower_reason=session.reason,
        follower_triggers=sum(p.trigger_count for p in patches))
    follower.close()
    return result


# ---------------------------------------------------------------------
# fault storm
# ---------------------------------------------------------------------

@dataclass
class FaultStormResult:
    faults_requested: int
    faults_fired: Dict[str, int] = field(default_factory=dict)
    validated_patches: int = 0
    validated_lost: int = 0          # the gate: must stay 0
    publishes_survived: int = 0
    quarantined_files: int = 0
    backup_recoveries: int = 0
    stale_locks_broken: int = 0
    final_generation: int = 0
    wall_s: float = 0.0

    @property
    def gate_passed(self) -> bool:
        return (self.validated_lost == 0
                and sum(self.faults_fired.values())
                >= self.faults_requested)


def _storm_patch(pool: PatchPool, i: int,
                 validated: bool) -> RuntimePatch:
    kinds = (BugType.BUFFER_OVERFLOW, BugType.DANGLING_READ,
             BugType.DOUBLE_FREE, BugType.UNINIT_READ)
    patch = pool.new_patch(kinds[i % len(kinds)],
                           CallSite.intern([(f"fn{i}", i)]))
    patch.validated = validated
    patch.trigger_count = i
    return patch


def run_fault_storm(store_path: str, faults: int = 100,
                    gold_patches: int = 6,
                    seed: int = 7) -> FaultStormResult:
    """Inject ``faults`` store faults while publishing churn patches;
    assert after every single fault that no validated patch was lost."""
    rng = random.Random(seed)
    plan = FaultPlan()
    store = SharedPatchStore(store_path, "storm-app", faults=plan,
                             lock_timeout=5.0, stale_lock_after=0.02)
    pool = PatchPool("storm-app")
    gold = [_storm_patch(pool, i, validated=True)
            for i in range(gold_patches)]
    store.publish(gold)
    gold_keys = {p.key for p in gold}

    result = FaultStormResult(faults_requested=faults,
                              validated_patches=len(gold_keys))
    started = time.perf_counter()
    for i in range(faults):
        kind = STORM_KINDS[rng.randrange(len(STORM_KINDS))]
        plan.arm(kind)
        churn = _storm_patch(pool, gold_patches + i, validated=False)
        try:
            store.publish([churn])
        except TornWriteCrash:
            # The "publisher died" mid-commit, torn bytes on disk and
            # the lock abandoned.  A surviving process retries: it must
            # break the stale lock, quarantine the torn file, recover
            # from the backup, and land the patch.
            store.publish([churn])
        result.publishes_survived += 1
        state = store.load()
        lost = gold_keys - set(state.validated_keys())
        if lost:
            result.validated_lost += len(lost)
            # Heal for the remaining iterations so one loss does not
            # cascade into a meaningless count.
            store.publish([p for p in gold if p.key in lost])
    result.wall_s = time.perf_counter() - started
    result.faults_fired = dict(plan.fired)
    result.quarantined_files = store.quarantined
    result.backup_recoveries = store.recovered_from_backup
    result.stale_locks_broken = store.lock.stale_broken
    result.final_generation = store.load().generation
    return result


# ---------------------------------------------------------------------
# health fault storm (DESIGN.md §12)
# ---------------------------------------------------------------------

@dataclass
class HealthStormResult:
    """A fault storm aimed at the *health* channel while the patch
    store keeps doing real work next to it.  The gates: validated
    patches are untouchable by health faults, and nothing the health
    path does ever raises past the runtime's guard."""

    faults_requested: int
    faults_fired: Dict[str, int] = field(default_factory=dict)
    validated_patches: int = 0
    validated_lost: int = 0          # gate: must stay 0
    publishes_attempted: int = 0
    health_errors: int = 0           # health.error events (expected > 0)
    health_raised: int = 0           # gate: must stay 0
    quarantined_files: int = 0
    backup_recoveries: int = 0
    beacons_visible: int = 0
    aggregate_errors: int = 0
    final_report_processes: int = 0
    wall_s: float = 0.0

    @property
    def gate_passed(self) -> bool:
        return (self.validated_lost == 0
                and self.health_raised == 0
                and sum(self.faults_fired.values())
                >= self.faults_requested
                and self.final_report_processes > 0)


def run_health_fault_storm(store_path: str, faults: int = 48,
                           processes: int = 4,
                           seed: int = 11) -> HealthStormResult:
    """Inject ``faults`` health-channel faults (torn writes, stale
    locks, corrupt files, stale beacons) while ``processes`` synthetic
    fleet members keep publishing beacons through the runtime's own
    guard (:meth:`~repro.obs.health.HealthChannel.publish_guarded`),
    with gold validated patches sitting in the patch store next door.
    After every fault: the validated patches must all still be there,
    and the aggregator must still produce a report without raising."""
    from repro.obs.health import (FleetHealthAggregator, HealthBeacon,
                                  HealthChannel, HealthFaultPlan,
                                  health_path)

    rng = random.Random(seed)
    store = SharedPatchStore(store_path, "storm-app")
    pool = PatchPool("storm-app")
    gold = [_storm_patch(pool, i, validated=True) for i in range(4)]
    store.publish(gold)
    gold_keys = {p.key for p in gold}

    plan = HealthFaultPlan()
    channel = HealthChannel(health_path(store_path), "storm-app",
                            faults=plan, stale_lock_after=0.02)
    channel.events = EventLog()
    result = HealthStormResult(faults_requested=faults,
                               validated_patches=len(gold_keys))
    started = time.perf_counter()
    seqs = {i: 0 for i in range(processes)}
    for i in range(faults):
        kind = HealthFaultPlan.KINDS[rng.randrange(
            len(HealthFaultPlan.KINDS))]
        plan.arm(kind)
        proc = i % processes
        seqs[proc] += 1
        beacon = HealthBeacon(
            process_id=f"member-{proc}", app="storm-app",
            seq=seqs[proc], time_ns=(i + 1) * 1_000_000,
            failures=proc, recovered=proc)
        result.publishes_attempted += 1
        # The runtime's guard itself: torn writes force-break our own
        # abandoned lock and retry once; everything else degrades to a
        # health.error event.
        try:
            channel.publish_guarded(beacon)
        except BaseException:
            result.health_raised += 1
        # Gate 1: health faults must never reach the patch store.
        lost = gold_keys - set(store.load().validated_keys())
        result.validated_lost += len(lost)
        # Gate 2: aggregation over whatever survived never raises.
        try:
            agg = FleetHealthAggregator()
            agg.add_state(channel.load())
            agg.report()
        except BaseException:
            result.health_raised += 1
    result.wall_s = time.perf_counter() - started
    result.faults_fired = dict(plan.fired)
    result.health_errors = len(channel.events.of_kind("health.error"))
    result.quarantined_files = channel.quarantined
    result.backup_recoveries = channel.recovered_from_backup
    final = FleetHealthAggregator()
    final.add_state(channel.load())
    report = final.report()
    result.aggregate_errors = final.errors
    result.beacons_visible = len(report.processes)
    result.final_report_processes = report.fleet["processes"]
    return result
