"""FirstAidRuntime: the public entry point.

Ties together the whole working scenario of Figure 1: run the program
under periodic checkpointing; when an error monitor catches a failure,
diagnose it, generate and apply runtime patches, recover by re-executing
from the identified checkpoint with the patches active, then validate
the patches on a clone (off the recovery path) and produce a bug
report.  Patches persist in the pool for the session and, with a shared
store configured (``store_path``), for every process of the program, so
subsequent failures from the same bug never happen.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Iterable, List, Optional

from repro.checkpoint.manager import DEFAULT_INTERVAL, CheckpointManager
from repro.core.diagnosis import Diagnosis, DiagnosticEngine, Verdict
from repro.core.patches import PatchPolicy, PatchPool
from repro.core.report import BugReport
from repro.core.validation import ValidationEngine, ValidationResult
from repro.heap.extension import ExtensionMode
from repro.heap.quarantine import DEFAULT_THRESHOLD
from repro.monitors import FailureEvent, default_monitors
from repro.obs.health import (
    LATENCY_BOUNDS,
    RECOVERY_BOUNDS,
    HealthBeacon,
    HealthChannel,
    health_path,
)
from repro.obs.metrics import Histogram
from repro.obs.telemetry import Telemetry
from repro.errors import StoreError
from repro.parallel.executor import make_executor
from repro.parallel.tasks import PASS_REASONS, WINDOW_INTERVALS
from repro.process import Process
from repro.search.state import check_policy
from repro.store import SharedPatchStore
from repro.util.events import EventLog
from repro.vm.machine import RunReason, RunResult
from repro.vm.program import Program

#: Patched re-executions from the diagnosis checkpoint (fresh entropy
#: each) before recovery reports failure; ladder rung 3 makes the same
#: number of plain attempts.
MAX_RECOVERY_ATTEMPTS = 2


@dataclass
class FirstAidConfig:
    """Tunables, with the paper's experimental defaults."""

    checkpoint_interval: int = DEFAULT_INTERVAL      # 200 ms equivalent
    validate: bool = True
    quarantine_threshold: int = DEFAULT_THRESHOLD    # 1 MB
    #: Memory-pressure failsafe: total bytes runtime patches may hold
    #: (padding + delay-freed objects) before patching is disabled and
    #: the oldest delay-freed objects are released.  None = unlimited.
    max_patch_memory: Optional[int] = None
    #: Crash-safe shared patch store (repro.store, DESIGN.md §9), the
    #: one place patches persist beyond the session: merge-on-write,
    #: file-locked, survives concurrent processes of the same program.
    #: Patches publish on creation and validation, failed validation
    #: retracts them fleet-wide, and a periodic refresh (every
    #: ``store_refresh_boundaries`` checkpoint boundaries) absorbs
    #: patches other processes published mid-run.  With a store the
    #: fleet health plane (repro.obs.health, DESIGN.md §12) is on too:
    #: the runtime publishes a :class:`~repro.obs.health.HealthBeacon`
    #: into ``<store>.health`` at every store-refresh boundary and at
    #: session exit.  Health failures degrade (``health.error``
    #: events), never raise.
    store_path: Optional[str] = None
    store_refresh_boundaries: int = 2
    #: Stable fleet identity for this process's beacons.  Defaults to
    #: ``<program>#<pid>``, which is fine for ad-hoc runs; harnesses
    #: that need deterministic reports pass role labels ("leader-0",
    #: "follower-1") so serial and forked fleets aggregate identically.
    process_label: Optional[str] = None
    #: Optional :class:`~repro.obs.health.HealthFaultPlan` armed
    #: against the health channel only (the patch store keeps its own
    #: plan); the chaos harness uses it to prove beacon corruption
    #: never touches recovery.
    health_faults: Optional[object] = None
    entropy_seed: int = 1
    #: Worker processes for the parallel recovery engine.  1 (default)
    #: keeps every re-execution in-process on the original serial
    #: paths; >1 fans diagnosis probes and validation runs out across
    #: a fork-based worker pool (see repro.parallel and DESIGN.md §8).
    #: Diagnoses, patches, and verdicts are byte-identical either way;
    #: simulated recovery/validation times are charged max-over-workers.
    workers: int = 1
    #: Enable the telemetry subsystem (metrics registry, span tracing,
    #: flight recorder).  Off by default: production overhead first.
    telemetry: bool = False
    #: Ring-buffer bound on the runtime's event log in normal mode
    #: (None = unbounded, the pre-telemetry behaviour).  Long normal
    #: runs emit one checkpoint event per interval forever; the bound
    #: keeps the log's footprint constant.
    max_events: Optional[int] = 4096
    #: Graceful-degradation ladder (repro.supervisor, DESIGN.md §10).
    #: On: every failure runs through the rung sequence targeted patch
    #: -> prevent-all -> plain rollback -> restart, so a failure the
    #: targeted path cannot handle degrades instead of killing the
    #: session.  The no-escalation path (rung 1 succeeds) is
    #: byte-identical to supervisor=False.
    supervisor: bool = True
    #: Highest ladder rung the supervisor may try (1..4).  Below 4 the
    #: restart floor is disallowed too -- exhausting the allowed rungs
    #: then kills the session exactly like supervisor=False.
    max_rungs: int = 4
    #: Per-failure recovery budget in *simulated* nanoseconds (the same
    #: clock recovery_time_ns is measured on; parallel re-executions
    #: charge max-over-workers, §8).  Rung 1 always runs; rungs 2-3 are
    #: skipped once the budget is spent.  The restart floor is
    #: budget-exempt.  None = unbounded.
    recovery_budget_ns: Optional[int] = None
    #: Restart-floor bound: total rung-4 restarts per session.
    max_restarts: int = 16
    #: Request boundaries (input-cursor positions) for restart resync:
    #: rung 4 drops the in-flight request and resumes the stream at the
    #: first boundary past the crash cursor, mirroring
    #: repro.baselines.restart.  None resumes exactly where the stream
    #: stands.
    restart_boundaries: Optional[List[int]] = None
    #: Optional :class:`~repro.chaos.ChaosPlan`: armed faults injected
    #: at the checkpoint/diagnosis/validation/worker/monitor layers
    #: (repro.chaos).  None (default) compiles every hook to a no-op
    #: check off the per-instruction path.
    chaos: Optional[object] = None
    #: Host-side deadline (seconds) per worker task result; a hung
    #: worker past it is abandoned and the task rescued in-process.
    #: None waits forever (the pre-chaos behaviour).
    worker_timeout_s: Optional[float] = None
    #: VM execution tier ("reference" or "compiled", see
    #: repro.vm.compile).  The compiled template-JIT tier is observably
    #: identical -- snapshots, sim time, fault sites, telemetry -- and
    #: exists purely for wall-clock speed; every re-execution the
    #: runtime performs (diagnosis probes, validation runs, forked
    #: worker tasks) inherits the tier.  The reference interpreter
    #: stays the oracle the differential fuzzer checks "compiled"
    #: against.
    vm_tier: str = "compiled"
    #: Diagnosis search policy (repro.search, DESIGN.md §13).
    #: "fixed" is the legacy schedule; "bandit" runs the same schedule
    #: and skips the phase-1a plain probe for a program with no
    #: reachable RAND (one probe fewer, consumed and executed).  The
    #: produced Diagnosis is byte-identical under both.  The name
    #: "bandit" is historical: both policies speculate alike at
    #: workers > 1.
    search_policy: str = "fixed"
    #: Health-gated staged rollout (repro.rollout, DESIGN.md §14).
    #: Off (default): every store patch is adopted by everyone -- the
    #: pre-rollout behavior, byte-identical digests.  On: patches this
    #: process diagnoses publish at STAGED; only the canary cohort
    #: (hash of ``process_label`` under ``canary_fraction``) absorbs
    #: pre-fleet-wide patches, and a patch the fleet rolled back is
    #: never (re-)adopted for the rest of this session.  Promotion is
    #: not decided here: a :class:`~repro.rollout.PromotionController`
    #: reads the store and the beacons and moves stages.
    rollout: bool = False
    canary_fraction: float = 0.25
    #: Sampled always-on detection (repro.sampling, DESIGN.md §15).
    #: 0 (default) attaches nothing: every code path is byte-identical
    #: to the pre-sampling behaviour.  N > 0 promotes every ~1/N
    #: production allocations (deterministically, via the process
    #: entropy salt) to a guarded allocation -- redzone canaries on
    #: both sides, delayed free with canary fill -- so a latent memory
    #: bug is caught at the guard *before* it can crash the process.
    #: A guard hit carries bug type and call-site, letting diagnosis
    #: take the fast path (:meth:`DiagnosticEngine.diagnose_sampled`).
    sampling_rate: int = 0


@dataclass
class RecoveryRecord:
    """One failure's handling, start to finish (one Table 3 row)."""

    failure: FailureEvent
    diagnosis: Optional[Diagnosis] = None
    recovery_time_ns: int = 0
    validation: Optional[ValidationResult] = None
    report: Optional[BugReport] = None
    succeeded: bool = False
    notes: List[str] = field(default_factory=list)
    #: real wall-clock seconds handling this failure (host time; the
    #: parallel benchmark compares this across backends).
    wall_s: float = 0.0
    #: Ladder rung that resolved this failure (1 = targeted patch, the
    #: only rung that exists with supervisor=False; see
    #: repro.supervisor.ladder.Rung).
    rung: int = 1
    #: Per-rung attempts, in escalation order
    #: (:class:`~repro.supervisor.ladder.RungAttempt`).  Empty when the
    #: supervisor is disabled.
    rung_trail: List = field(default_factory=list)
    #: Simulated nanoseconds the whole ladder spent on this failure.
    budget_spent_ns: int = 0
    #: True when the restart floor (rung 4) resolved this failure.
    restarted: bool = False


@dataclass
class SessionResult:
    """Outcome of FirstAidRuntime.run()."""

    reason: str                 # "halt" | "input" | "budget" | "died"
    recoveries: List[RecoveryRecord] = field(default_factory=list)

    @property
    def survived_all(self) -> bool:
        return all(r.succeeded for r in self.recoveries)


class FirstAidRuntime:
    """Run one program under First-Aid."""

    def __init__(self, program: Program,
                 input_tokens: Optional[Iterable[int]] = None,
                 config: Optional[FirstAidConfig] = None):
        self.config = config or FirstAidConfig()
        # An unknown policy fails here, not at the first failure,
        # where the degradation ladder would absorb the error.
        check_policy(self.config.search_policy)
        self.telemetry = Telemetry(enabled=self.config.telemetry)
        self.events = EventLog(max_events=self.config.max_events)
        self.pool = PatchPool(program.name)
        #: Shared patch store (None without config.store_path).  The
        #: startup sync runs before the policy is built, so a patch any
        #: peer already published prevents its bug from this process's
        #: very first instruction.
        self.store = None
        self._store_generation = -1
        self._boundaries_since_refresh = 0
        #: Fleet health channel (None without a store).  Rides next to
        #: the patch store and reuses its crash-safe machinery; see
        #: repro.obs.health.
        self.health = None
        self._health_seq = 0
        self._retractions = 0
        #: Sampled detections that ended in a validated patch: bugs
        #: caught and fixed *before* any crash (the fleet report's
        #: "prevented" column).
        self._sampled_prevented = 0
        self._process_label = (self.config.process_label
                               or f"{program.name}#{os.getpid()}")
        #: Rollout state (repro.rollout, DESIGN.md §14).  All sim-time.
        self._canary = True
        self._adopted_ns = {}            # patch_key -> sim adoption time
        self._post_adopt_failures = {}   # patch_key -> failures while live
        self._rolled_back_keys = set()   # never re-adopt this session
        if self.config.rollout:
            from repro.rollout import is_canary
            self._canary = is_canary(self._process_label,
                                     self.config.canary_fraction)
        if self.config.store_path:
            self.store = SharedPatchStore(self.config.store_path,
                                          program.name)
            self.store.events = self.events
            self._store_sync(initial=True)
            self.health = HealthChannel(
                health_path(self.config.store_path), program.name,
                faults=self.config.health_faults)
            self.health.events = self.events
        self.policy = PatchPolicy(self.pool)
        self.process = self._make_process(program,
                                          input_tokens=input_tokens)
        #: The session's base cost model, kept for restart respawns (a
        #: chaos fault could interrupt an engine mid cost-model swap).
        self._costs = self.process.costs
        if self.telemetry.enabled:
            self.events.tap = self.telemetry.recorder.record_event
        self.manager = self._make_manager()
        self.monitors = default_monitors()
        #: Execution backend shared by diagnosis and validation; None
        #: (workers <= 1) keeps the legacy in-process serial paths.
        self.executor = make_executor(
            self.config.workers, program, self.telemetry,
            task_timeout_s=self.config.worker_timeout_s)
        self.validator = ValidationEngine(
            events=self.events, telemetry=self.telemetry,
            executor=self.executor, store=self.store,
            chaos=self.config.chaos)
        self.recoveries: List[RecoveryRecord] = []
        self._recovery_supervisor = None

    def _make_process(self, program: Program, **kw) -> Process:
        """A normal-mode process under this runtime's patch policy,
        patch-memory failsafe, chaos plan and telemetry.  ``__init__``
        and the restart respawn both build through here."""
        process = Process(
            program,
            mode=ExtensionMode.NORMAL,
            policy=self.policy,
            quarantine_threshold=self.config.quarantine_threshold,
            entropy_seed=self.config.entropy_seed,
            vm_tier=self.config.vm_tier,
            sampling_rate=self.config.sampling_rate,
            **kw)
        process.extension.patch_memory_limit = self.config.max_patch_memory
        if self.config.chaos is not None:
            process.extension.sampling_chaos = self.config.chaos
        process.attach_telemetry(self.telemetry)
        return process

    def _make_manager(self) -> CheckpointManager:
        manager = CheckpointManager(
            self.process,
            interval=self.config.checkpoint_interval,
            events=self.events,
            telemetry=self.telemetry,
            chaos=self.config.chaos,
        )
        if self.store is not None:
            manager.on_boundary = self._store_refresh_tick
        return manager

    def close(self) -> None:
        """Release every external resource: the worker pool (no-op in
        serial mode) and, defensively, the shared store's file lock
        (idempotent; only held if a fault interrupted a store
        operation mid-critical-section)."""
        if self.executor is not None:
            self.executor.close()
        if self.store is not None:
            self.store.lock.release()
        if self.health is not None:
            self.health.lock.release()

    def __enter__(self) -> "FirstAidRuntime":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------
    # shared patch store (DESIGN.md §9)
    # ------------------------------------------------------------------

    def _store_sync(self, initial: bool = False) -> None:
        """Absorb the shared store into the local pool (and drop
        retracted patches); refreshes the policy when anything
        changed.  Store failures are logged, never raised: a broken
        shared file must not take down this process.

        With rollout on, adoption is stage-filtered (non-canaries take
        only fleet-wide records) and keys this session saw rolled back
        are permanently refused -- a supervisor restart mid-session
        must not smuggle a condemned patch back in."""
        canary = self._canary if self.config.rollout else None
        blocked = self._rolled_back_keys if self.config.rollout \
            else None
        try:
            changed, state = self.store.sync_into(
                self.pool, canary=canary, blocked=blocked)
        except StoreError as exc:
            self.events.emit(0, "store.error", op="sync",
                             error=str(exc))
            return
        self._store_generation = state.generation
        if self.config.rollout:
            now = 0 if initial else self.process.clock.now_ns
            newly = sorted(k for k in state.rolled_back
                           if k not in self._rolled_back_keys)
            for key in newly:
                self._rolled_back_keys.add(key)
                if self.pool.remove_key(key) is not None:
                    changed = True
            if newly:
                self.events.emit(now, "rollout.blocked", keys=newly)
            for patch in self.pool.patches():
                self._adopted_ns.setdefault(patch.key, now)
        if changed and not initial:
            self.policy.refresh()
            self.events.emit(self.process.clock.now_ns, "store.refresh",
                             generation=state.generation,
                             patches=len(self.pool))

    def _store_refresh_tick(self) -> None:
        """Checkpoint-boundary hook: every
        ``store_refresh_boundaries``-th boundary, poll the store
        generation and merge if a peer published or retracted."""
        self._boundaries_since_refresh += 1
        if self._boundaries_since_refresh \
                < self.config.store_refresh_boundaries:
            return
        self._boundaries_since_refresh = 0
        try:
            generation = self.store.generation()
        except StoreError as exc:
            self.events.emit(0, "store.error", op="poll",
                             error=str(exc))
            return
        if generation != self._store_generation:
            self._store_sync()
        self._health_publish("running")

    def _store_publish(self, patches, restage: bool = False) -> None:
        if self.store is None or not patches:
            return
        try:
            if self.config.rollout:
                from repro.rollout import STAGED
                state = self.store.publish(patches, stage=STAGED,
                                           restage=restage)
            else:
                state = self.store.publish(patches)
        except StoreError as exc:
            self.events.emit(0, "store.error", op="publish",
                             error=str(exc))
            return
        self._store_generation = state.generation
        self.events.emit(self.process.clock.now_ns, "store.published",
                         keys=[p.key for p in patches],
                         generation=state.generation)

    # ------------------------------------------------------------------
    # staged rollout (DESIGN.md §14)
    # ------------------------------------------------------------------

    def _note_failure_for_rollout(self, time_ns: int) -> None:
        """Attribute one failure to every patch that was live when it
        struck (sim-time comparison): the canary evidence the
        promotion controller gates on.  A patch adopted *after* the
        failure is innocent."""
        if not self.config.rollout:
            return
        for key, adopted in self._adopted_ns.items():
            if adopted <= time_ns and self.pool.find_key(key) \
                    is not None:
                self._post_adopt_failures[key] = \
                    self._post_adopt_failures.get(key, 0) + 1

    # ------------------------------------------------------------------
    # fleet health plane (DESIGN.md §12)
    # ------------------------------------------------------------------

    def _health_beacon(self, reason: str) -> HealthBeacon:
        """This process's health digest, right now.  Every field is a
        full snapshot (not a delta) derived from sim-time-stamped,
        locally-attributed state -- the same program on the same input
        builds the same beacon sequence regardless of wall clock, pid,
        or peer publish timing (the determinism the fleet report gates
        on)."""
        recoveries = self.recoveries
        rung_counts = {}
        for record in recoveries:
            ran = [a for a in record.rung_trail
                   if a.outcome != "skipped"]
            if ran:
                for attempt in ran:
                    rung = str(attempt.rung)
                    rung_counts[rung] = rung_counts.get(rung, 0) + 1
            else:
                # Supervisor off (or pre-ladder record): the resolving
                # rung is all we know.
                rung = str(record.rung)
                rung_counts[rung] = rung_counts.get(rung, 0) + 1
        diagnosed = {}
        for record in recoveries:
            if record.diagnosis is None:
                continue
            for patch in record.diagnosis.patches:
                key = patch.key
                diagnosed[key] = diagnosed.get(key, 0) + 1
        patches = {}
        for patch in self.pool.patches():
            key = patch.key
            patches[key] = {
                "triggers": self.policy.local_triggers.get(key, 0),
                "validated": patch.validated,
                "created_time_ns": patch.created_time_ns,
                "diagnosed": diagnosed.get(key, 0),
            }
            if self.config.rollout:
                # Canary evidence for the promotion controller; only
                # serialized under rollout so pre-rollout beacons stay
                # byte-identical.
                patches[key]["adopted_ns"] = self._adopted_ns.get(
                    key, patch.created_time_ns)
                patches[key]["post_adopt_failures"] = \
                    self._post_adopt_failures.get(key, 0)
        recovery = Histogram("recovery_ns", RECOVERY_BOUNDS)
        for record in recoveries:
            recovery.observe(record.recovery_time_ns)
        latency = Histogram("latency_ns", LATENCY_BOUNDS)
        prev = 0
        for time_ns, _ in self.process.output.entries():
            latency.observe(time_ns - prev)
            prev = time_ns
        sampling = {}
        stats = self.process.extension.sampling_stats
        if self.config.sampling_rate > 0 and stats is not None:
            # Only serialized when sampling is on, so pre-sampling
            # beacons stay byte-identical.
            sampling = stats.to_dict()
            sampling["rate"] = self.config.sampling_rate
            sampling["prevented"] = self._sampled_prevented
        self._health_seq += 1
        return HealthBeacon(
            canary=self._canary if self.config.rollout else False,
            process_id=self._process_label,
            app=self.process.program.name,
            seq=self._health_seq,
            time_ns=self.process.clock.now_ns,
            reason=reason,
            failures=len(recoveries),
            recovered=sum(1 for r in recoveries if r.succeeded),
            gave_up=sum(1 for r in recoveries if not r.succeeded),
            restarts=sum(1 for r in recoveries if r.restarted),
            retractions=self._retractions,
            rung_counts=rung_counts,
            patches=patches,
            recovery_ns=recovery.to_snapshot(),
            latency_ns=latency.to_snapshot(),
            sampling=sampling,
        )

    def _health_publish(self, reason: str) -> None:
        """Publish a beacon; the health path must never take down the
        session (:meth:`HealthChannel.publish_guarded`)."""
        if self.health is None:
            return
        beacon = self._health_beacon(reason)
        if self.health.publish_guarded(beacon):
            self.events.emit(self.process.clock.now_ns,
                             "health.published", seq=beacon.seq,
                             reason=reason)

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------

    def run(self, max_steps: Optional[int] = None) -> SessionResult:
        """Run until the program finishes (halt or input exhausted),
        the optional step budget runs out, or an unrecoverable failure
        kills it.  Any exception escaping the loop -- including
        chaos-injected ones -- closes the runtime first, so worker
        pools and store locks never leak from a crashed session."""
        try:
            return self._run_loop(max_steps)
        except BaseException:
            self.close()
            raise

    def _run_loop(self, max_steps: Optional[int]) -> SessionResult:
        budget = max_steps
        while True:
            start = self.process.instr_count
            result = self.manager.run(max_steps=budget)
            if budget is not None:
                budget -= self.process.instr_count - start
            if result.reason is RunReason.HALT:
                return self._finish(SessionResult("halt", self.recoveries))
            if result.reason is RunReason.INPUT_EXHAUSTED:
                return self._finish(SessionResult("input", self.recoveries))
            if result.reason is RunReason.STOP:
                return self._finish(SessionResult("budget",
                                                  self.recoveries))
            failure = self._detect_failure(result)
            if failure is None:
                if self.config.supervisor and result.fault is not None:
                    # No monitor claimed the fault (e.g. an injected
                    # monitor miss).  The supervisor still gets a
                    # synthetic failure event: its diagnosis starts
                    # from the fault itself, and the ladder guarantees
                    # the session degrades instead of dying silently.
                    failure = FailureEvent(
                        fault=result.fault,
                        instr_count=self.process.instr_count,
                        time_ns=self.process.clock.now_ns,
                        monitor="unclaimed")
                    self.events.emit(self.process.clock.now_ns,
                                     "failure.unclaimed",
                                     detail=failure.describe())
                else:
                    # A fault no monitor claims: treat as fatal.
                    return self._finish(SessionResult("died",
                                                      self.recoveries))
            self._note_failure_for_rollout(failure.time_ns)
            record = self._handle_failure(failure)
            self.recoveries.append(record)
            if not record.succeeded:
                return self._finish(SessionResult("died", self.recoveries))

    def _finish(self, session: SessionResult) -> SessionResult:
        """Session-exit bookkeeping: push this process's trigger counts
        to the shared store (merge keeps the max), after a final sync
        so a peer's retraction is honored rather than resurrected."""
        if self.store is not None and len(self.pool):
            self._store_sync()
            self._store_publish(self.pool.patches())
        # The exit beacon goes out even with an empty pool: a fleet
        # view that only shows processes with patches cannot answer
        # "did everyone survive?".
        self._health_publish(session.reason)
        return session

    def _detect_failure(self, result: RunResult) -> Optional[FailureEvent]:
        chaos = self.config.chaos
        if chaos is not None and result.fault is not None \
                and chaos.take("monitor_miss"):
            # Injected monitor false negative: the fault happened but
            # no monitor reports it.
            self.events.emit(self.process.clock.now_ns,
                             "chaos.monitor_miss",
                             fault=result.fault.describe())
            return None
        for monitor in self.monitors:
            event = monitor.check(result, self.process)
            if event is not None:
                self.events.emit(self.process.clock.now_ns,
                                 "failure.detected",
                                 detail=event.describe())
                return event
        return None

    # ------------------------------------------------------------------
    # failure handling
    # ------------------------------------------------------------------

    def _handle_failure(self, failure: FailureEvent) -> RecoveryRecord:
        with self.telemetry.span("recovery",
                                 failure=failure.describe()) as span:
            started = time.perf_counter()
            # Guard *raising* pauses for the whole recovery: rollback
            # replays a window the guards already saw once, and a fresh
            # guard hit mid-replay would fail the rung and walk the
            # ladder.  Selection, promotion, and accounting continue --
            # rollback restores the work counters, so the replay is
            # counted exactly once, and the recovered run stays guarded.
            # (_respawn may swap the process; unpause the current one.)
            self.process.extension.sampling_paused = True
            try:
                if self.config.supervisor:
                    record = self._supervisor().handle(failure)
                else:
                    record = self._handle_failure_traced(failure)
            finally:
                self.process.extension.sampling_paused = False
            record.wall_s = time.perf_counter() - started
            span.set(succeeded=record.succeeded,
                     recovery_time_ns=record.recovery_time_ns)
            if record.rung > 1:
                span.set(rung=record.rung)
            if not record.succeeded:
                # Terminal outcome, previously silent: record *that* we
                # gave up and why, for the operator and the bug report.
                verdict = (record.diagnosis.verdict.value
                           if record.diagnosis is not None else "unknown")
                trail = record.rung_trail
                self.events.emit(
                    self.process.clock.now_ns, "recovery.gave_up",
                    verdict=verdict,
                    rungs=[a.rung for a in trail] or [1],
                    reasons=([a.describe() for a in trail]
                             or list(record.notes)))
            return record

    def _supervisor(self):
        if self._recovery_supervisor is None:
            from repro.supervisor.ladder import RecoverySupervisor
            self._recovery_supervisor = RecoverySupervisor(self)
        return self._recovery_supervisor

    def _respawn(self) -> None:
        """Restart-from-scratch (ladder rung 4): a fresh process on the
        *same* clock, input stream, and output log -- service
        continuity over state continuity, exactly the restart
        baseline's semantics -- plus a fresh checkpoint manager (old
        checkpoints describe a heap that no longer exists)."""
        old = self.process
        self.process = self._make_process(
            old.program, input_stream=old.input, clock=old.clock,
            costs=self._costs, output=old.output)
        self.manager = self._make_manager()

    def _handle_failure_traced(self, failure: FailureEvent,
                               fast_path: bool = True) -> RecoveryRecord:
        record = RecoveryRecord(failure=failure)
        t_start = self.process.clock.now_ns
        diag_log = EventLog(max_events=self.config.max_events)
        engine = DiagnosticEngine(
            self.process, self.manager, self.pool, diag_log,
            telemetry=self.telemetry,
            executor=self.executor,
            chaos=self.config.chaos,
            search_policy=self.config.search_policy)
        detection = failure.detection
        use_fast = (fast_path and detection is not None
                    and getattr(detection, "site", None) is not None)
        if detection is not None and not use_fast:
            # Fallback after a rejected fast path (or a detection with
            # no attribution): the failing run carried a guard the
            # plain replay lacks, so "plain re-execution must reproduce
            # the failure" does not hold -- run phase 1a for real.  A
            # guard false positive then reads NONDETERMINISTIC and the
            # session continues un-degraded.
            engine.force_plain_probe = True
        diagnosis = (engine.diagnose_sampled(failure) if use_fast
                     else engine.diagnose(failure))
        record.diagnosis = diagnosis
        for event in diag_log:
            self.events.emit(event.time_ns, event.kind, **event.data)

        if use_fast and diagnosis.verdict is not Verdict.PATCHED:
            # The fast path could not mint a patch (no checkpoint, no
            # usable attribution); run the full pipeline instead.
            return self._handle_failure_traced(failure, fast_path=False)

        if diagnosis.verdict is Verdict.NONDETERMINISTIC:
            # The plain re-execution already carried the program past
            # the failure region; let it continue normally.
            self._back_to_normal()
            record.recovery_time_ns = self.process.clock.now_ns - t_start
            record.succeeded = True
            record.notes.append("nondeterministic failure; no patch")
            return record

        if diagnosis.verdict is Verdict.NON_PATCHABLE:
            record.recovery_time_ns = self.process.clock.now_ns - t_start
            record.notes.append("diagnosis could not patch this bug")
            return record

        # PATCHED: recover by re-executing from the identified
        # checkpoint with the new patches active.
        self.policy.refresh()
        window_end = (failure.instr_count
                      + WINDOW_INTERVALS * self.manager.interval)
        recovered = self._recover(diagnosis, window_end)
        record.recovery_time_ns = self.process.clock.now_ns - t_start
        record.succeeded = recovered
        if not recovered:
            if use_fast:
                # The detection-seeded patch did not carry the replay
                # past the failure region (the guard caught a different
                # instance than the crash, or the attribution missed).
                # Retract it and run the full two-phase pipeline before
                # letting the ladder escalate.
                for patch in diagnosis.patches:
                    self.pool.remove(patch.patch_id)
                self.policy.refresh()
                self.events.emit(self.process.clock.now_ns,
                                 "sampling.fast_path_rejected",
                                 reasons=["patched re-execution failed"])
                fallback = self._handle_failure_traced(
                    failure, fast_path=False)
                fallback.recovery_time_ns += record.recovery_time_ns
                fallback.notes.insert(
                    0, "sampled fast-path patch did not stop the "
                    "failure region; fell back to the full pipeline")
                return fallback
            record.notes.append("patched re-execution failed again")
            return record
        self.events.emit(self.process.clock.now_ns, "recovery.done",
                         time_s=record.recovery_time_ns / 1e9,
                         patches=len(diagnosis.patches))
        if self.config.rollout:
            # Self-diagnosed patches count as adopted from now on
            # (post-adopt attribution), and a fresh diagnosis of a
            # rolled-back key is the one legitimate restage path.
            now = self.process.clock.now_ns
            for patch in diagnosis.patches:
                self._adopted_ns.setdefault(patch.key, now)
                if patch.key in self._rolled_back_keys:
                    self.events.emit(now, "rollout.restaged",
                                     key=patch.key)
        # Publish on creation: peers start preventing this bug while we
        # are still validating (a failed validation retracts below).
        # Under rollout this enters at STAGED (restage=True: a fresh
        # diagnosis outranks a rollback record).
        self._store_publish(diagnosis.patches, restage=True)

        # Validation + report, off the recovery path (clone-based).
        if self.config.validate and diagnosis.checkpoint is not None:
            validation = self.validator.validate(
                self.process, diagnosis.checkpoint, self.pool,
                window_end, under_test=diagnosis.patches,
                fast_path=use_fast)
            record.validation = validation
            if not validation.consistent:
                # The validator already retracted them from the shared
                # store; drop them locally too.
                for patch in diagnosis.patches:
                    self.pool.remove(patch.patch_id)
                self._retractions += 1
                self.policy.refresh()
                self.events.emit(self.process.clock.now_ns,
                                 "validation.failed",
                                 reasons=validation.reasons)
                record.notes.append(
                    "validation failed; patches removed: "
                    + "; ".join(validation.reasons))
                if use_fast:
                    # Validation rejected the detection-seeded patch:
                    # fall back to the full two-phase pipeline.  A
                    # guard false positive ends NONDETERMINISTIC there
                    # and the session continues un-degraded.
                    self.events.emit(self.process.clock.now_ns,
                                     "sampling.fast_path_rejected",
                                     reasons=validation.reasons)
                    fallback = self._handle_failure_traced(
                        failure, fast_path=False)
                    fallback.recovery_time_ns += record.recovery_time_ns
                    fallback.notes.insert(
                        0, "sampled fast-path patch rejected by "
                        "validation; fell back to the full pipeline")
                    return fallback
            else:
                if use_fast:
                    self._sampled_prevented += 1
                    self.events.emit(self.process.clock.now_ns,
                                     "sampling.prevented",
                                     patches=[p.key for p in
                                              diagnosis.patches])
                for patch in diagnosis.patches:
                    patch.validated = True
                # Publish on validation: the validated flag is sticky
                # in the store's merge, making the patch trustworthy
                # fleet-wide.
                self._store_publish(diagnosis.patches)
        flight = None
        if self.telemetry.enabled:
            flight = self.telemetry.recorder.snapshot(
                self.process.clock.now_ns)
        record.report = BugReport(
            program_name=self.process.program.name,
            diagnosis=diagnosis,
            recovery_time_ns=record.recovery_time_ns,
            validation=record.validation,
            diagnosis_log=diag_log,
            flight=flight)
        return record

    def _recover(self, diagnosis: Diagnosis, window_end: int) -> bool:
        """Re-execute from the diagnosis checkpoint in normal mode with
        patches applied; True when the failure region is passed."""
        checkpoint = diagnosis.checkpoint
        for attempt in range(MAX_RECOVERY_ATTEMPTS):
            with self.telemetry.span("recovery.attempt",
                                     attempt=attempt) as att_span:
                with self.telemetry.span("rollback",
                                         to_index=checkpoint.index):
                    self.manager.rollback_to(checkpoint)
                self.manager.drop_after(checkpoint)
                self._back_to_normal()
                self.process.reseed_entropy(
                    self.config.entropy_seed + 7000 + attempt)
                with self.telemetry.span("reexec"):
                    result = self.process.run(stop_at=window_end)
                passed = result.reason in PASS_REASONS
                att_span.set(passed=passed)
            if passed:
                return True
        return False

    def _back_to_normal(self) -> None:
        self.process.set_mode(ExtensionMode.NORMAL, self.policy)
        self.process.machine.trace_accesses = False
        self.process.extension.trace_mm = False
