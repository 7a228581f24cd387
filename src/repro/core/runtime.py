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

import time
from dataclasses import dataclass, field
from typing import Iterable, List, Optional

from repro.checkpoint.manager import DEFAULT_INTERVAL, CheckpointManager
from repro.core.diagnosis import Diagnosis, DiagnosticEngine, Verdict
from repro.core.fleet import FleetMember
from repro.core.patches import PatchPolicy, PatchPool
from repro.core.report import BugReport
from repro.core.validation import ValidationEngine, ValidationResult
from repro.heap.extension import ExtensionMode
from repro.heap.quarantine import DEFAULT_THRESHOLD
from repro.monitors import FailureEvent, default_monitors
from repro.obs.telemetry import Telemetry
from repro.parallel.executor import make_executor
from repro.parallel.tasks import PASS_REASONS, WINDOW_INTERVALS
from repro.process import Process
from repro.sampling import SampledGuards
from repro.search.state import check_policy
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
    #: the runtime's :class:`~repro.core.fleet.FleetMember` publishes
    #: a beacon into ``<store>.health`` at every store-refresh boundary
    #: and at session exit.  Health failures degrade (``health.error``
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
    #: VM execution tier.  Only "compiled" (repro.vm.compile, the
    #: machine's one tier) is accepted: anything else raises
    #: ValueError when the runtime builds its process.  The field
    #: stays until the e2e benchmark stops pinning it (DESIGN.md §11).
    vm_tier: str = "compiled"
    #: Diagnosis search policy (repro.search, DESIGN.md §13).
    #: "fixed" is the paper's schedule, and Table 3 runs it.
    #: "bandit" departs from it only for a program with no reachable
    #: RAND: it skips the phase-1a plain probe, and for a dangling
    #: read it traces phase 2b's universe probe and confirms the free
    #: sites of the dangling reads it recorded instead of bisecting
    #: for them (falling back to the bisection when a confirmation
    #: deviates).  The produced Diagnosis is byte-identical under
    #: both.  The name "bandit" is historical.
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
        #: Sampled detections that ended in a validated patch: bugs
        #: caught and fixed *before* any crash (the fleet report's
        #: "prevented" column).
        self.sampled_prevented = 0
        #: Shared store, health beacons and rollout record
        #: (repro.core.fleet); None without config.store_path.  Built
        #: before the policy: its startup sync lets a patch any peer
        #: already published prevent its bug from the first
        #: instruction.
        self.fleet = (FleetMember(self) if self.config.store_path
                      else None)
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
            executor=self.executor, chaos=self.config.chaos)
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
            **kw)
        process.extension.patch_memory_limit = self.config.max_patch_memory
        if self.config.sampling_rate > 0:
            process.extension.guards = SampledGuards(
                self.config.sampling_rate, self.config.entropy_seed,
                self.config.chaos)
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
        if self.fleet is not None:
            manager.on_boundary = self.fleet.on_boundary
        return manager

    @property
    def store(self):
        """The shared patch store (None without a store)."""
        return self.fleet.store if self.fleet is not None else None

    @property
    def health(self):
        """The fleet health channel (None without a store)."""
        return self.fleet.health if self.fleet is not None else None

    def close(self) -> None:
        """Release every external resource: the worker pool (no-op in
        serial mode) and, defensively, the fleet channels' file
        locks."""
        if self.executor is not None:
            self.executor.close()
        if self.fleet is not None:
            self.fleet.close()

    def __enter__(self) -> "FirstAidRuntime":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

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
            if self.fleet is not None:
                self.fleet.on_failure(failure.time_ns)
            record = self._handle_failure(failure)
            self.recoveries.append(record)
            if not record.succeeded:
                return self._finish(SessionResult("died", self.recoveries))

    def _finish(self, session: SessionResult) -> SessionResult:
        if self.fleet is not None:
            self.fleet.on_exit(session.reason)
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
            self._pause_guards(True)
            try:
                if self.config.supervisor:
                    record = self._supervisor().handle(failure)
                else:
                    record = self._handle_failure_traced(failure)
            finally:
                self._pause_guards(False)
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

    def _pause_guards(self, paused: bool) -> None:
        guards = self.process.extension.guards
        if guards is not None:
            guards.paused = paused

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
        if self.fleet is not None:
            self.fleet.on_respawn()

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
                return self._fall_back(failure, record,
                                       ["patched re-execution failed"],
                                       "did not stop the failure region")
            record.notes.append("patched re-execution failed again")
            return record
        self.events.emit(self.process.clock.now_ns, "recovery.done",
                         time_s=record.recovery_time_ns / 1e9,
                         patches=len(diagnosis.patches))
        if self.fleet is not None:
            # Published on creation; a failed validation retracts.
            self.fleet.on_patches_created(diagnosis.patches)

        # Validation + report, off the recovery path (clone-based).
        if self.config.validate and diagnosis.checkpoint is not None:
            validation = self.validator.validate(
                self.process, diagnosis.checkpoint, self.pool,
                window_end, under_test=diagnosis.patches,
                fast_path=use_fast)
            record.validation = validation
            if not validation.consistent:
                if self.fleet is not None:
                    self.fleet.retract(diagnosis.patches)
                for patch in diagnosis.patches:
                    self.pool.remove(patch.patch_id)
                self.policy.refresh()
                self.events.emit(self.process.clock.now_ns,
                                 "validation.failed",
                                 reasons=validation.reasons)
                record.notes.append(
                    "validation failed; patches removed: "
                    + "; ".join(validation.reasons))
                if use_fast:
                    return self._fall_back(failure, record,
                                           validation.reasons,
                                           "rejected by validation")
            else:
                if use_fast:
                    self.sampled_prevented += 1
                    self.events.emit(self.process.clock.now_ns,
                                     "sampling.prevented",
                                     patches=[p.key for p in
                                              diagnosis.patches])
                for patch in diagnosis.patches:
                    patch.validated = True
                if self.fleet is not None:
                    self.fleet.publish(diagnosis.patches)
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

    def _fall_back(self, failure: FailureEvent, record: RecoveryRecord,
                   reasons: List[str], why: str) -> RecoveryRecord:
        """The detection-seeded patch failed (``why``): run the full
        two-phase pipeline.  A guard false positive ends
        NONDETERMINISTIC there and the session continues un-degraded."""
        self.events.emit(self.process.clock.now_ns,
                         "sampling.fast_path_rejected", reasons=reasons)
        fallback = self._handle_failure_traced(failure, fast_path=False)
        fallback.recovery_time_ns += record.recovery_time_ns
        fallback.notes.insert(0, f"sampled fast-path patch {why}; fell "
                              "back to the full pipeline")
        return fallback

    def _recover(self, diagnosis: Diagnosis, window_end: int) -> bool:
        """Re-execute from the diagnosis checkpoint in normal mode with
        patches applied; True when the failure region is passed."""
        for attempt in range(MAX_RECOVERY_ATTEMPTS):
            result = self.replay(
                diagnosis.checkpoint, window_end,
                self.config.entropy_seed + 7000 + attempt,
                "recovery.attempt", attempt=attempt)
            if result.reason in PASS_REASONS:
                return True
        return False

    def replay(self, checkpoint, window_end: int, seed: int, span: str,
               policy=None, **attrs) -> RunResult:
        """Roll back to ``checkpoint`` and re-execute in normal mode
        under ``policy`` (default: the patch policy) with entropy
        ``seed`` up to ``window_end``.  Recovery and ladder rungs 2-3
        all recover through here; ``span`` (with ``attrs``) wraps the
        rollback and re-execution spans and records ``passed``."""
        with self.telemetry.span(span, **attrs) as outer:
            with self.telemetry.span("rollback",
                                     to_index=checkpoint.index):
                self.manager.rollback_to(checkpoint)
            self.manager.drop_after(checkpoint)
            self._back_to_normal(policy)
            self.process.reseed_entropy(seed)
            with self.telemetry.span("reexec"):
                result = self.process.run(stop_at=window_end)
            outer.set(passed=result.reason in PASS_REASONS)
        return result

    def _back_to_normal(self, policy=None) -> None:
        self.process.set_mode(ExtensionMode.NORMAL,
                              self.policy if policy is None else policy)
