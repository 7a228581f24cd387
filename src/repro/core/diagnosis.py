"""The two-phase diagnostic engine (paper Section 4).

Phase 1 finds the latest checkpoint from which a patch can take effect:
roll back, re-execute plain (success means the bug was nondeterministic
-- only timing changed), then re-execute with *all* preventive changes
plus heap marking; walk to older checkpoints until the preventive run
passes the failure region with clean marks.

Phase 2 identifies the bug types and the patch application points.  Bug
types are tested group-by-group: the exposing change for the group
under test, preventive changes for everything else, so only the tested
types can manifest (this is the correctness property Section 4.3
contrasts with Rx).  Directly-manifesting types (overflow, dangling
write, double free) yield their call-sites from the evidence itself;
read-type bugs (dangling read, uninitialized read) are located by
binary search over call-sites with preventive changes on the
complement -- O(M log N) re-executions for M bug sites among N.

The "failure region" criterion follows Section 4.1: a re-execution
passes if it survives to ``failure_instr + window_intervals x
checkpoint_interval`` (3 intervals in the paper and here) or finishes
the program cleanly before that.

Diagnosis is rollback-heavy (6-7+ rollbacks per bug, more under binary
search), so it leans directly on the checkpoint manager's incremental
restore: every ``rollback_to`` here rewrites only the pages that differ
between the current heap and the target checkpoint (plus whatever the
re-execution dirtied), not the whole heap.

**Parallel mode.**  Probes are deterministic functions of (checkpoint,
policy, entropy salt), so independent probes can run concurrently.
With an execution backend attached (``executor``), the engine plans
each probe wave up front -- the phase-1b checkpoint walk, the phase-2
group batch, whole linear rounds, and speculative halves of the binary
search tree -- dispatches it as one batch of
:class:`~repro.parallel.tasks.ReexecTask`, then *consumes* results
along the serial decision order.  Consumption replays exactly the
bookkeeping the serial engine would have done (salt ledger, rollback
counters, events, spans), so serial and parallel modes produce
byte-identical diagnoses; only simulated timestamps differ, because
batch work is charged max-over-workers (DESIGN.md §8).  Without an
executor the engine runs the original live-process rollback loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.checkpoint.manager import CheckpointManager
from repro.checkpoint.snapshot import Checkpoint
from repro.core.bugtypes import ALL_BUG_TYPES, CHANGE_GROUPS, BugType
from repro.core.changes import (
    DiagnosticPolicy,
    changes_for,
    exposing_change,
    preventive_change,
)
from repro.core.heap_marking import HeapMarking, MarkCorruption
from repro.core.patches import PatchPool, RuntimePatch
from repro.heap.extension import ExtensionMode, Manifestations
from repro.monitors.base import FailureEvent
from repro.obs.telemetry import Telemetry
from repro.parallel.tasks import (PASS_REASONS, WINDOW_INTERVALS,
                                  ReexecTask, encode_state)
from repro.process import Process
from repro.search.state import check_policy, may_skip_plain_probe
from repro.util.callsite import CallSite
from repro.util.events import EventLog
from repro.vm.machine import RunResult


#: gauge encoding for the ``diagnosis.search_policy`` metric
_POLICY_CODES = {"fixed": 0, "bandit": 2}


class Verdict(Enum):
    PATCHED = "patched"
    NONDETERMINISTIC = "nondeterministic"
    NON_PATCHABLE = "non-patchable"


@dataclass
class Evidence:
    """What phase 2 learned about one bug type."""

    bug_type: BugType
    sites: List[CallSite] = field(default_factory=list)
    details: List[str] = field(default_factory=list)


@dataclass
class Diagnosis:
    """The diagnostic engine's result."""

    verdict: Verdict
    bug_types: List[BugType] = field(default_factory=list)
    evidence: Dict[BugType, Evidence] = field(default_factory=dict)
    patches: List[RuntimePatch] = field(default_factory=list)
    checkpoint: Optional[Checkpoint] = None
    rollbacks: int = 0
    notes: List[str] = field(default_factory=list)
    failure: Optional[FailureEvent] = None
    #: search-policy accounting for this diagnosis (DESIGN.md §13):
    #: policy name, probes executed (incl. discarded speculation),
    #: probes consumed (the serial decision path) and probes skipped
    #: by the phase-1a determinism rule.
    search_info: Optional[Dict] = None


@dataclass
class _Outcome:
    """One diagnostic re-execution's observations."""

    result: RunResult
    passed: bool
    manifestations: Manifestations
    mark_corruptions: List[MarkCorruption]
    policy: DiagnosticPolicy


@dataclass
class _ProbeReq:
    """One planned probe in a batch: checkpoint + policy + its 1-based
    serial position (which pre-assigns the entropy salt the probe would
    receive in serial decision order)."""

    checkpoint: Checkpoint
    policy: DiagnosticPolicy
    salt_offset: int
    mark: bool = False


class _LiveBatch:
    """No executor: probes run lazily on the live process, one per
    consume, exactly as the original serial engine did."""

    def __init__(self, engine: "DiagnosticEngine",
                 reqs: List[_ProbeReq], window_end: int):
        self._engine = engine
        self._reqs = reqs
        self._window_end = window_end

    def consume(self, index: int) -> "_Outcome":
        req = self._reqs[index]
        return self._engine._reexecute(req.checkpoint, req.policy,
                                       self._window_end, mark=req.mark)

    def finish(self) -> None:
        pass


class _TaskBatch:
    """A speculative probe batch on an execution backend.

    All tasks dispatch up front; the engine then consumes results along
    the serial decision order.  Each consume advances the salt ledger
    and rollback counters exactly as the live probe would have, and
    charges the main clock *incrementally* under the max-over-workers
    rule: consumed tasks are assigned round-robin to worker lanes, the
    batch's cumulative cost is the busiest lane, and consuming task i
    charges only the delta by which the busiest lane grew.  Rollback
    cost is modeled as a flat ``restore_base_ns`` per task (a worker
    clones from the already-materialized snapshot -- fork/COW -- rather
    than patching pages back into the live heap).  Discarded
    speculation charges nothing (it ran on spare cores off the critical
    path) but is counted in ``parallel.tasks_discarded``.
    """

    def __init__(self, engine: "DiagnosticEngine",
                 reqs: List[_ProbeReq], window_end: int):
        self._engine = engine
        self._reqs = reqs
        base = engine._entropy_salt
        self._tasks = [
            engine._build_probe_task(req, base + req.salt_offset,
                                     window_end)
            for req in reqs]
        if engine.chaos is not None and self._tasks:
            # Chaos markers ride on the first task of the batch -- the
            # first one the serial decision order consumes -- so an
            # armed probe fault is guaranteed to be observed.  The
            # raise fires identically in a worker or in-process; the
            # hang only bites real workers (the in-process rescue path
            # ignores it, which *is* the rescue).
            if engine.chaos.take("probe_raise"):
                self._tasks[0].raise_marker = True
            if engine.chaos.take("probe_hang"):
                self._tasks[0].hang_marker = True
        engine._probes_executed += len(self._tasks)
        engine._m_probes_total.inc(len(self._tasks))
        self._handle = engine.executor.submit(self._tasks)
        workers = max(1, engine.executor.workers)
        self._lanes_rb = [0] * workers
        self._lanes_rx = [0] * workers
        self._charged_rb = 0
        self._charged_rx = 0
        self._consumed = 0

    def consume(self, index: int) -> "_Outcome":
        engine = self._engine
        out = self._handle.result(index)
        task = self._tasks[index]
        checkpoint = self._reqs[index].checkpoint
        engine._entropy_salt = task.salt
        engine._rollbacks += 1
        engine._m_iterations.inc()
        engine._m_rollbacks.inc()
        engine._probes_consumed += 1
        engine._m_probes_consumed.inc()
        lane = self._consumed % len(self._lanes_rb)
        self._consumed += 1
        self._lanes_rb[lane] += engine.process.costs.restore_base_ns
        self._lanes_rx[lane] += out.time_ns
        delta_rb = max(self._lanes_rb) - self._charged_rb
        delta_rx = max(self._lanes_rx) - self._charged_rx
        self._charged_rb += delta_rb
        self._charged_rx += delta_rx
        clock = engine.process.clock
        with engine.telemetry.span("diagnosis.iteration",
                                   checkpoint=checkpoint.index,
                                   backend=engine.executor.name,
                                   lane=lane) as it_span:
            with engine.telemetry.span("rollback",
                                       to_index=checkpoint.index):
                clock.charge(delta_rb)
            with engine.telemetry.span("reexec"):
                clock.charge(delta_rx)
            it_span.set(passed=out.passed,
                        reason=out.result.reason.value,
                        task_time_ns=out.time_ns)
        engine.events.emit(
            clock.now_ns, "diagnosis.iteration",
            checkpoint=checkpoint.index, passed=out.passed,
            reason=out.result.reason.value,
            overflow_hits=len(out.manifestations.overflow_hits),
            dangling_write_hits=len(
                out.manifestations.dangling_write_hits),
            double_frees=len(out.manifestations.double_free_events),
            mark_corruptions=len(out.mark_corruptions))
        return _Outcome(out.result, out.passed, out.manifestations,
                        out.mark_corruptions, out.policy)

    def finish(self) -> None:
        self._engine.executor.note_discarded(
            self._handle.executed - self._consumed)


class DiagnosticEngine:
    """Runs diagnosis for one failure of one process."""

    def __init__(self, process: Process, manager: CheckpointManager,
                 pool: PatchPool, events: Optional[EventLog] = None,
                 max_checkpoint_search: int = 8,
                 window_intervals: int = WINDOW_INTERVALS,
                 max_rollbacks: int = 200,
                 use_heap_marking: bool = True,
                 site_search: str = "binary",
                 telemetry: Optional[Telemetry] = None,
                 executor=None,
                 chaos=None,
                 search_policy: str = "fixed"):
        if site_search not in ("binary", "linear"):
            raise ValueError(f"site_search must be 'binary' or "
                             f"'linear', not {site_search!r}")
        self.process = process
        self.manager = manager
        self.pool = pool
        self.events = events if events is not None else EventLog()
        self.telemetry = telemetry or Telemetry.disabled()
        self._m_iterations = \
            self.telemetry.metrics.counter("diagnosis.iterations")
        self._m_rollbacks = \
            self.telemetry.metrics.counter("diagnosis.rollbacks")
        self._m_probes_total = \
            self.telemetry.metrics.counter("diagnosis.probes_total")
        self._m_probes_consumed = \
            self.telemetry.metrics.counter("diagnosis.probes_consumed")
        self._m_probes_pruned = \
            self.telemetry.metrics.counter("diagnosis.probes_pruned")
        self._m_policy = \
            self.telemetry.metrics.gauge("diagnosis.search_policy")
        self.max_checkpoint_search = max_checkpoint_search
        self.window_intervals = window_intervals
        self.max_rollbacks = max_rollbacks
        #: ablation knobs: disabling heap marking reproduces the
        #: Figure 3 checkpoint misidentification; 'linear' site search
        #: costs O(M*N) rollbacks instead of O(M log N).
        self.use_heap_marking = use_heap_marking
        self.site_search = site_search
        #: execution backend for probe batches (see module docstring);
        #: None keeps the original live-process serial loop.
        self.executor = executor
        #: Optional :class:`~repro.chaos.ChaosPlan`; consulted once per
        #: probe, never per instruction.
        self.chaos = chaos
        #: Search policy (repro.search): "bandit" adds the phase-1a
        #: determinism skip to the one probe schedule.
        self.search_policy = check_policy(search_policy)
        #: Disable the phase-1a "plain replay must reproduce" prune.
        #: The fallback after a rejected sampled fast path sets this:
        #: the failing run carried a guard the plain replay lacks, so
        #: the prune's premise does not hold there -- a guard false
        #: positive must reach the plain probe to read as
        #: NONDETERMINISTIC.
        self.force_plain_probe = False
        self._rollbacks = 0
        self._probes_executed = 0
        self._probes_consumed = 0
        self._probes_pruned = 0
        self._entropy_salt = 1000
        #: encoded snapshots per checkpoint index -- probes from the
        #: same checkpoint reuse the materialization.
        self._state_cache: Dict[int, tuple] = {}

    # ------------------------------------------------------------------
    # public entry
    # ------------------------------------------------------------------

    def diagnose(self, failure: FailureEvent) -> Diagnosis:
        self._probes_executed = 0
        self._probes_consumed = 0
        self._probes_pruned = 0
        self._m_policy.set(_POLICY_CODES[self.search_policy])
        with self.telemetry.span("diagnosis") as span:
            diag = self._diagnose(failure)
            diag.search_info = {
                "policy": self.search_policy,
                "probes_executed": self._probes_executed,
                "probes_consumed": self._probes_consumed,
                "probes_pruned": self._probes_pruned,
            }
            span.set(verdict=diag.verdict.value,
                     rollbacks=diag.rollbacks,
                     search_policy=self.search_policy,
                     probes_executed=self._probes_executed,
                     probes_consumed=self._probes_consumed,
                     probes_pruned=self._probes_pruned)
            return diag

    def diagnose_sampled(self, failure: FailureEvent) -> Diagnosis:
        """Fast-path diagnosis from a sampled guard hit (DESIGN.md
        §15).  The guard already captured the bug type and the
        responsible call-site, so phases 1 and 2 are skipped entirely:
        the change-group is seeded straight from the detection
        evidence and a patch minted at the attributed site.  The
        rollback target is the oldest checkpoint within one
        failure-region window -- a guard-caught bug's trigger lies at
        most that far behind detection (the Section 4.1 reasoning the
        full pipeline applies forward).  Validation is the safety
        net: the caller falls back to the full pipeline when it
        rejects the detection-seeded patch."""
        det = failure.detection
        self._m_policy.set(_POLICY_CODES[self.search_policy])
        with self.telemetry.span("diagnosis.sampled") as span:
            diag = Diagnosis(verdict=Verdict.NON_PATCHABLE,
                             failure=failure)
            self.events.emit(self.process.clock.now_ns,
                             "diagnosis.start",
                             failure=failure.describe(), sampled=True)
            candidates = self.manager.recent(self.window_intervals + 1)
            if det is None or det.site is None or not candidates:
                diag.notes.append(
                    "sampled detection lacks attribution or "
                    "checkpoints; full pipeline required")
                span.set(verdict=diag.verdict.value, fast_path=True)
                return diag
            checkpoint = candidates[-1]   # oldest within the window
            diag.checkpoint = checkpoint
            diag.bug_types = [det.bug_type]
            evidence = Evidence(det.bug_type, [det.site])
            evidence.details = [det.describe()]
            diag.evidence[det.bug_type] = evidence
            now = self.process.clock.now_ns
            patch = self.pool.new_patch(det.bug_type, det.site, now)
            diag.patches = [patch]
            diag.verdict = Verdict.PATCHED
            diag.notes.append(
                "sampled fast path: change-group seeded from the "
                "guard's detection evidence (phases 1-2 skipped)")
            diag.search_info = {
                "policy": self.search_policy,
                "probes_executed": 0,
                "probes_consumed": 0,
                "probes_pruned": 0,
                "fast_path": True,
            }
            self.events.emit(
                self.process.clock.now_ns, "diagnosis.sampled_fast_path",
                bug_type=det.bug_type.value, site=repr(det.site),
                checkpoint=checkpoint.index)
            span.set(verdict=diag.verdict.value, fast_path=True)
            self._log_done(diag)
            return diag

    def _diagnose(self, failure: FailureEvent) -> Diagnosis:
        window_end = (failure.instr_count
                      + self.window_intervals * self.manager.interval)
        self._rollbacks = 0
        diag = Diagnosis(verdict=Verdict.NON_PATCHABLE, failure=failure)
        self.events.emit(self.process.clock.now_ns, "diagnosis.start",
                         failure=failure.describe())

        candidates = self.manager.recent(self.max_checkpoint_search)
        if not candidates:
            diag.notes.append("no checkpoints available")
            return diag

        # Phase 1a: plain re-execution from the latest checkpoint.
        # With an empty patch pool the production run *was* the plain
        # policy over the same journal, so for a deterministic program
        # (no reachable RAND: probe outcomes are pure functions of
        # checkpoint and policy) this probe must reproduce the failure
        # -- skip it.
        if may_skip_plain_probe(self.search_policy, self.process.program) \
                and len(self.pool) == 0 and not self.force_plain_probe:
            self._note_pruned(
                diag, "1a", "deterministic program with empty patch "
                "pool: plain re-execution must reproduce the failure")
        else:
            outcome = self._reexecute(candidates[0], DiagnosticPolicy(),
                                      window_end)
            if outcome.passed:
                diag.verdict = Verdict.NONDETERMINISTIC
                diag.rollbacks = self._rollbacks
                diag.notes.append(
                    "plain re-execution passed the failure region; "
                    "failure attributed to a nondeterministic bug")
                self._log_done(diag)
                return diag

        # Phase 1b: all-preventive probes, newest checkpoint first,
        # with heap marking to expose pre-checkpoint bug triggers.
        # Probes from different checkpoints are independent, so the
        # whole walk dispatches speculatively as one batch; the serial
        # early-break simply leaves the rest of the batch unconsumed.
        chosen: Optional[Checkpoint] = None
        batch = self._dispatch(
            [_ProbeReq(cp, _all_preventive(), j + 1,
                       mark=self.use_heap_marking)
             for j, cp in enumerate(candidates)],
            window_end)
        try:
            for j, checkpoint in enumerate(candidates):
                if self._rollbacks >= self.max_rollbacks:
                    break
                outcome = batch.consume(j)
                if outcome.passed and not outcome.mark_corruptions:
                    chosen = checkpoint
                    break
                if outcome.mark_corruptions:
                    diag.notes.append(
                        f"checkpoint #{checkpoint.index}: heap marking "
                        f"exposed {len(outcome.mark_corruptions)} "
                        f"pre-checkpoint corruption(s); trying earlier")
        finally:
            batch.finish()
        if chosen is None:
            diag.rollbacks = self._rollbacks
            diag.notes.append(
                "no checkpoint found from which preventive changes "
                "survive the failure; bug is non-patchable")
            self._log_done(diag)
            return diag
        diag.checkpoint = chosen
        self.events.emit(self.process.clock.now_ns,
                         "diagnosis.checkpoint_identified",
                         index=chosen.index, instr=chosen.instr_count)

        # Phase 2: identify bug types group by group.  Each probe uses
        # exposing changes for its group and preventive changes for the
        # fixed complement, so the probes are mutually independent and
        # dispatch as one batch.
        identified: List[BugType] = []
        batch = self._dispatch(
            [_ProbeReq(chosen, self._group_policy(group), i + 1)
             for i, group in enumerate(CHANGE_GROUPS)],
            window_end)
        try:
            for i, group in enumerate(CHANGE_GROUPS):
                if self._rollbacks >= self.max_rollbacks:
                    break
                outcome = batch.consume(i)
                identified.extend(
                    self._interpret_group(group, outcome, diag))
        finally:
            batch.finish()

        if not identified:
            diag.rollbacks = self._rollbacks
            diag.notes.append(
                "preventive changes survive but no bug type "
                "manifested under exposure; non-patchable")
            self._log_done(diag)
            return diag
        diag.bug_types = identified

        # Phase 2b: call-sites for read-type bugs via binary search.
        for bug_type in identified:
            evidence = diag.evidence[bug_type]
            if bug_type.identified_directly:
                continue
            universe = self._universe_for(bug_type, chosen, window_end)
            sites = self._binary_search_sites(
                chosen, bug_type, universe, window_end, identified)
            evidence.sites = sites
            evidence.details.append(
                f"binary search over {len(universe)} call-sites")

        # Patch generation.
        now = self.process.clock.now_ns
        for bug_type in identified:
            for site in diag.evidence[bug_type].sites:
                patch = self.pool.new_patch(bug_type, site, now)
                if patch not in diag.patches:
                    diag.patches.append(patch)
        diag.verdict = (Verdict.PATCHED if diag.patches
                        else Verdict.NON_PATCHABLE)
        if not diag.patches:
            diag.notes.append("bug types identified but no call-sites "
                              "could be isolated")
        diag.rollbacks = self._rollbacks
        self._log_done(diag)
        return diag

    def _note_pruned(self, diag: Diagnosis, phase: str,
                     reason: str) -> None:
        """Account for a probe whose outcome the determinism rule
        forced.  The salt ledger advances by one exactly as consuming
        the probe would have, so every later probe sees the same salt
        under any policy."""
        self._entropy_salt += 1
        self._probes_pruned += 1
        self._m_probes_pruned.inc()
        diag.notes.append(f"probe pruned ({phase}): {reason}")
        self.events.emit(self.process.clock.now_ns,
                         "diagnosis.probe_pruned",
                         phase=phase, reason=reason)

    def _log_done(self, diag: Diagnosis) -> None:
        self.events.emit(
            self.process.clock.now_ns, "diagnosis.done",
            verdict=diag.verdict.value,
            bug_types=[b.value for b in diag.bug_types],
            patches=len(diag.patches), rollbacks=diag.rollbacks)

    # ------------------------------------------------------------------
    # re-execution plumbing
    # ------------------------------------------------------------------

    def _reexecute(self, checkpoint: Checkpoint, policy: DiagnosticPolicy,
                   window_end: int, mark: bool = False) -> _Outcome:
        process = self.process
        if self.chaos is not None:
            from repro.chaos.faults import ChaosError
            if self.chaos.take("probe_raise"):
                self.events.emit(process.clock.now_ns,
                                 "chaos.probe_raise",
                                 checkpoint=checkpoint.index)
                raise ChaosError("injected probe crash during "
                                 "diagnostic re-execution")
            if self.chaos.take("probe_hang"):
                # An in-process hung probe: the engine's deadline fires
                # after probe_timeout_ns of simulated time, then the
                # probe is rescued by re-running it inline.
                process.clock.charge(self.chaos.probe_timeout_ns)
                self.events.emit(process.clock.now_ns,
                                 "chaos.probe_hang_rescued",
                                 checkpoint=checkpoint.index,
                                 deadline_ns=self.chaos.probe_timeout_ns)
        with self.telemetry.span("diagnosis.iteration",
                                 checkpoint=checkpoint.index) as it_span:
            with self.telemetry.span("rollback",
                                     to_index=checkpoint.index):
                self.manager.rollback_to(checkpoint)
            self._rollbacks += 1
            self._m_iterations.inc()
            self._m_rollbacks.inc()
            self._probes_executed += 1
            self._probes_consumed += 1
            self._m_probes_total.inc()
            self._m_probes_consumed.inc()
            self._entropy_salt += 1
            process.reseed_entropy(self._entropy_salt)
            marking: Optional[HeapMarking] = None
            if mark:
                marking = HeapMarking(process.mem, process.allocator)
                marking.apply()
            saved_costs = process.costs
            process.set_costs(saved_costs.replay_model())
            process.set_mode(ExtensionMode.DIAGNOSTIC, policy)
            try:
                with self.telemetry.span("reexec"):
                    result = process.run(stop_at=window_end)
            finally:
                process.set_costs(saved_costs)
            manifestations = process.extension.scan_manifestations()
            mark_corruptions = marking.scan() if marking else []
            passed = result.reason in PASS_REASONS
            it_span.set(passed=passed, reason=result.reason.value)
        self.events.emit(
            process.clock.now_ns, "diagnosis.iteration",
            checkpoint=checkpoint.index, passed=passed,
            reason=result.reason.value,
            overflow_hits=len(manifestations.overflow_hits),
            dangling_write_hits=len(manifestations.dangling_write_hits),
            double_frees=len(manifestations.double_free_events),
            mark_corruptions=len(mark_corruptions))
        return _Outcome(result, passed, manifestations, mark_corruptions,
                        policy)

    # ------------------------------------------------------------------
    # batch plumbing (parallel mode)
    # ------------------------------------------------------------------

    def _dispatch(self, reqs: List[_ProbeReq], window_end: int):
        """A batch over the configured backend; the live-process lazy
        batch when no executor is attached."""
        if self.executor is None:
            return _LiveBatch(self, reqs, window_end)
        return _TaskBatch(self, reqs, window_end)

    def _probe_one(self, checkpoint: Checkpoint,
                   policy: DiagnosticPolicy, window_end: int,
                   mark: bool = False) -> _Outcome:
        """A single probe through the batch protocol (a batch of one),
        so serial and parallel modes share one code path."""
        batch = self._dispatch([_ProbeReq(checkpoint, policy, 1, mark)],
                               window_end)
        try:
            return batch.consume(0)
        finally:
            batch.finish()

    def _encoded_state(self, checkpoint: Checkpoint) -> tuple:
        enc = self._state_cache.get(checkpoint.index)
        if enc is None:
            enc = encode_state(checkpoint.materialize())
            self._state_cache[checkpoint.index] = enc
        return enc

    def _build_probe_task(self, req: _ProbeReq, salt: int,
                          window_end: int) -> ReexecTask:
        checkpoint = req.checkpoint
        enc = self._encoded_state(checkpoint)
        machine = enc[0]
        process = self.process
        # Workers replay from the journal alone; make sure it already
        # holds every token the probe window could consume (each
        # instruction reads at most one token).  The live process later
        # reads the same values back out of the journal, so prefetching
        # changes nothing behaviorally.
        need = ((window_end - checkpoint.instr_count)
                - (process.input.journal_length - machine[4]))
        if need > 0:
            process.input.prefetch(need)
        return ReexecTask.from_process(
            process, enc, window_end, kind="probe",
            label=f"probe:cp{checkpoint.index}:salt{salt}",
            salt=salt, policy=req.policy, mark=req.mark)

    # ------------------------------------------------------------------
    # policies for phase 2
    # ------------------------------------------------------------------

    def _group_policy(self, group: Sequence[BugType]) -> DiagnosticPolicy:
        """Exposing changes for the group under test; preventive for
        every other type.  The complement is fixed (Section 4.3's
        isolation property: only the tested types can manifest), which
        also makes the three group probes independent of each other's
        results -- the precondition for dispatching them as one batch."""
        others = [b for b in ALL_BUG_TYPES if b not in group]
        changes = (changes_for(group, exposing=True)
                   + changes_for(others, exposing=False))
        return DiagnosticPolicy(alloc_default=changes,
                                free_default=changes)

    def _interpret_group(self, group: Sequence[BugType],
                         outcome: _Outcome,
                         diag: Diagnosis) -> List[BugType]:
        """Map a group test's observations to identified bug types and
        record the direct evidence (call-sites where available)."""
        found: List[BugType] = []
        man = outcome.manifestations
        if BugType.BUFFER_OVERFLOW in group and man.overflow_hits:
            sites = _dedupe(hit.alloc_site for hit in man.overflow_hits
                            if hit.alloc_site is not None)
            evidence = Evidence(BugType.BUFFER_OVERFLOW, sites)
            evidence.details = [
                f"canary corruption at object 0x{hit.user_addr:x} "
                f"({hit.side}-padding, offsets {hit.offsets[:4]}...)"
                for hit in man.overflow_hits]
            diag.evidence[BugType.BUFFER_OVERFLOW] = evidence
            found.append(BugType.BUFFER_OVERFLOW)
        if BugType.DANGLING_WRITE in group and man.dangling_write_hits:
            sites = _dedupe(hit.free_site
                            for hit in man.dangling_write_hits
                            if hit.free_site is not None)
            evidence = Evidence(BugType.DANGLING_WRITE, sites)
            evidence.details = [
                f"canary corruption in delay-freed object "
                f"0x{hit.user_addr:x}" for hit in man.dangling_write_hits]
            diag.evidence[BugType.DANGLING_WRITE] = evidence
            found.append(BugType.DANGLING_WRITE)
        if BugType.DOUBLE_FREE in group and man.double_free_events:
            sites = _dedupe(
                (ev.first_site or ev.second_site)
                for ev in man.double_free_events
                if (ev.first_site or ev.second_site) is not None)
            evidence = Evidence(BugType.DOUBLE_FREE, sites)
            evidence.details = [
                f"free(0x{ev.user_addr:x}) called twice"
                for ev in man.double_free_events]
            diag.evidence[BugType.DOUBLE_FREE] = evidence
            found.append(BugType.DOUBLE_FREE)
        if not outcome.passed:
            # A failure under this group's exposure, with every other
            # type prevented, manifests the group's read-type bug.
            if BugType.DANGLING_READ in group:
                diag.evidence[BugType.DANGLING_READ] = Evidence(
                    BugType.DANGLING_READ,
                    details=[f"re-execution failed under canary-filled "
                             f"delay-free: {outcome.result!r}"])
                found.append(BugType.DANGLING_READ)
            elif BugType.UNINIT_READ in group:
                diag.evidence[BugType.UNINIT_READ] = Evidence(
                    BugType.UNINIT_READ,
                    details=[f"re-execution failed under canary-filled "
                             f"allocation: {outcome.result!r}"])
                found.append(BugType.UNINIT_READ)
        return found

    # ------------------------------------------------------------------
    # binary search for read-type bug call-sites
    # ------------------------------------------------------------------

    def _universe_for(self, bug_type: BugType, checkpoint: Checkpoint,
                      window_end: int) -> List[CallSite]:
        """All candidate call-sites after the checkpoint: observed by a
        fresh all-preventive run (which always passes)."""
        outcome = self._probe_one(checkpoint, _all_preventive(),
                                  window_end)
        if bug_type is BugType.UNINIT_READ:
            return list(outcome.policy.seen_alloc_sites)
        return list(outcome.policy.seen_free_sites)

    def _search_policy(self, bug_type: BugType,
                       exposed: Iterable[CallSite],
                       all_types: Sequence[BugType]) -> DiagnosticPolicy:
        """Preventive everywhere; exposing override on the exposed
        call-site subset.  Prevention of the complement is what keeps
        other (not yet found) bug sites from interfering."""
        preventive_all = changes_for(ALL_BUG_TYPES, exposing=False)
        expose = [exposing_change(bug_type),
                  *(preventive_change(b) for b in ALL_BUG_TYPES
                    if b is not bug_type)]
        overrides = {site: expose for site in exposed}
        if bug_type is BugType.UNINIT_READ:
            return DiagnosticPolicy(alloc_default=preventive_all,
                                    free_default=preventive_all,
                                    alloc_overrides=overrides)
        return DiagnosticPolicy(alloc_default=preventive_all,
                                free_default=preventive_all,
                                free_overrides=overrides)

    def _binary_search_sites(self, checkpoint: Checkpoint,
                             bug_type: BugType,
                             universe: List[CallSite], window_end: int,
                             all_types: Sequence[BugType]) \
            -> List[CallSite]:
        identified: List[CallSite] = []
        remaining = list(universe)
        while remaining and self._rollbacks < self.max_rollbacks:
            # Round check: expose everything still unidentified.  This
            # probe gates the next round, so it cannot overlap with it;
            # it runs as a batch of one.
            outcome = self._probe_one(
                checkpoint,
                self._search_policy(bug_type, remaining, all_types),
                window_end)
            if outcome.passed:
                break  # all bug sites found
            if self.site_search == "binary":
                site = self._bisect_round(checkpoint, bug_type,
                                          remaining, all_types,
                                          window_end)
            else:
                site = self._linear_round(checkpoint, bug_type,
                                          remaining, all_types,
                                          window_end)
            if site is None:
                break
            identified.append(site)
            remaining.remove(site)
            self.events.emit(
                self.process.clock.now_ns, "diagnosis.site_identified",
                bug_type=bug_type.value, site=repr(site))
        return identified

    def _bisect_round(self, checkpoint, bug_type, remaining, all_types,
                      window_end) -> Optional[CallSite]:
        """Halving, speculated across workers.

        Each bisect probe depends on the previous answer, so the round
        cannot batch linearly.  Instead it dispatches the breadth-first
        frontier of the *decision tree* (up to ``workers`` nodes, each
        probing the first half of its candidate range; ~log2(fanout)
        levels per dispatch), then walks the serial decision path
        through the precomputed results.  Tree nodes at the same depth
        share a salt offset -- serial execution would give the depth-d
        probe salt base+d+1 whichever branch it took -- so the consumed
        path reproduces the serial salt sequence exactly and the
        unvisited branches are discarded speculation.  Without an
        executor the frontier is one node: plain serial halving.
        """
        candidates = tuple(remaining)
        fanout = self.executor.workers if self.executor is not None \
            else 1
        while len(candidates) > 1:
            nodes: List[Tuple[int, tuple]] = []
            queue: List[Tuple[int, tuple]] = [(0, candidates)]
            while queue and len(nodes) < fanout:
                depth, cand = queue.pop(0)
                if len(cand) <= 1:
                    continue
                nodes.append((depth, cand))
                queue.append((depth + 1, cand[:len(cand) // 2]))
                queue.append((depth + 1, cand[len(cand) // 2:]))
            reqs = [
                _ProbeReq(checkpoint,
                          self._search_policy(
                              bug_type, list(cand[:len(cand) // 2]),
                              all_types),
                          depth + 1)
                for depth, cand in nodes]
            index = {cand: i for i, (_, cand) in enumerate(nodes)}
            batch = self._dispatch(reqs, window_end)
            try:
                node = candidates
                while len(node) > 1 and node in index:
                    if self._rollbacks >= self.max_rollbacks:
                        return None
                    outcome = batch.consume(index[node])
                    half = node[:len(node) // 2]
                    node = (half if not outcome.passed
                            else node[len(node) // 2:])
            finally:
                batch.finish()
            candidates = node
        return candidates[0]

    def _linear_round(self, checkpoint, bug_type, remaining, all_types,
                      window_end) -> Optional[CallSite]:
        """Ablation baseline: probe one call-site at a time.  The
        per-candidate probes are independent, so the whole round
        dispatches as one batch; consumption stops at the first failing
        candidate (the serial decision), discarding the rest."""
        reqs = [_ProbeReq(checkpoint,
                          self._search_policy(bug_type, [candidate],
                                              all_types),
                          i + 1)
                for i, candidate in enumerate(remaining)]
        batch = self._dispatch(reqs, window_end)
        try:
            for i, candidate in enumerate(remaining):
                if self._rollbacks >= self.max_rollbacks:
                    return None
                outcome = batch.consume(i)
                if not outcome.passed:
                    return candidate
            return None
        finally:
            batch.finish()


def _all_preventive() -> DiagnosticPolicy:
    changes = changes_for(ALL_BUG_TYPES, exposing=False)
    return DiagnosticPolicy(alloc_default=changes, free_default=changes)


def _dedupe(sites: Iterable[CallSite]) -> List[CallSite]:
    seen = {}
    for site in sites:
        seen.setdefault(site, None)
    return list(seen)
