"""The graceful-degradation ladder (paper §3.4/§5; DESIGN.md §10).

The paper's promise is not "every bug gets a patch" -- it is "the
service survives".  When targeted diagnosis cannot produce a patch (a
``NON_PATCHABLE`` verdict, a failed patched re-execution, or the
recovery machinery itself breaking), First-Aid falls back to weaker but
more robust strategies instead of dying.  The supervisor wraps every
failure-handling attempt in that ladder:

1. **PATCH** -- today's targeted path: diagnose, patch, re-execute,
   validate.  Byte-identical to the pre-supervisor runtime when it
   succeeds, which is the overwhelmingly common case.
2. **PREVENT_ALL** -- whole-program preventive mode: roll back to the
   *oldest* available checkpoint and re-execute the failure region with
   every preventive change active (pad all allocations, delay all
   frees, zero-fill, check parameters).  No diagnosis needed, so it
   survives a broken diagnostic engine; it trades memory overhead for
   robustness, exactly the paper's fallback mode.
3. **ROLLBACK** -- plain rollback re-execution from the latest
   checkpoint, hoping the failure was environment-dependent (the Rx
   wager, kept as a cheap next-to-last resort).
4. **RESTART** -- restart from scratch with the baseline's semantics
   (:mod:`repro.baselines.restart`): pay the downtime, lose the
   in-flight request, resync the stream at the next request boundary.
   The unconditional floor: it needs no checkpoint, no diagnosis, and
   no worker pool, so nothing the chaos harness injects can break it.

Each rung is attempted only while the per-failure simulated-time budget
(``FirstAidConfig.recovery_budget_ns``) and ``max_rungs`` allow; the
restart floor is budget-exempt (bounded instead by ``max_restarts``).
The chosen rung, per-rung outcomes, budget spend, and escalation
reasons are recorded on the :class:`~repro.core.runtime.RecoveryRecord`
(``rung``, ``rung_trail``, ``budget_spent_ns``), in telemetry
(``recovery.rung`` spans), and in the bug report's notes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import IntEnum
from typing import List, Optional, Tuple

from repro.baselines.restart import RESTART_DOWNTIME_NS
from repro.core.changes import all_preventive_policy
from repro.core.diagnosis import Diagnosis, Verdict
from repro.core.report import BugReport
from repro.core.runtime import MAX_RECOVERY_ATTEMPTS, RecoveryRecord
from repro.errors import CheckpointError
from repro.monitors.base import FailureEvent
from repro.parallel.tasks import PASS_REASONS, WINDOW_INTERVALS
from repro.util.events import EventLog


class Rung(IntEnum):
    """Ladder rungs, in escalation order."""

    PATCH = 1          # targeted diagnosis + runtime patch
    PREVENT_ALL = 2    # whole-program preventive mode, oldest checkpoint
    ROLLBACK = 3       # plain rollback re-execution
    RESTART = 4        # restart from scratch (the floor)


@dataclass
class RungAttempt:
    """One rung's outcome inside a single failure's handling."""

    rung: int
    outcome: str                # "recovered" | "failed" | "error" | "skipped"
    reason: str = ""
    #: simulated time this rung consumed (0 for skipped rungs)
    spent_ns: int = 0
    #: budget left *after* this rung (None = unbounded budget)
    budget_remaining_ns: Optional[int] = None

    def describe(self) -> str:
        name = Rung(self.rung).name if self.rung in tuple(Rung) \
            else str(self.rung)
        text = f"rung {self.rung} ({name}): {self.outcome}"
        if self.reason:
            text += f" -- {self.reason}"
        return text


class RecoverySupervisor:
    """Runs the degradation ladder for one runtime's failures.

    One instance lives per :class:`~repro.core.runtime.FirstAidRuntime`
    so restart counting is cumulative across the session.  ``handle``
    never lets an exception escape a rung: whatever a rung raises
    (chaos-injected or genuine) is recorded as that rung's failure and
    the ladder escalates.
    """

    def __init__(self, runtime) -> None:
        self.runtime = runtime
        self.config = runtime.config
        #: cumulative restarts this session (rung 4 spends one each)
        self.restarts = 0
        self._forced_exhaust = False

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------

    def handle(self, failure: FailureEvent):
        rt = self.runtime
        clock = rt.process.clock
        t0 = clock.now_ns
        self._forced_exhaust = False
        window_end = (failure.instr_count
                      + WINDOW_INTERVALS * rt.manager.interval)
        trail: List[RungAttempt] = []

        # Rung 1: the targeted path, untouched.  On success nothing is
        # added to the event log or span tree -- byte-identical to the
        # pre-supervisor runtime.
        record, attempt = self._rung_patch(failure, t0)
        trail.append(attempt)
        if record.succeeded:
            return self._finalize(record, trail, Rung.PATCH, t0)
        self._note_escalation(Rung.PATCH, attempt)

        for rung, runner in ((Rung.PREVENT_ALL, self._rung_prevent_all),
                             (Rung.ROLLBACK, self._rung_rollback)):
            skipped = self._gate(rung, t0)
            if skipped is not None:
                trail.append(skipped)
                continue
            attempt = self._run_rung(rung, runner, failure, window_end,
                                     t0)
            trail.append(attempt)
            if attempt.outcome == "recovered":
                return self._finalize(record, trail, rung, t0)
            self._note_escalation(rung, attempt)

        # Rung 4: the restart floor.  Budget-exempt; gated only by
        # max_rungs and max_restarts.
        if int(Rung.RESTART) > self.config.max_rungs:
            trail.append(RungAttempt(
                int(Rung.RESTART), "skipped",
                reason=f"max_rungs={self.config.max_rungs}",
                budget_remaining_ns=self._budget_left(t0)))
        else:
            attempt = self._run_rung(Rung.RESTART, self._rung_restart,
                                     failure, window_end, t0)
            trail.append(attempt)
            if attempt.outcome == "recovered":
                return self._finalize(record, trail, Rung.RESTART, t0,
                                      restarted=True)

        # Every allowed rung failed or was skipped: give up.  The
        # record stays succeeded=False and the runtime emits the
        # terminal recovery.gave_up event.
        record.rung = trail[-1].rung
        record.rung_trail = trail
        record.budget_spent_ns = rt.process.clock.now_ns - t0
        record.recovery_time_ns = record.budget_spent_ns
        record.notes.extend(a.describe() for a in trail[1:])
        return record

    # ------------------------------------------------------------------
    # rungs
    # ------------------------------------------------------------------

    def _rung_patch(self, failure: FailureEvent,
                    t0: int) -> Tuple[object, RungAttempt]:
        rt = self.runtime
        try:
            record = rt._handle_failure_traced(failure)
        except Exception as exc:  # noqa: BLE001 - the ladder's job
            record = RecoveryRecord(failure=failure)
            record.recovery_time_ns = rt.process.clock.now_ns - t0
            record.notes.append(f"targeted recovery raised: {exc!r}")
            return record, RungAttempt(
                int(Rung.PATCH), "error", reason=repr(exc),
                spent_ns=record.recovery_time_ns,
                budget_remaining_ns=self._budget_left(t0))
        if record.succeeded:
            outcome, reason = "recovered", ""
        else:
            outcome = "failed"
            reason = record.notes[-1] if record.notes else "diagnosis failed"
        return record, RungAttempt(
            int(Rung.PATCH), outcome, reason=reason,
            spent_ns=record.recovery_time_ns,
            budget_remaining_ns=self._budget_left(t0))

    def _rung_prevent_all(self, failure: FailureEvent,
                          window_end: int) -> Tuple[bool, str]:
        """Whole-program preventive mode from the oldest checkpoint."""
        rt = self.runtime
        if not rt.manager.checkpoints:
            return False, "no checkpoints available"
        oldest = rt.manager.checkpoints[0]
        result = rt.replay(oldest, window_end,
                           self.config.entropy_seed + 8000
                           + len(rt.recoveries),
                           "recovery.rung", all_preventive_policy(),
                           rung=int(Rung.PREVENT_ALL),
                           to_index=oldest.index)
        # Preventive mode covers the re-executed failure region only;
        # normal mode (with the targeted patch policy) resumes after.
        rt._back_to_normal()
        if result.reason in PASS_REASONS:
            return True, ""
        return False, ("preventive re-execution from checkpoint "
                       f"#{oldest.index} failed: {result.reason.value}")

    def _rung_rollback(self, failure: FailureEvent,
                       window_end: int) -> Tuple[bool, str]:
        """Plain rollback re-execution -- the Rx wager."""
        rt = self.runtime
        try:
            latest = rt.manager.latest()
        except CheckpointError as exc:
            return False, str(exc)
        for attempt in range(MAX_RECOVERY_ATTEMPTS):
            result = rt.replay(latest, window_end,
                               self.config.entropy_seed + 9000
                               + 17 * len(rt.recoveries) + attempt,
                               "recovery.rung",
                               rung=int(Rung.ROLLBACK), attempt=attempt)
            if result.reason in PASS_REASONS:
                return True, ""
        return False, (f"plain re-execution failed "
                       f"{MAX_RECOVERY_ATTEMPTS}x from checkpoint "
                       f"#{latest.index}")

    def _rung_restart(self, failure: FailureEvent,
                      window_end: int) -> Tuple[bool, str]:
        """Restart from scratch: the baseline's semantics on the
        runtime's shared clock/stream/output."""
        rt = self.runtime
        if self.restarts >= self.config.max_restarts:
            return False, (f"max_restarts={self.config.max_restarts} "
                           f"exhausted")
        self.restarts += 1
        with rt.telemetry.span("recovery.rung",
                               rung=int(Rung.RESTART),
                               n=self.restarts):
            rt.process.clock.charge(RESTART_DOWNTIME_NS)
            cursor = rt.process.input.cursor
            boundaries = self.config.restart_boundaries
            if boundaries:
                target = next((b for b in boundaries if b > cursor),
                              cursor)
            else:
                # No boundary map: the consumed tokens *are* the lost
                # in-flight request; resume exactly where the stream
                # stands.
                target = cursor
            resumed_at = rt.process.input.skip_to(target)
            rt._respawn()
        rt.events.emit(rt.process.clock.now_ns, "recovery.restart",
                       n=self.restarts, resumed_at=resumed_at,
                       downtime_ns=RESTART_DOWNTIME_NS)
        return True, ""

    # ------------------------------------------------------------------
    # budget / gating
    # ------------------------------------------------------------------

    def _budget_left(self, t0: int) -> Optional[int]:
        if self._forced_exhaust:
            return 0
        budget = self.config.recovery_budget_ns
        if budget is None:
            return None
        spent = self.runtime.process.clock.now_ns - t0
        return max(0, budget - spent)

    def _gate(self, rung: Rung, t0: int) -> Optional[RungAttempt]:
        """None when the rung may run; a skipped attempt otherwise."""
        if int(rung) > self.config.max_rungs:
            return RungAttempt(
                int(rung), "skipped",
                reason=f"max_rungs={self.config.max_rungs}",
                budget_remaining_ns=self._budget_left(t0))
        chaos = self.config.chaos
        if chaos is not None and chaos.take("budget_exhaust"):
            self._forced_exhaust = True
            self.runtime.events.emit(
                self.runtime.process.clock.now_ns,
                "chaos.budget_exhaust", before_rung=int(rung))
        left = self._budget_left(t0)
        if left == 0:
            return RungAttempt(int(rung), "skipped",
                               reason="recovery budget exhausted",
                               budget_remaining_ns=0)
        return None

    def _run_rung(self, rung: Rung, runner, failure: FailureEvent,
                  window_end: int, t0: int) -> RungAttempt:
        rt = self.runtime
        start = rt.process.clock.now_ns
        try:
            passed, reason = runner(failure, window_end)
            outcome = "recovered" if passed else "failed"
        except Exception as exc:  # noqa: BLE001 - escalate, never die
            outcome, reason = "error", repr(exc)
        return RungAttempt(int(rung), outcome, reason=reason,
                           spent_ns=rt.process.clock.now_ns - start,
                           budget_remaining_ns=self._budget_left(t0))

    def _note_escalation(self, rung: Rung,
                         attempt: RungAttempt) -> None:
        rt = self.runtime
        rt.events.emit(rt.process.clock.now_ns, "recovery.escalated",
                       from_rung=int(rung), outcome=attempt.outcome,
                       reason=attempt.reason)

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------

    def _finalize(self, record, trail: List[RungAttempt], rung: Rung,
                  t0: int, restarted: bool = False):
        rt = self.runtime
        record.rung = int(rung)
        record.rung_trail = trail
        record.budget_spent_ns = rt.process.clock.now_ns - t0
        if rung is Rung.PATCH:
            # Success on the targeted path: the traced handler already
            # did every bit of bookkeeping; add nothing.
            return record
        record.succeeded = True
        record.restarted = restarted
        record.recovery_time_ns = record.budget_spent_ns
        record.notes.extend(a.describe() for a in trail)
        rt.events.emit(rt.process.clock.now_ns, "recovery.done",
                       time_s=record.recovery_time_ns / 1e9,
                       patches=0, rung=int(rung))
        record.report = self._escalated_report(record, trail)
        return record

    def _escalated_report(self, record,
                          trail: List[RungAttempt]) -> BugReport:
        """Escalated recoveries still owe the operator a report: which
        rung saved the service, and why the targeted path did not."""
        rt = self.runtime
        diagnosis = record.diagnosis
        if diagnosis is None:
            diagnosis = Diagnosis(verdict=Verdict.NON_PATCHABLE,
                                  failure=record.failure,
                                  notes=["targeted diagnosis did not "
                                         "complete"])
        flight = None
        if rt.telemetry.enabled:
            flight = rt.telemetry.recorder.snapshot(
                rt.process.clock.now_ns)
        return BugReport(
            program_name=rt.process.program.name,
            diagnosis=diagnosis,
            recovery_time_ns=record.recovery_time_ns,
            validation=record.validation,
            diagnosis_log=EventLog(),
            flight=flight,
            notes=[a.describe() for a in trail])
