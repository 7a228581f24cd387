"""The Rx baseline (Qin et al., SOSP 2005).

Rx survives failures by rolling back to a checkpoint and re-executing
under environmental changes applied to *all* memory objects.  It
deliberately performs no in-depth diagnosis: once the program passes
the buggy region, the changes are disabled (their whole-heap cost is
too high to keep), so nothing prevents the same deterministic bug from
firing again -- the repeating throughput dips of Figure 4 and the
call-site/object blow-up of Table 4.

The implementation reuses this repo's checkpoint manager and the
all-preventive whole-heap policy; what it *doesn't* reuse is exactly
what the paper contrasts: no exposing changes, no bug-type isolation,
no call-site patches, no persistence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional

from repro.checkpoint.manager import DEFAULT_INTERVAL, CheckpointManager
from repro.core.changes import all_preventive_policy
from repro.heap.extension import ExtensionMode
from repro.monitors import FailureEvent, default_monitors
from repro.parallel.tasks import PASS_REASONS, WINDOW_INTERVALS
from repro.process import Process
from repro.util.events import EventLog
from repro.util.simclock import CostModel
from repro.vm.io import OutputLog
from repro.vm.machine import RunReason
from repro.vm.program import Program


@dataclass
class RxRecovery:
    """One Rx recovery, with the Table 4 accounting."""

    failure: FailureEvent
    recovery_time_ns: int = 0
    succeeded: bool = False
    rollbacks: int = 0
    #: distinct allocation+deallocation call-sites the whole-heap
    #: changes touched during the buggy region.
    affected_callsites: int = 0
    #: memory objects (operations) the changes were applied to.
    affected_objects: int = 0


@dataclass
class RxSessionResult:
    reason: str
    recoveries: List[RxRecovery] = field(default_factory=list)


class RxRuntime:
    """Run one program under the Rx recovery discipline."""

    def __init__(self, program: Program,
                 input_tokens: Optional[Iterable[int]] = None,
                 checkpoint_interval: int = DEFAULT_INTERVAL,
                 window_intervals: int = WINDOW_INTERVALS,
                 max_checkpoint_search: int = 8,
                 costs: Optional[CostModel] = None,
                 events: Optional[EventLog] = None,
                 output: Optional[OutputLog] = None):
        self.events = events if events is not None else EventLog()
        self.window_intervals = window_intervals
        self.max_checkpoint_search = max_checkpoint_search
        self.process = Process(program, input_tokens=input_tokens,
                               mode=ExtensionMode.NORMAL, costs=costs,
                               output=output)
        self.manager = CheckpointManager(
            self.process, interval=checkpoint_interval,
            events=self.events)
        self.monitors = default_monitors()
        self.recoveries: List[RxRecovery] = []

    # ------------------------------------------------------------------

    def run(self, max_steps: Optional[int] = None) -> RxSessionResult:
        budget = max_steps
        while True:
            start = self.process.instr_count
            result = self.manager.run(max_steps=budget)
            if budget is not None:
                budget -= self.process.instr_count - start
            if result.reason is RunReason.HALT:
                return RxSessionResult("halt", self.recoveries)
            if result.reason is RunReason.INPUT_EXHAUSTED:
                return RxSessionResult("input", self.recoveries)
            if result.reason is RunReason.STOP:
                return RxSessionResult("budget", self.recoveries)
            failure = self._detect(result)
            if failure is None:
                return RxSessionResult("died", self.recoveries)
            recovery = self._recover(failure)
            self.recoveries.append(recovery)
            if not recovery.succeeded:
                return RxSessionResult("died", self.recoveries)

    def _detect(self, result) -> Optional[FailureEvent]:
        for monitor in self.monitors:
            event = monitor.check(result, self.process)
            if event is not None:
                return event
        return None

    # ------------------------------------------------------------------

    def _recover(self, failure: FailureEvent) -> RxRecovery:
        """Roll back and re-execute under whole-heap preventive changes
        until the failure region is passed, then disable the changes."""
        recovery = RxRecovery(failure=failure)
        t_start = self.process.clock.now_ns
        window_end = (failure.instr_count
                      + self.window_intervals * self.manager.interval)
        saved_costs = self.process.costs
        for checkpoint in self.manager.recent(self.max_checkpoint_search):
            policy = all_preventive_policy()
            self.manager.rollback_to(checkpoint)
            recovery.rollbacks += 1
            self.process.set_costs(saved_costs.replay_model())
            self.process.set_mode(ExtensionMode.DIAGNOSTIC, policy)
            self.process.reseed_entropy(7331 + recovery.rollbacks)
            result = self.process.run(stop_at=window_end)
            self.process.set_costs(saved_costs)
            if result.reason in PASS_REASONS:
                recovery.succeeded = True
                alloc_sites = policy.seen_alloc_sites
                free_sites = policy.seen_free_sites
                recovery.affected_callsites = (len(alloc_sites)
                                               + len(free_sites))
                recovery.affected_objects = (sum(alloc_sites.values())
                                             + sum(free_sites.values()))
                self.manager.drop_after(checkpoint)
                break
        recovery.recovery_time_ns = self.process.clock.now_ns - t_start
        # Rx's defining limitation: the changes are disabled once the
        # program is past the buggy region.
        self.process.set_mode(ExtensionMode.NORMAL, None)
        self.process.extension.policy = _plain_policy()
        self.events.emit(self.process.clock.now_ns, "rx.recovery",
                         succeeded=recovery.succeeded,
                         rollbacks=recovery.rollbacks,
                         callsites=recovery.affected_callsites,
                         objects=recovery.affected_objects)
        return recovery


def _plain_policy():
    from repro.heap.extension import ChangePolicy
    return ChangePolicy()
