"""Cross-layer chaos faults for the recovery machinery itself.

The store's fault plan (:mod:`repro.store.faults`) tears files and
abandons locks; this plan injects failures into the layers the store
cannot reach -- the very machinery that is supposed to *handle*
failures.  Each kind names one injection point:

``checkpoint_missing``
    The next :meth:`~repro.checkpoint.manager.CheckpointManager.rollback_to`
    finds its snapshot gone (evicted, or its backing pages lost) and
    raises :class:`~repro.errors.CheckpointError`.

``checkpoint_corrupt``
    The next rollback restores from a snapshot with one page scribbled
    over -- the restore *succeeds* but the re-execution runs on garbage
    state (bit rot in the checkpoint store).

``probe_raise``
    The next diagnostic re-execution dies with a :class:`ChaosError`
    instead of producing an outcome (a crashed probe, in-process or in
    a worker).

``probe_hang``
    The next diagnostic re-execution hangs.  In-process, the engine's
    deadline fires after ``probe_timeout_ns`` of simulated time and the
    probe is re-run inline; on the fork backend the worker actually
    sleeps, the batch's host-side timeout fires, and the task is
    rescued in-process.

``monitor_miss``
    The error monitors produce a false negative for the next failure:
    no monitor claims the fault, and the runtime must survive an
    *unclaimed* failure instead of silently dying.

``validation_flaky``
    The next validation batch observes a flaky re-failure: iteration 0
    reports the buggy region failed under randomization, making the
    result inconsistent and forcing the retraction path.

``budget_exhaust``
    The recovery supervisor's next inter-rung budget check sees the
    per-failure budget exhausted mid-recovery, forcing the jump to the
    restart floor.

``sampled_false_positive``
    The next sampled guarded free raises a guard hit even though the
    object's canaries are intact -- a false detection on a correct
    program.  Validation must reject the resulting fast-path patch
    (the unpatched baseline passes), retract it, and execution must
    continue un-degraded.
"""

from __future__ import annotations

from repro.chaos.plan import FaultPlan
from repro.errors import ReproError

#: Simulated deadline for an in-process hung probe: 50 ms, a generous
#: bound for a re-execution window that normally costs a few ms.
DEFAULT_PROBE_TIMEOUT_NS = 50_000_000


class ChaosError(ReproError):
    """Raised by an injected chaos fault (a crashed probe).  A
    :class:`~repro.errors.ReproError` on purpose: it models the
    recovery machinery itself breaking, which the supervisor must
    catch and escalate past."""


class ChaosPlan(FaultPlan):
    """Armed faults for checkpoint/diagnosis/validation/worker layers."""

    KINDS = (
        "checkpoint_missing",
        "checkpoint_corrupt",
        "probe_raise",
        "probe_hang",
        "monitor_miss",
        "validation_flaky",
        "budget_exhaust",
        "sampled_false_positive",
    )

    def __init__(self, probe_timeout_ns: int = DEFAULT_PROBE_TIMEOUT_NS):
        super().__init__()
        self.probe_timeout_ns = probe_timeout_ns

    # ------------------------------------------------------------------
    # fault effects (invoked by the instrumented layers on take())
    # ------------------------------------------------------------------

    @staticmethod
    def scribble_checkpoint(checkpoint) -> int:
        """Point the middle entry of ``checkpoint``'s page table at a
        garbage page (so restore plumbing still works); the payload it
        replaces, which other tables may share, is untouched.  Returns
        the page index hit, or -1 for an empty snapshot."""
        pages = checkpoint.pages
        if not pages:
            return -1
        index = len(pages) // 2
        pages[index] = b"\xa5" * len(pages[index])
        return index
