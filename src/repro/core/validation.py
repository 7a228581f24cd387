"""Patch validation under randomized allocation (paper Section 5).

A patch that merely *happens* to dodge the failure through a lucky heap
layout must not stay installed (and must not mislead developers).  The
validation engine re-executes the buggy region three times, each with a
differently-seeded randomized allocator, with full memory-management
and illegal-access tracing enabled (this repo's Pin analogue,
:meth:`~repro.process.Process.trace_accesses`; the VM pays for a
traced access only where the allocator extension's watch says it can
record), and checks that the patch's effect is
consistent:

(a) the patch is triggered the same number of times in every run;
(b) the same number of illegal accesses is neutralized by the patch;
(c) each illegal access comes from the same instruction at the same
    offset within its memory object (addresses themselves differ run
    to run -- that is the point of the randomization).

Validation operates on *clones* restored from the diagnosis checkpoint,
so it runs off the recovery critical path, as the paper does on a spare
core.  The three randomized runs plus the unpatched baseline are
mutually independent, so they dispatch as one batch over an execution
backend (:mod:`repro.parallel`): in-process with the default
:class:`~repro.parallel.executor.SerialExecutor`, across worker
processes with a :class:`~repro.parallel.executor.ForkExecutor`.
Consistency criteria evaluate on the results merged in task order, so
the verdict is backend-independent; only the reported validation time
differs, charged max-over-workers (``schedule_ns``) to model the
paper's spare-core semantics.  Each run sees a frozen copy of the
patch pool, so a concurrent patch install cannot leak in and trigger
accounting never touches the live pool.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional

from repro.checkpoint.snapshot import Checkpoint
from repro.core.patches import PatchPool
from repro.heap.extension import MMTraceEntry
from repro.obs.telemetry import Telemetry
from repro.parallel.executor import SerialExecutor, schedule_ns
from repro.parallel.tasks import ReexecTask, TaskOutcome, encode_state
from repro.process import Process
from repro.util.events import EventLog

#: allocator seed of the first randomized run; run i uses _FIRST_SEED + i
_FIRST_SEED = 101


@dataclass
class ValidationResult:
    consistent: bool
    #: the randomized runs, in seed order
    iterations: List[TaskOutcome] = field(default_factory=list)
    reasons: List[str] = field(default_factory=list)
    time_ns: int = 0
    #: memory-management trace of an *unpatched* re-execution, for the
    #: with/without diff in the bug report (Figure 5, item 4).
    baseline_mm_trace: List[MMTraceEntry] = field(default_factory=list)
    #: real wall-clock seconds spent validating (host time, not the
    #: simulated clock) -- what the parallel benchmark measures.
    wall_s: float = 0.0


class ValidationEngine:
    """Validates the patches generated for one diagnosis."""

    def __init__(self, iterations: int = 3,
                 events: Optional[EventLog] = None,
                 telemetry: Optional[Telemetry] = None,
                 executor=None, chaos=None):
        self.iterations = iterations
        self.events = events if events is not None else EventLog()
        self.telemetry = telemetry or Telemetry.disabled()
        #: Optional :class:`~repro.chaos.ChaosPlan`; consulted once per
        #: validation batch.
        self.chaos = chaos
        #: execution backend for the validation batch; None builds a
        #: per-call SerialExecutor over the process's program.
        self.executor = executor
        self._m_runs = self.telemetry.metrics.counter("validation.runs")
        self._m_trials = \
            self.telemetry.metrics.counter("validation.patch_trials")

    def validate(self, process: Process, checkpoint: Checkpoint,
                 pool: PatchPool, window_end: int,
                 under_test=None,
                 fast_path: bool = False) -> ValidationResult:
        """Validate the pool's patches; ``under_test`` names the
        just-generated patches this verdict is about.

        ``fast_path`` marks patches minted from a sampled guard hit
        without any diagnostic re-execution (DESIGN.md §15): those
        must additionally show their detection *reproducing* under
        validation -- at least one illegal access neutralized by (or
        double free absorbed by) a patch under test.  A guard false
        positive pads allocations that nothing ever oversteps, shows
        no effect, and is rejected here."""
        with self.telemetry.span("validation",
                                 checkpoint=checkpoint.index) as span:
            started = time.perf_counter()
            result = self._validate(process, checkpoint, pool,
                                    window_end,
                                    under_test=under_test,
                                    fast_path=fast_path)
            result.wall_s = time.perf_counter() - started
            span.set(consistent=result.consistent,
                     clone_time_ns=result.time_ns)
            return result

    def _validate(self, process: Process, checkpoint: Checkpoint,
                  pool: PatchPool, window_end: int,
                  under_test=None,
                  fast_path: bool = False) -> ValidationResult:
        result = ValidationResult(consistent=True)
        executor = self.executor or SerialExecutor(process.program)
        # Materialize the checkpoint's full state once: it joins the
        # whole page table, so rebuilding it per iteration would repay
        # O(heap) four times.
        state = encode_state(checkpoint.materialize())
        tasks = [self._task(process, state, pool, window_end,
                            seed=_FIRST_SEED + i)
                 for i in range(self.iterations)]
        tasks.append(self._baseline_task(process, state, window_end))
        handle = executor.submit(tasks)
        times: List[int] = []
        for i in range(self.iterations):
            with self.telemetry.span("validation.run",
                                     seed=_FIRST_SEED + i) as run_span:
                out = handle.result(i)
                # Validation runs on clones off the recovery path;
                # their cost is clone-clock time, recorded as an
                # attribute rather than main-clock width.
                run_span.set(passed=out.passed,
                             clone_time_ns=out.time_ns)
            self._m_runs.inc()
            self._m_trials.inc(len(pool.patches()))
            times.append(out.time_ns)
            result.iterations.append(out)
        baseline = handle.result(self.iterations)
        times.append(baseline.time_ns)
        result.baseline_mm_trace = baseline.mm_trace
        if self.chaos is not None \
                and self.chaos.take("validation_flaky"):
            # A flaky re-failure: the region re-fails under one
            # randomization, which must read as an inconsistent patch
            # and drive the retraction path, never a crash.
            result.iterations[0].passed = False
            self.events.emit(0, "chaos.validation_flaky", seed=_FIRST_SEED)
        # Spare-core accounting: the batch costs its busiest worker
        # lane.  With one worker this is the plain sum, i.e. the
        # original serial validation time.
        result.time_ns = schedule_ns(times, executor.workers)
        self._check_consistency(result)
        if fast_path and result.consistent and under_test \
                and not _patch_effect_observed(result, under_test):
            result.consistent = False
            result.reasons.append(
                "fast-path criterion: the detection-seeded patch "
                "showed no effect under validation (nothing overstepped "
                "its padding, no delayed free absorbed a double free); "
                "the sampled detection did not reproduce")
        self.events.emit(0, "validation.done",
                         consistent=result.consistent,
                         iterations=len(result.iterations),
                         time_s=result.time_ns / 1e9,
                         reasons=result.reasons)
        return result

    # ------------------------------------------------------------------

    def _task(self, process: Process, state: tuple, pool: PatchPool,
              window_end: int, seed: int) -> ReexecTask:
        """One randomized validation run.  The patch set travels as
        JSON (a frozen copy by construction); entropy follows the
        legacy clone behavior: seed * 7919."""
        return ReexecTask.from_process(
            process, state, window_end, kind="validation",
            label=f"validate:seed{seed}", salt=seed * 7919,
            patches_json=[p.to_json() for p in pool.patches()],
            pool_name=pool.program_name, seed=seed, trace_mm=True,
            trace_accesses=True)

    def _baseline_task(self, process: Process, state: tuple,
                       window_end: int) -> ReexecTask:
        """Unpatched re-execution (runs into the failure); its trace is
        diffed against the patched traces in the bug report.  Salt 1
        reproduces the legacy clone's fresh default entropy."""
        return ReexecTask.from_process(
            process, state, window_end, kind="baseline",
            label="validate:baseline", salt=1, trace_mm=True)

    # ------------------------------------------------------------------

    def _check_consistency(self, result: ValidationResult) -> None:
        runs = result.iterations
        if not runs:
            result.consistent = False
            result.reasons.append("no validation iterations ran")
            return
        for seed, trace in enumerate(runs, _FIRST_SEED):
            if not trace.passed:
                result.consistent = False
                result.reasons.append(
                    f"iteration seed={seed} failed the buggy "
                    f"region under randomization: {trace.result!r}")
        first = runs[0]
        for seed, trace in enumerate(runs[1:], _FIRST_SEED + 1):
            if trace.patch_triggers() != first.patch_triggers():
                result.consistent = False
                result.reasons.append(
                    "criterion (a): patch trigger counts differ "
                    f"between seeds {_FIRST_SEED} and {seed}")
            if (len(trace.illegal_accesses)
                    != len(first.illegal_accesses)):
                result.consistent = False
                result.reasons.append(
                    "criterion (b): neutralized illegal-access totals "
                    f"differ between seeds {_FIRST_SEED} and {seed}")
            if trace.access_multiset() != first.access_multiset():
                result.consistent = False
                result.reasons.append(
                    "criterion (c): illegal accesses differ in "
                    "instruction/offset identity between seeds "
                    f"{_FIRST_SEED} and {seed}")


def _patch_effect_observed(result: ValidationResult, under_test) -> bool:
    """True when any validation iteration shows a patch under test
    actually intercepting the detected bug: an illegal access
    neutralized by the patch (an overstep into its padding, a write
    into its delay-freed object), or a second free of an address the
    patch is holding in quarantine.  The latter shows up as two free
    entries for one address with no malloc in between -- the delay
    keeps the address out of reuse, so the pattern cannot arise
    legitimately -- or, when the first free predates every checkpoint
    in the window, as a swallowed DoubleFreeEvent whose address a
    patch under test intercepted."""
    ids = {p.patch_id for p in under_test}
    for trace in result.iterations:
        for access in trace.illegal_accesses:
            if access.patch_id in ids:
                return True
        freed = set()
        for entry in trace.mm_trace:
            if entry.op == "free":
                if entry.user_addr in freed and entry.patch_id in ids:
                    return True
                freed.add(entry.user_addr)
            else:
                freed.discard(entry.user_addr)
        bad_frees = {e.user_addr
                     for e in trace.manifestations.double_free_events}
        if bad_frees and any(entry.op == "free"
                             and entry.patch_id in ids
                             and entry.user_addr in bad_frees
                             for entry in trace.mm_trace):
            return True
    return False
