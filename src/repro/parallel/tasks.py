"""Serializable re-execution tasks.

A :class:`ReexecTask` is everything a worker process needs to reproduce
one deterministic re-execution from a checkpoint: the materialized
process state, the input journal, the output history up to the
snapshot, the policy (diagnostic probe) or patch set (validation run),
the entropy salt, and the instruction budget.  :func:`run_task` turns a
task into a :class:`TaskOutcome` and is deliberately a pure module-level
function: the serial backend calls it in-process and the fork backend
calls it inside worker processes, so both paths execute *identical*
code and produce identical outcomes.  Its arm-run-scan body,
:func:`reexecute`, is also the diagnostic engine's live probe.

Determinism is the load-bearing property (DESIGN.md §8): every input a
re-execution consumes -- heap state, journal, allocator layout, entropy
seed -- travels inside the task, so the outcome is a function of the
task alone, independent of which process runs it or when.

Program functions are not shipped inside snapshots.  Machine frames
reference :class:`~repro.vm.program.Function` objects, which are heavy
and already present in every worker (the fork backend loads the program
once per worker via its initializer), so :func:`encode_state` replaces
them with function *names* and :func:`decode_state` rebinds against the
local program.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

from repro.core.heap_marking import HeapMarking
from repro.core.patches import PatchPool
from repro.heap.extension import (
    ChangePolicy,
    ExtensionMode,
    IllegalAccess,
    MMTraceEntry,
)
from repro.process import Process, ProcessSnapshot
from repro.util.simclock import CostModel
from repro.vm.machine import RunReason, RunResult
from repro.vm.program import Program
from repro.vm.state import MachineSnapshot

#: Run outcomes that count as "survived the failure region".
PASS_REASONS = (RunReason.STOP, RunReason.HALT, RunReason.INPUT_EXHAUSTED)
#: Failure-region length in checkpoint intervals (paper Section 4.1):
#: a re-execution that survives this far past the failure passes.
WINDOW_INTERVALS = 3


def encode_state(state: ProcessSnapshot) -> tuple:
    """A picklable encoding of a *materialized* process snapshot
    (``memory`` present).  Frames keep their shape but swap Function
    objects for function names."""
    if state.memory is None:
        raise ValueError("encode_state needs a materialized snapshot")
    m = state.machine
    frames = tuple((func.name, pc, local_slots, ret_dst)
                   for func, pc, local_slots, ret_dst in m.frames)
    machine = (frames, m.globals, m.instr_count, m.halted,
               m.input_cursor, m.output_length)
    return (machine, state.memory, state.allocator, state.extension,
            state.randomized)


def decode_state(encoded: tuple, program: Program) -> ProcessSnapshot:
    """Rebuild a :class:`ProcessSnapshot`, rebinding frame functions by
    name against ``program``."""
    machine, memory, allocator, extension, randomized = encoded
    (frames, global_slots, instr_count, halted,
     input_cursor, output_length) = machine
    snap = MachineSnapshot.__new__(MachineSnapshot)
    snap.frames = tuple(
        (program.functions[name], pc, tuple(local_slots), ret_dst)
        for name, pc, local_slots, ret_dst in frames)
    snap.globals = tuple(global_slots)
    snap.instr_count = instr_count
    snap.halted = halted
    snap.input_cursor = input_cursor
    snap.output_length = output_length
    return ProcessSnapshot(machine=snap, memory=memory,
                           allocator=allocator, extension=extension,
                           randomized=randomized)


@dataclass
class ReexecTask:
    """One re-execution: (state, policy-or-patches, budget) -> outcome."""

    kind: str                      # "probe" | "validation" | "baseline"
    label: str
    state: tuple                   # encode_state() payload
    journal: List[int]
    output_prefix: List[Tuple[int, int]]
    window_end: int                # run(stop_at=...) instruction budget
    costs: CostModel               # replay-rate cost model
    heap_limit: int
    quarantine_threshold: int
    patch_memory_limit: Optional[int]
    #: entropy seed for this attempt (diagnosis salt or seed*7919 for
    #: validation; 1 reproduces the unpatched baseline clone).
    salt: int
    policy: Optional[ChangePolicy] = None      # probes
    patches_json: Optional[List[dict]] = None  # validation patch set
    pool_name: str = ""
    seed: Optional[int] = None     # randomized-allocator seed
    mark: bool = False             # heap marking around the probe
    trace_mm: bool = False
    trace_accesses: bool = False
    #: Test hook: a worker that picks this task up dies immediately
    #: (exercises the serial-fallback path).  In-process execution
    #: ignores it.
    fail_marker: bool = False
    #: Chaos hook: executing this task raises
    #: :class:`~repro.chaos.ChaosError` instead of producing an
    #: outcome -- in a worker *and* in-process, modeling a probe that
    #: genuinely crashes wherever it runs.
    raise_marker: bool = False
    #: Chaos hook: a worker that picks this task up hangs (sleeps past
    #: the executor's task timeout).  In-process execution ignores it,
    #: so the timeout rescue produces the real outcome.
    hang_marker: bool = False

    @classmethod
    def from_process(cls, process: Process, state: tuple,
                     window_end: int, **fields) -> "ReexecTask":
        """A re-execution of ``process`` from ``state`` (the
        :func:`encode_state` payload of one of its checkpoints) up to
        ``window_end``: the live process's journal, output history up
        to the snapshot, replay-rate costs and limits, plus the
        task-specific ``fields``."""
        return cls(
            state=state,
            journal=process.input.journal_slice(0),
            output_prefix=process.output.entries()[:state[0][5]],
            window_end=window_end,
            costs=process.costs.replay_model(),
            heap_limit=process.mem.limit,
            quarantine_threshold=process.extension
            .quarantine.threshold_bytes,
            patch_memory_limit=process.extension.patch_memory_limit,
            **fields)


@dataclass
class TaskOutcome:
    """Everything a re-execution observed, shipped back in-order."""

    label: str
    kind: str
    result: RunResult
    passed: bool
    #: What the run charged its process's clock, i.e. exactly what this
    #: attempt costs the live process (a clone's clock starts at 0).
    time_ns: int
    manifestations: Any            # heap.extension.Manifestations
    mark_corruptions: List[Any]
    mm_trace: List[MMTraceEntry] = field(default_factory=list)
    illegal_accesses: List[IllegalAccess] = field(default_factory=list)
    #: The policy after the run -- diagnostic policies accumulate the
    #: observed call-site universe (seen_alloc_sites/seen_free_sites).
    policy: Optional[ChangePolicy] = None

    def patch_triggers(self) -> Counter:
        """patch_id -> number of operations the patch applied to."""
        counts: Counter = Counter()
        for entry in self.mm_trace:
            if entry.patch_id is not None:
                counts[entry.patch_id] += 1
        return counts

    def access_multiset(self) -> Counter:
        """(patch_id, kind, instr, offset) -> count; the identity
        validation's consistency criterion (c) compares."""
        counts: Counter = Counter()
        for access in self.illegal_accesses:
            counts[(access.patch_id,) + access.identity()] += 1
        return counts


def reexecute(process: Process, mode: ExtensionMode, policy: ChangePolicy,
              salt: int, window_end: int, label: str = "",
              kind: str = "probe", mark: bool = False,
              trace_mm: bool = False,
              trace_accesses: bool = False) -> TaskOutcome:
    """One re-execution of ``process`` from the state it holds: arm it
    (mode and policy, tracing, the entropy salt, heap marking), run it
    to ``window_end``, then scan what manifested.  :func:`run_task`
    calls it on a fresh clone and the diagnostic engine on the live
    process after a rollback, so both probe paths share this body.
    Access tracing is off again on return."""
    process.set_mode(mode, policy)
    process.extension.trace_mm = trace_mm
    if trace_accesses:
        process.trace_accesses()
    process.reseed_entropy(salt)
    marking = None
    if mark:
        marking = HeapMarking(process.mem, process.allocator)
        marking.apply()
    start = process.clock.now_ns
    try:
        result = process.run(stop_at=window_end)
    finally:
        if trace_accesses:
            process.trace_accesses(False)
    extension = process.extension
    return TaskOutcome(
        label=label, kind=kind, result=result,
        passed=result.reason in PASS_REASONS,
        time_ns=process.clock.now_ns - start,
        manifestations=extension.scan_manifestations(),
        mark_corruptions=marking.scan() if marking is not None else [],
        mm_trace=list(extension.mm_trace),
        illegal_accesses=list(extension.illegal_accesses),
        policy=policy)


def run_task(program: Program, task: ReexecTask) -> TaskOutcome:
    """Execute one task in the current process: restore the snapshot
    into a fresh clone, install the policy or patches, then
    :func:`reexecute` it."""
    if task.raise_marker:
        from repro.chaos.faults import ChaosError
        raise ChaosError(f"injected probe crash ({task.label})")
    state = decode_state(task.state, program)
    process = Process(program, mode=ExtensionMode.DIAGNOSTIC,
                      costs=task.costs, heap_limit=task.heap_limit,
                      quarantine_threshold=task.quarantine_threshold)
    process.extension.patch_memory_limit = task.patch_memory_limit
    process.input.preload_journal(task.journal)
    process.output.preload(task.output_prefix)
    process.restore(state)
    mode = ExtensionMode.DIAGNOSTIC
    if task.kind == "validation":
        pool = PatchPool.from_patches(task.pool_name,
                                      task.patches_json or [])
        process.use_randomized_allocator(task.seed or 0)
        mode = ExtensionMode.VALIDATION
        policy: ChangePolicy = pool.policy()
    elif task.kind == "baseline":
        policy = ChangePolicy()
    else:
        policy = task.policy or ChangePolicy()
    return reexecute(process, mode, policy, task.salt, task.window_end,
                     label=task.label, kind=task.kind, mark=task.mark,
                     trace_mm=task.trace_mm,
                     trace_accesses=task.trace_accesses)
