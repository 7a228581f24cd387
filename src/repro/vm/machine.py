"""The bytecode machine.

Design constraints, in order:

1. **Determinism.**  Given the same snapshot and the same input journal,
   execution is bit-identical.  The only sanctioned nondeterminism is
   the RAND opcode, whose entropy source is deliberately *not* part of
   snapshots (it models timing/environment nondeterminism; the runtime
   reseeds it per execution attempt).
2. **Faithful memory physics.**  Every LOAD/STORE goes through the
   simulated heap; MALLOC/FREE go through the allocator extension with
   a multi-level call-site; faults carry the faulting instruction.
3. **Execution speed.**  Experiments execute tens of millions of
   instructions, and a recovery re-runs the same program thousands of
   times, so the machine has one tier, the template JIT of
   :mod:`repro.vm.compile`: the run loop dispatches block closures,
   and steps a budget stop inside a block with one-instruction
   closures.  The switch interpreter it replaced is the oracle in
   ``tests/reference_machine.py``.

The machine never raises :class:`SimulatedFault` out of :meth:`run`;
it catches the fault, freezes, and returns a :class:`RunResult` --
that catch *is* the cheapest error monitor the paper describes
(exceptions raised from the kernel).  Host errors still propagate.
"""

from __future__ import annotations

from enum import Enum
from typing import List, Optional

from repro.errors import SimulatedFault
from repro.heap.base import Memory
from repro.heap.extension import AllocatorExtension
from repro.util.callsite import CallSite, lookup
from repro.util.rng import DeterministicRNG
from repro.util.simclock import CostModel, SimClock
from repro.vm.compile import STEP, bind_program
from repro.vm.io import OutputLog, ReplayableInput
from repro.vm.program import Program
from repro.vm.state import Frame, MachineSnapshot


class VMInstruments:
    """The machine's telemetry counters, batch-flushed.

    Block closures tally instruction and heap-access counts in plain
    locals and the run loop flushes them here only at run/stop
    boundaries (exactly like the clock-charging batching), so
    telemetry adds no per-instruction Python calls; with telemetry
    disabled the machine holds no instruments at all.
    """

    __slots__ = ("instructions", "heap_reads", "heap_writes")

    def __init__(self, registry):
        self.instructions = registry.counter("vm.instructions")
        self.heap_reads = registry.counter("vm.heap_reads")
        self.heap_writes = registry.counter("vm.heap_writes")

    def flush(self, instrs: int, reads: int, writes: int) -> None:
        self.instructions.inc(instrs)
        if reads:
            self.heap_reads.inc(reads)
        if writes:
            self.heap_writes.inc(writes)


class RunReason(Enum):
    HALT = "halt"                  # program executed HALT or main returned
    STOP = "stop"                  # reached the requested instruction count
    INPUT_EXHAUSTED = "input"      # IN found no more live input
    FAULT = "fault"                # a SimulatedFault occurred


class RunResult:
    __slots__ = ("reason", "fault")

    def __init__(self, reason: RunReason,
                 fault: Optional[SimulatedFault] = None):
        self.reason = reason
        self.fault = fault

    def __repr__(self) -> str:
        if self.fault is not None:
            return f"RunResult({self.reason.value}, {self.fault.describe()})"
        return f"RunResult({self.reason.value})"


class Machine:
    """One simulated process."""

    def __init__(self, program: Program, mem: Memory,
                 extension: AllocatorExtension,
                 input_stream: Optional[ReplayableInput] = None,
                 output: Optional[OutputLog] = None,
                 clock: Optional[SimClock] = None,
                 costs: Optional[CostModel] = None,
                 entropy_seed: int = 1):
        self.program = program
        self.mem = mem
        self.extension = extension
        self.input = (input_stream if input_stream is not None
                      else ReplayableInput())
        self.output = output if output is not None else OutputLog()
        self.clock = clock or SimClock()
        self.costs = costs or CostModel()
        self.entropy = DeterministicRNG(entropy_seed)
        self.trace_accesses = False
        #: Set by attach_metrics(); None keeps the hot path untouched.
        self.vm_metrics: Optional[VMInstruments] = None
        #: Sim-time and telemetry accumulated across block closures,
        #: charged/flushed at run exits.
        self._pending = 0
        self._reads = 0
        self._writes = 0
        self._jit_unit = None

        entry = program.entry
        self.frames: List[Frame] = [
            Frame(entry, 0, [0] * entry.n_locals, None)]
        self.globals: List[int] = [0] * program.n_globals
        self.instr_count = 0
        self.halted = False
        self.fault: Optional[SimulatedFault] = None

    def attach_metrics(self, registry) -> None:
        """Register the VM's counters against an *enabled* registry;
        a disabled registry leaves the machine uninstrumented."""
        self.vm_metrics = (VMInstruments(registry)
                           if getattr(registry, "enabled", False) else None)

    # ------------------------------------------------------------------
    # call-site capture
    # ------------------------------------------------------------------

    def current_callsite(self, pc: int) -> CallSite:
        """Multi-level call-site for the instruction at ``pc`` in the
        innermost frame: (this function, pc) plus up to two caller
        return addresses.

        Builds the intern table's key, the tuple of up to
        :data:`CallSite.DEPTH` (three) ``(name, pc)`` frames, without a
        loop and looks it up with no Python call, so only the first
        capture of a context calls :meth:`CallSite.intern`."""
        frames = self.frames
        here = (frames[-1].func.name, pc)
        if len(frames) > 2:
            caller, outer = frames[-2], frames[-3]
            key = (here, (caller.func.name, caller.pc),
                   (outer.func.name, outer.pc))
        elif len(frames) == 2:
            caller = frames[-2]
            key = (here, (caller.func.name, caller.pc))
        else:
            key = (here,)
        return lookup(key) or CallSite.intern(key)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def run(self, stop_at: Optional[int] = None,
            max_steps: Optional[int] = None) -> RunResult:
        """Execute until HALT, fault, input exhaustion, or a stop point.

        ``stop_at`` is an absolute ``instr_count`` at which to pause
        (the checkpoint manager's boundary); ``max_steps`` is a relative
        budget on this call.
        """
        if self.fault is not None:
            return RunResult(RunReason.FAULT, self.fault)
        if self.halted:
            return RunResult(RunReason.HALT)

        if max_steps is not None:
            budget_stop = self.instr_count + max_steps
            stop_at = (budget_stop if stop_at is None
                       else min(stop_at, budget_stop))

        return self._run_compiled(stop_at)

    def _finish_run(self, pending_ns: int, entry_count: int,
                    n_reads: int, n_writes: int) -> None:
        """The one exit sequence every run funnels through: charge
        batched sim-time, flush batched telemetry."""
        if pending_ns:
            self.clock.charge(pending_ns)
        if self.vm_metrics is not None:
            self.vm_metrics.flush(self.instr_count - entry_count,
                                  n_reads, n_writes)

    def _compiled_exit(self, entry_count: int) -> None:
        """Charge and flush the batched state block closures left in
        ``_pending``/``_reads``/``_writes``."""
        self._finish_run(self._pending, entry_count,
                         self._reads, self._writes)
        self._pending = 0
        self._reads = 0
        self._writes = 0

    def _run_compiled(self, stop_at: Optional[int]) -> RunResult:
        if self._jit_unit is None:
            self._jit_unit = bind_program(self.program)
        frames = self.frames
        entry_count = self.instr_count
        self._pending = 0
        self._reads = 0
        self._writes = 0

        while True:
            if stop_at is not None and self.instr_count >= stop_at:
                self._compiled_exit(entry_count)
                return RunResult(RunReason.STOP)
            frame = frames[-1]
            jit = frame.func.jit
            block = jit.blocks.get(frame.pc)
            if block is None:
                block = jit.compile_block(frame.pc)
            code = block(self, frame, stop_at)
            if code == STEP:
                code = self._step_tail(stop_at)
            if code == 0:
                continue
            self._compiled_exit(entry_count)
            if code == 1:
                return RunResult(RunReason.HALT)
            if code == 2:
                return RunResult(RunReason.FAULT, self.fault)
            return RunResult(RunReason.INPUT_EXHAUSTED)

    def _step_tail(self, stop_at: int) -> int:
        """Step the budget tail: the instructions left before
        ``stop_at`` when a block returned STEP because it is longer.
        Each step is a one-instruction closure
        (``compile_block(pc, cap=1)``), so the run stops exactly at
        ``stop_at``.  Returns 0 there, or the HALT, fault or
        input-exhaustion code of the step that ended the run."""
        frames = self.frames
        while self.instr_count < stop_at:
            frame = frames[-1]
            jit = frame.func.jit
            step = jit.steps.get(frame.pc)
            if step is None:
                step = jit.compile_block(frame.pc, cap=1)
            code = step(self, frame, stop_at)
            if code == STEP:
                # A tail is a prefix of the block that returned STEP,
                # short of its terminator, and one instruction fits any
                # budget left.  Retrying a step that did not fit would
                # never return.
                raise RuntimeError(
                    f"step at {frame.func.name}+{frame.pc} made no "
                    "progress")
            if code:
                return code
        return 0

    # ------------------------------------------------------------------
    # snapshot / restore (machine part only)
    # ------------------------------------------------------------------

    def snapshot(self) -> MachineSnapshot:
        return MachineSnapshot(self.frames, self.globals, self.instr_count,
                               self.halted, self.input.snapshot(),
                               self.output.snapshot())

    def restore(self, snap: MachineSnapshot) -> None:
        self.frames = snap.restore_frames()
        self.globals = list(snap.globals)
        self.instr_count = snap.instr_count
        self.halted = snap.halted
        self.fault = None
        self.input.restore(snap.input_cursor)
        self.output.restore(snap.output_length)
