"""A simulated process: program + heap + allocator extension + machine.

Everything First-Aid operates on is a :class:`Process`.  It bundles the
substrate pieces and provides whole-process snapshot/restore (what a
checkpoint contains).  Validation works on "a snapshot of the program
... in parallel" (paper Section 2) without disturbing the recovering
process: :func:`repro.parallel.tasks.run_task` builds a fresh process
from a checkpoint's encoded state and the recorded input journal.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.errors import CheckpointError
from repro.heap.allocator import LeaAllocator
from repro.heap.base import DEFAULT_LIMIT, Memory
from repro.heap.extension import AllocatorExtension, ChangePolicy, ExtensionMode
from repro.heap.quarantine import DEFAULT_THRESHOLD
from repro.heap.random_alloc import RandomizedLeaAllocator
from repro.util.rng import DeterministicRNG
from repro.util.simclock import CostModel, SimClock
from repro.vm.compile import TIER_REFERENCE
from repro.vm.io import OutputLog, ReplayableInput
from repro.vm.machine import Machine, RunResult
from repro.vm.program import Program
from repro.vm.state import MachineSnapshot


class ProcessSnapshot:
    """Full-state snapshot of a process (one checkpoint's payload).

    ``memory`` may be None for a *meta* snapshot (machine + allocator +
    extension only); the incremental checkpoint layer stores heap pages
    separately and composes them back on materialization.
    """

    __slots__ = ("machine", "memory", "allocator", "extension",
                 "instr_count", "randomized")

    def __init__(self, machine: MachineSnapshot, memory: Optional[tuple],
                 allocator: tuple, extension: tuple, randomized: bool):
        self.machine = machine
        self.memory = memory
        self.allocator = allocator
        self.extension = extension
        self.instr_count = machine.instr_count
        self.randomized = randomized


class Process:
    """One simulated process under First-Aid's control."""

    def __init__(self, program: Program,
                 input_tokens: Optional[Iterable[int]] = None,
                 input_stream: Optional[ReplayableInput] = None,
                 mode: ExtensionMode = ExtensionMode.NORMAL,
                 policy: Optional[ChangePolicy] = None,
                 clock: Optional[SimClock] = None,
                 costs: Optional[CostModel] = None,
                 heap_limit: int = DEFAULT_LIMIT,
                 quarantine_threshold: int = DEFAULT_THRESHOLD,
                 entropy_seed: int = 1,
                 output: Optional[OutputLog] = None,
                 vm_tier: str = TIER_REFERENCE):
        self.program = program
        self.costs = costs or CostModel()
        self.clock = clock or SimClock()
        self.mem = Memory(limit=heap_limit)
        self.allocator: LeaAllocator = LeaAllocator(self.mem)
        self.extension = AllocatorExtension(
            self.mem, self.allocator, mode, policy, self.clock, self.costs,
            quarantine_threshold)
        if input_stream is not None:
            self.input = input_stream
        else:
            self.input = ReplayableInput(input_tokens or ())
        self.output = output if output is not None else OutputLog()
        self.machine = Machine(program, self.mem, self.extension,
                               self.input, self.output, self.clock,
                               self.costs, entropy_seed, tier=vm_tier)

    # ------------------------------------------------------------------
    # convenience passthroughs
    # ------------------------------------------------------------------

    @property
    def instr_count(self) -> int:
        return self.machine.instr_count

    def run(self, stop_at: Optional[int] = None,
            max_steps: Optional[int] = None) -> RunResult:
        return self.machine.run(stop_at=stop_at, max_steps=max_steps)

    def set_mode(self, mode: ExtensionMode,
                 policy: Optional[ChangePolicy] = None) -> None:
        self.extension.mode = mode
        if policy is not None:
            self.extension.policy = policy

    def set_costs(self, costs: CostModel) -> None:
        """Swap the cost model for all components (e.g. replay costs
        during diagnostic re-execution)."""
        self.costs = costs
        self.machine.costs = costs
        self.extension.costs = costs

    def attach_telemetry(self, telemetry) -> None:
        """Wire a :class:`~repro.obs.telemetry.Telemetry` facade into
        this process: VM counters on the machine, heap instruments and
        the flight-recorder feed on the extension, and the tracer's
        clock.  A disabled facade attaches nothing."""
        if telemetry is None:
            return
        telemetry.bind_clock(self.clock)
        if telemetry.enabled:
            self.machine.attach_metrics(telemetry.metrics)
            self.extension.attach_telemetry(telemetry)

    def trace_accesses(self, on: bool = True) -> None:
        """Trace every heap access from now on (the Pin analogue of
        validation, paper Section 5), or stop with ``on=False``.  While
        on, the machine reports each access to the extension, and the
        extension keeps its watch, so the compiled tier calls
        ``note_access`` only where it can record.  The watch's
        deferred ``trace_ns`` lands on the machine's clock, which is
        the extension's here.  Two callers turn it on: ``run_task``,
        for validation tasks and traced probes, and the diagnostic
        engine, for a traced probe on the live process, which it turns
        off again after the run."""
        self.machine.trace_accesses = on
        if on:
            self.extension.build_watch()
        else:
            self.extension.watch = None

    def reseed_entropy(self, seed: int) -> None:
        """Fresh entropy for RAND -- each execution *attempt* gets its
        own environment nondeterminism, which is never checkpointed."""
        self.machine.entropy = DeterministicRNG(seed)

    # ------------------------------------------------------------------
    # snapshot / restore
    # ------------------------------------------------------------------

    def snapshot(self) -> ProcessSnapshot:
        return ProcessSnapshot(
            machine=self.machine.snapshot(),
            memory=self.mem.snapshot(),
            allocator=self.allocator.snapshot(),
            extension=self.extension.snapshot(),
            randomized=isinstance(self.allocator, RandomizedLeaAllocator),
        )

    def snapshot_meta(self) -> ProcessSnapshot:
        """Everything except heap contents (``memory=None``).  The
        checkpoint manager captures heap pages separately at page
        granularity, so a checkpoint costs O(dirty pages) instead of
        O(heap)."""
        return ProcessSnapshot(
            machine=self.machine.snapshot(),
            memory=None,
            allocator=self.allocator.snapshot(),
            extension=self.extension.snapshot(),
            randomized=isinstance(self.allocator, RandomizedLeaAllocator),
        )

    def restore(self, snap: ProcessSnapshot) -> None:
        if snap.memory is not None:
            self.mem.restore(snap.memory)
        if snap.randomized:
            if not isinstance(self.allocator, RandomizedLeaAllocator):
                raise CheckpointError(
                    "snapshot was taken under a randomized allocator")
            self.allocator.restore(snap.allocator)
        elif isinstance(self.allocator, RandomizedLeaAllocator):
            # Plain snapshot into a randomized process: adopt the
            # snapshot's allocator structures, keep the RNG stream.
            self.allocator.restore((snap.allocator,
                                    self.allocator.rng.getstate()))
        else:
            self.allocator.restore(snap.allocator)
        self.extension.restore(snap.extension)
        self.machine.restore(snap.machine)

    def use_randomized_allocator(self, seed: int) -> None:
        """Replace the allocator with a randomized one carrying over the
        current allocator state (validation mode)."""
        base_state = (self.allocator.snapshot()
                      if not isinstance(self.allocator,
                                        RandomizedLeaAllocator)
                      else self.allocator.snapshot()[0])
        randomized = RandomizedLeaAllocator(self.mem, seed)
        randomized.restore((base_state, randomized.rng.getstate()))
        self.allocator = randomized
        self.extension.allocator = randomized
