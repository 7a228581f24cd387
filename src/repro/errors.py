"""Exception hierarchy for the First-Aid reproduction.

Two distinct families live here and must never be confused:

* :class:`SimulatedFault` and its subclasses model failures *inside* the
  simulated program (segmentation faults, assertion failures, heap
  corruption).  They are the events the error monitors catch and the
  diagnostic engine reasons about.  They carry the machine state at the
  instant of the fault.

* :class:`ReproError` and its subclasses are host-level errors: misuse of
  the library API, compiler errors in MiniC sources, malformed patches.
  They indicate a bug in the caller (or in this library), not in the
  simulated application.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for host-level errors raised by this library."""


class CompileError(ReproError):
    """Raised by the MiniC compiler on a malformed source program."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        if line:
            message = f"line {line}:{column}: {message}"
        super().__init__(message)


class ProgramError(ReproError):
    """Raised when a VM program is structurally invalid (bad label,
    unknown function, operand count mismatch)."""


class CheckpointError(ReproError):
    """Raised when checkpoint/rollback is used inconsistently, e.g.
    restoring a snapshot from a different machine."""


class PatchError(ReproError):
    """Raised on malformed runtime patches or patch-pool misuse."""


class StoreError(PatchError):
    """Raised on shared-patch-store failures that the caller may want
    to handle (the runtime treats them as non-fatal: a store problem
    must never take down recovery)."""


class StoreLockTimeout(StoreError):
    """Raised when the store's file lock cannot be acquired within the
    configured timeout, after retry-with-backoff and stale-lock
    breaking."""


class SimulatedFault(Exception):
    """Base class for failures raised by the *simulated* program.

    Attributes
    ----------
    address:
        Faulting memory address, if the fault involved a memory access.
    instr_id:
        ``(function_name, pc)`` of the instruction that faulted, when the
        machine attaches it.
    """

    kind = "fault"

    def __init__(self, message: str = "", address: int = None,
                 instr_id=None):
        super().__init__(message)
        self.address = address
        self.instr_id = instr_id

    def describe(self) -> str:
        parts = [self.kind]
        if self.address is not None:
            parts.append(f"addr=0x{self.address:x}")
        if self.instr_id is not None:
            parts.append(f"at={self.instr_id[0]}+{self.instr_id[1]}")
        msg = str(self)
        if msg:
            parts.append(msg)
        return " ".join(parts)


class SegmentationFault(SimulatedFault):
    """Access to an unmapped address in the simulated address space."""

    kind = "SIGSEGV"


class AssertionFailure(SimulatedFault):
    """A simulated ``assert`` evaluated to false."""

    kind = "assert"


class HeapCorruptionFault(SimulatedFault):
    """The allocator detected corrupted chunk metadata (the analogue of
    glibc aborting with 'corrupted double-linked list')."""

    kind = "heap-corruption"


class DivisionByZeroFault(SimulatedFault):
    """Integer division or modulo by zero in the simulated program."""

    kind = "div-by-zero"


class SampledGuardFault(SimulatedFault):
    """A sampled guarded allocation caught a memory bug pre-crash
    (GWP-ASan-style): a redzone canary or delayed-free canary around a
    guarded object was corrupted, or a guarded object was freed twice.

    Unlike the other fault families, the bug type and call-site are
    already known at raise time -- ``detection`` carries a
    :class:`repro.sampling.SampledDetection` with the full attribution,
    which the diagnostic engine can consume directly (fast path)
    instead of re-deriving it via re-execution.
    """

    kind = "sampled-guard"

    def __init__(self, message: str = "", address: int = None,
                 instr_id=None, detection=None):
        super().__init__(message, address=address, instr_id=instr_id)
        self.detection = detection


class OutOfMemoryFault(SimulatedFault):
    """The simulated heap cannot satisfy an allocation request."""

    kind = "oom"
