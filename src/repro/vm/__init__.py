"""Deterministic register VM -- the execution substrate.

The paper diagnoses bugs in native processes by rolling them back and
deterministically re-executing them.  This package provides the same
property in simulation: programs are bytecode for a small 64-bit
register machine whose entire state (frames, globals, heap, input
cursor) can be snapshotted and restored, and whose memory accesses all
flow through the simulated heap so that memory bugs corrupt state and
fault exactly like their C counterparts.

Applications are normally written in MiniC (see :mod:`repro.lang`) and
compiled to this bytecode; tests also use the assembler-level
:class:`~repro.vm.builder.FunctionBuilder` directly.
"""

from repro.vm.isa import OPCODE_NAMES, Instr
from repro.vm.program import Function, Program
from repro.vm.builder import FunctionBuilder, ProgramBuilder
from repro.vm.io import OutputLog, ReplayableInput
from repro.vm.compile import TIER_COMPILED, bind_program, compiled_for
from repro.vm.machine import Machine, RunReason, RunResult

__all__ = [
    "OPCODE_NAMES",
    "Instr",
    "Function",
    "Program",
    "FunctionBuilder",
    "ProgramBuilder",
    "OutputLog",
    "ReplayableInput",
    "Machine",
    "RunReason",
    "RunResult",
    "TIER_COMPILED",
    "bind_program",
    "compiled_for",
]
