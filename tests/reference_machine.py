"""The switch interpreter, kept as the oracle of the compiled tier.

The machine (:mod:`repro.vm.machine`) runs one tier, the template JIT
of :mod:`repro.vm.compile`.  The loop below is the interpreter that
tier replaced: a 40-way ``elif`` dispatch that steps one instruction
at a time and calls ``note_access`` on every traced access.  It is
kept here, as ``tests/reference_allocator.py`` keeps the old
allocator, so the differential tests, the session tests and
``benchmarks/bench_vm_speed.py`` can compare the compiled tier against
it.

:func:`reference_tier` installs it for a ``with`` block by swapping it
in for ``Machine._run_compiled`` on the class: every machine runs it
there, including those a forked worker builds, since the fork inherits
the class.  Nothing in ``src/repro`` knows about it.

Its MALLOC and FREE capture call-sites with :func:`reference_callsite`,
the list-built capture ``Machine.current_callsite`` replaced, so every
differential test that compares the extension's snapshot (each object's
allocation and free site) checks the machine's capture as well.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from typing import Optional

from repro.errors import (
    AssertionFailure,
    DivisionByZeroFault,
    SimulatedFault,
)
from repro.heap.extension import ExtensionMode
from repro.util.callsite import CallSite
from repro.vm import isa
from repro.vm.machine import Machine, RunReason, RunResult
from repro.vm.state import Frame

_MASK64 = (1 << 64) - 1


def reference_callsite(machine: Machine, pc: int) -> CallSite:
    """Multi-level call-site for the instruction at ``pc`` in the
    innermost frame, built as a list: (this function, pc) plus up to
    two caller return addresses."""
    frames = machine.frames
    addrs = [(frames[-1].func.name, pc)]
    for frame in frames[-2::-1]:
        addrs.append((frame.func.name, frame.pc))
        if len(addrs) == CallSite.DEPTH:
            break
    return CallSite.intern(addrs)


def run_reference(machine: Machine,
                  stop_at: Optional[int]) -> RunResult:
    """One ``Machine.run`` on the switch interpreter: step ``machine``
    until ``stop_at``, HALT, a fault or input exhaustion."""
    mem = machine.mem
    clock = machine.clock
    instr_ns = machine.costs.instr_ns
    frames = machine.frames
    glb = machine.globals
    ext = machine.extension
    # trace_accesses only changes between runs, never during one,
    # so the flag (and the extension it gates) hoists out of the
    # per-instruction path.
    trace = machine.trace_accesses
    # Per-instruction time is accumulated locally and charged in
    # bulk at run/stop boundaries and before any operation that
    # reads the clock: a clock.charge() attribute call on every one
    # of tens of millions of instructions is pure dispatch
    # overhead, and the clock value is only *observed* at OUT,
    # MALLOC/FREE (extension bookkeeping), and run exits.
    pending_ns = 0
    entry_count = machine.instr_count

    while True:
        if stop_at is not None and machine.instr_count >= stop_at:
            machine._finish_run(pending_ns, entry_count)
            return RunResult(RunReason.STOP)
        frame = frames[-1]
        # No bounds check: Program.finalize appends a sentinel RET
        # to every function that can fall through, so pc is always
        # in range.
        pc = frame.pc
        instr = frame.func.code[pc]
        op = instr[0]
        frame.pc = pc + 1
        machine.instr_count += 1
        pending_ns += instr_ns
        loc = frame.locals

        try:
            if op == isa.LOAD:
                addr = loc[instr[2]] + instr[3]
                if trace:
                    ext.note_access(
                        addr, instr[4], False, (frame.func.name, pc))
                loc[instr[1]] = mem.read_uint(addr, instr[4])
            elif op == isa.STORE:
                addr = loc[instr[1]] + instr[2]
                if trace:
                    ext.note_access(
                        addr, instr[3], True, (frame.func.name, pc))
                mem.write_uint(addr, instr[3], loc[instr[4]])
            elif op == isa.CONST:
                loc[instr[1]] = instr[2] & _MASK64
            elif op == isa.MOV:
                loc[instr[1]] = loc[instr[2]]
            elif op == isa.ADD:
                loc[instr[1]] = (loc[instr[2]] + loc[instr[3]]) & _MASK64
            elif op == isa.ADDI:
                loc[instr[1]] = (loc[instr[2]] + instr[3]) & _MASK64
            elif op == isa.SUB:
                loc[instr[1]] = (loc[instr[2]] - loc[instr[3]]) & _MASK64
            elif op == isa.MUL:
                loc[instr[1]] = (loc[instr[2]] * loc[instr[3]]) & _MASK64
            elif op == isa.DIV:
                d = loc[instr[3]]
                if d == 0:
                    raise DivisionByZeroFault("division by zero")
                loc[instr[1]] = loc[instr[2]] // d
            elif op == isa.MOD:
                d = loc[instr[3]]
                if d == 0:
                    raise DivisionByZeroFault("modulo by zero")
                loc[instr[1]] = loc[instr[2]] % d
            elif op == isa.AND:
                loc[instr[1]] = loc[instr[2]] & loc[instr[3]]
            elif op == isa.OR:
                loc[instr[1]] = loc[instr[2]] | loc[instr[3]]
            elif op == isa.XOR:
                loc[instr[1]] = loc[instr[2]] ^ loc[instr[3]]
            elif op == isa.SHL:
                loc[instr[1]] = (loc[instr[2]]
                                 << (loc[instr[3]] & 63)) & _MASK64
            elif op == isa.SHR:
                loc[instr[1]] = loc[instr[2]] >> (loc[instr[3]] & 63)
            elif op == isa.LT:
                loc[instr[1]] = 1 if loc[instr[2]] < loc[instr[3]] else 0
            elif op == isa.LE:
                loc[instr[1]] = 1 if loc[instr[2]] <= loc[instr[3]] else 0
            elif op == isa.GT:
                loc[instr[1]] = 1 if loc[instr[2]] > loc[instr[3]] else 0
            elif op == isa.GE:
                loc[instr[1]] = 1 if loc[instr[2]] >= loc[instr[3]] else 0
            elif op == isa.EQ:
                loc[instr[1]] = 1 if loc[instr[2]] == loc[instr[3]] else 0
            elif op == isa.NE:
                loc[instr[1]] = 1 if loc[instr[2]] != loc[instr[3]] else 0
            elif op == isa.NOT:
                loc[instr[1]] = 1 if loc[instr[2]] == 0 else 0
            elif op == isa.NEG:
                loc[instr[1]] = (-loc[instr[2]]) & _MASK64
            elif op == isa.JMP:
                frame.pc = instr[1]
            elif op == isa.JZ:
                if loc[instr[1]] == 0:
                    frame.pc = instr[2]
            elif op == isa.JNZ:
                if loc[instr[1]] != 0:
                    frame.pc = instr[2]
            elif op == isa.CALL:
                callee = machine.program.functions[instr[2]]
                new_locals = [0] * callee.n_locals
                for i, slot in enumerate(instr[3]):
                    new_locals[i] = loc[slot]
                frames.append(Frame(callee, 0, new_locals, instr[1]))
            elif op == isa.RET:
                value = 0 if instr[1] is None else loc[instr[1]]
                finished = frames.pop()
                if not frames:
                    machine.halted = True
                    machine._finish_run(pending_ns, entry_count)
                    return RunResult(RunReason.HALT)
                if finished.ret_dst is not None:
                    frames[-1].locals[finished.ret_dst] = value
            elif op == isa.MALLOC:
                clock.charge(pending_ns + machine.costs.alloc_ns)
                pending_ns = 0
                site = (None if ext.mode is ExtensionMode.OFF
                        else reference_callsite(machine, pc))
                loc[instr[1]] = ext.malloc(loc[instr[2]], site)
            elif op == isa.FREE:
                clock.charge(pending_ns + machine.costs.alloc_ns)
                pending_ns = 0
                site = (None if ext.mode is ExtensionMode.OFF
                        else reference_callsite(machine, pc))
                ext.free(loc[instr[1]], site)
            elif op == isa.MEMSET:
                addr, val, ln = (loc[instr[1]], loc[instr[2]],
                                 loc[instr[3]])
                if ln:
                    if trace:
                        ext.note_access(
                            addr, ln, True, (frame.func.name, pc))
                    mem.fill(addr, val & 0xFF, ln)
                    clock.charge(machine.costs.fill_cost(ln))
            elif op == isa.MEMCPY:
                dst, src, ln = (loc[instr[1]], loc[instr[2]],
                                loc[instr[3]])
                if ln:
                    if trace:
                        iid = (frame.func.name, pc)
                        ext.note_access(src, ln, False, iid)
                        ext.note_access(dst, ln, True, iid)
                    mem.copy_within(dst, src, ln)
                    clock.charge(machine.costs.fill_cost(ln))
            elif op == isa.IN:
                token = machine.input.next()
                if token is None:
                    # Rewind so a later feed()+run() re-executes IN.
                    # The rewound IN is excluded from the charge as
                    # well as the count: it never executed, so its
                    # instr_ns stays out of sim time and the flushed
                    # telemetry matches instr_count exactly.
                    frame.pc = pc
                    machine.instr_count -= 1
                    machine._finish_run(pending_ns - instr_ns, entry_count)
                    return RunResult(RunReason.INPUT_EXHAUSTED)
                loc[instr[1]] = token & _MASK64
            elif op == isa.OUT:
                if pending_ns:
                    clock.charge(pending_ns)
                    pending_ns = 0
                machine.output.emit(clock.now_ns, loc[instr[1]])
            elif op == isa.ASSERT:
                if loc[instr[1]] == 0:
                    raise AssertionFailure(instr[2] or "assertion failed")
            elif op == isa.HALT:
                machine.halted = True
                machine._finish_run(pending_ns, entry_count)
                return RunResult(RunReason.HALT)
            elif op == isa.GLOAD:
                loc[instr[1]] = glb[instr[2]]
            elif op == isa.GSTORE:
                glb[instr[1]] = loc[instr[2]]
            elif op == isa.RAND:
                loc[instr[1]] = machine.entropy.next_u64()
            elif op == isa.NOP:
                pass
            else:  # pragma: no cover - finalize() rejects these
                raise SimulatedFault(f"illegal opcode {op}")
        except SimulatedFault as fault:
            machine._finish_run(pending_ns, entry_count)
            fault.instr_id = (frame.func.name, pc)
            machine.fault = fault
            return RunResult(RunReason.FAULT, fault)


@contextmanager
def reference_tier():
    """Run every :class:`Machine` on :func:`run_reference` inside the
    ``with`` block."""
    compiled = Machine.__dict__["_run_compiled"]
    Machine._run_compiled = run_reference
    try:
        yield
    finally:
        Machine._run_compiled = compiled


#: The two sides of every cross-tier comparison, by name: the oracle,
#: then the compiled tier (the machine as it is).
SIDES = {"reference": reference_tier, "compiled": nullcontext}
