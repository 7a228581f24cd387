"""Template JIT: MiniC bytecode -> specialized Python closures.

A switch interpreter pays a 40-way ``elif`` dispatch plus
operand-tuple indexing on every instruction.  Recovery multiplies that
cost by thousands: each diagnosis probe, validation run, and chaos
re-execution re-runs the *same* program, so interpretation would
dominate every phase's wall clock.

This module removes the dispatch entirely; it is the machine's one
tier.  Each function's bytecode is split into extended basic blocks,
and each block entry point is ``exec``-compiled -- on demand, the
first time execution reaches it -- into one Python closure with every
operand baked in as a constant (bounds checks, dirty-page marking and
counters elided here)::

    LOAD t, base, 8, 8          _o1 = s1 + 8 - mbase
    ADDI t, t, 1          ==>   s0 = _ld8(mbuf, _o1)[0]
    STORE base, 8, 8, t         s0 = (s0 + 1) & 0xFFFFFFFFFFFFFFFF
                                _st8(mbuf, _o1, s0 & 0xFFFFFFFFFFFFFFFF)
                                ...

Equivalence is the hard constraint, not the speed: the compiled tier
must preserve every observable of the switch interpreter, kept as the
oracle in ``tests/reference_machine.py`` -- byte-identical
:class:`~repro.vm.state.MachineSnapshot` contents, identical sim-time
charging (batched ``pending_ns`` with flushes at MALLOC/FREE/OUT and
run exits, inline MEMSET/MEMCPY fill costs), exact ``instr_count`` so
``stop_at`` checkpoint boundaries land on the same instruction,
identical fault ``instr_id`` and call-site capture, and identical
access tracing: the same illegal accesses and init marks in the same
order, and the same clock at every flush.  The oracle calls
``note_access`` on every traced access; the compiled tier calls it
only where the extension's watch says it can act, and adds the other
accesses' ``trace_ns`` to the batched sim-time.  The contract on frame
state is that every architectural write is in ``frame.locals`` at
every exit from the closure: a value lives in its slot's Python local
and a literal may be deferred, but every path that leaves the closure
(successor, loop exit, input exhaustion, budget stop, fault freeze)
stores it first.  Nothing reads ``frame.locals`` while a block runs --
only snapshots and the run loop do, between blocks.  A ``stop_at``
that lands strictly inside a block makes it return ``STEP`` before it
executes anything (a closed loop, at the top of an iteration); the run
loop then steps the remainder, the budget tail, with one-instruction
closures (``compile_block(pc, cap=1)``), which stop with
per-instruction precision.

Superinstruction fusion, applied during emission:

* **constant propagation** -- a slot written by CONST (or folded
  arithmetic) is tracked; later reads in the same block bake the
  literal into the using expression, so CONST+ADD/ADDI chains collapse
  into pre-folded Python constants;
* **compare+branch** -- a comparison immediately consumed by JZ/JNZ
  branches on the raw Python bool (the 0/1 architectural write still
  happens);
* **jump threading** -- an unconditional JMP is followed at compile
  time, so a block extends across it (the JMP still costs one
  instruction tick, it just emits no code);
* **loop closing** -- a block whose terminator branches back to its own
  entry compiles into a Python ``while`` loop, so hot loop iterations
  never return to the dispatch loop at all (the per-iteration budget
  check keeps ``stop_at`` exact).  Its prologue computes what the
  iterations share: the budget bound, the heap length when the body
  holds no MALLOC, and the sim-time per iteration;
* **slot promotion** -- every block holds each slot it reads or
  writes in a Python local (``s<N>``), computes on those locals, and
  stores the slots it writes back to ``frame.locals`` at each exit.
  The prologue loads only the slots used before the block assigns
  them; a closed loop, whose budget stop atop every iteration stores
  them back, loads all of them once per call, so its iterations never
  index the frame;
* **inline memory access** -- LOAD/STORE emit the simulated heap's
  bounds check, ``struct`` decode/encode (a plain index for 1-byte
  words; :data:`~repro.heap.base.UINT_STRUCTS` for the rest) and
  dirty-page marking inline, delegating to
  :class:`~repro.heap.base.Memory` only on the faulting path (which
  re-raises the byte-identical ``SegmentationFault``).  When tracing,
  LOAD, STORE, MEMSET and MEMCPY test the access's 8-byte granule
  against the extension's watch inline
  (:meth:`~repro.heap.extension.AllocatorExtension.build_watch`).

Compiled programs are cached process-wide keyed by *code identity*
(:meth:`Program.code_key`), so the thousands of re-executions a single
recovery performs -- including tasks decoded in ``ForkExecutor`` worker
processes, which inherit the parent's cache across the fork -- compile
each block exactly once.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.errors import (
    AssertionFailure,
    DivisionByZeroFault,
    ProgramError,
    SimulatedFault,
)
from repro.heap.base import PAGE_SIZE, UINT_STRUCTS
from repro.heap.extension import ExtensionMode
from repro.vm import isa
from repro.vm.state import Frame

#: The machine's one tier; Process and FirstAidConfig.vm_tier accept
#: only this name.
TIER_COMPILED = "compiled"

#: Dispatch codes returned by block closures to the compiled run loop.
CONTINUE = 0      # block done, frame.pc points at the successor
HALTED = 1        # HALT or final RET: machine.halted set
FAULTED = 2       # SimulatedFault: machine.fault set, state frozen
EXHAUSTED = 3     # IN found no token: rewound, counters settled
STEP = 4          # budget smaller than block: the run loop steps it

#: Emission cap per block; a pathological straight line splits with an
#: explicit goto so compilation stays incremental.
MAX_BLOCK = 2048

_MASK = "0xFFFFFFFFFFFFFFFF"

#: A closed loop's budget bound when the run has no stop: no
#: instruction count reaches it.
_NO_LIMIT = 1 << 62

#: Ops that end a block's straight-line emission (JMP is *followed*,
#: not listed: jump threading).
_BRANCHING = (isa.JZ, isa.JNZ, isa.CALL, isa.RET, isa.HALT)

_CMP_EXPR = {
    isa.LT: "<", isa.LE: "<=", isa.GT: ">", isa.GE: ">=",
    isa.EQ: "==", isa.NE: "!=",
}

_ARITH = {
    isa.ADD: "({a} + {b}) & " + _MASK,
    isa.SUB: "({a} - {b}) & " + _MASK,
    isa.MUL: "({a} * {b}) & " + _MASK,
    isa.AND: "{a} & {b}",
    isa.OR: "{a} | {b}",
    isa.XOR: "{a} ^ {b}",
    isa.SHL: "({a} << ({b} & 63)) & " + _MASK,
    isa.SHR: "{a} >> ({b} & 63)",
}

_FOLD = {
    isa.ADD: lambda a, b: (a + b) & 0xFFFFFFFFFFFFFFFF,
    isa.SUB: lambda a, b: (a - b) & 0xFFFFFFFFFFFFFFFF,
    isa.MUL: lambda a, b: (a * b) & 0xFFFFFFFFFFFFFFFF,
    isa.AND: lambda a, b: a & b,
    isa.OR: lambda a, b: a | b,
    isa.XOR: lambda a, b: a ^ b,
    isa.SHL: lambda a, b: (a << (b & 63)) & 0xFFFFFFFFFFFFFFFF,
    isa.SHR: lambda a, b: a >> (b & 63),
}

#: Slots read by each opcode (operand positions into the instr tuple).
_READS = {
    isa.MOV: (2,), isa.ADD: (2, 3), isa.SUB: (2, 3), isa.MUL: (2, 3),
    isa.DIV: (2, 3), isa.MOD: (2, 3), isa.AND: (2, 3), isa.OR: (2, 3),
    isa.XOR: (2, 3), isa.SHL: (2, 3), isa.SHR: (2, 3), isa.LT: (2, 3),
    isa.LE: (2, 3), isa.GT: (2, 3), isa.GE: (2, 3), isa.EQ: (2, 3),
    isa.NE: (2, 3), isa.NOT: (2,), isa.NEG: (2,), isa.ADDI: (2,),
    isa.JZ: (1,), isa.JNZ: (1,), isa.MALLOC: (2,), isa.FREE: (1,),
    isa.LOAD: (2,), isa.STORE: (1, 4), isa.MEMSET: (1, 2, 3),
    isa.MEMCPY: (1, 2, 3), isa.OUT: (1,), isa.ASSERT: (1,),
    isa.GSTORE: (2,),
}

#: Opcodes that write instr[1] as a local slot.
_WRITES_DST = frozenset((
    isa.CONST, isa.MOV, isa.ADD, isa.SUB, isa.MUL, isa.DIV, isa.MOD,
    isa.AND, isa.OR, isa.XOR, isa.SHL, isa.SHR, isa.LT, isa.LE, isa.GT,
    isa.GE, isa.EQ, isa.NE, isa.NOT, isa.NEG, isa.ADDI, isa.MALLOC,
    isa.LOAD, isa.IN, isa.GLOAD, isa.RAND,
))


def _slots_read(instr) -> Tuple[int, ...]:
    op = instr[0]
    if op == isa.CALL:
        return tuple(instr[3])
    if op == isa.RET:
        return () if instr[1] is None else (instr[1],)
    positions = _READS.get(op, ())
    return tuple(instr[p] for p in positions)


def _slot_written(instr) -> Optional[int]:
    return instr[1] if instr[0] in _WRITES_DST else None


class FusionStats:
    """Counts of superinstruction rewrites applied during compilation
    (exposed for tests and the microbenchmark's report)."""

    __slots__ = ("const_folds", "cmp_branches", "threaded_jumps",
                 "closed_loops", "promoted_slots", "blocks",
                 "instructions")

    def __init__(self) -> None:
        self.const_folds = 0
        self.cmp_branches = 0
        self.threaded_jumps = 0
        self.closed_loops = 0
        self.promoted_slots = 0
        self.blocks = 0
        self.instructions = 0

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


class _Emitter:
    """Collects the Python source of one block closure.

    Every slot the block touches lives in a Python local ``s<N>`` for
    the whole closure.  ``spilled`` holds the slots it writes, which
    every exit stores back to ``frame.locals``; ``loaded`` the slots
    the prologue must read from ``frame.locals``: those read, or
    stored back by an exit, before the block assigns them (``bound``).
    """

    def __init__(self, cf: "CompiledFunction", entry_pc: int,
                 spilled: Tuple[int, ...]):
        self.cf = cf
        self.entry_pc = entry_pc
        self.spilled = spilled
        self.loaded: set = set()
        self.bound: set = set()
        self.lines: List[str] = []
        self.consts: Dict[int, int] = {}    # slot -> known literal
        self.globals: Dict[str, object] = {}
        self.done: Dict[int, int] = {}      # ip -> instrs incl. faulter
        self.unflushed: Dict[int, int] = {} # ip -> unflushed instrs
        self.last_flush = -1                # emission index of last flush
        self.temp_serial = 0
        self.needs: set = set()
        self.dirty: set = set()     # slots with a deferred literal
        self.stats = cf.stats
        #: A closed loop: per-iteration bookkeeping moves to the
        #: prologue (see :meth:`CompiledFunction._assemble`).
        self.loop = False
        #: The heap length a bounds check compares against: a prologue
        #: local in a loop that cannot ``sbrk``.
        self.mlen = "len(mbuf)"
        #: Instructions a loop charges per iteration at its one settle,
        #: as the prologue constant ``_pdk = pd_step * instr_ns``.
        self.pd_step = 0

    # -- operand helpers ------------------------------------------------

    def read(self, slot: int) -> str:
        if slot in self.consts:
            self.stats.const_folds += 1
            return repr(self.consts[slot])
        if slot not in self.bound:
            self.loaded.add(slot)
        return f"s{slot}"

    def read_value(self, slot: int):
        """The known literal for ``slot``, or None."""
        return self.consts.get(slot)

    def kill(self, slot: int) -> None:
        self.consts.pop(slot, None)
        self.dirty.discard(slot)

    def fresh_temp(self) -> str:
        self.temp_serial += 1
        return f"_v{self.temp_serial}"

    def write(self, slot: int, expr: str,
              literal: Optional[int] = None) -> None:
        """Architectural write of ``expr`` into ``slot``'s local.

        A literal is *deferred*: the local only has to hold it where
        frame state becomes observable -- a fault freeze, an
        input-exhaustion exit, or a block exit -- so
        :meth:`flush_locals` materializes pending literals exactly
        there, and a slot overwritten before any such point never
        stores its intermediate value at all."""
        self.kill(slot)
        if literal is not None:
            self.consts[slot] = literal
            self.dirty.add(slot)
            return
        self.emit(f"s{slot} = {expr}")
        self.bound.add(slot)

    def flush_locals(self) -> None:
        """Materialize deferred literals.  Called before anything that
        can make frame state observable: a faulting op (freeze), IN
        (exhaustion exit), and every block exit/backedge."""
        for slot in sorted(self.dirty):
            self.emit(f"s{slot} = {self.consts[slot]!r}")
        self.bound |= self.dirty
        self.dirty.clear()

    def expose(self) -> None:
        """An exit that stores the written slots back may leave from
        here: the ones not yet assigned must hold their entry value."""
        self.loaded.update(s for s in self.spilled if s not in self.bound)

    def spill_lines(self, indent: str = "") -> List[str]:
        """Store the block's written slots back to ``frame.locals``;
        part of every path that leaves the closure after the block has
        written (after :meth:`flush_locals` and :meth:`expose`)."""
        return [f"{indent}loc[{slot}] = s{slot}" for slot in self.spilled]

    def emit(self, line: str) -> None:
        self.lines.append(line)

    # -- bookkeeping -----------------------------------------------------

    def breadcrumb(self, pc: int, index: int) -> None:
        """Record fault-recovery tables and drop the ``ip`` marker the
        except handler keys on.  Deferred local stores flush here: a
        fault freeze makes the frame observable."""
        self.flush_locals()
        self.expose()
        self.emit(f"ip = {pc}")
        self.done[pc] = index + 1
        self.unflushed[pc] = index - self.last_flush

    def flush_expr(self, index: int) -> str:
        """Pending sim-time through emission index ``index``.  Counters
        live in closure locals (``_ic``/``_pd``) and sync back to the
        machine only at exits, so hot loop iterations never pay
        attribute stores."""
        mult = index - self.last_flush
        if mult:
            return f"_pd + {mult} * instr_ns"
        return "_pd"

    def mark_flushed(self, index: int) -> None:
        self.last_flush = index

    def settle(self, n: int) -> None:
        """Account the block's instructions and unflushed sim-time
        (emitted once per exit path / loop backedge)."""
        self.emit(f"_ic += {n}")
        mult = (n - 1) - self.last_flush
        if mult and self.loop:
            self.pd_step = mult
            self.emit("_pd += _pdk")
        elif mult:
            self.emit(f"_pd += {mult} * instr_ns")

    def sync(self, indent: str = "") -> None:
        """Write the local counters and promoted slots back to the
        machine; emitted on every path that leaves the closure."""
        self.expose()
        self.emit(indent + "vm.instr_count = _ic")
        self.emit(indent + "vm._pending = _pd")
        self.lines.extend(self.spill_lines(indent))


class CompiledFunction:
    """Per-function block cache: entry pc -> compiled closure, and
    entry pc -> one-instruction step closure for budget tails."""

    __slots__ = ("name", "code", "program_meta", "blocks", "steps",
                 "sources", "stats")

    def __init__(self, name: str, code, program_meta: Dict[str, int],
                 stats: FusionStats):
        self.name = name
        self.code = code
        #: callee name -> n_locals (for CALL frame construction).
        self.program_meta = program_meta
        self.blocks: Dict[int, object] = {}
        self.steps: Dict[int, object] = {}
        self.sources: Dict[int, str] = {}
        self.stats = stats

    def block(self, pc: int):
        blk = self.blocks.get(pc)
        if blk is None:
            blk = self.compile_block(pc)
        return blk

    # ------------------------------------------------------------------
    # block planning
    # ------------------------------------------------------------------

    def block_plan(self, entry_pc: int,
                   cap: int = MAX_BLOCK) -> Tuple[List[int], Tuple]:
        """The emission plan for the block entered at ``entry_pc``:
        the pcs executed (in order, jump-threaded across JMPs, at most
        ``cap``) and the terminator, one of ``("op", pc)``
        (JZ/JNZ/CALL/RET/HALT at the final pc), ``("goto", pc)``
        (``cap`` reached, or a jump into already-emitted code), or
        ``("loop",)`` (a JMP straight back to the entry)."""
        code = self.code
        if not (0 <= entry_pc < len(code)):
            raise ProgramError(
                f"{self.name}: block entry {entry_pc} out of range")
        pcs: List[int] = []
        seen = set()
        pc = entry_pc
        while True:
            if pc in seen:
                return pcs, (("loop",) if pc == entry_pc
                             else ("goto", pc))
            if len(pcs) >= cap:
                return pcs, ("goto", pc)
            op = code[pc][0]
            seen.add(pc)
            pcs.append(pc)
            if op == isa.JMP:
                pc = code[pc][1]
            elif op in _BRANCHING:
                return pcs, ("op", pc)
            else:
                pc += 1

    # ------------------------------------------------------------------
    # block compilation
    # ------------------------------------------------------------------

    def compile_block(self, entry_pc: int, cap: int = MAX_BLOCK):
        """Compile the block entered at ``entry_pc`` and cache it in
        :attr:`blocks`, with its source in :attr:`sources`.  A smaller
        ``cap`` builds a step closure for the run loop's budget tails
        (``cap=1``: one instruction), cached in :attr:`steps` alone."""
        code = self.code
        pcs, term = self.block_plan(entry_pc, cap)
        n = len(pcs)
        stats = self.stats
        stats.blocks += 1
        stats.instructions += n

        # A terminator that branches back to this block's entry turns
        # the closure into a Python loop: iterations never return to
        # the dispatch loop.
        loop_form = term[0] == "loop"
        if term[0] == "op":
            tinstr = code[term[1]]
            if tinstr[0] in (isa.JZ, isa.JNZ):
                if tinstr[2] == entry_pc or term[1] + 1 == entry_pc:
                    loop_form = True

        body = pcs[:-1] if term[0] == "op" else pcs
        # The block holds its slots in Python locals: nothing else
        # touches frame.locals while it runs (CALL/RET only end a
        # block), so only its exits need to store them back.
        written = {_slot_written(code[bpc]) for bpc in body}
        written.discard(None)
        read = {slot for bpc in pcs for slot in _slots_read(code[bpc])}
        stats.promoted_slots += len(read | written)
        em = _Emitter(self, entry_pc, tuple(sorted(written)))
        if loop_form:
            # The budget stop atop every iteration stores the written
            # slots back, so a closed loop loads all of them up front.
            stats.closed_loops += 1
            em.loaded |= read | written
            em.loop = True
            # MALLOC is the only op that can sbrk: without one, the
            # heap length holds for the whole call.
            if all(code[bpc][0] != isa.MALLOC for bpc in body):
                em.mlen = "_mlen"

        for index, bpc in enumerate(body):
            self._emit_instr(em, bpc, index, code[bpc])

        if term[0] == "loop":
            em.flush_locals()
            em.settle(n)
            em.emit("continue")
        elif term[0] == "goto":
            em.flush_locals()
            em.settle(n)
            em.sync()
            em.emit(f"frame.pc = {term[1]}")
            em.emit("return 0")
        else:
            self._emit_terminator(em, term[1], n, code[term[1]],
                                  prev_pc=pcs[-2] if n > 1 else None)

        fn, source = self._assemble(em, n, loop_form)
        if cap < MAX_BLOCK:
            self.steps[entry_pc] = fn
        else:
            self.blocks[entry_pc] = fn
            self.sources[entry_pc] = source
        return fn

    # -- straight-line ops ----------------------------------------------

    def _emit_instr(self, em: _Emitter, pc: int, index: int,
                    instr) -> None:
        op = instr[0]
        if op == isa.NOP:
            return
        if op == isa.JMP:
            # Threaded: costs one instruction tick, emits no code.
            em.stats.threaded_jumps += 1
            return
        if op == isa.CONST:
            em.write(instr[1], "",
                     literal=instr[2] & 0xFFFFFFFFFFFFFFFF)
            return
        if op == isa.MOV:
            src = instr[2]
            lit = em.read_value(src)
            if lit is not None:
                em.write(instr[1], "", literal=lit)
            else:
                em.write(instr[1], em.read(src))
            return
        if op in _ARITH:
            a, b = em.read_value(instr[2]), em.read_value(instr[3])
            if a is not None and b is not None:
                em.write(instr[1], "", literal=_FOLD[op](a, b))
            else:
                expr = _ARITH[op].format(a=em.read(instr[2]),
                                         b=em.read(instr[3]))
                em.write(instr[1], expr)
            return
        if op == isa.ADDI:
            a = em.read_value(instr[2])
            if a is not None:
                em.write(instr[1], "",
                         literal=(a + instr[3]) & 0xFFFFFFFFFFFFFFFF)
            else:
                em.write(instr[1],
                         f"({em.read(instr[2])} + {instr[3]!r}) & "
                         + _MASK)
            return
        if op in _CMP_EXPR:
            sym = _CMP_EXPR[op]
            em.write(instr[1],
                     f"1 if {em.read(instr[2])} {sym} "
                     f"{em.read(instr[3])} else 0")
            return
        if op == isa.NOT:
            em.write(instr[1], f"1 if {em.read(instr[2])} == 0 else 0")
            return
        if op == isa.NEG:
            em.write(instr[1], f"(-{em.read(instr[2])}) & " + _MASK)
            return
        if op in (isa.DIV, isa.MOD):
            sym = "//" if op == isa.DIV else "%"
            b = em.read_value(instr[3])
            if b is not None and b != 0:
                # Divisor is a known non-zero constant: the op cannot
                # fault, so no breadcrumb, no zero test, no flush.
                a = em.read_value(instr[2])
                if a is not None:
                    em.write(instr[1], "",
                             literal=a // b if op == isa.DIV else a % b)
                else:
                    em.write(instr[1],
                             f"{em.read(instr[2])} {sym} {b!r}")
                return
            em.needs.add("fault")
            em.breadcrumb(pc, index)
            d = em.fresh_temp()
            em.emit(f"{d} = {em.read(instr[3])}")
            em.emit(f"if {d} == 0:")
            msg = ("division by zero" if op == isa.DIV
                   else "modulo by zero")
            em.emit(f"    raise _DivZero({msg!r})")
            em.write(instr[1], f"{em.read(instr[2])} {sym} {d}")
            return
        if op == isa.LOAD:
            self._emit_load(em, pc, index, instr)
            return
        if op == isa.STORE:
            self._emit_store(em, pc, index, instr)
            return
        if op == isa.MALLOC:
            em.needs.update(("fault", "ext", "clock", "costs"))
            em.breadcrumb(pc, index)
            em.emit(f"clock.charge({em.flush_expr(index)}"
                    " + costs.alloc_ns)")
            em.emit("_pd = 0")
            em.mark_flushed(index)
            em.unflushed[pc] = 0
            em.write(instr[1], f"ext.malloc({em.read(instr[2])},"
                     " None if ext.mode is _OFF"
                     f" else vm.current_callsite({pc}))")
            return
        if op == isa.FREE:
            em.needs.update(("fault", "ext", "clock", "costs"))
            em.breadcrumb(pc, index)
            em.emit(f"clock.charge({em.flush_expr(index)}"
                    " + costs.alloc_ns)")
            em.emit("_pd = 0")
            em.mark_flushed(index)
            em.unflushed[pc] = 0
            em.emit(f"ext.free({em.read(instr[1])},"
                    " None if ext.mode is _OFF"
                    f" else vm.current_callsite({pc}))")
            return
        if op == isa.MEMSET:
            em.needs.update(("fault", "mem", "trace", "clock", "costs"))
            em.breadcrumb(pc, index)
            ln = em.fresh_temp()
            em.emit(f"{ln} = {em.read(instr[3])}")
            em.emit(f"if {ln}:")
            a = em.fresh_temp()
            em.emit(f"    {a} = {em.read(instr[1])}")
            self._emit_trace(em, pc, a, ln, True, "    ")
            em.emit(f"    mem.fill({a}, {em.read(instr[2])} & 255, "
                    f"{ln})")
            em.emit(f"    clock.charge(costs.fill_cost({ln}))")
            return
        if op == isa.MEMCPY:
            em.needs.update(("fault", "mem", "trace", "clock", "costs"))
            em.breadcrumb(pc, index)
            ln = em.fresh_temp()
            em.emit(f"{ln} = {em.read(instr[3])}")
            em.emit(f"if {ln}:")
            d = em.fresh_temp()
            s = em.fresh_temp()
            em.emit(f"    {d} = {em.read(instr[1])}")
            em.emit(f"    {s} = {em.read(instr[2])}")
            self._emit_trace(em, pc, s, ln, False, "    ")
            self._emit_trace(em, pc, d, ln, True, "    ")
            em.emit(f"    mem.copy_within({d}, {s}, {ln})")
            em.emit(f"    clock.charge(costs.fill_cost({ln}))")
            return
        if op == isa.IN:
            em.needs.add("input")
            em.flush_locals()  # exhaustion exit exposes the frame
            em.expose()
            t = em.fresh_temp()
            em.emit(f"{t} = inp.next()")
            em.emit(f"if {t} is None:")
            em.emit(f"    frame.pc = {pc}")
            ic = f"_ic + {index}" if index else "_ic"
            em.emit(f"    vm.instr_count = {ic}")
            # Completed-but-uncharged instructions only: the rewound
            # IN is neither counted nor timed (Machine rewind fix).
            mult = (index - 1) - em.last_flush
            pd = f"_pd + {mult} * instr_ns" if mult > 0 else "_pd"
            em.emit(f"    vm._pending = {pd}")
            em.lines.extend(em.spill_lines("    "))
            em.emit("    return 3")
            em.write(instr[1], f"{t} & " + _MASK)
            return
        if op == isa.OUT:
            em.needs.update(("clock", "output"))
            p = em.fresh_temp()
            em.emit(f"{p} = {em.flush_expr(index)}")
            em.emit(f"if {p}:")
            em.emit(f"    clock.charge({p})")
            em.emit("_pd = 0")
            em.mark_flushed(index)
            em.emit(f"out.emit(clock.now_ns, {em.read(instr[1])})")
            return
        if op == isa.ASSERT:
            em.needs.add("fault")
            em.breadcrumb(pc, index)
            em.emit(f"if {em.read(instr[1])} == 0:")
            msg = instr[2] or "assertion failed"
            em.emit(f"    raise _AssertFail({msg!r})")
            return
        if op == isa.GLOAD:
            em.needs.add("globals")
            em.write(instr[1], f"glb[{instr[2]}]")
            return
        if op == isa.GSTORE:
            em.needs.add("globals")
            em.emit(f"glb[{instr[1]}] = {em.read(instr[2])}")
            return
        if op == isa.RAND:
            em.needs.add("entropy")
            em.write(instr[1], "ent.next_u64()")
            return
        # Unknown opcode: fault exactly like the oracle.
        em.needs.add("fault")
        em.breadcrumb(pc, index)
        em.emit(f"raise _SimFault('illegal opcode {op}')")

    # -- inline memory access --------------------------------------------

    def _addr_expr(self, em: _Emitter, base_slot: int,
                   off: int) -> str:
        """The effective-address expression for a memory op.  A known
        literal base folds to a constant; a zero offset reuses the base
        atom directly (``em.read`` always yields an atom); otherwise a
        temp holds the sum since it is used more than once."""
        lit = em.read_value(base_slot)
        if lit is not None:
            return repr(lit + off)
        base = em.read(base_slot)
        if not off:
            return base
        a = em.fresh_temp()
        em.emit(f"{a} = {base} + {off!r}")
        return a

    def _emit_trace(self, em: _Emitter, pc: int, addr: str, size: str,
                    is_write: bool, indent: str = "") -> None:
        """Access tracing for one access at ``addr``: with the
        extension's watch, ``note_access`` runs only when ``addr``'s
        8-byte granule is watched; elsewhere it could only charge
        ``trace_ns``, which joins the pending sim-time instead, so the
        clock reads the same at every flush.  Without a watch (an
        extension that charges no clock, say) every access calls it.
        The watch is read on the traced path only, so an untraced
        block runs no extra code."""
        em.globals[f"_iid{pc}"] = (self.name, pc)
        em.emit(f"{indent}if trace:")
        em.emit(f"{indent}    _w = ext.watch")
        em.emit(f"{indent}    if _w is None or ({addr} >> 3) in _w:")
        em.emit(f"{indent}        ext.note_access({addr}, {size}, "
                f"{is_write}, _iid{pc})")
        em.emit(f"{indent}    else:")
        em.emit(f"{indent}        _pd += ext.costs.trace_ns")

    def _emit_load(self, em: _Emitter, pc: int, index: int,
                   instr) -> None:
        em.needs.update(("fault", "mem", "trace"))
        em.breadcrumb(pc, index)
        size = instr[4]
        a = self._addr_expr(em, instr[2], instr[3])
        self._emit_trace(em, pc, a, repr(size), False)
        # Memory.read_uint inlined: bounds check + little-endian
        # decode; the failing branch calls the real method, which
        # raises the byte-identical SegmentationFault.
        o = em.fresh_temp()
        em.emit(f"{o} = {a} - mbase")
        em.emit(f"if {o} < 0 or {o} + {size} > {em.mlen}:")
        em.emit(f"    mread({a}, {size!r})")
        if size == 1:
            value = f"mbuf[{o}]"
        else:
            em.globals[f"_ld{size}"] = UINT_STRUCTS[size].unpack_from
            value = f"_ld{size}(mbuf, {o})[0]"
        em.write(instr[1], value)

    def _emit_store(self, em: _Emitter, pc: int, index: int,
                    instr) -> None:
        em.needs.update(("fault", "mem", "trace"))
        em.breadcrumb(pc, index)
        size = instr[3]
        val_slot = instr[4]
        a = self._addr_expr(em, instr[1], instr[2])
        self._emit_trace(em, pc, a, repr(size), True)
        o = em.fresh_temp()
        em.emit(f"{o} = {a} - mbase")
        lit = em.read_value(val_slot)
        value = repr(lit) if lit is not None else em.read(val_slot)
        em.emit(f"if {o} < 0 or {o} + {size} > {em.mlen}:")
        em.emit(f"    mwrite({a}, {size!r}, {value})")
        mask = (1 << (8 * size)) - 1
        word = (repr(lit & mask) if lit is not None
                else f"{value} & {mask:#x}")
        if size == 1:
            em.emit(f"mbuf[{o}] = {word}")
        else:
            em.globals[f"_st{size}"] = UINT_STRUCTS[size].pack_into
            em.emit(f"_st{size}(mbuf, {o}, {word})")
        # Memory._mark_dirty inlined (spans at most two pages for the
        # word sizes the ISA allows).
        p0 = em.fresh_temp()
        em.emit(f"{p0} = {o} // {PAGE_SIZE}")
        if size > 1:
            p1 = em.fresh_temp()
            em.emit(f"{p1} = ({o} + {size - 1}) // {PAGE_SIZE}")
            em.emit(f"mdirty.add({p0})")
            em.emit(f"if {p1} != {p0}:")
            em.emit(f"    mdirty.add({p1})")
        else:
            em.emit(f"mdirty.add({p0})")

    # -- terminators ------------------------------------------------------

    def _emit_terminator(self, em: _Emitter, pc: int, n: int,
                         instr, prev_pc: Optional[int]) -> None:
        op = instr[0]
        if op in (isa.JZ, isa.JNZ):
            self._emit_branch(em, pc, n, instr, prev_pc)
            return
        if op == isa.CALL:
            em.needs.add("frames")
            em.flush_locals()
            em.settle(n)
            em.sync()
            callee = instr[2]
            n_locals = self.program_meta[callee]
            em.emit(f"frame.pc = {pc + 1}")
            em.emit(f"_nl = [0] * {n_locals}")
            for i, slot in enumerate(instr[3]):
                em.emit(f"_nl[{i}] = {em.read(slot)}")
            em.emit("vm.frames.append(_Frame("
                    f"vm.program.functions[{callee!r}], 0, _nl, "
                    f"{instr[1]!r}))")
            em.emit("return 0")
            return
        if op == isa.RET:
            em.flush_locals()
            em.settle(n)
            em.sync()
            em.emit(f"frame.pc = {pc + 1}")
            value = "0" if instr[1] is None else em.read(instr[1])
            em.emit(f"_rv = {value}")
            em.emit("_fr = vm.frames")
            em.emit("_fr.pop()")
            em.emit("if not _fr:")
            em.emit("    vm.halted = True")
            em.emit("    return 1")
            em.emit("_rd = frame.ret_dst")
            em.emit("if _rd is not None:")
            em.emit("    _fr[-1].locals[_rd] = _rv")
            em.emit("return 0")
            return
        if op == isa.HALT:
            em.flush_locals()
            em.settle(n)
            em.sync()
            em.emit(f"frame.pc = {pc + 1}")
            em.emit("vm.halted = True")
            em.emit("return 1")
            return
        raise ProgramError(
            f"{self.name}+{pc}: unexpected terminator {op}")

    def _emit_branch(self, em: _Emitter, pc: int, n: int, instr,
                     prev_pc: Optional[int]) -> None:
        op = instr[0]
        taken_target = instr[2]
        fall_target = pc + 1
        entry = em.entry_pc

        em.flush_locals()
        held = self._fused_condition(em, instr, prev_pc)
        if held is None:
            value = em.read(instr[1])
            taken_expr = (f"{value} == 0" if op == isa.JZ
                          else f"{value} != 0")
            fall_expr = (f"{value} != 0" if op == isa.JZ
                         else f"{value} == 0")
        else:
            taken_expr = f"not {held}" if op == isa.JZ else held
            fall_expr = held if op == isa.JZ else f"not {held}"

        if taken_target == entry and fall_target == entry:
            em.settle(n)
            em.emit("continue")
            return
        if fall_target == entry:
            # exit on the taken side, loop on fall-through
            em.settle(n)
            em.emit(f"if {taken_expr}:")
            em.emit(f"    frame.pc = {taken_target}")
            em.sync("    ")
            em.emit("    return 0")
            em.emit("continue")
            return
        if taken_target == entry:
            em.settle(n)
            em.emit(f"if {fall_expr}:")
            em.emit(f"    frame.pc = {fall_target}")
            em.sync("    ")
            em.emit("    return 0")
            em.emit("continue")
            return
        em.settle(n)
        em.sync()
        em.emit(f"if {taken_expr}:")
        em.emit(f"    frame.pc = {taken_target}")
        em.emit("else:")
        em.emit(f"    frame.pc = {fall_target}")
        em.emit("return 0")

    def _fused_condition(self, em: _Emitter, instr,
                         prev_pc: Optional[int]) -> Optional[str]:
        """When the emission-order predecessor is a comparison (or NOT)
        whose dst feeds this branch, return a truthy expression for
        "the comparison held" -- the slot's 0/1 local, or a known
        literal -- so the branch tests it directly (compare+branch
        superinstruction)."""
        if prev_pc is None:
            return None
        prev = self.code[prev_pc]
        if prev[0] not in _CMP_EXPR and prev[0] != isa.NOT:
            return None
        if _slot_written(prev) != instr[1]:
            return None
        em.stats.cmp_branches += 1
        lit = em.read_value(instr[1])
        return f"s{instr[1]}" if lit is None else repr(bool(lit))

    # -- assembly ---------------------------------------------------------

    def _assemble(self, em: _Emitter, n_instrs: int, loop_form: bool):
        needs = em.needs
        pre: List[str] = [
            "def _block(vm, frame, limit):",
            "    loc = frame.locals",
            "    instr_ns = vm.costs.instr_ns",
            "    _ic = vm.instr_count",
            "    _pd = vm._pending",
        ]
        if "mem" in needs:
            pre.append("    mem = vm.mem")
            pre.append("    mbase = mem.base")
            pre.append("    mbuf = mem._buf")
            pre.append("    mdirty = mem._dirty_pages")
            pre.append("    mread = mem.read_uint")
            pre.append("    mwrite = mem.write_uint")
        if "trace" in needs:
            pre.append("    trace = vm.trace_accesses")
        if "trace" in needs or "ext" in needs:
            pre.append("    ext = vm.extension")
        if "clock" in needs:
            pre.append("    clock = vm.clock")
        if "costs" in needs:
            pre.append("    costs = vm.costs")
        if "globals" in needs:
            pre.append("    glb = vm.globals")
        if "input" in needs:
            pre.append("    inp = vm.input")
        if "output" in needs:
            pre.append("    out = vm.output")
        if "entropy" in needs:
            pre.append("    ent = vm.entropy")
        fault = "fault" in needs
        if fault:
            pre.append("    ip = -1")
        pre.extend(f"    s{slot} = loc[{slot}]" for slot in sorted(em.loaded))

        indent = "    "
        src = list(pre)
        if loop_form:
            # Per-call bookkeeping a loop's iterations share: the budget
            # bound, the heap length and the sim-time per iteration.
            src.append(f"    _lim = {_NO_LIMIT} if limit is None "
                       f"else limit - {n_instrs}")
            if "mem" in needs and em.mlen == "_mlen":
                src.append("    _mlen = len(mbuf)")
            if em.pd_step:
                src.append(f"    _pdk = {em.pd_step} * instr_ns")
            src.append("    while True:")
            indent += "    "
            src.append(f"{indent}if _ic > _lim:")
        else:
            src.append(f"{indent}if limit is not None and "
                       f"_ic + {n_instrs} > limit:")
        src.append(f"{indent}    vm.instr_count = _ic")
        src.append(f"{indent}    vm._pending = _pd")
        if loop_form:
            # A straight-line block stops before it writes anything.
            src.extend(em.spill_lines(indent + "    "))
        src.append(f"{indent}    return 4")
        if fault:
            src.append(f"{indent}try:")
            body_indent = indent + "    "
        else:
            body_indent = indent
        src.extend(body_indent + line for line in em.lines)
        if fault:
            src.append(f"{indent}except _SimFault as fault:")
            h = indent + "    "
            src.append(f"{h}frame.pc = ip + 1")
            src.append(f"{h}vm.instr_count = _ic + _done[ip]")
            src.append(f"{h}vm._pending = _pd + _unf[ip] * instr_ns")
            src.extend(em.spill_lines(h))
            src.append(f"{h}fault.instr_id = ({self.name!r}, ip)")
            src.append(f"{h}vm.fault = fault")
            src.append(f"{h}return 2")
        source = "\n".join(src) + "\n"

        namespace = {
            "_SimFault": SimulatedFault,
            "_DivZero": DivisionByZeroFault,
            "_AssertFail": AssertionFailure,
            "_Frame": Frame,
            "_OFF": ExtensionMode.OFF,
            "_done": em.done,
            "_unf": em.unflushed,
        }
        namespace.update(em.globals)
        exec(compile(source, f"<jit {self.name}+{em.entry_pc}>",
                     "exec"), namespace)
        return namespace["_block"], source


class CompiledProgram:
    """All compiled functions of one program plus fusion statistics."""

    __slots__ = ("key", "functions", "stats", "binds")

    def __init__(self, program) -> None:
        self.key = program.code_key()
        self.stats = FusionStats()
        meta = {name: fn.n_locals
                for name, fn in program.functions.items()}
        self.functions: Dict[str, CompiledFunction] = {
            name: CompiledFunction(
                name, tuple(tuple(i) for i in fn.code), meta,
                self.stats)
            for name, fn in program.functions.items()
        }
        #: How many Program instances bound to this compilation unit
        #: (cache-hit observability for tests and the benchmark).
        self.binds = 0


#: Process-wide compiled-program cache, keyed by code identity.  Bounded
#: so a harness that churns through many generated programs does not
#: grow it without limit; eviction is LRU, which is plenty for the
#: re-execution workloads the tier exists for.
_CACHE: "OrderedDict[object, CompiledProgram]" = OrderedDict()
_CACHE_MAX = 64


def compiled_for(program) -> CompiledProgram:
    """The (cached) compilation unit for ``program``: two programs with
    identical code share one unit, so every re-execution a recovery
    performs -- clones, probes, validation runs, forked workers --
    reuses the same compiled blocks."""
    key = program.code_key()
    unit = _CACHE.get(key)
    if unit is None:
        unit = CompiledProgram(program)
        if len(_CACHE) >= _CACHE_MAX:
            _CACHE.popitem(last=False)
        _CACHE[key] = unit
    else:
        _CACHE.move_to_end(key)
    return unit


def bind_program(program) -> CompiledProgram:
    """Attach the compiled tier to ``program``'s Function objects (the
    ``jit`` slot the compiled run loop dispatches through)."""
    unit = compiled_for(program)
    for name, fn in program.functions.items():
        fn.jit = unit.functions[name]
    unit.binds += 1
    return unit


def cache_size() -> int:
    return len(_CACHE)


def clear_cache() -> None:
    """Testing hook."""
    _CACHE.clear()
