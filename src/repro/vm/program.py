"""Program and function containers.

A :class:`Program` is an immutable set of named :class:`Function`
objects plus a global-slot table size.  Programs are validated once at
link time (:meth:`Program.finalize`) so the interpreter can trust
operand shapes in its hot loop.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ProgramError
from repro.vm import isa
from repro.vm.isa import Instr


class Function:
    """One function: parameter count, local-slot count, and code."""

    __slots__ = ("name", "n_params", "n_locals", "code", "jit")

    def __init__(self, name: str, n_params: int, n_locals: int,
                 code: Sequence[Instr]):
        if n_params > n_locals:
            raise ProgramError(
                f"{name}: {n_params} params but only {n_locals} locals")
        self.name = name
        self.n_params = n_params
        self.n_locals = n_locals
        self.code: List[Instr] = list(code)
        #: Compiled tier attachment (repro.vm.compile.CompiledFunction);
        #: bound lazily the first time a machine runs this program.
        self.jit = None

    def __repr__(self) -> str:
        return (f"Function({self.name}, params={self.n_params}, "
                f"locals={self.n_locals}, len={len(self.code)})")

    def disassemble(self) -> str:
        lines = [f"func {self.name}({self.n_params}) "
                 f"locals={self.n_locals}:"]
        for pc, instr in enumerate(self.code):
            lines.append(f"  {pc:4d}  {isa.render_instr(instr)}")
        return "\n".join(lines)


class Program:
    """A linked program, ready for execution."""

    ENTRY = "main"

    def __init__(self, functions: Sequence[Function], n_globals: int = 0,
                 name: str = "program"):
        self.name = name
        self.n_globals = n_globals
        self.functions: Dict[str, Function] = {}
        for fn in functions:
            if fn.name in self.functions:
                raise ProgramError(f"duplicate function {fn.name}")
            self.functions[fn.name] = fn
        self.finalize()

    def finalize(self) -> None:
        """Validate structure: entry point exists, jump targets are in
        range, called functions exist with matching arity, memory sizes
        are legal.  Raises :class:`ProgramError` on any violation.

        Also appends a sentinel RET to any function whose last
        instruction can fall through, so execution can never reach
        ``pc == len(code)``: the interpreter's hot loop then needs no
        per-instruction bounds check (the sentinel behaves exactly like
        the synthetic RET the loop used to fabricate).  Jump targets are
        validated against the original length first, so no branch can
        reach the sentinel directly; idempotent because a sentinel-
        terminated function ends in RET.
        """
        if self.ENTRY not in self.functions:
            raise ProgramError(f"program {self.name} has no 'main'")
        for fn in self.functions.values():
            self._check_function(fn)
        for fn in self.functions.values():
            if (not fn.code
                    or fn.code[-1][0] not in (isa.RET, isa.JMP, isa.HALT)):
                fn.code.append((isa.RET, None, None, None, None))

    def _check_function(self, fn: Function) -> None:
        n = len(fn.code)
        for pc, instr in enumerate(fn.code):
            op = instr[0]
            where = f"{fn.name}+{pc}"
            if op in (isa.JMP,):
                if not (0 <= instr[1] < n):
                    raise ProgramError(f"{where}: jump target {instr[1]}")
            elif op in (isa.JZ, isa.JNZ):
                if not (0 <= instr[2] < n):
                    raise ProgramError(f"{where}: jump target {instr[2]}")
            elif op == isa.CALL:
                callee = self.functions.get(instr[2])
                if callee is None:
                    raise ProgramError(f"{where}: unknown function "
                                       f"{instr[2]!r}")
                if len(instr[3]) != callee.n_params:
                    raise ProgramError(
                        f"{where}: {instr[2]} takes {callee.n_params} "
                        f"args, got {len(instr[3])}")
            elif op == isa.LOAD:
                if instr[4] not in isa.VALID_MEM_SIZES:
                    raise ProgramError(f"{where}: bad load size {instr[4]}")
            elif op == isa.STORE:
                if instr[3] not in isa.VALID_MEM_SIZES:
                    raise ProgramError(f"{where}: bad store size {instr[3]}")
            elif op in (isa.GLOAD, isa.GSTORE):
                g = instr[2] if op == isa.GLOAD else instr[1]
                if not (0 <= g < self.n_globals):
                    raise ProgramError(f"{where}: global {g} out of range")

    def code_key(self) -> Tuple:
        """Structural identity of this program's code: two Program
        instances with the same key execute identically, so the
        compiled-tier cache (repro.vm.compile) shares one compilation
        unit between them -- across clones, probes, and task
        encode/decode round-trips that rebuild the Program object."""
        key = getattr(self, "_code_key", None)
        if key is None:
            key = (self.n_globals, tuple(sorted(
                (fn.name, fn.n_params, fn.n_locals, tuple(
                    tuple(tuple(x) if isinstance(x, (list, tuple)) else x
                          for x in instr)
                    for instr in fn.code))
                for fn in self.functions.values())))
            self._code_key = key
        return key

    @property
    def entry(self) -> Function:
        return self.functions[self.ENTRY]

    def get(self, name: str) -> Optional[Function]:
        return self.functions.get(name)

    def disassemble(self) -> str:
        return "\n\n".join(fn.disassemble()
                           for fn in self.functions.values())
