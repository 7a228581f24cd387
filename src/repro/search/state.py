"""The search policies and the determinism scan.

:func:`analyze_program` is the one static rule the diagnostic engine
applies (DESIGN.md §13): the scan is a few tens of microseconds, so it
runs per diagnosis rather than being memoised.
"""

from __future__ import annotations

from repro.errors import ReproError
from repro.vm import isa
from repro.vm.program import Program

#: ``fixed``  -- the seed schedule (baseline / ablation).
#: ``bandit`` -- the same schedule plus the phase-1a determinism skip
#: (a historical name, DESIGN.md §13).
SEARCH_POLICIES = ("fixed", "bandit")


def check_policy(policy: str) -> str:
    """``policy`` itself when it names a search policy."""
    if policy not in SEARCH_POLICIES:
        raise ReproError(
            f"unknown search policy {policy!r}; "
            f"expected one of {SEARCH_POLICIES}")
    return policy


def analyze_program(program: Program) -> bool:
    """True when no RAND opcode is reachable from ``main`` through CALL
    edges.  Probe outcomes depend on the entropy salt only through RAND,
    so without one every re-execution is a pure function of
    (checkpoint, policy)."""
    seen = {Program.ENTRY}
    work = [Program.ENTRY]
    while work:
        fn = program.functions.get(work.pop())
        if fn is None:
            continue
        for instr in fn.code:
            if instr[0] == isa.RAND:
                return False
            if instr[0] == isa.CALL and instr[2] not in seen:
                seen.add(instr[2])
                work.append(instr[2])
    return True


def may_skip_plain_probe(policy: str, program: Program) -> bool:
    """May phase 1a's plain re-execution be skipped for ``program``?
    Never under ``fixed``, which does not even run the scan; under
    ``bandit`` when the program is deterministic."""
    return policy == "bandit" and analyze_program(program)
