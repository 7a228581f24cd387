"""The search policies and the determinism scan.

:func:`analyze_program` is the one static rule the diagnostic engine
applies (DESIGN.md §13): the scan is a few tens of microseconds, so it
runs per diagnosis rather than being memoised.  The engine asks
:func:`relies_on_determinism` once per diagnosis and acts on the
answer twice: phase 1a skips its plain probe, and phase 2b confirms
the dangling-read sites a traced universe probe saw instead of
bisecting for them.
"""

from __future__ import annotations

from repro.errors import ReproError
from repro.vm import isa
from repro.vm.program import Program

#: ``fixed``  -- the paper's schedule (baseline; Table 3 runs it).
#: ``bandit`` -- the same schedule plus the phase-1a determinism skip
#: and the trace-guided phase-2b site search for dangling reads (a
#: historical name, DESIGN.md §13).
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


def relies_on_determinism(policy: str, program: Program) -> bool:
    """May the engine treat ``program``'s re-executions as pure
    functions of (checkpoint, policy)?  Never under ``fixed``, which
    does not even run the scan; under ``bandit`` when the program is
    deterministic.  Two rules follow: with an empty patch pool phase
    1a's plain re-execution must reproduce the failure and is skipped,
    and phase 2b may confirm a traced universe probe's dangling-read
    sites, since the guided search hands the probes other entropy salts
    than the bisection would."""
    return policy == "bandit" and analyze_program(program)
