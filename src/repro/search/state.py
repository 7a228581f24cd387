"""Session-level search configuration and the determinism scan.

One :class:`SearchState` is owned by the runtime (or constructed ad hoc
by tests) and handed to every :class:`~repro.core.diagnosis.DiagnosticEngine`
it creates, so bandit arm statistics persist across failures.
:func:`analyze_program` is the one static rule the engine applies
(DESIGN.md §13): the scan is a few tens of microseconds, so it runs per
diagnosis rather than being memoised.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ReproError
from repro.search.bandit import SearchBandit
from repro.vm import isa
from repro.vm.program import Program

#: ``fixed``  -- the legacy schedule, untouched (baseline / ablation).
#: ``bandit`` -- the phase-1a determinism skip plus bandit-shaped
#: speculation.
SEARCH_POLICIES = ("fixed", "bandit")


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


class SearchState:
    """Policy + (optional) bandit."""

    def __init__(self, policy: str = "fixed", seed: int = 1):
        if policy not in SEARCH_POLICIES:
            raise ReproError(
                f"unknown search policy {policy!r}; "
                f"expected one of {SEARCH_POLICIES}")
        self.policy = policy
        self.bandit: Optional[SearchBandit] = (
            SearchBandit(seed) if policy == "bandit" else None)

    def may_skip_plain_probe(self, program: Program) -> bool:
        """May phase 1a's plain re-execution be skipped for ``program``?
        Never under the fixed policy, which does not even run the
        scan; under ``bandit`` when the program is deterministic."""
        return self.bandit is not None and analyze_program(program)
