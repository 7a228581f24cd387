"""Session-level search configuration and caches.

One :class:`SearchState` is owned by the runtime (or constructed ad hoc
by tests) and handed to every :class:`~repro.core.diagnosis.DiagnosticEngine`
it creates, so bandit arm statistics persist across failures.  The
static-analysis facts it hands out are memoised per process by
:func:`~repro.search.pruner.analyze_program`, once per program.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ReproError
from repro.search.bandit import SearchBandit
from repro.search.pruner import ProgramFacts, analyze_program
from repro.vm.program import Program

#: ``fixed``  -- the legacy schedule, untouched (baseline / ablation).
#: ``pruned`` -- static feasibility masks + call-site arm pruning only.
#: ``bandit`` -- pruning plus bandit-shaped speculation.
SEARCH_POLICIES = ("fixed", "pruned", "bandit")


class SearchState:
    """Policy + per-program static facts + (optional) bandit."""

    def __init__(self, policy: str = "fixed", seed: int = 1):
        if policy not in SEARCH_POLICIES:
            raise ReproError(
                f"unknown search policy {policy!r}; "
                f"expected one of {SEARCH_POLICIES}")
        self.policy = policy
        self.seed = seed
        self.bandit: Optional[SearchBandit] = (
            SearchBandit(seed) if policy == "bandit" else None)

    @property
    def prunes(self) -> bool:
        return self.policy != "fixed"

    @property
    def speculates(self) -> bool:
        return self.policy == "bandit"

    def facts_for(self, program: Program) -> Optional[ProgramFacts]:
        """Static facts for ``program``, or ``None`` under the fixed
        policy -- the legacy path must not even run the analysis."""
        if not self.prunes:
            return None
        return analyze_program(program)
