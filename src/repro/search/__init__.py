"""Search policies for the diagnostic engine (DESIGN.md §13).

``"fixed"`` is the paper's probe schedule.  ``"bandit"`` departs from
it only for a deterministic program:
:func:`~repro.search.state.analyze_program` is a call-graph scan for
RAND, and a program with no reachable RAND re-executes as a pure
function of (checkpoint, policy).  Then, with an empty patch pool, the
phase-1a plain re-execution must reproduce the failure and is
skipped; and for a dangling read, phase 2b traces its universe probe
and confirms the free sites of the dangling reads it recorded (one
complement probe and one probe per site) instead of bisecting for
them, falling back to the paper's bisection when a confirmation
deviates.  Both policies reach the same diagnosis.
"""

from repro.search.state import (
    SEARCH_POLICIES,
    analyze_program,
    check_policy,
    relies_on_determinism,
)

__all__ = [
    "SEARCH_POLICIES",
    "analyze_program",
    "check_policy",
    "relies_on_determinism",
]
