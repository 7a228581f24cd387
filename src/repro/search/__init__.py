"""Search policies for the diagnostic engine (DESIGN.md §13).

Both policies run one probe schedule, with one speculation schedule at
workers > 1.  ``"bandit"`` adds the phase-1a determinism skip:
:func:`~repro.search.state.analyze_program` is a call-graph scan for
RAND.  A program with no reachable RAND is deterministic, so with an
empty patch pool the phase-1a plain re-execution must reproduce the
failure and is skipped.
"""

from repro.search.state import (
    SEARCH_POLICIES,
    analyze_program,
    check_policy,
    may_skip_plain_probe,
)

__all__ = [
    "SEARCH_POLICIES",
    "analyze_program",
    "check_policy",
    "may_skip_plain_probe",
]
