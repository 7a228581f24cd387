"""Search policies for the diagnostic engine (DESIGN.md §13).

The diagnostic engine's probe schedule is a search over (change-group,
call-site-partition) candidates.  This package adds two things to the
fixed schedule:

* :func:`~repro.search.state.analyze_program` -- a call-graph scan for
  RAND.  A program with no reachable RAND is deterministic, so with an
  empty patch pool the phase-1a plain re-execution must reproduce the
  failure and is skipped.
* :mod:`repro.search.bandit` -- a deterministic bandit (UCB1 branch
  arms over the bisection tree, counterfactual-cost wave sizing for the
  checkpoint walk) that allocates the parallel executor's speculative
  worker slots to the most promising probes.  It shapes *speculation
  only*: the consumed decision path -- and therefore the diagnosis --
  is byte-identical to the fixed schedule.

:class:`~repro.search.state.SearchState` ties both together and is
owned by the runtime so arm statistics persist across failures.
"""

from repro.search.bandit import SearchBandit
from repro.search.state import SEARCH_POLICIES, SearchState, analyze_program

__all__ = [
    "SEARCH_POLICIES",
    "SearchState",
    "SearchBandit",
    "analyze_program",
]
