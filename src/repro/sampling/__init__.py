"""Sampled always-on detection (GWP-ASan-style).

First-Aid as reproduced so far is purely reactive: the pipeline only
engages after a failure monitor fires, so every bug costs at least one
crash or corruption event somewhere in the fleet before a patch
exists.  GWP-ASan (PAPERS.md) shows that guarding a *sampled* subset
of allocations with redzones and delayed-free canaries catches
production memory bugs pre-crash at negligible overhead.

This package holds the whole plane:

* :class:`SampleSelector` -- deterministic 1/N selection over the
  allocation sequence number, salted by the process entropy seed.
  Identical picks across serial and fork execution backends and across
  rollback/re-execution (``alloc_seq`` restores with checkpoints, so a
  replay guards exactly the allocations the original run guarded).

* :class:`SampledDetection` -- the attribution record captured at a
  guard hit: bug type, alloc/free call-sites, size, corruption offset,
  and the detection time.  It rides on
  :class:`repro.errors.SampledGuardFault` into the supervisor ladder,
  where :meth:`DiagnosticEngine.diagnose_sampled` seeds the
  change-group directly from it (skipping most of diagnosis phase 1).

* :class:`SampledGuards` -- the guards themselves: promotion to a
  guarded allocation, the delayed guarded free, the four detection
  points and the one hit path.  The allocator extension holds them as
  ``extension.guards`` and calls one hook at each of its sites.
"""

from repro.sampling.detect import SampledDetection, SamplingStats
from repro.sampling.guards import SampledGuards
from repro.sampling.selector import SampleSelector, mix64

__all__ = [
    "SampledGuards",
    "SampleSelector",
    "SampledDetection",
    "SamplingStats",
    "mix64",
]
