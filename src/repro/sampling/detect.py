"""Guard-hit attribution records and sampling counters."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.bugtypes import BugType
from repro.util.callsite import CallSite


@dataclass(frozen=True)
class SampledDetection:
    """Everything a guard hit knows at the instant it fires.

    This is the whole point of sampling: the bug type and call-site
    arrive *already in hand*, so the diagnostic engine can seed the
    change-group directly instead of re-deriving both through phase-1
    and phase-2 re-executions.
    """

    bug_type: BugType
    alloc_site: Optional[CallSite]
    free_site: Optional[CallSite]
    size: int                     # user payload size of the guarded object
    offset: Optional[int]         # corruption offset, relative to the
                                  # user payload start (negative = pre
                                  # redzone); None when not applicable
    alloc_seq: int                # which sampled allocation was hit
    time_ns: int                  # simulated detection time

    @property
    def site(self) -> Optional[CallSite]:
        """The call-site a patch for this bug type applies at --
        mirrors the alloc/free split of
        :func:`repro.core.bugtypes.patch_point`."""
        if self.bug_type.patch_point == "alloc":
            return self.alloc_site or self.free_site
        return self.free_site or self.alloc_site

    def describe(self) -> str:
        parts = [f"sampled guard hit: {self.bug_type.value}",
                 f"size={self.size}"]
        if self.offset is not None:
            parts.append(f"offset={self.offset}")
        if self.alloc_site is not None:
            parts.append(f"alloc={self.alloc_site.render()}")
        if self.free_site is not None:
            parts.append(f"free={self.free_site.render()}")
        return " ".join(parts)


@dataclass
class SamplingStats:
    """Per-process sampling counters.

    The *work* counters (allocs, sampled_allocs, sampled_frees,
    guard_scans) snapshot/restore with the heap so rollback
    re-execution does not double-count replayed allocations.  The
    *event* counters (detections, suppressed, first_detection_ns)
    record guard hits that really happened: a rollback erases the
    heap state that caused them but not the fact of the detection, so
    restore keeps them monotonic instead of rolling them back."""

    allocs: int = 0               # allocations seen while sampling
    sampled_allocs: int = 0       # allocations promoted to guarded
    sampled_frees: int = 0        # guarded objects delay-freed
    detections: int = 0           # guard hits raised
    suppressed: int = 0           # hits swallowed (site already patched)
    guard_scans: int = 0          # boundary sweeps over live guards
    first_detection_ns: int = 0   # sim time of the first guard hit

    def snapshot(self) -> tuple:
        return (self.allocs, self.sampled_allocs, self.sampled_frees,
                self.detections, self.suppressed, self.guard_scans,
                self.first_detection_ns)

    def restore(self, snap: tuple) -> None:
        (self.allocs, self.sampled_allocs, self.sampled_frees,
         detections, suppressed, self.guard_scans,
         first_detection_ns) = snap
        self.detections = max(self.detections, detections)
        self.suppressed = max(self.suppressed, suppressed)
        if first_detection_ns:
            self.first_detection_ns = (
                min(self.first_detection_ns, first_detection_ns)
                if self.first_detection_ns else first_detection_ns)

    def to_dict(self) -> dict:
        return {
            "allocs": self.allocs,
            "sampled_allocs": self.sampled_allocs,
            "sampled_frees": self.sampled_frees,
            "detections": self.detections,
            "suppressed": self.suppressed,
            "guard_scans": self.guard_scans,
            "first_detection_ns": self.first_detection_ns,
        }
