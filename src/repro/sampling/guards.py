"""Sampled guards: GWP-ASan-style guarded allocations.

:class:`SampledGuards` is the one place that knows which allocations
are guarded, how a guarded free is delayed, the four detection points
and what a guard hit does.  The allocator extension holds it as
``extension.guards`` (None when sampling is off) and calls one hook at
each of its sites -- malloc, free, bad free, quarantine eviction and
the boundary sweep -- and only in NORMAL mode with patching enabled.

A guard hit raises :class:`~repro.errors.SampledGuardFault` carrying a
:class:`~repro.sampling.detect.SampledDetection`, so diagnosis can
seed the change-group from it (DESIGN.md §15).
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.core.bugtypes import BugType
from repro.errors import SampledGuardFault
from repro.heap.canary import corrupted_offsets
from repro.heap.extension import (
    PAD_POST,
    PAD_PRE,
    AllocatorExtension,
    AllocDecision,
    FreeDecision,
    ObjectInfo,
    ObjectState,
)
from repro.sampling.detect import SampledDetection, SamplingStats
from repro.sampling.selector import SampleSelector
from repro.util.callsite import CallSite


class SampledGuards:
    """Guards every ~1/``rate`` allocation of one process.

    ``chaos`` is an optional :class:`~repro.chaos.ChaosPlan`: an armed
    ``sampled_false_positive`` forces a guard hit on the next guarded
    free even though its canaries are intact (exercises validation's
    rejection path).

    ``paused`` is set by the runtime for the whole of recovery: the
    replayed window was already guarded once, and a fresh hit
    mid-replay would read as "re-execution failed" and walk the ladder
    on a window the patch just fixed.  It swallows the *raise* only --
    selection, promotion and counting go on (rollback restores the
    work counters, so a replay is counted exactly once) and the
    recovered run stays guarded.  Transient control state, never part
    of a snapshot.
    """

    def __init__(self, rate: int, entropy_seed: int = 1, chaos=None):
        self.selector = SampleSelector(rate, entropy_seed)
        self.stats = SamplingStats()
        self.chaos = chaos
        self.paused = False

    # ------------------------------------------------------------------
    # the extension's hooks
    # ------------------------------------------------------------------

    def promote(self, decision: AllocDecision,
                alloc_seq: int) -> Optional[AllocDecision]:
        """Count one allocation; return the guarded decision when the
        allocation numbered ``alloc_seq`` is picked, else None.  A
        patched site is already protected, so only unpatched
        allocations are guarded (this is also what keeps a recovered
        run from re-detecting its own bug)."""
        stats = self.stats
        stats.allocs += 1
        if decision.patch_id is not None \
                or not self.selector.picks(alloc_seq):
            return None
        stats.sampled_allocs += 1
        return AllocDecision(pad_pre=PAD_PRE, pad_post=PAD_POST,
                             canary_pad=True, fill=decision.fill)

    def on_free(self, ext: AllocatorExtension, obj: ObjectInfo,
                callsite: Optional[CallSite],
                decision: FreeDecision) -> FreeDecision:
        """The free of a guarded object.  The redzone check catches an
        overflow before the corrupted neighbourhood is ever
        dereferenced (i.e. before the eventual crash).  Unless a patch
        governs the free, it becomes a delayed free with free-canary
        fill, so a dangling write lands in memory nobody owns and the
        next sweep sees it."""
        offset = _redzone_offset(ext, obj)
        if offset is not None:
            self._hit(ext, BugType.BUFFER_OVERFLOW, obj, callsite, offset)
        if decision.patch_id is not None:
            return decision
        chaos = self.chaos
        if (chaos is not None and not self.paused
                and chaos.take("sampled_false_positive")):
            # Injected false positive: the guard "fires" on an intact
            # object.  Validation must reject the resulting patch (the
            # unpatched baseline passes).
            self._hit(ext, BugType.BUFFER_OVERFLOW, obj, callsite, None)
        if decision.delay:
            return decision
        self.stats.sampled_frees += 1
        return FreeDecision(delay=True, canary_fill=True, check_param=True)

    def on_bad_free(self, ext: AllocatorExtension, obj: ObjectInfo,
                    callsite: Optional[CallSite],
                    decision: FreeDecision) -> None:
        """A second free of a guarded object: without the guarded delay
        the first free would have really freed it and this one would
        have crashed the allocator.  Detected pre-crash, with both
        free sites in hand."""
        if obj.state is ObjectState.QUARANTINED \
                and decision.patch_id is None:
            self._hit(ext, BugType.DOUBLE_FREE, obj,
                      obj.free_site or callsite, None)

    def on_evict(self, ext: AllocatorExtension, obj: ObjectInfo,
                 offset: int) -> None:
        """Last-chance dangling-write detection before a guarded
        object's memory is recycled (``offset`` is the first corrupted
        free-canary byte).  Rollback restores the heap, so the
        half-evicted state this raise leaves behind never survives
        recovery."""
        if obj.free_patch_id is None:
            self._hit(ext, BugType.DANGLING_WRITE, obj, obj.free_site,
                      offset)

    def sweep(self, ext: AllocatorExtension,
              objects: Iterable[ObjectInfo]) -> None:
        """Boundary sweep over ``objects``: live guards' redzones and
        quarantined guards' free canaries.  This is what makes
        detection *timely* rather than waiting for the guarded
        object's free or eviction.  Each scanned byte is charged once,
        also when a swallowed hit lets the sweep go on."""
        self.stats.guard_scans += 1
        scanned = 0
        for obj in objects:
            if not obj.sampled:
                continue
            if obj.state is ObjectState.LIVE:
                scanned += obj.pad_pre + obj.pad_post
                bug_type, free_site = BugType.BUFFER_OVERFLOW, None
                offset = _redzone_offset(ext, obj)
            elif (obj.state is ObjectState.QUARANTINED
                  and obj.canary_filled_on_free
                  and obj.free_patch_id is None):
                scanned += obj.user_size
                offs = corrupted_offsets(ext.mem, obj.user_addr,
                                         obj.user_size, ext.canary_stats)
                ext._sync_canary_metrics()
                bug_type, free_site = BugType.DANGLING_WRITE, obj.free_site
                offset = offs[0] if offs else None
            else:
                continue
            if offset is not None:
                ext._charge(ext.costs.fill_cost(scanned))
                scanned = 0
                self._hit(ext, bug_type, obj, free_site, offset)
        ext._charge(ext.costs.fill_cost(scanned))
        ext._sync_canary_metrics()
        ext._sync_sampling_metrics()

    # ------------------------------------------------------------------
    # the one hit path
    # ------------------------------------------------------------------

    def _hit(self, ext: AllocatorExtension, bug_type: BugType,
             obj: ObjectInfo, free_site: Optional[CallSite],
             offset: Optional[int]) -> None:
        """Raise a guard hit on ``obj`` -- unless recovery has paused
        the guards, or a patch for this exact (bug type, site) already
        exists: then the bug is already being prevented, and raising
        would loop the pipeline on its own patch forever."""
        if self.paused:
            return
        now = ext.clock.now_ns if ext.clock else 0
        source = obj
        if bug_type is BugType.BUFFER_OVERFLOW and offset is not None \
                and offset < 0:
            # Corruption in the guarded object's *pre* redzone: the
            # victim did not overstep itself -- its left neighbour ran
            # off its end.  Attribute the culprit, not the victim, or
            # the fast-path patch pads an object nothing oversteps.
            source = ext.left_neighbor(obj) or obj
            offset += obj.user_addr - source.user_addr
        detection = SampledDetection(
            bug_type=bug_type, alloc_site=source.alloc_site,
            free_site=free_site, size=source.user_size, offset=offset,
            alloc_seq=source.alloc_seq, time_ns=now)
        stats = self.stats
        site = detection.site
        has_patch = getattr(ext.policy, "has_patch", None)
        if (site is not None and has_patch is not None
                and has_patch(bug_type, site)):
            stats.suppressed += 1
            ext._sync_sampling_metrics()
            return
        stats.detections += 1
        if not stats.first_detection_ns:
            stats.first_detection_ns = now
        ext._sync_sampling_metrics()
        raise SampledGuardFault(detection.describe(), address=obj.user_addr,
                                detection=detection)


def _redzone_offset(ext: AllocatorExtension,
                    obj: ObjectInfo) -> Optional[int]:
    """First corrupted redzone offset of a guarded object, relative to
    the user payload start (negative = pre redzone), or None."""
    pre, post = ext.pad_corruption(obj)
    if post:
        return obj.user_size + post[0]
    if pre:
        return pre[0] - obj.pad_pre
    return None
