"""Delay-free quarantine.

Implements the paper's "delay free" preventive change (Table 1): instead
of returning a deallocated object to the allocator, hold it in a FIFO so
that

* dangling-pointer reads still see the object's last contents (or the
  canary, in diagnostic mode),
* dangling-pointer writes land in memory nobody else owns, and
* a second free of the same pointer is recognisable by parameter check.

The quarantine accumulates until its byte footprint reaches a
customizable threshold (1 MB in the paper's experiments); then the
oldest entries are really freed.  The paper notes that releasing very
old delay-freed objects is usually safe but may in theory undermine the
patch -- we reproduce that policy, including the accounting Table 5
measures.

Patch-governed delayed frees and sampled guarded frees
(:mod:`repro.sampling.guards`) share this one FIFO, byte budget and
eviction count.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Callable, Iterator, List, Optional

from repro.util.callsite import CallSite

DEFAULT_THRESHOLD = 1024 * 1024  # 1 MB, as in the paper's experiments


@dataclass
class QuarantinedObject:
    """One delay-freed object."""

    user_addr: int
    user_size: int
    free_site: Optional[CallSite]
    seq: int              # global free sequence number, for FIFO age
    canary_filled: bool   # exposing variant fills contents with canary
    patch_id: Optional[int] = None  # patch that delayed this free, if any


class DelayFreeQuarantine:
    """FIFO of delay-freed objects with a byte-footprint threshold."""

    def __init__(self, release: Callable[[int], None],
                 threshold_bytes: int = DEFAULT_THRESHOLD):
        """``release`` performs the real deallocation on eviction."""
        self._release = release
        self.threshold_bytes = threshold_bytes
        self._objects: "OrderedDict[int, QuarantinedObject]" = OrderedDict()
        self._bytes = 0
        self._seq = 0
        #: Optional telemetry hook, called with (current_bytes,
        #: object_count) after any occupancy change.
        self.observer: Optional[Callable[[int, int], None]] = None
        #: Running total of bytes ever quarantined (Table 5's
        #: "accumulated memory space occupied by delay-freed objects").
        self.accumulated_bytes = 0
        self.evictions = 0

    # ------------------------------------------------------------------

    def add(self, user_addr: int, user_size: int,
            free_site: Optional[CallSite], canary_filled: bool,
            patch_id: Optional[int] = None) -> QuarantinedObject:
        if user_addr in self._objects:
            raise KeyError(f"0x{user_addr:x} already quarantined")
        self._seq += 1
        obj = QuarantinedObject(user_addr, user_size, free_site, self._seq,
                                canary_filled, patch_id)
        self._objects[user_addr] = obj
        self._bytes += user_size
        self.accumulated_bytes += user_size
        self._evict_to_threshold()
        if self.observer is not None:
            self.observer(self._bytes, len(self._objects))
        return obj

    def contains(self, user_addr: int) -> bool:
        return user_addr in self._objects

    def get(self, user_addr: int) -> Optional[QuarantinedObject]:
        return self._objects.get(user_addr)

    @property
    def current_bytes(self) -> int:
        return self._bytes

    def __len__(self) -> int:
        return len(self._objects)

    def __iter__(self) -> Iterator[QuarantinedObject]:
        return iter(self._objects.values())

    # ------------------------------------------------------------------

    def _evict_to_threshold(self) -> None:
        while self._bytes > self.threshold_bytes and self._objects:
            _addr, obj = self._objects.popitem(last=False)  # oldest first
            self._bytes -= obj.user_size
            self.evictions += 1
            self._release(obj.user_addr)

    def pop_oldest(self) -> Optional[QuarantinedObject]:
        """Really free the single oldest entry (memory-pressure
        relief); returns it, or None when empty."""
        if not self._objects:
            return None
        _addr, obj = self._objects.popitem(last=False)
        self._bytes -= obj.user_size
        self.evictions += 1
        self._release(obj.user_addr)
        if self.observer is not None:
            self.observer(self._bytes, len(self._objects))
        return obj

    def drain(self) -> List[QuarantinedObject]:
        """Really free everything; returns the drained entries.  Each
        release is an eviction and counts as one -- Table 5's eviction
        accounting must not silently skip bulk drains."""
        drained = list(self._objects.values())
        for obj in drained:
            self.evictions += 1
            self._release(obj.user_addr)
        self._objects.clear()
        self._bytes = 0
        if self.observer is not None:
            self.observer(0, 0)
        return drained

    # ------------------------------------------------------------------

    def snapshot(self) -> tuple:
        # Deep-copy at capture time: QuarantinedObject is mutable, so
        # aliasing the live entries would let post-snapshot mutations
        # (e.g. patch_id reassignment) bleed into old checkpoints.
        return ([replace(o) for o in self._objects.values()],
                self._bytes, self._seq,
                self.accumulated_bytes, self.evictions)

    def restore(self, snap: tuple) -> None:
        objs, nbytes, seq, acc, ev = snap
        self._objects = OrderedDict((o.user_addr, replace(o)) for o in objs)
        self._bytes = nbytes
        self._seq = seq
        self.accumulated_bytes = acc
        self.evictions = ev
        if self.observer is not None:
            self.observer(self._bytes, len(self._objects))
