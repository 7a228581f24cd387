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
from typing import Callable, Iterator, List, Optional, Tuple

DEFAULT_THRESHOLD = 1024 * 1024  # 1 MB, as in the paper's experiments


class DelayFreeQuarantine:
    """FIFO of delay-freed objects, ``user_addr -> user_size``, with a
    byte-footprint threshold.  Everything else about an object lives on
    the extension's :class:`~repro.heap.extension.ObjectInfo`."""

    def __init__(self, release: Callable[[int], None],
                 threshold_bytes: int = DEFAULT_THRESHOLD):
        """``release`` performs the real deallocation on eviction."""
        self._release = release
        self.threshold_bytes = threshold_bytes
        self._objects: "OrderedDict[int, int]" = OrderedDict()
        self._bytes = 0
        #: Optional telemetry hook, called with (current_bytes,
        #: object_count) after any occupancy change.
        self.observer: Optional[Callable[[int, int], None]] = None
        #: Running total of bytes ever quarantined (Table 5's
        #: "accumulated memory space occupied by delay-freed objects").
        self.accumulated_bytes = 0
        self.evictions = 0

    # ------------------------------------------------------------------

    def add(self, user_addr: int, user_size: int) -> None:
        if user_addr in self._objects:
            raise KeyError(f"0x{user_addr:x} already quarantined")
        self._objects[user_addr] = user_size
        self._bytes += user_size
        self.accumulated_bytes += user_size
        self._evict_to_threshold()
        if self.observer is not None:
            self.observer(self._bytes, len(self._objects))

    def contains(self, user_addr: int) -> bool:
        return user_addr in self._objects

    @property
    def current_bytes(self) -> int:
        return self._bytes

    def __len__(self) -> int:
        return len(self._objects)

    def __iter__(self) -> Iterator[int]:
        """The quarantined addresses, oldest first."""
        return iter(self._objects)

    # ------------------------------------------------------------------

    def _evict_to_threshold(self) -> None:
        while self._bytes > self.threshold_bytes and self._objects:
            addr, size = self._objects.popitem(last=False)  # oldest first
            self._bytes -= size
            self.evictions += 1
            self._release(addr)

    def pop_oldest(self) -> Optional[Tuple[int, int]]:
        """Really free the single oldest entry (memory-pressure
        relief); returns its ``(user_addr, user_size)``, or None when
        empty."""
        if not self._objects:
            return None
        addr, size = self._objects.popitem(last=False)
        self._bytes -= size
        self.evictions += 1
        self._release(addr)
        if self.observer is not None:
            self.observer(self._bytes, len(self._objects))
        return addr, size

    def drain(self) -> List[Tuple[int, int]]:
        """Really free everything; returns the drained
        ``(user_addr, user_size)`` pairs.  Each release is an eviction
        and counts as one -- Table 5's eviction accounting must not
        silently skip bulk drains."""
        drained = list(self._objects.items())
        for addr, _size in drained:
            self.evictions += 1
            self._release(addr)
        self._objects.clear()
        self._bytes = 0
        if self.observer is not None:
            self.observer(0, 0)
        return drained

    # ------------------------------------------------------------------

    def snapshot(self) -> tuple:
        return (tuple(self._objects.items()), self._bytes,
                self.accumulated_bytes, self.evictions)

    def restore(self, snap: tuple) -> None:
        objs, nbytes, acc, ev = snap
        self._objects = OrderedDict(objs)
        self._bytes = nbytes
        self.accumulated_bytes = acc
        self.evictions = ev
        if self.observer is not None:
            self.observer(self._bytes, len(self._objects))
