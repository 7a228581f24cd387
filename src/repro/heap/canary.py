"""Canary patterns.

The paper (Section 1.2) defines a canary as "certain memory content
patterns that are unlikely to appear during normal program execution".
We use the repeated byte ``0xCB``.  Two properties make it effective in
this simulation, mirroring the real system:

* an 8-byte load from a canary-filled region yields
  ``0xCBCBCBCBCBCBCBCB``; dereferencing that as a pointer is far outside
  the mapped heap and faults immediately -- this is how canary-filling
  delay-freed objects turns dangling-pointer *reads* into failures, and
  how canary-filling fresh objects exposes uninitialized reads;
* checking whether a padding or a delay-freed object still holds the
  pattern detects stray *writes* (buffer overflow, dangling-pointer
  write) as "canary corruption", including exactly where it happened.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.heap.base import Memory

CANARY_BYTE = 0xCB


@dataclass
class CanaryStats:
    """Tally of canary activity, for the telemetry registry.

    The allocator extension owns one of these and mirrors it into
    metrics instruments; the check functions update it when passed.
    """

    fills: int = 0
    bytes_filled: int = 0
    checks: int = 0
    bytes_checked: int = 0
    corruptions: int = 0

#: The value an 8-byte little-endian load sees in a canary region.
CANARY_WORD = int.from_bytes(bytes([CANARY_BYTE]) * 8, "little")


def canary_fill(mem: Memory, addr: int, size: int,
                stats: Optional[CanaryStats] = None) -> None:
    """Fill ``[addr, addr+size)`` with the canary pattern."""
    if size > 0:
        mem.fill(addr, CANARY_BYTE, size)
        if stats is not None:
            stats.fills += 1
            stats.bytes_filled += size


def canary_intact(mem: Memory, addr: int, size: int,
                  stats: Optional[CanaryStats] = None) -> bool:
    """True iff the whole region still holds the canary pattern."""
    if size <= 0:
        return True
    if stats is not None:
        stats.checks += 1
        stats.bytes_checked += size
    intact = mem.read_bytes(addr, size) == bytes([CANARY_BYTE]) * size
    if not intact and stats is not None:
        stats.corruptions += 1
    return intact


def corrupted_offsets(mem: Memory, addr: int, size: int,
                      stats: Optional[CanaryStats] = None) -> List[int]:
    """Offsets within the region whose canary byte was overwritten.

    Used to pinpoint *where* an overflow or dangling write landed; the
    offsets feed the bug report's illegal-access summary.
    """
    if size <= 0:
        return []
    if stats is not None:
        stats.checks += 1
        stats.bytes_checked += size
    data = mem.read_bytes(addr, size)
    if data.count(CANARY_BYTE) == size:
        return []
    if stats is not None:
        stats.corruptions += 1
    return [i for i, b in enumerate(data) if b != CANARY_BYTE]
