"""Flat byte-addressable simulated memory.

One :class:`Memory` instance is the heap segment of a simulated process.
It starts at :data:`HEAP_BASE` and grows upward through :meth:`sbrk`,
like a classic Unix data segment.  Any access outside ``[base, brk)`` --
including the low "NULL page" region -- raises
:class:`~repro.errors.SegmentationFault`.  Accesses *inside* the break
never fault even if they hit free chunks or allocator metadata; that is
precisely how dangling pointers and overflows corrupt state silently in
a real process.

The memory records which pages have been written since the last
:meth:`clear_dirty` call.  The checkpoint manager uses this as the
copy-on-write page set: the paper's Flashback checkpointing only copies
pages dirtied in each interval, and Tables 6-7 measure exactly that.
"""

from __future__ import annotations

import struct
from typing import Dict, FrozenSet, Iterable, Mapping, Set, Tuple

from repro.errors import SegmentationFault

PAGE_SIZE = 4096

#: Base virtual address of the simulated heap.  Chosen high enough that
#: small integers, canary-derived garbage values, and NULL all fault.
HEAP_BASE = 0x0010_0000

#: Default ceiling for heap growth (64 MiB of simulated heap).
DEFAULT_LIMIT = 64 * 1024 * 1024

#: Two little-endian u64s: one chunk header (see :mod:`repro.heap.chunk`).
_PAIR = struct.Struct("<QQ")
_U64 = (1 << 64) - 1

#: Little-endian unsigned words by width, for the multi-byte sizes
#: LOAD/STORE allow (a 1-byte word is indexed directly).  Shared with
#: the compiled tier's inline memory access, so both encode alike.
UINT_STRUCTS = {2: struct.Struct("<H"), 4: struct.Struct("<I"),
                8: struct.Struct("<Q")}


class Memory:
    """The simulated heap segment.

    Addresses are plain ints in a 64-bit space.  Only ``[base, brk)`` is
    mapped.  Reads of freshly grown pages return zeros (as from the OS);
    reused bytes keep their previous contents (as from a real allocator).
    """

    __slots__ = ("base", "limit", "_buf", "_dirty_pages", "version")

    def __init__(self, base: int = HEAP_BASE, limit: int = DEFAULT_LIMIT):
        if base % PAGE_SIZE:
            raise ValueError("heap base must be page aligned")
        self.base = base
        self.limit = limit
        self._buf = bytearray()
        self._dirty_pages: Set[int] = set()
        #: Bumped on every wholesale restore/overlay.  The checkpoint
        #: manager uses this to detect that the segment was rewritten
        #: behind its back (e.g. by a direct Process.restore), in which
        #: case its dirty-page bookkeeping no longer describes the
        #: delta against the last checkpoint.
        self.version = 0

    # ------------------------------------------------------------------
    # segment management
    # ------------------------------------------------------------------

    @property
    def brk(self) -> int:
        """Current program break (first unmapped address)."""
        return self.base + len(self._buf)

    @property
    def mapped_bytes(self) -> int:
        return len(self._buf)

    def sbrk(self, delta: int) -> int:
        """Grow the segment by ``delta`` bytes (rounded up to pages).

        Returns the old break, like the Unix call.  Shrinking is not
        supported (the Lea allocator here never trims).
        """
        if delta < 0:
            raise ValueError("sbrk shrink not supported")
        old_brk = self.brk
        grow = -(-delta // PAGE_SIZE) * PAGE_SIZE
        if len(self._buf) + grow > self.limit:
            return -1  # allocator turns this into OutOfMemoryFault
        self._buf.extend(b"\x00" * grow)
        return old_brk

    def is_mapped(self, addr: int, size: int = 1) -> bool:
        return self.base <= addr and addr + size <= self.brk and size >= 0

    def _check(self, addr: int, size: int) -> int:
        """Translate ``addr`` to a buffer offset or fault."""
        off = addr - self.base
        if off < 0 or size < 0 or off + size > len(self._buf):
            raise SegmentationFault(
                f"access of {size} byte(s) outside [0x{self.base:x}, "
                f"0x{self.brk:x})", address=addr)
        return off

    # ------------------------------------------------------------------
    # raw access
    # ------------------------------------------------------------------

    def read_bytes(self, addr: int, size: int) -> bytes:
        off = self._check(addr, size)
        return bytes(self._buf[off:off + size])

    def write_bytes(self, addr: int, data: bytes) -> None:
        off = self._check(addr, len(data))
        self._buf[off:off + len(data)] = data
        self._mark_dirty(off, len(data))

    def read_uint(self, addr: int, size: int) -> int:
        """The little-endian word of ``size`` (1, 2, 4 or 8) bytes."""
        off = self._check(addr, size)
        if size == 1:
            return self._buf[off]
        return UINT_STRUCTS[size].unpack_from(self._buf, off)[0]

    def write_uint(self, addr: int, size: int, value: int) -> None:
        """Store ``value`` truncated to ``size`` (1, 2, 4 or 8) bytes."""
        off = self._check(addr, size)
        if size == 1:
            self._buf[off] = value & 0xFF
        else:
            UINT_STRUCTS[size].pack_into(
                self._buf, off, value & ((1 << (8 * size)) - 1))
        self._mark_dirty(off, size)

    def read_pair(self, addr: int) -> Tuple[int, int]:
        """The two u64 words at ``addr``; the same values and faults as
        ``read_uint(addr, 8)`` followed by ``read_uint(addr + 8, 8)``."""
        off = addr - self.base
        if off < 0 or off + 16 > len(self._buf):
            return self.read_uint(addr, 8), self.read_uint(addr + 8, 8)
        return _PAIR.unpack_from(self._buf, off)

    def write_pair(self, addr: int, first: int, second: int) -> None:
        """Store two u64 words at ``addr``: the same bytes, dirty pages
        and faults as the two matching ``write_uint`` calls, at one
        bounds check and one pack."""
        off = addr - self.base
        if off < 0 or off + 16 > len(self._buf):
            self.write_uint(addr, 8, first)
            self.write_uint(addr + 8, 8, second)
            return
        _PAIR.pack_into(self._buf, off, first & _U64, second & _U64)
        page = off // PAGE_SIZE
        self._dirty_pages.add(page)
        if (off + 15) // PAGE_SIZE != page:
            self._dirty_pages.add(page + 1)

    def fill(self, addr: int, byte: int, size: int) -> None:
        off = self._check(addr, size)
        self._buf[off:off + size] = bytes([byte & 0xFF]) * size
        self._mark_dirty(off, size)

    def copy_within(self, dst: int, src: int, size: int) -> None:
        data = self.read_bytes(src, size)
        self.write_bytes(dst, data)

    # ------------------------------------------------------------------
    # dirty-page (COW) accounting
    # ------------------------------------------------------------------

    def _mark_dirty(self, off: int, size: int) -> None:
        first = off // PAGE_SIZE
        last = (off + max(size, 1) - 1) // PAGE_SIZE
        self._dirty_pages.update(range(first, last + 1))

    @property
    def dirty_pages(self) -> FrozenSet[int]:
        return frozenset(self._dirty_pages)

    @property
    def dirty_page_count(self) -> int:
        return len(self._dirty_pages)

    def clear_dirty(self) -> None:
        self._dirty_pages.clear()

    # ------------------------------------------------------------------
    # snapshot / restore (used by checkpointing)
    # ------------------------------------------------------------------

    @property
    def page_count(self) -> int:
        """Number of mapped pages (``sbrk`` keeps the break
        page-aligned, so the segment is always a whole page multiple)."""
        return len(self._buf) // PAGE_SIZE

    def snapshot(self) -> tuple:
        """An opaque, immutable snapshot of the segment contents."""
        return (bytes(self._buf), frozenset(self._dirty_pages))

    def restore(self, snap: tuple) -> None:
        buf, dirty = snap
        self._buf = bytearray(buf)
        self._dirty_pages = set(dirty)
        self.version += 1

    # ------------------------------------------------------------------
    # page-granular snapshot / overlay (incremental checkpointing)
    # ------------------------------------------------------------------

    def copy_pages(self, indices: Iterable[int]) -> Dict[int, bytes]:
        """Immutable copies of the given pages, keyed by page index.

        This is the capture half of an incremental checkpoint: the
        caller passes the dirty-page set and pays O(dirty) instead of
        O(heap).  Slices go through one :class:`memoryview` so each
        page costs a single copy.
        """
        view = memoryview(self._buf)
        try:
            return {idx: bytes(view[idx * PAGE_SIZE:(idx + 1) * PAGE_SIZE])
                    for idx in indices}
        finally:
            view.release()

    def load_pages(self, mapped_bytes: int, pages: Mapping[int, bytes],
                   dirty: Iterable[int] = ()) -> None:
        """Resize the segment to ``mapped_bytes`` and overlay ``pages``.

        The restore half of an incremental rollback: only the pages
        known to differ from the target state need to be supplied;
        everything else keeps its current contents.  Growth fills with
        zeros (matching :meth:`sbrk`); shrinking truncates (rollback to
        an older, smaller break).
        """
        if mapped_bytes % PAGE_SIZE:
            raise ValueError("mapped size must be page aligned")
        buf = self._buf
        if len(buf) > mapped_bytes:
            del buf[mapped_bytes:]
        elif len(buf) < mapped_bytes:
            buf.extend(bytes(mapped_bytes - len(buf)))
        for idx, payload in pages.items():
            off = idx * PAGE_SIZE
            buf[off:off + len(payload)] = payload
        self._dirty_pages = set(dirty)
        self.version += 1
