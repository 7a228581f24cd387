"""A Lea-style (dlmalloc-like) allocator over simulated memory.

This is the "underlying memory allocator" the paper's extension relies
on (Section 3).  It reproduces the behaviours the diagnosis physics
depends on:

* boundary-tag headers stored in heap memory (overflows smash them);
* segregated exact-fit bins for small chunks plus a sorted large list,
  with LIFO reuse -- a freed chunk is handed back quickly, which is what
  makes dangling pointers dangerous;
* splitting and coalescing of free chunks;
* a wilderness ("top") area grown with ``sbrk``; fresh pages are zeroed
  by the OS but *reused chunks are never cleared*, so uninitialized
  reads see stale garbage;
* free() validates headers minimally and aborts (raises
  :class:`HeapCorruptionFault`) on blatant corruption or double free,
  like a production glibc.
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import HeapCorruptionFault, OutOfMemoryFault
from repro.heap.base import _PAIR, PAGE_SIZE, UINT_STRUCTS, Memory
from repro.heap.chunk import (
    _FLAG_MASK,
    ALIGN,
    FLAG_IN_USE,
    HEADER_SIZE,
    MIN_CHUNK,
    ChunkView,
    round_chunk_size,
)

#: Chunks up to this size (inclusive) live in exact-fit bins.
SMALL_MAX = 512

_U64 = UINT_STRUCTS[8]


class LeaAllocator:
    """The simulated Lea allocator.

    All sizes below are *chunk* sizes (header included) unless the name
    says ``user``.

    malloc and free read a header on the memory's buffer directly,
    whatever its alignment: each is mapped whole.  The one exception is
    an unaligned forward neighbour, which may end past the break and
    keeps the checked read.  A store to a 16-byte-aligned header packs
    on the buffer too and adds its one dirty page, since an aligned
    header lies inside one page.  Unaligned stores (only a wild free of
    a forged header makes those) keep the checked ``Memory`` accessors,
    which dirty every page they touch.
    """

    def __init__(self, mem: Memory):
        self.mem = mem
        # Exact-fit bins: chunk size -> LIFO list of chunk addresses.
        self._small_bins: Dict[int, List[int]] = {}
        # Large free chunks as a sorted list of (size, addr).
        self._large: List[Tuple[int, int]] = []
        # Wilderness start.  Everything in [top, brk) is unused.
        self.top = mem.base
        # Size of the chunk physically preceding top (0 if none).
        self._top_prev_size = 0
        # Statistics.
        self.n_mallocs = 0
        self.n_frees = 0
        self.live_user_bytes = 0
        self.peak_heap_bytes = 0
        #: Usable size of the chunk the last malloc returned, so the
        #: extension need not read the header back.
        self.last_usable = 0

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def malloc(self, user_size: int) -> int:
        """Allocate ``user_size`` bytes; returns the user address.

        Raises :class:`OutOfMemoryFault` when the segment limit is hit.
        Contents of reused chunks are left as-is (stale garbage).
        """
        if user_size < 0:
            raise HeapCorruptionFault(f"malloc of negative size {user_size}")
        need = round_chunk_size(user_size)
        mem = self.mem
        base = mem.base
        addr = None
        if need <= SMALL_MAX:
            # The smallest non-empty small bin that fits (an empty bin
            # has no key).
            bins = self._small_bins
            for size in range(need, SMALL_MAX + 1, ALIGN):
                if size in bins:
                    addr = self._pop_exact(size)
                    break
        if addr is None and self._large:
            # Best fit from the large list.
            i = bisect.bisect_left(self._large, (need, 0))
            if i < len(self._large):
                size, addr = self._large.pop(i)
        if addr is None:
            addr = self._take_from_top(need)
        else:
            # A binned chunk: check its header before reuse (an
            # overflow may have smashed it in the bin), then split off
            # any remainder.  A binned header is mapped: its chunk, of
            # at least MIN_CHUNK bytes, ended by top when binned, and
            # the break never shrinks under it.
            size_flags, prev_size = _PAIR.unpack_from(mem._buf, addr - base)
            if (size_flags & ~_FLAG_MASK != size
                    or size_flags & FLAG_IN_USE or addr + size > self.top):
                self._validate_reused(addr, size)
            remainder = size - need
            if remainder >= MIN_CHUNK:
                mem.write_pair(addr, need, prev_size)
                rest = addr + need
                mem.write_pair(rest, remainder, need)
                self._fix_next_prev_size(rest + remainder, remainder)
                self._bin_insert(rest, remainder)
        buf = mem._buf
        off = addr - base
        size_flags, prev_size = _PAIR.unpack_from(buf, off)
        if off % ALIGN:
            mem.write_uint(addr, 8, size_flags | FLAG_IN_USE)
        else:
            _PAIR.pack_into(buf, off, size_flags | FLAG_IN_USE, prev_size)
            mem._dirty_pages.add(off // PAGE_SIZE)
        self.last_usable = usable = (size_flags & ~_FLAG_MASK) - HEADER_SIZE
        self.n_mallocs += 1
        self.live_user_bytes += usable
        used = self.top - base
        if used > self.peak_heap_bytes:
            self.peak_heap_bytes = used
        return addr + HEADER_SIZE

    def free(self, user_addr: int) -> None:
        """Return a chunk to the free structures.

        A free of an already-free chunk or of a pointer with a smashed
        header raises :class:`HeapCorruptionFault` -- the simulated
        process crashes, as glibc would abort.  (First-Aid's extension
        intercepts frees *before* this point when a delay-free patch or
        the double-free parameter check is active.)
        """
        mem = self.mem
        base, top = mem.base, self.top
        addr = user_addr - HEADER_SIZE
        if addr < base or user_addr >= top:
            raise HeapCorruptionFault(
                f"free of wild pointer 0x{user_addr:x}",
                address=user_addr)
        # The header ends at user_addr < top, so both words are mapped.
        buf = mem._buf
        off = addr - base
        size_flags, prev_size = _PAIR.unpack_from(buf, off)
        size = size_flags & ~_FLAG_MASK
        if size < MIN_CHUNK or size % ALIGN or addr + size > top:
            ChunkView(mem, addr).validate(base, top)
        if not size_flags & FLAG_IN_USE:
            raise HeapCorruptionFault(
                f"double free or corruption at 0x{user_addr:x}",
                address=user_addr)
        self.n_frees += 1
        self.live_user_bytes -= size - HEADER_SIZE
        if off % ALIGN:
            mem.write_uint(addr, 8, size_flags & ~FLAG_IN_USE)
        else:
            _PAIR.pack_into(buf, off, size_flags & ~FLAG_IN_USE, prev_size)
            mem._dirty_pages.add(off // PAGE_SIZE)

        # Backward coalesce.  The previous header starts at or above
        # base and below addr, so it ends below top whatever prev_size
        # says: it is mapped.
        if prev_size and off >= prev_size:
            prev, poff = addr - prev_size, off - prev_size
            prev_flags, prev_prev_size = _PAIR.unpack_from(buf, poff)
            if (not prev_flags & FLAG_IN_USE
                    and prev_flags & ~_FLAG_MASK == prev_size
                    and self._bin_remove(prev, prev_size)):
                addr, off = prev, poff
                size += prev_size
                prev_size = prev_prev_size

        # Forward coalesce, or merge into top.
        next_addr = addr + size
        if next_addr == top:
            self.top = addr
            self._top_prev_size = prev_size
            return
        if next_addr < top:
            noff = next_addr - base
            next_flags = (mem.read_uint(next_addr, 8) if noff % ALIGN
                          else _PAIR.unpack_from(buf, noff)[0])
            next_size = next_flags & ~_FLAG_MASK
            if (not next_flags & FLAG_IN_USE and next_size >= MIN_CHUNK
                    and self._bin_remove(next_addr, next_size)):
                size += next_size

        if off % ALIGN:
            mem.write_pair(addr, size, prev_size)
        else:
            _PAIR.pack_into(buf, off, size, prev_size)
            mem._dirty_pages.add(off // PAGE_SIZE)
        self._fix_next_prev_size(addr + size, size)
        self._bin_insert(addr, size)

    def usable_size(self, user_addr: int) -> int:
        size_flags = self.mem.read_uint(user_addr - HEADER_SIZE, 8)
        return (size_flags & ~_FLAG_MASK) - HEADER_SIZE

    # ------------------------------------------------------------------
    # introspection (used by heap marking, extension, benchmarks)
    # ------------------------------------------------------------------

    @property
    def heap_used(self) -> int:
        """Bytes between the heap base and the wilderness start."""
        return self.top - self.mem.base

    def iter_free_chunks(self) -> Iterator[ChunkView]:
        """All binned free chunks (not the wilderness)."""
        for size in sorted(self._small_bins):
            for addr in self._small_bins[size]:
                yield ChunkView(self.mem, addr)
        for _size, addr in self._large:
            yield ChunkView(self.mem, addr)

    def free_bytes(self) -> int:
        return sum(c.size for c in self.iter_free_chunks())

    def stats(self) -> Dict[str, int]:
        """Point-in-time allocator statistics, as one mapping (consumed
        by the telemetry heap instruments and the bench harness)."""
        return {
            "mallocs": self.n_mallocs,
            "frees": self.n_frees,
            "live_user_bytes": self.live_user_bytes,
            "heap_used": self.heap_used,
            "peak_heap_bytes": self.peak_heap_bytes,
        }

    # ------------------------------------------------------------------
    # bin management
    # ------------------------------------------------------------------

    def _bin_insert(self, addr: int, size: int) -> None:
        if size <= SMALL_MAX:
            self._small_bins.setdefault(size, []).append(addr)
        else:
            bisect.insort(self._large, (size, addr))

    def _bin_remove(self, addr: int, size: int) -> bool:
        """Remove a specific free chunk from the bins; False if absent."""
        if size <= SMALL_MAX:
            lst = self._small_bins.get(size)
            if lst and addr in lst:
                lst.remove(addr)
                if not lst:
                    del self._small_bins[size]
                return True
            return False
        try:
            self._large.remove((size, addr))
            return True
        except ValueError:
            return False

    def _pop_exact(self, size: int) -> Optional[int]:
        lst = self._small_bins.get(size)
        if not lst:
            return None
        addr = lst.pop()
        if not lst:
            del self._small_bins[size]
        return addr

    # ------------------------------------------------------------------
    # allocation and free paths
    # ------------------------------------------------------------------

    def _validate_reused(self, addr: int, expect_size: int) -> None:
        """Fault for a binned chunk whose header failed malloc's reuse
        check: an overflow smashed it while the chunk sat in a bin, and
        this is where the process crashes -- the classic delayed
        manifestation of heap corruption."""
        chunk = ChunkView(self.mem, addr)
        chunk.validate(self.mem.base, self.top)
        raise HeapCorruptionFault(
            f"free-list chunk at 0x{addr:x} has corrupted header "
            f"(size={chunk.size}, expected {expect_size})",
            address=addr)

    def _take_from_top(self, need: int) -> int:
        """Carve a free ``need``-byte chunk from the wilderness."""
        mem = self.mem
        addr = self.top
        new_top = addr + need
        off = addr - mem.base
        while off + need > len(mem._buf):
            if mem.sbrk(off + need - len(mem._buf)) < 0:
                raise OutOfMemoryFault(
                    f"heap limit reached allocating {need} bytes")
        if off % ALIGN:
            mem.write_pair(addr, need, self._top_prev_size)
        else:
            _PAIR.pack_into(mem._buf, off, need, self._top_prev_size)
            mem._dirty_pages.add(off // PAGE_SIZE)
        self.top = new_top
        self._top_prev_size = need
        return addr

    def _fix_next_prev_size(self, next_addr: int, size: int) -> None:
        """Store ``size`` as the prev_size of the chunk at ``next_addr``
        (if below top)."""
        if next_addr >= self.top:
            return
        mem = self.mem
        off = next_addr - mem.base
        if off % ALIGN:
            mem.write_uint(next_addr + 8, 8, size)
        else:  # aligned below top, so below the page-aligned break
            _U64.pack_into(mem._buf, off + 8, size)
            mem._dirty_pages.add(off // PAGE_SIZE)

    # ------------------------------------------------------------------
    # snapshot / restore
    # ------------------------------------------------------------------

    def snapshot(self) -> tuple:
        return (
            {k: list(v) for k, v in self._small_bins.items()},
            list(self._large),
            self.top,
            self._top_prev_size,
            self.n_mallocs,
            self.n_frees,
            self.live_user_bytes,
            self.peak_heap_bytes,
        )

    def restore(self, snap: tuple) -> None:
        (bins, large, top, tps, nm, nf, live, peak) = snap
        self._small_bins = {k: list(v) for k, v in bins.items()}
        self._large = list(large)
        self.top = top
        self._top_prev_size = tps
        self.n_mallocs = nm
        self.n_frees = nf
        self.live_user_bytes = live
        self.peak_heap_bytes = peak
