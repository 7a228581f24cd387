"""Reference oracle for the allocator's word-level fast path.

:class:`ReferenceLeaAllocator` is the Lea allocator as it stood before
its hot path was rewritten to read and write chunk headers a word pair
at a time: every header field goes through a :class:`ChunkView`
property and the checked ``Memory.read_uint``/``write_uint``.
``tests/test_heap_fastpath.py`` drives it and the production allocator
through the same operation sequences and requires identical results,
memory bytes, dirty pages and snapshots.  It is test-only code.
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import HeapCorruptionFault, OutOfMemoryFault
from repro.heap.base import Memory
from repro.heap.chunk import (
    ALIGN,
    HEADER_SIZE,
    MIN_CHUNK,
    ChunkView,
    round_chunk_size,
)
from repro.util.rng import DeterministicRNG

#: Chunks up to this size (inclusive) live in exact-fit bins.
SMALL_MAX = 512


class ReferenceLeaAllocator:
    """The allocator as it was before the word-level fast path: every
    header field goes through a :class:`ChunkView` property."""

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
        addr = self._take_from_bins(need)
        if addr is None:
            addr = self._take_from_top(need)
        chunk = ChunkView(self.mem, addr)
        chunk.mark_in_use()
        self.n_mallocs += 1
        self.live_user_bytes += chunk.user_size
        self.peak_heap_bytes = max(self.peak_heap_bytes, self.heap_used)
        return chunk.user_addr

    def free(self, user_addr: int) -> None:
        """Return a chunk to the free structures.

        A free of an already-free chunk or of a pointer with a smashed
        header raises :class:`HeapCorruptionFault` -- the simulated
        process crashes, as glibc would abort.  (First-Aid's extension
        intercepts frees *before* this point when a delay-free patch or
        the double-free parameter check is active.)
        """
        if (user_addr - HEADER_SIZE < self.mem.base
                or user_addr >= self.top):
            raise HeapCorruptionFault(
                f"free of wild pointer 0x{user_addr:x}",
                address=user_addr)
        chunk = ChunkView(self.mem, user_addr - HEADER_SIZE)
        chunk.validate(self.mem.base, self.top)
        if not chunk.in_use:
            raise HeapCorruptionFault(
                f"double free or corruption at 0x{user_addr:x}",
                address=user_addr)
        self.n_frees += 1
        self.live_user_bytes -= chunk.user_size
        chunk.mark_free()
        self._coalesce_and_store(chunk)

    def usable_size(self, user_addr: int) -> int:
        return ChunkView(self.mem, user_addr - HEADER_SIZE).user_size

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

    def _bin_insert(self, chunk: ChunkView) -> None:
        size = chunk.size
        if size <= SMALL_MAX:
            self._small_bins.setdefault(size, []).append(chunk.addr)
        else:
            bisect.insort(self._large, (size, chunk.addr))

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
    # allocation paths
    # ------------------------------------------------------------------

    def _take_from_bins(self, need: int) -> Optional[int]:
        # Exact small-bin hit.
        if need <= SMALL_MAX:
            addr = self._pop_exact(need)
            if addr is not None:
                self._validate_reused(addr, need)
                return addr
            # Next larger small bins, splitting the remainder off.
            for size in range(need + ALIGN, SMALL_MAX + 1, ALIGN):
                addr = self._pop_exact(size)
                if addr is not None:
                    self._validate_reused(addr, size)
                    self._split(addr, size, need)
                    return addr
        # Best-fit search of the large list.
        i = bisect.bisect_left(self._large, (need, 0))
        if i < len(self._large):
            size, addr = self._large.pop(i)
            self._validate_reused(addr, size)
            self._split(addr, size, need)
            return addr
        return None

    def _validate_reused(self, addr: int, expect_size: int) -> None:
        """Check a binned chunk's in-memory header before reuse.

        If an overflow smashed the header while the chunk sat in a bin,
        this is where the process crashes -- the classic delayed
        manifestation of heap corruption.
        """
        chunk = ChunkView(self.mem, addr)
        chunk.validate(self.mem.base, self.top)
        if chunk.in_use or chunk.size != expect_size:
            raise HeapCorruptionFault(
                f"free-list chunk at 0x{addr:x} has corrupted header "
                f"(size={chunk.size}, expected {expect_size})",
                address=addr)

    def _split(self, addr: int, size: int, need: int) -> None:
        """Split chunk [addr, addr+size) keeping ``need`` bytes in front."""
        remainder = size - need
        if remainder < MIN_CHUNK:
            return  # keep the whole chunk; slack stays internal
        chunk = ChunkView(self.mem, addr)
        chunk.set(need, in_use=False, prev_size=chunk.prev_size)
        rest = ChunkView(self.mem, addr + need)
        rest.set(remainder, in_use=False, prev_size=need)
        self._fix_next_prev_size(rest)
        self._bin_insert(rest)

    def _take_from_top(self, need: int) -> int:
        new_top = self.top + need
        while new_top > self.mem.brk:
            if self.mem.sbrk(new_top - self.mem.brk) < 0:
                raise OutOfMemoryFault(
                    f"heap limit reached allocating {need} bytes")
        addr = self.top
        chunk = ChunkView(self.mem, addr)
        chunk.set(need, in_use=False, prev_size=self._top_prev_size)
        self.top = new_top
        self._top_prev_size = need
        return addr

    # ------------------------------------------------------------------
    # free path
    # ------------------------------------------------------------------

    def _coalesce_and_store(self, chunk: ChunkView) -> None:
        addr, size = chunk.addr, chunk.size
        prev_size = chunk.prev_size

        # Backward coalesce.
        if prev_size and addr - prev_size >= self.mem.base:
            prev = ChunkView(self.mem, addr - prev_size)
            if (not prev.in_use and prev.size == prev_size
                    and self._bin_remove(prev.addr, prev_size)):
                addr = prev.addr
                size += prev_size
                prev_size = prev.prev_size

        # Forward coalesce / merge into top.
        next_addr = addr + size
        if next_addr == self.top:
            self.top = addr
            self._top_prev_size = prev_size
            return
        if next_addr < self.top:
            nxt = ChunkView(self.mem, next_addr)
            if (not nxt.in_use and nxt.size >= MIN_CHUNK
                    and self._bin_remove(next_addr, nxt.size)):
                size += nxt.size

        merged = ChunkView(self.mem, addr)
        merged.set(size, in_use=False, prev_size=prev_size)
        self._fix_next_prev_size(merged)
        self._bin_insert(merged)

    def _fix_next_prev_size(self, chunk: ChunkView) -> None:
        next_addr = chunk.next_addr
        if next_addr < self.top:
            ChunkView(self.mem, next_addr).prev_size = chunk.size

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


class ReferenceRandomizedLeaAllocator(ReferenceLeaAllocator):
    """The randomized allocator as it was, over the reference base."""

    #: Probability of inserting a gap chunk before a wilderness carve.
    GAP_PROB = 0.5
    #: Gap chunk sizes are drawn from [MIN_CHUNK, MAX_GAP].
    MAX_GAP = 256

    def __init__(self, mem: Memory, seed: int):
        super().__init__(mem)
        self.rng = DeterministicRNG(seed)

    def _pop_exact(self, size: int) -> Optional[int]:
        lst = self._small_bins.get(size)
        if not lst:
            return None
        idx = self.rng.randint(0, len(lst) - 1)
        addr = lst.pop(idx)
        if not lst:
            del self._small_bins[size]
        return addr

    def _take_from_top(self, need: int) -> int:
        if self.rng.random() < self.GAP_PROB:
            gap = self.rng.randint(MIN_CHUNK // ALIGN,
                                   self.MAX_GAP // ALIGN) * ALIGN
            gap_addr = super()._take_from_top(gap)
            self._bin_insert(ChunkView(self.mem, gap_addr))
        return super()._take_from_top(need)

    def snapshot(self) -> tuple:
        return (super().snapshot(), self.rng.getstate())

    def restore(self, snap: tuple) -> None:
        base_snap, rng_state = snap
        super().restore(base_snap)
        self.rng.setstate(rng_state)
