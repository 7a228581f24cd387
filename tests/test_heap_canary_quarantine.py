"""Unit tests for canary helpers and the delay-free quarantine."""

import pytest

from repro.heap.base import Memory, PAGE_SIZE
from repro.heap.canary import (
    CANARY_BYTE,
    CANARY_WORD,
    CanaryStats,
    canary_fill,
    canary_intact,
    corrupted_offsets,
)
from repro.heap.quarantine import DelayFreeQuarantine


@pytest.fixture
def mem():
    m = Memory()
    m.sbrk(PAGE_SIZE)
    return m


class TestCanary:
    def test_fill_and_intact(self, mem):
        canary_fill(mem, mem.base, 64)
        assert canary_intact(mem, mem.base, 64)

    def test_word_value_faults_as_pointer(self, mem):
        canary_fill(mem, mem.base, 8)
        value = mem.read_uint(mem.base, 8)
        assert value == CANARY_WORD
        assert not mem.is_mapped(value)  # deref would SIGSEGV

    def test_corruption_detected_with_offsets(self, mem):
        canary_fill(mem, mem.base, 64)
        mem.write_bytes(mem.base + 10, b"zz")
        assert not canary_intact(mem, mem.base, 64)
        assert corrupted_offsets(mem, mem.base, 64) == [10, 11]

    def test_write_of_canary_byte_is_invisible(self, mem):
        # the documented theoretical limitation: writing the canary
        # value itself is undetectable
        canary_fill(mem, mem.base, 16)
        mem.write_bytes(mem.base, bytes([CANARY_BYTE]))
        assert canary_intact(mem, mem.base, 16)

    def test_empty_region(self, mem):
        assert canary_intact(mem, mem.base, 0)
        assert corrupted_offsets(mem, mem.base, 0) == []

    @pytest.mark.parametrize("stomp", [(), (0,), (5, 6, 63), (63,),
                                       tuple(range(64))])
    def test_offsets_and_stats_match_a_byte_scan(self, mem, stomp):
        """Intact, partly and fully corrupted regions: the same offsets
        and CanaryStats as comparing every byte one by one."""
        canary_fill(mem, mem.base, 64)
        for off in stomp:
            mem.write_bytes(mem.base + off, b"\x00")
        stats = CanaryStats()
        offs = corrupted_offsets(mem, mem.base, 64, stats)
        data = mem.read_bytes(mem.base, 64)
        assert offs == [i for i, b in enumerate(data) if b != CANARY_BYTE]
        assert offs == list(stomp)
        assert stats == CanaryStats(checks=1, bytes_checked=64,
                                    corruptions=1 if stomp else 0)


class TestQuarantine:
    def make(self, threshold=1000):
        released = []
        q = DelayFreeQuarantine(released.append, threshold)
        return q, released

    def test_add_and_contains(self):
        q, released = self.make()
        q.add(0x1000, 100)
        assert q.contains(0x1000)
        assert not q.contains(0x2000)
        assert q.current_bytes == 100
        assert released == []

    def test_duplicate_add_rejected(self):
        q, _ = self.make()
        q.add(0x1000, 100)
        with pytest.raises(KeyError):
            q.add(0x1000, 50)

    def test_fifo_eviction_at_threshold(self):
        q, released = self.make(threshold=250)
        q.add(0x1000, 100)
        q.add(0x2000, 100)
        q.add(0x3000, 100)   # 300 > 250: evict oldest
        assert released == [0x1000]
        assert not q.contains(0x1000)
        assert q.current_bytes == 200
        assert q.evictions == 1

    def test_accumulated_bytes_monotonic(self):
        q, _ = self.make(threshold=150)
        q.add(0x1000, 100)
        q.add(0x2000, 100)   # evicts the first
        assert q.accumulated_bytes == 200  # still counts both

    def test_drain(self):
        q, released = self.make()
        q.add(0x1000, 10)
        q.add(0x2000, 10)
        drained = q.drain()
        assert drained == [(0x1000, 10), (0x2000, 10)]
        assert released == [0x1000, 0x2000]
        assert len(q) == 0
        assert q.current_bytes == 0

    def test_snapshot_restore(self):
        q, released = self.make(threshold=10_000)
        q.add(0x1000, 10)
        snap = q.snapshot()
        q.add(0x2000, 10)
        q.restore(snap)
        assert q.contains(0x1000)
        assert not q.contains(0x2000)
        assert q.current_bytes == 10
        # restore must not have triggered releases
        assert released == []

    def test_drain_counts_evictions(self):
        """A bulk drain really frees every entry; each one is an
        eviction in Table 5's accounting, same as threshold evictions."""
        q, _ = self.make(threshold=250)
        q.add(0x1000, 100)
        q.add(0x2000, 100)
        q.add(0x3000, 100)   # threshold eviction: 1
        assert q.evictions == 1
        q.drain()                          # bulk: +2
        assert q.evictions == 3
        q.drain()                          # empty drain: +0
        assert q.evictions == 3

    def test_snapshot_isolated_from_live_mutation(self):
        """A checkpoint is restored many times: live mutations after a
        restore (adds, evictions) must not bleed into the snapshot."""
        q, _ = self.make(threshold=15)
        q.add(0x1000, 10)
        snap = q.snapshot()
        q.restore(snap)
        q.add(0x2000, 10)                 # evicts 0x1000
        q.restore(snap)
        assert list(q) == [0x1000]
        assert q.current_bytes == 10
        assert q.evictions == 0

    def test_snapshot_restores_eviction_counter(self):
        q, _ = self.make(threshold=150)
        q.add(0x1000, 100)
        snap = q.snapshot()
        q.add(0x2000, 100)   # evicts 0x1000
        assert q.evictions == 1
        q.restore(snap)
        assert q.evictions == 0
        assert q.accumulated_bytes == 100
