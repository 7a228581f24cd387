"""Differential test of the allocator's word-level fast path.

The production :class:`LeaAllocator` reads and writes chunk headers a
word pair at a time; :mod:`tests.reference_allocator` keeps the
``ChunkView``-based allocator it replaced.  Both are driven, plain and
randomized with the same seed, through generated sequences of mallocs,
frees, double frees, wild frees and stray 8-byte stores (header smashes
and forged headers).  After every step the two must agree on the
result or the exception (type, message, address), the memory bytes,
the dirty-page set and ``snapshot()``.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.errors import (
    HeapCorruptionFault,
    SegmentationFault,
    SimulatedFault,
)
from repro.heap.allocator import LeaAllocator
from repro.heap.base import PAGE_SIZE, Memory
from repro.heap.random_alloc import RandomizedLeaAllocator
from tests.reference_allocator import (
    ReferenceLeaAllocator,
    ReferenceRandomizedLeaAllocator,
)

#: Small enough that long scripts reach the segment limit.
LIMIT = 16 * PAGE_SIZE

#: Values a smash stores: plausible sizes with and without the in-use
#: bit (so forged headers pass validation), zero and random garbage.
_u64 = st.one_of(
    st.integers(min_value=0, max_value=40).map(lambda k: 16 * k),
    st.integers(min_value=0, max_value=40).map(lambda k: 16 * k + 1),
    st.integers(min_value=0, max_value=(1 << 64) - 1),
)

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("malloc"), st.integers(-1, 1200)),
        st.tuples(st.just("free"), st.integers(0, 1 << 16)),
        st.tuples(st.just("double_free"), st.integers(0, 1 << 16)),
        # A pointer near a known one: unaligned offsets reach forged
        # headers and words straddling chunk boundaries.
        st.tuples(st.just("wild_free"), st.integers(0, 1 << 16),
                  st.integers(-40, 40)),
        st.tuples(st.just("smash"), st.integers(0, 1 << 16),
                  st.integers(-24, 40), _u64),
    ),
    min_size=1, max_size=80)


def _outcome(call):
    try:
        return ("ok", call())
    except SimulatedFault as fault:
        return (type(fault), str(fault), getattr(fault, "address", None))


class _Pair:
    """The reference and the allocator under test, over equal memories."""

    def __init__(self, randomized_seed=None):
        self.ref_mem, self.mem = Memory(limit=LIMIT), Memory(limit=LIMIT)
        if randomized_seed is None:
            self.ref = ReferenceLeaAllocator(self.ref_mem)
            self.new = LeaAllocator(self.mem)
        else:
            self.ref = ReferenceRandomizedLeaAllocator(self.ref_mem,
                                                       randomized_seed)
            self.new = RandomizedLeaAllocator(self.mem, randomized_seed)
        self.live = []
        self.freed = []

    def both(self, name, *args):
        got = _outcome(lambda: getattr(self.new, name)(*args))
        want = _outcome(lambda: getattr(self.ref, name)(*args))
        assert got == want
        return got

    def poke(self, addr, value):
        for mem in (self.ref_mem, self.mem):
            mem.write_uint(addr, 8, value)

    def clear_dirty(self):
        for mem in (self.ref_mem, self.mem):
            mem.clear_dirty()

    def pick(self, pool, index):
        return pool[index % len(pool)] if pool else self.mem.base + 16

    def step(self, op):
        kind = op[0]
        if kind == "malloc":
            got = self.both("malloc", op[1])
            if got[0] == "ok":
                addr = got[1]
                assert self.new.last_usable == self.ref.usable_size(addr)
                self.live.append(addr)
        elif kind == "free":
            if self.live:
                addr = self.live.pop(op[1] % len(self.live))
                if self.both("free", addr)[0] == "ok":
                    self.freed.append(addr)
        elif kind == "double_free":
            self.both("free", self.pick(self.freed, op[1]))
        elif kind == "wild_free":
            self.both("free", self.pick(self.live + self.freed, op[1])
                      + op[2])
        else:
            addr = self.pick(self.live + self.freed, op[1]) + op[2]
            for mem in (self.ref_mem, self.mem):
                if mem.is_mapped(addr, 8):
                    mem.write_uint(addr, 8, op[3])

    def check(self):
        assert bytes(self.mem._buf) == bytes(self.ref_mem._buf)
        assert self.mem.dirty_pages == self.ref_mem.dirty_pages
        assert self.new.snapshot() == self.ref.snapshot()


def _run(pair, ops):
    for op in ops:
        pair.step(op)
        pair.check()
        if op[0] == "malloc" and len(pair.live) % 7 == 3:
            # Checkpoint-style dirty reset, as the runtime does.
            pair.mem.clear_dirty()
            pair.ref_mem.clear_dirty()


@settings(max_examples=150, deadline=None)
@given(_ops)
def test_plain_allocator_matches_reference(ops):
    _run(_Pair(), ops)


@settings(max_examples=150, deadline=None)
@given(_ops, st.integers(0, 1 << 30))
def test_randomized_allocator_matches_reference(ops, seed):
    _run(_Pair(randomized_seed=seed), ops)


# Corner cases the generated scripts rarely reach: each one takes a
# branch where the fast path hands a header to the checked one-word
# accessors or to ChunkView.validate.

def _fill_pages(pair, pages):
    while pair.new.top < pair.mem.base + pages * PAGE_SIZE + 256:
        pair.step(("malloc", 90))
        pair.check()


def test_forged_unaligned_header_matches_reference():
    """A wild free of an unaligned pointer whose forged header passes
    validation, then its reuse.  The header straddles the first page
    boundary, so a two-word store of the in-use bit would dirty a page
    the one-word store does not."""
    pair = _Pair()
    _fill_pages(pair, 1)
    header = pair.mem.base + PAGE_SIZE - 8
    pair.poke(header, 64 | 1)
    pair.poke(header + 8, 0)
    pair.clear_dirty()
    assert pair.both("free", header + 16)[0] == "ok"
    pair.check()
    pair.clear_dirty()
    assert pair.both("malloc", 40) == ("ok", header + 16)
    pair.check()
    assert pair.mem.dirty_pages == frozenset({0})


def test_forged_chunk_before_straddling_header_matches_reference():
    """Freeing a forged chunk whose successor's header straddles a page
    boundary stores only that header's second word."""
    pair = _Pair()
    _fill_pages(pair, 2)
    size = PAGE_SIZE + 64
    header = pair.mem.base + 2 * PAGE_SIZE - 8 - size
    pair.poke(header, size | 1)
    pair.poke(header + 8, 0)
    pair.clear_dirty()
    assert pair.both("free", header + 16)[0] == "ok"
    pair.check()
    assert pair.mem.dirty_pages == frozenset({0, 2})


def test_forged_chunks_at_the_break_match_reference():
    """Two forged unaligned chunks ending 8 bytes before the break: the
    second coalesces backward into the first, and storing its
    successor's prev_size faults only after the merged header is
    written."""
    pair = _Pair()
    assert pair.both("malloc", PAGE_SIZE - 16)[0] == "ok"
    assert pair.new.top == pair.mem.brk
    second = pair.new.top - 8 - 64
    first = second - 48
    pair.poke(first, 48 | 1)
    pair.poke(first + 8, 0)
    assert pair.both("free", first + 16)[0] == "ok"
    pair.poke(second, 64 | 1)
    pair.poke(second + 8, 48)
    assert pair.both("free", second + 16)[0] is SegmentationFault
    pair.check()


def test_stale_bin_entry_above_top_matches_reference():
    """A smashed size merges a chunk into top past a binned chunk; the
    stale entry is reused and found to escape the heap."""
    pair = _Pair()
    a, b, _c = (pair.both("malloc", 16)[1] for _ in range(3))
    assert pair.both("free", b)[0] == "ok"
    pair.poke(a - 16, 96 | 1)
    assert pair.both("free", a)[0] == "ok"
    assert pair.new.top == a - 16
    assert pair.both("malloc", 16)[0] is HeapCorruptionFault
    pair.check()
