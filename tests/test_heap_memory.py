"""Unit tests for the simulated memory segment."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SegmentationFault
from repro.heap.base import HEAP_BASE, PAGE_SIZE, Memory


def test_initially_unmapped():
    mem = Memory()
    assert mem.brk == mem.base
    with pytest.raises(SegmentationFault):
        mem.read_bytes(mem.base, 1)


def test_sbrk_grows_in_pages():
    mem = Memory()
    old = mem.sbrk(1)
    assert old == mem.base
    assert mem.brk == mem.base + PAGE_SIZE
    mem.sbrk(PAGE_SIZE + 1)
    assert mem.brk == mem.base + 3 * PAGE_SIZE


def test_sbrk_respects_limit():
    mem = Memory(limit=2 * PAGE_SIZE)
    assert mem.sbrk(PAGE_SIZE) >= 0
    assert mem.sbrk(PAGE_SIZE) >= 0
    assert mem.sbrk(1) == -1  # over the limit


def test_fresh_pages_are_zero():
    mem = Memory()
    mem.sbrk(PAGE_SIZE)
    assert mem.read_bytes(mem.base, 16) == b"\x00" * 16


def test_read_write_roundtrip():
    mem = Memory()
    mem.sbrk(PAGE_SIZE)
    mem.write_bytes(mem.base + 10, b"hello")
    assert mem.read_bytes(mem.base + 10, 5) == b"hello"


def test_uint_little_endian():
    mem = Memory()
    mem.sbrk(PAGE_SIZE)
    mem.write_uint(mem.base, 8, 0x1122334455667788)
    assert mem.read_bytes(mem.base, 2) == b"\x88\x77"
    assert mem.read_uint(mem.base, 8) == 0x1122334455667788
    assert mem.read_uint(mem.base, 4) == 0x55667788


def test_uint_wraps_at_size():
    mem = Memory()
    mem.sbrk(PAGE_SIZE)
    mem.write_uint(mem.base, 1, 0x1FF)
    assert mem.read_uint(mem.base, 1) == 0xFF


def test_null_and_low_addresses_fault():
    mem = Memory()
    mem.sbrk(PAGE_SIZE)
    for addr in (0, 1, 4096, HEAP_BASE - 1):
        with pytest.raises(SegmentationFault):
            mem.read_uint(addr, 8)


def test_access_straddling_brk_faults():
    mem = Memory()
    mem.sbrk(PAGE_SIZE)
    with pytest.raises(SegmentationFault):
        mem.read_bytes(mem.brk - 4, 8)
    # but exactly up to brk is fine
    assert mem.read_bytes(mem.brk - 8, 8) == b"\x00" * 8


def test_fault_carries_address():
    mem = Memory()
    try:
        mem.read_uint(0xDEAD, 8)
    except SegmentationFault as fault:
        assert fault.address == 0xDEAD
    else:
        pytest.fail("expected SegmentationFault")


def test_fill_and_copy_within():
    mem = Memory()
    mem.sbrk(PAGE_SIZE)
    mem.fill(mem.base, 0xAB, 32)
    assert mem.read_bytes(mem.base, 32) == b"\xab" * 32
    mem.copy_within(mem.base + 100, mem.base, 32)
    assert mem.read_bytes(mem.base + 100, 32) == b"\xab" * 32


def test_dirty_page_tracking():
    mem = Memory()
    mem.sbrk(4 * PAGE_SIZE)
    mem.clear_dirty()
    assert mem.dirty_page_count == 0
    mem.write_uint(mem.base, 8, 1)
    assert mem.dirty_pages == frozenset({0})
    # a write straddling two pages dirties both
    mem.write_bytes(mem.base + PAGE_SIZE - 2, b"abcd")
    assert mem.dirty_pages == frozenset({0, 1})
    mem.clear_dirty()
    assert mem.dirty_page_count == 0


def test_reads_do_not_dirty():
    mem = Memory()
    mem.sbrk(PAGE_SIZE)
    mem.clear_dirty()
    mem.read_bytes(mem.base, 64)
    assert mem.dirty_page_count == 0


def test_snapshot_restore_roundtrip():
    mem = Memory()
    mem.sbrk(PAGE_SIZE)
    mem.write_bytes(mem.base, b"state-one")
    snap = mem.snapshot()
    mem.write_bytes(mem.base, b"state-two")
    mem.sbrk(PAGE_SIZE)
    mem.restore(snap)
    assert mem.read_bytes(mem.base, 9) == b"state-one"
    assert mem.brk == mem.base + PAGE_SIZE


def test_unaligned_base_rejected():
    with pytest.raises(ValueError):
        Memory(base=1000)


# -- two-word (chunk header) accessors --------------------------------

def test_pair_roundtrip_on_aligned_header():
    mem = Memory()
    mem.sbrk(2 * PAGE_SIZE)
    mem.clear_dirty()
    addr = mem.base + PAGE_SIZE + 32
    mem.write_pair(addr, 0x31, (1 << 64) + 0x20)  # wraps like write_uint
    assert mem.read_pair(addr) == (0x31, 0x20)
    assert mem.read_uint(addr, 8) == 0x31
    assert mem.read_uint(addr + 8, 8) == 0x20
    assert mem.dirty_pages == frozenset({1})


def test_pair_straddling_a_page_dirties_both_pages():
    mem = Memory()
    mem.sbrk(3 * PAGE_SIZE)
    mem.clear_dirty()
    addr = mem.base + 2 * PAGE_SIZE - 12
    mem.write_pair(addr, 0x1122334455667788, 0x99AABBCCDDEEFF00)
    assert mem.dirty_pages == frozenset({1, 2})
    assert mem.read_pair(addr) == (0x1122334455667788,
                                   0x99AABBCCDDEEFF00)
    reference = Memory()
    reference.sbrk(3 * PAGE_SIZE)
    reference.write_uint(addr, 8, 0x1122334455667788)
    reference.write_uint(addr + 8, 8, 0x99AABBCCDDEEFF00)
    assert mem.snapshot()[0] == reference.snapshot()[0]


def _fault(call):
    with pytest.raises(SegmentationFault) as info:
        call()
    return str(info.value), info.value.address


@pytest.mark.parametrize("offset", [-16, -8, -4, PAGE_SIZE - 12,
                                    PAGE_SIZE - 8, PAGE_SIZE])
def test_pair_outside_the_break_faults_like_two_words(offset):
    """A pair partly or fully outside [base, brk) raises the fault of
    the first single-word access that would, and a write leaves the
    same bytes and dirty pages behind (the in-range word is stored)."""
    def fresh():
        m = Memory()
        m.sbrk(PAGE_SIZE)
        m.clear_dirty()
        return m

    addr = HEAP_BASE + offset
    mem, ref = fresh(), fresh()
    assert _fault(lambda: mem.read_pair(addr)) == _fault(
        lambda: (ref.read_uint(addr, 8), ref.read_uint(addr + 8, 8)))

    def two_writes():
        ref.write_uint(addr, 8, 0x41)
        ref.write_uint(addr + 8, 8, 0x42)

    assert _fault(lambda: mem.write_pair(addr, 0x41, 0x42)) == \
        _fault(two_writes)
    assert mem.snapshot() == ref.snapshot()


# -- word accessors against an independent encoding -------------------

class _BytesOracle:
    """``int.from_bytes``/``to_bytes`` over a plain bytearray with the
    same mapping rule, fault message and dirty-page rule: the behaviour
    ``read_uint``/``write_uint`` must keep, whatever they encode with."""

    def __init__(self, mapped):
        self.buf = bytearray(mapped)
        self.dirty = set()

    def _check(self, addr, size):
        off = addr - HEAP_BASE
        if off < 0 or off + size > len(self.buf):
            raise SegmentationFault(
                f"access of {size} byte(s) outside [0x{HEAP_BASE:x}, "
                f"0x{HEAP_BASE + len(self.buf):x})", address=addr)
        return off

    def read_uint(self, addr, size):
        off = self._check(addr, size)
        return int.from_bytes(self.buf[off:off + size], "little")

    def write_uint(self, addr, size, value):
        off = self._check(addr, size)
        self.buf[off:off + size] = (value % (1 << (8 * size))).to_bytes(
            size, "little")
        self.dirty.update(range(off // PAGE_SIZE,
                                (off + size - 1) // PAGE_SIZE + 1))


_PAGES = 2
_width = st.sampled_from((1, 2, 4, 8))
#: Anywhere in and around the mapping, plus offsets packed around each
#: page boundary: below the base, across page 0/1, and across the
#: mapped edge at ``_PAGES * PAGE_SIZE``.
_offset = st.one_of(
    st.integers(min_value=-16, max_value=_PAGES * PAGE_SIZE + 16),
    st.builds(lambda page, delta: page * PAGE_SIZE + delta,
              st.integers(min_value=0, max_value=_PAGES),
              st.integers(min_value=-9, max_value=9)))
#: Values in range, at each width's limit and above every width.
_value = st.one_of(
    st.integers(min_value=0, max_value=2 ** 72),
    st.sampled_from([2 ** (8 * w) + d for w in (1, 2, 4, 8)
                     for d in (-1, 0, 1)]))
_access = st.tuples(st.booleans(), _width, _offset, _value)


def _outcome(call):
    try:
        return "ok", call()
    except SegmentationFault as fault:
        return "fault", str(fault), fault.address


@settings(max_examples=60, deadline=None)
@given(st.lists(_access, min_size=1, max_size=24))
def test_uint_accessors_match_the_bytes_oracle(accesses):
    mem = Memory()
    mem.sbrk(_PAGES * PAGE_SIZE)
    mem.clear_dirty()
    oracle = _BytesOracle(_PAGES * PAGE_SIZE)
    for is_write, width, offset, value in accesses:
        addr = HEAP_BASE + offset
        if is_write:
            got = _outcome(lambda: mem.write_uint(addr, width, value))
            want = _outcome(lambda: oracle.write_uint(addr, width, value))
        else:
            got = _outcome(lambda: mem.read_uint(addr, width))
            want = _outcome(lambda: oracle.read_uint(addr, width))
        assert got == want
    assert mem.snapshot()[0] == bytes(oracle.buf)
    assert mem.dirty_pages == frozenset(oracle.dirty)
