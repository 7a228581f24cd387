"""Property tests for the allocator extension under random operation
sequences and policies."""

from typing import List

from hypothesis import given, settings, strategies as st

from repro.core.changes import AllocChange, FreeChange, DiagnosticPolicy
from repro.heap.allocator import LeaAllocator
from repro.heap.base import Memory
from repro.heap.extension import (
    AllocatorExtension,
    ExtensionMode,
    ObjectState,
)
from repro.util.callsite import CallSite

SITE = CallSite([("fn", 1), ("main", 2)])

ops = st.lists(
    st.one_of(
        st.integers(min_value=1, max_value=300),   # malloc of size n
        st.just(-1),                               # free oldest live
        st.just(-2),                               # free newest live
    ),
    min_size=1, max_size=80)


def run_ops(ext: AllocatorExtension, script: List[int]):
    live: List[int] = []
    for op in script:
        if op > 0:
            live.append(ext.malloc(op, SITE))
        elif live:
            addr = live.pop(0 if op == -1 else -1)
            ext.free(addr, SITE)
    return live


def delay_policy(canary=False):
    return DiagnosticPolicy(
        free_default=[FreeChange(delay=True, canary_fill=canary,
                                 check_param=True)])


@settings(max_examples=60, deadline=None)
@given(ops)
def test_quarantined_chunks_never_handed_out(script):
    mem = Memory()
    alloc = LeaAllocator(mem)
    ext = AllocatorExtension(mem, alloc, ExtensionMode.DIAGNOSTIC,
                             delay_policy())
    live = run_ops(ext, script)
    quarantined = [ext.object_at(addr) for addr in ext.quarantine]
    # no live object overlaps a quarantined one
    for addr in live:
        obj = ext.object_at(addr)
        for q in quarantined:
            assert (obj.block_addr + obj.block_size <= q.user_addr
                    or q.user_addr + q.user_size <= obj.block_addr), \
                "live object overlaps quarantined memory"
    # quarantined objects are still tracked as QUARANTINED
    for q in quarantined:
        assert q.state is ObjectState.QUARANTINED


@settings(max_examples=60, deadline=None)
@given(ops)
def test_no_false_manifestations_without_stray_writes(script):
    """In-bounds program behaviour must never produce overflow or
    dangling-write evidence, whatever the change combination."""
    mem = Memory()
    alloc = LeaAllocator(mem)
    policy = DiagnosticPolicy(
        alloc_default=[AllocChange(pad=True, canary_pad=True,
                                   fill="zero")],
        free_default=[FreeChange(delay=True, canary_fill=True,
                                 check_param=True)])
    ext = AllocatorExtension(mem, alloc, ExtensionMode.DIAGNOSTIC,
                             policy)
    live = run_ops(ext, script)
    # in-bounds writes to every live object
    for addr in live:
        obj = ext.object_at(addr)
        mem.fill(addr, 0x5A, obj.user_size)
    man = ext.scan_manifestations()
    assert not man.overflow_hits
    assert not man.dangling_write_hits
    assert not man.double_free_events


@settings(max_examples=60, deadline=None)
@given(ops)
def test_metadata_accounting_matches_live_objects(script):
    from repro.heap.extension import METADATA_BYTES
    mem = Memory()
    alloc = LeaAllocator(mem)
    ext = AllocatorExtension(mem, alloc, ExtensionMode.DIAGNOSTIC)
    live = run_ops(ext, script)
    assert ext.metadata_bytes == len(live) * METADATA_BYTES
    assert ext.peak_metadata_bytes >= ext.metadata_bytes


@settings(max_examples=40, deadline=None)
@given(ops, st.integers(min_value=0, max_value=79))
def test_snapshot_restore_identity(script, cut):
    """Restoring a snapshot mid-script and re-running the tail gives
    identical allocator decisions."""
    cut = min(cut, len(script))
    mem = Memory()
    alloc = LeaAllocator(mem)
    ext = AllocatorExtension(mem, alloc, ExtensionMode.DIAGNOSTIC,
                             delay_policy(canary=True))
    run_ops(ext, script[:cut])
    snaps = (ext.snapshot(), alloc.snapshot(), mem.snapshot())
    first_live = run_ops(ext, script[cut:])
    ext.restore(snaps[0])
    alloc.restore(snaps[1])
    mem.restore(snaps[2])
    second_live = run_ops(ext, script[cut:])
    assert first_live == second_live
