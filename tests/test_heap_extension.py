"""Unit tests for the allocator extension (normal / diagnostic /
validation modes, changes, manifestation evidence, access tracing and
its watch)."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.apps.registry import real_bug_apps
from repro.bench.harness import run_first_aid, spaced_workload
from repro.core.runtime import FirstAidConfig
from repro.core.validation import ValidationEngine
from repro.errors import HeapCorruptionFault
from repro.heap.allocator import LeaAllocator
from repro.heap.base import Memory
from repro.heap.canary import CANARY_BYTE
from repro.heap.extension import (
    AllocDecision,
    AllocatorExtension,
    ChangePolicy,
    ExtensionMode,
    FreeDecision,
    METADATA_BYTES,
    ObjectState,
    PAD_POST,
    PAD_PRE,
    PLAIN_ALLOC,
    PLAIN_FREE,
)
from repro.heap.random_alloc import RandomizedLeaAllocator
from repro.parallel.tasks import run_task
from repro.util.callsite import CallSite
from tests.reference_machine import SIDES

SITE_A = CallSite([("alloc_site", 1), ("main", 10)])
SITE_F = CallSite([("free_site", 2), ("main", 20)])


class FixedPolicy(ChangePolicy):
    """Returns fixed decisions, recording calls."""

    def __init__(self, alloc=None, free=None):
        self.alloc_decision = alloc or PLAIN_ALLOC
        self.free_decision = free or PLAIN_FREE

    def on_alloc(self, callsite):
        return self.alloc_decision

    def on_free(self, callsite, user_addr):
        return self.free_decision


def make_ext(policy=None, mode=ExtensionMode.DIAGNOSTIC):
    mem = Memory()
    alloc = LeaAllocator(mem)
    return AllocatorExtension(mem, alloc, mode, policy)


class TestOffMode:
    def test_passthrough(self):
        ext = make_ext(mode=ExtensionMode.OFF)
        addr = ext.malloc(64, None)
        assert ext.object_at(addr) is None        # nothing tracked
        ext.free(addr, None)
        assert ext.metadata_bytes == 0


class TestPlainTracking:
    def test_object_info_recorded(self):
        ext = make_ext()
        addr = ext.malloc(100, SITE_A)
        obj = ext.object_at(addr)
        assert obj.user_size == 100
        assert obj.alloc_site == SITE_A
        assert obj.state is ObjectState.LIVE
        assert ext.metadata_bytes == METADATA_BYTES

    def test_free_updates_state_and_metadata(self):
        ext = make_ext()
        addr = ext.malloc(100, SITE_A)
        ext.free(addr, SITE_F)
        obj = ext.object_at(addr)
        assert obj.state is ObjectState.FREED
        assert obj.free_site == SITE_F
        assert ext.metadata_bytes == 0

    def test_find_object_by_interior_pointer(self):
        ext = make_ext()
        addr = ext.malloc(100, SITE_A)
        assert ext.find_object(addr + 50).user_addr == addr
        assert ext.find_object(addr + 100 + 64) is None


class TestPadding:
    def test_padding_geometry(self):
        policy = FixedPolicy(alloc=AllocDecision(
            pad_pre=PAD_PRE, pad_post=PAD_POST, canary_pad=True))
        ext = make_ext(policy)
        addr = ext.malloc(64, SITE_A)
        obj = ext.object_at(addr)
        assert obj.user_addr == obj.block_addr + PAD_PRE
        assert obj.block_size >= PAD_PRE + 64 + PAD_POST
        # paddings hold the canary, the payload does not get filled
        assert ext.mem.read_bytes(obj.block_addr, 8) == \
            bytes([CANARY_BYTE]) * 8

    def test_overflow_into_padding_detected(self):
        policy = FixedPolicy(alloc=AllocDecision(
            pad_pre=PAD_PRE, pad_post=PAD_POST, canary_pad=True))
        ext = make_ext(policy)
        addr = ext.malloc(64, SITE_A)
        ext.mem.write_bytes(addr + 64, b"OVERFLOW")   # past the object
        man = ext.scan_manifestations()
        assert len(man.overflow_hits) == 1
        hit = man.overflow_hits[0]
        assert hit.side == "post"
        assert hit.alloc_site == SITE_A
        assert hit.offsets[0] == 0

    def test_underflow_detected_on_pre_pad(self):
        policy = FixedPolicy(alloc=AllocDecision(
            pad_pre=PAD_PRE, pad_post=PAD_POST, canary_pad=True))
        ext = make_ext(policy)
        addr = ext.malloc(64, SITE_A)
        ext.mem.write_bytes(addr - 4, b"zz")
        man = ext.scan_manifestations()
        assert any(h.side == "pre" for h in man.overflow_hits)

    def test_overflow_evidence_survives_quarantined_free(self):
        policy = FixedPolicy(
            alloc=AllocDecision(pad_pre=PAD_PRE, pad_post=PAD_POST,
                                canary_pad=True),
            free=FreeDecision(delay=True))
        ext = make_ext(policy)
        addr = ext.malloc(64, SITE_A)
        ext.mem.write_bytes(addr + 64, b"X")
        ext.free(addr, SITE_F)
        man = ext.scan_manifestations()
        assert len(man.overflow_hits) == 1

    def test_clean_padding_reports_nothing(self):
        policy = FixedPolicy(alloc=AllocDecision(
            pad_pre=PAD_PRE, pad_post=PAD_POST, canary_pad=True))
        ext = make_ext(policy)
        addr = ext.malloc(64, SITE_A)
        ext.mem.write_bytes(addr, b"A" * 64)   # in-bounds writes only
        man = ext.scan_manifestations()
        assert not man.any()


class TestFills:
    def test_zero_fill(self):
        ext = make_ext(FixedPolicy(alloc=AllocDecision(fill="zero")))
        a = ext.malloc(64, SITE_A)
        ext.mem.write_bytes(a, b"junk")
        ext.free(a, SITE_F)
        b = ext.malloc(64, SITE_A)
        assert b == a
        assert ext.mem.read_bytes(b, 64) == b"\x00" * 64

    def test_canary_fill_on_alloc(self):
        ext = make_ext(FixedPolicy(alloc=AllocDecision(fill="canary")))
        a = ext.malloc(32, SITE_A)
        assert ext.mem.read_bytes(a, 32) == bytes([CANARY_BYTE]) * 32


class TestDelayFree:
    def test_delayed_object_keeps_contents(self):
        ext = make_ext(FixedPolicy(free=FreeDecision(delay=True)))
        a = ext.malloc(64, SITE_A)
        ext.mem.write_bytes(a, b"keepme")
        ext.free(a, SITE_F)
        assert ext.object_at(a).state is ObjectState.QUARANTINED
        assert ext.mem.read_bytes(a, 6) == b"keepme"
        # the allocator did NOT get the chunk back
        b = ext.malloc(64, SITE_A)
        assert b != a

    def test_canary_fill_on_delayed_free(self):
        ext = make_ext(FixedPolicy(
            free=FreeDecision(delay=True, canary_fill=True)))
        a = ext.malloc(64, SITE_A)
        ext.mem.write_bytes(a, b"data")
        ext.free(a, SITE_F)
        assert ext.mem.read_bytes(a, 64) == bytes([CANARY_BYTE]) * 64

    def test_dangling_write_detected(self):
        ext = make_ext(FixedPolicy(
            free=FreeDecision(delay=True, canary_fill=True)))
        a = ext.malloc(64, SITE_A)
        ext.free(a, SITE_F)
        ext.mem.write_bytes(a + 8, b"WRITE")   # stale write
        man = ext.scan_manifestations()
        assert len(man.dangling_write_hits) == 1
        assert man.dangling_write_hits[0].free_site == SITE_F

    def test_quarantine_eviction_really_frees(self):
        ext = make_ext(FixedPolicy(free=FreeDecision(delay=True)))
        ext.quarantine.threshold_bytes = 100
        a = ext.malloc(64, SITE_A)
        ext.free(a, SITE_F)
        b = ext.malloc(64, SITE_A)
        ext.free(b, SITE_F)          # pushes bytes over 100: a evicted
        assert ext.object_at(a).state is ObjectState.FREED
        assert ext.object_at(b).state is ObjectState.QUARANTINED


class TestDoubleFree:
    def test_unprotected_double_free_crashes(self):
        ext = make_ext(FixedPolicy())
        a = ext.malloc(64, SITE_A)
        ext.free(a, SITE_F)
        with pytest.raises(HeapCorruptionFault):
            ext.free(a, SITE_F)

    def test_param_check_swallows_and_records(self):
        ext = make_ext(FixedPolicy(
            free=FreeDecision(delay=True, check_param=True)))
        a = ext.malloc(64, SITE_A)
        ext.free(a, SITE_F)
        ext.free(a, SITE_F)          # swallowed
        man = ext.scan_manifestations()
        assert len(man.double_free_events) == 1
        event = man.double_free_events[0]
        assert event.first_site == SITE_F

    def test_second_free_of_quarantined_always_intercepted(self):
        # even without check_param: the allocator does not own the chunk
        ext = make_ext(FixedPolicy(free=FreeDecision(delay=True)))
        a = ext.malloc(64, SITE_A)
        ext.free(a, SITE_F)
        ext.free(a, SITE_F)
        assert len(ext.scan_manifestations().double_free_events) == 1

    def test_double_free_records_whether_the_first_free_released(self):
        policy = FixedPolicy(free=FreeDecision(delay=True, check_param=True))
        ext = make_ext(policy)
        a = ext.malloc(64, SITE_A)
        ext.free(a, SITE_F)          # delayed: still quarantined
        ext.free(a, SITE_F)
        policy.free_decision = FreeDecision(check_param=True)
        b = ext.malloc(64, SITE_A)
        ext.free(b, SITE_F)          # really released
        ext.free(b, SITE_F)
        events = ext.scan_manifestations().double_free_events
        assert [(ev.user_addr, ev.first_released) for ev in events] == \
            [(a, False), (b, True)]


class TestAccessTracing:
    def make_tracing(self, policy):
        ext = make_ext(policy, mode=ExtensionMode.VALIDATION)
        return ext

    def test_overflow_write_traced(self):
        ext = self.make_tracing(FixedPolicy(alloc=AllocDecision(
            pad_pre=PAD_PRE, pad_post=PAD_POST, canary_pad=True,
            patch_id=9)))
        a = ext.malloc(64, SITE_A)
        ext.note_access(a + 64, 8, True, ("fn", 5))
        assert len(ext.illegal_accesses) == 1
        acc = ext.illegal_accesses[0]
        assert acc.kind == "overflow-write"
        assert acc.offset == 64
        assert acc.patch_id == 9

    def test_dangling_access_traced(self):
        ext = self.make_tracing(FixedPolicy(
            free=FreeDecision(delay=True, patch_id=4)))
        a = ext.malloc(64, SITE_A)
        ext.free(a, SITE_F)
        ext.note_access(a + 8, 8, False, ("fn", 7))
        ext.note_access(a + 16, 8, True, ("fn", 8))
        kinds = [x.kind for x in ext.illegal_accesses]
        assert kinds == ["dangling-read", "dangling-write"]
        assert all(x.patch_id == 4 for x in ext.illegal_accesses)

    def test_read_before_init_traced(self):
        ext = self.make_tracing(FixedPolicy(alloc=AllocDecision(
            fill="zero", patch_id=2)))
        a = ext.malloc(64, SITE_A)
        ext.note_access(a, 8, True, ("fn", 1))     # init bytes 0..8
        ext.note_access(a, 8, False, ("fn", 2))    # ok: initialized
        ext.note_access(a + 8, 8, False, ("fn", 3))  # uninit read!
        kinds = [x.kind for x in ext.illegal_accesses]
        assert kinds == ["uninit-read"]
        assert ext.illegal_accesses[0].offset == 8

    def test_inbounds_access_not_traced(self):
        ext = self.make_tracing(FixedPolicy())
        a = ext.malloc(64, SITE_A)
        ext.note_access(a, 8, True, ("fn", 1))
        ext.note_access(a, 8, False, ("fn", 2))
        assert ext.illegal_accesses == []


class TestSnapshotRestore:
    def test_full_roundtrip(self):
        ext = make_ext(FixedPolicy(
            free=FreeDecision(delay=True, canary_fill=True)))
        a = ext.malloc(64, SITE_A)
        snap = ext.snapshot()
        mem_snap = ext.mem.snapshot()
        alloc_snap = ext.allocator.snapshot()
        ext.free(a, SITE_F)
        ext.mem.write_bytes(a, b"X")
        assert ext.scan_manifestations().any()
        ext.restore(snap)
        ext.mem.restore(mem_snap)
        ext.allocator.restore(alloc_snap)
        assert ext.object_at(a).state is ObjectState.LIVE
        assert not ext.scan_manifestations().any()

    def test_mm_trace_recording(self):
        ext = make_ext(FixedPolicy())
        ext.trace_mm = True
        a = ext.malloc(32, SITE_A)
        ext.free(a, SITE_F)
        assert [e.op for e in ext.mm_trace] == ["malloc", "free"]
        assert ext.mm_trace[0].user_addr == a


# ---------------------------------------------------------------------------
# the access watch: exact under every object transition, and useful
# ---------------------------------------------------------------------------

#: Quarantine budget of the watch properties: a 600-byte object evicts
#: itself on its own delayed free.
WATCH_QUARANTINE = 512

_WATCH_ALLOCS = {
    "plain": AllocDecision(),
    "pads": AllocDecision(pad_pre=PAD_PRE, pad_post=PAD_POST,
                          canary_pad=True, patch_id=1),
    "guard": AllocDecision(pad_pre=PAD_PRE, pad_post=PAD_POST,
                           canary_pad=True),      # sampled: no patch id
    "pre": AllocDecision(pad_pre=PAD_PRE, patch_id=2),
    "zero": AllocDecision(fill="zero", patch_id=3),
    "pads+zero": AllocDecision(pad_pre=PAD_PRE, pad_post=PAD_POST,
                               fill="zero", patch_id=4),
}
_WATCH_FREES = {
    "plain": FreeDecision(),
    "delay": FreeDecision(delay=True, check_param=True, patch_id=5),
    "delay+canary": FreeDecision(delay=True, canary_fill=True,
                                 check_param=True, patch_id=6),
}

#: Two delayed frees put 510 bytes in quarantine and the second trips a
#: 1000-byte patch-memory limit, which pops the oldest; then a padded
#: malloc comes out plain and a guard keeps its pads.
FAILSAFE_SCRIPT = [("malloc", 300, "zero"), ("malloc", 210, "pre"),
                   ("free", 0, "delay"), ("free", 0, "delay+canary"),
                   ("malloc", 64, "pads"), ("malloc", 64, "guard")]

_watch_op = st.one_of(
    st.tuples(st.just("malloc"), st.integers(min_value=0, max_value=600),
              st.sampled_from(sorted(_WATCH_ALLOCS))),
    st.tuples(st.just("free"), st.integers(min_value=0, max_value=63),
              st.sampled_from(sorted(_WATCH_FREES))),
    st.tuples(st.just("pop_oldest")),
    st.tuples(st.just("drain")),
    st.tuples(st.just("snapshot")),
    st.tuples(st.just("restore")),
)


def can_act(obj, addr):
    """Whether note_access can record, or mark init bytes, for an
    access starting at ``addr`` inside ``obj``'s block: its rules,
    restated over the object's own geometry."""
    if obj.state is ObjectState.QUARANTINED:
        return True
    return (obj.in_pre_pad(addr) or obj.in_post_pad(addr)
            or (obj.written is not None and obj.contains(addr)))


def assert_watch_exact(ext):
    """Brute force over every byte of every tracked block (outside
    them note_access finds no object): each byte where note_access can
    act lies in a watched granule, and each watched granule lies in
    one tracked block that is not FREED."""
    watch = ext.watch
    for obj in ext._objects.values():
        if obj.state is ObjectState.FREED:
            continue
        for addr in range(obj.block_addr, obj.block_addr + obj.block_size):
            if can_act(obj, addr):
                assert addr >> 3 in watch, (hex(addr), obj)
    for granule in watch:
        obj = ext.find_object(granule << 3)
        assert obj is not None and obj.state is not ObjectState.FREED
        assert ext.find_object((granule << 3) + 7) is obj


def run_watch_script(script, randomized, limit):
    mem = Memory()
    allocator = (RandomizedLeaAllocator(mem, 7) if randomized
                 else LeaAllocator(mem))
    policy = FixedPolicy()
    ext = AllocatorExtension(mem, allocator, ExtensionMode.VALIDATION,
                             policy,
                             quarantine_threshold=WATCH_QUARANTINE)
    ext.patch_memory_limit = limit
    ext.build_watch()
    live, saved = [], None
    for op in script:
        kind = op[0]
        if kind == "malloc":
            policy.alloc_decision = _WATCH_ALLOCS[op[2]]
            live.append(ext.malloc(op[1], SITE_A))
        elif kind == "free" and live:
            policy.free_decision = _WATCH_FREES[op[2]]
            ext.free(live.pop(op[1] % len(live)), SITE_F)
        elif kind == "pop_oldest":
            ext.quarantine.pop_oldest()
        elif kind == "drain":
            ext.quarantine.drain()
        elif kind == "snapshot":
            saved = (mem.snapshot(), allocator.snapshot(),
                     ext.snapshot(), list(live))
        elif kind == "restore" and saved is not None:
            mem.restore(saved[0])
            allocator.restore(saved[1])
            ext.restore(saved[2])
            live = list(saved[3])
        assert_watch_exact(ext)
    return ext


@settings(max_examples=40, deadline=None)
@given(st.lists(_watch_op, max_size=24), st.booleans(),
       st.sampled_from((None, 1000, 6000)))
@example([("malloc", 600, "pads+zero"), ("free", 0, "delay+canary")],
         False, None)
@example(FAILSAFE_SCRIPT, True, 1000)
def test_watch_covers_exactly_where_note_access_acts(script, randomized,
                                                     limit):
    """After every malloc, free (plain, delayed, or evicting itself),
    quarantine eviction, ``pop_oldest``, ``drain``, snapshot and
    restore -- through a trip of the patch-memory failsafe -- the watch
    covers every address where note_access can act and nothing
    outside the tracked blocks.  The explicit examples pin a 600-byte
    object evicted by its own delayed free and a failsafe trip."""
    ext = run_watch_script(script, randomized, limit)
    assert ext.watch is not None


def test_watch_sees_self_eviction_and_failsafe():
    ext = run_watch_script(
        [("malloc", 600, "pads+zero"), ("free", 0, "delay")], False,
        None)
    assert ext.quarantine.evictions == 1 and len(ext.quarantine) == 0
    assert ext.watch == set()
    ext = run_watch_script(FAILSAFE_SCRIPT, True, 1000)
    assert ext.patching_disabled
    assert ext.quarantine.evictions == 1
    # The second delayed free trips it; the guard's pads come after.
    assert ext.watch


def test_watch_stays_out_of_snapshots():
    ext = make_ext(FixedPolicy(alloc=AllocDecision(
        pad_pre=PAD_PRE, pad_post=PAD_POST, patch_id=1)),
        mode=ExtensionMode.VALIDATION)
    plain = make_ext(FixedPolicy(alloc=AllocDecision(
        pad_pre=PAD_PRE, pad_post=PAD_POST, patch_id=1)),
        mode=ExtensionMode.VALIDATION)
    ext.build_watch()
    for e in (ext, plain):
        e.malloc(64, SITE_A)
    assert ext.watch and plain.watch is None
    assert ext.snapshot() == plain.snapshot()


@pytest.mark.parametrize("app", real_bug_apps(), ids=lambda a: a.name)
def test_validation_task_calls_note_access_for_few_accesses(app,
                                                            monkeypatch):
    """One validation task per app, captured as the runtime builds it:
    on the compiled tier (watch) it calls note_access for at most a
    tenth of the accesses the oracle (every access) traces, and its
    outcome equals the oracle's."""

    class Captured(BaseException):
        pass

    build = ValidationEngine._task

    def capture(self, *args, **kwargs):
        raise Captured(build(self, *args, **kwargs))

    monkeypatch.setattr(ValidationEngine, "_task", capture)
    with pytest.raises(Captured) as caught:
        run_first_aid(app, spaced_workload(app, 1),
                      FirstAidConfig(workers=1, search_policy="fixed"))
    task = caught.value.args[0]
    assert task.trace_accesses
    note = AllocatorExtension.note_access
    calls = []

    def counting(self, *args):
        calls.append(args)
        note(self, *args)

    monkeypatch.setattr(AllocatorExtension, "note_access", counting)
    outcomes = {}
    for tier, side in SIDES.items():
        calls.clear()
        with side():
            out = run_task(app.program(), task)
        outcomes[tier] = (len(calls), out)
    (traced, ref), (called, cmp_) = (outcomes["reference"],
                                     outcomes["compiled"])
    assert traced > 0 and called <= traced / 10
    assert (cmp_.passed, repr(cmp_.result), cmp_.time_ns,
            cmp_.illegal_accesses, cmp_.mm_trace,
            cmp_.manifestations) == \
        (ref.passed, repr(ref.result), ref.time_ns,
         ref.illegal_accesses, ref.mm_trace, ref.manifestations)
