"""Restore equivalence: page-table checkpoints against full copies.

A checkpoint shares every clean page with its predecessor's table and
copies only the dirty ones, yet it must denote exactly the full
``Process.snapshot()`` taken at its boundary.  That full copy is the
reference here: :class:`RecordingManager` records it at each capture.

A randomized allocation-heavy workload checkpoints at a fixed
interval; every checkpoint must materialize to its recorded snapshot,
every rollback must land on that exact state and charge the pages its
dirty sets predict, and re-execution from any checkpoint must
reproduce the same outputs -- including after random sequences of
rollbacks, history drops, untracked restores and scribbled
checkpoints, and after diagnosis-driven rollback storms.
"""

import random

from hypothesis import given, settings, strategies as st
import pytest

from repro.chaos.faults import ChaosPlan
from repro.checkpoint.manager import CheckpointManager
from repro.checkpoint.snapshot import ZERO_PAGE
from repro.core.runtime import FirstAidRuntime
from repro.apps.registry import get_app
from repro.heap.base import PAGE_SIZE, Memory
from repro.lang import compile_program
from repro.process import Process
from repro.vm.machine import RunReason

#: 32-slot pointer table; each request frees/reallocates one slot with
#: a token-dependent size and fill, so heap contents, allocator bins,
#: and the dirty-page set all depend on the whole token history.  Sizes
#: up to ~6 KB spread the live set over many pages.
CHURN = """
int main() {
    int slots = malloc(256);
    int i = 0;
    while (i < 32) { store(slots + i * 8, 0); i = i + 1; }
    int acc = 0;
    while (1) {
        int cmd = input();
        if (cmd == 0) { break; }
        int slot = cmd % 32;
        int old = load(slots + slot * 8);
        if (old != 0) {
            acc = acc + load(old);
            free(old);
        }
        int size = 64 + (cmd % 6000);
        int p = malloc(size);
        memset(p, cmd % 256, size);
        store(p, cmd);
        store(slots + slot * 8, p);
        output(acc);
    }
    halt();
}
"""

_PROGRAM = compile_program(CHURN, "churn")


def churn_tokens(seed: int, n: int = 400):
    rng = random.Random(seed)
    return [rng.randrange(1, 100_000) for _ in range(n)] + [0]


class RecordingManager(CheckpointManager):
    """A manager that records the full ``Process.snapshot()`` at each
    boundary, just before the capture: the full-copy reference."""

    def __init__(self, process, **kw):
        super().__init__(process, **kw)
        #: checkpoint index -> full snapshot at its boundary
        self.reference = {}

    def take_checkpoint(self):
        snap = self.process.snapshot()
        ck = super().take_checkpoint()
        self.reference[ck.index] = snap
        return ck


class FullRestoreManager(CheckpointManager):
    """Every rollback rebuilds the whole process from the checkpoint,
    as a full-copy checkpointer would."""

    def _rollback_in_place(self, checkpoint):
        return None


def state_key(snap):
    """Heap bytes, allocator and machine state of a snapshot.  (Not the
    output length: a restore truncates the output log, so a rollback
    forward past a truncation cannot regrow it.)"""
    m = snap.machine
    return (snap.memory[0], snap.allocator, m.frames, m.globals,
            m.instr_count, m.halted, m.input_cursor)


def assert_lands_on(process, snap):
    assert state_key(process.snapshot()) == state_key(snap)


def run_recorded(seed: int, interval: int = 500, **kw):
    p = Process(_PROGRAM, input_tokens=churn_tokens(seed))
    manager = RecordingManager(p, interval=interval, adaptive=False, **kw)
    result = manager.run()
    assert result.reason is RunReason.HALT
    return p, manager


@pytest.mark.parametrize("seed", [1, 7, 23])
def test_materialized_checkpoints_bit_identical(seed):
    p, manager = run_recorded(seed)
    plain = Process(_PROGRAM, input_tokens=churn_tokens(seed))
    assert plain.run().reason is RunReason.HALT
    assert p.output.values() == plain.output.values()
    cks = list(manager.checkpoints)
    assert len(cks) > 8
    for ck in cks:
        snap, ref = ck.materialize(), manager.reference[ck.index]
        assert snap.memory == ref.memory       # bytes and dirty set
        assert state_key(snap) == state_key(ref)
    # clean pages are the predecessor's payloads, grown unwritten
    # pages the zero page, and a dirty page that came back unchanged is
    # deduped to the predecessor's payload
    deduped = 0
    for prev, ck in zip(cks, cks[1:]):
        assert ck.prev is prev
        for idx, payload in enumerate(ck.pages):
            if idx >= len(prev.pages):
                assert idx in ck.dirty or payload is ZERO_PAGE
            elif idx not in ck.dirty or payload == prev.pages[idx]:
                assert payload is prev.pages[idx]
                deduped += idx in ck.dirty
    assert deduped


def test_capture_copies_only_dirty_pages(monkeypatch):
    """Capture is O(dirty): the first capture copies the heap, every
    later one its dirty pages and nothing else."""
    copied = []
    real = Memory.copy_pages

    def spy(self, indices):
        pages = real(self, indices)
        copied.append(len(pages))
        return pages

    monkeypatch.setattr(Memory, "copy_pages", spy)
    _p, manager = run_recorded(seed=13)
    cks = list(manager.checkpoints)
    assert len(copied) == manager.stats.checkpoints_taken == len(cks)
    assert copied == [len(cks[0].pages)] + [ck.cow_pages for ck in cks[1:]]


@pytest.mark.parametrize("seed", [3, 11])
def test_rollback_lands_on_exact_state_and_replays(seed):
    p, manager = run_recorded(seed)
    final = p.output.values()
    # newest-to-oldest, then a forward jump, exercising both the
    # dirty-only path (same target twice) and cross-interval diffs
    targets = list(manager.checkpoints)[::-1] + [manager.checkpoints[-1]]
    for ck in targets:
        manager.rollback_to(ck)
        assert p.instr_count == ck.instr_count
        assert_lands_on(p, manager.reference[ck.index])
        # re-execution from the restored state reproduces the run
        result = p.run()
        assert result.reason is RunReason.HALT
        assert p.output.values() == final
    assert manager.stats.full_restores == 0


def test_repeated_rollbacks_to_same_checkpoint_are_incremental():
    p, manager = run_recorded(seed=5)
    target = manager.recent(3)[-1]
    expected = manager.reference[target.index]
    for _ in range(4):
        manager.rollback_to(target)
        assert_lands_on(p, expected)
        p.run(max_steps=800)
    # every rollback after the first starts from a tracked state, so
    # none of them should have needed a full O(heap) rebuild
    assert manager.stats.full_restores == 0
    assert (manager.stats.pages_restored_total
            < manager.stats.rollbacks * (p.mem.mapped_bytes // PAGE_SIZE))


def test_external_restore_falls_back_safely():
    """A Process.restore behind the manager's back invalidates its
    dirty-tracking: the next checkpoint copies every page and starts a
    new chain, and a rollback across it rebuilds in full instead of
    rewriting a silently wrong page set."""
    p, manager = run_recorded(seed=9)
    newer = manager.recent(2)[-1]
    p.restore(manager.recent(4)[-1].materialize())  # untracked
    manager.take_checkpoint()
    ck = manager.latest()
    assert ck.prev is None
    assert ck.materialize().memory == manager.reference[ck.index].memory
    p.run(max_steps=500)
    manager.rollback_to(ck)
    assert_lands_on(p, manager.reference[ck.index])
    full = manager.stats.full_restores
    # the heap now holds an older state than ``newer``'s predecessor
    # chain describes; only a full restore lands on ``newer``
    manager.rollback_to(newer)
    assert manager.stats.full_restores == full + 1
    assert_lands_on(p, manager.reference[newer.index])


@pytest.mark.parametrize("name", ["bc", "m4"])
def test_firstaid_recovery_equivalent_across_modes(name):
    """End-to-end: diagnosis-driven in-place rollbacks recover exactly
    like full restores (a full-restore manager installed on the
    runtime)."""
    app = get_app(name)
    sessions = {}
    for in_place in (True, False):
        wl = app.workload(normal_before=40, triggers=1, normal_after=40)
        runtime = FirstAidRuntime(app.program(), input_tokens=wl.tokens)
        if not in_place:
            runtime.manager = FullRestoreManager(
                runtime.process, interval=runtime.config.checkpoint_interval,
                events=runtime.events, telemetry=runtime.telemetry)
        sessions[in_place] = (runtime, runtime.run())
    rt_inc, s_inc = sessions[True]
    rt_full, s_full = sessions[False]
    stats_inc, stats_full = rt_inc.manager.stats, rt_full.manager.stats
    assert stats_full.full_restores == stats_full.rollbacks > 0
    assert stats_inc.full_restores < stats_inc.rollbacks
    assert s_inc.reason == s_full.reason
    assert len(s_inc.recoveries) == len(s_full.recoveries) == 1
    assert s_inc.recoveries[0].succeeded == s_full.recoveries[0].succeeded
    d_inc, d_full = (s_inc.recoveries[0].diagnosis,
                     s_full.recoveries[0].diagnosis)
    assert d_inc.verdict == d_full.verdict
    assert d_inc.bug_types == d_full.bug_types
    assert d_inc.rollbacks == d_full.rollbacks
    assert (rt_inc.process.output.values()
            == rt_full.process.output.values())


# ---------------------------------------------------------------------
# property: random capture/rollback/drop/restore/corrupt sequences
# ---------------------------------------------------------------------

#: A short history, so eviction kills weak predecessor links.
_KEEP = 5
#: Ops weighted so most rollbacks start from a tracked heap.
_OPS = st.lists(st.tuples(st.sampled_from(
    ["run"] * 4 + ["rollback"] * 3 + ["drop_after", "restore", "corrupt"]),
    st.integers(0, 63)), min_size=8, max_size=40)


class _Model:
    """What the test knows of the history: each checkpoint's parent at
    capture (None when the heap was untracked) and dirty set, and the
    checkpoint the heap derives from (None when untracked)."""

    def __init__(self):
        self.parent = {}
        self.dirty = {}
        self.position = None

    def restore_pages(self, manager, target):
        """The pages an in-place rollback to ``target`` rewrites, from
        the dirty sets along the live chains; None when no live common
        ancestor exists (a full restore)."""
        if self.position is None:
            return None
        alive = {ck.index for ck in manager.checkpoints}
        alive.add(self.position)

        def chain(index):
            out = []
            while index is not None and index in alive:
                out.append(index)
                index = self.parent[index]
            return out

        ours, theirs = chain(self.position), chain(target)
        common = next((i for i in ours if i in theirs), None)
        if common is None:
            return None
        pages = set()
        for index in (ours[:ours.index(common)]
                      + theirs[:theirs.index(common)]):
            pages |= self.dirty[index]
        return pages


def _capture(p, manager, model):
    dirty = p.mem.dirty_pages
    manager.take_checkpoint()
    index = manager.checkpoints[-1].index
    model.parent[index] = model.position
    model.dirty[index] = dirty
    model.position = index


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(1, 50), ops=_OPS)
def test_page_tables_hold_under_random_histories(seed, ops):
    plan = ChaosPlan()
    p = Process(_PROGRAM, input_tokens=churn_tokens(seed, n=200))
    manager = RecordingManager(p, interval=500, adaptive=False,
                               max_keep=_KEEP, chaos=plan)
    costs = p.costs
    model = _Model()
    #: checkpoint index -> the heap bytes its table now denotes
    expected = {}
    scribbled = set()
    _capture(p, manager, model)
    expected[0] = manager.reference[0].memory[0]
    for op, n in ops:
        live = [ck.index for ck in manager.checkpoints]
        pick = live[n % len(live)]
        if op == "run":
            p.run(stop_at=p.instr_count + 100 + 30 * n)
            _capture(p, manager, model)
            index = model.position
            expected[index] = manager.reference[index].memory[0]
        elif op in ("rollback", "corrupt"):
            if op == "corrupt":
                plan.arm("checkpoint_corrupt")
                predicted = None      # a corrupt rollback restores in full
            else:
                predicted = model.restore_pages(manager, pick)
            table_pages = len(expected[pick]) // PAGE_SIZE
            if predicted is not None:
                predicted = {idx for idx in predicted | p.mem.dirty_pages
                             if idx < table_pages}
            full_before = manager.stats.full_restores
            t0 = p.clock.now_ns
            manager.rollback_to(
                next(ck for ck in manager.checkpoints if ck.index == pick))
            charged = p.clock.now_ns - t0
            if predicted is None:
                assert manager.stats.full_restores == full_before + 1
                assert charged == (costs.restore_base_ns
                                   + table_pages * costs.page_restore_ns)
            else:
                assert manager.stats.full_restores == full_before
                assert charged == (costs.restore_base_ns + len(predicted)
                                   * costs.page_restore_ns)
            if op == "corrupt":
                page = table_pages // 2
                if table_pages:
                    buf = bytearray(expected[pick])
                    buf[page * PAGE_SIZE:(page + 1) * PAGE_SIZE] = \
                        b"\xa5" * PAGE_SIZE
                    expected[pick] = bytes(buf)
                scribbled.add(pick)
                assert p.mem.snapshot()[0] == expected[pick]
                model.position = None
            elif pick in scribbled:
                # a heap restored from a scribbled table is untracked
                model.position = None
            else:
                model.position = pick
                assert_lands_on(p, manager.reference[pick])
        elif op == "drop_after":
            manager.drop_after(
                next(ck for ck in manager.checkpoints if ck.index == pick))
        else:  # an untracked restore of any recorded boundary
            recorded = sorted(manager.reference)
            p.restore(manager.reference[recorded[n % len(recorded)]])
            model.position = None
        _check_tables(manager, expected, scribbled)


def _check_tables(manager, expected, scribbled):
    """Every live table denotes its boundary snapshot, with only its
    own scribbles: a scribble never reaches another table.  (A helper,
    so no loop variable outlives it and keeps a checkpoint alive.)"""
    for ck in manager.checkpoints:
        snap = ck.materialize()
        assert snap.memory == (expected[ck.index],
                               manager.reference[ck.index].memory[1])
        if ck.index not in scribbled:
            assert state_key(snap) == state_key(manager.reference[ck.index])
