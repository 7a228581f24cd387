"""Restore equivalence: incremental (delta/keyframe) checkpoints must
be bit-identical to full-copy checkpoints.

Property-style: a randomized allocation-heavy workload runs under both
checkpoint modes; every checkpoint must materialize to the same heap
bytes and allocator state, every rollback must land on that exact
state, and re-execution from any checkpoint must reproduce the same
outputs -- including after diagnosis-driven rollback storms.
"""

import random

import pytest

from repro.checkpoint.manager import CheckpointManager
from repro.core.runtime import FirstAidRuntime
from repro.apps.registry import get_app
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


def run_both_modes(seed: int, interval: int = 500, keyframe_every: int = 4):
    tokens = churn_tokens(seed)
    results = {}
    for incremental in (True, False):
        p = Process(_PROGRAM, input_tokens=list(tokens))
        manager = CheckpointManager(p, interval=interval, adaptive=False,
                                    incremental=incremental,
                                    keyframe_every=keyframe_every)
        result = manager.run()
        assert result.reason is RunReason.HALT
        results[incremental] = (p, manager)
    return results


@pytest.mark.parametrize("seed", [1, 7, 23])
def test_materialized_checkpoints_bit_identical(seed):
    results = run_both_modes(seed)
    p_inc, m_inc = results[True]
    p_full, m_full = results[False]
    assert p_inc.output.values() == p_full.output.values()
    assert len(m_inc.checkpoints) == len(m_full.checkpoints)
    assert m_inc.stats.keyframes_taken < m_inc.stats.checkpoints_taken
    for ck_inc, ck_full in zip(m_inc.checkpoints, m_full.checkpoints):
        assert ck_inc.instr_count == ck_full.instr_count
        s_inc, s_full = ck_inc.materialize(), ck_full.materialize()
        assert s_inc.memory[0] == s_full.memory[0]
        assert s_inc.memory[1] == s_full.memory[1]
        assert s_inc.allocator == s_full.allocator
        assert s_inc.machine.frames == s_full.machine.frames
        assert s_inc.machine.globals == s_full.machine.globals


@pytest.mark.parametrize("seed", [3, 11])
def test_rollback_lands_on_exact_state_and_replays(seed):
    results = run_both_modes(seed)
    p_inc, m_inc = results[True]
    p_full, _m_full = results[False]
    final = p_full.output.values()
    # newest-to-oldest, then a forward jump, exercising both the
    # dirty-only path (same target twice) and cross-delta diffs
    targets = list(m_inc.checkpoints)[::-1] + [m_inc.checkpoints[-1]]
    for ck in targets:
        expected = ck.materialize()
        m_inc.rollback_to(ck)
        assert p_inc.instr_count == ck.instr_count
        assert p_inc.mem.snapshot()[0] == expected.memory[0]
        assert p_inc.allocator.snapshot() == expected.allocator
        # re-execution from the restored state reproduces the run
        result = p_inc.run()
        assert result.reason is RunReason.HALT
        assert p_inc.output.values() == final


def test_repeated_rollbacks_to_same_checkpoint_are_incremental():
    results = run_both_modes(seed=5)
    p_inc, m_inc = results[True]
    target = m_inc.recent(3)[-1]
    expected = target.materialize()
    for _ in range(4):
        m_inc.rollback_to(target)
        assert p_inc.mem.snapshot()[0] == expected.memory[0]
        p_inc.run(max_steps=800)
    # every rollback after the first starts from a tracked state, so
    # none of them should have needed a full O(heap) rebuild
    assert m_inc.stats.full_restores == 0
    assert (m_inc.stats.pages_restored_total
            < m_inc.stats.rollbacks * (p_inc.mem.mapped_bytes // 4096))


def test_external_restore_falls_back_safely():
    """A Process.restore behind the manager's back invalidates its
    dirty-tracking; the next checkpoint must become a keyframe and the
    next rollback a full restore, not a silently wrong delta."""
    results = run_both_modes(seed=9)
    p_inc, m_inc = results[True]
    keyframes_before = m_inc.stats.keyframes_taken
    p_inc.restore(m_inc.recent(2)[-1].materialize())  # untracked
    m_inc.take_checkpoint()
    assert m_inc.stats.keyframes_taken == keyframes_before + 1
    ck = m_inc.latest()
    expected = ck.materialize()
    p_inc.run(max_steps=500)
    m_inc.rollback_to(ck)
    assert p_inc.mem.snapshot()[0] == expected.memory[0]


@pytest.mark.parametrize("name", ["bc", "m4"])
def test_firstaid_recovery_equivalent_across_modes(name):
    """End-to-end: diagnosis-driven rollbacks under incremental
    checkpointing recover exactly like full-copy checkpointing (a
    full-copy manager installed on the runtime)."""
    app = get_app(name)
    sessions = {}
    for incremental in (True, False):
        wl = app.workload(normal_before=40, triggers=1, normal_after=40)
        runtime = FirstAidRuntime(app.program(), input_tokens=wl.tokens)
        if not incremental:
            runtime.manager = CheckpointManager(
                runtime.process, interval=runtime.config.checkpoint_interval,
                events=runtime.events, incremental=False,
                telemetry=runtime.telemetry)
        assert runtime.manager.incremental is incremental
        sessions[incremental] = (runtime, runtime.run())
    rt_inc, s_inc = sessions[True]
    rt_full, s_full = sessions[False]
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
