"""Cross-process prevention through the shared patch store: the
runtime integration (publish on creation/validation, retract on failed
validation, periodic mid-run refresh) and the fleet harness."""

import pytest

from repro.core.diagnosis import Verdict
from repro.core.patches import PatchPool
from repro.core.runtime import FirstAidConfig, FirstAidRuntime
from repro.lang import compile_program
from repro.store import SharedPatchStore

OVERFLOW_SERVER = """
int victim = 0;
int target = 0;
int handle(int n) {
    int buf = malloc(32);
    int i = 0;
    while (i < n) { store1(buf + i, 65); i = i + 1; }
    free(buf);
    return 0;
}
int main() {
    int hole = malloc(32);
    victim = malloc(48);
    target = malloc(48);
    store(target, 0);
    store(victim, target);
    free(hole);
    while (1) {
        int op = input();
        if (op == 0) { halt(); }
        handle(op);
        int p = load(victim);
        store(p, load(p) + 1);
        output(1);
    }
}
"""


def workload(triggers=1, spacing=60, prelude=20):
    tokens = [8] * prelude
    for _ in range(triggers):
        tokens += [64] + [8] * spacing
    return tokens + [0]


def config(store_path, **kw):
    defaults = dict(checkpoint_interval=2000, validate=True,
                    store_path=store_path)
    defaults.update(kw)
    return FirstAidConfig(**defaults)


@pytest.fixture
def store_path(tmp_path):
    return str(tmp_path / "srv.store.json")


def test_leader_publishes_validated_patch(store_path):
    program = compile_program(OVERFLOW_SERVER, "srv")
    runtime = FirstAidRuntime(program, input_tokens=workload(1),
                              config=config(store_path))
    session = runtime.run()
    runtime.close()
    assert len(session.recoveries) == 1
    assert session.recoveries[0].diagnosis.verdict is Verdict.PATCHED
    state = runtime.store.load()
    assert len(state.validated_keys()) == len(state.patches) == 1
    # generation advanced for creation-publish and validation-publish;
    # the session-exit sync republishes identical counts and is a
    # deliberate no-op commit (no merged-state change, no churn)
    assert state.generation >= 2
    assert runtime.store.noop_mutations >= 1


def test_follower_prevents_at_first_occurrence(store_path):
    program = compile_program(OVERFLOW_SERVER, "srv")
    leader = FirstAidRuntime(program, input_tokens=workload(1),
                             config=config(store_path))
    leader.run()
    leader.close()

    follower = FirstAidRuntime(program, input_tokens=workload(2),
                               config=config(store_path))
    session = follower.run()
    follower.close()
    assert session.reason == "halt"
    assert session.recoveries == []        # zero failures, ever
    [patch] = follower.pool.patches()
    assert patch.validated
    assert patch.trigger_count > 0         # prevented, not absent


def test_trigger_counts_aggregate_in_store(store_path):
    program = compile_program(OVERFLOW_SERVER, "srv")
    leader = FirstAidRuntime(program, input_tokens=workload(1),
                             config=config(store_path))
    leader.run()
    leader.close()
    leader_triggers = max(
        int(p.get("trigger_count", 0))
        for p in leader.store.load().patches.values())

    follower = FirstAidRuntime(program, input_tokens=workload(3),
                               config=config(store_path))
    follower.run()
    follower.close()
    store_triggers = max(
        int(p.get("trigger_count", 0))
        for p in follower.store.load().patches.values())
    # the follower triggered the patch more (longer workload) and its
    # session-exit publish pushed the larger count into the store
    assert store_triggers >= leader_triggers
    assert store_triggers == max(p.trigger_count
                                 for p in follower.pool.patches())


def test_midrun_refresh_absorbs_peer_publish(store_path):
    """A follower that started before the publish picks the patch up
    at a checkpoint boundary and never fails."""
    program = compile_program(OVERFLOW_SERVER, "srv")
    # long benign prelude: trigger arrives far beyond the first slice
    follower = FirstAidRuntime(
        program, input_tokens=workload(1, prelude=1200),
        config=config(store_path, store_refresh_boundaries=1))
    first = follower.run(max_steps=2 * follower.manager.interval)
    assert first.reason == "budget"
    assert len(follower.pool) == 0

    leader = FirstAidRuntime(program, input_tokens=workload(1),
                             config=config(store_path))
    leader.run()
    leader.close()

    session = follower.run()
    follower.close()
    assert session.reason == "halt"
    assert session.recoveries == []
    [patch] = follower.pool.patches()
    assert patch.trigger_count > 0
    assert any(e.kind == "store.refresh" for e in follower.events)


def test_failed_validation_retracts_fleet_wide(store_path):
    """When validation rejects a patch, peers holding it drop it on
    their next sync instead of keeping a patch one process disproved."""
    program = compile_program(OVERFLOW_SERVER, "srv")
    leader = FirstAidRuntime(program, input_tokens=workload(1),
                             config=config(store_path))
    leader.run()
    leader.close()
    [patch] = leader.pool.patches()

    # a peer that already absorbed the patch
    peer_pool = PatchPool("srv")
    store = SharedPatchStore(store_path, "srv")
    store.sync_into(peer_pool)
    assert len(peer_pool) == 1

    # validation elsewhere proves it inconsistent -> retraction
    leader.fleet.retract([patch])
    state = store.load()
    assert state.patches == {}
    assert patch.key in state.retracted

    changed, _ = store.sync_into(peer_pool)
    assert changed
    assert len(peer_pool) == 0


@pytest.mark.parametrize("op", ["publish", "retract"])
def test_store_error_does_not_crash_recovery(store_path, monkeypatch, op):
    """A broken store must never take down the recovery path: each
    store mutation degrades to a ``store.error`` event naming it.  The
    retract case needs a failed validation, so it arms a flaky one."""
    from repro.chaos.faults import ChaosPlan
    from repro.errors import StoreLockTimeout

    chaos = None
    if op == "retract":
        chaos = ChaosPlan()
        chaos.arm("validation_flaky")
    program = compile_program(OVERFLOW_SERVER, "srv")
    runtime = FirstAidRuntime(program, input_tokens=workload(1),
                              config=config(store_path, chaos=chaos))

    def broken(*args, **kwargs):
        raise StoreLockTimeout("disk on fire")

    monkeypatch.setattr(runtime.store, op, broken)
    session = runtime.run()
    runtime.close()
    assert session.reason == "halt"
    assert session.survived_all
    assert len(session.recoveries) == 1
    kinds = [e.kind for e in runtime.events]
    errors = [e for e in runtime.events if e.kind == "store.error"]
    assert errors and {e.data["op"] for e in errors} == {op}
    if op == "retract":
        assert len(errors) == 1
        assert kinds.index("validation.done") \
            < kinds.index("store.error") \
            < kinds.index("validation.failed")


def test_corrupt_store_at_startup_starts_fresh(store_path):
    with open(store_path, "w") as fh:
        fh.write('{"format": "first-aid-patch-store", "ver')
    program = compile_program(OVERFLOW_SERVER, "srv")
    runtime = FirstAidRuntime(program, input_tokens=workload(1),
                              config=config(store_path))
    session = runtime.run()
    runtime.close()
    assert session.survived_all
    assert runtime.store.quarantined >= 1
    # and the recovered-from-scratch store now has the patch
    assert len(runtime.store.load().validated_keys()) == 1


def test_fault_storm_harness_reduced():
    import tempfile, os
    from repro.bench.fleet import run_fault_storm
    with tempfile.TemporaryDirectory() as tmp:
        result = run_fault_storm(
            os.path.join(tmp, "storm.json"), faults=12, seed=3)
    assert result.gate_passed
    assert result.validated_lost == 0
    assert sum(result.faults_fired.values()) == 12
