"""Cross-layer chaos harness: the FaultPlan protocol and every
injection point (checkpoint restore, diagnosis probes, workers,
monitors, validation)."""

import pytest

from repro.chaos import ChaosError, ChaosPlan, FaultPlan
from repro.checkpoint.manager import CheckpointManager
from repro.core.runtime import FirstAidConfig, FirstAidRuntime
from repro.errors import CheckpointError
from repro.lang import compile_program
from repro.parallel.executor import ForkExecutor
from repro.parallel.tasks import run_task
from repro.vm.machine import RunReason
from tests.conftest import make_process
from tests.test_core_runtime import (
    OVERFLOW_SERVER,
    overflow_workload,
    small_config,
)
from tests.test_parallel_exec import overflow_failure, probe_task


class TestFaultPlanProtocol:
    def test_arm_take_fired(self):
        plan = ChaosPlan()
        plan.arm("probe_raise", 2)
        assert plan.pending("probe_raise") == 2
        assert plan.take("probe_raise")
        assert plan.take("probe_raise")
        assert not plan.take("probe_raise")
        assert plan.fired["probe_raise"] == 2
        assert plan.pending("probe_raise") == 0

    def test_unknown_kind_rejected(self):
        plan = ChaosPlan()
        with pytest.raises(ValueError):
            plan.arm("torn_write")  # a store kind, not a chaos kind

    def test_unarmed_kind_never_fires(self):
        plan = ChaosPlan()
        assert not plan.take("checkpoint_missing")
        assert plan.total_fired() == 0

    def test_store_plan_shares_the_protocol(self):
        from repro.store.faults import FaultPlan as StorePlan
        plan = StorePlan()
        assert isinstance(plan, FaultPlan)
        plan.arm("torn_write")
        assert plan.take("torn_write")
        assert plan.total_pending() == 0


class TestCheckpointInjection:
    def _checkpointed(self, plan):
        process = make_process(OVERFLOW_SERVER,
                               tokens=overflow_workload(0), name="chk")
        manager = CheckpointManager(process, interval=2000,
                                    adaptive=False, chaos=plan)
        result = manager.run()
        assert result.reason is RunReason.HALT
        assert len(manager.checkpoints) >= 2
        return process, manager

    def test_missing_checkpoint_raises(self):
        plan = ChaosPlan()
        process, manager = self._checkpointed(plan)
        plan.arm("checkpoint_missing")
        with pytest.raises(CheckpointError):
            manager.rollback_to(manager.checkpoints[0])
        assert plan.fired["checkpoint_missing"] == 1
        assert any(e.kind == "chaos.checkpoint_missing"
                   for e in manager.events)
        # One-shot: the next rollback works.
        manager.rollback_to(manager.checkpoints[0])

    def test_corrupt_checkpoint_scribbles_a_page(self):
        plan = ChaosPlan()
        process, manager = self._checkpointed(plan)
        # Pick a checkpoint that actually maps pages (the first one,
        # taken before the program allocates, can be pageless).
        target = next(c for c in manager.checkpoints if c.pages)
        before = list(target.pages)
        others = {c.index: c.materialize().memory
                  for c in manager.checkpoints if c is not target}
        plan.arm("checkpoint_corrupt")
        manager.rollback_to(target)
        assert plan.fired["checkpoint_corrupt"] == 1
        corrupt = [i for i, payload in enumerate(before)
                   if target.pages[i] != payload]
        assert len(corrupt) == 1
        assert set(target.pages[corrupt[0]]) == {0xA5}
        # the restore reached the heap, and no other table changed
        assert process.mem.snapshot()[0] == b"".join(target.pages)
        assert others == {c.index: c.materialize().memory
                          for c in manager.checkpoints if c is not target}
        assert any(e.kind == "chaos.checkpoint_corrupt"
                   for e in manager.events)


class TestProbeInjection:
    def test_raise_marker_raises_in_process(self):
        process, manager, failure = overflow_failure(name="chaos-raise")
        checkpoint = manager.checkpoints[-1]
        task = probe_task(process, checkpoint,
                          failure.instr_count + 2000)
        task.raise_marker = True
        with pytest.raises(ChaosError):
            run_task(process.program, task)

    def test_hung_worker_is_rescued_by_the_deadline(self):
        process, manager, failure = overflow_failure(name="chaos-hang")
        checkpoint = manager.checkpoints[-1]
        window_end = failure.instr_count + 2000
        clean = probe_task(process, checkpoint, window_end)
        hung = probe_task(process, checkpoint, window_end)
        hung.hang_marker = True
        executor = ForkExecutor(2, process.program,
                                task_timeout_s=0.3)
        try:
            batch = executor.submit([hung, clean])
            out = batch.result(0)
            # The deadline fired and the task re-ran in-process, where
            # the marker is inert -- same outcome a healthy worker
            # would have produced.
            assert executor.worker_timeouts == 1
            reference = run_task(process.program, clean)
            assert out.passed == reference.passed
            assert out.time_ns == reference.time_ns
            assert batch.result(1).passed == reference.passed
        finally:
            executor.close()


class TestRuntimeInjection:
    def test_monitor_miss_without_supervisor_dies_silently(self):
        plan = ChaosPlan()
        plan.arm("monitor_miss")
        program = compile_program(OVERFLOW_SERVER, "miss")
        runtime = FirstAidRuntime(
            program, input_tokens=overflow_workload(1),
            config=small_config(supervisor=False, chaos=plan))
        session = runtime.run()
        assert session.reason == "died"
        assert session.recoveries == []
        assert plan.fired["monitor_miss"] == 1
        assert any(e.kind == "chaos.monitor_miss"
                   for e in runtime.events)

    def test_monitor_miss_with_supervisor_recovers_unclaimed(self):
        plan = ChaosPlan()
        plan.arm("monitor_miss")
        program = compile_program(OVERFLOW_SERVER, "miss2")
        runtime = FirstAidRuntime(
            program, input_tokens=overflow_workload(1),
            config=small_config(chaos=plan))
        session = runtime.run()
        assert session.reason == "halt"
        assert session.survived_all
        assert len(session.recoveries) == 1
        assert session.recoveries[0].failure.monitor == "unclaimed"
        assert any(e.kind == "failure.unclaimed"
                   for e in runtime.events)

    def test_validation_flake_retracts_instead_of_crashing(self):
        plan = ChaosPlan()
        plan.arm("validation_flaky")
        program = compile_program(OVERFLOW_SERVER, "flaky")
        runtime = FirstAidRuntime(
            program, input_tokens=overflow_workload(1),
            config=small_config(chaos=plan))
        session = runtime.run()
        assert session.survived_all
        record = session.recoveries[0]
        assert record.succeeded
        assert record.validation is not None
        assert not record.validation.consistent
        # The flaky re-failure read as an inconsistent patch: removed
        # from the pool, never installed as trusted.
        assert len(runtime.pool) == 0
        assert any(e.kind == "chaos.validation_flaky"
                   for e in runtime.events)


class TestHealthBeaconFaults:
    """Health-channel chaos: corrupt/torn/stale beacons must degrade
    to health.error events, never touch recovery, and still leave the
    session visible in the fleet report."""

    def test_health_fault_plan_shares_the_protocol(self):
        from repro.obs.health import HealthFaultPlan
        plan = HealthFaultPlan()
        plan.arm("stale_beacon", 2)
        assert plan.take("stale_beacon")
        assert plan.take("stale_beacon")
        assert not plan.take("stale_beacon")
        assert plan.fired["stale_beacon"] == 2
        with pytest.raises(ValueError):
            plan.arm("probe_raise")  # a chaos kind, not a health kind

    def test_session_survives_health_faults_and_stays_visible(
            self, tmp_path):
        from repro.chaos.storm import run_chaos_session
        digest = run_chaos_session(
            "bc", {"validation_flaky": 1},
            store_path=str(tmp_path / "store.json"),
            process_label="chaos-0",
            health_arm={"torn_write": 1, "corrupt": 1,
                        "stale_beacon": 1})
        assert digest.unhandled is None
        assert digest.survived
        assert digest.health_errors >= 1     # the faults degraded...
        assert digest.beacon_visible is True  # ...but never blinded us

    def test_corrupt_health_file_never_reaches_recovery(self, tmp_path):
        from repro.obs.health import HealthFaultPlan, aggregate_store
        store = str(tmp_path / "store.json")
        plan = HealthFaultPlan()
        plan.arm("corrupt", 3)
        program = compile_program(OVERFLOW_SERVER, "hchaos")
        runtime = FirstAidRuntime(
            program, input_tokens=overflow_workload(1),
            config=small_config(store_path=store,
                                process_label="h-0",
                                health_faults=plan))
        session = runtime.run()
        runtime.close()
        assert session.reason == "halt"
        assert session.survived_all
        report = aggregate_store(store)
        assert [r["process_id"] for r in report.processes] == ["h-0"]
        assert report.processes[0]["failures"] == 1
