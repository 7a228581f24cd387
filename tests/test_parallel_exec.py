"""Parallel recovery engine: backends, task protocol, equivalence,
and failure bounding (DESIGN.md §8)."""

import gc
import multiprocessing as mp
import pickle
import time

import pytest

from repro.checkpoint.manager import CheckpointManager
from repro.core.changes import all_preventive_policy
from repro.core.diagnosis import DiagnosticEngine, Verdict
from repro.core.patches import PatchPool
from repro.core.runtime import FirstAidConfig, FirstAidRuntime
from repro.lang import compile_program
from repro.monitors import default_monitors
from repro.obs.telemetry import Telemetry
from repro.obs.tracing import phase_breakdown
from repro.parallel.executor import (
    ForkExecutor,
    SerialExecutor,
    make_executor,
    schedule_ns,
)
from repro.parallel.tasks import ReexecTask, encode_state, run_task
from repro.util.callsite import CallSite
from repro.vm.machine import RunReason
from tests.conftest import make_process, site

INTERVAL = 2000

OVERFLOW_APP = """
int target = 0;
int victim = 0;
int handle(int n) {
    int buf = malloc(32);
    int i = 0;
    while (i < n) { store1(buf + i, 65); i = i + 1; }
    free(buf);
    return 0;
}
int use() {
    int p = load(victim);
    store(p, load(p) + 1);
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
        use();
        output(1);
    }
}
"""


def overflow_failure(name="par"):
    """A process run into the overflow failure, plus its manager."""
    tokens = [8] * 10 + [64] + [8] * 10 + [0]
    process = make_process(OVERFLOW_APP, tokens=tokens, name=name)
    manager = CheckpointManager(process, interval=INTERVAL,
                                adaptive=False)
    result = manager.run()
    assert result.reason is RunReason.FAULT
    failure = None
    for monitor in default_monitors():
        failure = monitor.check(result, process)
        if failure:
            break
    assert failure is not None
    return process, manager, failure


def probe_task(process, checkpoint, window_end, salt=1234,
               fail_marker=False):
    state = encode_state(checkpoint.materialize())
    return ReexecTask(
        kind="probe",
        label=f"test:cp{checkpoint.index}",
        state=state,
        journal=process.input.journal_slice(0),
        output_prefix=process.output.entries()[:state[0][5]],
        window_end=window_end,
        costs=process.costs.replay_model(),
        heap_limit=process.mem.limit,
        quarantine_threshold=process.extension.quarantine.threshold_bytes,
        patch_memory_limit=process.extension.patch_memory_limit,
        salt=salt,
        policy=all_preventive_policy(),
        trace_mm=True,
        fail_marker=fail_marker)


def outcome_key(out):
    """Every observable of a task outcome, rendered to bytes-stable
    form (mm trace entries render address/op/site identically across
    processes)."""
    hits = (len(out.manifestations.overflow_hits),
            len(out.manifestations.dangling_write_hits),
            len(out.manifestations.double_free_events))
    return (out.label, out.kind, out.result.reason.name, out.passed,
            out.time_ns, hits,
            tuple(e.render() for e in out.mm_trace))


# ---------------------------------------------------------------------
# schedule_ns
# ---------------------------------------------------------------------

class TestScheduleNs:
    def test_one_worker_is_the_serial_sum(self):
        assert schedule_ns([5, 7, 9], 1) == 21
        assert schedule_ns([5, 7, 9], 0) == 21

    def test_round_robin_lanes_max(self):
        # lanes: [5+9, 7] -> 14
        assert schedule_ns([5, 7, 9], 2) == 14
        # one lane each -> the longest task
        assert schedule_ns([5, 7, 9], 3) == 9
        assert schedule_ns([5, 7, 9], 8) == 9

    def test_empty_batch(self):
        assert schedule_ns([], 1) == 0
        assert schedule_ns([], 4) == 0


# ---------------------------------------------------------------------
# call-site interning (hash-consing)
# ---------------------------------------------------------------------

class TestCallSiteIntern:
    def test_intern_returns_the_shared_instance(self):
        a = CallSite.intern((("f", 3), ("main", 9)))
        b = CallSite.intern((("f", 3), ("main", 9)))
        assert a is b

    def test_pickle_round_trip_deduplicates(self):
        a = CallSite.intern((("g", 11), ("main", 2)))
        again = pickle.loads(pickle.dumps(a))
        assert again is a

    def test_intern_matches_plain_construction(self):
        plain = site(("h", 5), ("main", 1))
        interned = CallSite.intern((("h", 5), ("main", 1)))
        assert plain == interned and hash(plain) == hash(interned)


# ---------------------------------------------------------------------
# task protocol: pickle round-trip into a fresh process (satellite:
# checkpoint + policy travel; the re-executed event stream is
# byte-identical wherever it runs)
# ---------------------------------------------------------------------

class TestTaskRoundTrip:
    def test_pickled_task_runs_identically_in_process(self):
        process, manager, failure = overflow_failure()
        checkpoint = manager.checkpoints[0]
        window_end = failure.instr_count + INTERVAL
        task = probe_task(process, checkpoint, window_end)
        direct = run_task(process.program, task)
        revived = pickle.loads(pickle.dumps(task))
        replayed = run_task(process.program, revived)
        assert outcome_key(replayed) == outcome_key(direct)
        assert direct.mm_trace, "probe observed no memory operations"

    def test_fork_worker_reproduces_the_event_stream(self):
        process, manager, failure = overflow_failure()
        checkpoint = manager.checkpoints[0]
        window_end = failure.instr_count + INTERVAL
        task = probe_task(process, checkpoint, window_end)
        direct = run_task(process.program, task)
        executor = ForkExecutor(2, process.program)
        try:
            batch = executor.submit([task])
            remote = batch.result(0)
        finally:
            executor.close()
        assert outcome_key(remote) == outcome_key(direct)
        assert executor.worker_failures == 0


# ---------------------------------------------------------------------
# backend equivalence
# ---------------------------------------------------------------------

def run_session(workers):
    from repro.bench.harness import run_app_session
    return run_app_session("bc", workers=workers)


class TestBackendEquivalence:
    def test_diagnosis_identical_serial_vs_serial_executor(self):
        keys = []
        for executor_factory in (lambda p: None,
                                 lambda p: SerialExecutor(p)):
            process, manager, failure = overflow_failure()
            pool = PatchPool("par")
            engine = DiagnosticEngine(
                process, manager, pool,
                executor=executor_factory(process.program))
            diagnosis = engine.diagnose(failure)
            assert diagnosis.verdict is Verdict.PATCHED
            keys.append((
                diagnosis.verdict.name,
                tuple(b.value for b in diagnosis.bug_types),
                tuple(p.describe() for p in diagnosis.patches),
                diagnosis.rollbacks,
                tuple(e.render(redact_time=True)
                      for e in engine.events.of_kind("diagnosis"))))
        assert keys[0] == keys[1]

    def test_full_session_identical_across_backends(self):
        serial = run_session(workers=1)
        fork = run_session(workers=2)
        assert fork.equivalence_key() == serial.equivalence_key()
        assert fork.worker_failures == 0
        # parallelism must not make the simulated clock worse
        for i, ns in enumerate(fork.recovery_time_ns):
            assert ns <= serial.recovery_time_ns[i]
        for i, ns in enumerate(fork.validation_time_ns):
            assert ns <= serial.validation_time_ns[i]

    def test_make_executor_selects_backend(self):
        program = compile_program(OVERFLOW_APP, "sel")
        assert make_executor(1, program) is None
        assert make_executor(0, program) is None
        ex = make_executor(3, program)
        try:
            assert isinstance(ex, ForkExecutor) and ex.workers == 3
        finally:
            ex.close()


# ---------------------------------------------------------------------
# failure bounding: dead workers rescue in-process, diagnosis survives
# ---------------------------------------------------------------------

class TestWorkerDeath:
    def test_killed_worker_task_is_rescued(self):
        process, manager, failure = overflow_failure()
        checkpoint = manager.checkpoints[0]
        window_end = failure.instr_count + INTERVAL
        healthy = probe_task(process, checkpoint, window_end)
        doomed = probe_task(process, checkpoint, window_end,
                            fail_marker=True)
        expected = run_task(process.program,
                            pickle.loads(pickle.dumps(doomed)))
        telemetry = Telemetry()
        executor = ForkExecutor(2, process.program, telemetry)
        try:
            batch = executor.submit([doomed, healthy])
            rescued = batch.result(0)
            other = batch.result(1)
        finally:
            executor.close()
        # fail_marker only fires inside a worker, so the rescue path
        # runs the identical task to completion in-process
        key = outcome_key(rescued)
        assert key[1:] == outcome_key(expected)[1:]
        assert other.passed is not None
        assert executor.worker_failures >= 1
        assert telemetry.metrics.value("parallel.worker_failures") >= 1

    def test_diagnosis_survives_universal_worker_death(self, monkeypatch):
        # Serial reference first.
        process, manager, failure = overflow_failure()
        engine = DiagnosticEngine(process, manager, PatchPool("par"))
        reference = engine.diagnose(failure)

        # Same diagnosis with every dispatched probe marked to kill its
        # worker: all tasks fall back in-process, nothing is lost.
        process2, manager2, failure2 = overflow_failure()
        executor = ForkExecutor(2, process2.program)
        engine2 = DiagnosticEngine(process2, manager2, PatchPool("par"),
                                   executor=executor)
        original = engine2._build_probe_task

        def doomed_build(req, salt, window_end):
            task = original(req, salt, window_end)
            task.fail_marker = True
            return task

        monkeypatch.setattr(engine2, "_build_probe_task", doomed_build)
        try:
            diagnosis = engine2.diagnose(failure2)
        finally:
            executor.close()
        assert executor.worker_failures >= 1
        assert diagnosis.verdict is reference.verdict
        assert [b.value for b in diagnosis.bug_types] == \
            [b.value for b in reference.bug_types]
        assert [p.describe() for p in diagnosis.patches] == \
            [p.describe() for p in reference.patches]

    def test_interrupt_during_pool_start_propagates(self, monkeypatch):
        """A broken pool falls back in-process; a Ctrl-C while the pool
        starts reaches the caller instead of being absorbed."""
        process, manager, failure = overflow_failure()
        task = probe_task(process, manager.checkpoints[0],
                          failure.instr_count + INTERVAL)
        executor = ForkExecutor(2, process.program)

        def start(exc):
            def _ensure_pool():
                raise exc
            return _ensure_pool

        try:
            monkeypatch.setattr(executor, "_ensure_pool",
                                start(RuntimeError("pool start failed")))
            batch = executor.submit([task])
            assert outcome_key(batch.result(0)) == \
                outcome_key(run_task(process.program, task))
            assert executor.worker_failures == 1
            monkeypatch.setattr(executor, "_ensure_pool",
                                start(KeyboardInterrupt()))
            with pytest.raises(KeyboardInterrupt):
                executor.submit([task])
        finally:
            executor.close()

    def test_dropped_executor_stops_its_workers(self):
        """An executor dropped without close() leaves no workers
        behind: once the unclosed pool is collected, its manager thread
        shuts them down."""
        process, manager, failure = overflow_failure()
        task = probe_task(process, manager.checkpoints[0],
                          failure.instr_count + INTERVAL)
        before = set(mp.active_children())
        executor = ForkExecutor(2, process.program)
        assert executor.submit([task]).result(0).passed is not None
        started = [child for child in mp.active_children()
                   if child not in before]
        assert started
        del executor
        gc.collect()
        deadline = time.monotonic() + 10.0
        while any(child.is_alive() for child in started):
            assert time.monotonic() < deadline, "workers outlived the pool"
            time.sleep(0.05)


# ---------------------------------------------------------------------
# telemetry: the parallel engine keeps the span accounting exact
# ---------------------------------------------------------------------

SERVER = OVERFLOW_APP  # one failure, one recovery


def server_workload(triggers=1, spacing=60):
    tokens = [8] * 20
    for _ in range(triggers):
        tokens += [64] + [8] * spacing
    return tokens + [0]


class TestParallelTelemetry:
    def test_phase_breakdown_partitions_with_workers(self):
        program = compile_program(SERVER, "ptel")
        runtime = FirstAidRuntime(
            program, input_tokens=server_workload(),
            config=FirstAidConfig(checkpoint_interval=2000,
                                  telemetry=True, workers=2))
        try:
            session = runtime.run()
        finally:
            runtime.close()
        assert session.survived_all and len(session.recoveries) == 1
        record = session.recoveries[0]
        recovery = runtime.telemetry.tracer.find_roots("recovery")[0]
        assert recovery.duration_ns == record.recovery_time_ns
        phases = phase_breakdown(recovery)
        total = (phases["rollback_ns"] + phases["reexec_ns"]
                 + phases["diagnosis_ns"] + phases["validation_ns"])
        assert total == phases["recovery_ns"] == record.recovery_time_ns
        assert phases["rollback_ns"] > 0
        assert phases["reexec_ns"] > 0

        metrics = runtime.telemetry.metrics
        assert metrics.value("parallel.batches") > 0
        assert metrics.value("parallel.tasks") > 0
        assert metrics.value("parallel.workers") == 2
        assert metrics.value("parallel.worker_failures") in (0, None) \
            or metrics.value("parallel.worker_failures") == 0
