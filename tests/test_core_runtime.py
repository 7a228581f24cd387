"""FirstAidRuntime end-to-end behaviour: survival, prevention,
nondeterministic handling, monitors, and the config surface."""

import dataclasses
import inspect

import pytest

from repro.core.bugtypes import BugType
from repro.core.diagnosis import Verdict
from repro.core.runtime import FirstAidConfig, FirstAidRuntime
from repro.lang import compile_program
from repro.monitors import (
    AssertionMonitor,
    ExceptionMonitor,
    HeapCorruptionMonitor,
    default_monitors,
)

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


def overflow_workload(triggers=2, spacing=60):
    tokens = [8] * 20
    for _ in range(triggers):
        tokens += [64] + [8] * spacing
    return tokens + [0]


def small_config(**kw):
    defaults = dict(checkpoint_interval=2000, validate=True)
    defaults.update(kw)
    return FirstAidConfig(**defaults)


def test_survives_and_prevents():
    program = compile_program(OVERFLOW_SERVER, "srv")
    runtime = FirstAidRuntime(program,
                              input_tokens=overflow_workload(3),
                              config=small_config())
    session = runtime.run()
    assert session.reason == "halt"
    assert len(session.recoveries) == 1       # bug never strikes twice
    assert session.survived_all
    rec = session.recoveries[0]
    assert rec.diagnosis.verdict is Verdict.PATCHED
    assert rec.validation.consistent
    assert rec.report is not None


def test_recovery_record_fields():
    program = compile_program(OVERFLOW_SERVER, "srv")
    runtime = FirstAidRuntime(program,
                              input_tokens=overflow_workload(1),
                              config=small_config())
    session = runtime.run()
    rec = session.recoveries[0]
    assert rec.recovery_time_ns > 0
    assert rec.validation.time_ns > 0
    assert rec.diagnosis.rollbacks >= 3
    assert rec.succeeded


def test_events_trace_the_lifecycle():
    program = compile_program(OVERFLOW_SERVER, "srv")
    runtime = FirstAidRuntime(program,
                              input_tokens=overflow_workload(1),
                              config=small_config())
    runtime.run()
    for kind in ("checkpoint", "failure.detected", "diagnosis.start",
                 "diagnosis.done", "recovery.done", "validation.done"):
        assert runtime.events.of_kind(kind), f"missing {kind} events"


def test_budget_stops_cleanly():
    program = compile_program(OVERFLOW_SERVER, "srv")
    runtime = FirstAidRuntime(program,
                              input_tokens=[8] * 10_000 + [0],
                              config=small_config())
    session = runtime.run(max_steps=5_000)
    assert session.reason == "budget"
    assert runtime.process.instr_count >= 5_000


def test_non_patchable_bug_kills_session_without_supervisor():
    source = """
    int main() {
        int n = 0;
        while (1) {
            int op = input();
            if (op == 0) { halt(); }
            n = n + 1;
            if (op == 5) { assert(0); }
            output(1);
        }
    }
    """
    program = compile_program(source, "sem")
    runtime = FirstAidRuntime(program, input_tokens=[1, 1, 5, 1, 0],
                              config=small_config(supervisor=False))
    session = runtime.run()
    assert session.reason == "died"
    assert not session.survived_all
    assert session.recoveries[0].diagnosis.verdict is \
        Verdict.NON_PATCHABLE
    # The dead end is no longer silent: a terminal event records the
    # verdict and (with the supervisor off) the implicit rung-1 trail.
    gave_up = [e for e in runtime.events if e.kind == "recovery.gave_up"]
    assert len(gave_up) == 1
    assert gave_up[0].data["verdict"] == "non-patchable"
    assert gave_up[0].data["rungs"] == [1]


def test_validation_can_be_disabled():
    program = compile_program(OVERFLOW_SERVER, "srv")
    runtime = FirstAidRuntime(program,
                              input_tokens=overflow_workload(1),
                              config=small_config(validate=False))
    session = runtime.run()
    rec = session.recoveries[0]
    assert rec.succeeded
    assert rec.validation is None
    assert rec.report is not None   # report still generated


def test_uir_patch_changes_semantics_documented():
    """A zero-fill patch makes the uninit read deterministic zeros --
    the program follows the 'programmer intended zeros' assumption."""
    source = """
    int main() {
        while (1) {
            int op = input();
            if (op == 0) { halt(); }
            if (op == 1) {
                int junk = malloc(56);
                store(junk, 9);
                store(junk, 8, 777);
                free(junk);
            }
            if (op == 2) {
                int st = malloc(56);
                store(st, 16, 1);
                if (load(st) != 0) {
                    int p = load(st, 8);
                    store(p, 1);
                }
                free(st);
            }
            output(1);
        }
    }
    """
    program = compile_program(source, "uir")
    tokens = [2] * 6 + [1, 2] + [2] * 10 + [1, 2] + [2] * 5 + [0]
    runtime = FirstAidRuntime(program, input_tokens=tokens,
                              config=small_config())
    session = runtime.run()
    assert session.reason == "halt"
    assert len(session.recoveries) == 1
    rec = session.recoveries[0]
    assert rec.diagnosis.bug_types == [BugType.UNINIT_READ]


def test_config_surface_is_pinned():
    """A new knob should retire an old one: adding a config field or a
    constructor argument has to edit these lists."""
    assert [f.name for f in dataclasses.fields(FirstAidConfig)] == [
        "checkpoint_interval", "validate",
        "quarantine_threshold", "max_patch_memory", "store_path",
        "store_refresh_boundaries", "process_label", "health_faults",
        "entropy_seed", "workers", "telemetry", "max_events",
        "supervisor", "max_rungs", "recovery_budget_ns", "max_restarts",
        "restart_boundaries", "chaos", "worker_timeout_s", "vm_tier",
        "search_policy", "rollout", "canary_fraction", "sampling_rate",
    ]
    params = inspect.signature(FirstAidRuntime.__init__).parameters
    assert list(params) == ["self", "program", "input_tokens", "config"]


class TestMonitors:
    def test_default_set(self):
        names = {m.name for m in default_monitors()}
        assert names == {"exception", "assertion", "heap-corruption",
                         "sampled-detection"}

    def test_monitor_specificity(self):
        from repro.errors import AssertionFailure, SegmentationFault
        from repro.vm.machine import RunReason, RunResult

        class FakeProcess:
            instr_count = 5

            class clock:
                now_ns = 7
        seg = RunResult(RunReason.FAULT, SegmentationFault("x"))
        assert ExceptionMonitor().check(seg, FakeProcess()) is not None
        assert AssertionMonitor().check(seg, FakeProcess()) is None
        asrt = RunResult(RunReason.FAULT, AssertionFailure("y"))
        assert AssertionMonitor().check(asrt, FakeProcess()) is not None
        assert HeapCorruptionMonitor().check(asrt, FakeProcess()) is None

    def test_clean_result_not_flagged(self):
        from repro.vm.machine import RunReason, RunResult
        ok = RunResult(RunReason.HALT)
        for monitor in default_monitors():
            assert monitor.check(ok, None) is None
