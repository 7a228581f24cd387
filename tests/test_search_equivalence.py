"""Search-policy equivalence: the fixed and bandit schedules must
produce byte-identical diagnoses (the hard correctness bar).

The digest compared here is everything the diagnosis *concluded* --
verdict, bug types, chosen checkpoint, evidence sites and details,
patch points -- and deliberately excludes how much work it took
(rollbacks, probe counts): doing less work for the same answer is the
point.  A hypothesis property test sweeps randomized workload shapes
across the crafted bug apps; a repeated-run test pins full
determinism of the speculative schedule; the trace-guided phase 2b is
checked on apache and m4, where it is accepted, and on crafted apps
whose confirmations deviate, where it falls back to the bisection;
and a session test checks that at two workers ``bandit`` executes at
most the fixed schedule minus the skipped probe."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.registry import get_app
from repro.bench.harness import run_app_session, run_first_aid, \
    spaced_workload
from repro.checkpoint.manager import CheckpointManager
from repro.core.diagnosis import DiagnosticEngine, Verdict
from repro.core.patches import PatchPool
from repro.core.runtime import FirstAidConfig
from repro.monitors import default_monitors
from repro.parallel.executor import make_executor
from repro.vm.machine import RunReason
from tests.conftest import make_process
from tests.reference_machine import SIDES
from tests.test_core_diagnosis import (
    BENIGN_READ_APP,
    DANGLING_READ_APP,
    DANGLING_WRITE_APP,
    DOUBLE_FREE_APP,
    OVERFLOW_APP,
    PAIRED_READ_APP,
    UNINIT_APP,
)

INTERVAL = 2000

#: app -> (source, normal token, trigger, benign padding per side)
SHAPES = {
    "overflow": (OVERFLOW_APP, 8, [64], 10),
    "dangling_read": (DANGLING_READ_APP, 1, [1, 2, 3, 4], 5),
    "dangling_write": (DANGLING_WRITE_APP, 2, [1, 2, 3, 4], 6),
    "double_free": (DOUBLE_FREE_APP, 1, [2], 8),
    "uninit": (UNINIT_APP, 2, [1, 2], 6),
}


def shaped(app, prefix, suffix):
    """The app's trigger between ``prefix`` and ``suffix`` normal
    tokens, then the halt token."""
    _, normal, trigger, _ = SHAPES[app]
    return [normal] * prefix + trigger + [normal] * suffix + [0]


APPS = {app: (source, shaped(app, pad, pad))
        for app, (source, _, _, pad) in SHAPES.items()}


def run_engine(source, tokens, policy, workers=1, name="t"):
    """Run to the first failure and diagnose under one search policy:
    the engine (its live process and event log) and the diagnosis."""
    process = make_process(source, tokens=tokens, name=name)
    manager = CheckpointManager(process, interval=INTERVAL,
                                adaptive=False)
    result = manager.run()
    assert result.reason is RunReason.FAULT, f"no failure: {result}"
    failure = None
    for monitor in default_monitors():
        failure = monitor.check(result, process)
        if failure:
            break
    assert failure is not None
    pool = PatchPool(name)
    executor = make_executor(workers, process.program)
    engine = DiagnosticEngine(process, manager, pool,
                              max_checkpoint_search=8,
                              window_intervals=3,
                              executor=executor,
                              search_policy=policy)
    try:
        return engine, engine.diagnose(failure)
    finally:
        if executor is not None:
            executor.close()


def diagnose_with(source, tokens, policy, workers=1, name="t"):
    return run_engine(source, tokens, policy, workers, name)[1]


def digest(diagnosis):
    """The cross-policy identity: what was concluded, not what it
    cost."""
    return (
        diagnosis.verdict,
        tuple(diagnosis.bug_types),
        diagnosis.checkpoint.index if diagnosis.checkpoint else None,
        tuple((bt.value,
               tuple(s.render() for s in diagnosis.evidence[bt].sites),
               tuple(diagnosis.evidence[bt].details))
              for bt in diagnosis.bug_types),
        tuple((p.bug_type.value, p.point.render())
              for p in diagnosis.patches),
    )


# ---------------------------------------------------------------------
# crafted apps, every policy, serial + speculative backends
# ---------------------------------------------------------------------

@pytest.mark.parametrize("app", sorted(APPS))
def test_policies_agree_serial(app):
    source, tokens = APPS[app]
    base = diagnose_with(source, tokens, "fixed")
    assert base.verdict is Verdict.PATCHED
    diag = diagnose_with(source, tokens, "bandit")
    assert digest(diag) == digest(base), app


@pytest.mark.parametrize("app", ["overflow", "dangling_read"])
def test_policies_agree_speculative(app):
    source, tokens = APPS[app]
    base = diagnose_with(source, tokens, "fixed")
    for policy in ("fixed", "bandit"):
        diag = diagnose_with(source, tokens, policy, workers=2)
        assert digest(diag) == digest(base), (app, policy)


@pytest.mark.parametrize("app", sorted(APPS))
def test_pruned_consumes_strictly_fewer_probes(app):
    """First diagnosis, empty pool, deterministic program: the bandit
    policy's phase-1a skip alone guarantees a strict win."""
    source, tokens = APPS[app]
    fixed = diagnose_with(source, tokens, "fixed")
    bandit = diagnose_with(source, tokens, "bandit")
    assert (bandit.search_info["probes_consumed"]
            < fixed.search_info["probes_consumed"])
    assert bandit.search_info["probes_pruned"] == 1


# ---------------------------------------------------------------------
# hypothesis sweep: randomized workload shapes
# ---------------------------------------------------------------------

@given(app=st.sampled_from(sorted(APPS)),
       prefix=st.integers(min_value=0, max_value=12),
       suffix=st.integers(min_value=1, max_value=12))
@settings(max_examples=20, deadline=None)
def test_property_policies_agree(app, prefix, suffix):
    # keep the trigger, randomize the benign padding around it
    source = SHAPES[app][0]
    tokens = shaped(app, prefix, suffix)
    results = {}
    for policy in ("fixed", "bandit"):
        diag = diagnose_with(source, tokens, policy)
        results[policy] = digest(diag)
    assert results["fixed"] == results["bandit"]


# ---------------------------------------------------------------------
# determinism: repeated runs dispatch and consume the same probes
# ---------------------------------------------------------------------

def test_bandit_repeated_run_determinism():
    source, tokens = APPS["dangling_read"]
    runs = []
    for _ in range(2):
        diag = diagnose_with(source, tokens, "bandit", workers=2)
        runs.append((digest(diag),
                     diag.search_info["probes_executed"],
                     diag.search_info["probes_consumed"]))
    assert runs[0] == runs[1]


# ---------------------------------------------------------------------
# full sessions: backend and tier equivalence under bandit search
# ---------------------------------------------------------------------

@pytest.mark.parametrize("vm_tier", list(SIDES))
def test_session_backend_equivalence(vm_tier):
    with SIDES[vm_tier]():
        serial = run_app_session("bc", triggers=1,
                                 search_policy="bandit")
        forked = run_app_session("bc", triggers=1, workers=2,
                                 search_policy="bandit")
    assert serial.equivalence_key() == forked.equivalence_key()


def test_session_cross_policy_diagnosis_identity():
    """One diagnosis across {reference, compiled} x {fixed, bandit} x
    {1, 2 workers}: neither the VM tier, the search policy nor the
    backend may change what a production session concludes."""
    keys = set()
    for side in SIDES.values():
        with side():
            keys |= {run_app_session("bc", triggers=1, workers=w,
                                     search_policy=p).diagnosis_key()
                     for p in ("fixed", "bandit") for w in (1, 2)}
    assert len(keys) == 1


@pytest.mark.parametrize("app", ["cvs", "m4"])
def test_session_bandit_is_fixed_schedule_minus_skip(app):
    """At two workers ``bandit`` executes at most the fixed schedule's
    probes minus the ones its phase-1a skip pruned, and its simulated
    recovery is no slower.  cvs has no read-type bug, so there the
    bound is exact; m4's dangling read takes the guided phase 2b,
    which executes strictly fewer."""
    fixed = run_app_session(app, workers=2, search_policy="fixed")
    bandit = run_app_session(app, workers=2, search_policy="bandit")
    assert bandit.diagnosis_key() == fixed.diagnosis_key()
    assert bandit.recoveries == fixed.recoveries > 0
    for i in range(bandit.recoveries):
        bound = fixed.probes_executed[i] - bandit.probes_pruned[i]
        if app == "m4":
            assert bandit.probes_executed[i] < bound, i
        else:
            assert bandit.probes_executed[i] == bound, i
        assert bandit.recovery_time_ns[i] <= fixed.recovery_time_ns[i], i


# ---------------------------------------------------------------------
# trace-guided phase 2b: accepted on the real apps ...
# ---------------------------------------------------------------------

@pytest.mark.parametrize("app", ["apache", "m4"])
def test_guided_search_equals_the_paper_on_real_apps(app):
    """Per seed: ``bandit`` concludes what ``fixed`` does at one and
    two workers, runs the same session at both, and its guided phase
    2b consumes strictly fewer probes than the bisection, beyond the
    phase-1a skip."""
    for seed in (42, 7, 1000):
        runs = {(p, w): run_app_session(app, seed=seed, workers=w,
                                        search_policy=p)
                for p in ("fixed", "bandit") for w in (1, 2)}
        assert (runs["bandit", 1].equivalence_key()
                == runs["bandit", 2].equivalence_key()), seed
        for w in (1, 2):
            fixed, bandit = runs["fixed", w], runs["bandit", w]
            assert bandit.diagnosis_key() == fixed.diagnosis_key(), \
                (seed, w)
            assert bandit.recoveries == fixed.recoveries > 0
            for i in range(bandit.recoveries):
                assert (bandit.probes_consumed[i]
                        < fixed.probes_consumed[i]
                        - bandit.probes_pruned[i]), (seed, w, i)


def test_guided_search_turns_live_tracing_off():
    """At one worker the traced universe probe runs on the live
    process; tracing is off again once the diagnosis returns, and
    through the rest of a session."""
    engine, diag = run_engine(*APPS["dangling_read"], "bandit")
    assert diag.search_info["guided"] == "accepted"
    assert diag.search_info["traced_sites"] == 1
    assert engine.process.machine.trace_accesses is False
    assert engine.process.extension.watch is None
    app = get_app("m4")
    runtime, session, _ = run_first_aid(
        app, spaced_workload(app, 2, 42),
        config=FirstAidConfig(search_policy="bandit"))
    try:
        assert session.recoveries[0].diagnosis.search_info["guided"] \
            == "accepted"
        assert runtime.process.machine.trace_accesses is False
        assert runtime.process.extension.watch is None
    finally:
        runtime.close()


def test_guided_probe_keeps_the_flight_recording_tier_invariant():
    """With telemetry on, the traced universe probe runs on the live
    process under the flight recorder.  The compiled tier defers the
    trace charges of unwatched accesses and the oracle charges each
    one as it runs; both render the same report, timestamps
    included."""
    app = get_app("m4")
    renders = []
    for side in SIDES.values():
        with side():
            runtime, session, _ = run_first_aid(
                app, spaced_workload(app, 2, 42),
                config=FirstAidConfig(search_policy="bandit",
                                      telemetry=True))
        try:
            report = session.recoveries[0].report
            assert report.flight is not None
            renders.append(report.render())
        finally:
            runtime.close()
    assert renders[0] == renders[1]


# ---------------------------------------------------------------------
# ... and falling back to the bisection when a confirmation deviates
# ---------------------------------------------------------------------

#: app -> (source, tokens): each traces two dangling-read sites, and
#: exposing one of them alone passes.
FALLBACK_APPS = {
    "benign_read": (BENIGN_READ_APP,
                    [5] * 5 + [1, 2, 3, 4] + [5] * 5 + [0]),
    "paired_read": (PAIRED_READ_APP,
                    [1] * 5 + [1, 2, 3, 4] + [1] * 5 + [0]),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("app", sorted(FALLBACK_APPS))
def test_guided_fallback_reaches_the_paper(app, workers):
    source, tokens = FALLBACK_APPS[app]
    fixed = diagnose_with(source, tokens, "fixed", workers=workers)
    engine, bandit = run_engine(source, tokens, "bandit", workers=workers)
    assert fixed.verdict is Verdict.PATCHED
    assert bandit.search_info["guided"] == "fallback"
    assert bandit.search_info["traced_sites"] == 2
    assert digest(bandit) == digest(fixed)
    [event] = engine.events.of_kind("diagnosis.guided")
    assert event.data["outcome"] == "fallback"
    assert event.data["reason"] == "singleton passed"
    assert event.data["site"] in event.data["traced_sites"]


def test_guided_complement_catches_an_untraced_bug_site(monkeypatch):
    """The complement probe is the net for a bug site the trace
    missed: with the real bug's dangling reads hidden from the traced
    probe, exposing the untraced sites fails, and phase 2b falls back
    to the bisection."""
    universe_for = DiagnosticEngine._universe_for

    def hide_release(engine, *args, **kwargs):
        universe, outcome = universe_for(engine, *args, **kwargs)
        outcome.illegal_accesses = [
            access for access in outcome.illegal_accesses
            if access.site.frames[0][0] != "release"]
        return universe, outcome

    monkeypatch.setattr(DiagnosticEngine, "_universe_for", hide_release)
    source, tokens = FALLBACK_APPS["benign_read"]
    fixed = diagnose_with(source, tokens, "fixed")
    engine, bandit = run_engine(source, tokens, "bandit")
    [event] = engine.events.of_kind("diagnosis.guided")
    assert event.data["outcome"] == "fallback"
    assert event.data["reason"] == "complement failed"
    assert bandit.search_info["traced_sites"] == 1
    assert digest(bandit) == digest(fixed)


@pytest.mark.parametrize("workers", [1, 2])
def test_reachable_rand_never_traces(workers, monkeypatch):
    """With a reachable RAND the probes' outcomes depend on their
    salts, which the guided search would change: ``bandit`` keeps the
    untraced universe probe and the bisection."""
    traced = []
    dispatch = DiagnosticEngine._dispatch

    def spy(engine, reqs, window_end):
        traced.extend(req for req in reqs if req.trace)
        return dispatch(engine, reqs, window_end)

    monkeypatch.setattr(DiagnosticEngine, "_dispatch", spy)
    source, tokens = FALLBACK_APPS["benign_read"]
    source = source.replace("output(load(tmp));",
                            "output(load(tmp) + rand());")
    fixed = diagnose_with(source, tokens, "fixed", workers=workers)
    engine, bandit = run_engine(source, tokens, "bandit",
                                workers=workers)
    assert traced == []
    assert "guided" not in bandit.search_info
    assert not engine.events.of_kind("diagnosis.guided")
    assert digest(bandit) == digest(fixed)
