"""Search-policy equivalence: the fixed and bandit schedules must
produce byte-identical diagnoses (the hard correctness bar).

The digest compared here is everything the diagnosis *concluded* --
verdict, bug types, chosen checkpoint, evidence sites and details,
patch points -- and deliberately excludes how much work it took
(rollbacks, probe counts): doing less work for the same answer is the
point.  A hypothesis property test sweeps randomized workload shapes
across the crafted bug apps; a repeated-run test pins full
determinism of the speculative schedule, and a session test checks
that at two workers ``bandit`` runs the fixed schedule minus the
skipped probe."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.harness import run_app_session
from repro.checkpoint.manager import CheckpointManager
from repro.core.diagnosis import DiagnosticEngine, Verdict
from repro.core.patches import PatchPool
from repro.monitors import default_monitors
from repro.parallel.executor import make_executor
from repro.vm.machine import RunReason
from tests.conftest import make_process
from tests.test_core_diagnosis import (
    DANGLING_READ_APP,
    DANGLING_WRITE_APP,
    DOUBLE_FREE_APP,
    OVERFLOW_APP,
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


def diagnose_with(source, tokens, policy, workers=1, name="t"):
    """Run to the first failure and diagnose under one search
    policy."""
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
        return engine.diagnose(failure)
    finally:
        if executor is not None:
            executor.close()


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

@pytest.mark.parametrize("vm_tier", ["reference", "compiled"])
def test_session_backend_equivalence(vm_tier):
    serial = run_app_session("bc", triggers=1, vm_tier=vm_tier,
                             search_policy="bandit")
    forked = run_app_session("bc", triggers=1, workers=2,
                             vm_tier=vm_tier, search_policy="bandit")
    assert serial.equivalence_key() == forked.equivalence_key()


def test_session_cross_policy_diagnosis_identity():
    """One diagnosis across {reference, compiled} x {fixed, bandit} x
    {1, 2 workers}: neither the VM tier, the search policy nor the
    backend may change what a production session concludes."""
    keys = {run_app_session("bc", triggers=1, workers=w, vm_tier=tier,
                            search_policy=p).diagnosis_key()
            for tier in ("reference", "compiled")
            for p in ("fixed", "bandit")
            for w in (1, 2)}
    assert len(keys) == 1


@pytest.mark.parametrize("app", ["cvs", "m4"])
def test_session_bandit_is_fixed_schedule_minus_skip(app):
    """At two workers ``bandit`` speculates exactly as ``fixed`` does:
    per recovery it executes the fixed schedule's probes minus the
    ones its phase-1a skip pruned, and its simulated recovery is no
    slower."""
    fixed = run_app_session(app, workers=2, search_policy="fixed")
    bandit = run_app_session(app, workers=2, search_policy="bandit")
    assert bandit.diagnosis_key() == fixed.diagnosis_key()
    assert bandit.recoveries == fixed.recoveries > 0
    for i in range(bandit.recoveries):
        assert (bandit.probes_executed[i]
                == fixed.probes_executed[i] - bandit.probes_pruned[i]), i
        assert bandit.recovery_time_ns[i] <= fixed.recovery_time_ns[i], i
