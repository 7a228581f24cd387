"""Diagnostic-engine tests: each bug type diagnosed from a crafted
program, heap marking, nondeterministic and non-patchable verdicts."""

import pytest

from repro.checkpoint.manager import CheckpointManager
from repro.core.bugtypes import BugType
from repro.core.diagnosis import DiagnosticEngine, Verdict
from repro.core.patches import PatchPool
from repro.heap.extension import ExtensionMode
from repro.monitors import default_monitors
from repro.vm.machine import RunReason
from tests.conftest import make_process

INTERVAL = 2000


def diagnose(source, tokens, name="t", interval=INTERVAL,
             max_search=8):
    """Run under checkpointing until the first failure, then diagnose."""
    process = make_process(source, tokens=tokens, name=name)
    manager = CheckpointManager(process, interval=interval,
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
    engine = DiagnosticEngine(process, manager, pool,
                              max_checkpoint_search=max_search,
                              window_intervals=3)
    return engine.diagnose(failure), pool


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


def test_buffer_overflow_diagnosed():
    tokens = [8] * 10 + [64] + [8] * 10 + [0]
    diagnosis, pool = diagnose(OVERFLOW_APP, tokens)
    assert diagnosis.verdict is Verdict.PATCHED
    assert diagnosis.bug_types == [BugType.BUFFER_OVERFLOW]
    assert len(diagnosis.patches) == 1
    patch = diagnosis.patches[0]
    assert patch.apply_at == "alloc"
    assert patch.point.frames[0][0] == "handle"
    # evidence names the overflowed object
    evidence = diagnosis.evidence[BugType.BUFFER_OVERFLOW]
    assert evidence.sites == [patch.point]


DANGLING_READ_APP = """
int stash = 0;
int anchor = 0;
int release(int p) { free(p); return 0; }
int main() {
    anchor = malloc(64);
    store(anchor, 1);
    while (1) {
        int op = input();
        if (op == 0) { halt(); }
        if (op == 1) {
            int obj = malloc(40);
            store(obj, anchor);
            stash = obj;
        }
        if (op == 2) {
            release(stash);          // stash left dangling
        }
        if (op == 3) {
            int reuse = malloc(40);  // takes the freed chunk
            store(reuse, 7);
        }
        if (op == 4) {
            int p = load(stash);     // stale read
            store(p, load(p) + 1);
        }
        output(1);
    }
}
"""


def test_dangling_read_diagnosed_with_binary_search():
    tokens = [1] * 5 + [1, 2, 3, 4] + [1] * 5 + [0]
    diagnosis, pool = diagnose(DANGLING_READ_APP, tokens)
    assert diagnosis.verdict is Verdict.PATCHED
    assert diagnosis.bug_types == [BugType.DANGLING_READ]
    assert len(diagnosis.patches) == 1
    patch = diagnosis.patches[0]
    assert patch.apply_at == "free"
    assert patch.point.frames[0][0] == "release"
    # binary search costs more rollbacks than direct identification
    assert diagnosis.rollbacks >= 6


DANGLING_WRITE_APP = """
int stale = 0;
int routev = 0;
int anchor = 0;
int main() {
    anchor = malloc(64);
    store(anchor, 1);
    while (1) {
        int op = input();
        if (op == 0) { halt(); }
        if (op == 1) {
            int e = malloc(40);
            store(e, 5);
            stale = e;
            free(e);                 // freed but pointer kept
        }
        if (op == 2) {
            int r = malloc(40);      // reuses the chunk
            store(r, anchor);
            routev = r;
        }
        if (op == 3) {
            store(stale, 9);         // dangling WRITE
        }
        if (op == 4) {
            int p = load(routev);
            store(p, load(p) + 1);   // crashes on the damage
        }
        output(1);
    }
}
"""


def test_dangling_write_diagnosed_directly():
    tokens = [2] * 6 + [1, 2, 3, 4] + [2] * 6 + [0]
    diagnosis, pool = diagnose(DANGLING_WRITE_APP, tokens)
    assert diagnosis.verdict is Verdict.PATCHED
    assert BugType.DANGLING_WRITE in diagnosis.bug_types
    patches_by_type = {p.bug_type for p in diagnosis.patches}
    assert BugType.DANGLING_WRITE in patches_by_type


DOUBLE_FREE_APP = """
int depot(int p) { free(p); return 0; }
int main() {
    while (1) {
        int op = input();
        if (op == 0) { halt(); }
        int obj = malloc(48);
        store(obj, op);
        depot(obj);
        if (op == 2) {
            depot(obj);              // double free
        }
        output(1);
    }
}
"""


def test_double_free_diagnosed():
    tokens = [1] * 8 + [2] + [1] * 8 + [0]
    diagnosis, pool = diagnose(DOUBLE_FREE_APP, tokens)
    assert diagnosis.verdict is Verdict.PATCHED
    assert diagnosis.bug_types == [BugType.DOUBLE_FREE]
    assert len(diagnosis.patches) == 1
    assert diagnosis.patches[0].apply_at == "free"


UNINIT_APP = """
int sink = 0;
int main() {
    while (1) {
        int op = input();
        if (op == 0) { halt(); }
        if (op == 1) {
            int junk = malloc(56);
            store(junk, 3);
            store(junk, 8, 333);     // garbage "pointer"
            free(junk);
        }
        if (op == 2) {
            int st = malloc(56);
            // BUG: flags/pointer never initialized on this path
            store(st, 16, 1);
            if (load(st) != 0) {
                int p = load(st, 8);
                store(p, 1);
            }
            sink = st;
            free(st);
        }
        output(1);
    }
}
"""


def test_uninit_read_diagnosed():
    tokens = [2] * 6 + [1, 2] + [2] * 6 + [0]
    diagnosis, pool = diagnose(UNINIT_APP, tokens)
    assert diagnosis.verdict is Verdict.PATCHED
    assert diagnosis.bug_types == [BugType.UNINIT_READ]
    assert len(diagnosis.patches) == 1
    assert diagnosis.patches[0].apply_at == "alloc"
    assert diagnosis.patches[0].bug_type.patch_description == \
        "fill with zero"


MULTI_BUG_APP = """
int victim = 0;
int target = 0;
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
        if (op == 1) {
            int buf = malloc(32);
            int i = 0;
            while (i < op * 8) { store1(buf + i, 66); i = i + 1; }
            free(buf);
        }
        if (op == 9) {
            // overflow AND double free in the same request
            int buf = malloc(32);
            int i = 0;
            while (i < 64) { store1(buf + i, 66); i = i + 1; }
            free(buf);
            free(buf);
        }
        int p = load(victim);
        store(p, load(p) + 1);
        output(1);
    }
}
"""


def test_multiple_bug_types_in_one_failure():
    tokens = [1] * 8 + [9] + [1] * 8 + [0]
    diagnosis, pool = diagnose(MULTI_BUG_APP, tokens)
    assert diagnosis.verdict is Verdict.PATCHED
    assert set(diagnosis.bug_types) == {BugType.BUFFER_OVERFLOW,
                                        BugType.DOUBLE_FREE}
    kinds = {p.bug_type for p in diagnosis.patches}
    assert kinds == {BugType.BUFFER_OVERFLOW, BugType.DOUBLE_FREE}


NONDET_APP = """
int roll() {
    return rand() % 16;
}
int main() {
    while (1) {
        int op = input();
        if (op == 0) { halt(); }
        if (op == 7) {
            int dice = roll();
            assert(dice != 1);       // timing-dependent failure
        }
        output(1);
    }
}
"""


@pytest.mark.parametrize("policy", ["fixed", "bandit"])
def test_nondeterministic_bug_detected(policy):
    # Find an entropy seed whose first run fails; the diagnostic
    # engine reseeds entropy per re-execution, so the plain
    # re-execution passes with probability 15/16 per roll.  Try a few
    # failing seeds until one diagnoses as nondeterministic (the engine
    # correctly reports NON_PATCHABLE when the re-roll also fails).
    # RAND sits in a helper main calls, so the determinism scan must
    # follow CALL edges: under ``bandit`` the plain probe still runs.
    verdicts = []
    for seed in range(1, 200):
        process = make_process(NONDET_APP,
                               tokens=[1] * 5 + [7] * 3 + [1, 0],
                               entropy_seed=seed)
        manager = CheckpointManager(process, interval=INTERVAL,
                                    adaptive=False)
        result = manager.run()
        if result.reason is not RunReason.FAULT:
            continue
        failure = None
        for monitor in default_monitors():
            failure = monitor.check(result, process)
            if failure:
                break
        engine = DiagnosticEngine(process, manager, PatchPool("t"),
                                  search_policy=policy)
        diagnosis = engine.diagnose(failure)
        assert diagnosis.search_info["probes_pruned"] == 0
        verdicts.append(diagnosis.verdict)
        if diagnosis.verdict is Verdict.NONDETERMINISTIC:
            assert diagnosis.patches == []
            return
    pytest.fail(f"never diagnosed nondeterministic: {verdicts}")


SEMANTIC_BUG_APP = """
int main() {
    int n = 0;
    while (1) {
        int op = input();
        if (op == 0) { halt(); }
        n = n + 1;
        if (op == 5) {
            assert(n < 0);           // always fails, not memory-related
        }
        output(1);
    }
}
"""


def test_non_memory_bug_is_non_patchable():
    tokens = [1] * 5 + [5] + [1, 0]
    diagnosis, pool = diagnose(SEMANTIC_BUG_APP, tokens)
    assert diagnosis.verdict is Verdict.NON_PATCHABLE
    assert diagnosis.patches == []
    assert len(pool) == 0


def test_rollback_budget_respected():
    tokens = [1] * 5 + [5] + [1, 0]
    process = make_process(SEMANTIC_BUG_APP, tokens=tokens)
    manager = CheckpointManager(process, interval=INTERVAL,
                                adaptive=False)
    result = manager.run()
    failure = default_monitors()[1].check(result, process)
    engine = DiagnosticEngine(process, manager, PatchPool("t"),
                              max_rollbacks=3)
    diagnosis = engine.diagnose(failure)
    assert diagnosis.rollbacks <= 4  # budget + the final accounting
    assert diagnosis.verdict is Verdict.NON_PATCHABLE
