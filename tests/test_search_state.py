"""Determinism scan and search-policy plumbing (DESIGN.md §13).

Hand-built bytecode checks :func:`repro.search.state.analyze_program`:
a program is deterministic when no RAND opcode is reachable from
``main`` through CALL edges.  The diagnosis-level check that a RAND in
a called helper keeps the plain probe is
``tests/test_core_diagnosis.py::test_nondeterministic_bug_detected``.
"""

import pytest

from repro.apps.registry import all_apps
from repro.core.runtime import FirstAidConfig, FirstAidRuntime
from repro.errors import ReproError
from repro.search import analyze_program, may_skip_plain_probe, state
from repro.vm.builder import ProgramBuilder


def build(make_main, extra=()):
    pb = ProgramBuilder("t")
    fb = pb.function("main")
    make_main(fb)
    pb.add(fb)
    for name, gen in extra:
        fb2 = pb.function(name, gen[0])
        gen[1](fb2)
        pb.add(fb2)
    program = pb.build()
    program.finalize()
    return program


def halt_only(fb):
    fb.halt()


# ---------------------------------------------------------------------
# RAND reachability (determinism gate)
# ---------------------------------------------------------------------

def test_reachable_rand_kills_determinism():
    def main(fb):
        fb.rand("r")
        fb.halt()

    assert not analyze_program(build(main))


def test_unreachable_rand_is_ignored():
    def chaos(fb):
        fb.rand("r")
        fb.ret("r")

    program = build(halt_only, extra=[("chaos", ((), chaos))])
    assert analyze_program(program)


# ---------------------------------------------------------------------
# search-policy plumbing
# ---------------------------------------------------------------------

def test_fixed_policy_never_runs_the_analysis(monkeypatch):
    calls = []
    monkeypatch.setattr(state, "analyze_program",
                        lambda program: calls.append(program) or True)
    assert not may_skip_plain_probe("fixed", build(halt_only))
    assert calls == []


def test_unknown_policy_rejected():
    """Rejected when the runtime is built, before any failure: the
    degradation ladder would absorb the error there."""
    program = build(halt_only)
    for policy in ("greedy", "pruned"):
        with pytest.raises(ReproError):
            FirstAidRuntime(program,
                            config=FirstAidConfig(search_policy=policy))


def test_bandit_policy_prunes_and_speculates():
    """``bandit`` skips the plain probe of a deterministic program
    only; its speculation is the fixed schedule's
    (``test_search_equivalence.py`` checks the probe counts)."""
    def main(fb):
        fb.rand("r")
        fb.halt()

    assert may_skip_plain_probe("bandit", build(halt_only))
    assert not may_skip_plain_probe("bandit", build(main))


# ---------------------------------------------------------------------
# real apps
# ---------------------------------------------------------------------

@pytest.mark.parametrize("app", all_apps(), ids=lambda a: a.name)
def test_real_apps_are_deterministic(app):
    assert analyze_program(app.program())
