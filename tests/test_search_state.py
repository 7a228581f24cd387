"""Determinism scan and SearchState plumbing (DESIGN.md §13).

Hand-built bytecode checks :func:`repro.search.state.analyze_program`:
a program is deterministic when no RAND opcode is reachable from
``main`` through CALL edges.  The diagnosis-level check that a RAND in
a called helper keeps the plain probe is
``tests/test_core_diagnosis.py::test_nondeterministic_bug_detected``.
"""

import pytest

from repro.apps.registry import all_apps
from repro.errors import ReproError
from repro.search import SearchState, analyze_program, state
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
# SearchState plumbing
# ---------------------------------------------------------------------

def test_fixed_policy_never_runs_the_analysis(monkeypatch):
    calls = []
    monkeypatch.setattr(state, "analyze_program",
                        lambda program: calls.append(program) or True)
    search = SearchState("fixed")
    assert not search.may_skip_plain_probe(build(halt_only))
    assert search.bandit is None
    assert calls == []


def test_unknown_policy_rejected():
    for policy in ("greedy", "pruned"):
        with pytest.raises(ReproError):
            SearchState(policy)


def test_bandit_policy_prunes_and_speculates():
    def main(fb):
        fb.rand("r")
        fb.halt()

    search = SearchState("bandit", seed=7)
    assert search.bandit is not None
    assert search.may_skip_plain_probe(build(halt_only))
    assert not search.may_skip_plain_probe(build(main))


# ---------------------------------------------------------------------
# real apps
# ---------------------------------------------------------------------

@pytest.mark.parametrize("app", all_apps(), ids=lambda a: a.name)
def test_real_apps_are_deterministic(app):
    assert analyze_program(app.program())
