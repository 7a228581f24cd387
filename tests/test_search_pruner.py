"""Static pruner unit tests on hand-built bytecode (DESIGN.md §13).

Every test constructs a precise Program through the assembler builders
and checks :func:`repro.search.pruner.analyze_program`'s verdicts:
feasibility masks, double-free validity analysis, RAND reachability,
and bounded-read call-site attribution.  The pruner must only ever err
toward "feasible / may be read" -- several tests pin the conservative
direction explicitly.
"""

import pytest

from repro.core.bugtypes import BugType, CHANGE_GROUPS
from repro.bench.harness import real_bug_apps
from repro.search import SearchState, analyze_program
from repro.util.callsite import CallSite
from repro.vm import isa
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


def malloc_const(fb, dst, size):
    tmp = fb.temp()
    fb.const(tmp, size)
    fb.malloc(dst, tmp)


# ---------------------------------------------------------------------
# feasibility masks
# ---------------------------------------------------------------------

def test_no_free_rules_out_dangling_and_double_free():
    def main(fb):
        malloc_const(fb, "p", 32)
        v = fb.temp()
        fb.const(v, 7)
        fb.store("p", v)
        fb.load("x", "p")
        fb.halt()

    facts = analyze_program(build(main))
    assert facts.deterministic
    assert facts.feasible(BugType.BUFFER_OVERFLOW)
    assert facts.feasible(BugType.UNINIT_READ)
    assert not facts.feasible(BugType.DANGLING_READ)
    assert not facts.feasible(BugType.DANGLING_WRITE)
    assert not facts.feasible(BugType.DOUBLE_FREE)
    # the whole dangling/double-free change group is skippable
    group = next(g for g in CHANGE_GROUPS
                 if BugType.DANGLING_READ in g)
    assert not facts.group_feasible(group)


def test_no_heap_read_rules_out_read_types():
    def main(fb):
        malloc_const(fb, "p", 32)
        v = fb.temp()
        fb.const(v, 7)
        fb.store("p", v)
        fb.free("p")
        fb.halt()

    facts = analyze_program(build(main))
    assert facts.feasible(BugType.BUFFER_OVERFLOW)
    assert facts.feasible(BugType.DANGLING_WRITE)
    assert not facts.feasible(BugType.UNINIT_READ)
    assert not facts.feasible(BugType.DANGLING_READ)


def test_no_heap_write_rules_out_overflow_and_dangling_write():
    def main(fb):
        malloc_const(fb, "p", 32)
        fb.load("x", "p")
        fb.free("p")
        fb.halt()

    facts = analyze_program(build(main))
    assert not facts.feasible(BugType.BUFFER_OVERFLOW)
    assert not facts.feasible(BugType.DANGLING_WRITE)
    assert facts.feasible(BugType.UNINIT_READ)
    assert facts.feasible(BugType.DANGLING_READ)


def test_memcpy_counts_as_read_and_write():
    def main(fb):
        malloc_const(fb, "a", 32)
        malloc_const(fb, "b", 32)
        ln = fb.temp()
        fb.const(ln, 8)
        fb.memcpy("b", "a", ln)
        fb.halt()

    facts = analyze_program(build(main))
    assert facts.has_heap_read
    assert facts.has_heap_write
    assert facts.feasible(BugType.UNINIT_READ)


# ---------------------------------------------------------------------
# RAND reachability (determinism gate)
# ---------------------------------------------------------------------

def test_reachable_rand_kills_determinism():
    def main(fb):
        fb.rand("r")
        fb.halt()

    facts = analyze_program(build(main))
    assert not facts.deterministic


def test_unreachable_rand_is_ignored():
    def chaos(fb):
        fb.rand("r")
        fb.ret("r")

    def main(fb):
        fb.halt()

    program = build(main, extra=[("chaos", ((), chaos))])
    facts = analyze_program(program)
    assert facts.deterministic


# ---------------------------------------------------------------------
# double-free validity analysis
# ---------------------------------------------------------------------

def test_single_valid_frees_no_double_free():
    def main(fb):
        malloc_const(fb, "a", 32)
        malloc_const(fb, "b", 32)
        fb.load("x", "a")
        fb.free("a")
        fb.free("b")
        fb.halt()

    facts = analyze_program(build(main))
    assert not facts.feasible(BugType.DOUBLE_FREE)


def test_free_at_nonzero_offset_enables_double_free():
    def main(fb):
        malloc_const(fb, "a", 32)
        fb.addi("q", "a", 8)
        fb.free("q")
        fb.halt()

    facts = analyze_program(build(main))
    assert facts.feasible(BugType.DOUBLE_FREE)


def test_free_of_plain_integer_enables_double_free():
    def main(fb):
        malloc_const(fb, "a", 32)
        fb.const("q", 4096)
        fb.free("q")
        fb.halt()

    facts = analyze_program(build(main))
    assert facts.feasible(BugType.DOUBLE_FREE)


def test_free_in_loop_enables_double_free():
    def main(fb):
        malloc_const(fb, "a", 32)
        fb.const("i", 0)
        fb.label("loop")
        fb.free("a")
        fb.addi("i", "i", 1)
        lim = fb.temp()
        fb.const(lim, 3)
        fb.binop("<", "c", "i", lim)
        fb.jnz("c", "loop")
        fb.halt()

    facts = analyze_program(build(main))
    assert facts.feasible(BugType.DOUBLE_FREE)


def test_two_frees_of_same_site_enable_double_free():
    def main(fb):
        malloc_const(fb, "a", 32)
        fb.mov("b", "a")
        fb.free("a")
        fb.free("b")
        fb.halt()

    facts = analyze_program(build(main))
    assert facts.feasible(BugType.DOUBLE_FREE)


def test_free_in_twice_called_helper_enables_double_free():
    def release(fb):
        fb.free(0)
        fb.ret()

    def main(fb):
        malloc_const(fb, "a", 32)
        fb.call(None, "release", ["a"])
        fb.call(None, "release", ["a"])
        fb.halt()

    program = build(main, extra=[("release", (("p",), release))])
    facts = analyze_program(program)
    assert facts.feasible(BugType.DOUBLE_FREE)


# ---------------------------------------------------------------------
# bounded-read call-site attribution
# ---------------------------------------------------------------------

def _malloc_addr(program, fn_name, nth=0):
    """(fn, pc) of the nth MALLOC in a function -- the innermost
    call-site frame the VM records for allocations made there."""
    fn = program.functions[fn_name]
    seen = 0
    for pc, instr in enumerate(fn.code):
        if instr[0] == isa.MALLOC:
            if seen == nth:
                return (fn_name, pc)
            seen += 1
    raise AssertionError("no such MALLOC")


def test_bounded_read_attributes_to_its_site_only():
    def main(fb):
        malloc_const(fb, "a", 32)   # read below
        malloc_const(fb, "b", 32)   # never read
        v = fb.temp()
        fb.const(v, 1)
        fb.store("b", v)
        fb.load("x", "a", offset=8)
        fb.free("a")
        fb.free("b")
        fb.halt()

    program = build(main)
    facts = analyze_program(program)
    assert not facts.read_any
    site_a = CallSite.intern([_malloc_addr(program, "main", 0)])
    site_b = CallSite.intern([_malloc_addr(program, "main", 1)])
    assert facts.site_relevant(BugType.UNINIT_READ, site_a)
    assert not facts.site_relevant(BugType.UNINIT_READ, site_b)


def test_out_of_bounds_read_degrades_to_read_any():
    def main(fb):
        malloc_const(fb, "a", 32)
        fb.load("x", "a", offset=32)    # one past the end
        fb.halt()

    facts = analyze_program(build(main))
    assert facts.read_any
    # conservative: every arm stays live
    anything = CallSite.intern([("main", 0)])
    assert facts.site_relevant(BugType.UNINIT_READ, anything)


def test_integer_derived_address_degrades_to_read_any():
    def main(fb):
        fb.const("p", 4096)
        fb.load("x", "p")
        fb.halt()

    facts = analyze_program(build(main))
    assert facts.read_any


def test_pointer_roundtripped_through_heap_degrades():
    """A pointer stored into the heap and loaded back loses provenance
    (partial loads can mangle it): reads through it must alias ANY."""
    def main(fb):
        malloc_const(fb, "box", 16)
        malloc_const(fb, "obj", 32)
        fb.store("box", "obj")
        fb.load("p", "box")
        fb.load("x", "p")
        fb.halt()

    facts = analyze_program(build(main))
    assert facts.read_any


def test_dangling_free_site_relevance_tracks_freed_provenance():
    def main(fb):
        malloc_const(fb, "a", 32)   # freed, and read
        malloc_const(fb, "b", 32)   # freed, never read
        fb.load("x", "a", offset=0)
        fb.free("a")
        fb.free("b")
        fb.halt()

    program = build(main)
    facts = analyze_program(program)
    fn = program.functions["main"]
    free_pcs = [pc for pc, instr in enumerate(fn.code)
                if instr[0] == isa.FREE]
    free_a = CallSite.intern([("main", free_pcs[0])])
    free_b = CallSite.intern([("main", free_pcs[1])])
    assert facts.site_relevant(BugType.DANGLING_READ, free_a)
    assert not facts.site_relevant(BugType.DANGLING_READ, free_b)


def test_unknown_call_site_stays_live():
    """Sites the analysis never saw (defensive: e.g. a stale facts
    cache) must not be pruned."""
    def main(fb):
        malloc_const(fb, "a", 32)
        fb.load("x", "a")
        fb.halt()

    facts = analyze_program(build(main))
    mystery = CallSite.intern([("nowhere", 99)])
    assert facts.site_relevant(BugType.UNINIT_READ, mystery)
    assert facts.site_relevant(BugType.DANGLING_READ, mystery)


# ---------------------------------------------------------------------
# SearchState plumbing
# ---------------------------------------------------------------------

def test_search_state_caches_facts_by_code_key():
    def main(fb):
        malloc_const(fb, "a", 32)
        fb.halt()

    program = build(main)
    state = SearchState("pruned")
    first = state.facts_for(program)
    assert first is state.facts_for(program)


def test_fixed_policy_never_runs_the_analysis():
    def main(fb):
        fb.halt()

    state = SearchState("fixed")
    assert state.facts_for(build(main)) is None
    assert state.bandit is None
    assert not state.prunes
    assert not state.speculates


def test_unknown_policy_rejected():
    from repro.errors import ReproError
    with pytest.raises(ReproError):
        SearchState("greedy")


def test_bandit_policy_prunes_and_speculates():
    state = SearchState("bandit", seed=7)
    assert state.prunes
    assert state.speculates
    assert state.bandit is not None


# ---------------------------------------------------------------------
# real apps: conservative sanity
# ---------------------------------------------------------------------

@pytest.mark.parametrize("app", real_bug_apps(), ids=lambda a: a.name)
def test_ground_truth_bug_types_stay_feasible(app):
    facts = analyze_program(app.program())
    assert facts.deterministic
    for bug_type in app.BUG_TYPES:
        assert facts.feasible(bug_type), (app.name, bug_type)


def test_pruned_runtimes_share_one_analysis_per_process(monkeypatch):
    """The static pass runs once per program and process: a second
    pruned runtime over the same program reuses the first one's facts
    instead of re-analysing in its own session."""
    from repro.core.runtime import FirstAidConfig, FirstAidRuntime
    from repro.lang import compile_program
    from repro.search import pruner
    from tests.test_core_diagnosis import OVERFLOW_APP

    analyses = []
    real_run = pruner._Analyzer.run

    def counting_run(analyzer):
        analyses.append(analyzer)
        return real_run(analyzer)

    monkeypatch.setattr(pruner._Analyzer, "run", counting_run)
    pruner.clear_cache()
    program = compile_program(OVERFLOW_APP, "overflow")
    tokens = [8] * 10 + [64] + [8] * 10 + [0]
    for _ in range(2):
        runtime = FirstAidRuntime(
            program, input_tokens=tokens,
            config=FirstAidConfig(search_policy="pruned"))
        try:
            session = runtime.run()
        finally:
            runtime.close()
        assert session.recoveries
    assert len(analyses) == 1
