"""Differential tests for the template-JIT tier (:mod:`repro.vm.compile`).

The compiled tier is only allowed to exist because it is *observably
identical* to the switch interpreter it replaced, kept as the oracle in
``tests/reference_machine.py``.  The fuzzer here generates random
bytecode programs -- loops, calls, memory traffic with out-of-bounds
offsets, division by runtime zeros, input exhaustion -- and runs every
one on the oracle and on the compiled tier, comparing the full
observable surface: run reasons, fault type/message/instr_id, frame
freezes, instruction counts, the simulated clock, output timestamps,
memory snapshots, the input cursor and the allocator extension's state
(illegal accesses in order, the mm trace).  ``stop_at`` chunking is
fuzzed too, so checkpoint boundaries that land mid-block (the budget
tails the run loop steps with one-instruction closures) are exercised
continuously.

A traced-validation mode runs the programs the way a validation task
does: the extension in VALIDATION mode on the machine's clock, a
policy that pads, zero-fills or delay-frees by allocation site and
freed size, and the access watch built.  The oracle calls
``note_access`` on every access, so it checks the watch too.

Deterministic unit tests below pin the compiler's structure: block
planning and jump threading, loop closing and slot promotion, fusion
statistics, the literal-divisor fast path, the cross-machine program
cache, the input-rewind accounting regression, every exit of a promoted
loop and of a straight-line block, every access-tracing outcome through
each memory op, and the shape of the seven apps' compiled sources.
The seven apps also run in budgets of a few instructions, so most
stops land inside a block and the run loop steps its tail.
"""

import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.registry import real_bug_apps
from repro.bench.harness import spaced_workload
from repro.heap.allocator import LeaAllocator
from repro.heap.base import Memory
from repro.heap.extension import (
    PAD_POST,
    PAD_PRE,
    PLAIN_FREE,
    AllocDecision,
    AllocatorExtension,
    ChangePolicy,
    ExtensionMode,
    FreeDecision,
)
from repro.process import Process
from repro.vm import compile as vmc
from repro.vm import isa
from repro.vm.builder import ProgramBuilder
from repro.vm.io import OutputLog, ReplayableInput
from repro.vm.machine import Machine, RunReason
from tests.reference_machine import SIDES, reference_tier

# ---------------------------------------------------------------------------
# differential harness
# ---------------------------------------------------------------------------


#: Quarantine budget of the traced-validation mode: small enough that
#: the fuzzer's 3000- and 9000-byte objects evict others, or
#: themselves, on their delayed free.
VALIDATION_QUARANTINE = 4096


class SitePolicy(ChangePolicy):
    """The traced-validation mode's policy: each allocation site pads
    (both ends, the front only, or with no patch id, as a sampled guard
    does), zero-fills (an init bitmap), both, or nothing, by its pc
    plus ``salt``; a free is delayed by the freed object's size.  It
    looks sizes up through ``ext`` (set once the process exists)."""

    ALLOCS = (
        AllocDecision(),
        AllocDecision(pad_pre=PAD_PRE, pad_post=PAD_POST,
                      canary_pad=True, patch_id=1),
        AllocDecision(fill="zero", patch_id=2),
        AllocDecision(pad_pre=PAD_PRE, pad_post=PAD_POST, fill="zero",
                      patch_id=3),
        AllocDecision(pad_pre=PAD_PRE, patch_id=4),
        AllocDecision(pad_pre=PAD_PRE, pad_post=PAD_POST,
                      canary_pad=True),
    )

    def __init__(self, salt=0):
        self.salt = salt
        self.ext = None

    def on_alloc(self, callsite):
        pc = callsite.innermost[1] if callsite else 0
        return self.ALLOCS[(pc + self.salt) % len(self.ALLOCS)]

    def on_free(self, callsite, user_addr):
        obj = self.ext.object_at(user_addr)
        if obj is None or (obj.user_size // 8 + self.salt) % 3 == 0:
            return PLAIN_FREE
        return FreeDecision(delay=True, check_param=True,
                            canary_fill=obj.user_size > 64, patch_id=5)


def machine_for(program, tokens=(), trace=False, salt=None):
    """A bare machine, traced or not; or, with a ``salt``, the
    traced-validation mode (a :class:`Process` with the watch built)."""
    if salt is not None:
        policy = SitePolicy(salt)
        process = Process(program, input_tokens=list(tokens),
                          mode=ExtensionMode.VALIDATION, policy=policy,
                          quarantine_threshold=VALIDATION_QUARANTINE)
        policy.ext = process.extension
        process.extension.trace_mm = True
        process.trace_accesses()
        return process.machine
    mem = Memory()
    ext = AllocatorExtension(mem, LeaAllocator(mem),
                             ExtensionMode.DIAGNOSTIC)
    m = Machine(program, mem, ext, ReplayableInput(list(tokens)),
                OutputLog())
    m.trace_accesses = trace
    return m


def observe(m):
    ext = m.extension
    return dict(
        instr_count=m.instr_count,
        clock=m.clock.now_ns,
        halted=m.halted,
        fault=None if m.fault is None else (
            type(m.fault).__name__, m.fault.describe(),
            getattr(m.fault, "instr_id", None)),
        frames=[(f.func.name, f.pc, tuple(f.locals), f.ret_dst)
                for f in m.frames],
        globals=tuple(m.globals),
        output=tuple(m.output.entries()),
        mem=m.mem.snapshot(),
        input_cursor=m.input.snapshot(),
        illegal_accesses=tuple(ext.illegal_accesses),
        mm_trace=tuple(ext.mm_trace),
        extension=ext.snapshot(),
    )


def run_differential(program, tokens=(), trace=False, chunks=None,
                     max_runs=20000, salt=None):
    """Run ``program`` on both sides and assert every observable
    matches; ``chunks`` re-enters via ``stop_at`` budgets and ``salt``
    selects the traced-validation mode."""
    results = []
    for side in SIDES.values():
        m = machine_for(program, tokens, trace, salt)
        reasons = []
        with side():
            if chunks is None:
                reasons.append(m.run().reason)
            else:
                for _ in range(max_runs):
                    r = m.run(stop_at=m.instr_count + chunks)
                    reasons.append(r.reason)
                    if r.reason.value in ("input", "halt", "fault"):
                        break
        results.append((observe(m), reasons))
    assert results[0] == results[1]
    return results[0]


# ---------------------------------------------------------------------------
# random program generation
# ---------------------------------------------------------------------------

VARS = ("a", "b", "c", "d")

_var = st.sampled_from(VARS)
_size = st.sampled_from((1, 2, 4, 8))
_sym = st.sampled_from(("+", "-", "*", "&", "|", "^", "<<", ">>",
                        "<", "<=", ">", ">=", "==", "!=", "/", "%"))

#: Offsets range past the 64-byte buffer so stores/loads sometimes
#: fault (SegmentationFault identity is part of the differential).
_off = st.integers(min_value=0, max_value=96)
#: The traced-validation mode also reaches back into pre-pads.
_voff = st.integers(min_value=-24, max_value=96)

#: Loads and stores go through ``p`` (fixed) or ``q``, which MALLOC
#: re-points -- at sizes that grow the heap, so accesses inside a loop
#: reach pages mapped by that same closure -- and FREE releases (a
#: second FREE is a double free).
_ptr = st.sampled_from(("p", "q"))
_alloc = st.sampled_from((8, 64, 3000, 9000))


def _op_strategy(off):
    return st.one_of(
        st.tuples(st.just("binop"), _sym, _var, _var, _var),
        st.tuples(st.just("addi"), _var, _var,
                  st.integers(min_value=-8, max_value=64)),
        st.tuples(st.just("out"), _var),
        st.tuples(st.just("in"), _var),
        st.tuples(st.just("store"), _ptr, _var, off, _size),
        st.tuples(st.just("load"), _var, _ptr, off, _size),
        st.tuples(st.just("call"), _var, _var),
        st.tuples(st.just("memset"), _var, _off),
        st.tuples(st.just("memcpy"), _off),
        st.tuples(st.just("gstore"), _var),
        st.tuples(st.just("gload"), _var),
        st.tuples(st.just("malloc"), _alloc),
        st.tuples(st.just("free"),),
        st.tuples(st.just("rand"), _var),
    )


_op = _op_strategy(_off)

_inits = st.tuples(*([st.integers(min_value=0, max_value=2 ** 48)]
                     * len(VARS)))
_ops = st.lists(_op, max_size=16)
_vops = st.lists(_op_strategy(_voff), max_size=16)
_tokens = st.lists(st.integers(min_value=0, max_value=2 ** 40),
                   max_size=6)


def _emit(fb, g0, ops, tag):
    for i, op in enumerate(ops):
        kind = op[0]
        if kind == "binop":
            fb.binop(op[1], op[2], op[3], op[4])
        elif kind == "addi":
            fb.addi(op[1], op[2], op[3])
        elif kind == "out":
            fb.output(op[1])
        elif kind == "in":
            fb.input(op[1])
        elif kind == "store":
            fb.store(op[1], op[2], op[3], op[4])
        elif kind == "load":
            fb.load(op[1], op[2], op[3], op[4])
        elif kind == "call":
            fb.call(op[1], "twice", [op[2]])
        elif kind == "memset":
            fb.const(f"_ln{tag}{i}", op[2])
            fb.memset("p", op[1], f"_ln{tag}{i}")
        elif kind == "memcpy":
            fb.const(f"_ln{tag}{i}", op[1])
            fb.addi(f"_q{tag}{i}", "p", 8)
            fb.memcpy(f"_q{tag}{i}", "p", f"_ln{tag}{i}")
        elif kind == "gstore":
            fb.gstore(g0, op[1])
        elif kind == "gload":
            fb.gload(op[1], g0)
        elif kind == "malloc":
            fb.const(f"_ms{tag}{i}", op[1])
            fb.malloc("q", f"_ms{tag}{i}")
        elif kind == "free":
            fb.free("q")
        elif kind == "rand":
            fb.rand(op[1])


def build_random_program(inits, pre_ops, loop_ops, n_loop):
    pb = ProgramBuilder()
    g0 = pb.global_slot("g0")
    tw = pb.function("twice", params=("n",))
    tw.binop("+", "r", "n", "n")
    tw.ret("r")
    pb.add(tw)
    fb = pb.function("main")
    for name, value in zip(VARS, inits):
        fb.const(name, value)
    fb.const("sz", 64)
    fb.malloc("p", "sz")
    fb.malloc("q", "sz")
    _emit(fb, g0, pre_ops, "p")
    fb.const("i", 0)
    fb.const("n", n_loop)
    fb.label("top")
    fb.binop("<", "t", "i", "n")
    fb.jz("t", "done")
    _emit(fb, g0, loop_ops, "l")
    fb.addi("i", "i", 1)
    fb.jmp("top")
    fb.label("done")
    for name in VARS:
        fb.output(name)
    fb.free("p")
    fb.halt()
    pb.add(fb)
    return pb.build()


@settings(max_examples=40, deadline=None)
@given(_inits, _ops, _ops, st.integers(min_value=0, max_value=24),
       _tokens, st.booleans())
def test_fuzz_compiled_matches_reference(inits, pre_ops, loop_ops,
                                         n_loop, tokens, trace):
    program = build_random_program(inits, pre_ops, loop_ops, n_loop)
    run_differential(program, tokens=tokens, trace=trace)


@settings(max_examples=25, deadline=None)
@given(_inits, _ops, _ops, st.integers(min_value=0, max_value=24),
       _tokens, st.integers(min_value=1, max_value=60))
def test_fuzz_chunked_stop_at_matches_reference(inits, pre_ops,
                                                loop_ops, n_loop,
                                                tokens, chunks):
    program = build_random_program(inits, pre_ops, loop_ops, n_loop)
    run_differential(program, tokens=tokens, chunks=chunks)


@settings(max_examples=40, deadline=None)
@given(_inits, _vops, _vops, st.integers(min_value=0, max_value=24),
       _tokens, st.one_of(st.none(), st.integers(min_value=1,
                                                 max_value=60)),
       st.integers(min_value=0, max_value=5))
def test_fuzz_traced_validation_matches_reference(inits, pre_ops,
                                                  loop_ops, n_loop,
                                                  tokens, chunks, salt):
    """The compiled tier's access watch against the oracle's call on
    every access: the same illegal accesses in the same order, mm
    trace, init bitmaps, quarantine and clock."""
    program = build_random_program(inits, pre_ops, loop_ops, n_loop)
    run_differential(program, tokens=tokens, chunks=chunks, salt=salt)


# ---------------------------------------------------------------------------
# deterministic structure tests
# ---------------------------------------------------------------------------


def counting_loop_program(n=500):
    pb = ProgramBuilder()
    fb = pb.function("main")
    fb.const("i", 0)
    fb.const("n", n)
    fb.const("acc", 0)
    fb.label("top")
    fb.binop("<", "t", "i", "n")
    fb.jz("t", "done")
    fb.binop("+", "acc", "acc", "i")
    fb.addi("i", "i", 1)
    fb.jmp("top")
    fb.label("done")
    fb.output("acc")
    fb.halt()
    pb.add(fb)
    return pb.build()


def test_loop_is_jump_threaded_and_closed():
    vmc.clear_cache()
    program = counting_loop_program()
    unit = vmc.bind_program(program)
    m = machine_for(program)
    m.run()
    assert m.halted and m.output.values() == [sum(range(500))]
    stats = unit.stats.as_dict()
    assert stats["threaded_jumps"] >= 1
    assert stats["closed_loops"] >= 1
    assert stats["cmp_branches"] >= 1
    assert stats["const_folds"] >= 1
    assert stats["promoted_slots"] >= 1
    cf = unit.functions["main"]
    loop_sources = [src for src in cf.sources.values()
                    if "while True:" in src]
    assert loop_sources, "loop body should compile to a Python loop"


def test_block_plan_follows_jmp_and_detects_backedge():
    vmc.clear_cache()
    program = counting_loop_program()
    unit = vmc.compiled_for(program)
    cf = unit.functions["main"]
    code = cf.code
    # Entry at pc 0 runs the consts, threads through the JMP at the
    # loop bottom, and terminates at the conditional branch.
    pcs, term = cf.block_plan(0)
    assert term[0] == "op"
    assert code[term[1]][0] in (isa.JZ, isa.JNZ)
    assert len(pcs) >= 4
    # The block entered at the branch fall-through loops back to its
    # own entry (threaded through the JMP): loop form.
    body_entry = term[1] + 1
    body_pcs, body_term = cf.block_plan(body_entry)
    assert body_term[0] in ("op", "loop")
    blk = cf.block(body_entry)
    assert blk is cf.blocks[body_entry]
    assert "while True:" in cf.sources[body_entry]


def test_literal_divisor_skips_fault_path():
    vmc.clear_cache()
    pb = ProgramBuilder()
    fb = pb.function("main")
    fb.const("k", 256)
    fb.input("x")
    fb.binop("%", "r", "x", "k")
    fb.binop("/", "q", "x", "k")
    fb.output("r")
    fb.output("q")
    fb.halt()
    pb.add(fb)
    program = pb.build()
    obs = run_differential(program, tokens=(1234567,))
    assert obs[0]["output"][0][1] == 1234567 % 256
    assert obs[0]["output"][1][1] == 1234567 // 256
    unit = vmc.compiled_for(program)
    sources = "".join(unit.functions["main"].sources.values())
    assert "_DivZero" not in sources


def test_program_cache_shared_across_machines():
    vmc.clear_cache()
    first = counting_loop_program()
    second = counting_loop_program()  # identical code, new objects
    assert first.code_key() == second.code_key()
    outputs = []
    for program in (first, second):
        m = machine_for(program)
        m.run()
        outputs.append(m.output.values())
    assert outputs[0] == outputs[1]
    assert vmc.cache_size() == 1
    unit = vmc.compiled_for(first)
    assert unit.binds == 2
    assert unit.functions["main"].blocks  # compiled once, reused
    vmc.clear_cache()
    assert vmc.cache_size() == 0


def echo_program():
    pb = ProgramBuilder()
    fb = pb.function("main")
    fb.label("top")
    fb.input("v")
    fb.output("v")
    fb.jmp("top")
    pb.add(fb)
    return pb.build()


def test_input_rewind_counts_and_clock_are_exact():
    """Regression for the exhaustion-rewind accounting: the rewound IN
    is neither counted nor charged, on either side."""
    vmc.clear_cache()
    program = echo_program()
    for side in SIDES.values():
        m = machine_for(program, tokens=(7, 8, 9))
        with side():
            result = m.run()
        assert result.reason.value == "input"
        # Three full echo iterations (IN, OUT, JMP), then the fourth
        # IN rewinds before counting itself.
        assert m.instr_count == 9
        assert m.clock.now_ns == 9 * m.costs.instr_ns
        assert [v for _, v in m.output.entries()] == [7, 8, 9]
    run_differential(program, tokens=(7, 8, 9))
    run_differential(program, tokens=(7, 8, 9), chunks=2)


def test_fault_freeze_is_identical_mid_loop():
    """A segfault on iteration ~8 of a closed loop: the frozen frame,
    counters and clock must match the reference exactly."""
    vmc.clear_cache()
    pb = ProgramBuilder()
    fb = pb.function("main")
    fb.const("sz", 64)
    fb.malloc("p", "sz")
    fb.const("i", 0)
    fb.const("n", 100)
    fb.label("top")
    fb.binop("<", "t", "i", "n")
    fb.jz("t", "done")
    fb.store("p", "i", 0, 8)
    fb.addi("p", "p", 8)
    fb.addi("i", "i", 1)
    fb.jmp("top")
    fb.label("done")
    fb.free("p")
    fb.halt()
    pb.add(fb)
    program = pb.build()
    obs = run_differential(program)
    assert obs[0]["fault"] is not None
    # The runaway store trips either the heap's metadata canary or the
    # mapping bounds, depending on layout; identity across sides is
    # what matters (run_differential already asserted it).
    assert obs[0]["fault"][0] in ("SegmentationFault",
                                  "HeapCorruptionFault")
    run_differential(program, trace=True)
    run_differential(program, chunks=5)


# ---------------------------------------------------------------------------
# access-tracing outcomes through each memory op
# ---------------------------------------------------------------------------


class QueuePolicy(ChangePolicy):
    """Allocation decisions in program order; every free is delayed."""

    def __init__(self, allocs):
        self.allocs = list(allocs)

    def on_alloc(self, callsite):
        return self.allocs.pop(0)

    def on_free(self, callsite, user_addr):
        return FreeDecision(delay=True, check_param=True, patch_id=6)


#: outcome -> (object, offset, is_write, recorded kinds).  ``pad`` has
#: both pads, ``zer`` an init bitmap, ``dq`` is delay-freed before the
#: access and ``pl`` is plain; an offset of 2**30 leaves the heap.
_OUTCOMES = {
    "pad-write": ("pad", 64, True, ["overflow-write"]),
    "pad-read": ("pad", -8, False, []),
    "quarantined-read": ("dq", 8, False, ["dangling-read"]),
    "quarantined-write": ("dq", 8, True, ["dangling-write"]),
    "uninit-read": ("zer", 8, False, ["uninit-read"]),
    "init-write": ("zer", 8, True, []),
    "plain-read": ("pl", 8, False, []),
    "plain-write": ("pl", 8, True, []),
    "fault-read": ("pl", 2 ** 30, False, []),
    "fault-write": ("pl", 2 ** 30, True, []),
}
_OPS = {False: ("load", "memcpy"), True: ("store", "memset", "memcpy")}


def outcome_program(target, offset, write, op):
    """Four 64-byte objects, a delayed free of ``dq``, then one access
    by ``op`` at ``target + offset`` (a MEMCPY's other side is
    ``pl``)."""
    pb = ProgramBuilder()
    fb = pb.function("main")
    fb.const("sz", 64)
    fb.const("v", 0x41)
    fb.const("ln", 8)
    for name in ("pad", "zer", "dq", "pl"):
        fb.malloc(name, "sz")
    fb.free("dq")
    fb.addi("a", target, offset)
    if op == "load":
        fb.load("x", "a", 0, 8)
    elif op == "store":
        fb.store("a", "v", 0, 8)
    elif op == "memset":
        fb.memset("a", "v", "ln")
    elif write:
        fb.memcpy("a", "pl", "ln")
    else:
        fb.memcpy("pl", "a", "ln")
    fb.output("v")
    fb.halt()
    pb.add(fb)
    return pb.build()


@pytest.mark.parametrize("outcome,op", [
    (outcome, op) for outcome, spec in _OUTCOMES.items()
    for op in _OPS[spec[2]]])
def test_traced_access_outcomes_match_reference(outcome, op):
    """Each tracing outcome through LOAD, STORE, MEMSET and MEMCPY in
    the traced-validation mode: both sides observe the same, and the
    compiled tier calls ``note_access`` only for the watched access
    (the oracle calls it for every one)."""
    target, offset, write, kinds = _OUTCOMES[outcome]
    program = outcome_program(target, offset, write, op)
    runs = []
    for side in SIDES.values():
        process = Process(
            program, mode=ExtensionMode.VALIDATION,
            policy=QueuePolicy([
                AllocDecision(pad_pre=PAD_PRE, pad_post=PAD_POST,
                              canary_pad=True, patch_id=1),
                AllocDecision(fill="zero", patch_id=2),
                AllocDecision(), AllocDecision()]))
        process.extension.trace_mm = True
        process.trace_accesses()
        ext = process.extension
        calls = []
        note = ext.note_access

        def counting(*args, note=note, calls=calls):
            calls.append(args)
            note(*args)

        ext.note_access = counting
        with side():
            process.run()
        zer, = [o for o in ext.live_objects() if o.written is not None]
        runs.append((observe(process.machine), len(calls),
                     bytes(zer.written[8:16])))
    (ref, ref_calls, ref_init), (cmp_, cmp_calls, _) = runs
    assert cmp_ == ref
    assert [x.kind for x in ref["illegal_accesses"]] == kinds
    assert ref_calls == (2 if op == "memcpy" else 1)
    assert cmp_calls == (0 if target == "pl" else 1)
    if outcome.startswith("fault"):
        assert ref["fault"][0] == "SegmentationFault"
    else:
        assert ref["halted"]
    assert ref_init == (b"\x01" * 8 if outcome == "init-write"
                        else bytes(8))


# ---------------------------------------------------------------------------
# promoted-slot exits and the compiled sources' shape
# ---------------------------------------------------------------------------


def promoted_exit_program(n=6):
    """A closed loop that writes six slots per iteration (t, v, acc,
    a, q, i) through IN, a STORE, a heap-growing MALLOC and a STORE into
    the pages that MALLOC just mapped.  A token of 2**40 sends the
    first STORE past the mapping (a SegmentationFault after in-loop
    writes); fewer than ``n`` tokens exhaust the input mid-loop."""
    pb = ProgramBuilder()
    fb = pb.function("main")
    fb.const("sz", 64)
    fb.malloc("p", "sz")
    fb.const("big", 5000)
    fb.const("i", 0)
    fb.const("n", n)
    fb.const("acc", 0)
    fb.label("top")
    fb.binop("<", "t", "i", "n")
    fb.jz("t", "done")
    fb.input("v")
    fb.binop("+", "acc", "acc", "v")
    fb.binop("+", "a", "p", "v")
    fb.store("a", "acc", 0, 8)
    fb.malloc("q", "big")
    fb.store("q", "v", 4992, 8)
    fb.addi("i", "i", 1)
    fb.jmp("top")
    fb.label("done")
    fb.output("acc")
    fb.halt()
    pb.add(fb)
    return pb.build()


_LOOP_TOKENS = {
    "halt": (1, 2, 3, 4, 5, 6),
    "input": (1, 2, 3),
    "fault": (1, 2, 3, 2 ** 40, 5, 6),
}

_SPILL = re.compile(r"loc\[(\d+)\] = s\1")
_LOAD = re.compile(r"s(\d+) = loc\[\1\]")


@pytest.mark.parametrize("reason", sorted(_LOOP_TOKENS))
def test_promoted_loop_exits_match_reference(reason):
    """Every exit of a promoted loop -- branch exit, input exhaustion,
    fault freeze and, through every chunk size up to three bodies, the
    budget stop -- leaves the frame, heap and counters of the
    reference, with tracing on and off."""
    vmc.clear_cache()
    program = promoted_exit_program()
    tokens = _LOOP_TOKENS[reason]
    m = machine_for(program, tokens)
    assert m.run().reason.value == reason
    cf = vmc.compiled_for(program).functions["main"]
    (entry, src), = [(pc, src) for pc, src in cf.sources.items()
                     if "while True:" in src]
    for piece in ("inp.next()", "ext.malloc(", "_st8("):
        assert piece in src
    assert len(set(_SPILL.findall(src))) >= 3
    body = len(cf.block_plan(entry)[0])
    for trace in (False, True):
        whole, reasons = run_differential(program, tokens, trace=trace)
        assert reasons[-1].value == reason
        for chunks in range(1, 3 * body + 1):
            chunked, reasons = run_differential(program, tokens,
                                                trace=trace,
                                                chunks=chunks)
            assert reasons[-1].value == reason
            assert chunked == whole


def lean_loop_program(size):
    """A closed loop with no MALLOC, so its prologue holds the heap
    length: each iteration stores a ``size``-byte word at ``p + off +
    i`` and loads it back, for i from 0 to 3.  The MALLOC maps three
    pages, and ``p`` is 16 bytes into them.  With ``off`` = 8172 the
    words cross from page 1 into page 2, which nothing else dirties;
    with ``off`` = 12271 - ``size`` the third iteration's STORE ends
    one byte past the mapping."""
    pb = ProgramBuilder()
    fb = pb.function("main")
    fb.const("sz", 12000)
    fb.malloc("p", "sz")
    fb.input("off")
    fb.binop("+", "p", "p", "off")
    fb.const("i", 0)
    fb.const("n", 4)
    fb.const("acc", 0)
    fb.label("top")
    fb.binop("+", "a", "p", "i")
    fb.store("a", "i", 0, size)
    fb.load("v", "a", 0, size)
    fb.binop("+", "acc", "acc", "v")
    fb.addi("i", "i", 1)
    fb.binop("<", "t", "i", "n")
    fb.jnz("t", "top")
    fb.output("acc")
    fb.halt()
    pb.add(fb)
    return pb.build()


@pytest.mark.parametrize("size", (1, 2, 4, 8))
@pytest.mark.parametrize("reason", ("halt", "fault"))
def test_lean_loop_matches_reference(size, reason):
    """A loop that holds the heap length, its budget bound and its
    sim-time per iteration in the prologue leaves the reference's frame,
    heap, dirty pages and counters at the halt, at the fault and at
    every budget stop."""
    vmc.clear_cache()
    program = lean_loop_program(size)
    tokens = (8172 if reason == "halt" else 12271 - size,)
    m = machine_for(program, tokens)
    assert m.run().reason.value == reason
    if reason == "halt":
        assert (size > 1) == (2 in m.mem.dirty_pages)
    else:
        assert m.fault.address == m.mem.brk - size + 1
    cf = vmc.compiled_for(program).functions["main"]
    (entry, src), = [(pc, src) for pc, src in cf.sources.items()
                     if "while True:" in src]
    assert "_mlen = len(mbuf)" in src and "len(mbuf):" not in src
    body = len(cf.block_plan(entry)[0])
    for trace in (False, True):
        whole, reasons = run_differential(program, tokens, trace=trace)
        assert reasons[-1].value == reason
        for chunks in range(1, 2 * body + 1):
            chunked, reasons = run_differential(program, tokens,
                                                trace=trace,
                                                chunks=chunks)
            assert reasons[-1].value == reason
            assert chunked == whole


def straight_line_exit_program():
    """One straight-line block, and the slots of three of its locals:
    ``e`` is assigned before anything can leave the block, ``a`` is
    read before it is written, and ``b`` is written after an IN that
    can exhaust the input.  A first token of 2**40 sends the LOAD past
    the mapping (a SegmentationFault after ``a`` and ``b`` are
    written); one token exhausts the input at the second IN."""
    pb = ProgramBuilder()
    fb = pb.function("main")
    fb.addi("e", "a", 5)
    fb.const("sz", 64)
    fb.malloc("p", "sz")
    fb.input("v")
    fb.binop("+", "a", "a", "v")
    fb.mov("b", "v")
    fb.binop("+", "x", "p", "v")
    fb.load("c", "x", 0, 8)
    fb.input("w")
    fb.binop("+", "d", "c", "w")
    fb.output("d")
    fb.output("e")
    fb.halt()
    slots = {name: fb.local(name) for name in ("a", "b", "e")}
    pb.add(fb)
    return pb.build(), slots


_LINE_TOKENS = {
    "halt": (8, 16),
    "input": (8,),
    "input_first": (),
    "fault": (2 ** 40, 16),
}


@pytest.mark.parametrize("case", sorted(_LINE_TOKENS))
def test_straight_line_exits_match_reference(case):
    """A straight-line block loads a slot only when it reads it, or an
    exit may store it back, before assigning it; every exit -- halt,
    input exhaustion before and after its writes, fault freeze and, at
    every chunk size, the stepped tail -- matches the reference."""
    vmc.clear_cache()
    program, slots = straight_line_exit_program()
    cf = vmc.compiled_for(program).functions["main"]
    cf.block(0)
    src = cf.sources[0]
    assert "while True:" not in src
    for name, loaded in (("a", True), ("b", True), ("e", False)):
        n = slots[name]
        assert (f"s{n} = loc[{n}]" in src) == loaded, name
        assert f"loc[{n}] = s{n}" in src, name
    tokens = _LINE_TOKENS[case]
    reason = case.split("_")[0]
    body = len(cf.block_plan(0)[0])
    for trace in (False, True):
        whole, reasons = run_differential(program, tokens, trace=trace)
        assert reasons[-1].value == reason
        for chunks in range(1, body + 2):
            chunked, reasons = run_differential(program, tokens,
                                                trace=trace,
                                                chunks=chunks)
            assert reasons[-1].value == reason
            assert chunked == whole


def _compile_every_entry(program):
    """A fresh, uncached compilation of every block a run can enter:
    function entries, branch targets and fall-throughs, CALL return
    points and JMP targets."""
    unit = vmc.CompiledProgram(program)
    for cf in unit.functions.values():
        entries = {0}
        for pc, instr in enumerate(cf.code):
            if instr[0] in (isa.JZ, isa.JNZ):
                entries.update((instr[2], pc + 1))
            elif instr[0] == isa.CALL:
                entries.add(pc + 1)
            elif instr[0] == isa.JMP:
                entries.add(instr[1])
        for pc in sorted(entries):
            cf.block(pc)
    return unit


@pytest.mark.parametrize("app", real_bug_apps(), ids=lambda a: a.name)
def test_app_sources_use_struct_access_and_promoted_slots(app):
    unit = _compile_every_entry(app.program())
    loops = 0
    for cf in unit.functions.values():
        for src in cf.sources.values():
            assert "from_bytes" not in src and "to_bytes" not in src
            lines = [line.strip() for line in src.splitlines()]
            # frame.locals is read only by the prologue's slot loads
            # and stored to only by the exits' spills.  The budget
            # stop, the first code after the prologue in both block
            # forms, opens with this line.
            body = lines.index("vm.instr_count = _ic")
            for i, line in enumerate(lines):
                if "loc[" in line and not _SPILL.fullmatch(line):
                    assert i < body and _LOAD.fullmatch(line), line
            loops += "while True:" in lines
    assert loops >= 1


# ---------------------------------------------------------------------------
# the seven apps, stepped at every budget
# ---------------------------------------------------------------------------

#: Instructions of each app's spaced workload the stepping test runs:
#: enough for five of the seven to reach their first fault.
STEPPED_PREFIX = 25000


@pytest.mark.parametrize("app", real_bug_apps(), ids=lambda a: a.name)
def test_app_stepped_at_each_budget_matches_whole_run(app):
    """Each app on a prefix of its spaced workload, run in budgets of
    1, 3 and 7 instructions, ends where one unstepped run and the
    oracle end: most budget stops land inside a block, where the run
    loop steps the tail with one-instruction closures.  Compared:
    instruction count, clock, outputs, fault identity and the process
    snapshot."""
    program = app.program()
    tokens = spaced_workload(app).tokens

    def run(k=None):
        process = Process(program, input_tokens=tokens)
        m = process.machine
        while m.instr_count < STEPPED_PREFIX:
            result = m.run(stop_at=STEPPED_PREFIX, max_steps=k)
            if result.reason is not RunReason.STOP:
                break
        return dict(observe(m), allocator=process.allocator.snapshot())

    whole = run()
    with reference_tier():
        assert run() == whole
    for k in (1, 3, 7):
        assert run(k) == whole, k
