"""Template-JIT VM speed: kernel throughput and end-to-end recovery.

The compiled tier (:mod:`repro.vm.compile`, the machine's one tier)
exists to make the thousands of re-executions a recovery performs
cheap.  Its reference side is the switch interpreter it replaced, kept
as the oracle in ``tests/reference_machine.py`` and installed for a
``with`` block by ``reference_tier()``.  Three claims, measured here:

1. **Kernel throughput** -- block-compiled dispatch with
   superinstruction fusion executes straight-line bytecode kernels at
   >= 10x the reference interpreter's instructions/second (warm cache,
   i.e. the re-execution case the tier exists for; the cold number,
   which includes compilation, is reported alongside).
2. **End-to-end recovery speedup** -- across the application suite,
   total recovery wall-clock drops by >= 3x when every re-execution
   (diagnosis probes, validation runs, chaos re-executions) runs on
   the compiled tier.
3. **Equivalence** -- every session digest is byte-identical between
   tiers, *including* the simulated-clock fields (``clock_ns``,
   recovery/validation sim time): the compiled tier changes how fast
   the host executes, never what the simulation observes.  Validation
   runs trace accesses, so this also proves the compiled tier's access
   watch against the oracle's ``note_access`` on every access.

Also reported: fusion statistics (constant folds, compare+branch
fusions, threaded jumps, closed loops, promoted slots) and the
program-cache hit behaviour across Machine instances.

Runnable as a script::

    python benchmarks/bench_vm_speed.py           # full run, writes
                                                  # BENCH_vm.json
    python benchmarks/bench_vm_speed.py --quick   # CI mode: smaller
                                                  # kernels, 5x floor,
                                                  # 2-app equivalence
"""

import argparse
import json
import os
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if _ROOT not in sys.path:  # the oracle, tests/reference_machine.py
    sys.path.insert(0, _ROOT)
if __name__ == "__main__":  # script mode without PYTHONPATH=src
    sys.path.insert(0, os.path.join(_ROOT, "src"))

from repro.apps.registry import all_apps
from repro.bench.harness import host_info, run_app_session
from repro.heap.allocator import LeaAllocator
from repro.heap.base import Memory
from repro.heap.extension import AllocatorExtension, ExtensionMode
from repro.vm import compile as vmc
from repro.vm.builder import ProgramBuilder
from repro.vm.io import OutputLog, ReplayableInput
from repro.vm.machine import Machine
from tests.reference_machine import SIDES, reference_tier

#: Warm-cache kernel speedup the full benchmark requires (ISSUE gate).
KERNEL_GATE = 10.0
#: CI floor (--quick): smaller kernels on a shared, noisy runner.
QUICK_KERNEL_GATE = 5.0
#: End-to-end recovery wall-clock speedup over the app suite.
E2E_GATE = 3.0

#: Apps the quick mode checks for cross-tier equivalence.
QUICK_APPS = ("apache", "bc")


# ---------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------

def straight_line_kernel(iters: int):
    """A loop whose body is 64 unrolled ALU instructions: measures
    dispatch + operand-decode elimination on straight-line code."""
    pb = ProgramBuilder("k_straight")
    fb = pb.function("main")
    fb.const("i", 0)
    fb.const("n", iters)
    fb.const("a", 7)
    fb.const("b", 13)
    fb.label("top")
    for _ in range(16):
        fb.binop("+", "a", "a", "b")
        fb.binop("^", "b", "b", "a")
        fb.binop("*", "a", "a", "b")
        fb.binop(">>", "b", "a", "i")
    fb.addi("i", "i", 1)
    fb.binop("<", "t", "i", "n")
    fb.jnz("t", "top")
    fb.output("a")
    fb.halt()
    pb.add(fb)
    return pb.build()


def tight_loop_kernel(iters: int):
    """The minimal 3-instruction counting loop: worst case for
    per-iteration overhead, best case for loop closing."""
    pb = ProgramBuilder("k_loop")
    fb = pb.function("main")
    fb.const("i", iters)
    fb.label("top")
    fb.addi("i", "i", -1)
    fb.jnz("i", "top")
    fb.output("i")
    fb.halt()
    pb.add(fb)
    return pb.build()


def memory_kernel(iters: int):
    """A store/load sweep over a heap buffer: measures the inlined
    memory fast path (bounds check, byte codec, dirty marking)."""
    pb = ProgramBuilder("k_mem")
    fb = pb.function("main")
    fb.const("sz", 4096)
    fb.malloc("p", "sz")
    fb.const("i", 0)
    fb.const("n", iters)
    fb.const("m", 511)
    fb.label("top")
    fb.binop("&", "k", "i", "m")
    fb.binop("+", "addr", "p", "k")
    fb.store("addr", "i", 0, 8)
    fb.load("v", "addr", 0, 8)
    fb.binop("+", "acc", "acc", "v")
    fb.addi("i", "i", 1)
    fb.binop("<", "t", "i", "n")
    fb.jnz("t", "top")
    fb.free("p")
    fb.output("acc")
    fb.halt()
    pb.add(fb)
    return pb.build()


def byte_store_kernel(iters: int):
    """Apache ``handle_static``'s loop, op for op: a byte store per
    iteration into a 256-byte buffer at ``i % 256`` and a running sum,
    through the temporaries the MiniC compiler emits (``t1``, ``t2``)."""
    pb = ProgramBuilder("k_bstore")
    fb = pb.function("main")
    fb.const("sz", 256)
    fb.malloc("p", "sz")
    fb.const("i", 0)
    fb.const("n", iters)
    fb.const("acc", 0)
    fb.label("top")
    fb.binop("<", "t2", "i", "n")
    fb.jz("t2", "done")
    fb.const("t2", 256)
    fb.binop("%", "t1", "i", "t2")
    fb.binop("+", "t2", "p", "t1")
    fb.store("t2", "i", 0, 1)
    fb.const("t2", 0)
    fb.binop("+", "t2", "acc", "i")
    fb.mov("acc", "t2")
    fb.const("t2", 1)
    fb.binop("+", "t1", "i", "t2")
    fb.mov("i", "t1")
    fb.jmp("top")
    fb.label("done")
    fb.free("p")
    fb.output("acc")
    fb.halt()
    pb.add(fb)
    return pb.build()


def byte_sum_kernel(iters: int):
    """The ``checksum`` loop of cvs and squid, op for op: a byte load
    and add per iteration over a 512-byte buffer, through the MiniC
    compiler's temporaries; rerun ``iters // 512`` times."""
    pb = ProgramBuilder("k_bsum")
    fb = pb.function("main")
    fb.const("sz", 512)
    fb.malloc("p", "sz")
    fb.const("v", 7)
    fb.memset("p", "v", "sz")
    fb.const("r", max(1, iters // 512))
    fb.const("sum", 0)
    fb.label("outer")
    fb.const("i", 0)
    fb.label("top")
    fb.binop("<", "t", "i", "sz")
    fb.jz("t", "next")
    fb.binop("+", "t", "p", "i")
    fb.load("b", "t", 0, 1)
    fb.binop("+", "t", "sum", "b")
    fb.mov("sum", "t")
    fb.const("b", 1)
    fb.binop("+", "t", "i", "b")
    fb.mov("i", "t")
    fb.jmp("top")
    fb.label("next")
    fb.addi("r", "r", -1)
    fb.jnz("r", "outer")
    fb.free("p")
    fb.output("sum")
    fb.halt()
    pb.add(fb)
    return pb.build()


def call_kernel(iters: int):
    """A call-heavy loop: block cache hits across frames, CALL/RET
    transitions through the dispatcher."""
    pb = ProgramBuilder("k_call")
    f = pb.function("mix", params=("x",))
    f.addi("y", "x", 17)
    f.binop("^", "y", "y", "x")
    f.ret("y")
    pb.add(f)
    fb = pb.function("main")
    fb.const("i", iters)
    fb.const("acc", 0)
    fb.label("top")
    fb.call("r", "mix", ["i"])
    fb.binop("+", "acc", "acc", "r")
    fb.addi("i", "i", -1)
    fb.jnz("i", "top")
    fb.output("acc")
    fb.halt()
    pb.add(fb)
    return pb.build()


def _machine(program):
    mem = Memory()
    ext = AllocatorExtension(mem, LeaAllocator(mem),
                             ExtensionMode.DIAGNOSTIC)
    return Machine(program, mem, ext, ReplayableInput(), OutputLog())


def _timed_run(program, tier):
    """(instructions/second, wall seconds, final machine) for one
    complete run on a fresh Machine."""
    m = _machine(program)
    with SIDES[tier]():
        t0 = time.perf_counter()
        m.run()
        wall = time.perf_counter() - t0
    return m.instr_count / wall if wall else 0.0, wall, m


def kernel_bench(scale: int) -> dict:
    """Reference vs compiled throughput on each kernel.  The compiled
    tier is measured twice: cold (first Machine, includes block
    compilation) and warm (second Machine, pure cache hit -- the
    re-execution case)."""
    kernels = {
        "straight_line": straight_line_kernel(scale),
        "tight_loop": tight_loop_kernel(scale * 20),
        "memory": memory_kernel(scale * 4),
        "byte_store": byte_store_kernel(scale * 4),
        "byte_sum": byte_sum_kernel(scale * 4),
        "calls": call_kernel(scale * 4),
    }
    vmc.clear_cache()
    out = {}
    for name, program in kernels.items():
        ref_ips, ref_wall, ref_m = _timed_run(program, "reference")
        cold_ips, cold_wall, _ = _timed_run(program, "compiled")
        warm_ips, warm_wall, cmp_m = _timed_run(program, "compiled")
        assert cmp_m.instr_count == ref_m.instr_count, name
        assert cmp_m.output.entries() == ref_m.output.entries(), name
        assert cmp_m.clock.now_ns == ref_m.clock.now_ns, name
        out[name] = {
            "instructions": ref_m.instr_count,
            "reference_ips": ref_ips,
            "compiled_cold_ips": cold_ips,
            "compiled_warm_ips": warm_ips,
            "speedup_cold": cold_ips / ref_ips if ref_ips else 0.0,
            "speedup_warm": warm_ips / ref_ips if ref_ips else 0.0,
            "reference_wall_s": ref_wall,
            "compiled_warm_wall_s": warm_wall,
        }
    return out


def cache_bench() -> dict:
    """Cross-Machine program-cache behaviour: N machines over the same
    program compile once and bind N times."""
    vmc.clear_cache()
    program = tight_loop_kernel(1000)
    machines = [_machine(program) for _ in range(8)]
    for m in machines:
        m.run()
    unit = vmc.compiled_for(program)
    return {
        "machines": len(machines),
        "cache_entries": vmc.cache_size(),
        "binds": unit.binds,
        "fusion": unit.stats.as_dict(),
    }


# ---------------------------------------------------------------------
# end-to-end suite
# ---------------------------------------------------------------------

def app_names():
    return [app.name for app in all_apps()]


def e2e_bench(names=None) -> dict:
    """Each app session under both tiers: behaviour AND simulated
    timing must be byte-identical; wall clock is the speedup metric."""
    names = list(names) if names is not None else app_names()
    per_app = {}
    total_ref_wall = total_cmp_wall = 0.0
    rec_ref_wall = rec_cmp_wall = 0.0
    identical = True
    for name in names:
        with reference_tier():
            ref = run_app_session(name)
        cmp_ = run_app_session(name)
        behavior = ref.equivalence_key() == cmp_.equivalence_key()
        sim_time = (ref.clock_ns == cmp_.clock_ns
                    and ref.recovery_time_ns == cmp_.recovery_time_ns
                    and ref.validation_time_ns == cmp_.validation_time_ns)
        identical &= behavior and sim_time
        rr, rc = sum(ref.recovery_wall_s), sum(cmp_.recovery_wall_s)
        total_ref_wall += ref.wall_s
        total_cmp_wall += cmp_.wall_s
        rec_ref_wall += rr
        rec_cmp_wall += rc
        per_app[name] = {
            "behavior_identical": behavior,
            "sim_time_identical": sim_time,
            "reference_wall_s": ref.wall_s,
            "compiled_wall_s": cmp_.wall_s,
            "reference_recovery_wall_s": rr,
            "compiled_recovery_wall_s": rc,
            "recovery_speedup": rr / rc if rc else 0.0,
        }
    return {
        "apps": names,
        "identical": identical,
        "per_app": per_app,
        "total_wall_s": {"reference": total_ref_wall,
                         "compiled": total_cmp_wall},
        "total_recovery_wall_s": {"reference": rec_ref_wall,
                                  "compiled": rec_cmp_wall},
        "session_speedup": (total_ref_wall / total_cmp_wall
                            if total_cmp_wall else 0.0),
        "recovery_speedup": (rec_ref_wall / rec_cmp_wall
                             if rec_cmp_wall else 0.0),
    }


# ---------------------------------------------------------------------
# pytest entry points
# ---------------------------------------------------------------------

def test_kernel_throughput(once):
    kernels = once(kernel_bench, 6000)
    sl = kernels["straight_line"]
    assert sl["speedup_warm"] >= KERNEL_GATE, \
        f"straight-line {sl['speedup_warm']:.1f}x < {KERNEL_GATE}x"
    for name, k in kernels.items():
        assert k["speedup_warm"] > 1.0, \
            f"{name}: compiled slower than reference"


def test_program_cache_compiles_once(once):
    stats = once(cache_bench)
    assert stats["cache_entries"] == 1
    assert stats["binds"] == stats["machines"]
    assert stats["fusion"]["closed_loops"] >= 1


def test_end_to_end_equivalence_and_speedup(once):
    e2e = once(e2e_bench)
    assert e2e["identical"], \
        "compiled tier diverged from reference on an app session"
    assert e2e["recovery_speedup"] >= E2E_GATE, \
        (f"recovery wall speedup {e2e['recovery_speedup']:.2f}x "
         f"< {E2E_GATE}x")


# ---------------------------------------------------------------------
# script mode
# ---------------------------------------------------------------------

def _render_kernels(kernels: dict) -> str:
    lines = ["kernel         ref Minstr/s  warm Minstr/s  "
             "cold x   warm x"]
    for name, k in kernels.items():
        lines.append(
            f"{name:<14} {k['reference_ips'] / 1e6:>11.2f}  "
            f"{k['compiled_warm_ips'] / 1e6:>12.2f}  "
            f"{k['speedup_cold']:>6.1f}  {k['speedup_warm']:>6.1f}")
    return "\n".join(lines)


def _render_e2e(e2e: dict) -> str:
    lines = ["app          identical  rec wall ref->cmp    speedup"]
    for name, a in e2e["per_app"].items():
        same = a["behavior_identical"] and a["sim_time_identical"]
        lines.append(
            f"{name:<12} {'yes' if same else 'NO':<9} "
            f"{a['reference_recovery_wall_s']:>7.2f}s ->"
            f"{a['compiled_recovery_wall_s']:>6.2f}s "
            f"{a['recovery_speedup']:>8.2f}x")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Template-JIT VM speed benchmark")
    parser.add_argument("--quick", action="store_true",
                        help="CI mode: small kernels with a "
                        f"{QUICK_KERNEL_GATE}x floor and a 2-app "
                        "equivalence check; no JSON output")
    parser.add_argument("--out", default="BENCH_vm.json")
    args = parser.parse_args(argv)

    if args.quick:
        kernels = kernel_bench(1500)
        print(_render_kernels(kernels))
        sl = kernels["straight_line"]["speedup_warm"]
        e2e = e2e_bench(QUICK_APPS)
        print(_render_e2e(e2e))
        ok = sl >= QUICK_KERNEL_GATE and e2e["identical"]
        print(f"\nstraight-line warm speedup {sl:.1f}x "
              f"(floor {QUICK_KERNEL_GATE}x); equivalence: "
              f"{'identical' if e2e['identical'] else 'DIVERGED'}")
        return 0 if ok else 1

    kernels = kernel_bench(6000)
    cache = cache_bench()
    e2e = e2e_bench()
    print(_render_kernels(kernels))
    print()
    print(_render_e2e(e2e))
    sl = kernels["straight_line"]["speedup_warm"]
    gate_passed = (sl >= KERNEL_GATE and e2e["identical"]
                   and e2e["recovery_speedup"] >= E2E_GATE)
    payload = {
        "benchmark": "vm_speed",
        "metric_note": (
            "warm kernel numbers are the re-execution case (program "
            "cache hit); end-to-end compares full First-Aid sessions "
            "per tier -- behaviour and simulated clocks are asserted "
            "byte-identical (validation runs: the compiled tier's "
            "access watch against a note_access call per access), "
            "wall clock is the speedup"),
        "host": host_info(),
        "kernels": kernels,
        "program_cache": cache,
        "end_to_end": e2e,
        "kernel_gate": KERNEL_GATE,
        "e2e_gate": E2E_GATE,
        "gate_passed": gate_passed,
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    print(f"\nstraight-line warm {sl:.1f}x (gate {KERNEL_GATE}x); "
          f"recovery wall {e2e['recovery_speedup']:.2f}x "
          f"(gate {E2E_GATE}x); identical: {e2e['identical']}")
    print(f"wrote {args.out}")
    return 0 if gate_passed else 1


if __name__ == "__main__":
    sys.exit(main())
