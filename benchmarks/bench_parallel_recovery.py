"""Parallel recovery engine: backend equivalence and speedup.

The parallel engine (``FirstAidConfig.workers``, DESIGN.md §8) fans
diagnosis probes and validation re-executions out across worker
processes.  Two claims, measured over the seven real-bug applications:

1. **Equivalence** -- diagnoses, patches, validation verdicts, and the
   rendered bug reports (timestamps redacted) are byte-identical
   between the serial backend and the fork backend at every worker
   count.  Parallelism changes *when* work happens, never *what* is
   concluded.
2. **Speedup** -- the simulated validation time (the paper's spare-core
   metric: a batch costs its busiest worker lane, ``schedule_ns``)
   drops by >= 1.8x with 4 workers, and the simulated recovery time
   (Table 3) never regresses.

Honest labeling: *real* wall-clock parallel speedup needs a core per
worker; with fewer cores the forked workers time-share them.  The
record's ``host`` object names the cores the run had (``cpus``) and
its ``metric_note`` is built from it.  Wall times are reported for
completeness; the speedup gate applies to the deterministic simulated
metric, which is what the paper's Tables 3/5 spare-core accounting
models.

Also included: the call-site hash-consing micro-benchmark (interning
bounds the table by distinct sites and makes cross-process transfer
canonical).

Runnable as a script::

    python benchmarks/bench_parallel_recovery.py              # full run,
                                                              # writes BENCH_parallel.json
    python benchmarks/bench_parallel_recovery.py --workers 2  # CI mode:
                                                              # equivalence gate only
"""

import argparse
import json
import os
import pickle
import sys
import time

if __name__ == "__main__":  # script mode without PYTHONPATH=src
    sys.path.insert(0, os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.apps.registry import real_bug_apps
from repro.bench.harness import host_info, run_app_session
from repro.util.callsite import CallSite, interned_count

#: Simulated validation speedup required at the highest worker count.
SPEEDUP_GATE = 1.8

WORKER_COUNTS = (1, 2, 4)

#: Distinct frame tuples and total constructions for the intern
#: micro-benchmark (a program has few sites, hit many times).
INTERN_SITES = 64
INTERN_OPS = 50_000

_RESULTS = None


def app_names():
    return [app.name for app in real_bug_apps()]


def parallel_recovery() -> dict:
    """Digest every app under every worker count (cached)."""
    global _RESULTS
    if _RESULTS is not None:
        return _RESULTS
    results = {}
    for name in app_names():
        results[name] = {w: run_app_session(name, workers=w)
                         for w in WORKER_COUNTS}
    _RESULTS = results
    return results


def _totals(digests: dict, workers: int):
    """(validation sim ns, recovery sim ns, wall s) summed over apps."""
    val = sum(sum(d[workers].validation_time_ns) for d in digests.values())
    rec = sum(sum(d[workers].recovery_time_ns) for d in digests.values())
    wall = sum(d[workers].wall_s for d in digests.values())
    return val, rec, wall


def metric_note(host: dict) -> str:
    """What the record's numbers mean on the host that measured them."""
    cpus = host["cpus"]
    note = ("speedups are on the simulated spare-core clock "
            "(max-over-workers, schedule_ns); wall times were measured "
            f"on {cpus} CPU core{'' if cpus == 1 else 's'} and are "
            "reported for reference only")
    if cpus < max(WORKER_COUNTS):
        note += ("; workers beyond the core count time-share cores, so "
                 "their wall-clock speedup does not track the simulated "
                 "one")
    return note


def callsite_intern_bench() -> dict:
    """Hash-consing: repeated captures of few distinct sites must not
    grow the table, and pickling must come back as the same object."""
    frames = [(("f%d" % (i % 8), i), ("g", i * 3), ("main", 7))
              for i in range(INTERN_SITES)]
    before = interned_count()
    t0 = time.perf_counter()
    for op in range(INTERN_OPS):
        CallSite.intern(frames[op % INTERN_SITES])
    intern_s = time.perf_counter() - t0
    added = interned_count() - before
    site = CallSite.intern(frames[0])
    round_trip = pickle.loads(pickle.dumps(site))
    return {
        "constructions": INTERN_OPS,
        "distinct_sites": INTERN_SITES,
        "table_growth": added,
        "intern_wall_s": intern_s,
        "ops_per_s": INTERN_OPS / intern_s if intern_s else 0.0,
        "pickle_roundtrip_is_same_object": round_trip is site,
    }


# ---------------------------------------------------------------------
# pytest entry points
# ---------------------------------------------------------------------

def test_backends_byte_identical(once):
    results = once(parallel_recovery)
    for name, per_worker in results.items():
        serial_key = per_worker[1].equivalence_key()
        for w in WORKER_COUNTS[1:]:
            assert per_worker[w].equivalence_key() == serial_key, \
                f"{name}: workers={w} diverged from serial"
            assert per_worker[w].worker_failures == 0, name


def test_simulated_validation_speedup(once):
    results = once(parallel_recovery)
    val1, _, _ = _totals(results, 1)
    val4, _, _ = _totals(results, 4)
    assert val4 > 0
    assert val1 / val4 >= SPEEDUP_GATE, \
        f"validation speedup {val1 / val4:.2f}x < {SPEEDUP_GATE}x"


def test_simulated_recovery_time_never_regresses(once):
    results = once(parallel_recovery)
    for name, per_worker in results.items():
        serial = per_worker[1].recovery_time_ns
        for w in WORKER_COUNTS[1:]:
            for i, ns in enumerate(per_worker[w].recovery_time_ns):
                assert ns <= serial[i], \
                    f"{name}: recovery {i} regressed at workers={w}"


def test_callsite_interning(once):
    stats = once(callsite_intern_bench)
    assert stats["table_growth"] <= INTERN_SITES
    assert stats["pickle_roundtrip_is_same_object"]


# ---------------------------------------------------------------------
# script mode
# ---------------------------------------------------------------------

def _render(results: dict) -> str:
    lines = ["app          sim validation ms (1/2/4 w)   "
             "sim recovery ms (1/2/4 w)    identical"]
    for name, per in results.items():
        vals = [sum(per[w].validation_time_ns) / 1e6
                for w in WORKER_COUNTS]
        recs = [sum(per[w].recovery_time_ns) / 1e6
                for w in WORKER_COUNTS]
        same = all(per[w].equivalence_key() == per[1].equivalence_key()
                   for w in WORKER_COUNTS)
        lines.append(
            f"{name:<12} {vals[0]:>8.1f} {vals[1]:>8.1f} {vals[2]:>8.1f}"
            f"   {recs[0]:>8.1f} {recs[1]:>8.1f} {recs[2]:>8.1f}"
            f"      {'yes' if same else 'NO'}")
    return "\n".join(lines)


def _equivalence_mode(workers: int) -> int:
    """CI gate: serial vs ``workers`` digests must match on every app."""
    failures = 0
    for name in app_names():
        serial = run_app_session(name, workers=1)
        parallel = run_app_session(name, workers=workers)
        same = parallel.equivalence_key() == serial.equivalence_key()
        print(f"{name:<12} workers={workers}: "
              f"{'identical' if same else 'DIVERGED'} "
              f"(sim validation {sum(serial.validation_time_ns) / 1e6:.1f}"
              f" -> {sum(parallel.validation_time_ns) / 1e6:.1f} ms, "
              f"rescued tasks: {parallel.worker_failures})")
        failures += 0 if same else 1
    if failures:
        print(f"\n{failures} app(s) diverged between backends")
    else:
        print(f"\nall {len(app_names())} apps byte-identical at "
              f"workers={workers}")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Parallel recovery engine benchmark")
    parser.add_argument("--workers", type=int, default=None, metavar="N",
                        help="equivalence-gate-only mode against N "
                        "workers (CI); omit for the full benchmark")
    parser.add_argument("--out", default="BENCH_parallel.json")
    args = parser.parse_args(argv)

    if args.workers is not None:
        return _equivalence_mode(args.workers)

    results = parallel_recovery()
    print(_render(results))
    val1, rec1, wall1 = _totals(results, 1)
    val2, rec2, wall2 = _totals(results, 2)
    val4, rec4, wall4 = _totals(results, 4)
    identical = all(
        per[w].equivalence_key() == per[1].equivalence_key()
        for per in results.values() for w in WORKER_COUNTS)
    intern = callsite_intern_bench()
    host = host_info()
    payload = {
        "benchmark": "parallel_recovery",
        "host": host,
        "apps": app_names(),
        "worker_counts": list(WORKER_COUNTS),
        "backends_byte_identical": identical,
        "metric_note": metric_note(host),
        "simulated_validation_ms": {
            "1": val1 / 1e6, "2": val2 / 1e6, "4": val4 / 1e6},
        "simulated_recovery_ms": {
            "1": rec1 / 1e6, "2": rec2 / 1e6, "4": rec4 / 1e6},
        "simulated_validation_speedup": {
            "2": val1 / val2 if val2 else 0.0,
            "4": val1 / val4 if val4 else 0.0},
        "simulated_recovery_speedup": {
            "2": rec1 / rec2 if rec2 else 0.0,
            "4": rec1 / rec4 if rec4 else 0.0},
        "real_wall_s": {"1": wall1, "2": wall2, "4": wall4},
        "speedup_gate": SPEEDUP_GATE,
        "gate_passed": identical and val4 > 0
        and val1 / val4 >= SPEEDUP_GATE,
        "callsite_intern": intern,
        "per_app": {
            name: {
                str(w): {
                    "simulated_validation_ms":
                        sum(per[w].validation_time_ns) / 1e6,
                    "simulated_recovery_ms":
                        sum(per[w].recovery_time_ns) / 1e6,
                    "wall_s": per[w].wall_s,
                    "recoveries": per[w].recoveries,
                    "verdicts": list(per[w].verdicts),
                } for w in WORKER_COUNTS}
            for name, per in results.items()},
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    print(f"\nvalidation speedup: {val1 / val2:.2f}x @2w, "
          f"{val1 / val4:.2f}x @4w (gate {SPEEDUP_GATE}x); "
          f"recovery: {rec1 / rec2:.2f}x @2w, {rec1 / rec4:.2f}x @4w; "
          f"identical: {identical}")
    print(f"wrote {args.out}")
    return 0 if payload["gate_passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
