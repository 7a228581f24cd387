"""Degradation-ladder benchmark: survive a cross-layer fault storm.

Runs the randomized chaos storm (``repro.chaos.storm``) over the
real-bug apps: every session has faults armed at the checkpoint,
diagnosis, worker, monitor, and validation layers, and the recovery
supervisor must degrade gracefully through the ladder (targeted patch
-> prevent-all -> plain rollback -> restart) instead of dying.

Gates:

1. **No escapes** -- zero unhandled exceptions escape
   ``FirstAidRuntime.run`` across every supervised session.
2. **Fault floor** -- at least ``--faults`` injected faults actually
   fired (armed faults that never got a chance to fire do not count).
3. **Everyone survives** -- every supervised session recovers or
   cleanly restarts (no ``died``, no give-ups).
4. **The ladder earns its keep** -- supervised survival rate is
   *strictly* higher than the supervisor-disabled baseline run on the
   identical fault schedule.

Runnable as a script::

    python benchmarks/bench_degradation.py               # full storm
    python benchmarks/bench_degradation.py --faults 12 --apps bc m4
                                                         # reduced CI mode

Writes ``BENCH_degradation.json`` and exits non-zero when any gate
fails.
"""

import argparse
import json
import os
import sys

if __name__ == "__main__":  # script mode without PYTHONPATH=src
    sys.path.insert(0, os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.bench.harness import host_info
from repro.chaos.storm import StormResult, run_storm

DEFAULT_FAULTS = 50


def _session_row(s) -> dict:
    return {
        "app": s.app,
        "seed": s.seed,
        "supervised": s.supervised,
        "armed": s.armed,
        "fired": s.fired,
        "reason": s.reason,
        "recoveries": s.recoveries,
        "rungs": list(s.rungs),
        "restarts": s.restarts,
        "gave_up": s.gave_up,
        "survived": s.survived,
        "unhandled": s.unhandled,
        "worker_timeouts": s.worker_timeouts,
        "wall_s": s.wall_s,
    }


def gates(result: StormResult, min_faults: int) -> dict:
    return {
        "zero_unhandled": result.unhandled == 0,
        "fault_floor": result.faults_fired >= min_faults,
        "all_survived": all(s.survived for s in result.sessions),
        "beats_baseline":
            result.survival_rate > result.baseline_survival_rate,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("out", nargs="?", default="BENCH_degradation.json")
    parser.add_argument("--faults", type=int, default=DEFAULT_FAULTS,
                        help="minimum injected faults that must fire")
    parser.add_argument("--apps", nargs="*", default=None,
                        help="subset of real-bug apps (default: all 7)")
    args = parser.parse_args(argv)

    print(f"[storm] fault floor {args.faults}, "
          f"apps {args.apps or 'all'} ...")
    result = run_storm(apps=args.apps, min_faults=args.faults)
    checks = gates(result, args.faults)

    payload = {
        "benchmark": "degradation_ladder",
        "host": host_info(),
        "faults_requested": args.faults,
        "faults_armed": result.faults_armed,
        "faults_fired": result.faults_fired,
        "fired_by_kind": result.fired_by_kind,
        "rung_histogram": {str(k): v
                           for k, v in sorted(result.rung_histogram
                                              .items())},
        "supervised_sessions": len(result.sessions),
        "unhandled": result.unhandled,
        "survival_rate": result.survival_rate,
        "baseline_sessions": len(result.baseline),
        "baseline_survival_rate": result.baseline_survival_rate,
        "wall_s": result.wall_s,
        "sessions": [_session_row(s) for s in result.sessions],
        "baseline": [_session_row(s) for s in result.baseline],
        "gates": checks,
        "gate_passed": all(checks.values()),
    }
    with open(args.out, "w") as handle:
        json.dump(payload, handle, indent=2)

    print(f"fired {result.faults_fired} faults "
          f"({result.fired_by_kind}) across "
          f"{len(result.sessions)} supervised sessions "
          f"in {result.wall_s:.1f}s")
    print(f"rung histogram: {result.rung_histogram}")
    print(f"survival: supervised {result.survival_rate:.0%} vs "
          f"baseline {result.baseline_survival_rate:.0%}; "
          f"unhandled: {result.unhandled}")
    for name, ok in checks.items():
        print(f"  gate {name}: {'PASS' if ok else 'FAIL'}")
    print(f"wrote {args.out}")
    return 0 if payload["gate_passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
