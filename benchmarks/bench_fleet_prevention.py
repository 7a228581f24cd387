"""Fleet-wide prevention benchmark: the paper's system-wide claim.

Measures and gates the two halves of ISSUE 4's acceptance criteria
over the shared patch store (``repro.store``, DESIGN.md §9):

1. **Cross-process prevention** -- N OS processes share one store.
   After process 1 diagnoses, validates, and publishes its patch,
   processes 2..N run the same buggy workload and must suffer zero
   failures at the patched call-site, with the patch demonstrably
   firing there (trigger counts > 0).  Plus a deterministic *live
   pickup* scenario: a follower that started before the publish
   absorbs the patch mid-run via the periodic boundary refresh.

2. **Fault storm** -- injected store faults (torn writes from dying
   publishers, stale locks, corrupt payloads) must lose zero validated
   patches, exercising lock breaking, corruption quarantine, and
   backup recovery.

Runnable as a script::

    python benchmarks/bench_fleet_prevention.py                # full:
                                                               # 4 procs, 100 faults
    python benchmarks/bench_fleet_prevention.py --procs 2 --faults 40
                                                               # reduced CI mode

Writes ``BENCH_fleet.json`` and exits non-zero when any gate fails.
"""

import argparse
import json
import os
import sys
import tempfile

if __name__ == "__main__":  # script mode without PYTHONPATH=src
    sys.path.insert(0, os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.bench.fleet import (
    FleetRunResult,
    run_fault_storm,
    run_fleet,
    run_live_pickup,
)

#: Default fleet apps: one per bug family exercised end-to-end (every
#: app costs one full leader diagnosis plus procs-1 follower runs).
DEFAULT_APPS = ("bc", "m4", "squid")

DEFAULT_PROCS = 4
DEFAULT_FAULTS = 100


def _process_row(role: str, digest) -> dict:
    return {
        "role": role,
        "pid": digest.pid,
        "reason": digest.reason,
        "recoveries": digest.recoveries,
        "survived": digest.survived,
        "patches": digest.patches,
        "validated_patches": digest.validated_patches,
        "patched_triggers": digest.patched_triggers,
        "wall_s": digest.wall_s,
    }


def _fleet_row(result: FleetRunResult) -> dict:
    return {
        "procs": result.procs,
        "leader": _process_row("leader", result.leader),
        "followers": [_process_row("follower", f)
                      for f in result.followers],
        "follower_failures": sum(f.recoveries for f in result.followers),
        "followers_prevented": result.followers_prevented,
        "store_generation": result.store_generation,
        "store_patches": result.store_patches,
        "store_validated": result.store_validated,
        "store_max_trigger": result.store_max_trigger,
        "gate_passed": result.gate_passed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("out", nargs="?", default="BENCH_fleet.json")
    parser.add_argument("--procs", type=int, default=DEFAULT_PROCS,
                        help="fleet size per app (leader + followers)")
    parser.add_argument("--faults", type=int, default=DEFAULT_FAULTS,
                        help="injected store faults in the storm")
    parser.add_argument("--apps", nargs="*", default=list(DEFAULT_APPS))
    args = parser.parse_args(argv)

    fleets = {}
    pickups = {}
    with tempfile.TemporaryDirectory(prefix="fleet-bench-") as tmp:
        for app in args.apps:
            store_path = os.path.join(tmp, f"{app}.store.json")
            print(f"[fleet] {app}: {args.procs} processes, "
                  f"one store ...")
            fleets[app] = run_fleet(app, store_path, procs=args.procs)
            row = fleets[app]
            print(f"[fleet] {app}: leader recoveries="
                  f"{row.leader.recoveries}, follower failures="
                  f"{sum(f.recoveries for f in row.followers)}, "
                  f"prevented={row.followers_prevented}")
        pickup_app = args.apps[0]
        print(f"[pickup] {pickup_app}: live mid-run absorption ...")
        pickups[pickup_app] = run_live_pickup(
            pickup_app, os.path.join(tmp, "pickup.store.json"))
        print(f"[storm] {args.faults} injected faults ...")
        storm = run_fault_storm(
            os.path.join(tmp, "storm.store.json"), faults=args.faults)
    print(f"[storm] fired={storm.faults_fired} "
          f"validated_lost={storm.validated_lost} "
          f"quarantined={storm.quarantined_files} "
          f"backup_recoveries={storm.backup_recoveries}")

    fleet_gate = all(f.gate_passed for f in fleets.values())
    pickup_gate = all(p.gate_passed for p in pickups.values())
    gate_passed = fleet_gate and pickup_gate and storm.gate_passed
    payload = {
        "benchmark": "fleet_prevention",
        "apps": list(args.apps),
        "procs": args.procs,
        "fleet": {app: _fleet_row(r) for app, r in fleets.items()},
        "live_pickup": {
            app: {
                "picked_up_at_generation": p.picked_up_at_generation,
                "follower_recoveries": p.follower_recoveries,
                "follower_reason": p.follower_reason,
                "follower_triggers": p.follower_triggers,
                "gate_passed": p.gate_passed,
            } for app, p in pickups.items()},
        "fault_storm": {
            "faults_requested": storm.faults_requested,
            "faults_fired": storm.faults_fired,
            "validated_patches": storm.validated_patches,
            "validated_lost": storm.validated_lost,
            "publishes_survived": storm.publishes_survived,
            "quarantined_files": storm.quarantined_files,
            "backup_recoveries": storm.backup_recoveries,
            "stale_locks_broken": storm.stale_locks_broken,
            "final_generation": storm.final_generation,
            "wall_s": storm.wall_s,
            "gate_passed": storm.gate_passed,
        },
        "gates": {
            "fleet_prevention": fleet_gate,
            "live_pickup": pickup_gate,
            "fault_storm": storm.gate_passed,
        },
        "gate_passed": gate_passed,
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    print(f"\nfleet prevention gate: {fleet_gate}; "
          f"live pickup gate: {pickup_gate}; "
          f"fault storm gate: {storm.gate_passed}")
    print(f"wrote {args.out}")
    return 0 if gate_passed else 1


if __name__ == "__main__":
    sys.exit(main())
