"""Fleet health plane benchmark: visibility, determinism, resilience.

Measures and gates the fleet health telemetry plane (``repro.obs.health``,
DESIGN.md §12) end to end:

1. **Visibility** -- per app, a 4-process fleet (leader + followers)
   runs against one shared store; the aggregated health report must
   show every process that survived, the followers' preventive patch
   triggers, the leader's rung mix, and a time-to-first-patch for
   every patch the fleet produced.

2. **Determinism** -- the canonical report is byte-identical (a) for
   any shuffled beacon arrival order and (b) between the forked fleet
   and the same fleet run serially in one host process, which it can
   only be if beacons carry nothing host-dependent (no pids, no wall
   clock, no store-generation-coupled counts).

3. **Resilience** -- a health fault storm (torn writes, stale locks,
   corrupt files, stale beacons) must lose zero validated patches from
   the patch store next door, never raise out of the guarded health
   path, and leave an aggregatable channel behind.

4. **Overhead** -- publishing a beacon is a bounded cost: mean commit
   time under a generous ceiling (the commit fsyncs twice).

Runnable as a script::

    python benchmarks/bench_fleet_health.py            # full: 4 procs,
                                                       # 3 apps, 48 faults
    python benchmarks/bench_fleet_health.py --quick    # reduced CI mode

Writes ``BENCH_health.json`` and exits non-zero when any gate fails.
"""

import argparse
import json
import os
import random
import sys
import tempfile
import time

if __name__ == "__main__":  # script mode without PYTHONPATH=src
    sys.path.insert(0, os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.bench.fleet import run_fleet, run_health_fault_storm
from repro.obs.health import (
    FleetHealthAggregator,
    HealthBeacon,
    HealthChannel,
    aggregate_store,
    health_path,
)

DEFAULT_APPS = ("bc", "m4", "squid")
DEFAULT_PROCS = 4
DEFAULT_FAULTS = 48
SHUFFLE_ORDERS = 5

#: Publish-overhead ceiling, seconds.  A beacon commit is two fsynced
#: atomic writes plus a lock acquire; generous for CI's shared disks.
PUBLISH_MEAN_CEILING_S = 0.050


def _report_json(store_path: str) -> str:
    return json.dumps(aggregate_store(store_path).to_json(),
                      sort_keys=True)


def _order_invariance(store_path: str, orders: int) -> dict:
    """Aggregate the channel's beacons in ``orders`` shuffled arrival
    orders; every rendered report must be byte-identical."""
    channel = HealthChannel(health_path(store_path), program_name=None)
    payloads = list(channel.load().live_beacons().values())
    rng = random.Random(1234)
    baseline = None
    identical = True
    for _ in range(orders):
        rng.shuffle(payloads)
        agg = FleetHealthAggregator()
        for payload in payloads:
            agg.add_payload(payload)
        rendered = json.dumps(agg.report().to_json(), sort_keys=True) \
            + "\n" + agg.report().render()
        if baseline is None:
            baseline = rendered
        elif rendered != baseline:
            identical = False
    return {"orders": orders, "beacons": len(payloads),
            "identical": identical}


def _visibility(report_path: str) -> dict:
    """Per-fleet visibility gates over the aggregated report."""
    report = aggregate_store(report_path)
    rows = {r["process_id"]: r for r in report.processes}
    leader = rows.get("leader-0")
    followers = [r for pid, r in sorted(rows.items())
                 if pid.startswith("follower-")]
    follower_triggers_visible = bool(followers) and all(
        f["triggers"] > 0 for f in followers)
    ttf = [p["time_to_first_patch_ns"] for p in report.patches]
    return {
        "processes": report.fleet["processes"],
        "survived": report.fleet["survived"],
        "leader_visible": leader is not None,
        "leader_rungs_visible": bool(leader and leader["rung_counts"]),
        "follower_triggers_visible": follower_triggers_visible,
        "patches": len(report.patches),
        "time_to_first_patch_ns": ttf,
        "time_to_first_patch_reported": bool(ttf) and all(
            t > 0 for t in ttf),
        "beacon_errors": report.beacon_errors,
    }


def _publish_overhead(tmp: str, publishes: int = 50) -> dict:
    """Directly timed beacon commits against a fresh channel."""
    channel = HealthChannel(os.path.join(tmp, "overhead.health"),
                            "overhead-app")
    started = time.perf_counter()
    for i in range(publishes):
        channel.publish(HealthBeacon(
            process_id="p-0", app="overhead-app", seq=i + 1,
            time_ns=(i + 1) * 1_000_000, failures=i))
    wall = time.perf_counter() - started
    mean = wall / publishes
    return {"publishes": publishes, "wall_s": wall, "mean_s": mean,
            "ceiling_s": PUBLISH_MEAN_CEILING_S,
            "gate_passed": mean <= PUBLISH_MEAN_CEILING_S}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("out", nargs="?", default="BENCH_health.json")
    parser.add_argument("--procs", type=int, default=DEFAULT_PROCS,
                        help="fleet size per app (leader + followers)")
    parser.add_argument("--faults", type=int, default=DEFAULT_FAULTS,
                        help="injected health faults in the storm")
    parser.add_argument("--apps", nargs="*", default=list(DEFAULT_APPS))
    parser.add_argument("--quick", action="store_true",
                        help="reduced CI mode: 2 processes, 1 app, "
                        "40 faults")
    args = parser.parse_args(argv)
    if args.quick:
        args.procs = min(args.procs, 2)
        args.apps = args.apps[:1]
        args.faults = min(args.faults, 40)

    fleets = {}
    determinism = {}
    with tempfile.TemporaryDirectory(prefix="health-bench-") as tmp:
        for app in args.apps:
            fork_store = os.path.join(tmp, f"{app}.fork.json")
            serial_store = os.path.join(tmp, f"{app}.serial.json")
            print(f"[fleet] {app}: {args.procs} forked processes ...")
            run_fleet(app, fork_store, procs=args.procs)
            print(f"[fleet] {app}: same fleet, serial ...")
            run_fleet(app, serial_store, procs=args.procs, parallel=False)

            vis = _visibility(fork_store)
            orders = _order_invariance(fork_store, SHUFFLE_ORDERS)
            serial_vs_fork = (_report_json(fork_store)
                              == _report_json(serial_store))
            fleets[app] = vis
            determinism[app] = {
                "order_invariant": orders,
                "serial_vs_fork_identical": serial_vs_fork,
            }
            print(f"[fleet] {app}: visible={vis['processes']} "
                  f"survived={vis['survived']} "
                  f"order_invariant={orders['identical']} "
                  f"serial==fork={serial_vs_fork}")

        print(f"[storm] {args.faults} injected health faults ...")
        storm = run_health_fault_storm(
            os.path.join(tmp, "storm.store.json"), faults=args.faults)
        print(f"[storm] fired={sum(storm.faults_fired.values())} "
              f"validated_lost={storm.validated_lost} "
              f"raised={storm.health_raised} "
              f"degraded={storm.health_errors} "
              f"visible={storm.beacons_visible}")

        print("[overhead] timing beacon commits ...")
        overhead = _publish_overhead(tmp)
        print(f"[overhead] mean={overhead['mean_s'] * 1e3:.2f} ms "
              f"(ceiling {PUBLISH_MEAN_CEILING_S * 1e3:.0f} ms)")

    visibility_gate = all(
        v["leader_visible"] and v["leader_rungs_visible"]
        and v["follower_triggers_visible"]
        and v["time_to_first_patch_reported"]
        and v["processes"] == args.procs
        and v["survived"] == args.procs
        for v in fleets.values())
    determinism_gate = all(
        d["order_invariant"]["identical"]
        and d["serial_vs_fork_identical"]
        for d in determinism.values())
    gates = {
        "visibility": visibility_gate,
        "determinism": determinism_gate,
        "health_fault_storm": storm.gate_passed,
        "publish_overhead": overhead["gate_passed"],
    }
    gate_passed = all(gates.values())
    payload = {
        "benchmark": "fleet_health",
        "apps": list(args.apps),
        "procs": args.procs,
        "quick": args.quick,
        "fleet": fleets,
        "determinism": determinism,
        "health_fault_storm": {
            "faults_requested": storm.faults_requested,
            "faults_fired": storm.faults_fired,
            "validated_patches": storm.validated_patches,
            "validated_lost": storm.validated_lost,
            "publishes_attempted": storm.publishes_attempted,
            "health_errors": storm.health_errors,
            "health_raised": storm.health_raised,
            "quarantined_files": storm.quarantined_files,
            "backup_recoveries": storm.backup_recoveries,
            "beacons_visible": storm.beacons_visible,
            "wall_s": storm.wall_s,
            "gate_passed": storm.gate_passed,
        },
        "publish_overhead": overhead,
        "gates": gates,
        "gate_passed": gate_passed,
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    print(f"\ngates: {gates}")
    print(f"wrote {args.out}")
    return 0 if gate_passed else 1


if __name__ == "__main__":
    sys.exit(main())
