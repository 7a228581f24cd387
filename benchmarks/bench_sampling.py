"""Sampled always-on detection benchmark: overhead, fleet TTFP, off-switch.

Measures and gates the sampling plane (``repro.sampling``, DESIGN.md
§15) end to end:

1. **Overhead** -- every subject runs trigger-free under the full
   stack (extension NORMAL + periodic checkpoints) with sampling off
   and at each swept rate; the gate bounds mean simulated-time
   overhead at rate 1/64 to <= 10% over sampling-off.

2. **Fleet time-to-first-patch** -- per app, a 4-process fleet
   (leader + staggered followers over one shared store) runs with and
   without a sampled leader; each follower's would-be failure time is
   measured with no store.  Gates: at least one app where the sampled
   leader's guard hit publishes a validated patch before any
   unsampled process would have failed, fleet TTFP strictly better,
   and every sampled fleet still prevents its followers.

3. **Rate-0 identity** -- a ``sampling_rate=0`` session attaches no
   guards and publishes beacons without a ``sampling`` section, so it
   is the pre-sampling session by construction; the same app at rate
   1/64 must show both.

Runnable as a script::

    python benchmarks/bench_sampling.py            # full: 7 subjects,
                                                   # 4 TTFP apps
    python benchmarks/bench_sampling.py --quick    # reduced CI mode

Writes ``BENCH_sampling.json`` and exits non-zero when any gate fails.
"""

import argparse
import json
import os
import sys

if __name__ == "__main__":  # script mode without PYTHONPATH=src
    sys.path.insert(0, os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.bench.harness import host_info
from repro.bench.sampling import (
    GATE_RATE,
    TTFP_APPS,
    TTFP_RATE,
    rate_zero_identity,
    run_fleet_ttfp,
    run_overhead,
)

QUICK_TTFP_APPS = ("pine",)
QUICK_IDENTITY_APPS = ("bc", "pine", "squid")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("out", nargs="?", default="BENCH_sampling.json")
    parser.add_argument("--procs", type=int, default=4,
                        help="fleet size per TTFP app")
    parser.add_argument("--apps", nargs="*", default=list(TTFP_APPS),
                        help="TTFP app population")
    parser.add_argument("--rate", type=int, default=TTFP_RATE,
                        help="sampling rate for the TTFP leader")
    parser.add_argument("--quick", action="store_true",
                        help="reduced CI mode: rate-64 overhead sweep "
                        "over 3 subjects, 1 TTFP app, 2 processes, "
                        "3 identity apps")
    args = parser.parse_args(argv)
    identity_apps = None
    overhead_rates = None
    if args.quick:
        args.procs = min(args.procs, 2)
        args.apps = list(QUICK_TTFP_APPS)
        identity_apps = QUICK_IDENTITY_APPS
        overhead_rates = (GATE_RATE,)

    print(f"[overhead] sweeping rates "
          f"{overhead_rates or 'default'} ...")
    overhead = run_overhead(**({"rates": overhead_rates} if
                               overhead_rates else {}),
                            quick=args.quick)
    for rate, mean in sorted(overhead.mean_overhead.items()):
        print(f"[overhead] rate 1/{rate}: mean {mean * 100:+.4f}%")
    print(f"[overhead] gate (rate 1/{overhead.gate_rate} <= "
          f"{overhead.gate_limit:.0%}): {overhead.gate_passed}")

    print(f"[ttfp] {len(args.apps)} apps x {args.procs} processes, "
          f"leader sampled at 1/{args.rate} ...")
    fleet = run_fleet_ttfp(apps=tuple(args.apps), rate=args.rate,
                           procs=args.procs)
    for a in fleet.apps:
        print(f"[ttfp] {a.app}: followers would fail at "
              f"{a.earliest_would_fail_ns / 1e6:.1f} ms; "
              f"unsampled patch {a.unsampled.ttfp_ns / 1e6:.1f} ms, "
              f"sampled detection "
              f"{a.sampled.first_detection_ns / 1e6:.1f} ms -> patch "
              f"{a.sampled.ttfp_ns / 1e6:.1f} ms "
              f"(pre_crash_win={a.pre_crash_win})")
    print(f"[ttfp] any_pre_crash_win={fleet.any_pre_crash_win} "
          f"fleet_ttfp_better={fleet.fleet_ttfp_better} "
          f"gate={fleet.gate_passed}")

    print("[identity] sampling_rate=0 attaches nothing, "
          f"1/{GATE_RATE} attaches guards ...")
    identity = rate_zero_identity(apps=identity_apps)
    print(f"[identity] apps={len(identity['apps'])} "
          f"mismatches={identity['mismatches']} "
          f"gate={identity['gate_passed']}")

    gates = {
        "overhead": overhead.gate_passed,
        "fleet_ttfp": fleet.gate_passed,
        "rate_zero_identity": identity["gate_passed"],
    }
    gate_passed = all(gates.values())
    payload = {
        "benchmark": "sampling",
        "host": host_info(),
        "quick": args.quick,
        "overhead": overhead.to_json(),
        "fleet_ttfp": fleet.to_json(),
        "rate_zero_identity": identity,
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
