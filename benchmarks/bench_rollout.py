"""Staged-rollout benchmark: containment, promotion, determinism.

Measures and gates the health-gated staged patch rollout
(``repro.rollout``, DESIGN.md §14) end to end:

1. **Containment** -- per app, a deliberately-bad patch injected at
   STAGED is adopted only by the canary cohort, condemned by the
   promotion controller on its post-adopt failure evidence, and never
   reaches any non-canary process (zero adoptions, zero triggers).

2. **Promotion** -- the real patch the canary leader diagnoses clears
   the observation-window, failure-rate, and latency-tail gates,
   cascades to fleet-wide, and prevents the bug in every late joiner.

3. **Determinism** -- the controller's decision trail is byte-identical
   across shuffled beacon arrival orders and between the forked fleet
   and the same fleet run serially; a second controller tick over the
   settled store decides nothing.

4. **Disabled equivalence** -- a session with rollout *off* digests
   byte-identically (equivalence + diagnosis keys) to the same session
   with rollout *on*: staged distribution changes who adopts a patch,
   never what a session diagnoses.

5. **No-op generation** -- the shared-channel scrub that rides along:
   an idle refresh cycle (identical republished counts, repeated
   syncs, generation polls) commits nothing and leaves the store file
   byte-untouched.

Runnable as a script::

    python benchmarks/bench_rollout.py            # full: 3 apps
    python benchmarks/bench_rollout.py --quick    # reduced CI mode

Writes ``BENCH_rollout.json`` and exits non-zero when any gate fails.
"""

import argparse
import json
import os
import sys
import tempfile

if __name__ == "__main__":  # script mode without PYTHONPATH=src
    sys.path.insert(0, os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.bench.fleet import run_rollout_fleet
from repro.bench.harness import run_app_session
from repro.core.bugtypes import BugType
from repro.core.patches import PatchPool
from repro.store import SharedPatchStore
from repro.util.callsite import CallSite

DEFAULT_APPS = ("bc", "m4", "squid")
EQUIVALENCE_APP = "squid"


def _fleet_payload(result) -> dict:
    rows = result.member_rows()
    non_canary = [m for m in rows if not m["canary"]]
    return {
        "bad_key": result.bad_key,
        "real_keys": result.real_keys,
        "decisions": result.decisions,
        "second_tick_decisions": result.second_tick_decisions,
        "final_stages": result.final_stages,
        "rolled_back": result.rolled_back,
        "store_generation": result.store_generation,
        "order_invariant": result.order_invariant,
        "shuffles": result.shuffles,
        "containment": result.containment_passed,
        "promotion": result.promotion_passed,
        "gate_passed": result.gate_passed,
        "members": [dict(row, wall_s=digest.wall_s)
                    for row, (_, digest) in zip(rows, result.members)],
        "non_canary_bad_triggers": sum(
            m["bad_patch_triggers"] for m in non_canary),
        "non_canary_bad_adoptions": sum(
            1 for m in non_canary if m["bad_patch_adopted"]),
    }


def _disabled_equivalence(app_name: str, tmp: str) -> dict:
    """Digest one session with rollout off and on; the behavioral keys
    must match byte-for-byte."""
    off = run_app_session(app_name, triggers=2, supervisor=False)
    on = run_app_session(app_name, triggers=2, supervisor=False,
                         rollout=True,
                         store_path=os.path.join(tmp, "eq.store.json"))
    return {
        "app": app_name,
        "equivalence_key_identical":
            off.equivalence_key() == on.equivalence_key(),
        "diagnosis_key_identical":
            off.diagnosis_key() == on.diagnosis_key(),
        "recoveries": off.recoveries,
    }


def _noop_generation(tmp: str, cycles: int = 8) -> dict:
    """The shared-channel scrub gate: an idle fleet refresh cycle must
    not churn the store."""
    path = os.path.join(tmp, "idle.store.json")
    store = SharedPatchStore(path, "idle-app")
    pool = PatchPool("idle-app")
    patch = pool.new_patch(BugType.BUFFER_OVERFLOW,
                           CallSite.intern([("idle_fn", 1)]))
    patch.validated = True
    patch.trigger_count = 9
    store.publish([patch])
    commits_before = store.commits
    bytes_before = open(path, "rb").read()
    local = PatchPool("idle-app")
    for _ in range(cycles):
        store.sync_into(local)
        store.publish([patch])      # identical counts: must be a no-op
        store.generation()          # must be served from the stat cache
    return {
        "cycles": cycles,
        "commits_before": commits_before,
        "commits_after": store.commits,
        "noop_mutations": store.noop_mutations,
        "generation": store.load().generation,
        "file_untouched": open(path, "rb").read() == bytes_before,
        "gate_passed": (store.commits == commits_before
                        and store.noop_mutations == cycles
                        and store.load().generation == 1
                        and open(path, "rb").read() == bytes_before),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("out", nargs="?", default="BENCH_rollout.json")
    parser.add_argument("--apps", nargs="*", default=list(DEFAULT_APPS))
    parser.add_argument("--quick", action="store_true",
                        help="reduced CI mode: 1 app")
    args = parser.parse_args(argv)
    if args.quick:
        args.apps = args.apps[:1]

    fleets = {}
    serial_vs_fork = {}
    with tempfile.TemporaryDirectory(prefix="rollout-bench-") as tmp:
        for app in args.apps:
            print(f"[rollout] {app}: forked fleet "
                  f"(bad patch injected at STAGED) ...")
            forked = run_rollout_fleet(
                app, os.path.join(tmp, f"{app}.fork.json"))
            print(f"[rollout] {app}: same fleet, serial ...")
            serial = run_rollout_fleet(
                app, os.path.join(tmp, f"{app}.serial.json"),
                parallel=False)
            fleets[app] = _fleet_payload(forked)
            serial_vs_fork[app] = (forked.fleet_digest()
                                   == serial.fleet_digest())
            print(f"[rollout] {app}: containment="
                  f"{forked.containment_passed} "
                  f"promotion={forked.promotion_passed} "
                  f"order_invariant={forked.order_invariant} "
                  f"serial==fork={serial_vs_fork[app]}")
            for line in forked.decisions:
                print(f"[rollout]   {line}")

        eq_app = args.apps[0] if args.quick else EQUIVALENCE_APP
        print(f"[equivalence] {eq_app}: rollout off vs on ...")
        equivalence = _disabled_equivalence(eq_app, tmp)
        print(f"[equivalence] equivalence_key="
              f"{equivalence['equivalence_key_identical']} "
              f"diagnosis_key="
              f"{equivalence['diagnosis_key_identical']}")

        print("[noop] idle refresh cycle ...")
        noop = _noop_generation(tmp)
        print(f"[noop] commits {noop['commits_before']} -> "
              f"{noop['commits_after']}, "
              f"noop_mutations={noop['noop_mutations']}, "
              f"file_untouched={noop['file_untouched']}")

    gates = {
        "containment": all(f["containment"] for f in fleets.values()),
        "promotion": all(f["promotion"] for f in fleets.values()),
        "order_invariant": all(f["order_invariant"]
                               for f in fleets.values()),
        "second_tick_idle": all(f["second_tick_decisions"] == 0
                                for f in fleets.values()),
        "serial_vs_fork_identical": all(serial_vs_fork.values()),
        "disabled_equivalence": (
            equivalence["equivalence_key_identical"]
            and equivalence["diagnosis_key_identical"]),
        "noop_generation": noop["gate_passed"],
    }
    gate_passed = all(gates.values())
    payload = {
        "benchmark": "rollout",
        "apps": list(args.apps),
        "quick": args.quick,
        "fleets": fleets,
        "serial_vs_fork_identical": serial_vs_fork,
        "disabled_equivalence": equivalence,
        "noop_generation": noop,
        "gates": gates,
        "gate_passed": gate_passed,
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    print(f"[done] gates: " + ", ".join(
        f"{k}={'PASS' if v else 'FAIL'}" for k, v in gates.items()))
    print(f"[done] wrote {args.out} "
          f"({'PASS' if gate_passed else 'FAIL'})")
    return 0 if gate_passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
