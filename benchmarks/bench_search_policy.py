"""Search-policy benchmark: the phase-1a determinism skip
(DESIGN.md §13).

The diagnostic engine's probe schedule has two policies
(``FirstAidConfig.search_policy``):

* ``fixed``   -- the seed's static schedule (baseline),
* ``bandit``  -- the same schedule, minus the phase-1a plain probe
  when no RAND is reachable.  The name is historical: both policies
  speculate alike on spare workers (the checkpoint walk as one batch,
  the call-site bisection as its breadth-first frontier).

Three claims, measured over the seven real-bug applications:

1. **Identity** -- every policy, serial or forked, produces a
   byte-identical diagnosis (``SessionDigest.diagnosis_key()``:
   verdicts, bug types, checkpoints, evidence, patch points,
   validation outcomes).  Skipping changes how much work the search
   does, never what it concludes.
2. **Fewer re-executions** -- probes *consumed* (the serial decision
   path: every one is a rollback + re-execution) drop strictly on all
   seven apps under ``bandit``; probes *executed* (including
   speculation) at 2 workers drop strictly under ``bandit`` vs. the
   fixed schedule.  Both drops come from the skip alone: at 2 workers
   ``bandit`` executes the fixed schedule's probes minus the skipped
   one.
3. **Recovery time** -- the simulated recovery clock (Table 3)
   improves on at least five of the seven apps under ``bandit``
   (observed: all seven).

Runnable as a script::

    python benchmarks/bench_search_policy.py           # full run,
                                                       # writes BENCH_search.json
    python benchmarks/bench_search_policy.py --quick   # CI gates on a
                                                       # 3-app subset
"""

import argparse
import json
import os
import sys

if __name__ == "__main__":  # script mode without PYTHONPATH=src
    sys.path.insert(0, os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.apps.registry import real_bug_apps
from repro.bench.harness import host_info, run_app_session

#: Simulated recovery time must improve on at least this many apps.
RECOVERY_IMPROVE_GATE = 5

QUICK_APPS = ("bc", "m4", "squid")

#: (label, search_policy, workers) -- serial runs measure consumed
#: probes (rollback + re-execution each); the 2-worker runs measure
#: executed probes including discarded speculation.
CONFIGS = (
    ("fixed@1", "fixed", 1),
    ("bandit@1", "bandit", 1),
    ("fixed@2", "fixed", 2),
    ("bandit@2", "bandit", 2),
)

_RESULTS = None


def app_names():
    return [app.name for app in real_bug_apps()]


def search_policy_sweep(names=None) -> dict:
    """Digest every app under every (policy, workers) config."""
    global _RESULTS
    if names is None and _RESULTS is not None:
        return _RESULTS
    results = {}
    for name in (names or app_names()):
        results[name] = {
            label: run_app_session(name, workers=w, search_policy=p)
            for label, p, w in CONFIGS}
    if names is None:
        _RESULTS = results
    return results


def gate_report(results: dict) -> dict:
    """Evaluate every acceptance gate over a sweep."""
    identical = {}
    consumed_win = {}
    executed_win = {}
    recovery_delta_ms = {}
    backend_equal = {}
    for name, per in results.items():
        keys = {d.diagnosis_key() for d in per.values()}
        identical[name] = len(keys) == 1
        consumed_win[name] = (sum(per["bandit@1"].probes_consumed)
                              < sum(per["fixed@1"].probes_consumed))
        executed_win[name] = (sum(per["bandit@2"].probes_executed)
                              < sum(per["fixed@2"].probes_executed))
        recovery_delta_ms[name] = (
            sum(per["fixed@1"].recovery_time_ns)
            - sum(per["bandit@1"].recovery_time_ns)) / 1e6
        backend_equal[name] = (per["bandit@1"].equivalence_key()
                               == per["bandit@2"].equivalence_key())
    improved = sum(1 for d in recovery_delta_ms.values() if d > 0)
    n = len(results)
    gate = max(0, RECOVERY_IMPROVE_GATE - (7 - n))
    return {
        "diagnosis_identical": identical,
        "consumed_strictly_fewer": consumed_win,
        "executed_strictly_fewer_at_2w": executed_win,
        "recovery_improvement_ms": recovery_delta_ms,
        "recovery_improved_apps": improved,
        "recovery_improve_gate": gate,
        "bandit_backend_equal": backend_equal,
        "gate_passed": (all(identical.values())
                        and all(consumed_win.values())
                        and all(executed_win.values())
                        and all(backend_equal.values())
                        and improved >= gate),
    }


# ---------------------------------------------------------------------
# pytest entry points
# ---------------------------------------------------------------------

def test_diagnoses_identical_across_policies(once):
    results = once(search_policy_sweep)
    report = gate_report(results)
    assert all(report["diagnosis_identical"].values()), \
        report["diagnosis_identical"]
    assert all(report["bandit_backend_equal"].values()), \
        report["bandit_backend_equal"]


def test_strictly_fewer_reexecutions(once):
    results = once(search_policy_sweep)
    report = gate_report(results)
    assert all(report["consumed_strictly_fewer"].values()), \
        report["consumed_strictly_fewer"]
    assert all(report["executed_strictly_fewer_at_2w"].values()), \
        report["executed_strictly_fewer_at_2w"]


def test_recovery_time_improves(once):
    results = once(search_policy_sweep)
    report = gate_report(results)
    assert report["recovery_improved_apps"] >= \
        report["recovery_improve_gate"], report["recovery_improvement_ms"]


# ---------------------------------------------------------------------
# script mode
# ---------------------------------------------------------------------

def _render(results: dict) -> str:
    lines = [f"{'app':<12} {'consumed@1':>13}   {'executed@2':>13}   "
             f"{'sim recovery ms @1':>22}   {'sim recovery ms @2':>22}"
             f"   identical",
             f"{'':<12} {'fixed bandit':>13}   {'fixed bandit':>13}   "
             f"{'fixed -> bandit':>22}   {'fixed -> bandit':>22}"]

    def ms(digest):
        return sum(digest.recovery_time_ns) / 1e6

    for name, per in results.items():
        same = len({d.diagnosis_key() for d in per.values()}) == 1
        lines.append(
            f"{name:<12} "
            f"{sum(per['fixed@1'].probes_consumed):>6} "
            f"{sum(per['bandit@1'].probes_consumed):>6}"
            f"   {sum(per['fixed@2'].probes_executed):>6} "
            f"{sum(per['bandit@2'].probes_executed):>6}"
            f"   {ms(per['fixed@1']):>10.1f} -> {ms(per['bandit@1']):>8.1f}"
            f"   {ms(per['fixed@2']):>10.1f} -> {ms(per['bandit@2']):>8.1f}"
            f"   {'yes' if same else 'NO'}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Search-policy benchmark (fixed vs bandit)")
    parser.add_argument("--quick", action="store_true",
                        help="gate-only mode on a 3-app subset (CI); "
                        "omit for the full benchmark")
    parser.add_argument("--out", default="BENCH_search.json")
    args = parser.parse_args(argv)

    names = list(QUICK_APPS) if args.quick else None
    results = search_policy_sweep(names)
    report = gate_report(results)
    print(_render(results))
    print(f"\nrecovery improved on {report['recovery_improved_apps']}"
          f"/{len(results)} apps "
          f"(gate {report['recovery_improve_gate']}); "
          f"identical diagnoses: "
          f"{all(report['diagnosis_identical'].values())}; "
          f"gate {'PASSED' if report['gate_passed'] else 'FAILED'}")
    if args.quick:
        return 0 if report["gate_passed"] else 1

    total_pruned = sum(sum(d["bandit@1"].probes_pruned)
                       for d in results.values())
    host = host_info()
    payload = {
        "benchmark": "search_policy",
        "host": host,
        "apps": list(results),
        "configs": [list(c) for c in CONFIGS],
        "metric_note": (
            "probes consumed = the serial decision path (each one a "
            "rollback + re-execution); probes executed includes "
            "speculation discarded by the consume path, so it is the "
            "spare-core work bill at 2 workers; recovery times are on "
            "the deterministic simulated clock (Table 3), so they do "
            f"not depend on the host's {host['cpus']} CPU "
            f"core{'' if host['cpus'] == 1 else 's'}"),
        "gates": report,
        "total_probes_pruned_bandit": total_pruned,
        "per_app": {
            name: {
                label: {
                    "probes_executed": sum(d.probes_executed),
                    "probes_consumed": sum(d.probes_consumed),
                    "probes_pruned": sum(d.probes_pruned),
                    "simulated_recovery_ms":
                        sum(d.recovery_time_ns) / 1e6,
                    "simulated_validation_ms":
                        sum(d.validation_time_ns) / 1e6,
                    "recoveries": d.recoveries,
                    "verdicts": list(d.verdicts),
                } for label, d in per.items()}
            for name, per in results.items()},
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    print(f"wrote {args.out}")
    return 0 if report["gate_passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
