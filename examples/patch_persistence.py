#!/usr/bin/env python3
"""Patches outlive the process: system-wide prevention.

First-Aid keeps each program's patches in a crash-safe shared store.
The first process of a buggy program fails once, gets diagnosed, and
publishes its validated patch to the store.  Every later process
running the same executable syncs the store at startup and applies the
preventive change at the patched call-site from its very first request
-- the bug never manifests again anywhere on the system (paper
Section 2, "Prevention of bug reoccurrence").

This example runs the CVS double-free app twice against the same store
file (in a temp directory) and shows run 2 sailing through the
bug-triggering commit with zero failures.

Usage::

    python examples/patch_persistence.py
"""

import os
import tempfile

from repro.apps.registry import get_app
from repro.core.runtime import FirstAidConfig, FirstAidRuntime
from repro.store import SharedPatchStore


def main() -> None:
    app = get_app("cvs")
    store_dir = tempfile.mkdtemp(prefix="firstaid-store-")
    store_path = os.path.join(store_dir, "cvs.store.json")
    config = FirstAidConfig(store_path=store_path)

    print("=== run 1: empty store ===")
    workload = app.workload(normal_before=25, triggers=1,
                            normal_after=25)
    with FirstAidRuntime(app.program(), input_tokens=workload.tokens,
                         config=config) as first:
        session1 = first.run()
    print(f"  outcome: {session1.reason}, "
          f"failures survived: {len(session1.recoveries)}")
    rec = session1.recoveries[0]
    print(f"  diagnosed: {[b.value for b in rec.diagnosis.bug_types]}, "
          f"validated: {rec.validation.consistent}")
    print(f"  patch store written to {store_path}:")
    state = SharedPatchStore(store_path, app.name).load()
    for key, payload in sorted(state.patches.items()):
        print(f"    {key}  validated={payload['validated']}")

    print()
    print("=== run 2: same executable, fresh process, store synced ===")
    workload2 = app.workload(normal_before=10, triggers=3,
                             normal_between=20, normal_after=10,
                             seed=77)
    with FirstAidRuntime(app.program(), input_tokens=workload2.tokens,
                         config=config) as second:
        session2 = second.run()
    print(f"  outcome: {session2.reason}, "
          f"failures: {len(session2.recoveries)} "
          f"(three double-free triggers, zero crashes)")
    assert session2.recoveries == []
    triggered = sum(p.trigger_count for p in second.pool.patches())
    print(f"  the persisted patch fired {triggered} times, delaying "
          f"the buggy frees and absorbing the double frees")


if __name__ == "__main__":
    main()
