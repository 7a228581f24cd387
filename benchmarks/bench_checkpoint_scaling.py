"""Checkpoint capture scaling: O(dirty pages), not O(heap).

Each checkpoint is a page table that shares its clean pages with its
predecessor's table and copies only the dirty ones.  A checkpoint's
capture is measured from the tables themselves: the bytes of the
payloads its table does not share with its predecessor's.  The
reference is a full heap copy at every checkpoint,
``len(ck.pages) * PAGE_SIZE``.  Two shape targets:

1. **Proportionality** -- on a fixed 2 MB heap, per-checkpoint capture
   bytes grow with the touch rate (the dirty-page working set) and stay
   bounded by ``dirty_pages * PAGE_SIZE``.
2. **Reduction** -- on the Figure 6 SPEC-like kernels with small
   working sets (gzip/bzip2: big heaps of large objects, writes
   concentrated on two pages per object), mean capture per checkpoint
   is at least 5x smaller than a full heap copy.

Also runnable as a script: ``python benchmarks/bench_checkpoint_scaling.py``
writes ``BENCH_checkpoint.json`` next to the repo root so CI tracks the
perf trajectory.
"""

import dataclasses
import json
import os
import sys
import time

if __name__ == "__main__":  # script mode without PYTHONPATH=src
    sys.path.insert(0, os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.checkpoint.manager import CheckpointManager
from repro.checkpoint.snapshot import ZERO_PAGE
from repro.heap.base import PAGE_SIZE
from repro.process import Process
from repro.workloads import PROFILES, build_kernel
from repro.workloads.profiles import Profile

#: Fixed-heap kernels that only vary the touch rate: 512 x 4 KB objects
#: (~2 MB mapped), touching 4/16/64 objects per round.
SCALING_TOUCH_RATES = (4, 16, 64)

#: SPEC kernels whose per-interval working set is a small slice of the
#: mapped heap (large objects, two dirtied pages per touch).
SMALL_WORKING_SET = ("164.gzip", "256.bzip2")

#: Steady-state length: enough rounds for ~60+ checkpoints, so the
#: steady state is measured, not start-up effects.
ROUNDS = 200


def _scaling_profile(touch: int) -> Profile:
    return Profile(f"scaling-touch{touch}", "spec", live_objects=512,
                   obj_size=4096, churn_per_round=2, touch_per_round=touch,
                   compute_per_round=400, rounds=ROUNDS)


def _captured_bytes(prev, ck) -> int:
    """Bytes of ``ck``'s table not shared with ``prev``'s: the pages
    the capture copied (grown, never-written pages share the zero
    page)."""
    old = prev.pages
    return PAGE_SIZE * sum(
        1 for idx, payload in enumerate(ck.pages)
        if (payload is not old[idx] if idx < len(old)
            else payload is not ZERO_PAGE))


def _measure(program) -> dict:
    process = Process(program)
    manager = CheckpointManager(process, adaptive=False)
    t0 = time.perf_counter()
    manager.run()
    wall_s = time.perf_counter() - t0
    cks = list(manager.checkpoints)
    # every live checkpoint but the oldest, whose predecessor is gone
    pairs = list(zip(cks, cks[1:]))
    return {
        "checkpoints": manager.stats.checkpoints_taken,
        "heap_bytes": process.mem.mapped_bytes,
        "capture_bytes_per_checkpoint":
            sum(_captured_bytes(prev, ck) for prev, ck in pairs)
            / len(pairs),
        "full_copy_bytes_per_checkpoint":
            sum(len(ck.pages) for _, ck in pairs) * PAGE_SIZE / len(pairs),
        "dirty_pages_per_checkpoint":
            sum(ck.cow_pages for _, ck in pairs) / len(pairs),
        "retained_bytes": manager.retained_bytes(),
        "wall_s": wall_s,
    }


_RESULTS = None


def checkpoint_scaling() -> dict:
    """Measure every subject (cached)."""
    global _RESULTS
    if _RESULTS is not None:
        return _RESULTS
    results = {}
    for touch in SCALING_TOUCH_RATES:
        profile = _scaling_profile(touch)
        results[profile.name] = dict(kind="scaling", touch=touch,
                                     **_measure(build_kernel(profile)))
    for name in SMALL_WORKING_SET:
        profile = dataclasses.replace(PROFILES[name], rounds=ROUNDS)
        results[name] = dict(kind="spec", **_measure(build_kernel(profile)))
    for entry in results.values():
        entry["reduction"] = (entry["full_copy_bytes_per_checkpoint"]
                              / entry["capture_bytes_per_checkpoint"])
    _RESULTS = results
    return results


def test_capture_proportional_to_dirty_pages(once):
    results = once(checkpoint_scaling)
    kernels = [results[f"scaling-touch{t}"] for t in SCALING_TOUCH_RATES]
    for entry in kernels:
        # capture is bounded by the dirty working set
        assert entry["capture_bytes_per_checkpoint"] <= \
            entry["dirty_pages_per_checkpoint"] * PAGE_SIZE
    captures = [e["capture_bytes_per_checkpoint"] for e in kernels]
    pages = [e["dirty_pages_per_checkpoint"] for e in kernels]
    assert captures == sorted(captures) and pages == sorted(pages)
    # 16x the touch rate moves capture by several x
    assert captures[-1] / captures[0] > 4


def test_small_working_set_reduction_at_least_5x(once):
    results = once(checkpoint_scaling)
    for name in SMALL_WORKING_SET + ("scaling-touch4",):
        assert results[name]["reduction"] >= 5.0, \
            (name, results[name]["reduction"])


def render(results: dict) -> str:
    lines = ["subject               ckpts  heap KB  capture KB/ck"
             "  full KB/ck  reduction"]
    for name, entry in results.items():
        lines.append(
            f"{name:<21} {entry['checkpoints']:>5}"
            f" {entry['heap_bytes'] / 1024:>8.0f}"
            f" {entry['capture_bytes_per_checkpoint'] / 1024:>14.1f}"
            f" {entry['full_copy_bytes_per_checkpoint'] / 1024:>11.1f}"
            f" {entry['reduction']:>9.2f}x")
    return "\n".join(lines)


def main(out_path: str = "BENCH_checkpoint.json") -> int:
    results = checkpoint_scaling()
    print(render(results))
    worst = min(results[n]["reduction"]
                for n in SMALL_WORKING_SET + ("scaling-touch4",))
    payload = {
        "benchmark": "checkpoint_scaling",
        "page_size": PAGE_SIZE,
        "small_working_set_min_reduction": worst,
        "subjects": results,
    }
    with open(out_path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    print(f"\nwrote {out_path} (min small-working-set reduction: "
          f"{worst:.2f}x)")
    return 0 if worst >= 5.0 else 1


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
