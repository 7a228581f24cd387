"""A Python-call budget per heap op on the NORMAL path.

In a bug-free production run, the allocator extension's per-op work is
the only cost First-Aid adds (paper Section 3), and in this system
that cost is Python call overhead, not work.  Timing cannot resolve it
on shared CI hardware, so this test counts the mechanism instead: the
Python function calls (``sys.setprofile`` ``call`` events) made inside
``AllocatorExtension.malloc`` and ``free``, the method itself included,
and inside ``Machine.current_callsite``.

The seven apps run their normal workloads in NORMAL mode under an
empty patch pool's policy, as a serving runtime does, with no guard,
watch, access tracing or telemetry.  Each workload runs twice and the
second pass is counted, so every capture is of a context already seen.
"""

import sys
from collections import Counter

from repro.apps.registry import real_bug_apps
from repro.core.patches import PatchPool
from repro.heap.extension import AllocatorExtension
from repro.process import Process
from repro.vm.machine import Machine, RunReason

#: Normal requests per app.
REQUESTS = 100
#: Calls per heap op, averaged over the apps (one app may exceed it).
OP_BUDGET = 10
#: Calls per capture of a context already seen: the capture itself.
CAPTURE_BUDGET = 1

WATCHED = {AllocatorExtension.malloc.__code__: "op",
           AllocatorExtension.free.__code__: "op",
           Machine.current_callsite.__code__: "capture"}


class CallCounter:
    """A profile function counting, per kind, the outermost calls of the
    watched code objects and every Python call made inside them."""

    def __init__(self):
        self.entries = Counter()
        self.calls = Counter()
        self._frame = None
        self._kind = None

    def __call__(self, frame, event, arg):
        if event == "call":
            if self._frame is None:
                kind = WATCHED.get(frame.f_code)
                if kind is None:
                    return
                self._frame, self._kind = frame, kind
                self.entries[kind] += 1
            self.calls[self._kind] += 1
        elif event == "return" and frame is self._frame:
            self._frame = None

    def per(self, kind):
        return self.calls[kind] / self.entries[kind]


def count_heap_calls(app):
    program = app.program()
    tokens = app.normal_workload(REQUESTS).tokens
    counter = CallCounter()
    for counted in (False, True):
        process = Process(program, input_tokens=tokens,
                          policy=PatchPool(program.name).policy())
        previous = sys.getprofile()
        if counted:
            sys.setprofile(counter)
        try:
            result = process.run()
        finally:
            sys.setprofile(previous)
        assert result.reason is RunReason.HALT, (app.INFO.name, result)
    assert counter.entries["op"] == counter.entries["capture"] > 0
    return counter


def test_normal_heap_op_call_budget():
    counters = {app.INFO.name: count_heap_calls(app)
                for app in real_bug_apps()}
    per_op = {name: round(c.per("op"), 2) for name, c in counters.items()}
    mean = sum(per_op.values()) / len(per_op)
    assert mean <= OP_BUDGET, per_op
    per_capture = {name: c.per("capture") for name, c in counters.items()}
    assert max(per_capture.values()) <= CAPTURE_BUDGET, per_capture
