"""The machine's call-site capture against the list-built one.

``Machine.current_callsite`` builds the intern table's key from up to
three frames without a loop and looks the interned :class:`CallSite`
up by it.  The oracle in ``tests/reference_machine.py`` keeps the capture
that walked the frames into a list (:func:`reference_callsite`), so
these cases run nested programs on both sides and require the same
sites, operation by operation, and the same extension snapshot (each
object's allocation and free site): at every frame depth from 1 to 4,
where depth 4 drops the outermost frame, and on the first capture
after a :meth:`Process.restore`, whose frames are new objects.
"""

import pytest

from repro.heap.extension import PLAIN_ALLOC, PLAIN_FREE, ChangePolicy
from repro.process import Process
from repro.vm.builder import ProgramBuilder
from repro.vm.machine import RunReason
from tests.reference_machine import SIDES


class Recorder(ChangePolicy):
    """Records the site of every heap op and changes nothing."""

    def __init__(self):
        self.sites = []

    def on_alloc(self, callsite):
        self.sites.append(("malloc", callsite))
        return PLAIN_ALLOC

    def on_free(self, callsite, user_addr):
        self.sites.append(("free", callsite))
        return PLAIN_FREE


def nested_program(depth):
    """``main`` calls ``lvl1``, which calls ``lvl2``, and so on down to
    frame depth ``depth``.  Every function allocates before its call
    and after it, and frees both objects before it returns, so each
    level captures at four sites.  Each level's code starts with one
    more instruction than its caller's, so no two levels share a pc."""
    pb = ProgramBuilder("nest")
    names = ["main"] + [f"lvl{k}" for k in range(1, depth)]
    for level in range(depth - 1, -1, -1):
        f = pb.function(names[level])
        for k in range(level + 1):
            f.const("sz", 16 * k + 8)
        f.malloc("p", "sz")
        if level + 1 < depth:
            f.call("r", names[level + 1], [])
        f.malloc("q", "sz")
        f.free("q")
        f.free("p")
        if level:
            f.ret("p")
        else:
            f.halt()
        pb.add(f)
    return pb.build()


def run_recorded(program, side, restore_at=None):
    """One run on ``side``; with ``restore_at``, the run pauses there,
    runs to the end, is restored to the pause and runs to the end
    again.  Returns the sites the last run recorded, preceded by the
    number of ops before the pause, and the extension snapshot."""
    policy = Recorder()
    process = Process(program, policy=policy)
    before = 0
    with side():
        if restore_at is not None:
            assert process.run(stop_at=restore_at).reason is RunReason.STOP
            before = len(policy.sites)
            snap = process.snapshot()
            process.run()
            del policy.sites[:]
            process.restore(snap)
        assert process.run().reason is RunReason.HALT
    return before, policy.sites, process.extension.snapshot()


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_capture_matches_reference_at_each_depth(depth):
    program = nested_program(depth)
    reference, compiled = (run_recorded(program, side)
                           for side in SIDES.values())
    assert compiled == reference
    _, sites, _ = compiled
    assert len(sites) == 4 * depth
    # The innermost allocation names its function and up to two
    # callers, innermost first.
    kind, deepest = sites[depth - 1]
    names = ["main"] + [f"lvl{k}" for k in range(1, depth)]
    assert kind == "malloc"
    assert [fn for fn, _pc in deepest.frames] == names[::-1][:3]


def test_capture_after_restore_matches_reference():
    """Restored at every instruction, each run captures the sites a run
    without the restore captures from there on, as the same interned
    objects, and the oracle agrees."""
    program = nested_program(4)
    _, whole, _ = run_recorded(program, SIDES["compiled"])
    process = Process(program)
    process.run()
    for stop in range(1, process.instr_count):
        reference, compiled = (run_recorded(program, side, stop)
                               for side in SIDES.values())
        assert compiled == reference
        before, sites, _ = compiled
        assert sites == whole[before:]
        assert all(a is b for (_, a), (_, b) in zip(sites, whole[before:]))
