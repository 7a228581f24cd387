"""CheckpointStats arithmetic and Checkpoint object tests."""

from repro.checkpoint.manager import CheckpointManager, CheckpointStats
from repro.checkpoint.snapshot import ZERO_PAGE, Checkpoint, pages_between
from repro.heap.base import PAGE_SIZE
from repro.util.events import EventLog
from tests.conftest import make_process


class FakeMachine:
    instr_count = 1234


class FakeMeta:
    instr_count = 1234
    machine = FakeMachine()
    allocator = ()
    extension = ()
    randomized = False


def page(byte: int) -> bytes:
    return bytes([byte]) * PAGE_SIZE


def test_bytes_per_checkpoint_average():
    stats = CheckpointStats()
    assert stats.bytes_per_checkpoint == 0.0
    stats.checkpoints_taken = 3
    stats.delta_bytes_total = 12 * PAGE_SIZE
    assert stats.bytes_per_checkpoint == 4 * PAGE_SIZE


def test_bytes_per_second():
    stats = CheckpointStats()
    stats.delta_bytes_total = 10 * PAGE_SIZE
    stats.interval_instrs_total = 2000
    # 2000 instrs x 10_000 ns = 2e7 ns = 0.02 s
    expected = (10 * PAGE_SIZE) / 0.02
    assert stats.bytes_per_second(10_000) == expected
    assert stats.bytes_per_second(0) == 0.0


def test_bytes_per_second_empty():
    assert CheckpointStats().bytes_per_second(10_000) == 0.0


GROWER = """
int main() {
    int i = 0;
    while (1) {
        int v = input();
        if (v == 0) { break; }
        int p = malloc(700 + v * 64);
        memset(p, v, 700 + v * 64);
        i = i + 1;
        output(i);
    }
    halt();
}
"""


def test_totals_match_the_checkpoint_events():
    """The totals are the sums of what each checkpoint reported, so
    the averages equal the per-checkpoint means they replaced."""
    events = EventLog()
    p = make_process(GROWER, tokens=list(range(1, 200)) + [0])
    manager = CheckpointManager(p, interval=200, events=events,
                                overhead_target=0.01, max_interval=800)
    manager.run()
    cks = events.of_kind("checkpoint")
    stats = manager.stats
    assert stats.checkpoints_taken == len(cks) > 5
    assert stats.pages_copied_total == sum(e.data["cow_pages"] for e in cks)
    assert stats.delta_bytes_total == sum(e.data["space_bytes"] for e in cks)
    intervals = [e.data["interval"] for e in cks]
    assert len(set(intervals)) > 1          # the interval adapted
    assert stats.interval_instrs_total == sum(intervals)
    assert stats.bytes_per_checkpoint == (
        sum(e.data["space_bytes"] for e in cks) / len(cks))
    assert stats.bytes_per_second(p.costs.instr_ns) == (
        stats.delta_bytes_total
        / (sum(intervals) * p.costs.instr_ns / 1e9))


def test_checkpoint_repr_and_fields():
    pages = [page(1), ZERO_PAGE, ZERO_PAGE, page(2)]
    ck = Checkpoint(index=3, time_ns=2_500_000_000, meta=FakeMeta(),
                    pages=pages, dirty=frozenset({0, 3}),
                    space_bytes=PAGE_SIZE)
    assert ck.instr_count == 1234
    assert ck.cow_pages == 2
    assert ck.mapped_bytes == 4 * PAGE_SIZE
    assert ck.space_bytes == PAGE_SIZE
    assert ck.prev is None
    text = repr(ck)
    assert "#3" in text and "2.500" in text and "cow_pages=2" in text


def test_checkpoint_materializes_its_page_table():
    base = Checkpoint(index=0, time_ns=0, meta=FakeMeta(),
                      pages=[page(1), page(2)], dirty=frozenset({0, 1}))
    pages = list(base.pages) + [ZERO_PAGE]
    pages[1] = page(9)
    ck = Checkpoint(index=1, time_ns=1, meta=FakeMeta(), pages=pages,
                    dirty=frozenset({1}), prev=base)
    assert ck.prev is base
    snap = ck.materialize()
    buf, dirty = snap.memory
    assert buf == page(1) + page(9) + bytes(PAGE_SIZE)
    assert dirty == frozenset({1})
    assert snap.machine is FakeMeta.machine
    # the base's table is its own
    assert base.materialize().memory[0] == page(1) + page(2)


def test_pages_between_diff_sets():
    key = Checkpoint(index=0, time_ns=0, meta=FakeMeta(),
                     pages=[ZERO_PAGE], dirty=frozenset({0}))
    a = Checkpoint(index=1, time_ns=1, meta=FakeMeta(),
                   pages=[ZERO_PAGE] * 2, dirty=frozenset({1}), prev=key)
    b = Checkpoint(index=2, time_ns=2, meta=FakeMeta(),
                   pages=[ZERO_PAGE] * 3, dirty=frozenset({2}), prev=a)
    assert pages_between(b, b) == set()
    assert pages_between(b, a) == {2}
    assert pages_between(a, b) == {2}
    assert pages_between(b, key) == {1, 2}
    # unrelated chains have no common ancestor -> None (full restore)
    other = Checkpoint(index=9, time_ns=9, meta=FakeMeta(),
                       pages=[], dirty=frozenset())
    assert pages_between(b, other) is None
