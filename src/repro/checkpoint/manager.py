"""The checkpoint manager.

Drives a process in intervals (the paper uses 200 ms; at this repo's
calibration that is :data:`DEFAULT_INTERVAL` instructions), takes a
checkpoint at each boundary, and keeps the most recent ``max_keep``
checkpoints for rollback.

Each checkpoint is a page table that shares every page the process has
not written since the previous checkpoint and copies only the dirty
ones (the COW page set Flashback would have copied).  A page cache
dedupes identical page payloads across checkpoints, so ``space_bytes``
per checkpoint measures real retained bytes.  Rollback is in-place: the
manager tracks which checkpoint the heap currently derives from,
computes the pages that can differ from the target (per-interval dirty
sets plus writes since the last boundary), and rewrites only those --
O(pages changed), not O(heap).

Adaptive interval (paper Section 3): the manager monitors the COW page
rate.  If estimated checkpointing overhead (page-copy time over
interval time) exceeds ``overhead_target``, the interval grows
geometrically up to ``max_interval``; when the rate falls it shrinks
back toward the base interval.  Old checkpoints being discarded as the
interval grows keeps "the same length of history while keeping less
data in memory" (Table 7 discussion).
"""

from __future__ import annotations

import weakref
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

from repro.checkpoint.snapshot import ZERO_PAGE, Checkpoint, pages_between
from repro.errors import CheckpointError, SampledGuardFault
from repro.heap.base import PAGE_SIZE
from repro.process import Process
from repro.util.events import EventLog
from repro.vm.machine import RunReason, RunResult

#: 200 ms at the calibration of 10 us per instruction.
DEFAULT_INTERVAL = 20_000

#: Every this many checkpoints the page cache drops the payloads no
#: live table holds, so it keeps at most a few intervals of dead pages.
PRUNE_EVERY = 8


@dataclass
class CheckpointStats:
    """Aggregate checkpointing statistics (feeds Table 7)."""

    checkpoints_taken: int = 0
    rollbacks: int = 0
    full_restores: int = 0
    pages_copied_total: int = 0
    pages_restored_total: int = 0
    #: Deduped payload bytes the checkpoints newly retained.
    delta_bytes_total: int = 0
    #: Checkpoint intervals summed, in instructions.
    interval_instrs_total: int = 0

    @property
    def bytes_per_checkpoint(self) -> float:
        """Average space retained per checkpoint."""
        if not self.checkpoints_taken:
            return 0.0
        return self.delta_bytes_total / self.checkpoints_taken

    def bytes_per_second(self, instr_ns: int) -> float:
        """Average checkpoint traffic per simulated second."""
        total_ns = self.interval_instrs_total * instr_ns
        if total_ns == 0:
            return 0.0
        return self.delta_bytes_total / (total_ns / 1e9)


class _CheckpointInstruments:
    """Registry instruments mirroring :class:`CheckpointStats`."""

    __slots__ = ("captures", "pages_copied", "delta_bytes",
                 "dirty_pages", "rollbacks", "pages_restored",
                 "full_restores", "interval")

    def __init__(self, registry):
        self.captures = registry.counter("checkpoint.captures")
        self.pages_copied = registry.counter("checkpoint.pages_copied")
        self.delta_bytes = registry.counter("checkpoint.delta_bytes")
        self.dirty_pages = registry.histogram("checkpoint.dirty_pages")
        self.rollbacks = registry.counter("checkpoint.rollbacks")
        self.pages_restored = registry.counter("checkpoint.pages_restored")
        self.full_restores = registry.counter("checkpoint.full_restores")
        self.interval = registry.gauge("checkpoint.interval_instrs")


class CheckpointManager:
    """Periodic checkpointing and rollback for one process."""

    def __init__(self, process: Process,
                 interval: int = DEFAULT_INTERVAL,
                 max_keep: int = 64,
                 adaptive: bool = True,
                 overhead_target: float = 0.05,
                 max_interval: int = 20 * DEFAULT_INTERVAL,
                 events: Optional[EventLog] = None,
                 telemetry=None,
                 chaos=None):
        self.process = process
        self.base_interval = interval
        self.interval = interval
        self.max_keep = max_keep
        self.adaptive = adaptive
        self.overhead_target = overhead_target
        self.max_interval = max_interval
        self.events = events if events is not None else EventLog()
        self.checkpoints: Deque[Checkpoint] = deque(maxlen=max_keep)
        self.stats = CheckpointStats()
        self._next_index = 0
        #: The checkpoint the heap bytes currently derive from (via the
        #: tracked dirty set); None until the first checkpoint or after
        #: an untracked external restore.
        self._position: Optional[Checkpoint] = None
        self._mem_version = -1
        #: payload -> payload intern table deduping identical page
        #: contents across checkpoints.
        self._page_cache: Dict[bytes, bytes] = {}
        self._tm = (_CheckpointInstruments(telemetry.metrics)
                    if telemetry is not None and telemetry.enabled
                    else None)
        #: Optional hook invoked after each boundary checkpoint taken
        #: by :meth:`run` -- the runtime's periodic work (e.g. shared
        #: patch-store refresh) rides the checkpoint cadence instead of
        #: adding a second timer to the hot loop.
        self.on_boundary = None
        #: Optional :class:`~repro.chaos.ChaosPlan`; consulted only at
        #: rollback time, never on the instruction path.
        self.chaos = chaos
        #: Checkpoints whose table chaos scribbled.
        self._scribbled: weakref.WeakSet = weakref.WeakSet()

    # ------------------------------------------------------------------

    def _heap_in_sync(self) -> bool:
        """True when the heap still derives from ``_position`` through
        writes the dirty-page set has tracked."""
        return (self._position is not None
                and self.process.mem.version == self._mem_version)

    def take_checkpoint(self) -> Checkpoint:
        """Snapshot the process now and charge checkpoint costs."""
        process = self.process
        mem = process.mem
        dirty = mem.dirty_pages
        cow_pages = len(dirty)
        costs = process.costs
        process.clock.charge(costs.checkpoint_base_ns
                             + cow_pages * costs.page_copy_ns)
        count = mem.page_count
        if self._heap_in_sync():
            # clean pages are the predecessor's; pages grown since and
            # never written are zero.
            prev = self._position
            pages = list(prev.pages)
            pages += [ZERO_PAGE] * (count - len(pages))
            copied = mem.copy_pages(dirty)
        else:
            # no dirty set describes the heap against any checkpoint:
            # copy it all, and start a new temporal chain.
            prev = None
            pages = [ZERO_PAGE] * count
            copied = mem.copy_pages(range(count))
        new_bytes = self._intern_pages(pages, copied)
        ck = Checkpoint(self._next_index, process.clock.now_ns,
                        process.snapshot_meta(), pages, dirty,
                        prev=prev, space_bytes=new_bytes)
        self._next_index += 1
        mem.clear_dirty()
        self._position = ck
        self._mem_version = mem.version
        self.checkpoints.append(ck)
        if ck.index % PRUNE_EVERY == 0:
            self._prune_page_cache()
        stats = self.stats
        stats.checkpoints_taken += 1
        stats.pages_copied_total += cow_pages
        stats.delta_bytes_total += new_bytes
        stats.interval_instrs_total += self.interval
        tm = self._tm
        if tm is not None:
            tm.captures.inc()
            tm.pages_copied.inc(cow_pages)
            tm.delta_bytes.inc(new_bytes)
            tm.dirty_pages.observe(cow_pages)
            tm.interval.set(self.interval)
        self.events.emit(process.clock.now_ns, "checkpoint",
                         index=ck.index, instr=ck.instr_count,
                         cow_pages=cow_pages, interval=self.interval,
                         space_bytes=new_bytes)
        if self.adaptive:
            self._adapt(cow_pages)
        return ck

    def _intern_pages(self, pages: List[bytes],
                      copied: Dict[int, bytes]) -> int:
        """Enter the ``copied`` pages into the table ``pages``, deduped
        through the manager-wide cache; returns the number of bytes
        this checkpoint newly retained."""
        cache = self._page_cache
        new_bytes = 0
        for idx, payload in copied.items():
            cached = cache.get(payload)
            if cached is None:
                cache[payload] = cached = payload
                new_bytes += PAGE_SIZE
            pages[idx] = cached
        return new_bytes

    def _prune_page_cache(self) -> None:
        """Drop cache entries no live checkpoint references."""
        self._page_cache = {payload: payload
                            for ck in self.checkpoints
                            for payload in ck.pages
                            if payload is not ZERO_PAGE}

    def retained_bytes(self) -> int:
        """Real bytes held by the live page tables, with shared
        (deduped) payloads counted once and the zero page not at all."""
        live = {id(payload) for ck in self.checkpoints
                for payload in ck.pages}
        live.discard(id(ZERO_PAGE))
        return len(live) * PAGE_SIZE

    def _adapt(self, cow_pages: int) -> None:
        """Grow the interval when COW traffic makes overhead too high,
        shrink it back when traffic is light."""
        costs = self.process.costs
        copy_ns = (cow_pages * costs.page_copy_ns
                   + costs.checkpoint_base_ns)
        interval_ns = self.interval * costs.instr_ns
        overhead = copy_ns / interval_ns if interval_ns else 0.0
        if overhead > self.overhead_target:
            self.interval = min(int(self.interval * 1.5),
                                self.max_interval)
        elif (overhead < self.overhead_target / 3
              and self.interval > self.base_interval):
            self.interval = max(int(self.interval / 1.5),
                                self.base_interval)

    # ------------------------------------------------------------------

    def run(self, max_steps: Optional[int] = None) -> RunResult:
        """Run the process with periodic checkpoints until something
        other than an interval boundary stops it (halt, fault, input
        exhaustion, or the optional step budget)."""
        process = self.process
        if not self.checkpoints:
            self.take_checkpoint()
            if self.on_boundary is not None:
                self.on_boundary()
        remaining = max_steps
        while True:
            boundary = process.instr_count + self.interval
            step = self.interval
            if remaining is not None:
                step = min(step, remaining)
            result = process.run(stop_at=process.instr_count + step)
            if remaining is not None:
                remaining -= step
                if remaining <= 0 and result.reason is RunReason.STOP:
                    return result
            if result.reason is not RunReason.STOP:
                return result
            if process.instr_count >= boundary:
                self.take_checkpoint()
                if self.on_boundary is not None:
                    self.on_boundary()
                fault = self._sweep_sampled_guards()
                if fault is not None:
                    return RunResult(RunReason.FAULT, fault)

    def _sweep_sampled_guards(self):
        """Boundary sweep of sampled guards (DESIGN.md §15): scan the
        guarded objects' redzones and free canaries right after each
        checkpoint.  A hit freezes the machine on the guard fault --
        exactly the state an in-run fault leaves -- so the failure
        flows through the ordinary monitor/diagnosis path.  A no-op
        (one attribute check) unless guards are attached.
        """
        extension = self.process.extension
        if extension.guards is None:
            return None
        try:
            extension.check_sampled_guards()
        except SampledGuardFault as fault:
            machine = self.process.machine
            if fault.instr_id is None:
                frame = machine.frames[-1]
                fault.instr_id = (frame.func.name, frame.pc)
            machine.fault = fault
            self.events.emit(self.process.clock.now_ns,
                             "sampling.guard_hit",
                             detail=fault.describe())
            return fault
        return None

    # ------------------------------------------------------------------

    def latest(self) -> Checkpoint:
        if not self.checkpoints:
            raise CheckpointError("no checkpoints taken yet")
        return self.checkpoints[-1]

    def recent(self, count: int) -> List[Checkpoint]:
        """Up to ``count`` checkpoints, most recent first."""
        items = list(self.checkpoints)[-count:]
        return items[::-1]

    def rollback_to(self, checkpoint: Checkpoint) -> None:
        """Restore the process to ``checkpoint`` and charge restore
        costs (rollbacks never rewind the clock).

        When the heap still derives from a known checkpoint, only the
        pages that can differ from the target (per-interval dirty sets
        between the two, plus writes since the last boundary) are
        rewritten; otherwise the full state is materialized from its
        page table.
        """
        process = self.process
        mem = process.mem
        if self.chaos is not None:
            self._inject_rollback_faults(checkpoint)
        pages_restored = self._rollback_in_place(checkpoint)
        if pages_restored is None:
            process.restore(checkpoint.materialize())
            pages_restored = len(checkpoint.pages)
            self.stats.full_restores += 1
            if self._tm is not None:
                self._tm.full_restores.inc()
        costs = process.costs
        process.clock.charge(costs.restore_base_ns
                             + pages_restored * costs.page_restore_ns)
        mem.clear_dirty()
        # a scribbled table differs from its neighbours at a page no
        # dirty set records, so a heap restored from one is as untracked
        # as after an external restore.
        self._position = (None if checkpoint in self._scribbled
                          else checkpoint)
        self._mem_version = mem.version
        self.stats.rollbacks += 1
        self.stats.pages_restored_total += pages_restored
        if self._tm is not None:
            self._tm.rollbacks.inc()
            self._tm.pages_restored.inc(pages_restored)
        self.events.emit(process.clock.now_ns, "rollback",
                         to_index=checkpoint.index,
                         instr=checkpoint.instr_count,
                         pages_restored=pages_restored)

    def _inject_rollback_faults(self, checkpoint: Checkpoint) -> None:
        """Armed chaos faults at the restore boundary (DESIGN.md §10):
        a missing snapshot aborts the rollback; a corrupt one restores
        a scribbled page and lets the re-execution run on garbage."""
        if self.chaos.take("checkpoint_missing"):
            self.events.emit(self.process.clock.now_ns,
                             "chaos.checkpoint_missing",
                             to_index=checkpoint.index)
            raise CheckpointError(
                f"checkpoint #{checkpoint.index} unavailable "
                f"(injected fault)")
        if self.chaos.take("checkpoint_corrupt"):
            page = self.chaos.scribble_checkpoint(checkpoint)
            self._scribbled.add(checkpoint)
            # Force the full-restore path so the scribbled payload is
            # guaranteed to reach the heap (the in-place diff might not
            # cover it).
            self._position = None
            self.events.emit(self.process.clock.now_ns,
                             "chaos.checkpoint_corrupt",
                             to_index=checkpoint.index, page=page)

    def _rollback_in_place(self, checkpoint: Checkpoint) -> Optional[int]:
        """Try the O(pages changed) restore path; returns the number of
        pages rewritten, or None when a full restore is required."""
        if not self._heap_in_sync():
            return None
        diff = pages_between(self._position, checkpoint)
        if diff is None:
            return None
        mem = self.process.mem
        table = checkpoint.pages
        limit = len(table)
        payloads = {idx: table[idx]
                    for idx in (diff | mem.dirty_pages) if idx < limit}
        mem.load_pages(checkpoint.mapped_bytes, payloads,
                       dirty=checkpoint.dirty)
        # non-heap state is metadata-sized; restore it wholesale.
        self.process.restore(checkpoint.meta)
        return len(payloads)

    def drop_after(self, checkpoint: Checkpoint) -> None:
        """Discard checkpoints newer than ``checkpoint`` (used after a
        recovery commits to an older state)."""
        while self.checkpoints and \
                self.checkpoints[-1].index > checkpoint.index:
            self.checkpoints.pop()
