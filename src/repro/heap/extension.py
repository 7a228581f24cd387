"""First-Aid's memory allocator extension.

The extension (paper Section 3) wraps the underlying Lea allocator and
operates in one of three modes:

* **normal** -- every allocation/deallocation call-site is checked
  against the available runtime patches; matching objects get the
  patch's preventive change.  This is the only extension work during
  bug-free production execution, which is why overhead stays low.
* **diagnostic** -- applies preventive and/or exposing changes as
  instructed by the diagnostic engine (through a
  :class:`ChangePolicy`), captures multi-level call-sites for every
  operation, and checks deallocation parameters to catch double frees.
* **validation** -- additionally randomizes placement (the machine is
  given a :class:`~repro.heap.random_alloc.RandomizedLeaAllocator`) and
  traces memory-management operations plus illegal memory accesses
  (this repo's stand-in for Pin instrumentation).

The extension also exists in a fourth, **off** state used only for the
"original allocator" baseline in the overhead experiments: requests are
forwarded untouched and nothing is recorded or charged.

Padding geometry follows the paper: ~1 KB of padding per patched object
(Table 5 reports 1016 bytes), split across both ends of the object.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from enum import Enum
from operator import attrgetter
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.errors import HeapCorruptionFault
from repro.heap.allocator import LeaAllocator
from repro.heap.base import Memory
from repro.heap.canary import CanaryStats, canary_fill, corrupted_offsets
from repro.heap.chunk import HEADER_SIZE
from repro.heap.quarantine import DEFAULT_THRESHOLD, DelayFreeQuarantine
from repro.util.callsite import CallSite
from repro.util.simclock import CostModel, SimClock

#: Per-object metadata footprint reported by the paper (Section 7.6.2).
METADATA_BYTES = 16

#: Default padding split: 504 + 512 = 1016 bytes, matching Table 5.
PAD_PRE = 504
PAD_POST = 512


class ExtensionMode(Enum):
    OFF = "off"
    NORMAL = "normal"
    DIAGNOSTIC = "diagnostic"
    VALIDATION = "validation"


class ObjectState(Enum):
    LIVE = "live"
    QUARANTINED = "quarantined"
    FREED = "freed"


@dataclass
class AllocDecision:
    """What to do to one object at allocation time."""

    pad_pre: int = 0
    pad_post: int = 0
    canary_pad: bool = False        # fill padding with canary (exposing)
    fill: Optional[str] = None      # None | "zero" | "canary"
    patch_id: Optional[int] = None  # patch that caused this, if any


@dataclass
class FreeDecision:
    """What to do to one object at deallocation time."""

    delay: bool = False
    canary_fill: bool = False       # fill contents with canary (exposing)
    check_param: bool = False       # swallow frees of non-live pointers
    patch_id: Optional[int] = None


#: The no-change decisions: one shared instance each, never mutated.
PLAIN_ALLOC = AllocDecision()
PLAIN_FREE = FreeDecision()

_OFF, _VALIDATION = ExtensionMode.OFF, ExtensionMode.VALIDATION
_LIVE = ObjectState.LIVE


class ChangePolicy:
    """Decides the environmental changes for each operation.

    Subclassed by the diagnostic engine (whole-heap or per-call-site
    changes) and by the patch pool (normal mode).  The default applies
    nothing.
    """

    def on_alloc(self, callsite: Optional[CallSite]) -> AllocDecision:
        return PLAIN_ALLOC

    def on_free(self, callsite: Optional[CallSite],
                user_addr: int) -> FreeDecision:
        return PLAIN_FREE


class ObjectInfo:
    """Extension-side record of one object (the 16-byte metadata), one
    per allocation.  ``block_addr`` is where the pre-pad starts;
    ``written`` holds init-tracking bytes (validation only)."""

    __slots__ = ("user_addr", "user_size", "block_addr", "block_size",
                 "pad_pre", "pad_post", "canary_pad", "fill",
                 "alloc_site", "alloc_seq", "patch_id", "sampled",
                 "state", "free_site", "free_patch_id",
                 "canary_filled_on_free", "written")

    def __init__(self, user_addr: int, user_size: int, block_addr: int,
                 block_size: int, pad_pre: int, pad_post: int,
                 canary_pad: bool, fill: Optional[str],
                 alloc_site: Optional[CallSite], alloc_seq: int,
                 patch_id: Optional[int] = None, sampled: bool = False,
                 state: ObjectState = ObjectState.LIVE,
                 free_site: Optional[CallSite] = None,
                 free_patch_id: Optional[int] = None,
                 canary_filled_on_free: bool = False,
                 written: Optional[bytearray] = None):
        self.user_addr, self.user_size = user_addr, user_size
        self.block_addr, self.block_size = block_addr, block_size
        self.pad_pre, self.pad_post = pad_pre, pad_post
        self.canary_pad, self.fill = canary_pad, fill
        self.alloc_site, self.alloc_seq = alloc_site, alloc_seq
        self.patch_id, self.sampled = patch_id, sampled
        self.state, self.free_site = state, free_site
        self.free_patch_id, self.written = free_patch_id, written
        self.canary_filled_on_free = canary_filled_on_free

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _OBJECT_FIELDS(self) == _OBJECT_FIELDS(other)

    def __repr__(self) -> str:
        pairs = zip(self.__slots__, _OBJECT_FIELDS(self))
        return "ObjectInfo(%s)" % ", ".join(f"{k}={v!r}" for k, v in pairs)

    def contains(self, addr: int) -> bool:
        return self.user_addr <= addr < self.user_addr + self.user_size

    def in_pre_pad(self, addr: int) -> bool:
        return self.block_addr <= addr < self.user_addr

    def in_post_pad(self, addr: int) -> bool:
        end = self.user_addr + self.user_size
        return self.pad_post > 0 and end <= addr < self.block_addr + self.block_size

    def copy(self) -> "ObjectInfo":
        """An independent copy (the init-tracking bytes included)."""
        clone = type(self)(*_OBJECT_FIELDS(self))
        if self.written is not None:
            clone.written = bytearray(self.written)
        return clone


_OBJECT_FIELDS = attrgetter(*ObjectInfo.__slots__)


class MMTraceEntry(NamedTuple):
    """One line of the memory-management trace (bug report item 4);
    validation records one per heap op and ships them from workers."""

    seq: int
    op: str                # "malloc" | "free"
    user_addr: int
    size: int
    callsite: Optional[CallSite]
    patch_id: Optional[int]
    delayed: bool = False
    fill: Optional[str] = None

    def render(self) -> str:
        site = (f" @{self.callsite.innermost[0]}"
                if self.callsite else "")
        extra = ""
        if self.delayed:
            extra = f"  (delayed, patch {self.patch_id})"
        elif self.patch_id is not None:
            extra = f"  (patch {self.patch_id})"
        if self.op == "malloc":
            return f"malloc({self.size}): 0x{self.user_addr:x}{site}{extra}"
        return f"free(0x{self.user_addr:x}){site}{extra}"


@dataclass(frozen=True)
class IllegalAccess:
    """One traced illegal access (bug report item 5).

    ``offset`` is relative to the start of the affected object, so it is
    stable under address randomization -- consistency criterion (c) of
    the validation algorithm compares exactly (instr_id, offset, kind).
    """

    kind: str              # "overflow-write" | "dangling-read" |
                           # "dangling-write" | "uninit-read"
    instr_id: Tuple[str, int]
    offset: int
    is_write: bool
    site: Optional[CallSite]
    patch_id: Optional[int]

    def identity(self) -> tuple:
        return (self.kind, self.instr_id, self.offset, self.is_write)


@dataclass
class OverflowHit:
    user_addr: int
    user_size: int
    alloc_site: Optional[CallSite]
    side: str              # "pre" | "post"
    offsets: List[int]


@dataclass
class DanglingWriteHit:
    user_addr: int
    user_size: int
    free_site: Optional[CallSite]
    offsets: List[int]


@dataclass
class DoubleFreeEvent:
    user_addr: int
    second_site: Optional[CallSite]
    first_site: Optional[CallSite]


@dataclass
class Manifestations:
    """Everything a manifestation scan can report."""

    overflow_hits: List[OverflowHit] = field(default_factory=list)
    dangling_write_hits: List[DanglingWriteHit] = field(default_factory=list)
    double_free_events: List[DoubleFreeEvent] = field(default_factory=list)

    def any(self) -> bool:
        return bool(self.overflow_hits or self.dangling_write_hits
                    or self.double_free_events)


class _HeapInstruments:
    """The extension's registry instruments (telemetry enabled only).

    malloc/free are already heavyweight operations (policy lookup,
    canary fills), so direct instrument updates here are fine -- the
    batching discipline only matters on the per-instruction VM path.
    """

    __slots__ = ("mallocs", "frees", "bad_frees", "alloc_size",
                 "patch_triggers", "padding_bytes", "metadata_bytes",
                 "quarantine_bytes", "quarantine_objects",
                 "canary_checks", "canary_corruptions",
                 "live_bytes", "peak_bytes",
                 "sampled_allocs", "sampled_detections",
                 "sampled_suppressed", "sampled_scans")

    def __init__(self, registry):
        self.mallocs = registry.counter("heap.mallocs")
        self.frees = registry.counter("heap.frees")
        self.bad_frees = registry.counter("heap.bad_frees")
        self.alloc_size = registry.histogram("heap.alloc_size")
        self.patch_triggers = registry.counter("heap.patch_triggers")
        self.padding_bytes = registry.gauge("heap.padding_bytes")
        self.metadata_bytes = registry.gauge("heap.metadata_bytes")
        self.quarantine_bytes = registry.gauge("heap.quarantine_bytes")
        self.quarantine_objects = registry.gauge("heap.quarantine_objects")
        self.canary_checks = registry.gauge("heap.canary_checks")
        self.canary_corruptions = registry.gauge("heap.canary_corruptions")
        self.live_bytes = registry.gauge("heap.live_bytes")
        self.peak_bytes = registry.gauge("heap.peak_bytes")
        self.sampled_allocs = registry.gauge("sampling.sampled_allocs")
        self.sampled_detections = registry.gauge("sampling.detections")
        self.sampled_suppressed = registry.gauge("sampling.suppressed")
        self.sampled_scans = registry.gauge("sampling.guard_scans")

    def sync_allocator(self, allocator) -> None:
        stats = allocator.stats()
        self.live_bytes.set(stats["live_user_bytes"])
        self.peak_bytes.set(stats["peak_heap_bytes"])


class AllocatorExtension:
    """The allocator extension; the VM routes malloc/free through it."""

    def __init__(self, mem: Memory, allocator: LeaAllocator,
                 mode: ExtensionMode = ExtensionMode.NORMAL,
                 policy: Optional[ChangePolicy] = None,
                 clock: Optional[SimClock] = None,
                 costs: Optional[CostModel] = None,
                 quarantine_threshold: int = DEFAULT_THRESHOLD):
        self.mem = mem
        self.allocator = allocator
        self.mode = mode
        self.policy = policy or ChangePolicy()
        self.clock = clock
        self.costs = costs or CostModel()
        self.quarantine = DelayFreeQuarantine(
            self._release_quarantined, quarantine_threshold)

        #: Sampled always-on detection: a
        #: :class:`repro.sampling.guards.SampledGuards`, or None (the
        #: default), which leaves every code path the unsampled one.
        self.guards = None

        self._objects: Dict[int, ObjectInfo] = {}
        self._starts: List[int] = []            # sorted block starts
        self._by_start: Dict[int, int] = {}     # block start -> user addr
        self._alloc_seq = 0

        # Memory-pressure failsafe (paper Section 2): when the extra
        # memory held by runtime patches (padding + delay-freed
        # objects) exceeds this limit, patching is disabled and the
        # oldest delay-freed objects are released.  None = unlimited.
        self.patch_memory_limit: Optional[int] = None
        self.patching_disabled = False

        # Manifestation evidence accumulated during a (re-)execution.
        self._overflow_hits: List[OverflowHit] = []
        self._dangling_write_hits: List[DanglingWriteHit] = []
        self._double_free_events: List[DoubleFreeEvent] = []

        # Traces (diagnostic + validation modes).
        self.mm_trace: List[MMTraceEntry] = []
        self.illegal_accesses: List[IllegalAccess] = []
        self.trace_mm = False
        #: Access watch (build_watch): the 8-byte granules holding every
        #: address where note_access can act, or None (no watch).
        self.watch: Optional[set] = None

        # Statistics for the space-overhead experiments.
        self.metadata_bytes = 0
        self.peak_metadata_bytes = 0
        self.padding_bytes = 0
        self.peak_padding_bytes = 0
        self.patch_trigger_count = 0

        # Telemetry (attach_telemetry): canary activity tally plus
        # optional registry instruments and flight-recorder feed.
        self.canary_stats = CanaryStats()
        self._tm: Optional[_HeapInstruments] = None
        self._flight = None

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------

    def attach_telemetry(self, telemetry) -> None:
        """Register heap instruments and the flight-recorder feed.

        A disabled telemetry object attaches nothing, keeping
        malloc/free free of instrument updates.
        """
        if telemetry is None or not telemetry.enabled:
            self._tm = None
            self._flight = None
            self.quarantine.observer = None
            return
        self._tm = _HeapInstruments(telemetry.metrics)
        self._flight = telemetry.recorder

        def _quarantine_observer(nbytes: int, count: int) -> None:
            tm = self._tm
            if tm is not None:
                tm.quarantine_bytes.set(nbytes)
                tm.quarantine_objects.set(count)

        self.quarantine.observer = _quarantine_observer

    def _sync_canary_metrics(self) -> None:
        tm = self._tm
        if tm is not None:
            tm.canary_checks.set(self.canary_stats.checks)
            tm.canary_corruptions.set(self.canary_stats.corruptions)

    def _sync_sampling_metrics(self) -> None:
        tm = self._tm
        stats = self.sampling_stats
        if tm is None or stats is None:
            return
        tm.sampled_allocs.set(stats.sampled_allocs)
        tm.sampled_detections.set(stats.detections)
        tm.sampled_suppressed.set(stats.suppressed)
        tm.sampled_scans.set(stats.guard_scans)

    # ------------------------------------------------------------------
    # sampled guards (repro.sampling.guards)
    # ------------------------------------------------------------------

    @property
    def sampling_stats(self):
        """The guards' counters, or None without guards."""
        return self.guards.stats if self.guards is not None else None

    def _guarding(self) -> bool:
        # The guards act only in NORMAL mode with patching enabled.
        # Their ``paused`` flag does not gate this: it swallows the
        # raise only.
        return (self.guards is not None
                and self.mode is ExtensionMode.NORMAL
                and not self.patching_disabled)

    def check_sampled_guards(self) -> None:
        """Boundary sweep of the guarded objects (raises
        :class:`~repro.errors.SampledGuardFault` on a hit).  The
        checkpoint manager calls this after each boundary checkpoint;
        it is a no-op unless the guards may act."""
        if self._guarding():
            self.guards.sweep(self, self._objects.values())

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _charge(self, ns: int) -> None:
        if self.clock is not None and ns:
            self.clock.charge(ns)

    def _op_cost(self) -> int:
        mode, costs = self.mode, self.costs
        if mode is ExtensionMode.NORMAL:
            return costs.extension_ns + costs.patch_lookup_ns
        if mode is ExtensionMode.OFF:
            return 0
        if mode is ExtensionMode.DIAGNOSTIC:
            return 2 * costs.extension_ns  # multi-level capture etc.
        return 3 * costs.extension_ns

    def left_neighbor(self, obj: ObjectInfo) -> Optional[ObjectInfo]:
        """Nearest tracked object whose block precedes ``obj``'s."""
        i = bisect.bisect_left(self._starts, obj.block_addr) - 1
        if i < 0:
            return None
        neighbor = self._objects.get(self._by_start[self._starts[i]])
        if neighbor is None or neighbor.state is ObjectState.FREED:
            return None
        return neighbor

    def find_object(self, addr: int) -> Optional[ObjectInfo]:
        """Tracked object whose *block* (padding included) covers addr."""
        i = bisect.bisect_right(self._starts, addr) - 1
        if i < 0:
            return None
        start = self._starts[i]
        obj = self._objects.get(self._by_start[start])
        if obj and start <= addr < start + obj.block_size:
            return obj
        return None

    def live_objects(self) -> List[ObjectInfo]:
        return [o for o in self._objects.values()
                if o.state is ObjectState.LIVE]

    def object_at(self, user_addr: int) -> Optional[ObjectInfo]:
        return self._objects.get(user_addr)

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------

    def malloc(self, size: int, callsite: Optional[CallSite]) -> int:
        mode, allocator = self.mode, self.allocator
        if mode is _OFF:
            return allocator.malloc(size)

        clock = self.clock
        if clock is not None:
            clock.charge(self._op_cost())
        decision = self.policy.on_alloc(callsite)
        if decision.patch_id is not None and self.patching_disabled:
            decision = PLAIN_ALLOC
        sampled = False
        if self.guards is not None and self._guarding():
            guarded = self.guards.promote(decision, self._alloc_seq + 1)
            if guarded is not None:
                decision, sampled = guarded, True
                self._sync_sampling_metrics()
        pad_pre, pad_post = decision.pad_pre, decision.pad_post
        block_addr = allocator.malloc(pad_pre + size + pad_post)
        user_addr = block_addr + pad_pre
        fill = decision.fill

        if decision.canary_pad:
            canary_fill(self.mem, block_addr, pad_pre, self.canary_stats)
            canary_fill(self.mem, user_addr + size, pad_post,
                        self.canary_stats)
            self._charge(self.costs.fill_cost(pad_pre + pad_post))
        if fill == "zero":
            if size:
                self.mem.fill(user_addr, 0, size)
            self._charge(self.costs.fill_cost(size))
        elif fill == "canary":
            canary_fill(self.mem, user_addr, size, self.canary_stats)
            self._charge(self.costs.fill_cost(size))

        self._alloc_seq = seq = self._alloc_seq + 1
        patch_id = decision.patch_id
        obj = ObjectInfo(user_addr, size, block_addr,
                         allocator.last_usable, pad_pre, pad_post,
                         decision.canary_pad, fill, callsite, seq,
                         patch_id, sampled)
        if mode is _VALIDATION and fill == "zero":
            obj.written = bytearray(size)
        self._objects[user_addr] = obj
        bisect.insort(self._starts, block_addr)
        self._by_start[block_addr] = user_addr

        self.metadata_bytes += METADATA_BYTES
        if self.metadata_bytes > self.peak_metadata_bytes:
            self.peak_metadata_bytes = self.metadata_bytes
        pad = pad_pre + pad_post
        if pad:
            self.padding_bytes += pad
            if self.padding_bytes > self.peak_padding_bytes:
                self.peak_padding_bytes = self.padding_bytes
        if self.watch is not None and (pad or obj.written is not None):
            self._watch_update(obj, self.watch.update)
        if patch_id is not None:
            self.patch_trigger_count += 1
        if self.trace_mm:
            self.mm_trace.append(MMTraceEntry(
                seq, "malloc", user_addr, size, callsite, patch_id,
                False, fill))
        tm = self._tm
        if tm is not None:
            tm.mallocs.inc()
            tm.alloc_size.observe(size)
            tm.padding_bytes.set(self.padding_bytes)
            tm.metadata_bytes.set(self.metadata_bytes)
            tm.sync_allocator(allocator)
            if patch_id is not None:
                tm.patch_triggers.inc()
        if self._flight is not None:
            self._flight.record_mm(
                self.clock.now_ns if self.clock else 0, "malloc",
                user_addr, size,
                callsite.innermost[0] if callsite else None, patch_id)
        if patch_id is not None:
            self._enforce_patch_memory()
        return user_addr

    # ------------------------------------------------------------------
    # deallocation
    # ------------------------------------------------------------------

    def free(self, user_addr: int, callsite: Optional[CallSite]) -> None:
        if self.mode is _OFF:
            self.allocator.free(user_addr)
            return

        clock = self.clock
        if clock is not None:
            clock.charge(self._op_cost())
        obj = self._objects.get(user_addr)
        if obj is None or obj.state is not _LIVE:
            self._handle_bad_free(user_addr, callsite, obj)
            return

        decision = self.policy.on_free(callsite, user_addr)
        if decision.patch_id is not None and self.patching_disabled:
            decision = PLAIN_FREE
        if obj.sampled and self._guarding():
            decision = self.guards.on_free(self, obj, callsite, decision)
        patch_id = decision.patch_id
        obj.free_site = callsite
        obj.free_patch_id = patch_id
        self._alloc_seq += 1
        if patch_id is not None:
            self.patch_trigger_count += 1

        if decision.delay:
            obj.state = ObjectState.QUARANTINED
            obj.canary_filled_on_free = decision.canary_fill
            if decision.canary_fill:
                canary_fill(self.mem, user_addr, obj.user_size,
                            self.canary_stats)
                self._charge(self.costs.fill_cost(obj.user_size))
            if self.watch is not None:
                # Before the add, which may evict the object at once.
                self._watch_update(obj, self.watch.update)
            self.quarantine.add(user_addr, obj.user_size, callsite,
                                decision.canary_fill, patch_id)
        else:
            self._really_free(obj)

        if self.trace_mm:
            self.mm_trace.append(MMTraceEntry(
                self._alloc_seq, "free", user_addr, obj.user_size,
                callsite, patch_id, decision.delay))
        tm = self._tm
        if tm is not None:
            tm.frees.inc()
            tm.padding_bytes.set(self.padding_bytes)
            tm.metadata_bytes.set(self.metadata_bytes)
            tm.sync_allocator(self.allocator)
            if patch_id is not None:
                tm.patch_triggers.inc()
        if self._flight is not None:
            self._flight.record_mm(
                self.clock.now_ns if self.clock else 0, "free",
                user_addr, obj.user_size,
                callsite.innermost[0] if callsite else None, patch_id)
        if patch_id is not None:
            self._enforce_patch_memory()

    def _handle_bad_free(self, user_addr: int,
                         callsite: Optional[CallSite],
                         obj: Optional[ObjectInfo]) -> None:
        """Free of a pointer that is not a live object: a double free or
        a wild free.  With the parameter check active (delay-free patch
        or diagnostic mode) it is recorded and swallowed; otherwise it is
        forwarded and the allocator aborts, crashing the program."""
        decision = self.policy.on_free(callsite, user_addr)
        if obj is not None and obj.sampled and self._guarding():
            self.guards.on_bad_free(self, obj, callsite, decision)
        # A quarantined object is no longer the allocator's to free, so
        # the extension must intercept regardless of policy; otherwise
        # the check runs only when a policy/patch requests it.
        check = decision.check_param or (
            obj is not None and obj.state is ObjectState.QUARANTINED)
        first_site = obj.free_site if obj is not None else None
        if check:
            self._double_free_events.append(
                DoubleFreeEvent(user_addr, callsite, first_site))
            if self._tm is not None:
                self._tm.bad_frees.inc()
            if decision.patch_id is not None:
                self.patch_trigger_count += 1
            if self.trace_mm:
                self._alloc_seq += 1
                self.mm_trace.append(MMTraceEntry(
                    seq=self._alloc_seq, op="free", user_addr=user_addr,
                    size=obj.user_size if obj else 0, callsite=callsite,
                    patch_id=decision.patch_id, delayed=True))
            return
        # No protection: the program crashes as a raw run would (glibc
        # aborts with "double free or corruption").
        if obj is not None:
            raise HeapCorruptionFault(
                f"double free of 0x{user_addr:x}", address=user_addr)
        self.allocator.free(user_addr)

    def _really_free(self, obj: ObjectInfo) -> None:
        if obj.canary_pad:
            self._check_pad_canaries(obj)
        pad = obj.pad_pre + obj.pad_post
        if self.watch is not None and (
                pad or obj.written is not None
                or obj.state is ObjectState.QUARANTINED):
            self._watch_update(obj, self.watch.difference_update)
        obj.state = ObjectState.FREED
        starts, block_addr = self._starts, obj.block_addr
        i = bisect.bisect_left(starts, block_addr)
        if i < len(starts) and starts[i] == block_addr:
            starts.pop(i)
        self._by_start.pop(block_addr, None)
        self.metadata_bytes -= METADATA_BYTES
        if pad:
            self.padding_bytes -= pad
        self.allocator.free(obj.block_addr)

    def _release_quarantined(self, user_addr: int) -> None:
        """Quarantine eviction callback: perform the real free."""
        obj = self._objects.get(user_addr)
        if obj is None:
            return
        if obj.canary_filled_on_free:
            offs = self._check_quarantine_canary(obj)
            if offs and obj.sampled and self._guarding():
                self.guards.on_evict(self, obj, offs[0])
        self._really_free(obj)

    # ------------------------------------------------------------------
    # memory-pressure failsafe
    # ------------------------------------------------------------------

    @property
    def patch_memory_bytes(self) -> int:
        """Extra memory currently held by runtime patches: live
        padding plus delay-freed objects."""
        return self.padding_bytes + self.quarantine.current_bytes

    def _enforce_patch_memory(self) -> None:
        """Disable patching and release the oldest delay-freed
        objects once the user-defined limit is exceeded (paper
        Section 2: users choose how much memory to spend on
        reliability; releasing very old delay-freed objects is usually
        safe but may let the bug strike again)."""
        limit = self.patch_memory_limit
        if limit is None or self.patching_disabled:
            return
        if self.patch_memory_bytes <= limit:
            return
        self.patching_disabled = True
        while (self.quarantine.current_bytes > limit // 2
               and len(self.quarantine)):
            self.quarantine.pop_oldest()

    # ------------------------------------------------------------------
    # manifestation evidence
    # ------------------------------------------------------------------

    def pad_corruption(self, obj: ObjectInfo) -> Tuple[List[int], List[int]]:
        """Corrupted offsets in ``obj``'s pre and post pads."""
        stats = self.canary_stats
        pre = corrupted_offsets(self.mem, obj.block_addr, obj.pad_pre,
                                stats)
        post = corrupted_offsets(self.mem, obj.user_addr + obj.user_size,
                                 obj.pad_post, stats)
        self._sync_canary_metrics()
        return pre, post

    def _check_pad_canaries(self, obj: ObjectInfo) -> None:
        pre, post = self.pad_corruption(obj)
        for side, offsets in (("pre", pre), ("post", post)):
            if offsets:
                self._overflow_hits.append(OverflowHit(
                    obj.user_addr, obj.user_size, obj.alloc_site, side,
                    offsets))

    def _check_quarantine_canary(self, obj: ObjectInfo) -> List[int]:
        offs = corrupted_offsets(self.mem, obj.user_addr, obj.user_size,
                                 self.canary_stats)
        if offs:
            self._dangling_write_hits.append(DanglingWriteHit(
                obj.user_addr, obj.user_size, obj.free_site, offs))
        self._sync_canary_metrics()
        return offs

    def scan_manifestations(self) -> Manifestations:
        """Sweep all still-tracked objects for canary corruption and
        combine with events recorded along the way.  Called by the
        diagnostic engine at the end of each re-execution window."""
        for obj in self._objects.values():
            if obj.state is ObjectState.FREED:
                continue
            if obj.canary_pad:
                # Live or quarantined: padding canaries survive the
                # free (only the user region gets canary-filled), so
                # overflow evidence persists into the quarantine.
                self._check_pad_canaries(obj)
            if (obj.state is ObjectState.QUARANTINED
                    and obj.canary_filled_on_free):
                self._check_quarantine_canary(obj)
        return Manifestations(
            overflow_hits=self._dedupe_overflow(),
            dangling_write_hits=self._dedupe_dangling(),
            double_free_events=list(self._double_free_events),
        )

    def _dedupe_overflow(self) -> List[OverflowHit]:
        seen, out = set(), []
        for hit in self._overflow_hits:
            key = (hit.user_addr, hit.side)
            if key not in seen:
                seen.add(key)
                out.append(hit)
        return out

    def _dedupe_dangling(self) -> List[DanglingWriteHit]:
        seen, out = set(), []
        for hit in self._dangling_write_hits:
            if hit.user_addr not in seen:
                seen.add(hit.user_addr)
                out.append(hit)
        return out

    # ------------------------------------------------------------------
    # access tracing (validation mode -- the Pin analogue)
    # ------------------------------------------------------------------

    def note_access(self, addr: int, size: int, is_write: bool,
                    instr_id: Tuple[str, int]) -> None:
        """Classify one access starting at ``addr`` against tracked
        objects and charge ``trace_ns``.

        Called when the machine's ``trace_accesses`` is set: on a
        LOAD, STORE, MEMSET or MEMCPY whose ``addr`` granule is in
        :attr:`watch` (every access, when there is no watch); the
        machine defers the other accesses' ``trace_ns`` to its batched
        sim-time.
        """
        self._charge(self.costs.trace_ns)
        obj = self.find_object(addr)
        if obj is None:
            return
        if obj.state is ObjectState.QUARANTINED:
            self.illegal_accesses.append(IllegalAccess(
                kind="dangling-write" if is_write else "dangling-read",
                instr_id=instr_id, offset=addr - obj.user_addr,
                is_write=is_write, site=obj.free_site,
                patch_id=obj.free_patch_id))
            return
        if obj.state is not ObjectState.LIVE:
            return
        if is_write and (obj.in_pre_pad(addr) or obj.in_post_pad(addr)):
            self.illegal_accesses.append(IllegalAccess(
                kind="overflow-write", instr_id=instr_id,
                offset=addr - obj.user_addr, is_write=True,
                site=obj.alloc_site, patch_id=obj.patch_id))
            return
        if obj.written is not None and obj.contains(addr):
            off = addr - obj.user_addr
            end = min(off + size, obj.user_size)
            if is_write:
                for i in range(off, end):
                    obj.written[i] = 1
            elif not all(obj.written[off:end]):
                self.illegal_accesses.append(IllegalAccess(
                    kind="uninit-read", instr_id=instr_id, offset=off,
                    is_write=False, site=obj.alloc_site,
                    patch_id=obj.patch_id))

    def build_watch(self) -> None:
        """Start keeping :attr:`watch`: the set of 8-byte granules
        (``addr >> 3``) that cover every address where
        :meth:`note_access` can record an :class:`IllegalAccess` or
        mark init bytes.  A granule holding both such and other bytes
        is watched, and note_access decides there.  Blocks start and
        end on 16-byte boundaries, so no granule spans two blocks.

        The watch is derived state: malloc, the delayed and the real
        free keep it current, restore rebuilds it, and snapshots leave
        it out.  Its deferred charge is exact only when this extension
        charges the machine's clock (:meth:`Process.trace_accesses
        <repro.process.Process.trace_accesses>`).
        """
        self.watch = set()
        for obj in self._objects.values():
            if obj.state is not ObjectState.FREED:
                self._watch_update(obj, self.watch.update)

    def _watch_update(self, obj: ObjectInfo,
                      op: Callable[[range], None]) -> None:
        """Apply ``op`` (the watch's ``update`` or
        ``difference_update``) to the granules of ``obj`` where
        note_access can act: a quarantined object's whole block; a
        live one's pre-pad, its post-pad when ``pad_post > 0``, and its
        user region when init-tracked.  Nothing, for a live object
        with neither pads nor an init bitmap: malloc and the real free
        skip the call for those."""
        start = obj.block_addr
        end = start + obj.block_size
        if obj.state is ObjectState.QUARANTINED:
            spans = ((start, end),)
        else:
            user_end = obj.user_addr + obj.user_size
            if not obj.pad_post:
                end = user_end
            if obj.written is not None:
                spans = ((start, end),)
            else:
                spans = ((start, obj.user_addr), (user_end, end))
        for lo, hi in spans:
            if lo < hi:
                op(range(lo >> 3, (hi + 7) >> 3))

    # ------------------------------------------------------------------
    # snapshot / restore
    # ------------------------------------------------------------------

    def snapshot(self) -> tuple:
        objects = {addr: o.copy() for addr, o in self._objects.items()}
        return (
            objects, list(self._starts), dict(self._by_start),
            self._alloc_seq, self.quarantine.snapshot(),
            list(self._overflow_hits), list(self._dangling_write_hits),
            list(self._double_free_events),
            list(self.mm_trace), list(self.illegal_accesses),
            self.metadata_bytes, self.peak_metadata_bytes,
            self.padding_bytes, self.peak_padding_bytes,
            self.patch_trigger_count, self.patching_disabled,
            self.guards.stats.snapshot()
            if self.guards is not None else None,
        )

    def restore(self, snap: tuple) -> None:
        (objects, starts, by_start, seq, quarantine_snap,
         over, dang, dbl, mm, illegal,
         meta, peak_meta, pad, peak_pad, triggers, disabled,
         sampling_snap) = snap
        self._objects = {addr: o.copy() for addr, o in objects.items()}
        self._starts = list(starts)
        self._by_start = dict(by_start)
        self._alloc_seq = seq
        self.quarantine.restore(quarantine_snap)
        self._overflow_hits = list(over)
        self._dangling_write_hits = list(dang)
        self._double_free_events = list(dbl)
        self.mm_trace = list(mm)
        self.illegal_accesses = list(illegal)
        self.metadata_bytes = meta
        self.peak_metadata_bytes = peak_meta
        self.padding_bytes = pad
        self.peak_padding_bytes = peak_pad
        self.patch_trigger_count = triggers
        self.patching_disabled = disabled
        if sampling_snap is not None and self.guards is not None:
            self.guards.stats.restore(sampling_snap)
        if self.watch is not None:
            self.build_watch()
