"""Bounded flight recorder.

A production process cannot afford to keep its whole history around on
the off chance of a crash; it keeps *recent* history in fixed-size ring
buffers and dumps them when something goes wrong (the black-box /
flight-recorder pattern; GWP-ASan keeps exactly such bounded
allocation-site rings).  This module provides that for First-Aid:

* recent structured :class:`~repro.util.events.Event` records, and
* the last N allocation/deallocation records,

each in a ``deque(maxlen=...)``.  At failure time the runtime calls
:meth:`FlightRecorder.snapshot` and attaches the frozen
:class:`FlightRecording` to the bug report -- replacing the previous
practice of attaching unbounded traces.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional

from repro.util.events import Event

#: Default ring capacities, sized so a dump stays readable.
DEFAULT_EVENT_CAPACITY = 256
DEFAULT_MM_CAPACITY = 256


@dataclass(frozen=True)
class MMRecord:
    """One allocation/deallocation, as the flight recorder keeps it."""

    time_ns: int
    op: str                     # "malloc" | "free"
    user_addr: int
    size: int
    site: Optional[str]         # innermost call-site function, if known
    patch_id: Optional[int]

    def render(self) -> str:
        site = f" @{self.site}" if self.site else ""
        patch = f" (patch {self.patch_id})" if self.patch_id is not None \
            else ""
        if self.op == "malloc":
            return (f"[{self.time_ns / 1e9:10.6f}s] malloc({self.size})"
                    f" = 0x{self.user_addr:x}{site}{patch}")
        return (f"[{self.time_ns / 1e9:10.6f}s] free(0x{self.user_addr:x})"
                f"{site}{patch}")


@dataclass
class FlightRecording:
    """Frozen dump of the recorder's rings at one instant."""

    time_ns: int
    events: List[Event] = field(default_factory=list)
    mm_records: List[MMRecord] = field(default_factory=list)
    events_dropped: int = 0
    mm_dropped: int = 0

    def render(self, limit: int = 40) -> str:
        out: List[str] = []
        dropped = (f" ({self.events_dropped} older dropped)"
                   if self.events_dropped else "")
        out.append(f"  last {len(self.events)} event(s){dropped}:")
        out += [f"    {e.render()}" for e in self.events[-limit:]]
        dropped = (f" ({self.mm_dropped} older dropped)"
                   if self.mm_dropped else "")
        out.append(f"  last {len(self.mm_records)} "
                   f"allocation record(s){dropped}:")
        out += [f"    {r.render()}" for r in self.mm_records[-limit:]]
        return "\n".join(out)


class FlightRecorder:
    """Fixed-capacity rings of recent events and memory operations."""

    def __init__(self,
                 event_capacity: int = DEFAULT_EVENT_CAPACITY,
                 mm_capacity: int = DEFAULT_MM_CAPACITY,
                 enabled: bool = True):
        self.enabled = enabled
        self.event_capacity = event_capacity
        self.mm_capacity = mm_capacity
        self._events: Deque[Event] = deque(maxlen=event_capacity)
        self._mm: Deque[MMRecord] = deque(maxlen=mm_capacity)
        self.events_seen = 0
        self.mm_seen = 0

    # -- feeds ---------------------------------------------------------

    def record_event(self, event: Event) -> None:
        self.events_seen += 1
        self._events.append(event)

    def record_mm(self, time_ns: int, op: str, user_addr: int, size: int,
                  site: Optional[str], patch_id: Optional[int]) -> None:
        self.mm_seen += 1
        self._mm.append(MMRecord(time_ns, op, user_addr, size, site,
                                 patch_id))

    # -- dumping -------------------------------------------------------

    def snapshot(self, time_ns: int) -> FlightRecording:
        return FlightRecording(
            time_ns=time_ns,
            events=list(self._events),
            mm_records=list(self._mm),
            events_dropped=max(0, self.events_seen - len(self._events)),
            mm_dropped=max(0, self.mm_seen - len(self._mm)),
        )

    def clear(self) -> None:
        self._events.clear()
        self._mm.clear()
        self.events_seen = 0
        self.mm_seen = 0
