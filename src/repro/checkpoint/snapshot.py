"""Checkpoint objects: heap snapshots as shared page tables.

The paper's Flashback substrate checkpoints like ``fork``: a checkpoint
shares every page the process has not written since the previous one
and copies only the pages dirtied in the interval.  A
:class:`Checkpoint` mirrors that with a page table, one payload per
mapped page: a clean page is the predecessor's payload object, a dirty
page a fresh copy, a page grown and never written the shared
:data:`ZERO_PAGE`.  Beside the table it keeps the machine/allocator/
extension state, which is metadata-sized, not heap-sized.

The weak ``prev`` link ties a checkpoint to its temporal predecessor.
:func:`pages_between` walks these links to compute which pages can
differ between two checkpoints, which is what makes in-place rollback
O(pages changed) instead of O(heap).  The reference is weak so dropping
old checkpoints actually frees their pages; if the link has died the
manager falls back to a full restore.

``space_bytes`` is the number of *new* payload bytes this checkpoint
retained after the manager's page-cache deduplication -- real memory
cost, which is what Table 7 reports.
"""

from __future__ import annotations

import weakref
from typing import FrozenSet, List, Optional, Set

from repro.heap.base import PAGE_SIZE
from repro.process import ProcessSnapshot

#: The one payload every grown, never-written page shares.
ZERO_PAGE = bytes(PAGE_SIZE)


class Checkpoint:
    """One in-memory checkpoint: metadata plus a page table."""

    __slots__ = ("index", "time_ns", "instr_count", "meta", "pages",
                 "dirty", "_prev", "cow_pages", "space_bytes",
                 "__weakref__")

    def __init__(self, index: int, time_ns: int, meta: ProcessSnapshot,
                 pages: List[bytes], dirty: FrozenSet[int],
                 prev: Optional["Checkpoint"] = None,
                 space_bytes: int = 0):
        self.index = index
        self.time_ns = time_ns
        self.instr_count = meta.instr_count
        #: Machine/allocator/extension snapshot with ``memory=None``.
        self.meta = meta
        #: One ``PAGE_SIZE`` payload per mapped page.  Payloads are
        #: shared with other checkpoints' tables; the list is not.
        self.pages = pages
        #: Pages dirtied since the temporal predecessor.
        self.dirty = dirty
        self._prev = weakref.ref(prev) if prev is not None else None
        self.cow_pages = len(dirty)
        self.space_bytes = space_bytes

    @property
    def mapped_bytes(self) -> int:
        return len(self.pages) * PAGE_SIZE

    @property
    def prev(self) -> Optional["Checkpoint"]:
        """Temporal predecessor, or None if it was dropped."""
        return self._prev() if self._prev is not None else None

    def materialize(self) -> ProcessSnapshot:
        """The full-state :class:`ProcessSnapshot` this checkpoint
        denotes.  Costs O(heap) -- use the manager's in-place rollback
        for the common path; this exists for clones (validation) and
        cross-process restores."""
        meta = self.meta
        return ProcessSnapshot(
            machine=meta.machine,
            memory=(b"".join(self.pages), self.dirty),
            allocator=meta.allocator,
            extension=meta.extension,
            randomized=meta.randomized)

    def __repr__(self) -> str:
        return (f"Checkpoint(#{self.index}, instr={self.instr_count}, "
                f"t={self.time_ns / 1e9:.3f}s, cow_pages={self.cow_pages})")


def pages_between(a: Checkpoint, b: Checkpoint) -> Optional[Set[int]]:
    """The set of pages that can differ between checkpoints ``a`` and
    ``b``, or None when their temporal chains share no live common
    ancestor (caller must fall back to a full restore).

    Walks the weak ``prev`` links to the nearest common ancestor and
    unions the per-interval dirty sets on both sides -- every page not
    in that union is bit-identical in both states, so an in-place
    rollback can leave it untouched.
    """
    ancestors = {}
    node: Optional[Checkpoint] = b
    while node is not None:
        ancestors[id(node)] = node
        node = node.prev
    pages: Set[int] = set()
    node = a
    while node is not None and id(node) not in ancestors:
        pages |= node.dirty
        node = node.prev
    if node is None:
        return None
    common = node
    node = b
    while node is not None and node is not common:
        pages |= node.dirty
        node = node.prev
    if node is None:  # pragma: no cover - common came from b's chain
        return None
    return pages
