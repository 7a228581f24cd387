"""Memory bug taxonomy (paper Table 1).

The five bug types First-Aid handles, with the metadata the diagnosis
algorithm needs: where the corresponding patch applies (allocation or
deallocation call-site) and how the bug manifests under its exposing
change.

Diagnosis groups the types by *shared environmental change*: dangling
reads/writes and double frees all use "delay free (+ canary fill)", so
one re-execution exposes all three at once and the manifestation kind
distinguishes them.  Buffer overflow (padding) and uninitialized read
(fill) each get their own group.
"""

from __future__ import annotations

from enum import Enum
from typing import List, Tuple


class BugType(Enum):
    BUFFER_OVERFLOW = "buffer-overflow"
    DANGLING_READ = "dangling-pointer-read"
    DANGLING_WRITE = "dangling-pointer-write"
    DOUBLE_FREE = "double-free"
    UNINIT_READ = "uninitialized-read"

    @property
    def patch_point(self) -> str:
        """Where the runtime patch applies: at the allocation or the
        deallocation call-site of bug-triggering objects (Table 1)."""
        if self in (BugType.BUFFER_OVERFLOW, BugType.UNINIT_READ):
            return "alloc"
        return "free"

    @property
    def identified_directly(self) -> bool:
        """True when the bug-triggering objects can be read straight
        out of the manifestation evidence (canary corruption, free
        parameters); False when binary search over call-sites is needed
        (the read-type bugs, Section 4.2)."""
        return self in (BugType.BUFFER_OVERFLOW, BugType.DANGLING_WRITE,
                        BugType.DOUBLE_FREE)

    @property
    def patch_description(self) -> str:
        return _PATCH_DESCRIPTION[self]


_PATCH_DESCRIPTION = {
    BugType.BUFFER_OVERFLOW: "add padding",
    BugType.DANGLING_READ: "delay free",
    BugType.DANGLING_WRITE: "delay free",
    BugType.DOUBLE_FREE: "delay free",
    BugType.UNINIT_READ: "fill with zero",
}

#: Diagnosis test groups: bug types sharing one exposing change.  Each
#: phase-2 iteration exposes one group while preventing the others.
CHANGE_GROUPS: List[Tuple[BugType, ...]] = [
    (BugType.BUFFER_OVERFLOW,),
    (BugType.DANGLING_READ, BugType.DANGLING_WRITE, BugType.DOUBLE_FREE),
    (BugType.UNINIT_READ,),
]

ALL_BUG_TYPES = tuple(BugType)
