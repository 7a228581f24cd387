"""Runtime patches and the patch pool.

A runtime patch (paper Section 2) is the pair of a preventive change
and a patch application point -- the allocation or deallocation
call-site of the bug-triggering memory objects.  During normal
execution the allocator extension asks the pool, at every allocation
and deallocation, whether the current call-site matches a patch; if so
the patch's preventive change is applied to that object only.

The pool is keyed by *program*, not process: through the shared patch
store (:mod:`repro.store`) its patches reach subsequent runs and other
processes running the same executable, which is how First-Aid prevents
reoccurrence system-wide.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional

from repro.core.bugtypes import BugType
from repro.core.changes import (
    AllocChange,
    FreeChange,
    combine_alloc,
    combine_free,
    preventive_change,
)
from repro.errors import PatchError
from repro.heap.extension import AllocDecision, ChangePolicy, FreeDecision
from repro.util.callsite import CallSite


def patch_key(bug_type: BugType, point: CallSite) -> str:
    """The cross-process identity of a patch: two processes that
    independently diagnose the same bug at the same call-site produce
    the same key, which is what the shared store unions on (their
    process-local ``patch_id``s are arbitrary)."""
    frames = ";".join(f"{fn}+{pc}" for fn, pc in point.frames)
    return f"{bug_type.value}@{frames}"


@dataclass
class RuntimePatch:
    """One runtime patch."""

    patch_id: int
    bug_type: BugType
    point: CallSite               # application point
    apply_at: str                 # "alloc" | "free"
    created_time_ns: int = 0
    validated: bool = False
    #: times the patch matched an operation (bookkeeping for Table 4
    #: and the bug report's "triggered N times").
    trigger_count: int = 0

    def __post_init__(self) -> None:
        if self.apply_at not in ("alloc", "free"):
            raise PatchError(f"bad apply_at {self.apply_at!r}")
        if self.apply_at != self.bug_type.patch_point:
            raise PatchError(
                f"{self.bug_type.value} patches apply at "
                f"{self.bug_type.patch_point}, not {self.apply_at}")

    @property
    def change(self):
        return preventive_change(self.bug_type)

    @property
    def key(self) -> str:
        return patch_key(self.bug_type, self.point)

    def describe(self) -> str:
        return (f"{self.bug_type.patch_description} on callsite:\n"
                f"{self.point.render()}")

    def to_json(self) -> dict:
        """Full-fidelity wire form: every field, including the
        mutable bookkeeping (``trigger_count``), round-trips."""
        return {
            "patch_id": self.patch_id,
            "bug_type": self.bug_type.value,
            "point": self.point.to_json(),
            "apply_at": self.apply_at,
            "created_time_ns": self.created_time_ns,
            "validated": self.validated,
            "trigger_count": self.trigger_count,
        }

    @classmethod
    def from_json(cls, data: dict) -> "RuntimePatch":
        return cls(
            patch_id=int(data["patch_id"]),
            bug_type=BugType(data["bug_type"]),
            point=CallSite.from_json(data["point"]),
            apply_at=str(data["apply_at"]),
            created_time_ns=int(data.get("created_time_ns", 0)),
            validated=bool(data.get("validated", False)),
            trigger_count=int(data.get("trigger_count", 0)),
        )


class PatchPool:
    """All patches for one program."""

    def __init__(self, program_name: str):
        self.program_name = program_name
        self._patches: Dict[int, RuntimePatch] = {}
        #: (bug_type, point) identity index; ``find`` is called from
        #: ``new_patch`` on every diagnosis and from store merges, so
        #: it must not scan the pool.
        self._by_key: Dict[str, RuntimePatch] = {}
        self._next_id = 1

    # ------------------------------------------------------------------

    def _register(self, patch: RuntimePatch) -> None:
        self._patches[patch.patch_id] = patch
        self._by_key[patch.key] = patch
        self._next_id = max(self._next_id, patch.patch_id + 1)

    def new_patch(self, bug_type: BugType, point: CallSite,
                  created_time_ns: int = 0) -> RuntimePatch:
        """Create, register, and return a patch.  Duplicate
        (bug type, point) pairs return the existing patch."""
        existing = self.find(bug_type, point)
        if existing is not None:
            return existing
        patch = RuntimePatch(self._next_id, bug_type, point,
                             bug_type.patch_point, created_time_ns)
        self._register(patch)
        return patch

    def find(self, bug_type: BugType,
             point: CallSite) -> Optional[RuntimePatch]:
        return self._by_key.get(patch_key(bug_type, point))

    def find_key(self, key: str) -> Optional[RuntimePatch]:
        """Lookup by the cross-process :func:`patch_key` string."""
        return self._by_key.get(key)

    def remove(self, patch_id: int) -> None:
        patch = self._patches.pop(patch_id, None)
        if patch is not None:
            self._by_key.pop(patch.key, None)

    def remove_key(self, key: str) -> Optional[RuntimePatch]:
        """Remove (and return) the patch with this cross-process key,
        e.g. when another process retracted it from the shared store."""
        patch = self._by_key.pop(key, None)
        if patch is not None:
            self._patches.pop(patch.patch_id, None)
        return patch

    def absorb(self, patches: Iterable[RuntimePatch]) -> bool:
        """Merge foreign patches (another process's, via the shared
        store) into this pool by :func:`patch_key` identity.  Existing
        entries keep their local ``patch_id`` and take the max trigger
        count and the sticky validated flag; unknown keys are adopted
        under a fresh local id.  Returns True when anything changed."""
        changed = False
        for incoming in patches:
            mine = self._by_key.get(incoming.key)
            if mine is None:
                adopted = replace(incoming, patch_id=self._next_id)
                self._register(adopted)
                changed = True
                continue
            if incoming.trigger_count > mine.trigger_count:
                mine.trigger_count = incoming.trigger_count
                changed = True
            if incoming.validated and not mine.validated:
                mine.validated = True
                changed = True
        return changed

    def get(self, patch_id: int) -> Optional[RuntimePatch]:
        return self._patches.get(patch_id)

    def patches(self) -> List[RuntimePatch]:
        return list(self._patches.values())

    def __len__(self) -> int:
        return len(self._patches)

    def policy(self) -> "PatchPolicy":
        return PatchPolicy(self)

    @classmethod
    def from_patches(cls, program_name: str,
                     items: Iterable[dict]) -> "PatchPool":
        """Rebuild a pool from ``to_json()`` payloads (the wire form a
        validation task ships to a worker process).  Full fidelity:
        trigger counts and validation flags survive the trip, and the
        rebuilt patches are new objects, so a worker's bookkeeping
        never reaches the live pool."""
        pool = cls(program_name)
        for item in items:
            pool._register(RuntimePatch.from_json(item))
        return pool


class PatchPolicy(ChangePolicy):
    """Normal-mode policy: apply a patch's preventive change to objects
    whose allocation/deallocation call-site matches the patch point."""

    def __init__(self, pool: PatchPool):
        self._pool = pool
        #: patch_key -> preventive hits scored by *this* policy.  A
        #: patch's ``trigger_count`` is fleet-wide (store merges take
        #: the max across processes), so health beacons report these
        #: locally-attributed counts instead: they depend only on the
        #: local execution, never on peer publish timing.
        self.local_triggers: Dict[str, int] = {}
        self._rebuild()

    def _rebuild(self) -> None:
        self._alloc: Dict[CallSite, RuntimePatch] = {}
        self._free: Dict[CallSite, RuntimePatch] = {}
        for patch in self._pool.patches():
            table = self._alloc if patch.apply_at == "alloc" else self._free
            table[patch.point] = patch

    def refresh(self) -> None:
        """Re-read the pool after patches were added or removed."""
        self._rebuild()

    def has_patch(self, bug_type: BugType, point: CallSite) -> bool:
        """True when a patch for exactly this (bug type, site) already
        exists.  The sampling plane asks before raising a guard hit:
        an already-patched bug must not re-enter the pipeline."""
        return self._pool.find(bug_type, point) is not None

    def on_alloc(self, callsite: Optional[CallSite]) -> AllocDecision:
        if callsite is None:
            return AllocDecision.plain()
        patch = self._alloc.get(callsite)
        if patch is None:
            return AllocDecision.plain()
        patch.trigger_count += 1
        key = patch.key
        self.local_triggers[key] = self.local_triggers.get(key, 0) + 1
        change = patch.change
        assert isinstance(change, AllocChange)
        return combine_alloc([change], patch_id=patch.patch_id)

    def on_free(self, callsite: Optional[CallSite],
                user_addr: int) -> FreeDecision:
        if callsite is None:
            return FreeDecision.plain()
        patch = self._free.get(callsite)
        if patch is None:
            return FreeDecision.plain()
        patch.trigger_count += 1
        key = patch.key
        self.local_triggers[key] = self.local_triggers.get(key, 0) + 1
        change = patch.change
        assert isinstance(change, FreeChange)
        # Delay-free patches always check parameters: a patched free
        # site implies dangling/double-free suspicion.
        decision = combine_free([change], patch_id=patch.patch_id)
        decision.check_param = True
        return decision
