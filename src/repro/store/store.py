"""Crash-safe shared patch store.

The paper's system-wide prevention claim (Section 5) rests on patches
outliving the process that generated them: a patch diagnosed in one
process must reach concurrent and future processes of the same program,
and must survive the messy realities of shared files -- concurrent
writers, processes dying mid-write, corrupted payloads, abandoned
locks.  A plain file write gives none of that: it is last-writer-wins,
so two processes publishing interleaved silently erase each other's
patches.

:class:`SharedPatchStore` is the runtime's one persistence path
(``FirstAidConfig.store_path``).  One JSON file per program, built
on the generic crash-safe channel machinery
(:class:`~repro.store.base.SharedStateChannel`: sidecar file locking
with stale-lock breaking, atomic double-written commits, corruption
quarantine with backup fallback, generation counter, fault injection)
plus the patch-specific merge semantics:

* **Merge-on-write**: a mutation is read-modify-write under the lock.
  Patches union by :func:`~repro.core.patches.patch_key` identity
  (``(bug_type, point)``); colliding entries keep the max trigger
  count and the sticky validated flag.  Nothing is ever
  last-writer-wins.
* **Retraction tombstones**: a patch that fails validation is removed
  *and* tombstoned, so processes that already absorbed it drop it on
  their next refresh instead of resurrecting it into the union.  A
  later re-publish of the same key (the bug was re-diagnosed) clears
  the tombstone.
* **Rollout stages** (schema v2, DESIGN.md §14): a patch payload may
  carry a ``rollout`` envelope (``{"stage": ..., "since_ns": ...}``).
  Records without one are fleet-wide -- the exact pre-rollout
  semantics, so a rollout-disabled fleet reads and writes byte-
  compatible stores.  Stages advance along the
  :data:`~repro.rollout.machine.STAGE_ORDER` lattice only
  (:meth:`SharedPatchStore.set_stage` is advance-only, so concurrent
  controllers converge).  :meth:`SharedPatchStore.rollback` is
  retraction plus a durable ``rolled_back`` record: the record blocks
  plain re-publishes from resurrecting the key (publishing a
  rolled-back key needs an explicit ``restage=True`` -- a fresh
  re-diagnosis re-entering at STAGED), and lets every process refuse
  the key for the rest of its session.

Empty-iterable ``publish()`` / ``retract()`` calls return the current
state without touching the file or the ``publishes`` /
``retractions`` counters, and any mutation that leaves the merged
state unchanged skips the commit entirely (see
:class:`~repro.store.base.SharedStateChannel`).

Fault injection (:mod:`repro.store.faults`) drives all three failure
modes deliberately; ``benchmarks/bench_fleet_prevention.py`` gates that
injected faults lose zero validated patches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.patches import PatchPool, RuntimePatch
from repro.rollout.machine import (
    CANARY_ONLY_STAGES,
    FLEET_WIDE,
    STAGE_ORDER,
    stage_of,
)
from repro.store.base import SharedStateChannel
from repro.store.faults import FaultPlan
from repro.store.locking import DEFAULT_STALE_AFTER

STORE_FORMAT = "first-aid-patch-store"
#: v2 added rollout envelopes + the ``rolled_back`` map.  v1 files
#: load fine (both default empty); readers reject anything newer.
STORE_VERSION = 2


@dataclass
class StoreState:
    """One parsed store payload (or the empty state)."""

    program: str
    generation: int = 0
    #: patch_key -> RuntimePatch.to_json() payload
    patches: Dict[str, dict] = field(default_factory=dict)
    #: patch_key -> generation at which the patch was retracted
    retracted: Dict[str, int] = field(default_factory=dict)
    #: patch_key -> rollback record ({"count", "time_ns",
    #: "generation", "reason"}).  Durable across re-publishes: only an
    #: explicit restage (re-diagnosis) re-enters the key at STAGED.
    rolled_back: Dict[str, dict] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "format": STORE_FORMAT,
            "version": STORE_VERSION,
            "program": self.program,
            "generation": self.generation,
            "patches": self.patches,
            "retracted": self.retracted,
            "rolled_back": self.rolled_back,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "StoreState":
        if payload.get("format") != STORE_FORMAT:
            raise ValueError(f"not a patch store: "
                             f"format={payload.get('format')!r}")
        if int(payload.get("version", 0)) > STORE_VERSION:
            raise ValueError(f"store version {payload.get('version')} "
                             f"is newer than supported {STORE_VERSION}")
        return cls(
            program=str(payload["program"]),
            generation=int(payload["generation"]),
            patches={str(k): dict(v)
                     for k, v in dict(payload["patches"]).items()},
            retracted={str(k): int(v)
                       for k, v in dict(payload["retracted"]).items()},
            rolled_back={str(k): dict(v) for k, v in
                         dict(payload.get("rolled_back", {})).items()},
        )

    def runtime_patches(self) -> List[RuntimePatch]:
        return [RuntimePatch.from_json(p) for p in self.patches.values()]

    def validated_keys(self) -> List[str]:
        return [k for k, p in self.patches.items()
                if p.get("validated", False)]

    def stages(self) -> Dict[str, str]:
        """patch_key -> rollout stage, including terminal
        ``rolled_back`` entries (whose patch records are gone)."""
        out = {key: stage_of(payload)
               for key, payload in self.patches.items()}
        for key in self.rolled_back:
            out.setdefault(key, "rolled_back")
        return out


class SharedPatchStore(SharedStateChannel):
    """The shared, crash-safe patch store for one program."""

    def __init__(self, path: str, program_name: str,
                 lock_timeout: float = 5.0,
                 stale_lock_after: float = DEFAULT_STALE_AFTER,
                 faults: Optional[FaultPlan] = None):
        super().__init__(path, program_name,
                         lock_timeout=lock_timeout,
                         stale_lock_after=stale_lock_after,
                         faults=faults)
        #: Diagnostics for tests, the fleet benchmark, and telemetry.
        self.publishes = 0
        self.retractions = 0
        self.promotions = 0
        self.rollbacks = 0

    def _empty_state(self) -> StoreState:
        return StoreState(self.program_name or "")

    def _parse(self, payload: dict) -> StoreState:
        return StoreState.from_json(payload)

    # ------------------------------------------------------------------
    # the protocol: publish / retract / refresh
    # ------------------------------------------------------------------

    def publish(self, patches: Iterable[RuntimePatch],
                stage: Optional[str] = None,
                restage: bool = False) -> StoreState:
        """Merge ``patches`` into the store (union by patch key, max
        trigger count, sticky validated flag).  Publishing a tombstoned
        key clears the tombstone: the publisher re-diagnosed the bug,
        which outranks a stale retraction.

        ``stage`` (a :data:`~repro.rollout.machine.STAGE_ORDER` name)
        wraps *newly created* records in a rollout envelope at that
        stage; existing records keep their envelope untouched (merges
        never regress a stage).  ``None`` keeps the legacy fleet-wide
        behavior, byte-compatible with pre-rollout stores.

        A key with a ``rolled_back`` record is *not* re-created by a
        plain publish (the fleet decided the patch hurts); counts
        still merge into a record someone already restaged.  Passing
        ``restage=True`` -- a fresh re-diagnosis -- re-enters the key
        at ``stage`` and starts a new canary cycle."""
        incoming = list(patches)
        if not incoming:
            return self.load()

        def merge(state: StoreState) -> StoreState:
            for patch in incoming:
                key = patch.key
                cur = state.patches.get(key)
                if cur is None and key in state.rolled_back \
                        and not restage:
                    continue
                state.retracted.pop(key, None)
                if cur is None:
                    mine = patch.to_json()
                    if stage is not None:
                        mine["rollout"] = {
                            "stage": stage,
                            "since_ns": patch.created_time_ns,
                        }
                    state.patches[key] = mine
                    continue
                cur["trigger_count"] = max(
                    int(cur.get("trigger_count", 0)),
                    patch.trigger_count)
                cur["validated"] = bool(cur.get("validated", False)) \
                    or patch.validated
            return state

        state = self._mutate(merge)
        self.publishes += 1
        return state

    def retract(self,
                patches: Iterable[RuntimePatch]) -> StoreState:
        """Remove ``patches`` from the store and tombstone their keys,
        so peers that already absorbed them drop them on refresh (a
        patch that failed validation is wrong *everywhere*, not just in
        the process that noticed)."""
        keys = [p.key for p in patches]
        if not keys:
            return self.load()

        def remove(state: StoreState) -> StoreState:
            for key in keys:
                state.patches.pop(key, None)
                state.retracted[key] = state.generation + 1
            return state

        state = self._mutate(remove)
        self.retractions += 1
        return state

    def set_stage(self, key: str, stage: str,
                  time_ns: int = 0) -> StoreState:
        """Advance one patch's rollout stage (promotion controller's
        write path).  Advance-only along the stage lattice: a request
        at or below the committed stage is a no-op, so concurrent
        controllers merging through the lock converge instead of
        flapping.  Unknown keys are a no-op too (the patch was
        retracted or rolled back in the meantime -- the tombstone
        wins)."""
        if stage not in STAGE_ORDER:
            raise ValueError(f"unknown rollout stage {stage!r}")

        def advance(state: StoreState) -> StoreState:
            cur = state.patches.get(key)
            if cur is None:
                return state
            rollout = cur.get("rollout")
            if not isinstance(rollout, dict):
                # A legacy record is already fleet-wide; nothing to
                # advance.
                return state
            have = stage_of(cur)
            if STAGE_ORDER[stage] > STAGE_ORDER[have]:
                rollout["stage"] = stage
                rollout["since_ns"] = time_ns
            return state

        state = self._mutate(advance)
        self.promotions += 1
        return state

    def rollback(self, keys: Iterable[str], time_ns: int = 0,
                 reason: str = "") -> StoreState:
        """Terminal rollback: retract the keys (remove + tombstone, so
        canaries drop them on refresh) *and* write a durable
        ``rolled_back`` record that blocks plain re-publishes and lets
        every process refuse the key for the rest of its session."""
        wanted = list(keys)
        if not wanted:
            return self.load()

        def remove(state: StoreState) -> StoreState:
            for key in wanted:
                state.patches.pop(key, None)
                state.retracted[key] = state.generation + 1
                prior = state.rolled_back.get(key)
                state.rolled_back[key] = {
                    "count": (int(prior.get("count", 0)) + 1
                              if prior else 1),
                    "time_ns": time_ns,
                    "generation": state.generation + 1,
                    "reason": reason,
                }
            return state

        state = self._mutate(remove)
        self.rollbacks += 1
        return state

    def sync_into(self, pool: PatchPool,
                  canary: Optional[bool] = None,
                  blocked: Optional[Set[str]] = None
                  ) -> Tuple[bool, StoreState]:
        """Pull the store into a local pool: drop tombstoned patches,
        absorb what this process is entitled to.  Returns (pool
        changed?, loaded state) so callers can refresh policies and
        read the generation/stages they are now current with.

        ``canary=None`` (rollout disabled) absorbs every record --
        the legacy behavior.  ``canary=False`` absorbs only fleet-wide
        records (staged/canary/validating patches must never reach a
        non-canary process); ``canary=True`` additionally absorbs the
        pre-fleet-wide stages.  ``blocked`` keys (e.g. patches this
        session saw rolled back) are never absorbed regardless."""
        state = self.load()
        changed = False
        for key in state.retracted:
            if pool.remove_key(key) is not None:
                changed = True
        adoptable: List[RuntimePatch] = []
        for key in sorted(state.patches):
            if blocked and key in blocked:
                continue
            if canary is not None:
                key_stage = stage_of(state.patches[key])
                if key_stage != FLEET_WIDE \
                        and (not canary
                             or key_stage not in CANARY_ONLY_STAGES):
                    continue
            adoptable.append(RuntimePatch.from_json(
                state.patches[key]))
        if pool.absorb(adoptable):
            changed = True
        return changed, state
