"""One process's membership in its program's fleet (DESIGN.md §3).

With ``store_path`` set, a runtime is one of many processes running
the same program.  :class:`FleetMember` holds what that means -- the
shared patch store (§9), this process's health beacons (§12) and its
staged-rollout record (§14) -- so :mod:`repro.core.runtime` reads as
the paper's loop alone: detect -> diagnose -> patch -> validate ->
recover.  The runtime tells the member what happened.  Every store
call runs through one guard that turns a
:class:`~repro.errors.StoreError` into a ``store.error`` event: a
broken shared file must never take down this process.
"""

from __future__ import annotations

import os
from collections import Counter
from typing import Tuple

from repro.errors import StoreError
from repro.obs.health import (
    LATENCY_BOUNDS,
    RECOVERY_BOUNDS,
    HealthBeacon,
    HealthChannel,
    health_path,
)
from repro.obs.metrics import Histogram
from repro.rollout import STAGED, is_canary
from repro.store import SharedPatchStore


def fleet_identity(config, program_name: str) -> Tuple[str, bool]:
    """This process's fleet label and canary bit.  The label defaults
    to ``<program>#<pid>``; the canary bit is the hash of the label
    under ``canary_fraction`` with rollout on, True otherwise."""
    label = config.process_label or f"{program_name}#{os.getpid()}"
    canary = is_canary(label, config.canary_fraction) \
        if config.rollout else True
    return label, canary


class FleetMember:
    """The shared store, health beacons and rollout record of one
    :class:`~repro.core.runtime.FirstAidRuntime`.  Built by the
    runtime only when ``store_path`` is set, before its patch policy:
    the startup sync lets a patch any peer already published prevent
    its bug from this process's very first instruction."""

    def __init__(self, runtime) -> None:
        self.runtime = runtime
        config = self.config = runtime.config
        program = runtime.pool.program_name
        self.label, self.canary = fleet_identity(config, program)
        #: Rollout record (DESIGN.md §14).  All sim-time.
        self.adopted_ns = {}            # patch_key -> sim adoption time
        self.post_adopt_failures = {}   # patch_key -> failures while live
        self.rolled_back_keys = set()   # never re-adopt this session
        #: Failed validations this session (a beacon field).
        self.retractions = 0
        self._health_seq = 0
        self._generation = -1
        self._boundaries = 0
        self.store = SharedPatchStore(config.store_path, program)
        self.store.events = runtime.events
        self.sync(initial=True)
        #: Rides next to the patch store and reuses its crash-safe
        #: machinery; see repro.obs.health.
        self.health = HealthChannel(health_path(config.store_path),
                                    program, faults=config.health_faults)
        self.health.events = runtime.events

    def _guarded(self, op: str, call, *args, **kw):
        """``call(*args, **kw)``, or None after a ``store.error``."""
        try:
            return call(*args, **kw)
        except StoreError as exc:
            self.runtime.events.emit(0, "store.error", op=op,
                                     error=str(exc))
            return None

    def sync(self, initial: bool = False) -> None:
        """Absorb the shared store into the local pool (and drop
        retracted patches); refreshes the policy when anything changed.
        With rollout on, adoption is stage-filtered (non-canaries take
        only fleet-wide records) and keys this session saw rolled back
        are refused for good: a restart must not smuggle one back."""
        rt = self.runtime
        rollout = self.config.rollout
        synced = self._guarded(
            "sync", self.store.sync_into, rt.pool,
            canary=self.canary if rollout else None,
            blocked=self.rolled_back_keys if rollout else None)
        if synced is None:
            return
        changed, state = synced
        self._generation = state.generation
        if rollout:
            now = 0 if initial else rt.process.clock.now_ns
            newly = sorted(k for k in state.rolled_back
                           if k not in self.rolled_back_keys)
            for key in newly:
                self.rolled_back_keys.add(key)
                if rt.pool.remove_key(key) is not None:
                    changed = True
            if newly:
                rt.events.emit(now, "rollout.blocked", keys=newly)
            for patch in rt.pool.patches():
                self.adopted_ns.setdefault(patch.key, now)
        if changed and not initial:
            rt.policy.refresh()
            rt.events.emit(rt.process.clock.now_ns, "store.refresh",
                           generation=state.generation,
                           patches=len(rt.pool))

    def on_boundary(self) -> None:
        """Checkpoint-boundary hook: every
        ``store_refresh_boundaries``-th boundary, poll the store
        generation, merge if a peer published or retracted, and
        publish a beacon."""
        self._boundaries += 1
        if self._boundaries < self.config.store_refresh_boundaries:
            return
        self._boundaries = 0
        generation = self._guarded("poll", self.store.generation)
        if generation is None:
            return
        if generation != self._generation:
            self.sync()
        self._health_publish("running")

    def publish(self, patches, restage: bool = False) -> None:
        """Publish on creation (under rollout at STAGED; ``restage``:
        a fresh diagnosis outranks a rollback record) and on
        validation (the store's validated flag is sticky)."""
        kw = dict(stage=STAGED, restage=restage) \
            if self.config.rollout else {}
        state = self._guarded("publish", self.store.publish, patches,
                              **kw)
        if state is None:
            return
        self._generation = state.generation
        self.runtime.events.emit(self.runtime.process.clock.now_ns,
                                 "store.published",
                                 keys=[p.key for p in patches],
                                 generation=state.generation)

    def retract(self, patches) -> None:
        """Failed validation: retract the patches fleet-wide, so peers
        drop them on their next refresh instead of keeping a patch one
        process proved inconsistent."""
        self.retractions += 1
        state = self._guarded("retract", self.store.retract, patches)
        if state is not None:
            self.runtime.events.emit(0, "store.retracted",
                                     keys=[p.key for p in patches],
                                     generation=state.generation)

    def on_patches_created(self, patches) -> None:
        """Recovery minted ``patches``: under rollout they count as
        adopted from now on, and a fresh diagnosis is the one way to
        restage a rolled-back key.  Published at once, so peers
        prevent the bug while this process is still validating."""
        if self.config.rollout:
            now = self.runtime.process.clock.now_ns
            for patch in patches:
                self.adopted_ns.setdefault(patch.key, now)
                if patch.key in self.rolled_back_keys:
                    self.runtime.events.emit(now, "rollout.restaged",
                                             key=patch.key)
        self.publish(patches, restage=True)

    def on_failure(self, time_ns: int) -> None:
        """Attribute one failure to every patch that was live when it
        struck (sim-time comparison): the canary evidence the
        promotion controller gates on.  A patch adopted *after* the
        failure is innocent."""
        if not self.config.rollout:
            return
        pool = self.runtime.pool
        for key, adopted in self.adopted_ns.items():
            if adopted <= time_ns and pool.find_key(key) is not None:
                self.post_adopt_failures[key] = \
                    self.post_adopt_failures.get(key, 0) + 1

    def on_respawn(self) -> None:
        """Ladder rung 4 built a fresh process.  Under rollout it
        takes the fleet's *current* stage view before serving again: a
        patch rolled back while this process was crashing must not ride
        into the restart through the stale local pool."""
        if self.config.rollout:
            self.sync()

    def on_exit(self, reason: str) -> None:
        """Session exit: push the trigger counts (the merge keeps the
        max) after a final sync, so a peer's retraction is honored, not
        resurrected.  The exit beacon goes out even with an empty pool,
        so the fleet view can answer "did everyone survive?"."""
        pool = self.runtime.pool
        if len(pool):
            self.sync()
            self.publish(pool.patches())
        self._health_publish(reason)

    def close(self) -> None:
        """Release both channels' file locks (idempotent; only held if
        a fault interrupted an operation mid-critical-section)."""
        self.store.lock.release()
        self.health.lock.release()

    def _health_beacon(self, reason: str) -> HealthBeacon:
        """This process's health digest, right now: full snapshots of
        sim-time-stamped, locally attributed state, so the same program
        on the same input builds the same beacons whatever the wall
        clock, pid or peer timing (the fleet report gates on it)."""
        rt = self.runtime
        rollout = self.config.rollout
        recoveries = rt.recoveries
        rung_counts, diagnosed = Counter(), Counter()
        for record in recoveries:
            # Supervisor off (or pre-ladder record): the resolving rung
            # is all we know.
            ran = [a.rung for a in record.rung_trail
                   if a.outcome != "skipped"] or [record.rung]
            rung_counts.update(str(rung) for rung in ran)
            if record.diagnosis is not None:
                diagnosed.update(p.key for p in record.diagnosis.patches)
        patches = {}
        for patch in rt.pool.patches():
            key = patch.key
            row = patches[key] = {
                "triggers": rt.policy.local_triggers.get(key, 0),
                "validated": patch.validated,
                "created_time_ns": patch.created_time_ns,
                "diagnosed": diagnosed[key],
            }
            if rollout:
                # Canary evidence for the promotion controller; only
                # serialized under rollout so pre-rollout beacons stay
                # byte-identical.
                row["adopted_ns"] = self.adopted_ns.get(
                    key, patch.created_time_ns)
                row["post_adopt_failures"] = \
                    self.post_adopt_failures.get(key, 0)
        recovery = Histogram("recovery_ns", RECOVERY_BOUNDS)
        for record in recoveries:
            recovery.observe(record.recovery_time_ns)
        latency = Histogram("latency_ns", LATENCY_BOUNDS)
        prev = 0
        for time_ns, _ in rt.process.output.entries():
            latency.observe(time_ns - prev)
            prev = time_ns
        sampling = {}
        stats = rt.process.extension.sampling_stats
        if self.config.sampling_rate > 0 and stats is not None:
            # Only serialized when sampling is on, so pre-sampling
            # beacons stay byte-identical.
            sampling = stats.to_dict()
            sampling["rate"] = self.config.sampling_rate
            sampling["prevented"] = rt.sampled_prevented
        self._health_seq += 1
        return HealthBeacon(
            canary=self.canary if rollout else False,
            process_id=self.label,
            app=rt.process.program.name,
            seq=self._health_seq,
            time_ns=rt.process.clock.now_ns,
            reason=reason,
            failures=len(recoveries),
            recovered=sum(1 for r in recoveries if r.succeeded),
            gave_up=sum(1 for r in recoveries if not r.succeeded),
            restarts=sum(1 for r in recoveries if r.restarted),
            retractions=self.retractions,
            rung_counts=dict(rung_counts),
            patches=patches,
            recovery_ns=recovery.to_snapshot(),
            latency_ns=latency.to_snapshot(),
            sampling=sampling,
        )

    def _health_publish(self, reason: str) -> None:
        """Publish a beacon; the health path must never take down the
        session (:meth:`HealthChannel.publish_guarded`)."""
        beacon = self._health_beacon(reason)
        if self.health.publish_guarded(beacon):
            self.runtime.events.emit(self.runtime.process.clock.now_ns,
                                     "health.published", seq=beacon.seq,
                                     reason=reason)
