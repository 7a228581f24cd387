"""The fleet health telemetry plane (DESIGN.md §12).

First-aid's fleet-wide prevention story only works if someone can *see*
the fleet.  Every process running under
:class:`~repro.core.runtime.FirstAidRuntime` with a shared patch store
periodically publishes a :class:`HealthBeacon` -- a compact,
sim-time-stamped digest of its patch triggers, failure/recovery
counts, degradation-ladder rung distribution, and recovery-time /
request-latency histograms -- into a health channel that lives next to
the patch store and reuses the exact crash-safe machinery
(:class:`~repro.store.base.SharedStateChannel`: sidecar locking,
merge-on-write, tombstones, atomic double-written commits, corruption
quarantine).  A torn, corrupt, or stale beacon must never crash
recovery or aggregation: failures surface as ``health.error`` events
and quarantined files, mirroring ``store.error`` handling.

:class:`FleetHealthAggregator` merges any set of beacons into a
canonical :class:`FleetHealthReport`.  Determinism is load-bearing
(the benchmark gates on it): beacons carry only simulated time, every
aggregate iterates in sorted order, and duplicate beacons for one
process resolve by highest ``(seq, time_ns)`` -- so the report is
byte-identical regardless of beacon arrival order and identical
between serial and forked fleet runs.

``python -m repro.obs fleet <store>`` renders the report for a store
on disk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.obs.metrics import Histogram
from repro.store.base import SharedStateChannel
from repro.store.faults import FaultPlan as StoreFaultPlan
from repro.store.faults import TornWriteCrash
from repro.store.locking import DEFAULT_STALE_AFTER

BEACON_FORMAT = "first-aid-health-beacon"
BEACON_VERSION = 1

HEALTH_FORMAT = "first-aid-health-plane"
HEALTH_VERSION = 1

#: Recovery-time histogram bounds, simulated nanoseconds.  Recoveries
#: on the paper's workloads land between ~1 ms (cheap rollback) and
#: seconds (deep diagnosis or a restart with downtime).
RECOVERY_BOUNDS = (1_000_000, 10_000_000, 50_000_000, 100_000_000,
                   500_000_000, 1_000_000_000, 5_000_000_000,
                   10_000_000_000)

#: Request-latency histogram bounds, simulated nanoseconds between
#: consecutive outputs.  Normal requests cost well under 10 ms; a
#: recovery or restart in between shows up in the tail buckets.
LATENCY_BOUNDS = (100_000, 1_000_000, 10_000_000, 100_000_000,
                  1_000_000_000, 10_000_000_000)


def health_path(store_path: str) -> str:
    """The health channel file that rides next to a patch store.
    Unconditional suffixing: the old "already ends in .health" pass-
    through mapped the health channel onto the *store file itself* for
    any store that happened to end in ``.health`` (two channels, one
    file -- each would quarantine the other's commits as corruption).
    Consumers that accept a sidecar path directly (the fleet CLI)
    resolve it *before* calling this."""
    return store_path + ".health"


def _require(payload: dict, key: str):
    try:
        return payload[key]
    except KeyError as exc:
        raise ValueError(f"health beacon missing {key!r}") from exc


def _hist_payload(payload: object, name: str) -> dict:
    """Validate a histogram payload by round-tripping it through
    :class:`Histogram`; raises ``ValueError`` on garbage."""
    if not isinstance(payload, dict):
        raise ValueError(f"beacon histogram {name!r} is not a mapping")
    return Histogram.from_snapshot(name, payload).to_snapshot()


@dataclass
class HealthBeacon:
    """One process's health digest at one simulated instant."""

    process_id: str
    app: str
    #: Monotonic per-process publish counter; the merge and the
    #: aggregator keep the beacon with the highest (seq, time_ns).
    seq: int
    #: Simulated clock at publish time (never wall time: determinism).
    time_ns: int
    #: Session state: "running" for mid-session beacons, else the
    #: session exit reason ("halt" | "input" | "budget" | "died").
    reason: str = "running"
    failures: int = 0            # recoveries observed so far
    recovered: int = 0           # ... of which succeeded
    gave_up: int = 0             # ... of which exhausted every rung
    restarts: int = 0            # rung-4 restarts
    retractions: int = 0         # patches retracted after validation
    #: rung (as str, JSON keys) -> attempts that actually ran, from
    #: RecoveryRecord.rung_trail (skipped rungs excluded).
    rung_counts: Dict[str, int] = field(default_factory=dict)
    #: patch_key -> {"triggers": locally-attributed trigger count,
    #: "validated": bool, "created_time_ns": int, "diagnosed": number
    #: of local recoveries that produced this patch}.  ``triggers``
    #: counts only this process's preventive hits, never the fleet max
    #: absorbed from the store, so beacons stay deterministic under
    #: concurrent publishing.
    patches: Dict[str, dict] = field(default_factory=dict)
    #: Histogram payloads (Histogram.to_snapshot shape).
    recovery_ns: dict = field(default_factory=dict)
    latency_ns: dict = field(default_factory=dict)
    #: Rollout cohort membership (repro.rollout, DESIGN.md §14).
    #: Serialized only when True, so rollout-disabled fleets emit
    #: byte-identical beacons to the pre-rollout plane.
    canary: bool = False
    #: Sampled always-on detection counters (repro.sampling, DESIGN.md
    #: §15): rate, allocs, sampled_allocs, sampled_frees, detections,
    #: suppressed, guard_scans, first_detection_ns, prevented.
    #: Serialized only when non-empty, so pre-sampling beacons stay
    #: byte-identical.
    sampling: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.recovery_ns:
            self.recovery_ns = _empty_hist("recovery_ns",
                                           RECOVERY_BOUNDS)
        if not self.latency_ns:
            self.latency_ns = _empty_hist("latency_ns", LATENCY_BOUNDS)

    def to_json(self) -> dict:
        payload = {
            "format": BEACON_FORMAT,
            "version": BEACON_VERSION,
            "process_id": self.process_id,
            "app": self.app,
            "seq": self.seq,
            "time_ns": self.time_ns,
            "reason": self.reason,
            "failures": self.failures,
            "recovered": self.recovered,
            "gave_up": self.gave_up,
            "restarts": self.restarts,
            "retractions": self.retractions,
            "rung_counts": dict(sorted(self.rung_counts.items())),
            "patches": {k: dict(v) for k, v
                        in sorted(self.patches.items())},
            "recovery_ns": self.recovery_ns,
            "latency_ns": self.latency_ns,
        }
        if self.canary:
            payload["canary"] = True
        if self.sampling:
            payload["sampling"] = {k: self.sampling[k]
                                   for k in sorted(self.sampling)}
        return payload

    @classmethod
    def from_json(cls, payload: dict) -> "HealthBeacon":
        """Parse one beacon payload; anything malformed -- wrong
        format, future version, missing fields, scrambled histograms --
        raises ``ValueError`` (the aggregator and channel catch it and
        degrade, never crash)."""
        if not isinstance(payload, dict):
            raise ValueError("health beacon is not a mapping")
        if payload.get("format") != BEACON_FORMAT:
            raise ValueError(f"not a health beacon: "
                             f"format={payload.get('format')!r}")
        if int(payload.get("version", 0)) > BEACON_VERSION:
            raise ValueError(
                f"health beacon version {payload.get('version')} is "
                f"newer than supported {BEACON_VERSION}")
        try:
            return cls(
                process_id=str(_require(payload, "process_id")),
                app=str(_require(payload, "app")),
                seq=int(_require(payload, "seq")),
                time_ns=int(_require(payload, "time_ns")),
                reason=str(payload.get("reason", "running")),
                failures=int(payload.get("failures", 0)),
                recovered=int(payload.get("recovered", 0)),
                gave_up=int(payload.get("gave_up", 0)),
                restarts=int(payload.get("restarts", 0)),
                retractions=int(payload.get("retractions", 0)),
                rung_counts={str(k): int(v) for k, v in
                             dict(payload.get("rung_counts", {})).items()},
                patches={str(k): dict(v) for k, v in
                         dict(payload.get("patches", {})).items()},
                recovery_ns=_hist_payload(
                    payload.get("recovery_ns", _empty_hist(
                        "recovery_ns", RECOVERY_BOUNDS)), "recovery_ns"),
                latency_ns=_hist_payload(
                    payload.get("latency_ns", _empty_hist(
                        "latency_ns", LATENCY_BOUNDS)), "latency_ns"),
                canary=bool(payload.get("canary", False)),
                sampling={str(k): int(v) for k, v in
                          dict(payload.get("sampling", {})).items()},
            )
        except (TypeError, KeyError) as exc:
            raise ValueError(f"malformed health beacon: {exc!r}") from exc

    @property
    def survived(self) -> bool:
        return self.gave_up == 0 and self.reason != "died"

    @property
    def triggers_total(self) -> int:
        return sum(int(p.get("triggers", 0))
                   for p in self.patches.values())


def _empty_hist(name: str, bounds: Tuple[int, ...]) -> dict:
    return Histogram(name, bounds).to_snapshot()


# ---------------------------------------------------------------------
# the shared health channel
# ---------------------------------------------------------------------

class HealthFaultPlan(StoreFaultPlan):
    """Armed faults for the health channel.  The file-level kinds
    (``torn_write`` / ``stale_lock`` / ``corrupt``) reuse the store's
    effects through the shared :class:`repro.chaos.plan.FaultPlan`
    protocol; ``stale_beacon`` is health-specific: the next publish
    lands a stale snapshot (seq and time rolled back to 0), modelling a
    delayed write reordered onto disk -- merge and aggregation must
    shrug it off by (seq, time_ns) precedence."""

    KINDS = ("torn_write", "stale_lock", "corrupt", "stale_beacon")


@dataclass
class HealthState:
    """The health channel's committed state: latest beacon payload per
    process, plus tombstones for retired processes."""

    program: str
    generation: int = 0
    #: process_id -> HealthBeacon.to_json() payload (possibly corrupt;
    #: consumers parse defensively).
    beacons: Dict[str, dict] = field(default_factory=dict)
    #: process_id -> generation at which the process was retired.
    retired: Dict[str, int] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "format": HEALTH_FORMAT,
            "version": HEALTH_VERSION,
            "program": self.program,
            "generation": self.generation,
            "beacons": self.beacons,
            "retired": self.retired,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "HealthState":
        if payload.get("format") != HEALTH_FORMAT:
            raise ValueError(f"not a health plane: "
                             f"format={payload.get('format')!r}")
        if int(payload.get("version", 0)) > HEALTH_VERSION:
            raise ValueError(
                f"health plane version {payload.get('version')} is "
                f"newer than supported {HEALTH_VERSION}")
        return cls(
            program=str(payload["program"]),
            generation=int(payload["generation"]),
            beacons={str(k): v for k, v
                     in dict(payload["beacons"]).items()},
            retired={str(k): int(v)
                     for k, v in dict(payload["retired"]).items()},
        )

    def live_beacons(self) -> Dict[str, dict]:
        return {pid: payload for pid, payload in self.beacons.items()
                if pid not in self.retired}


class HealthChannel(SharedStateChannel):
    """The crash-safe shared health file for one program's fleet.

    ``program_name`` of None reads whatever program the file belongs
    to (the CLI's mode); publishers always name their program."""

    def __init__(self, path: str, program_name: Optional[str],
                 lock_timeout: float = 5.0,
                 stale_lock_after: float = DEFAULT_STALE_AFTER,
                 faults: Optional[StoreFaultPlan] = None):
        super().__init__(path, program_name,
                         lock_timeout=lock_timeout,
                         stale_lock_after=stale_lock_after,
                         faults=faults)
        self.publishes = 0
        self.retirements = 0

    def _empty_state(self) -> HealthState:
        return HealthState(self.program_name or "")

    def _parse(self, payload: dict) -> HealthState:
        return HealthState.from_json(payload)

    # ------------------------------------------------------------------

    @staticmethod
    def _precedence(payload: object) -> Tuple[int, int]:
        """Merge precedence of a committed payload; unparsable entries
        rank lowest so a fresh beacon always replaces garbage."""
        if not isinstance(payload, dict):
            return (-1, -1)
        try:
            return (int(payload.get("seq", -1)),
                    int(payload.get("time_ns", -1)))
        except (TypeError, ValueError):
            return (-1, -1)

    def publish(self, beacon: HealthBeacon) -> HealthState:
        """Merge one beacon into the channel.  Keyed by process id;
        the higher ``(seq, time_ns)`` wins, so delayed or replayed
        publishes never roll a process's health backwards.  Publishing
        clears the process's tombstone (it is demonstrably alive)."""
        payload = beacon.to_json()
        if self.faults.take("stale_beacon"):
            payload = dict(payload, seq=0, time_ns=0)
        pid = beacon.process_id

        def merge(state: HealthState) -> HealthState:
            state.retired.pop(pid, None)
            current = state.beacons.get(pid)
            if current is None or (self._precedence(payload)
                                   >= self._precedence(current)):
                state.beacons[pid] = payload
            return state

        state = self._mutate(merge)
        self.publishes += 1
        return state

    def publish_guarded(self, beacon: HealthBeacon) -> bool:
        """:meth:`publish` for a process that must survive its health
        path: every failure -- torn writes, lock timeouts, a
        quarantined channel -- degrades to a ``health.error`` event.
        Returns whether the beacon landed."""
        try:
            self.publish(beacon)
        except TornWriteCrash as exc:
            # The injected "publisher died mid-commit" abandoned our
            # own live-pid lock.  We know the holder is gone -- it was
            # this very call -- so break the lock and retry once: the
            # retry quarantines the torn file and recovers from the
            # backup, and this surviving process's beacon lands.
            self.lock.force_break()
            self._error("publish", exc)
            try:
                self.publish(beacon)
            except Exception as exc:
                self._error("republish", exc)
                return False
        except Exception as exc:
            self._error("publish", exc)
            return False
        return True

    def _error(self, op: str, exc: Exception) -> None:
        if self.events is not None:
            self.events.emit(0, "health.error", op=op, error=str(exc))

    def retire(self, process_ids: Iterable[str]) -> HealthState:
        """Drop processes from the fleet view and tombstone them, so a
        stale replayed beacon cannot resurrect a decommissioned
        process.  A later publish (the process came back) clears the
        tombstone."""
        pids = list(process_ids)

        def remove(state: HealthState) -> HealthState:
            for pid in pids:
                state.beacons.pop(pid, None)
                state.retired[pid] = state.generation + 1
            return state

        state = self._mutate(remove)
        self.retirements += 1
        return state


# ---------------------------------------------------------------------
# fleet aggregation
# ---------------------------------------------------------------------

@dataclass
class FleetHealthReport:
    """The canonical fleet health digest.  ``to_json()`` (dumped with
    ``sort_keys=True``) and ``render()`` are byte-identical regardless
    of the order beacons were added in."""

    program: str
    processes: List[dict]
    patches: List[dict]
    fleet: dict
    beacon_errors: int

    def to_json(self) -> dict:
        return {
            "program": self.program,
            "processes": self.processes,
            "patches": self.patches,
            "fleet": self.fleet,
            "beacon_errors": self.beacon_errors,
        }

    def render(self) -> str:
        out = [f"== fleet health: {self.program or '(no beacons)'} =="]
        fleet = self.fleet
        out.append(
            f"  processes={fleet.get('processes', 0)} "
            f"survived={fleet.get('survived', 0)} "
            f"failures={fleet.get('failures', 0)} "
            f"recovered={fleet.get('recovered', 0)} "
            f"restarts={fleet.get('restarts', 0)} "
            f"retractions={fleet.get('retractions', 0)} "
            f"beacon_errors={self.beacon_errors}")
        rungs = fleet.get("rung_counts") or {}
        if rungs:
            mix = " ".join(f"{r}:{n}" for r, n in sorted(rungs.items()))
            out.append(f"  rung mix: {mix}")
        sampling = fleet.get("sampling")
        if sampling:
            out.append(
                f"  sampling: detections={sampling['detections']} "
                f"prevented={sampling['prevented']} "
                f"suppressed={sampling['suppressed']} "
                f"guarded={sampling['sampled_allocs']}"
                f"/{sampling['allocs']} "
                f"(effective rate {sampling['effective_rate']:.4f} "
                f"across {sampling['processes']} processes)")
        for label, key in (("recovery", "recovery_ns"),
                           ("latency", "latency_ns")):
            q = fleet.get(key) or {}
            if q.get("total"):
                out.append(
                    f"  {label} p50={q['p50'] / 1e6:.1f}ms "
                    f"p95={q['p95'] / 1e6:.1f}ms "
                    f"p99={q['p99'] / 1e6:.1f}ms "
                    f"(n={q['total']})")
        out.append("")
        out.append("per-process:")
        if not self.processes:
            out.append("  (none)")
        for row in self.processes:
            rungs = " ".join(f"{r}:{n}" for r, n
                             in sorted((row["rung_counts"] or {}).items()))
            rec = row["recovery_ns"]
            canary = " [canary]" if row.get("canary") else ""
            out.append(
                f"  {row['process_id']:<16s}{canary} "
                f"reason={row['reason']:<8s} "
                f"failures={row['failures']} "
                f"recovered={row['recovered']} "
                f"restarts={row['restarts']} "
                f"triggers={row['triggers']} "
                f"rungs=[{rungs}] "
                f"recovery_p95={rec['p95'] / 1e6:.1f}ms")
        out.append("")
        out.append("per-patch:")
        if not self.patches:
            out.append("  (none)")
        for row in self.patches:
            out.append(
                f"  {row['key']}")
            out.append(
                f"    triggers={row['triggers_total']} "
                f"processes={row['processes']} "
                f"validated={row['validated']} "
                f"diagnosed_in={row['diagnosed_in']} "
                f"prevented_in={row['prevented_in']} "
                f"post_patch_failure_rate="
                f"{row['post_patch_failure_rate']:.2f} "
                f"time_to_first_patch="
                f"{row['time_to_first_patch_ns'] / 1e6:.1f}ms")
        return "\n".join(out)


class FleetHealthAggregator:
    """Merges beacons (objects, payload dicts, or whole channel
    states) into one canonical fleet report.

    Arrival order never matters: duplicate process ids resolve by
    highest ``(seq, time_ns)``, and every derived structure is built in
    sorted order.  Unparsable payloads are counted (and surfaced as
    ``health.error`` events when an event log is attached), never
    raised."""

    def __init__(self, events=None):
        self._beacons: Dict[str, HealthBeacon] = {}
        self.errors = 0
        self.events = events

    # -- feeding ------------------------------------------------------

    def _error(self, op: str, detail: str) -> None:
        self.errors += 1
        if self.events is not None:
            self.events.emit(0, "health.error", op=op, error=detail)

    def add(self, beacon: HealthBeacon) -> bool:
        current = self._beacons.get(beacon.process_id)
        if current is not None and (current.seq, current.time_ns) \
                > (beacon.seq, beacon.time_ns):
            return False
        self._beacons[beacon.process_id] = beacon
        return True

    def add_payload(self, payload: object) -> bool:
        try:
            beacon = HealthBeacon.from_json(payload)  # type: ignore
        except ValueError as exc:
            self._error("parse", str(exc))
            return False
        return self.add(beacon)

    def add_state(self, state: HealthState) -> int:
        """Feed every live (non-retired) beacon of a channel state;
        returns how many parsed and were kept."""
        added = 0
        for _, payload in sorted(state.live_beacons().items()):
            if self.add_payload(payload):
                added += 1
        return added

    def beacons(self) -> List[HealthBeacon]:
        return [self._beacons[pid] for pid in sorted(self._beacons)]

    # -- the report ---------------------------------------------------

    def _merged_hist(self, attr: str, name: str,
                     bounds: Tuple[int, ...]) -> dict:
        merged = Histogram(name, bounds)
        for beacon in self.beacons():
            try:
                merged.merge_from(
                    Histogram.from_snapshot(name, getattr(beacon, attr)))
            except ValueError as exc:
                self._error("merge", f"{beacon.process_id}: {exc}")
        return merged.to_snapshot()

    def report(self) -> FleetHealthReport:
        beacons = self.beacons()
        program = sorted({b.app for b in beacons})[0] if beacons else ""

        processes = []
        for b in beacons:
            processes.append({
                "process_id": b.process_id,
                "app": b.app,
                "seq": b.seq,
                "time_ns": b.time_ns,
                "canary": b.canary,
                "reason": b.reason,
                "survived": b.survived,
                "failures": b.failures,
                "recovered": b.recovered,
                "gave_up": b.gave_up,
                "restarts": b.restarts,
                "retractions": b.retractions,
                "rung_counts": dict(sorted(b.rung_counts.items())),
                "triggers": b.triggers_total,
                "recovery_ns": _hist_payload(b.recovery_ns,
                                             "recovery_ns"),
                "latency_ns": _hist_payload(b.latency_ns, "latency_ns"),
            })
            if b.sampling:
                # Present only when the beacon carries the sampling
                # plane, so pre-sampling reports stay byte-identical.
                processes[-1]["sampling"] = {k: b.sampling[k]
                                             for k in sorted(b.sampling)}

        keys = sorted({k for b in beacons for k in b.patches})
        patches = []
        for key in keys:
            rows = [(b, b.patches[key]) for b in beacons
                    if key in b.patches]
            diagnosed_total = sum(int(p.get("diagnosed", 0))
                                  for _, p in rows)
            first = [int(p.get("created_time_ns", 0)) for _, p in rows
                     if int(p.get("diagnosed", 0)) > 0
                     and int(p.get("created_time_ns", 0)) > 0]
            if not first:
                first = [int(p.get("created_time_ns", 0))
                         for _, p in rows
                         if int(p.get("created_time_ns", 0)) > 0]
            post_patch_failures = max(0, diagnosed_total - 1)
            patches.append({
                "key": key,
                "triggers_total": sum(int(p.get("triggers", 0))
                                      for _, p in rows),
                "processes": len(rows),
                "validated": any(bool(p.get("validated", False))
                                 for _, p in rows),
                "diagnosed_in": sum(1 for _, p in rows
                                    if int(p.get("diagnosed", 0)) > 0),
                "prevented_in": sum(
                    1 for _, p in rows
                    if int(p.get("triggers", 0)) > 0
                    and int(p.get("diagnosed", 0)) == 0),
                "post_patch_failures": post_patch_failures,
                "post_patch_failure_rate": (post_patch_failures
                                            / len(rows) if rows else 0.0),
                "time_to_first_patch_ns": min(first) if first else 0,
            })

        rung_counts: Dict[str, int] = {}
        for b in beacons:
            for rung, n in b.rung_counts.items():
                rung_counts[rung] = rung_counts.get(rung, 0) + n
        fleet = {
            "processes": len(beacons),
            "survived": sum(1 for b in beacons if b.survived),
            "failures": sum(b.failures for b in beacons),
            "recovered": sum(b.recovered for b in beacons),
            "gave_up": sum(b.gave_up for b in beacons),
            "restarts": sum(b.restarts for b in beacons),
            "retractions": sum(b.retractions for b in beacons),
            "rung_counts": dict(sorted(rung_counts.items())),
            "recovery_ns": self._merged_hist("recovery_ns",
                                             "recovery_ns",
                                             RECOVERY_BOUNDS),
            "latency_ns": self._merged_hist("latency_ns", "latency_ns",
                                            LATENCY_BOUNDS),
        }
        sampled = [b for b in beacons if b.sampling]
        if sampled:
            # The sampling aggregate exists only when at least one
            # beacon carries it; sampling-free fleets render and
            # serialize byte-identically to the pre-sampling plane.
            allocs = sum(int(b.sampling.get("allocs", 0))
                         for b in sampled)
            sampled_allocs = sum(int(b.sampling.get("sampled_allocs", 0))
                                 for b in sampled)
            fleet["sampling"] = {
                "processes": len(sampled),
                "allocs": allocs,
                "sampled_allocs": sampled_allocs,
                "effective_rate": (sampled_allocs / allocs
                                   if allocs else 0.0),
                "detections": sum(int(b.sampling.get("detections", 0))
                                  for b in sampled),
                "prevented": sum(int(b.sampling.get("prevented", 0))
                                 for b in sampled),
                "suppressed": sum(int(b.sampling.get("suppressed", 0))
                                  for b in sampled),
            }
        return FleetHealthReport(program=program, processes=processes,
                                 patches=patches, fleet=fleet,
                                 beacon_errors=self.errors)


def aggregate_store(store_path: str,
                    events=None) -> FleetHealthReport:
    """Load the health channel riding next to ``store_path`` and
    aggregate it into a report (the CLI's path).  A path that already
    names a ``.health`` sidecar is used as the channel directly
    (``health_path`` itself never pass-throughs: appending
    unconditionally is what keeps a store named ``*.health`` from
    aliasing its own sidecar).  Corruption is quarantined by the
    channel; a missing file yields an empty report."""
    path = store_path if store_path.endswith(".health") \
        else health_path(store_path)
    channel = HealthChannel(path, program_name=None)
    aggregator = FleetHealthAggregator(events=events)
    aggregator.add_state(channel.load())
    return aggregator.report()
