"""Sampled always-on detection experiments (DESIGN.md §15).

Two measured, gateable claims ride on the sampling plane:

1. **Overhead** (:func:`run_overhead`): promoting 1/N allocations to a
   guarded allocation (redzone canaries both sides, delayed-free
   canary fill, boundary sweeps) must stay cheap at production rates.
   Every subject runs trigger-free under the full First-Aid stack
   (extension + periodic checkpointing) with sampling off and at each
   swept rate; the gate bounds the mean simulated-time overhead at
   rate 1/64 to <= 10% over sampling-off.

2. **Time-to-first-patch** (:func:`run_fleet_ttfp`): in a fleet the
   processes encounter the bad input at different times -- the leader
   is, by definition, the first -- so each follower's trigger is
   staggered later in its request stream.  Per app, a 4-process fleet
   (leader + 3 followers over one shared store) runs twice: once with
   a sampled leader and once with sampling off.  Each follower's
   *would-be* failure time (running its workload with no store, no
   published patch) is measured once and shared by both arms.  The
   gates require at least one app where the sampled leader's
   validated patch is in the store before any unsampled process would
   have failed, and a strictly better fleet time-to-first-patch
   overall.

A third gate (:func:`rate_zero_identity`) pins the off-switch: a
``sampling_rate=0`` session attaches no guards and publishes beacons
without a ``sampling`` section, while the same app at rate 1/64 has
both.

Everything runs on simulated clocks; results are plain dataclasses so
``benchmarks/bench_sampling.py`` can JSON-dump and gate them.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.apps.registry import get_app, real_bug_apps
from repro.bench.harness import run_first_aid, run_sessions, spaced_workload
from repro.checkpoint.manager import CheckpointManager
from repro.core.runtime import FirstAidConfig
from repro.heap.extension import ExtensionMode
from repro.process import Process
from repro.sampling import SampledGuards
from repro.store import SharedPatchStore

#: Rates the overhead experiment sweeps (1/N sampled allocations).
OVERHEAD_RATES = (64, 128, 256)

#: The gate rides on this rate and bound (ISSUE acceptance (a)).
GATE_RATE = 64
GATE_OVERHEAD = 0.10

#: Sampling rate the TTFP fleet arms its leader with.  1/64 keeps
#: the sampled arm's simulated timeline within ~0.004% of the
#: unsampled one (see :func:`run_overhead`), so cross-arm time
#: comparisons are fair -- denser rates inflate the sampled clock
#: with canary-fill costs and would bias the comparison.
TTFP_RATE = 64

#: Default TTFP app population (>= 3 apps, ISSUE acceptance (b)).
TTFP_APPS = ("mutt", "pine", "squid", "cvs")

#: Extra normal requests in front of follower i's trigger (i = 1..3).
#: Models arrival-time spread: fleet processes hit the bad input at
#: different points in their streams, and the leader is simply the
#: first.  The value is one knob for all apps, not tuned per app.
FOLLOWER_STAGGER = 25


# ---------------------------------------------------------------------
# overhead sweep
# ---------------------------------------------------------------------

@dataclass
class OverheadCell:
    """One (subject, rate) run under extension + checkpointing."""

    subject: str
    rate: int                 # 0 = sampling off
    time_s: float             # simulated seconds
    instrs: int
    allocs: int
    sampled_allocs: int
    #: simulated-time overhead vs the same subject's rate-0 run
    overhead: float = 0.0


@dataclass
class SamplingOverheadResult:
    rates: Tuple[int, ...]
    cells: List[OverheadCell]
    #: rate -> mean overhead across subjects
    mean_overhead: Dict[int, float] = field(default_factory=dict)
    gate_rate: int = GATE_RATE
    gate_limit: float = GATE_OVERHEAD

    @property
    def gate_passed(self) -> bool:
        return self.mean_overhead.get(self.gate_rate, 1.0) \
            <= self.gate_limit

    def to_json(self) -> dict:
        return {
            "rates": list(self.rates),
            "cells": [vars(c) for c in self.cells],
            "mean_overhead": {str(k): v
                              for k, v in sorted(self.mean_overhead.items())},
            "gate_rate": self.gate_rate,
            "gate_limit": self.gate_limit,
            "gate_passed": self.gate_passed,
        }


def _overhead_cell(subject: str, tokens: List[int],
                   rate: int) -> OverheadCell:
    """One trigger-free run under the full stack (extension NORMAL +
    periodic checkpoints, which is where the boundary sweeps live)."""
    app = get_app(subject)
    process = Process(app.program(), input_tokens=tokens,
                      mode=ExtensionMode.NORMAL)
    if rate > 0:
        process.extension.guards = SampledGuards(rate)
    manager = CheckpointManager(process)
    manager.run()
    stats = process.extension.sampling_stats
    return OverheadCell(
        subject=subject, rate=rate,
        time_s=process.clock.now_s,
        instrs=process.instr_count,
        allocs=stats.allocs if stats else 0,
        sampled_allocs=stats.sampled_allocs if stats else 0)


def run_overhead(rates: Tuple[int, ...] = OVERHEAD_RATES,
                 quick: bool = False) -> SamplingOverheadResult:
    """Sweep sampling rates over trigger-free app workloads."""
    subjects = [a.name for a in real_bug_apps()]
    if quick:
        subjects = subjects[:3]
    requests = 160 if quick else 400
    result = SamplingOverheadResult(rates=tuple(rates), cells=[])
    for subject in subjects:
        app = get_app(subject)
        tokens = app.normal_workload(requests=requests).tokens
        base = _overhead_cell(subject, tokens, 0)
        result.cells.append(base)
        for rate in rates:
            cell = _overhead_cell(subject, tokens, rate)
            cell.overhead = (cell.time_s - base.time_s) / base.time_s \
                if base.time_s else 0.0
            result.cells.append(cell)
    for rate in rates:
        rated = [c.overhead for c in result.cells if c.rate == rate]
        result.mean_overhead[rate] = sum(rated) / len(rated) \
            if rated else 0.0
    return result


# ---------------------------------------------------------------------
# fleet time-to-first-patch
# ---------------------------------------------------------------------

@dataclass
class TTFPArm:
    """One fleet arm (sampled or unsampled leader) for one app."""

    sampled: bool
    leader_recoveries: int
    #: Recoveries triggered by an actual crash-family failure (any
    #: monitor other than ``sampled-detection``).  0 on the sampled
    #: arm means the guard absorbed the bug before it ever crashed.
    leader_crashes: int
    leader_survived: bool
    #: Simulated time of the leader's first failure event (for the
    #: unsampled arm this is when the process *crashed*; for the
    #: sampled arm, when the guard fired).
    first_failure_ns: int
    #: Guard-hit time (sampled arm only; 0 otherwise).
    first_detection_ns: int
    #: Simulated time the first validated patch entered the store.
    ttfp_ns: int
    fast_path_prevented: int
    followers: int
    followers_prevented: bool


@dataclass
class TTFPAppResult:
    app: str
    rate: int
    procs: int
    #: When each follower *would* fail: its staggered workload run
    #: with no store and no published patch.  Shared by both arms.
    follower_would_fail_ns: List[int]
    unsampled: TTFPArm
    sampled: TTFPArm

    @property
    def earliest_would_fail_ns(self) -> int:
        hits = [t for t in self.follower_would_fail_ns if t > 0]
        return min(hits) if hits else 0

    @property
    def pre_crash_win(self) -> bool:
        """The sampled leader's validated patch was in the store
        before any unsampled process would have failed -- and the
        patch came from a guard hit (``first_detection_ns > 0``), not
        from an ordinary crash-recover-publish that would have
        happened without sampling."""
        would = self.earliest_would_fail_ns
        return (self.sampled.ttfp_ns > 0 and would > 0
                and self.sampled.first_detection_ns > 0
                and self.sampled.ttfp_ns < would)

    @property
    def unsampled_pre_crash(self) -> bool:
        """Same criterion for the unsampled arm: did crash-then-patch
        also beat the earliest follower?  When this is False and
        :attr:`pre_crash_win` is True, sampling was decisive."""
        would = self.earliest_would_fail_ns
        return (self.unsampled.ttfp_ns > 0 and would > 0
                and self.unsampled.ttfp_ns < would)

    @property
    def ttfp_improved(self) -> bool:
        return (self.sampled.ttfp_ns > 0
                and self.unsampled.ttfp_ns > 0
                and self.sampled.ttfp_ns < self.unsampled.ttfp_ns)

    def to_json(self) -> dict:
        return {
            "app": self.app,
            "rate": self.rate,
            "procs": self.procs,
            "follower_would_fail_ns": list(self.follower_would_fail_ns),
            "unsampled": vars(self.unsampled),
            "sampled": vars(self.sampled),
            "pre_crash_win": self.pre_crash_win,
            "unsampled_pre_crash": self.unsampled_pre_crash,
            "ttfp_improved": self.ttfp_improved,
        }


@dataclass
class SamplingFleetResult:
    rate: int
    procs: int
    apps: List[TTFPAppResult]

    @property
    def any_pre_crash_win(self) -> bool:
        return any(a.pre_crash_win for a in self.apps)

    @property
    def fleet_ttfp_better(self) -> bool:
        """Fleet time-to-first-patch (min over apps' first validated
        patch) strictly better with sampling than without."""
        sampled = [a.sampled.ttfp_ns for a in self.apps
                   if a.sampled.ttfp_ns > 0]
        unsampled = [a.unsampled.ttfp_ns for a in self.apps
                     if a.unsampled.ttfp_ns > 0]
        return (bool(sampled) and bool(unsampled)
                and min(sampled) < min(unsampled))

    @property
    def gate_passed(self) -> bool:
        return (self.any_pre_crash_win and self.fleet_ttfp_better
                and all(a.sampled.followers_prevented
                        and a.sampled.leader_survived
                        for a in self.apps))

    def to_json(self) -> dict:
        return {
            "rate": self.rate,
            "procs": self.procs,
            "apps": [a.to_json() for a in self.apps],
            "any_pre_crash_win": self.any_pre_crash_win,
            "fleet_ttfp_better": self.fleet_ttfp_better,
            "gate_passed": self.gate_passed,
        }


def _follower_workload(app, index: int, seed: int):
    """Follower ``index``'s workload: same shape as the leader's
    (:func:`spaced_workload`), trigger staggered later by
    ``FOLLOWER_STAGGER * index`` normal requests."""
    return app.workload(
        normal_before=40 + FOLLOWER_STAGGER * index,
        triggers=1, normal_after=40, seed=seed)


def _ttfp_arm(app_name: str, store_path: str, rate: int,
              follower_workloads) -> TTFPArm:
    """One serial fleet: a leader (sampled when rate > 0) hits the bug
    first and publishes; followers (always unsampled, triggers
    staggered later) then run against the shared store and must be
    prevented.  Serial on simulated clocks keeps everything
    deterministic; concurrency is reconstructed by comparing times on
    the shared simulated timeline."""
    leader, *followers = run_sessions(
        [dict(app_name=app_name, triggers=1, store_path=store_path,
              process_label="leader-0", sampling_rate=rate)]
        + [dict(app_name=app_name, workload=fw, store_path=store_path,
                process_label=f"follower-{i}")
           for i, fw in enumerate(follower_workloads, start=1)],
        parallel=False)
    state = SharedPatchStore(store_path,
                             get_app(app_name).program().name).load()
    ttfp_ns = min((int(p.get("created_time_ns", 0))
                   for p in state.patches.values()
                   if p.get("validated")
                   and int(p.get("created_time_ns", 0)) > 0),
                  default=0)
    return TTFPArm(
        sampled=rate > 0,
        leader_recoveries=leader.recoveries,
        leader_crashes=leader.crashes,
        leader_survived=leader.survived,
        first_failure_ns=leader.first_failure_ns,
        first_detection_ns=leader.first_detection_ns,
        ttfp_ns=ttfp_ns,
        fast_path_prevented=leader.sampled_prevented,
        followers=len(followers),
        followers_prevented=all(f.recoveries == 0
                                and f.patched_triggers > 0
                                for f in followers))


def run_fleet_ttfp(apps: Tuple[str, ...] = TTFP_APPS,
                   rate: int = TTFP_RATE, procs: int = 4
                   ) -> SamplingFleetResult:
    """Per app: the same ``procs``-process fleet with and without a
    sampled leader, on separate stores, plus one no-store run per
    follower workload to measure when it *would* have failed."""
    result = SamplingFleetResult(rate=rate, procs=procs, apps=[])
    with tempfile.TemporaryDirectory(prefix="bench-sampling-") as tmp:
        for app_name in apps:
            app = get_app(app_name)
            follower_wls = [_follower_workload(app, i, seed=42 + i)
                            for i in range(1, procs)]
            # When each follower's trigger would crash it: its workload
            # run alone, with no store and no published patch.
            would_fail = [d.first_failure_ns for d in run_sessions(
                [dict(app_name=app_name, workload=fw)
                 for fw in follower_wls], parallel=False)]
            unsampled = _ttfp_arm(
                app_name, os.path.join(tmp, f"{app_name}-off.json"),
                rate=0, follower_workloads=follower_wls)
            sampled = _ttfp_arm(
                app_name, os.path.join(tmp, f"{app_name}-on.json"),
                rate=rate, follower_workloads=follower_wls)
            result.apps.append(TTFPAppResult(
                app=app_name, rate=rate, procs=procs,
                follower_would_fail_ns=would_fail,
                unsampled=unsampled, sampled=sampled))
    return result


# ---------------------------------------------------------------------
# rate-0 identity
# ---------------------------------------------------------------------

def rate_zero_identity(apps: Optional[Tuple[str, ...]] = None,
                       triggers: int = 1) -> dict:
    """The off-switch: a ``sampling_rate=0`` session attaches no
    guards -- so every sampling branch is skipped and the session is
    the pre-sampling one -- and its beacons carry no ``sampling``
    section.  The same app at ``GATE_RATE`` must show both, so the
    check fails if the off-switch leaks."""
    names = list(apps) if apps \
        else [a.name for a in real_bug_apps()]
    mismatches = []
    with tempfile.TemporaryDirectory(prefix="bench-rate0-") as tmp:
        for name in names:
            app = get_app(name)
            seen = []
            for r in (0, GATE_RATE):
                runtime, _, _ = run_first_aid(
                    app, spaced_workload(app, triggers),
                    config=FirstAidConfig(
                        store_path=os.path.join(tmp, f"{name}-{r}.json"),
                        sampling_rate=r))
                ext = runtime.process.extension
                beacons = runtime.health.load().live_beacons().values()
                runtime.close()
                seen.append((ext.guards is not None,
                             all("sampling" in b for b in beacons)))
            if seen != [(False, False), (True, True)]:
                mismatches.append(name)
    return {"apps": names, "triggers": triggers, "rate": GATE_RATE,
            "mismatches": mismatches, "gate_passed": not mismatches}
