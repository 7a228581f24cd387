"""The four workloads of the end-to-end benchmark, their sessions and
their correctness checks.

Every workload is a closed loop with one client.  A *session* builds
one :class:`~repro.core.runtime.FirstAidRuntime`, runs it to completion
over one app's pre-generated token stream and closes it; the next
session starts when the previous one has returned.  Sessions rotate
over the seven real-bug apps in *rounds*, and every session's input
seed is derived from the run's ``--seed``, the round and the app, so
the program only ever receives generated tokens.

Each session is timed from construction to close, between two runs of
the calibration kernel (:mod:`calib`), and checked afterwards; a
failed check counts the session as failed.
"""

from __future__ import annotations

import glob
import hashlib
import math
import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import calib
from repro.apps.registry import get_app
from repro.bench.harness import spaced_workload
from repro.core.diagnosis import Verdict
from repro.core.runtime import FirstAidConfig, FirstAidRuntime
from repro.heap.extension import ExtensionMode
from repro.process import Process
from repro.store import SharedPatchStore

APPS = ("apache", "bc", "cvs", "m4", "mutt", "pine", "squid")

#: Requests per serve session, and per warm-up session of the set-up.
SERVE_REQUESTS = 400
WARMUP_REQUESTS = 40
#: Rounds every timed phase completes however slow the host is.  The
#: simulated-clock metric and peak memory are taken over exactly these
#: rounds, so they do not depend on how many more a fast host fits in.
MIN_ROUNDS = 5
#: Fleet: the leader runs sampled guards at 1/64, the followers none.
FLEET_SAMPLING_RATE = 64
FLEET_FOLLOWERS = 2
#: recover_par fans re-executions out over one worker per core, at
#: most two (the recording host had two).
PAR_WORKERS = min(2, len(os.sched_getaffinity(0)))
#: Processes a workload keeps busy, and so the cores a run pins itself
#: to (capped by the cores available).
PROCESSES = {"serve": 1, "recover": 1, "recover_par": 1 + PAR_WORKERS,
             "fleet": 1}

#: Every run pins the compiled VM tier, so changing the runtime's
#: default tier does not move the benchmark.
VM_TIER = "compiled"
WORKLOAD_CONFIG = {
    "serve": {},
    "recover": {"workers": 1, "search_policy": "fixed"},
    "recover_par": {"workers": PAR_WORKERS, "search_policy": "bandit"},
    "fleet": {},
}


def session_seed(seed: int, round_no: int, app_index: int,
                 role: int = 0) -> int:
    """Input seed of one session: a hash, because the workload RNG
    (xorshift) mixes neighbouring small seeds poorly."""
    digest = hashlib.blake2b(
        f"{seed}/{round_no}/{app_index}/{role}".encode(),
        digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


@dataclass
class Spec:
    """One session to run: inputs and configuration, made before the
    timed window."""

    round: int
    app: str
    role: str                  # serve | recover | leader | follower-N
    tokens: List[int]
    requests: int
    config: Dict


@dataclass
class Record:
    """What one session cost and whether it was correct."""

    round: int
    app: str
    role: str
    requests: int
    raw_s: float = 0.0
    factor: float = 1.0
    sim_ns: int = 0
    #: (RecoveryRecord.wall_s, RecoveryRecord.recovery_time_ns) each
    recoveries: List = field(default_factory=list)
    error: str = ""
    #: hash of the session's diagnosis key (recovery workloads)
    key: str = ""
    output: Optional[List[int]] = None

    @property
    def cal_s(self) -> float:
        return self.raw_s * self.factor

    def to_json(self) -> dict:
        return {"round": self.round, "app": self.app, "role": self.role,
                "requests": self.requests, "raw_s": self.raw_s,
                "factor": self.factor, "sim_ns": self.sim_ns,
                "recoveries": self.recoveries, "error": self.error,
                "key": self.key}


@dataclass
class Phase:
    """The sessions of one timed phase."""

    records: List[Record]
    rounds: int
    #: peak RSS of this process when the first MIN_ROUNDS rounds ended
    rss_mb: float


def diagnosis_key(app: str, session) -> str:
    """Hash of the diagnosis-key fields of ``SessionDigest`` in
    :mod:`repro.bench.harness`: everything a diagnosis decided, nothing
    about how many probes it took or which backend ran them."""
    recs = session.recoveries
    diags = [r.diagnosis for r in recs]
    key = (
        app, session.reason, len(recs),
        tuple(r.succeeded for r in recs),
        tuple(d.verdict.name if d else "" for d in diags),
        tuple(tuple(b.value for b in d.bug_types) if d else ()
              for d in diags),
        tuple(d.checkpoint.index if d and d.checkpoint else None
              for d in diags),
        tuple(tuple(f"{b.value}|"
                    + ";".join(s.render() for s in d.evidence[b].sites)
                    + "|" + ";".join(d.evidence[b].details)
                    for b in d.bug_types) if d else ()
              for d in diags),
        tuple(tuple(p.describe() for p in d.patches) if d else ()
              for d in diags),
        tuple(r.validation.consistent if r.validation else None
              for r in recs),
        tuple(tuple(r.validation.reasons) if r.validation else ()
              for r in recs),
        tuple(r.rung for r in recs),
    )
    return hashlib.sha256(repr(key).encode()).hexdigest()[:16]


def percentile(values: List[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def app_percentiles(records: List[Record], seconds) -> tuple:
    """Session time at the median and the 90th percentile, over apps.

    Session times cluster by app and role, so a percentile of the
    pooled sessions falls between clusters and jumps from run to run.
    The median is instead the geometric mean, over (app, role), of each
    group's median; the 90th percentile is that median times the 90th
    percentile of every session's time divided by its group's median.
    """
    def group(r):
        return r.app, r.role.split("-")[0]

    groups: Dict[tuple, List[float]] = {}
    for r in records:
        groups.setdefault(group(r), []).append(seconds(r))
    medians = {k: statistics.median(v) for k, v in groups.items()}
    p50 = math.exp(statistics.fmean(math.log(m) for m in medians.values()))
    tail = percentile([seconds(r) / medians[group(r)] for r in records], 90)
    return p50, p50 * tail


class Bench:
    """The set-up every run pays once: the seven programs compiled and
    warmed, plus a scratch directory for shared stores."""

    def __init__(self, workdir: str, cpus: list):
        self.workdir = workdir
        #: the cores the calibration kernel runs on
        self.cpus = cpus
        self.apps = {name: get_app(name) for name in APPS}
        self.programs = {name: app.program()
                         for name, app in self.apps.items()}

    # -- inputs ---------------------------------------------------------

    def warmup_specs(self, seed: int) -> List[Spec]:
        specs = []
        for i, name in enumerate(APPS):
            wl = self.apps[name].normal_workload(
                WARMUP_REQUESTS, seed=session_seed(seed, -1, i))
            specs.append(Spec(-1, name, "serve", wl.tokens,
                              len(wl.boundaries) - 1, {}))
        return specs

    def round_specs(self, workload: str, seed: int,
                    round_no: int) -> List[Spec]:
        config = WORKLOAD_CONFIG[workload]
        specs = []
        for i, name in enumerate(APPS):
            app = self.apps[name]
            if workload == "serve":
                wl = app.normal_workload(
                    SERVE_REQUESTS, seed=session_seed(seed, round_no, i))
                specs.append(Spec(round_no, name, "serve", wl.tokens,
                                  len(wl.boundaries) - 1, config))
            elif workload in ("recover", "recover_par"):
                wl = spaced_workload(
                    app, triggers=2, seed=session_seed(seed, round_no, i))
                specs.append(Spec(round_no, name, "recover", wl.tokens,
                                  len(wl.boundaries) - 1, config))
            else:
                store = os.path.join(self.workdir,
                                     f"store-{round_no}-{name}.json")
                for member in range(FLEET_FOLLOWERS + 1):
                    role = f"follower-{member}" if member else "leader"
                    wl = spaced_workload(
                        app, triggers=2,
                        seed=session_seed(seed, round_no, i, member))
                    member_config = dict(
                        config, store_path=store,
                        process_label=role if member else "leader-0",
                        sampling_rate=0 if member
                        else FLEET_SAMPLING_RATE)
                    specs.append(Spec(round_no, name, role, wl.tokens,
                                      len(wl.boundaries) - 1,
                                      member_config))
        return specs

    # -- sessions -------------------------------------------------------

    def _run(self, spec: Spec):
        config = FirstAidConfig(vm_tier=VM_TIER, **spec.config)
        runtime = FirstAidRuntime(self.programs[spec.app],
                                  input_tokens=spec.tokens, config=config)
        try:
            return runtime, runtime.run()
        finally:
            runtime.close()

    def warm_up(self, specs: List[Spec]) -> None:
        for spec in specs:
            self._run(spec)

    def run_session(self, spec: Spec, tracer=None) -> Record:
        rec = Record(spec.round, spec.app, spec.role, spec.requests)
        if spec.role == "leader":
            for path in glob.glob(spec.config["store_path"] + "*"):
                os.unlink(path)
        runtime = session = None
        before = calib.kernel_seconds(self.cpus)
        if tracer is not None:
            tracer.begin()
        start = time.perf_counter()
        try:
            runtime, session = self._run(spec)
        except Exception as exc:  # noqa: BLE001 - a crash fails the session
            rec.error = f"{type(exc).__name__}: {exc}"
        rec.raw_s = time.perf_counter() - start
        if tracer is not None:
            tracer.pause()
        rec.raw_s += calib.wait_quiet()
        rec.factor = calib.factor(before, calib.kernel_seconds(self.cpus))
        if tracer is not None:
            tracer.end(rec.raw_s, rec.factor, runtime)
        if session is not None:
            rec.sim_ns = runtime.process.clock.now_ns
            rec.recoveries = [(r.wall_s, r.recovery_time_ns)
                              for r in session.recoveries]
            if spec.role == "recover":
                rec.key = diagnosis_key(spec.app, session)
            if spec.role == "serve":
                rec.output = runtime.process.output.values()
            rec.error = self.check(spec, runtime, session) or ""
        if spec.role == f"follower-{FLEET_FOLLOWERS}":
            for path in glob.glob(spec.config["store_path"] + "*"):
                os.unlink(path)
        return rec

    @staticmethod
    def check(spec: Spec, runtime, session) -> Optional[str]:
        """The per-session correctness check; a message on failure."""
        if session.reason != "halt":
            return f"session ended with {session.reason!r}, not 'halt'"
        recs = session.recoveries
        if spec.role == "serve" or spec.role.startswith("follower"):
            if recs:
                return f"{len(recs)} recoveries in a session that " \
                       "must not fail"
            if spec.role.startswith("follower") and sum(
                    p.trigger_count for p in runtime.pool.patches()) <= 0:
                return "the fleet's patch never fired in a follower"
            return None
        if not recs:
            return "no recovery in a session with a triggered bug"
        if spec.role == "leader":
            if not all(r.succeeded for r in recs):
                return "leader recovery failed"
            store = SharedPatchStore(spec.config["store_path"],
                                     runtime.process.program.name)
            if not store.load().validated_keys():
                return "no validated patch in the store after the leader"
            return None
        for r in recs:
            if r.rung != 1 or r.diagnosis is None \
                    or r.diagnosis.verdict is not Verdict.PATCHED:
                return f"recovery at rung {r.rung} with verdict " \
                       f"{r.diagnosis.verdict.name if r.diagnosis else None}"
            if r.validation is None or not r.validation.consistent:
                return "patch validation missing or inconsistent"
        return None

    # -- phases ---------------------------------------------------------

    def run_phase(self, workload: str, seed: int, seconds: float,
                  quick: bool, tracer=None) -> Phase:
        """Whole rounds, back to back, for about ``seconds``: a round
        starts only while it is expected to end in time, and the first
        :data:`MIN_ROUNDS` always run (one in ``quick`` mode)."""
        records: List[Record] = []
        started = time.perf_counter()
        round_no = 0
        rss_mb = 0.0
        while True:
            elapsed = time.perf_counter() - started
            if quick:
                if round_no == 1:
                    break
            elif round_no >= MIN_ROUNDS \
                    and elapsed * (round_no + 1) / round_no > seconds:
                break
            for spec in self.round_specs(workload, seed, round_no):
                records.append(self.run_session(spec, tracer))
            if workload == "serve" and round_no > 1:
                # Outputs are kept for the first and the latest round
                # only: those are compared with an unextended run.
                for rec in records:
                    if rec.round == round_no - 1:
                        rec.output = None
            round_no += 1
            if round_no == (1 if quick else MIN_ROUNDS):
                rss_mb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024
        return Phase(records, round_no, rss_mb)

    def post_checks(self, workload: str, seed: int, phase: Phase,
                    ) -> Dict[str, float]:
        """Checks that need extra untimed runs.  Returns the metrics
        they yield (``overhead_sim_pct`` on serve)."""
        by_key = {(r.round, r.app, r.role): r for r in phase.records}
        if workload == "serve":
            # Output must equal the same tokens run with the allocator
            # extension off and no checkpointing; the simulated times of
            # both runs give Figure 6's overhead.
            fa_ns = off_ns = 0
            for round_no in sorted({0, phase.rounds - 1}):
                for spec in self.round_specs(workload, seed, round_no):
                    rec = by_key[(round_no, spec.app, spec.role)]
                    plain = Process(self.programs[spec.app],
                                    input_tokens=spec.tokens,
                                    mode=ExtensionMode.OFF,
                                    vm_tier=VM_TIER)
                    plain.run()
                    if rec.output != plain.output.values() \
                            and not rec.error:
                        rec.error = "output differs from the run with " \
                                    "ExtensionMode.OFF"
                    fa_ns += rec.sim_ns
                    off_ns += plain.clock.now_ns
            return {"overhead_sim_pct": (fa_ns - off_ns) / off_ns * 100}
        if workload == "recover_par":
            # The parallel backend and the bandit must reach the same
            # diagnoses as the serial fixed schedule.
            for spec in self.round_specs("recover", seed, 0):
                rec = by_key[(0, spec.app, spec.role)]
                _, session = self._run(spec)
                if diagnosis_key(spec.app, session) != rec.key \
                        and not rec.error:
                    rec.error = "diagnosis differs from workers=1, " \
                                "search fixed"
        return {}


def end_to_end(phase: Phase) -> Dict[str, float]:
    """Every end-to-end number of one phase, calibrated and raw."""
    recs = phase.records
    requests = sum(r.requests for r in recs)
    prefix = [r for r in recs if r.round < MIN_ROUNDS]
    out = {
        "requests_per_s": requests / sum(r.cal_s for r in recs),
        "requests_per_s.raw": requests / sum(r.raw_s for r in recs),
        "sim_us_per_request": (sum(r.sim_ns for r in prefix)
                               / sum(r.requests for r in prefix) / 1e3),
        "peak_rss_mb": phase.rss_mb,
        "sessions": len(recs),
        "rounds": phase.rounds,
        "fail_rate": sum(1 for r in recs if r.error) / len(recs),
    }
    out["session_p50_ms"], out["session_p90_ms"] = app_percentiles(
        recs, lambda r: r.cal_s * 1e3)
    out["session_p50_ms.raw"], out["session_p90_ms.raw"] = \
        app_percentiles(recs, lambda r: r.raw_s * 1e3)
    failures = [(wall * r.factor, wall, sim)
                for r in recs for wall, sim in r.recoveries]
    if failures:
        out["failures"] = len(failures)
        for q in (50, 90):
            out[f"recovery_p{q}_ms"] = percentile(
                [f[0] * 1e3 for f in failures], q)
            out[f"recovery_p{q}_ms.raw"] = percentile(
                [f[1] * 1e3 for f in failures], q)
        out["recovery_sim_p50_ms"] = percentile(
            [f[2] / 1e6 for f in failures], 50)
    return out
